"""Traced launcher for one boxatom CLI command, and the span file it writes.

    python perfbench/tracer.py SPAN_FILE SPAWN_TIME -- <boxatom arguments>

SPAWN_TIME is the parent's `time.perf_counter()` just before it started
this process (CLOCK_MONOTONIC, shared by every process on the machine). The
launcher times interpreter start, `import numpy`, `import boxatom.cli` and a
first 2x2 `eigh`, wraps the package's public functions listed in `LAYERS`,
then calls `boxatom.cli.main`. Every wrapped call is one span: name, start,
end and the enclosing span. Spans stay in memory and are written to
SPAN_FILE when the command ends, however it ends.

A span file is one JSON header line followed by four native arrays of
`n` items each: name index (int32), parent span (int32, -1 for none), start
and end (float64 seconds). The header carries the names, the startup
times, per-span work counts, the spans that raised ConvergenceError, and
the "cold" Coulomb spans: calls that added an entry to the table's integral
cache (`CoulombTable._slater` or `_central`), so computed the integral
rather than reading it back. Reading the cache size costs two `len` calls
and keeps no argument alive; a table without such a dict has no cold calls.
"""

import time

_T0 = time.perf_counter()

import array  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

NO_PARENT = -1


def _points(args, kwargs):
    r = args[1] if len(args) > 1 else kwargs["r"]
    return int(getattr(r, "size", 1))


def _basis_size(args, kwargs):
    return len(args[1] if len(args) > 1 else kwargs["basis"])


# (span name, module, owner attribute path, work counter, cache of args[0])
LAYERS = (
    ("coulomb.slater_radial", "coulomb", "CoulombTable.slater_radial", None, "_slater"),
    ("coulomb.central_expectation", "coulomb", "CoulombTable.central_expectation", None,
     "_central"),
    ("coulomb.get_table", "coulomb", "get_table", None, None),
    ("ci.interaction_matrix", "ci", "interaction_matrix", _basis_size, None),
    ("ci.ground_state", "ci", "ground_state", None, None),
    ("ci.overlap_scan", "ci", "overlap_scan", None, None),
    ("ci.second_order_estimate", "ci", "second_order_estimate", None, None),
    ("ci.second_order_sum_over_states", "ci", "second_order_sum_over_states", None, None),
    ("sphere.build_radial_mode", "sphere", "build_radial_mode", None, None),
    ("sphere.mode_eval", "sphere", "RadialMode.__call__", _points, None),
    ("quadrature.gauss_legendre", "quadrature", "gauss_legendre", None, None),
    ("perturbation.epsilon1", "perturbation", "epsilon1", None, None),
    ("perturbation.energy_curve", "perturbation", "energy_curve", None, None),
    ("perturbation.nuclear_motion_report", "perturbation", "nuclear_motion_report", None, None),
    ("system.load_system", "system", "load_system", None, None),
    ("system.nondimensionalize", "system", "nondimensionalize", None, None),
)


class Recorder:
    """In-memory spans of one process; one thread, so spans nest strictly."""

    def __init__(self, error_type=Exception):
        self.names: list[str] = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.work: dict[int, int] = {}
        self.errors: list[int] = []
        self.cold: list[int] = []
        self.error_type = error_type
        self._stack = [NO_PARENT]

    def wrap(self, label, fn, work=None, cache=None):
        """`fn` with each call recorded as a span named `label`.

        `work(args, kwargs)` gives the call's work count; `cache` names a
        dict attribute of the first argument whose growth marks a cold call.
        """
        name_id = len(self.names)
        self.names.append(label)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, errors, cold, error_type = self._stack, self.errors, self.cold, self.error_type
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            cached = len(getattr(args[0], cache, ())) if cache else 0
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except error_type:
                errors.append(i)
                raise
            finally:
                ends[i] = clock()
                stack.pop()
                if work is not None:
                    self.work[i] = work(args, kwargs)
                if cache and len(getattr(args[0], cache, ())) > cached:
                    cold.append(i)

        return traced

    def write(self, path: str, header: dict) -> None:
        header = dict(header, names=self.names, n=len(self.start),
                      work=sorted(self.work.items()), errors=self.errors, cold=self.cold)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def install(recorder: Recorder, package) -> None:
    """Replace each function in LAYERS, wherever a package module refers to it."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))]
    for label, module_name, path, work, cache in LAYERS:
        owner = sys.modules.get(f"{package.__name__}.{module_name}")
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            continue  # the layer no longer has this function; its metrics read 0
        wrapped = recorder.wrap(label, original, work, cache)
        if owner_path:
            setattr(owner, attr, wrapped)
            continue
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)


# ------------------------------------------------------------------ reading


def read_spans(path: str) -> dict:
    """Header fields plus the arrays `name`, `parent`, `start`, `end`."""
    with open(path, "rb") as fh:
        spans = json.loads(fh.readline())
        for field, code in (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d")):
            arr = array.array(code)
            arr.fromfile(fh, spans["n"])
            spans[field] = arr
    return spans


def self_times(parent, start, end) -> list[float]:
    """Span duration minus the time its child spans cover.

    Spans of one thread nest strictly, so children never overlap and the
    time they cover is the sum of their durations.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p != NO_PARENT:
            out[p] -= end[i] - start[i]
    return out


def summarize(spans: dict) -> dict:
    """Per span name: calls, total_s, self_s, first_s, work, cold, cold_s, errors."""
    names = spans["names"]
    out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "first_s": 0.0, "work": 0,
               "cold": 0, "cold_s": 0.0, "errors": 0} for n in names}
    own = self_times(spans["parent"], spans["start"], spans["end"])
    for i, (nid, s, e) in enumerate(zip(spans["name"], spans["start"], spans["end"])):
        row = out[names[nid]]
        if not row["calls"]:
            row["first_s"] = e - s
        row["calls"] += 1
        row["total_s"] += e - s
        row["self_s"] += own[i]
    for i, w in spans["work"]:
        out[names[spans["name"][i]]]["work"] += w
    for i in spans["cold"]:
        row = out[names[spans["name"][i]]]
        row["cold"] += 1
        row["cold_s"] += spans["end"][i] - spans["start"][i]
    for i in spans["errors"]:
        out[names[spans["name"][i]]]["errors"] += 1
    return out


# ------------------------------------------------------------------ launcher


def main(argv: list[str]) -> int:
    span_path, spawn_time, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPAN_FILE SPAWN_TIME -- <boxatom arguments>")
    clock = time.perf_counter
    startup = {"python_s": _T0 - float(spawn_time)}
    t = clock()
    import numpy

    startup["import_numpy_s"] = clock() - t
    t = clock()
    import boxatom.cli
    from boxatom.errors import ConvergenceError

    startup["import_boxatom_s"] = clock() - t
    t = clock()
    numpy.linalg.eigh(numpy.array([[2.0, 1.0], [1.0, 2.0]]))
    startup["first_eigh_s"] = clock() - t

    recorder = Recorder(ConvergenceError)
    install(recorder, sys.modules["boxatom"])
    cli_main = recorder.wrap("cli.main", boxatom.cli.main)
    try:
        code = cli_main(cli_args)
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        recorder.write(span_path, {"startup": startup, "command": cli_args})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
