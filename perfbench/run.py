"""Benchmark for the boxatom CLI: one closed-loop client, one command at a time.

    python3 perfbench/run.py --workload quick|ci-scan|ci-fine|all --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src`
directory. The client generates the workload's inputs from the seed, then
starts one `python -m boxatom.cli` process at a time, waits for it to exit,
checks its output against closed forms (checks.py) and starts the next,
until the next one would end after S seconds. Nothing runs in parallel.

With --trace 0 it reports the end-to-end metrics (BENCHMARK.json lists them).
With --trace 1 it alternates untraced invocations with traced ones
(tracer.py) and reports the per-layer metrics instead; every per-layer value
is a mean per traced invocation, except the ratios and per-call means, which
are pooled over all of them. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the lines before
it repeat each metric by name with its unit, plus facts about the machine.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 12
CHILD_TIMEOUT_S = 120.0
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


class Sample:
    """One finished CLI process."""

    def __init__(self, inv: dict, seconds: float, rss_mb: float, code: int,
                 stdout: bytes, stderr: bytes, traced: bool):
        self.inv, self.seconds, self.rss_mb = inv, seconds, rss_mb
        self.output_bytes = len(stdout)
        self.traced = traced
        self.error = None
        if code != 0:
            self.error = f"exit code {code}: {stderr.decode(errors='replace').strip()[-300:]}"
        else:
            try:
                checks.check_output(stdout.decode(), inv)
            except (checks.CheckFailed, UnicodeDecodeError) as exc:
                self.error = f"output check failed: {exc}"


def spawn(argv: list[str], env: dict, cwd: str, stderr_path: str) -> tuple[float, float, int, bytes, bytes]:
    """Run one child to completion: (wall seconds, max RSS in MB, exit code, stdout, stderr)."""
    with open(stderr_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return seconds, usage.ru_maxrss / 1024.0, proc.returncode, out, err.read()


class Client:
    """Starts CLI processes for one checkout, one at a time."""

    def __init__(self, root: str, workdir: str):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        # every run sees the same interpreter state: bytecode caches are
        # written on first import, and no quadrature override leaks in
        for name in ("PYTHONDONTWRITEBYTECODE", "BOXATOM_QUAD_POINTS", "PYTHONSTARTUP"):
            self.env.pop(name, None)
        self.stderr_path = os.path.join(workdir, "stderr.txt")
        self.count = 0

    def python(self, *args: str) -> tuple[float, float, int, bytes, bytes]:
        return spawn([sys.executable, *args], self.env, self.workdir, self.stderr_path)

    def import_seconds(self) -> float:
        """Wall time of a fresh interpreter that imports boxatom.cli and exits."""
        seconds, _, code, _, err = self.python("-c", "import boxatom.cli")
        if code != 0:
            raise RuntimeError(f"import boxatom.cli failed: {err.decode(errors='replace')}")
        return seconds

    def untraced(self, inv: dict) -> Sample:
        seconds, rss, code, out, err = self.python("-m", "boxatom.cli", *inv["args"])
        return Sample(inv, seconds, rss, code, out, err, traced=False)

    def traced(self, inv: dict) -> tuple[Sample, dict | None]:
        self.count += 1
        path = os.path.join(self.workdir, f"spans-{self.count}.bin")
        argv = [os.path.join(HERE, "tracer.py"), path, repr(time.perf_counter()), "--", *inv["args"]]
        seconds, rss, code, out, err = self.python(*argv)
        sample = Sample(inv, seconds, rss, code, out, err, traced=True)
        if not os.path.exists(path):
            return sample, None
        spans = tracer.read_spans(path)
        os.remove(path)
        return sample, spans


def machine_facts(client: Client, root: str) -> dict:
    """Interpreter, numpy and BLAS as the children see them; also checks the import path."""
    probe = (
        "import json, os, sys, numpy, boxatom.cli\n"
        "deps = numpy.show_config(mode='dicts').get('Build Dependencies', {})\n"
        "print(json.dumps({'boxatom': os.path.abspath(boxatom.cli.__file__),"
        " 'python': sys.version.split()[0], 'numpy': numpy.__version__,"
        " 'blas': deps.get('blas', {}), 'lapack': deps.get('lapack', {}).get('name')}))\n"
    )
    _, _, code, out, err = client.python("-c", probe)
    if code != 0:
        raise RuntimeError(f"cannot import boxatom from {root}/src: {err.decode(errors='replace')}")
    facts = json.loads(out)
    expected = os.path.join(root, "src", "boxatom", "cli.py")
    if os.path.realpath(facts.pop("boxatom")) != os.path.realpath(expected):
        raise RuntimeError(f"children import boxatom from somewhere other than {expected}")
    facts.update(
        nproc=os.cpu_count(),
        OPENBLAS_NUM_THREADS=os.environ.get("OPENBLAS_NUM_THREADS"),
        OMP_NUM_THREADS=os.environ.get("OMP_NUM_THREADS"),
    )
    return facts


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest ladder percentile with ten or more samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)  # nearest-rank percentile, 1-based
        if rank >= 1 and n - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def run_loop(client: Client, invocations: list[dict], seconds: float, trace: bool):
    """Closed loop over the invocation list until the next unit would overrun.

    Untraced runs also start SETUP_SAMPLES import-only processes, spread
    evenly over the run so that they see the same machine as the commands.
    """
    samples, traces, unit_times, setup_times = [], [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        if not trace and len(setup_times) < SETUP_SAMPLES \
                and elapsed >= len(setup_times) * seconds / SETUP_SAMPLES:
            setup_times.append(client.import_seconds())
            continue
        if unit_times and elapsed + statistics.median(unit_times) > seconds:
            break
        inv = invocations[k % len(invocations)]
        unit_start = time.perf_counter()
        if trace:
            # alternate which side goes first so drift hits both alike
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    sample, spans = client.traced(inv)
                    traces.append((sample, spans))
                else:
                    sample = client.untraced(inv)
                samples.append(sample)
        else:
            samples.append(client.untraced(inv))
        unit_times.append(time.perf_counter() - unit_start)
        k += 1
    while not trace and len(setup_times) < SETUP_SAMPLES:
        setup_times.append(client.import_seconds())
    return samples, traces, setup_times


def layer_metrics(traces: list, untraced: list[Sample]) -> dict:
    """Per-layer metrics from the traced invocations (see BENCHMARK.json)."""
    usable = [(s, spans) for s, spans in traces if spans is not None]
    if not usable:
        raise RuntimeError("no traced invocation wrote its spans")
    rows = [tracer.summarize(spans) for _, spans in usable]
    n = len(rows)

    def total(name, field):
        return sum(r.get(name, {}).get(field, 0) for r in rows)

    def per(name, field):
        return total(name, field) / n

    slater_calls, slater_cold = total("coulomb.slater_radial", "calls"), total("coulomb.slater_radial", "cold")
    slater_cold_s = total("coulomb.slater_radial", "cold_s")
    slater_warm_s = total("coulomb.slater_radial", "total_s") - slater_cold_s
    startup = {k: sum(spans["startup"][k] for _, spans in usable) / n
               for k in ("python_s", "import_numpy_s", "import_boxatom_s", "first_eigh_s")}
    basis = [r["ci.interaction_matrix"]["work"] / r["ci.interaction_matrix"]["calls"]
             for r in rows if r.get("ci.interaction_matrix", {}).get("calls")]
    metrics = {
        "startup.python_s": (startup["python_s"], "s"),
        "startup.import_numpy_s": (startup["import_numpy_s"], "s"),
        "startup.import_boxatom_s": (startup["import_boxatom_s"], "s"),
        "startup.first_eigh_s": (startup["first_eigh_s"], "s"),
        "sphere.build_radial_mode_calls": (per("sphere.build_radial_mode", "calls"), "count"),
        "sphere.mode_eval_s": (per("sphere.mode_eval", "total_s"), "s"),
        "sphere.mode_eval_points": (per("sphere.mode_eval", "work"), "count"),
        "quadrature.gauss_legendre_calls": (per("quadrature.gauss_legendre", "calls"), "count"),
        "quadrature.gauss_legendre_s": (per("quadrature.gauss_legendre", "total_s"), "s"),
        "coulomb.slater_calls": (slater_calls / n, "count"),
        "coulomb.slater_unique": (slater_cold / n, "count"),
        "coulomb.slater_hit_ratio": ((slater_calls - slater_cold) / slater_calls if slater_calls else 0.0,
                                     "ratio"),
        "coulomb.slater_cold_us": (1e6 * slater_cold_s / slater_cold if slater_cold else 0.0, "us"),
        "coulomb.slater_warm_us": (1e6 * slater_warm_s / (slater_calls - slater_cold)
                                   if slater_calls > slater_cold else 0.0, "us"),
        "coulomb.slater_s": (per("coulomb.slater_radial", "total_s"), "s"),
        "coulomb.central_calls": (per("coulomb.central_expectation", "calls"), "count"),
        "coulomb.central_unique": (per("coulomb.central_expectation", "cold"), "count"),
        "coulomb.central_s": (per("coulomb.central_expectation", "total_s"), "s"),
        "coulomb.convergence_errors": ((total("coulomb.slater_radial", "errors")
                                        + total("coulomb.central_expectation", "errors")) / n, "count"),
        "ci.interaction_matrix_calls": (per("ci.interaction_matrix", "calls"), "count"),
        "ci.interaction_matrix_s": (per("ci.interaction_matrix", "total_s"), "s"),
        "ci.interaction_matrix_self_s": (per("ci.interaction_matrix", "self_s"), "s"),
        "ci.basis_size": (sum(basis) / len(basis) if basis else 0.0, "count"),
        "ci.ground_state_calls": (per("ci.ground_state", "calls"), "count"),
        "ci.ground_state_s": (per("ci.ground_state", "total_s"), "s"),
        "ci.first_ground_state_s": (per("ci.ground_state", "first_s"), "s"),
        "ci.overlap_scan_self_s": (per("ci.overlap_scan", "self_s"), "s"),
        "ci.second_order_estimate_self_s": (per("ci.second_order_estimate", "self_s"), "s"),
        "perturbation.epsilon1_calls": (per("perturbation.epsilon1", "calls"), "count"),
        "perturbation.epsilon1_s": (per("perturbation.epsilon1", "total_s"), "s"),
        "perturbation.energy_curve_s": (per("perturbation.energy_curve", "total_s"), "s"),
        "perturbation.nuclear_motion_report_s": (per("perturbation.nuclear_motion_report", "total_s"), "s"),
        "system.load_system_s": (per("system.load_system", "total_s"), "s"),
        "system.nondimensionalize_s": (per("system.nondimensionalize", "total_s"), "s"),
        "cli.main_s": (per("cli.main", "total_s"), "s"),
        "cli.self_s": (per("cli.main", "self_s"), "s"),
        "cli.output_bytes": (sum(s.output_bytes for s, _ in usable) / n, "bytes"),
        "trace.overhead_ratio": (statistics.median(s.seconds for s, _ in traces)
                                 / statistics.median(s.seconds for s in untraced), "ratio"),
    }
    notes = {
        "coulomb.slater_hit_ratio": f"base: {slater_calls} slater_radial calls over {n} invocations",
        "trace.overhead_ratio": f"traced over untraced median wall time, "
                                f"{len(traces)} traced and {len(untraced)} untraced invocations",
    }
    return metrics, notes


def end_to_end_metrics(samples: list[Sample], setup_times: list[float]) -> tuple[dict, dict]:
    times = [s.seconds for s in samples]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "cmd_p50_s": (statistics.median(times), "s"),
        "peak_rss_mb": (max(s.rss_mb for s in samples), "MB"),
    }
    found = tail(times)
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh `import boxatom.cli` processes",
        "cmd_p50_s": f"median of {len(times)} invocations, spawn to exit",
        "peak_rss_mb": "largest max-RSS of any CLI process",
    }
    # not in BENCHMARK.json: runs of the CI workloads are too short for ten
    # samples beyond any percentile, and every gated metric must be reported
    notes["cmd_tail_s"] = (
        f"cmd_tail_s = {found[1]:.6g} s  (p{found[0]:g} of {len(times)} invocations)" if found
        else f"cmd_tail_s = n/a  ({len(times)} invocations leave no percentile with ten beyond it)")
    return metrics, notes


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    load = os.getloadavg()
    workdir = os.path.join(HERE, "_work", f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        client = Client(root, workdir)
        facts = machine_facts(client, root)
        facts["loadavg_at_start"] = list(load)
        invocations = workloads.build(workload, seed, workdir)
        samples, traces, setup_times = run_loop(client, invocations, seconds, trace)
        if trace:
            metrics, notes = layer_metrics(traces, [s for s in samples if not s.traced])
        else:
            metrics, notes = end_to_end_metrics(samples, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [s for s in samples if s.error]
    notes["failure_ratio"] = (f"failure_ratio = {len(failed) / len(samples):.6g} ratio  "
                              f"({len(failed)} of {len(samples)} invocations failed or gave wrong output)")
    print(f"# workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"# machine {json.dumps(facts, sort_keys=True)}")
    for s in failed[:5]:
        print(f"# FAILED {' '.join(s.inv['args'])}: {s.error}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    for name in ("cmd_tail_s", "failure_ratio"):
        if name in notes:
            print(notes[name])
    return {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "boxatom", "cli.py")):
        print(f"error: {root} has no src/boxatom; run from the root of a boxatom checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(root, w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
