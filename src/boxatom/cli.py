"""Command-line front end: system definitions in, coefficient tables out.

The arguments are parsed once, by argparse, and checked once, by
`_check_args`, before any system file is read; each command then reads the
parsed namespace. Each command builds one `Report`, which `write_report`
writes as CSV or JSON to stdout or the `-o` file, row by row as it is formatted.
Numbers are printed with 10 significant digits; CSV output carries
`# key=value` metadata lines ahead of the column header so a file stays
reproducible on its own. Exit codes: 0 success, 2 validation error
(including an output file or a stdout that cannot be written), 3
numerical-convergence error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import ci
from .coulomb import DEFAULT_POINTS, MAX_POINTS, MIN_POINTS, check_nmax, check_points
from .errors import ConvergenceError, Record, ValidationError, real
from .perturbation import (
    PerturbationCoefficients,
    energy_curve,
    epsilon1,
    nuclear_motion_report,
    turnover_lambda,
)
from .system import (
    DimensionlessSystem,
    ScaledParticle,
    SystemDefinition,
    helium_system,
    load_system,
    nondimensionalize,
)

# the lambda grid is built from --steps, so it is bounded before any allocation
MAX_STEPS = 10_000

PRESETS = {
    "he-clamped": lambda: helium_system(clamped_nucleus=True),
    "he-moving": lambda: helium_system(clamped_nucleus=False),
}


class Report(Record):
    """What one command prints, stated once; `write_report` writes it as CSV or JSON.

    JSON lists `rows` under `rows_name`, one object per row keyed by `columns`;
    only nuclear-motion has `sections` (its clamped and moving variants).
    `rows` is any iterable of cell sequences and is read once, as it is
    written. Keys are distinct across the run head, `meta`, `rows_name` and
    `sections`.
    """

    __slots__ = ("meta", "columns", "rows", "rows_name", "sections")

    def __init__(self, meta: list[tuple[str, object]], columns: tuple[str, ...] = (),
                 rows: Iterable[Sequence[object]] = (), rows_name: str = "rows",
                 sections: dict[str, Report] | None = None):
        self.meta, self.columns, self.rows, self.rows_name = meta, columns, rows, rows_name
        self.sections = {} if sections is None else sections


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _json_text(value) -> str:
    # json.dumps's text for one value; floats keep the 10 significant digits CSV
    # prints, and a finite one is its repr, as json.dumps prints it
    if isinstance(value, float):
        value = float(f"{value:.10g}")
        if math.isfinite(value):
            return repr(value)
    return json.dumps(value)


def _json_chunks(report: Report, depth: int) -> Iterator[str]:
    """The report as an object, laid out as json.dumps(..., indent=2) lays it out at `depth`."""
    pad = "\n" + "  " * (depth + 1)
    opener = "{"
    for key, value in report.meta:
        yield f"{opener}{pad}{json.dumps(key)}: {_json_text(value)}"
        opener = ","
    if report.columns:
        row_pad = pad + "  "
        keys = [f"{row_pad}  {json.dumps(column)}: " for column in report.columns]
        yield f"{opener}{pad}{json.dumps(report.rows_name)}: "
        opener = "["
        for row in report.rows:
            cells = ",".join(key + _json_text(cell) for key, cell in zip(keys, row))
            yield f"{opener}{row_pad}{{{cells}{row_pad}}}"
            opener = ","
        yield "[]" if opener == "[" else pad + "]"
        opener = ","
    for name, section in report.sections.items():
        yield f"{opener}{pad}{json.dumps(name)}: "
        yield from _json_chunks(section, depth + 1)
        opener = ","
    yield "{}" if opener == "{" else "\n" + "  " * depth + "}"


def write_report(args: argparse.Namespace, report: Report, out: TextIO) -> None:
    """Write the report to `out` as a CSV or JSON document, after the shared run head.

    Each row is formatted and written in turn, so no whole document is held.
    """
    head = [
        ("command", args.command),
        ("system", args.system),
        ("quadrature_points", args.quad_points),
    ]
    if args.format == "json":
        report = Report(head + report.meta, report.columns, report.rows, report.rows_name, report.sections)
        out.writelines(_json_chunks(report, 0))
        out.write("\n")
        return
    # JSON nests each section after the report's own metadata; CSV flattens it:
    # section metadata follows the head with keys prefixed `<section>_`, and
    # section rows follow one another under a leading `variant` column
    meta = head + [
        (f"{name}_{key}", value)
        for name, section in report.sections.items() for key, value in section.meta
    ] + report.meta
    columns, rows = report.columns, report.rows
    if report.sections:
        columns = ("variant", *next(iter(report.sections.values())).columns)
        rows = ((name, *row) for name, section in report.sections.items() for row in section.rows)
    # one write, so a head that `out` cannot encode fails before any of it is
    # written, also to an unbuffered stdout
    out.write("".join(f"# {key}={_fmt(value)}\n" for key, value in meta))
    # term labels contain commas, so rows go through a real CSV writer
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(map(_fmt, row) for row in rows)


def _resolve_system(name: str) -> SystemDefinition:
    preset = PRESETS.get(name)
    if preset is not None:
        return preset()
    if not os.path.exists(name):
        raise ValidationError(
            f"{name!r} is neither a preset ({', '.join(sorted(PRESETS))}) nor a readable file"
        )
    return load_system(name)


def _float_rows(*columns: np.ndarray) -> Iterator[tuple[float, ...]]:
    """The rows of float64 columns as Python floats, which format faster than numpy scalars."""
    return zip(*(map(float, column) for column in columns))


def _breakdown_report(coeffs: PerturbationCoefficients, *meta: tuple[str, object]) -> Report:
    return Report(
        meta=[*meta, ("eps0", coeffs.eps0), ("eps1", coeffs.eps1)],
        columns=("term", "kind", "prefactor", "integral", "value"),
        rows=((t.label, t.kind, t.prefactor, t.integral, t.value) for t in coeffs.breakdown),
        rows_name="breakdown",
    )


def cmd_coeffs(args: argparse.Namespace) -> Report:
    system = nondimensionalize(_resolve_system(args.system))
    coeffs = epsilon1(system, args.quad_points)
    return _breakdown_report(
        coeffs,
        ("lambda", system.lam),
        ("a_bohr", system.length_scale_a),
        ("energy_prefactor_hartree", system.energy_prefactor),
    )


def cmd_curve(args: argparse.Namespace) -> Report:
    system = nondimensionalize(_resolve_system(args.system))
    coeffs = epsilon1(system, args.quad_points)
    grid = np.linspace(args.lambda_min, args.lambda_max, args.steps)
    lams, rc_bohr, energy = energy_curve(system, coeffs, grid)
    return Report(
        meta=[
            ("a_bohr", system.length_scale_a),
            ("energy_prefactor_hartree", system.energy_prefactor),
            ("eps0", coeffs.eps0),
            ("eps1", coeffs.eps1),
            ("turnover_lambda", turnover_lambda(coeffs)),
        ],
        columns=("lambda", "rc_bohr", "energy_hartree"),
        rows=((lam, rc, system.energy_prefactor * e)
              for lam, rc, e in _float_rows(lams, rc_bohr, energy)),
        rows_name="points",
    )


def _ci_charge(system: DimensionlessSystem) -> float:
    free = system.free_particles
    clamped = system.clamped_particle
    if clamped is None or len(free) != 2:
        raise ValidationError(
            "ci-scan needs exactly two free electrons and one clamped nucleus"
        )
    if any(p.m_prime != 1.0 or p.q_prime != 1.0 for p in free):
        raise ValidationError(
            "ci-scan electrons must both match the reference particle (m' = q' = 1)"
        )
    z = -clamped.q_prime
    if z <= 0:
        raise ValidationError(
            "clamped charge must attract the electrons (opposite sign), "
            f"got q' = {clamped.q_prime}"
        )
    return z


def cmd_ci_scan(args: argparse.Namespace) -> Report:
    system = nondimensionalize(_resolve_system(args.system))
    z = _ci_charge(system)
    coeffs = epsilon1(system, args.quad_points)
    problem = ci.CiProblem(z, args.nmax, args.quad_points)
    # ascending, as the scan requires, since lambda_min <= lambda_max
    grid = np.linspace(args.lambda_min, args.lambda_max, args.steps)
    energy, overlap0, _ = problem.scan(grid)
    eps2 = problem.second_order_estimate()
    return Report(
        meta=[
            ("nmax", args.nmax),
            ("z", z),
            ("eps0", coeffs.eps0),
            ("eps1", coeffs.eps1),
            ("s_limited_eps2", eps2),
        ],
        columns=("lambda", "energy_ci", "energy_first_order", "overlap0"),
        rows=((lam, e, coeffs.eps0 + coeffs.eps1 * lam, overlap)
              for lam, e, overlap in _float_rows(grid, energy, overlap0)),
    )


def _nuclear_variants(system: DimensionlessSystem) -> dict[str, DimensionlessSystem]:
    """The system with its nucleus clamped and free; the scaling does not read `clamped`."""
    heavy = [i for i, p in enumerate(system.particles) if abs(p.q_prime) > 1.0]
    if len(heavy) != 1:
        raise ValidationError(
            "nuclear-motion needs exactly one nucleus-like particle with |q'| > 1, "
            f"found {len(heavy)}"
        )
    nucleus = heavy[0]

    def variant(clamped: bool) -> DimensionlessSystem:
        particles = list(system.particles)
        p = particles[nucleus]
        particles[nucleus] = ScaledParticle(p.m_prime, p.q_prime, clamped)
        return DimensionlessSystem(tuple(particles), system.lam, system.length_scale_a, system.energy_prefactor)

    return {"clamped": variant(True), "moving": variant(False)}


def cmd_nuclear_motion(args: argparse.Namespace) -> Report:
    variants = _nuclear_variants(nondimensionalize(_resolve_system(args.system)))
    coeffs = {name: epsilon1(system, args.quad_points) for name, system in variants.items()}
    report = nuclear_motion_report(coeffs["clamped"], coeffs["moving"])
    return Report(
        meta=[
            ("kinetic_shift", report.kinetic_shift),
            ("potential_shift", report.potential_shift),
            ("dominant", report.dominant),
        ],
        sections={name: _breakdown_report(eps) for name, eps in coeffs.items()},
    )


_COMMANDS = {
    "coeffs": cmd_coeffs,
    "curve": cmd_curve,
    "ci-scan": cmd_ci_scan,
    "nuclear-motion": cmd_nuclear_motion,
}


def _error_line(message) -> str:
    # every error ends in one `error:` line, even when the message holds a line break
    return f"error: {' '.join(str(message).splitlines())}\n"


class _Parser(argparse.ArgumentParser):
    # usage errors are reported like every other error; subparsers use this class too
    def error(self, message):
        self.exit(2, _error_line(message))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="boxatom",
        description="Strong-confinement expansions for charged particles in a spherical box.",
        epilog=f"Presets usable in place of a system file: {', '.join(sorted(PRESETS))}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("system", help="preset name or system JSON file")
        p.add_argument("--quad-points", type=int, default=DEFAULT_POINTS,
                       help=f"quadrature points in [{MIN_POINTS}, {MAX_POINTS}] (default {DEFAULT_POINTS})")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")

    def add_grid(p: argparse.ArgumentParser) -> None:
        p.add_argument("--lambda-min", type=float, default=0.1)
        p.add_argument("--lambda-max", type=float, default=2.0)
        p.add_argument("--steps", type=int, default=20)

    add_common(sub.add_parser("coeffs", help="expansion coefficients and breakdown"))
    curve = sub.add_parser("curve", help="physical energy curve over a lambda grid")
    add_common(curve)
    add_grid(curve)
    scan = sub.add_parser("ci-scan", help="variational CI energies and overlaps over a grid")
    add_common(scan)
    add_grid(scan)
    scan.add_argument("--nmax", type=int, default=8, help="radial basis cutoff (default 8)")
    add_common(sub.add_parser("nuclear-motion", help="clamped vs moving nucleus comparison"))
    return parser


def _check_args(args: argparse.Namespace) -> None:
    """The checks argparse does not make, for the flags the command has, in this order."""
    if hasattr(args, "steps"):
        if not 1 <= args.steps <= MAX_STEPS:
            raise ValidationError(f"steps must lie in [1, {MAX_STEPS}], got {args.steps}")
        for name, value in (("lambda-min", args.lambda_min), ("lambda-max", args.lambda_max)):
            real(name, value)
        if args.lambda_min <= 0:
            raise ValidationError(f"lambda-min must be positive, got {args.lambda_min}")
        if args.lambda_max < args.lambda_min:
            raise ValidationError(f"lambda-max {args.lambda_max} is below lambda-min {args.lambda_min}")
    check_points(args.quad_points)
    if hasattr(args, "nmax"):
        check_nmax(args.nmax)
        if args.nmax < ci.EPS2_MIN_NMAX:
            raise ValidationError(
                f"ci-scan needs nmax >= {ci.EPS2_MIN_NMAX} for the second-order estimate, got {args.nmax}"
            )


def _write(args: argparse.Namespace, report: Report) -> None:
    """Write the report to the -o file, or else to stdout; a failed write is a ValidationError."""
    path = args.output
    try:
        if path is not None:
            # a system path that is not UTF-8 is written as the bytes stdout prints by default
            with open(path, "w", encoding="utf-8", errors="surrogateescape", newline="") as fh:
                write_report(args, report, fh)
        elif sys.stdout is None:  # the process started with its stdout closed
            raise ValidationError("cannot write stdout: it is closed")
        else:
            write_report(args, report, sys.stdout)
            sys.stdout.flush()
    except (OSError, UnicodeEncodeError) as exc:  # UnicodeEncodeError: stdout cannot encode the system path
        if path is None:
            # the interpreter flushes stdout again at exit; what is left in its
            # buffer then goes to the null device instead of failing a second
            # time or ending a partial document
            # (https://docs.python.org/3/library/signal.html#note-on-sigpipe)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        where = "stdout" if path is None else path
        raise ValidationError(f"cannot write {where}: {getattr(exc, 'strerror', None) or exc}") from None


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_args(args)
        # every value is computed, and every input checked, before the first byte is written
        _write(args, _COMMANDS[args.command](args))
    except (ValidationError, ConvergenceError) as exc:
        sys.stderr.write(_error_line(exc))
        return 3 if isinstance(exc, ConvergenceError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
