"""Command-line front end: system definitions in, coefficient tables out.

Each command builds one `Report`, which `write_report` writes as CSV or JSON
to stdout or the `-o` file, row by row as it is formatted.
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
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import ci
from .coulomb import DEFAULT_POINTS, MAX_POINTS, MIN_POINTS, check_nmax, check_points, get_table
from .errors import ConvergenceError, ValidationError
from .perturbation import (
    PerturbationCoefficients,
    _curve_points,
    epsilon1,
    ground_occupation,
    nuclear_motion_report,
    turnover_lambda,
)
from .system import (
    DimensionlessSystem,
    SystemDefinition,
    helium_system,
    load_system,
    nondimensionalize,
)

ENV_QUAD_POINTS = "BOXATOM_QUAD_POINTS"
# the lambda grid is built from --steps, so it is bounded before any allocation
MAX_STEPS = 10_000

PRESETS = {
    "he-clamped": lambda: helium_system(clamped_nucleus=True),
    "he-moving": lambda: helium_system(clamped_nucleus=False),
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    system_path: str
    lambda_min: float
    lambda_max: float
    steps: int
    quadrature_points: int
    ci_nmax: int
    output_format: str
    output_path: str | None

    def __post_init__(self):
        if not 1 <= self.steps <= MAX_STEPS:
            raise ValidationError(f"steps must lie in [1, {MAX_STEPS}], got {self.steps}")
        for name, value in (("lambda-min", self.lambda_min), ("lambda-max", self.lambda_max)):
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if self.lambda_min <= 0:
            raise ValidationError(f"lambda-min must be positive, got {self.lambda_min}")
        if self.lambda_max < self.lambda_min:
            raise ValidationError(
                f"lambda-max {self.lambda_max} is below lambda-min {self.lambda_min}"
            )
        check_points(self.quadrature_points)
        check_nmax(self.ci_nmax)

    @property
    def lambda_grid(self) -> np.ndarray:
        return np.linspace(self.lambda_min, self.lambda_max, self.steps)


@dataclass(frozen=True)
class Report:
    """What one command prints, stated once; `write_report` writes it as CSV or JSON.

    JSON lists `rows` under `rows_name`, one object per row keyed by `columns`;
    only nuclear-motion has `sections` (its clamped and moving variants).
    `rows` is any iterable of cell sequences and is read once, as it is
    written. Keys are distinct across the run head, `meta`, `rows_name` and
    `sections`.
    """

    meta: list[tuple[str, object]]
    columns: tuple[str, ...] = ()
    rows: Iterable[Sequence[object]] = ()
    rows_name: str = "rows"
    sections: dict[str, Report] = field(default_factory=dict)


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


def write_report(config: RunConfig, report: Report, out: TextIO) -> None:
    """Write the report to `out` as a CSV or JSON document, after the shared run head.

    Each row is formatted and written in turn, so no whole document is held.
    """
    head = [
        ("command", config.command),
        ("system", config.system_path),
        ("quadrature_points", config.quadrature_points),
    ]
    if config.output_format == "json":
        out.writelines(_json_chunks(replace(report, meta=head + report.meta), 0))
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
    out.writelines(f"# {key}={_fmt(value)}\n" for key, value in meta)
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


def _resolve_quad_points(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(ENV_QUAD_POINTS)
    if raw is None:
        return DEFAULT_POINTS
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"{ENV_QUAD_POINTS} must be an integer, got {raw!r}") from None


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


def cmd_coeffs(config: RunConfig) -> Report:
    definition = _resolve_system(config.system_path)
    system = nondimensionalize(definition)
    table = get_table(config.quadrature_points)
    coeffs = epsilon1(system, ground_occupation(system), table)
    return _breakdown_report(
        coeffs,
        ("lambda", system.lam),
        ("a_bohr", system.length_scale_a),
        ("energy_prefactor_hartree", system.energy_prefactor),
    )


def cmd_curve(config: RunConfig) -> Report:
    definition = _resolve_system(config.system_path)
    system = nondimensionalize(definition)
    table = get_table(config.quadrature_points)
    coeffs = epsilon1(system, ground_occupation(system), table)
    lams, rc_bohr, energy = _curve_points(system, coeffs, config.lambda_grid)
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


# fixed small-lambda grid for the second-order fit; must stay within (0, 0.2]
_EPS2_FIT_GRID = tuple(float(x) for x in np.linspace(0.02, 0.2, 10))


def cmd_ci_scan(config: RunConfig) -> Report:
    if config.ci_nmax < 4:
        raise ValidationError(
            f"ci-scan needs nmax >= 4 for the second-order estimate, got {config.ci_nmax}"
        )
    definition = _resolve_system(config.system_path)
    system = nondimensionalize(definition)
    z = _ci_charge(system)
    table = get_table(config.quadrature_points)
    basis = ci.CiBasis.up_to(config.ci_nmax)
    coeffs = epsilon1(system, ground_occupation(system), table)
    problem = ci.CiProblem(z, basis, table)
    # ascending, as the scan requires, since lambda_min <= lambda_max
    grid = config.lambda_grid
    # a row keeps its energy and overlap0; each solution's vector is dropped once read
    energy, overlap0 = np.empty_like(grid), np.empty_like(grid)
    for row, solution in enumerate(problem.scan(grid)):
        energy[row], overlap0[row] = solution.energy, solution.overlap0
    eps2 = problem.second_order_estimate(_EPS2_FIT_GRID)
    return Report(
        meta=[
            ("nmax", config.ci_nmax),
            ("z", z),
            ("eps0", coeffs.eps0),
            ("eps1", coeffs.eps1),
            ("s_limited_eps2", eps2),
        ],
        columns=("lambda", "energy_ci", "energy_first_order", "overlap0"),
        rows=((lam, e, coeffs.eps0 + coeffs.eps1 * lam, overlap)
              for lam, e, overlap in _float_rows(grid, energy, overlap0)),
    )


def _nuclear_variants(definition: SystemDefinition) -> dict[str, SystemDefinition]:
    system = nondimensionalize(definition)
    heavy = [i for i, p in enumerate(system.particles) if abs(p.q_prime) > 1.0]
    if len(heavy) != 1:
        raise ValidationError(
            "nuclear-motion needs exactly one nucleus-like particle with |q'| > 1, "
            f"found {len(heavy)}"
        )
    nucleus = heavy[0]
    if nucleus == definition.reference:
        raise ValidationError("reference particle cannot be the nucleus")

    def variant(clamped: bool) -> SystemDefinition:
        particles = list(definition.particles)
        particles[nucleus] = replace(particles[nucleus], clamped=clamped)
        return replace(definition, particles=tuple(particles))

    return {"clamped": variant(True), "moving": variant(False)}


def cmd_nuclear_motion(config: RunConfig) -> Report:
    variants = _nuclear_variants(_resolve_system(config.system_path))
    table = get_table(config.quadrature_points)
    coeffs = {}
    for name, definition in variants.items():
        system = nondimensionalize(definition)
        coeffs[name] = epsilon1(system, ground_occupation(system), table)
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
        epilog=f"Presets usable in place of a system file: {', '.join(sorted(PRESETS))}. "
        f"The {ENV_QUAD_POINTS} environment variable overrides the default "
        f"quadrature resolution; --quad-points wins over it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("system", help="preset name or system JSON file")
        p.add_argument("--quad-points", type=int, default=None,
                       help=f"quadrature points in [{MIN_POINTS}, {MAX_POINTS}] (default {DEFAULT_POINTS})")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")

    def add_grid(p: argparse.ArgumentParser, lo: float, hi: float, steps: int) -> None:
        p.add_argument("--lambda-min", type=float, default=lo)
        p.add_argument("--lambda-max", type=float, default=hi)
        p.add_argument("--steps", type=int, default=steps)

    add_common(sub.add_parser("coeffs", help="expansion coefficients and breakdown"))
    curve = sub.add_parser("curve", help="physical energy curve over a lambda grid")
    add_common(curve)
    add_grid(curve, 0.1, 2.0, 20)
    scan = sub.add_parser("ci-scan", help="variational CI energies and overlaps over a grid")
    add_common(scan)
    add_grid(scan, 0.1, 2.0, 20)
    scan.add_argument("--nmax", type=int, default=8, help="radial basis cutoff (default 8)")
    add_common(sub.add_parser("nuclear-motion", help="clamped vs moving nucleus comparison"))
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        system_path=args.system,
        lambda_min=getattr(args, "lambda_min", 1.0),
        lambda_max=getattr(args, "lambda_max", 1.0),
        steps=getattr(args, "steps", 1),
        quadrature_points=_resolve_quad_points(args.quad_points),
        ci_nmax=getattr(args, "nmax", 8),
        output_format=args.format,
        output_path=args.output,
    )


def _write_stdout(config: RunConfig, report: Report) -> None:
    out = sys.stdout
    if out is None:  # the process started with its stdout closed
        raise ValidationError("cannot write stdout: it is closed")
    try:
        write_report(config, report, out)
        out.flush()
    except OSError as exc:
        # the interpreter flushes stdout again at exit; what is left in its
        # buffer then goes to the null device instead of failing a second time
        # (https://docs.python.org/3/library/signal.html#note-on-sigpipe)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        raise ValidationError(f"cannot write stdout: {exc.strerror or exc}") from None


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        # every value is computed, and every input checked, before the first byte is written
        report = _COMMANDS[config.command](config)
        if config.output_path is None:
            _write_stdout(config, report)
        else:
            try:
                with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
                    write_report(config, report, fh)
            except OSError as exc:
                raise ValidationError(
                    f"cannot write {config.output_path}: {exc.strerror or exc}"
                ) from None
    except (ValidationError, ConvergenceError) as exc:
        sys.stderr.write(_error_line(exc))
        return 3 if isinstance(exc, ConvergenceError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
