"""Command-line front end: system definitions in, coefficient tables out.

Numbers are printed with 10 significant digits; CSV output carries
`# key=value` metadata lines ahead of the column header so a file stays
reproducible on its own. Exit codes: 0 success, 2 validation error
(including an output file that cannot be written), 3 numerical-convergence
error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import ci
from .coulomb import MAX_POINTS, MIN_POINTS, get_table
from .errors import ConvergenceError, ValidationError
from .perturbation import (
    PerturbationCoefficients,
    energy_curve,
    epsilon1,
    ground_occupation,
    nuclear_motion_report,
    turnover_lambda,
)
from .system import (
    DimensionlessSystem,
    Particle,
    SystemDefinition,
    helium_system,
    load_system,
    nondimensionalize,
)

ENV_QUAD_POINTS = "BOXATOM_QUAD_POINTS"
DEFAULT_QUAD_POINTS = 200

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
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {self.steps}")
        if self.lambda_min <= 0:
            raise ValidationError(f"lambda-min must be positive, got {self.lambda_min}")
        if self.lambda_max < self.lambda_min:
            raise ValidationError(
                f"lambda-max {self.lambda_max} is below lambda-min {self.lambda_min}"
            )
        if not MIN_POINTS <= self.quadrature_points <= MAX_POINTS:
            raise ValidationError(
                f"quadrature points must lie in [{MIN_POINTS}, {MAX_POINTS}], "
                f"got {self.quadrature_points}"
            )
        if not 1 <= self.ci_nmax <= ci.MAX_NMAX:
            raise ValidationError(f"nmax must lie in [1, {ci.MAX_NMAX}], got {self.ci_nmax}")

    @property
    def lambda_grid(self) -> list[float]:
        return [float(x) for x in np.linspace(self.lambda_min, self.lambda_max, self.steps)]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _round10(value: float) -> float:
    return float(f"{float(value):.10g}")


def _csv_document(metadata: list[tuple[str, object]], header: list[str],
                  rows: list[list[object]]) -> str:
    buf = io.StringIO()
    for key, value in metadata:
        buf.write(f"# {key}={_fmt(value)}\n")
    # term labels contain commas, so rows go through a real CSV writer
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(cell) for cell in row] for row in rows)
    return buf.getvalue()


def _json_document(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


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
        return DEFAULT_QUAD_POINTS
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"{ENV_QUAD_POINTS} must be an integer, got {raw!r}") from None


def _breakdown_rows(coeffs: PerturbationCoefficients) -> list[list[object]]:
    return [
        [t.label, t.kind, t.prefactor, t.integral, t.value]
        for t in coeffs.breakdown
    ]


def _breakdown_json(coeffs: PerturbationCoefficients) -> list[dict]:
    return [
        {
            "term": t.label,
            "kind": t.kind,
            "prefactor": _round10(t.prefactor),
            "integral": _round10(t.integral),
            "value": _round10(t.value),
        }
        for t in coeffs.breakdown
    ]


def cmd_coeffs(config: RunConfig) -> str:
    definition = _resolve_system(config.system_path)
    system = nondimensionalize(definition)
    table = get_table(config.quadrature_points)
    coeffs = epsilon1(system, ground_occupation(system), table)
    meta = [
        ("command", "coeffs"),
        ("system", config.system_path),
        ("quadrature_points", config.quadrature_points),
        ("lambda", system.lam),
        ("a_bohr", system.length_scale_a),
        ("energy_prefactor_hartree", system.energy_prefactor),
        ("eps0", coeffs.eps0),
        ("eps1", coeffs.eps1),
    ]
    if config.output_format == "json":
        return _json_document(
            {
                "command": "coeffs",
                "system": config.system_path,
                "quadrature_points": config.quadrature_points,
                "lambda": _round10(system.lam),
                "a_bohr": _round10(system.length_scale_a),
                "energy_prefactor_hartree": _round10(system.energy_prefactor),
                "eps0": _round10(coeffs.eps0),
                "eps1": _round10(coeffs.eps1),
                "breakdown": _breakdown_json(coeffs),
            }
        )
    return _csv_document(
        meta, ["term", "kind", "prefactor", "integral", "value"], _breakdown_rows(coeffs)
    )


def cmd_curve(config: RunConfig) -> str:
    definition = _resolve_system(config.system_path)
    system = nondimensionalize(definition)
    table = get_table(config.quadrature_points)
    occupation = ground_occupation(system)
    coeffs = epsilon1(system, occupation, table)
    points = energy_curve(system, occupation, config.lambda_grid, table)
    turnover = turnover_lambda(coeffs)
    meta = [
        ("command", "curve"),
        ("system", config.system_path),
        ("quadrature_points", config.quadrature_points),
        ("a_bohr", system.length_scale_a),
        ("energy_prefactor_hartree", system.energy_prefactor),
        ("eps0", coeffs.eps0),
        ("eps1", coeffs.eps1),
        ("turnover_lambda", "none" if turnover is None else turnover),
    ]
    rows = [
        [p.lam, p.rc_bohr, system.energy_prefactor * p.energy]
        for p in points
    ]
    if config.output_format == "json":
        return _json_document(
            {
                "command": "curve",
                "system": config.system_path,
                "quadrature_points": config.quadrature_points,
                "a_bohr": _round10(system.length_scale_a),
                "energy_prefactor_hartree": _round10(system.energy_prefactor),
                "eps0": _round10(coeffs.eps0),
                "eps1": _round10(coeffs.eps1),
                "turnover_lambda": None if turnover is None else _round10(turnover),
                "points": [
                    {
                        "lambda": _round10(row[0]),
                        "rc_bohr": _round10(row[1]),
                        "energy_hartree": _round10(row[2]),
                    }
                    for row in rows
                ],
            }
        )
    return _csv_document(meta, ["lambda", "rc_bohr", "energy_hartree"], rows)


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


def cmd_ci_scan(config: RunConfig) -> str:
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
    solutions = ci.overlap_scan(z, sorted(config.lambda_grid), basis, table)
    eps2 = ci.second_order_estimate(z, basis, _EPS2_FIT_GRID, table)
    meta = [
        ("command", "ci-scan"),
        ("system", config.system_path),
        ("quadrature_points", config.quadrature_points),
        ("nmax", config.ci_nmax),
        ("z", z),
        ("eps0", coeffs.eps0),
        ("eps1", coeffs.eps1),
        ("s_limited_eps2", eps2),
    ]
    rows = [
        [s.lam, s.energy, coeffs.eps0 + coeffs.eps1 * s.lam, s.overlap0]
        for s in solutions
    ]
    if config.output_format == "json":
        return _json_document(
            {
                "command": "ci-scan",
                "system": config.system_path,
                "quadrature_points": config.quadrature_points,
                "nmax": config.ci_nmax,
                "z": _round10(z),
                "eps0": _round10(coeffs.eps0),
                "eps1": _round10(coeffs.eps1),
                "s_limited_eps2": _round10(eps2),
                "rows": [
                    {
                        "lambda": _round10(row[0]),
                        "energy_ci": _round10(row[1]),
                        "energy_first_order": _round10(row[2]),
                        "overlap0": _round10(row[3]),
                    }
                    for row in rows
                ],
            }
        )
    return _csv_document(
        meta, ["lambda", "energy_ci", "energy_first_order", "overlap0"], rows
    )


def _nuclear_variants(definition: SystemDefinition) -> tuple[SystemDefinition, SystemDefinition]:
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
        particles = tuple(
            Particle(mass=p.mass, charge=p.charge, clamped=clamped if i == nucleus else p.clamped)
            for i, p in enumerate(definition.particles)
        )
        return SystemDefinition(
            particles=particles, reference=definition.reference,
            rc_bohr=definition.rc_bohr, lam=definition.lam,
        )

    return variant(True), variant(False)


def cmd_nuclear_motion(config: RunConfig) -> str:
    definition = _resolve_system(config.system_path)
    clamped_def, moving_def = _nuclear_variants(definition)
    table = get_table(config.quadrature_points)
    variants = {}
    for name, defn in (("clamped", clamped_def), ("moving", moving_def)):
        system = nondimensionalize(defn)
        variants[name] = epsilon1(system, ground_occupation(system), table)
    report = nuclear_motion_report(variants["clamped"], variants["moving"])
    meta = [
        ("command", "nuclear-motion"),
        ("system", config.system_path),
        ("quadrature_points", config.quadrature_points),
        ("clamped_eps0", report.clamped.eps0),
        ("clamped_eps1", report.clamped.eps1),
        ("moving_eps0", report.moving.eps0),
        ("moving_eps1", report.moving.eps1),
        ("kinetic_shift", report.kinetic_shift),
        ("potential_shift", report.potential_shift),
        ("dominant", report.dominant),
    ]
    rows = [
        ["clamped", *row] for row in _breakdown_rows(report.clamped)
    ] + [
        ["moving", *row] for row in _breakdown_rows(report.moving)
    ]
    if config.output_format == "json":
        return _json_document(
            {
                "command": "nuclear-motion",
                "system": config.system_path,
                "quadrature_points": config.quadrature_points,
                "kinetic_shift": _round10(report.kinetic_shift),
                "potential_shift": _round10(report.potential_shift),
                "dominant": report.dominant,
                "clamped": {
                    "eps0": _round10(report.clamped.eps0),
                    "eps1": _round10(report.clamped.eps1),
                    "breakdown": _breakdown_json(report.clamped),
                },
                "moving": {
                    "eps0": _round10(report.moving.eps0),
                    "eps1": _round10(report.moving.eps1),
                    "breakdown": _breakdown_json(report.moving),
                },
            }
        )
    return _csv_document(
        meta, ["variant", "term", "kind", "prefactor", "integral", "value"], rows
    )


_COMMANDS = {
    "coeffs": cmd_coeffs,
    "curve": cmd_curve,
    "ci-scan": cmd_ci_scan,
    "nuclear-motion": cmd_nuclear_motion,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
                       help=f"quadrature points in [{MIN_POINTS}, {MAX_POINTS}] (default {DEFAULT_QUAD_POINTS})")
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


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        text = _COMMANDS[config.command](config)
        if config.output_path is None:
            sys.stdout.write(text)
        else:
            try:
                with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ValidationError(
                    f"cannot write {config.output_path}: {exc.strerror or exc}"
                ) from None
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
