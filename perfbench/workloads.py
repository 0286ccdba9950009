"""Seeded inputs for the three benchmark workloads.

`build(workload, seed, workdir)` writes the system files the CLI will read
into `workdir` and returns the list of invocations a run cycles through. The
same seed gives byte-identical files and the same list. Each invocation is a
dict: `args` (the CLI arguments, file names relative to `workdir`) plus what
the output checks need to know (`command`, `format`, `system`, `system_arg`
and the grid settings).

Why each workload exists is recorded in BENCHMARK.json; in short:

- quick: short coefficient queries. Cost is process start, imports,
  `perturbation` and CLI rendering, with no CI at all.
- ci-scan: nmax 24 at 200 quadrature points. About 85% of the time is the
  assembly of W (three builds, 270,901 `slater_radial` calls).
- ci-fine: nmax 12 at 512 points. Few integrals, each expensive: mode
  profiles and inner sums on 512^2 and 1024^2 triangle grids; peak RSS about
  twice that of ci-scan.

Every input is one the CLI accepts: the nuclear charge stays in 1..4 (at
Z = 10 the fixed eps2 fit grid fails its 2% check and exits 3), light
particles carry charge -1, and the one nucleus-like particle has |q'| > 1
so `nuclear-motion` can find it.
"""

from __future__ import annotations

import json
import os
import random

from checks import PRESETS

PROTON_MASS = 1836.15267343
MUON_MASS = 206.7682830

QUICK_SYSTEMS = 4
CI_SYSTEMS = 4
DEFAULT_QUAD_POINTS = 200
DEFAULT_STEPS = 20


def _write_system(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
    return name


def _quick_system(rng: random.Random) -> dict:
    """A nucleus (Z in 2..4) plus 1..4 light negative particles."""
    light = [
        {"mass": rng.choice((1.0, 1.0, MUON_MASS, round(rng.uniform(0.5, 3.0), 6))), "charge": -1.0}
        for _ in range(rng.randint(1, 4))
    ]
    light[0]["mass"] = 1.0  # at least one electron
    z = rng.randint(2, 4)
    nucleus = {"mass": round(PROTON_MASS * rng.randint(z, 2 * z + 1), 6), "charge": float(z),
               "clamped": rng.random() < 0.5}
    particles = light + [nucleus]
    rng.shuffle(particles)
    free_light = [i for i, p in enumerate(particles) if p["charge"] < 0]
    return {
        "particles": particles,
        "reference": rng.choice(free_light),
        "rc_bohr": round(rng.uniform(0.2, 4.0), 4),
    }


def _ci_system(rng: random.Random) -> dict:
    """Two electrons and a clamped nucleus with Z in 1..4."""
    z = rng.randint(1, 4)
    return {
        "particles": [
            {"mass": 1.0, "charge": -1.0},
            {"mass": 1.0, "charge": -1.0},
            {"mass": round(PROTON_MASS * rng.randint(z, 2 * z + 1), 6), "charge": float(z),
             "clamped": True},
        ],
        "reference": 0,
        "rc_bohr": 1.0,
    }


def _invocation(command: str, system_arg: str, system: dict, fmt: str,
                quad_points: int | None = None, grid: tuple[float, float, int] | None = None,
                nmax: int | None = None) -> dict:
    args = [command, system_arg]
    inv = {"command": command, "system_arg": system_arg, "system": system, "format": fmt,
           "quad_points": quad_points or DEFAULT_QUAD_POINTS}
    if quad_points is not None:
        args += ["--quad-points", str(quad_points)]
    if grid is not None:
        lo, hi, steps = grid
        args += ["--lambda-min", repr(lo), "--lambda-max", repr(hi)]
        if steps != DEFAULT_STEPS:
            args += ["--steps", str(steps)]
        inv.update(lambda_min=lo, lambda_max=hi, steps=steps)
    if nmax is not None:
        args += ["--nmax", str(nmax)]
        inv["nmax"] = nmax
    if fmt == "json":
        args += ["--format", "json"]
    inv["args"] = args
    return inv


def _quick(rng: random.Random, workdir: str) -> list[dict]:
    systems = list(PRESETS.items())
    for k in range(QUICK_SYSTEMS):
        doc = _quick_system(rng)
        systems.append((_write_system(workdir, f"quick{k}.json", doc), doc))
    out = []
    for arg, doc in systems:
        for fmt in ("csv", "json"):
            out.append(_invocation("coeffs", arg, doc, fmt))
            out.append(_invocation("nuclear-motion", arg, doc, fmt))
            grid = (round(rng.uniform(0.05, 0.5), 4), round(rng.uniform(1.0, 4.0), 4),
                    rng.randint(2000, 4000))
            out.append(_invocation("curve", arg, doc, fmt, grid=grid))
    rng.shuffle(out)
    return out


def _ci(rng: random.Random, workdir: str, nmax: int, quad_points: int | None) -> list[dict]:
    out = []
    for k in range(CI_SYSTEMS):
        doc = _ci_system(rng)
        arg = _write_system(workdir, f"ci{k}.json", doc)
        grid = (round(rng.uniform(0.05, 0.5), 4), round(rng.uniform(1.0, 3.0), 4), DEFAULT_STEPS)
        out.append(_invocation("ci-scan", arg, doc, ("csv", "json")[k % 2],
                               quad_points=quad_points, grid=grid, nmax=nmax))
    return out


WORKLOADS = {
    "quick": _quick,
    "ci-scan": lambda rng, workdir: _ci(rng, workdir, nmax=24, quad_points=None),
    "ci-fine": lambda rng, workdir: _ci(rng, workdir, nmax=12, quad_points=512),
}


def build(workload: str, seed: int, workdir: str) -> list[dict]:
    """Write the inputs of `workload` for `seed` into `workdir`; return its invocations."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, workdir)
