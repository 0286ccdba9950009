"""Independent checks of boxatom CLI output against closed forms.

Nothing here imports the package. Every free particle sits in the l = 0,
n = 1 sphere mode u(r) = sqrt2 sin(pi r), so the only integrals a
first-order result needs are

    pair(1,1)    = 2 - Si(2pi)/pi + Si(4pi)/(2pi) = 1.786073168...
    central(1,1) = Cin(2pi)                       = 2.437653393...

and the kinetic energy pi^2 / (2 m') of each free particle. Si and Cin are
summed from their power series in 50-digit decimal arithmetic, which keeps
the cancellation between terms (largest about 3e4 at 4pi) far below the
printed precision.

The CLI prints numbers to 10 significant digits, so a printed value is
within 5e-10 of the true one relative to its size. Every comparison allows a
relative 1e-9 of the quantity's scale and no more.
"""

from __future__ import annotations

import csv
import io
import json
import math
from decimal import Decimal, localcontext

TOL = 1e-9

_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def _series(x: Decimal, first_power: int) -> Decimal:
    """Alternating sum over k >= 0 of x^(p+2k) / ((p+2k) (p+2k)!), p = first_power."""
    p = first_power
    term = x**p / math.factorial(p)  # x^(p+2k) / (p+2k)!
    total = Decimal(0)
    k = 0
    while True:
        contribution = term / (p + 2 * k)
        total += -contribution if k % 2 else contribution
        if abs(contribution) < Decimal("1e-45"):
            return total
        term = term * x * x / ((p + 2 * k + 1) * (p + 2 * k + 2))
        k += 1


def sine_integral(x: Decimal) -> Decimal:
    """Si(x) = sum_k (-1)^k x^(2k+1) / ((2k+1)(2k+1)!)."""
    return _series(x, 1)


def entire_cosine_integral(x: Decimal) -> Decimal:
    """Cin(x) = sum_{k>=1} (-1)^(k+1) x^(2k) / (2k (2k)!)."""
    return _series(x, 2)


def _closed_forms() -> tuple[float, float]:
    with localcontext() as ctx:
        ctx.prec = 50
        pair = 2 - sine_integral(2 * _PI) / _PI + sine_integral(4 * _PI) / (2 * _PI)
        central = entire_cosine_integral(2 * _PI)
        return float(pair), float(central)


PAIR_11, CENTRAL_11 = _closed_forms()
KINETIC_11 = math.pi**2 / 2.0  # x_{0,1}^2 / 2 with x_{0,1} = pi

HELIUM_NUCLEAR_MASS = 7296.300
PRESETS = {
    name: {
        "particles": [
            {"mass": 1.0, "charge": -1.0},
            {"mass": 1.0, "charge": -1.0},
            {"mass": HELIUM_NUCLEAR_MASS, "charge": 2.0, "clamped": clamped},
        ],
        "reference": 0,
        "rc_bohr": 1.0,
    }
    for name, clamped in (("he-clamped", True), ("he-moving", False))
}


class CheckFailed(Exception):
    """An output disagrees with its independent expectation."""


def close(got, want: float, scale: float | None = None) -> bool:
    """|got - want| <= TOL * scale, where scale defaults to |want|."""
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    scale = abs(want) if scale is None else scale
    return abs(got - want) <= TOL * scale


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _expect_close(what: str, got, want: float, scale: float | None = None) -> None:
    _expect(close(got, want, scale), f"{what}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------- expectations


def scaled_system(doc: dict) -> dict:
    """Scaled masses and charges, length scale, energy prefactor and lambda."""
    ref = doc["particles"][doc["reference"]]
    m1, q1 = ref["mass"], ref["charge"]
    a = 1.0 / (m1 * q1 * q1)
    return {
        "particles": [
            (p["mass"] / m1, p["charge"] / q1, p.get("clamped", False))
            for p in doc["particles"]
        ],
        "a_bohr": a,
        "prefactor": m1 * q1**4,
        "lambda": doc["rc_bohr"] / a,
    }


def first_order(doc: dict) -> dict:
    """eps0, eps1 and the labelled breakdown in the order the CLI prints it."""
    scaled = scaled_system(doc)
    parts = scaled["particles"]
    free = [i for i, p in enumerate(parts) if not p[2]]
    clamped = [i for i, p in enumerate(parts) if p[2]]
    terms = []
    for i in free:
        e = KINETIC_11 / parts[i][0]
        terms.append((f"kinetic[{i}]", "kinetic", 1.0, e))
    for x, i in enumerate(free):
        for j in free[x + 1:]:
            terms.append((f"pair[{i},{j}]", "pair", parts[i][1] * parts[j][1], PAIR_11))
    for c in clamped:
        for i in free:
            terms.append((f"central[{i},{c}]", "central", parts[i][1] * parts[c][1], CENTRAL_11))
    rows = [
        {"term": label, "kind": kind, "prefactor": pref, "integral": integral,
         "value": pref * integral}
        for label, kind, pref, integral in terms
    ]
    return {
        **scaled,
        "eps0": math.fsum(r["value"] for r in rows if r["kind"] == "kinetic"),
        "eps1": math.fsum(r["value"] for r in rows if r["kind"] != "kinetic"),
        "breakdown": rows,
    }


def nuclear_variants(doc: dict) -> tuple[dict, dict]:
    """The clamped and moving copies of a system with one |q'| > 1 particle."""
    scaled = scaled_system(doc)
    nucleus = next(i for i, p in enumerate(scaled["particles"]) if abs(p[1]) > 1.0)

    def variant(clamped: bool) -> dict:
        particles = [dict(p) for p in doc["particles"]]
        particles[nucleus]["clamped"] = clamped
        return {**doc, "particles": particles}

    return variant(True), variant(False)


def lambda_grid(lo: float, hi: float, steps: int) -> list[float]:
    """The grid numpy.linspace(lo, hi, steps) yields, in plain float arithmetic."""
    if steps == 1:
        return [lo]
    step = (hi - lo) / (steps - 1)
    grid = [k * step + lo for k in range(steps)]
    grid[-1] = hi
    return grid


# ---------------------------------------------------------------- parsing


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> dict:
    """`# key=value` metadata lines, then a header row and data rows."""
    meta, body = {}, []
    for line in text.splitlines(keepends=True):
        if line.startswith("# "):
            key, _, value = line[2:].rstrip("\n").partition("=")
            meta[key] = _cell(value)
        else:
            body.append(line)
    table = list(csv.reader(io.StringIO("".join(body))))
    _expect(len(table) >= 1, "CSV output has no header row")
    header = table[0]
    rows = [dict(zip(header, map(_cell, row))) for row in table[1:]]
    _expect(all(len(row) == len(header) for row in table[1:]), "CSV row width differs from header")
    return {"meta": meta, "rows": rows}


def parse_json(text: str, command: str) -> dict:
    """The same content as parse_csv gives, from the JSON document."""
    doc = json.loads(text)
    rows_key = {"coeffs": "breakdown", "curve": "points", "ci-scan": "rows"}.get(command)
    if command == "nuclear-motion":
        meta = {k: v for k, v in doc.items() if k not in ("clamped", "moving")}
        rows = []
        for variant in ("clamped", "moving"):
            section = doc[variant]
            meta[f"{variant}_eps0"] = section["eps0"]
            meta[f"{variant}_eps1"] = section["eps1"]
            rows += [{"variant": variant, **term} for term in section["breakdown"]]
    else:
        meta = {k: v for k, v in doc.items() if k != rows_key}
        rows = doc[rows_key]
    if meta.get("turnover_lambda", "") is None:
        meta["turnover_lambda"] = "none"
    return {"meta": meta, "rows": rows}


def parse_output(text: str, command: str, fmt: str) -> dict:
    try:
        return parse_json(text, command) if fmt == "json" else parse_csv(text)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CheckFailed(f"unparseable {fmt} output: {exc!r}") from None


# ---------------------------------------------------------------- checks


def _check_meta(meta: dict, want: dict) -> None:
    for key, value in want.items():
        got = meta.get(key)
        if isinstance(value, str):
            _expect(got == value, f"{key}: got {got!r}, expected {value!r}")
        else:
            _expect_close(key, got, value)


def _check_breakdown(rows: list[dict], want: list[dict], what: str) -> None:
    _expect(
        [r.get("term") for r in rows] == [w["term"] for w in want],
        f"{what} terms {[r.get('term') for r in rows]} differ from {[w['term'] for w in want]}",
    )
    for row, w in zip(rows, want):
        _expect(row.get("kind") == w["kind"], f"{w['term']} kind {row.get('kind')!r}")
        for key in ("prefactor", "integral", "value"):
            _expect_close(f"{what} {w['term']} {key}", row.get(key), w[key])


def check_coeffs(out: dict, inv: dict) -> None:
    want = first_order(inv["system"])
    _check_meta(out["meta"], {
        "command": "coeffs", "system": inv["system_arg"],
        "quadrature_points": inv["quad_points"], "lambda": want["lambda"],
        "a_bohr": want["a_bohr"], "energy_prefactor_hartree": want["prefactor"],
        "eps0": want["eps0"], "eps1": want["eps1"],
    })
    _check_breakdown(out["rows"], want["breakdown"], "coeffs")


def check_curve(out: dict, inv: dict) -> None:
    want = first_order(inv["system"])
    eps0, eps1, pre = want["eps0"], want["eps1"], want["prefactor"]
    meta = out["meta"]
    _check_meta(meta, {
        "command": "curve", "system": inv["system_arg"],
        "quadrature_points": inv["quad_points"], "a_bohr": want["a_bohr"],
        "energy_prefactor_hartree": pre, "eps0": eps0, "eps1": eps1,
    })
    if eps1 < 0:
        _expect_close("turnover_lambda", meta.get("turnover_lambda"), -2.0 * eps0 / eps1)
    else:
        _expect(meta.get("turnover_lambda") == "none", "turnover_lambda should be none")
    grid = lambda_grid(inv["lambda_min"], inv["lambda_max"], inv["steps"])
    _expect(len(out["rows"]) == len(grid), f"curve has {len(out['rows'])} rows, expected {len(grid)}")
    for row, lam in zip(out["rows"], grid):
        _expect_close("curve lambda", row.get("lambda"), lam)
        _expect_close(f"rc_bohr at lambda={lam}", row.get("rc_bohr"), lam * want["a_bohr"])
        kinetic, potential = pre * eps0 / lam**2, pre * eps1 / lam
        _expect_close(f"energy at lambda={lam}", row.get("energy_hartree"),
                      kinetic + potential, abs(kinetic) + abs(potential))


def check_nuclear_motion(out: dict, inv: dict) -> None:
    clamped_doc, moving_doc = nuclear_variants(inv["system"])
    clamped, moving = first_order(clamped_doc), first_order(moving_doc)
    kinetic = abs(moving["eps0"] - clamped["eps0"]) / clamped["eps0"]
    potential = abs(moving["eps1"] - clamped["eps1"]) / abs(clamped["eps1"])
    _check_meta(out["meta"], {
        "command": "nuclear-motion", "system": inv["system_arg"],
        "quadrature_points": inv["quad_points"],
        "clamped_eps0": clamped["eps0"], "clamped_eps1": clamped["eps1"],
        "moving_eps0": moving["eps0"], "moving_eps1": moving["eps1"],
        "kinetic_shift": kinetic, "potential_shift": potential,
        "dominant": "potential-dominated" if potential > kinetic else "kinetic-dominated",
    })
    for variant, want in (("clamped", clamped), ("moving", moving)):
        rows = [r for r in out["rows"] if r.get("variant") == variant]
        _check_breakdown(rows, want["breakdown"], variant)
    _expect(len(out["rows"]) == len(clamped["breakdown"]) + len(moving["breakdown"]),
            "nuclear-motion rows carry an unknown variant")


def check_ci_scan(out: dict, inv: dict) -> None:
    want = first_order(inv["system"])
    eps0, eps1 = want["eps0"], want["eps1"]
    meta = out["meta"]
    z = -next(q for _, q, clamped in want["particles"] if clamped)
    _check_meta(meta, {
        "command": "ci-scan", "system": inv["system_arg"],
        "quadrature_points": inv["quad_points"], "nmax": inv["nmax"],
        "z": z, "eps0": eps0, "eps1": eps1,
    })
    eps2 = meta.get("s_limited_eps2")
    _expect(isinstance(eps2, (int, float)) and eps2 < 0, f"s_limited_eps2 {eps2!r} is not negative")
    grid = lambda_grid(inv["lambda_min"], inv["lambda_max"], inv["steps"])
    _expect(len(out["rows"]) == len(grid), f"ci-scan has {len(out['rows'])} rows, expected {len(grid)}")
    for row, lam in zip(out["rows"], grid):
        _expect_close("ci-scan lambda", row.get("lambda"), lam)
        first, scale = eps0 + eps1 * lam, abs(eps0) + abs(eps1 * lam)
        _expect_close(f"energy_first_order at lambda={lam}", row.get("energy_first_order"), first, scale)
        ci = row.get("energy_ci")
        _expect(isinstance(ci, (int, float)) and ci <= first + TOL * scale,
                f"energy_ci {ci!r} above first order {first!r} at lambda={lam}")
        overlap = row.get("overlap0")
        _expect(isinstance(overlap, (int, float)) and 0.0 <= overlap <= 1.0,
                f"overlap0 {overlap!r} outside [0, 1] at lambda={lam}")


CHECKS = {
    "coeffs": check_coeffs,
    "curve": check_curve,
    "nuclear-motion": check_nuclear_motion,
    "ci-scan": check_ci_scan,
}


def check_output(text: str, inv: dict) -> None:
    """Raise CheckFailed unless `text` is a correct answer to invocation `inv`."""
    CHECKS[inv["command"]](parse_output(text, inv["command"], inv["format"]), inv)
