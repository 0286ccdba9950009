"""First-order strong-confinement expansion for a scaled particle system.

For box coupling lambda the dimensionless ground energy expands as
eps(lambda) = eps0 + eps1*lambda + O(lambda^2), with

    eps0 = sum_i pi^2 / (2 m'_i)                     over free particles,
    eps1 = sum_{i<j free} q'_i q'_j <1/r_12>
         + sum_{i free} q'_i q'_c <1/r>               against a clamped charge,

with every integral taken in the (l=0, n=1) sphere ground mode. These two
integrals, <1/r> and <1/r_12>, are `coulomb.ground_integrals(points)` at
the quadrature resolution `points`, kept once per resolution.

The physical energy at box radius R_c = lambda * a is
E = prefactor * (eps0/lambda^2 + eps1/lambda + ...). `energy_curve` turns
coefficients already computed into a curve over a lambda grid: three
float64 columns (lambda, rc_bohr, energy), each row in scalar float
arithmetic, from which the CLI writes its rows.

`epsilon1` is the one first-order entry point: it serves this ground
occupation, every free particle in the (l=0, n=1) mode, and no other. An
excited occupation of identical particles would need exchange: two
electrons in modes (1, 2) split into J + K and J - K, and the direct
integral J alone belongs to no state. That is out of scope. A ground
occupation degenerate with another s-wave occupation is a ValidationError.
So is an argument of the wrong type: a SystemDefinition where a
DimensionlessSystem belongs names `nondimensionalize`, which makes one.
"""

from __future__ import annotations

import math

import numpy as np

from .coulomb import DEFAULT_POINTS, check_points, ground_integrals
from .errors import Record, ValidationError, of_type, reals
from .sphere import ModeIndex, mode_energy
from .system import DimensionlessSystem

_DEGENERACY_RTOL = 1e-9
_GROUND_MODE = ModeIndex(0, 1)


class BreakdownTerm(Record):
    """One labeled contribution: value = prefactor * integral; ``kind`` is "kinetic", "pair" or "central"."""

    __slots__ = ("label", "kind", "prefactor", "integral", "value")

    def __init__(self, label: str, kind: str, prefactor: float, integral: float, value: float):
        self.label, self.kind, self.prefactor, self.integral, self.value = label, kind, prefactor, integral, value


class PerturbationCoefficients(Record):
    """(eps0, eps1) plus the per-term breakdown they sum from."""

    __slots__ = ("eps0", "eps1", "breakdown")

    def __init__(self, eps0: float, eps1: float, breakdown: tuple[BreakdownTerm, ...]):
        self.eps0, self.eps1, self.breakdown = eps0, eps1, breakdown
        if not self.eps0 > 0:
            raise ValidationError(f"eps0 must be positive, got {self.eps0}")
        kin = math.fsum(t.value for t in self.breakdown if t.kind == "kinetic")
        pot = math.fsum(t.value for t in self.breakdown if t.kind != "kinetic")
        # written so that a NaN gap fails
        if not abs(kin - self.eps0) <= 1e-12 * max(1.0, abs(self.eps0)):
            raise ValidationError("eps0 does not match the kinetic breakdown sum")
        if not abs(pot - self.eps1) <= 1e-12 * max(1.0, abs(self.eps1)):
            raise ValidationError("eps1 does not match the interaction breakdown sum")


class NuclearMotionReport(Record):
    """Relative coefficient shifts between clamped- and moving-nucleus variants."""

    __slots__ = ("kinetic_shift", "potential_shift", "dominant")

    def __init__(self, kinetic_shift: float, potential_shift: float, dominant: str):
        self.kinetic_shift, self.potential_shift, self.dominant = kinetic_shift, potential_shift, dominant


def _ground_is_degenerate(system: DimensionlessSystem) -> bool:
    """Does a distinct s-wave occupation lie within _DEGENERACY_RTOL of the ground eps0?

    In units of pi^2/2 an s-wave occupation has eps0 = sum_i w_i n_i^2 with
    w_i = 1/m'_i, so the ground one has sum_i w_i. Any other lifts some
    particle to n >= 2, at least 3 w_i >= 3 min(w) higher, and lifting the
    heaviest particle to n = 2 costs exactly that.
    """
    w = [1.0 / p.m_prime for p in system.free_particles]
    return 3.0 * min(w) <= _DEGENERACY_RTOL * math.fsum(w)


def epsilon1(system: DimensionlessSystem, points: int = DEFAULT_POINTS) -> PerturbationCoefficients:
    """eps0 and eps1 of the ground occupation with their per-term breakdown.

    Free-free pairs contribute q'_i q'_j times the two-particle repulsion
    element; each free particle contributes q'_i q'_c times the central 1/r
    element against the clamped charge. Labels carry the particle indices of
    the full system. Both integrals are `ground_integrals(points)`.
    """
    system = of_type("system", system, DimensionlessSystem)
    points = check_points(points)
    free_ids = [i for i, p in enumerate(system.particles) if not p.clamped]
    free = system.free_particles

    terms = []
    for i, p in zip(free_ids, free):
        e = mode_energy(_GROUND_MODE, p.m_prime)
        terms.append(BreakdownTerm(f"kinetic[{i}]", "kinetic", 1.0, e, e))
    # after mode_energy, which refuses an m' so small that 1/m' overflows
    if _ground_is_degenerate(system):
        raise ValidationError(
            "occupation is degenerate with a distinct s-wave occupation at this eps0; "
            "degenerate first-order treatment is not supported"
        )
    central, pair = ground_integrals(points)
    for a in range(len(free)):
        for b in range(a + 1, len(free)):
            pref = free[a].q_prime * free[b].q_prime
            terms.append(
                BreakdownTerm(f"pair[{free_ids[a]},{free_ids[b]}]", "pair", pref, pair, pref * pair)
            )
    clamped = system.clamped_particle
    if clamped is not None:
        c_id = next(i for i, p in enumerate(system.particles) if p.clamped)
        for i, p in zip(free_ids, free):
            pref = p.q_prime * clamped.q_prime
            terms.append(
                BreakdownTerm(f"central[{i},{c_id}]", "central", pref, central, pref * central)
            )

    eps0 = math.fsum(t.value for t in terms if t.kind == "kinetic")
    eps1 = math.fsum(t.value for t in terms if t.kind != "kinetic")
    return PerturbationCoefficients(eps0=eps0, eps1=eps1, breakdown=tuple(terms))


def turnover_lambda(coeffs: PerturbationCoefficients) -> float | None:
    """Coupling where the first-order truncation turns over, if any.

    E(lambda) = eps0/lambda^2 + eps1/lambda has its minimum at
    lambda = -2 eps0 / eps1 when eps1 < 0; beyond it the truncation rises
    again and should not be trusted. None when eps1 >= 0.
    """
    if coeffs.eps1 >= 0:
        return None
    return -2.0 * coeffs.eps0 / coeffs.eps1


def energy_curve(system: DimensionlessSystem, coeffs: PerturbationCoefficients,
                 lambdas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Physical energy curve E(lambda) = eps0/lambda^2 + eps1/lambda as lambda, rc_bohr and energy columns.

    Energies are in units of the system's energy prefactor (hartree for an
    electron reference); rc_bohr = lambda * a. A row costs three float64
    entries, each computed in scalar float arithmetic and checked in grid
    order. A lambda whose energy, energy times the prefactor, or rc_bohr
    leaves the float range is a ValidationError.
    """
    system = of_type("system", system, DimensionlessSystem)
    coeffs = of_type("coefficients", coeffs, PerturbationCoefficients)
    lams = reals("lambda values", lambdas)
    rc_column, energy_column = np.empty_like(lams), np.empty_like(lams)
    for row, lam in enumerate(map(float, lams)):
        if not math.isfinite(lam) or lam <= 0:
            raise ValidationError(f"lambda values must be positive, got {lam!r}")
        try:
            energy = coeffs.eps0 / lam**2 + coeffs.eps1 / lam
        except (ZeroDivisionError, OverflowError):
            # lam**2 underflows to 0 or overflows; dividing by lam twice leaves
            # the float range only where the energy does
            energy = coeffs.eps0 / lam / lam + coeffs.eps1 / lam
        rc_bohr = lam * system.length_scale_a
        if not all(math.isfinite(x) for x in (energy, energy * system.energy_prefactor, rc_bohr)):
            raise ValidationError(f"the energy at lambda={lam!r} is outside the float range")
        rc_column[row], energy_column[row] = rc_bohr, energy
    return lams, rc_column, energy_column


def nuclear_motion_report(clamped_coeffs: PerturbationCoefficients,
                          moving_coeffs: PerturbationCoefficients) -> NuclearMotionReport:
    """Compare clamped- vs moving-nucleus coefficients of the same atom.

    Reports |delta eps0| / eps0_clamped and |delta eps1| / |eps1_clamped| and
    flags which shift dominates. Releasing the nucleus barely changes the
    kinetic sum (the nuclear mode energy is suppressed by 1/m') but replaces
    every central attraction integral with a pair integral, so the potential
    shift dominates for real atoms.
    """
    for name, coeffs in (("clamped coefficients", clamped_coeffs), ("moving coefficients", moving_coeffs)):
        of_type(name, coeffs, PerturbationCoefficients)
    if clamped_coeffs.eps1 == 0:
        raise ValidationError("clamped eps1 is zero; no interaction shift to compare")
    kinetic = abs(moving_coeffs.eps0 - clamped_coeffs.eps0) / clamped_coeffs.eps0
    potential = abs(moving_coeffs.eps1 - clamped_coeffs.eps1) / abs(clamped_coeffs.eps1)
    dominant = "potential-dominated" if potential > kinetic else "kinetic-dominated"
    return NuclearMotionReport(kinetic_shift=kinetic, potential_shift=potential, dominant=dominant)
