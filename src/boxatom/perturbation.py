"""First-order strong-confinement expansion for a scaled particle system.

For box coupling lambda the dimensionless ground energy expands as
eps(lambda) = eps0 + eps1*lambda + O(lambda^2), with

    eps0 = sum_i pi^2 / (2 m'_i)                     over free particles,
    eps1 = sum_{i<j free} q'_i q'_j <1/r_12>
         + sum_{i free} q'_i q'_c <1/r>               against a clamped charge,

with every integral taken in the (l=0, n=1) sphere ground mode.

The physical energy at box radius R_c = lambda * a is
E = prefactor * (eps0/lambda^2 + eps1/lambda + ...). A curve over a lambda
grid is computed as three float64 columns (lambda, rc_bohr, energy), each
row in scalar float arithmetic; `energy_curve` wraps them into points, and
the CLI writes its rows straight from the columns.

Both coefficients are served for this ground occupation only; any other
occupation is an UnsupportedModeError. An excited occupation of identical
particles would need exchange: two electrons in modes (1, 2) split into
J + K and J - K, and the direct integral J alone belongs to no state. That
is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coulomb import CoulombTable, get_table
from .errors import UnsupportedModeError, ValidationError
from .sphere import ModeIndex, mode_energy
from .system import DimensionlessSystem

_DEGENERACY_RTOL = 1e-9
_GROUND_MODE = ModeIndex(0, 1)


@dataclass(frozen=True)
class BreakdownTerm:
    """One labeled contribution: value = prefactor * integral."""

    label: str
    kind: str  # "kinetic", "pair" or "central"
    prefactor: float
    integral: float
    value: float


@dataclass(frozen=True)
class PerturbationCoefficients:
    """(eps0, eps1) plus the per-term breakdown they sum from."""

    eps0: float
    eps1: float
    breakdown: tuple[BreakdownTerm, ...]

    def __post_init__(self):
        if not self.eps0 > 0:
            raise ValidationError(f"eps0 must be positive, got {self.eps0}")
        kin = math.fsum(t.value for t in self.breakdown if t.kind == "kinetic")
        pot = math.fsum(t.value for t in self.breakdown if t.kind != "kinetic")
        if abs(kin - self.eps0) > 1e-12 * max(1.0, abs(self.eps0)):
            raise ValidationError("eps0 does not match the kinetic breakdown sum")
        if abs(pot - self.eps1) > 1e-12 * max(1.0, abs(self.eps1)):
            raise ValidationError("eps1 does not match the interaction breakdown sum")


@dataclass(frozen=True, slots=True)
class EnergyCurvePoint:
    """One curve sample; energy is in units of the system's prefactor."""

    lam: float
    rc_bohr: float
    energy: float


@dataclass(frozen=True)
class NuclearMotionReport:
    """Relative coefficient shifts between clamped- and moving-nucleus variants."""

    clamped: PerturbationCoefficients
    moving: PerturbationCoefficients
    kinetic_shift: float
    potential_shift: float
    dominant: str


def ground_occupation(system: DimensionlessSystem) -> tuple[ModeIndex, ...]:
    """Every free particle in the (l=0, n=1) sphere ground mode."""
    return tuple(_GROUND_MODE for _ in system.free_particles)


def _check_occupation(system: DimensionlessSystem, occupation) -> None:
    occ = tuple(occupation)
    free = system.free_particles
    if len(occ) != len(free):
        raise ValidationError(
            f"occupation needs one mode per free particle: got {len(occ)} modes "
            f"for {len(free)} free particles"
        )
    for m in occ:
        if not isinstance(m, ModeIndex):
            raise ValidationError(f"occupation entries must be ModeIndex, got {m!r}")
    for m in occ:
        if m != _GROUND_MODE:
            raise UnsupportedModeError(
                "first-order coefficients cover the ground occupation only, every free "
                f"particle in {_GROUND_MODE}; got {m}"
            )


def _ground_is_degenerate(system: DimensionlessSystem) -> bool:
    """Does a distinct s-wave occupation lie within _DEGENERACY_RTOL of the ground eps0?

    In units of pi^2/2 an s-wave occupation has eps0 = sum_i w_i n_i^2 with
    w_i = 1/m'_i, so the ground one has sum_i w_i. Any other lifts some
    particle to n >= 2, at least 3 w_i >= 3 min(w) higher, and lifting the
    heaviest particle to n = 2 costs exactly that.
    """
    w = [1.0 / p.m_prime for p in system.free_particles]
    return 3.0 * min(w) <= _DEGENERACY_RTOL * math.fsum(w)


def epsilon0(system: DimensionlessSystem, occupation) -> float:
    """Zeroth-order coefficient: sum of free-particle sphere energies."""
    _check_occupation(system, occupation)
    return math.fsum(mode_energy(_GROUND_MODE, p.m_prime) for p in system.free_particles)


def epsilon1(system: DimensionlessSystem, occupation,
             table: CoulombTable | None = None) -> PerturbationCoefficients:
    """First-order coefficient with its per-term breakdown.

    Free-free pairs contribute q'_i q'_j times the two-particle repulsion
    element; each free particle contributes q'_i q'_c times the central 1/r
    element against the clamped charge. Labels carry the particle indices of
    the full system.
    """
    _check_occupation(system, occupation)
    if table is None:
        table = get_table()
    if _ground_is_degenerate(system):
        raise ValidationError(
            "occupation is degenerate with a distinct s-wave occupation at this eps0; "
            "degenerate first-order treatment is not supported"
        )
    free_ids = [i for i, p in enumerate(system.particles) if not p.clamped]
    free = system.free_particles

    terms = []
    for i, p in zip(free_ids, free):
        e = mode_energy(_GROUND_MODE, p.m_prime)
        terms.append(BreakdownTerm(f"kinetic[{i}]", "kinetic", 1.0, e, e))
    pair = table.pair_expectation(_GROUND_MODE, _GROUND_MODE)
    for a in range(len(free)):
        for b in range(a + 1, len(free)):
            pref = free[a].q_prime * free[b].q_prime
            terms.append(
                BreakdownTerm(f"pair[{free_ids[a]},{free_ids[b]}]", "pair", pref, pair, pref * pair)
            )
    clamped = system.clamped_particle
    if clamped is not None:
        c_id = next(i for i, p in enumerate(system.particles) if p.clamped)
        central = table.central_expectation(_GROUND_MODE, _GROUND_MODE)
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


def energy_curve(system: DimensionlessSystem, occupation, lambdas,
                 table: CoulombTable | None = None) -> list[EnergyCurvePoint]:
    """Physical energy curve E(lambda) = eps0/lambda^2 + eps1/lambda.

    Energies are in units of the system's energy prefactor (hartree for an
    electron reference); rc_bohr = lambda * a. A lambda whose energy, energy
    times the prefactor, or rc_bohr leaves the float range is a
    ValidationError.
    """
    columns = _curve_points(system, epsilon1(system, occupation, table), lambdas)
    return [EnergyCurvePoint(*row) for row in zip(*(column.tolist() for column in columns))]


def _curve_points(system: DimensionlessSystem, coeffs: PerturbationCoefficients,
                  lambdas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """energy_curve's lambda, rc_bohr and energy columns, from coefficients already computed.

    A row costs three float64 entries. Each is computed in scalar float
    arithmetic and checked in grid order, so the columns hold the bits an
    EnergyCurvePoint list would.
    """
    lams = np.fromiter(map(float, lambdas), dtype=float)
    rc_column, energy_column = np.empty_like(lams), np.empty_like(lams)
    for row, lam in enumerate(map(float, lams)):
        if not math.isfinite(lam) or lam <= 0:
            raise ValidationError(f"lambda values must be positive, got {lam!r}")
        try:
            energy = coeffs.eps0 / lam**2 + coeffs.eps1 / lam
        except (ZeroDivisionError, OverflowError):  # lam**2 underflows to 0 or overflows
            energy = math.inf
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
    if clamped_coeffs.eps1 == 0:
        raise ValidationError("clamped eps1 is zero; no interaction shift to compare")
    kinetic = abs(moving_coeffs.eps0 - clamped_coeffs.eps0) / clamped_coeffs.eps0
    potential = abs(moving_coeffs.eps1 - clamped_coeffs.eps1) / abs(clamped_coeffs.eps1)
    dominant = "potential-dominated" if potential > kinetic else "kinetic-dominated"
    return NuclearMotionReport(
        clamped=clamped_coeffs,
        moving=moving_coeffs,
        kinetic_shift=kinetic,
        potential_shift=potential,
        dominant=dominant,
    )
