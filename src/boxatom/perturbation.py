"""First-order strong-confinement expansion for a scaled particle system.

For box coupling lambda the dimensionless ground energy expands as
eps(lambda) = eps0 + eps1*lambda + O(lambda^2), with

    eps0 = sum_i x_{l_i,n_i}^2 / (2 m'_i)            over free particles,
    eps1 = sum_{i<j free} q'_i q'_j <1/r_12>_ij
         + sum_{i free} q'_i q'_c <1/r>_ii           against a clamped charge.

The physical energy at box radius R_c = lambda * a is
E = prefactor * (eps0/lambda^2 + eps1/lambda + ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coulomb import CoulombTable, get_table
from .errors import UnsupportedModeError, ValidationError
from .sphere import ModeIndex, mode_energy
from .system import DimensionlessSystem

_DEGENERACY_RTOL = 1e-9


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

    @property
    def kinetic_terms(self) -> tuple[BreakdownTerm, ...]:
        return tuple(t for t in self.breakdown if t.kind == "kinetic")

    @property
    def interaction_terms(self) -> tuple[BreakdownTerm, ...]:
        return tuple(t for t in self.breakdown if t.kind != "kinetic")


@dataclass(frozen=True)
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
    return tuple(ModeIndex(0, 1) for _ in system.free_particles)


def _check_occupation(system: DimensionlessSystem, occupation) -> tuple[ModeIndex, ...]:
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
    return occ


def epsilon0(system: DimensionlessSystem, occupation) -> float:
    """Zeroth-order coefficient: sum of free-particle sphere energies."""
    occ = _check_occupation(system, occupation)
    return math.fsum(mode_energy(idx, p.m_prime) for idx, p in zip(occ, system.free_particles))


def _has_degenerate_partner(weights: list[float], ns: list[int], rel_tol: float) -> bool:
    """Is there a distinct s-wave occupation with the same eps0?

    Energies are sum_i w_i n_i^2 with w_i = 1/m'_i (units pi^2/2). Distinct
    means the multiset of n differs within at least one equal-mass group.
    """
    order = sorted(range(len(weights)), key=lambda i: -weights[i])
    w = [weights[i] for i in order]
    base = [ns[i] for i in order]
    target = math.fsum(wi * ni * ni for wi, ni in zip(w, base))
    tol = rel_tol * target
    suffix_min = [0.0] * (len(w) + 1)
    for i in range(len(w) - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + w[i]

    groups: dict[float, list[int]] = {}
    for wi, ni in zip(w, base):
        groups.setdefault(wi, []).append(ni)
    for v in groups.values():
        v.sort()

    def differs(assign: list[int]) -> bool:
        got: dict[float, list[int]] = {}
        for wi, mi in zip(w, assign):
            got.setdefault(wi, []).append(mi)
        return any(sorted(v) != groups[k] for k, v in got.items())

    # depth-first over the modes of every position but the last, on an
    # explicit stack: assign[pos] is the mode tried last at pos, and
    # left[pos] the energy left for positions pos..last
    last = len(w) - 1
    assign = [0] * len(w)
    left = [target] * len(w)
    pos = 0
    while pos >= 0:
        if pos == last:
            # every m >= 1 with |w m^2 - left| <= tol; they form one run of integers
            low = math.sqrt(max(left[pos] - tol, 0.0) / w[pos])
            high = math.sqrt(max(left[pos] + tol, 0.0) / w[pos])
            # at most one m reproduces the base multiset, so two fits suffice
            if high - low > 3:
                return True
            fits = [m for m in range(max(1, int(low) - 1), int(high) + 2)
                    if abs(w[pos] * m * m - left[pos]) <= tol]
            if len(fits) > 1 or (fits and differs(assign[:pos] + fits)):
                return True
            pos -= 1
            continue
        m = assign[pos] + 1
        if w[pos] * m * m + suffix_min[pos + 1] <= left[pos] + tol:
            assign[pos] = m
            left[pos + 1] = left[pos] - w[pos] * m * m
            pos += 1
            assign[pos] = 0
        else:
            pos -= 1
    return False


def epsilon1(system: DimensionlessSystem, occupation,
             table: CoulombTable | None = None) -> PerturbationCoefficients:
    """First-order coefficient with its per-term breakdown.

    Free-free pairs contribute q'_i q'_j times the two-particle repulsion
    element; each free particle contributes q'_i q'_c times the central 1/r
    element against the clamped charge. Labels carry the particle indices of
    the full system.
    """
    occ = _check_occupation(system, occupation)
    if table is None:
        table = get_table()
    for m in occ:
        if m.l != 0:
            raise UnsupportedModeError(
                f"first-order coefficients are restricted to s-wave occupations; got {m}"
            )
    free_ids = [i for i, p in enumerate(system.particles) if not p.clamped]
    free = system.free_particles
    if len(free) > 1 and _has_degenerate_partner(
        [1.0 / p.m_prime for p in free], [m.n for m in occ], _DEGENERACY_RTOL
    ):
        raise ValidationError(
            "occupation is degenerate with a distinct s-wave occupation at this eps0; "
            "degenerate first-order treatment is not supported"
        )

    terms = []
    for i, idx, p in zip(free_ids, occ, free):
        e = mode_energy(idx, p.m_prime)
        terms.append(BreakdownTerm(f"kinetic[{i}]", "kinetic", 1.0, e, e))
    for a in range(len(free)):
        for b in range(a + 1, len(free)):
            pref = free[a].q_prime * free[b].q_prime
            integral = table.pair_expectation(occ[a], occ[b])
            terms.append(
                BreakdownTerm(
                    f"pair[{free_ids[a]},{free_ids[b]}]", "pair", pref, integral, pref * integral
                )
            )
    clamped = system.clamped_particle
    if clamped is not None:
        c_id = next(i for i, p in enumerate(system.particles) if p.clamped)
        for i, idx, p in zip(free_ids, occ, free):
            pref = p.q_prime * clamped.q_prime
            integral = table.central_expectation(idx, idx)
            terms.append(
                BreakdownTerm(f"central[{i},{c_id}]", "central", pref, integral, pref * integral)
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
    coeffs = epsilon1(system, occupation, table)
    points = []
    for lam in lambdas:
        lam = float(lam)
        if not math.isfinite(lam) or lam <= 0:
            raise ValidationError(f"lambda values must be positive, got {lam!r}")
        try:
            energy = coeffs.eps0 / lam**2 + coeffs.eps1 / lam
        except (ZeroDivisionError, OverflowError):  # lam**2 underflows to 0 or overflows
            energy = math.inf
        rc_bohr = lam * system.length_scale_a
        if not all(math.isfinite(x) for x in (energy, energy * system.energy_prefactor, rc_bohr)):
            raise ValidationError(f"the energy at lambda={lam!r} is outside the float range")
        points.append(EnergyCurvePoint(lam=lam, rc_bohr=rc_bohr, energy=energy))
    return points


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
