"""Configuration interaction for two s-wave electrons around a clamped charge.

Basis states are symmetrized radial products (singlet spatial part)

    |nm> = N_nm [u_n(r1) u_m(r2) + u_m(r1) u_n(r2)],  N_nm = 1/sqrt(2(1+d_nm)),

over sphere modes n <= nmax. In this orthonormal basis

    H(lambda) = diag(T) + lambda W,  T_nm = (n^2 + m^2) pi^2 / 2,

where W collects -Z times the one-particle 1/r couplings and the electron
pair repulsion through monopole Slater integrals. W is gathered, upper
triangle first and then mirrored so it is exactly symmetric, from the
Coulomb table's checked s-wave block for nmax (`CoulombTable.s_wave_block`):
index arrays built from the configurations pick each central and Slater
integral, so the integrals are computed once per table and nmax however
often W is assembled. The ground eigenvalue is a
variational upper bound on the true ground energy within the subspace, and
the coefficient of |11> is the overlap with the free-particle ground state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coulomb import CoulombTable, get_table, mode_pair_index
from .errors import ConvergenceError, ValidationError

RESIDUAL_TOL = 1e-10
# 1,176 configurations and an 11 MB W; assembly grows as nmax^4
MAX_NMAX = 48
_EPS2_LAMBDA_MAX = 0.2


def _check_nmax(nmax) -> None:
    if isinstance(nmax, bool) or not isinstance(nmax, int) or not 1 <= nmax <= MAX_NMAX:
        raise ValidationError(f"nmax must be an integer in [1, {MAX_NMAX}], got {nmax!r}")


@dataclass(frozen=True)
class CiBasis:
    """Ordered symmetrized configurations {n, m}, 1 <= n <= m <= nmax."""

    nmax: int
    configurations: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_nmax(self.nmax)
        expected = self.nmax * (self.nmax + 1) // 2
        if len(self.configurations) != expected:
            raise ValidationError(
                f"basis must hold {expected} configurations for nmax={self.nmax}, "
                f"got {len(self.configurations)}"
            )
        if self.configurations[0] != (1, 1):
            raise ValidationError("configuration (1, 1) must come first")
        seen = set()
        for cfg in self.configurations:
            n, m = cfg
            if not 1 <= n <= m <= self.nmax:
                raise ValidationError(f"configuration {cfg} violates 1 <= n <= m <= nmax")
            if cfg in seen:
                raise ValidationError(f"duplicate configuration {cfg}")
            seen.add(cfg)

    @classmethod
    def up_to(cls, nmax: int) -> "CiBasis":
        _check_nmax(nmax)
        configs = tuple((n, m) for n in range(1, nmax + 1) for m in range(n, nmax + 1))
        return cls(nmax=nmax, configurations=configs)

    def __len__(self) -> int:
        return len(self.configurations)


@dataclass(frozen=True, eq=False)
class CiSolution:
    """Ground-state summary at one coupling."""

    lam: float
    energy: float
    coefficients: np.ndarray
    overlap0: float
    residual: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValidationError(f"lambda must be nonnegative, got {self.lam}")
        norm = float(np.linalg.norm(self.coefficients))
        if abs(norm - 1.0) > 1e-12:
            raise ValidationError(f"coefficient vector norm {norm!r} is not 1 within 1e-12")
        if not 0.0 <= self.overlap0 <= 1.0:
            raise ValidationError(f"overlap0 must lie in [0, 1], got {self.overlap0}")
        if not 0.0 <= self.residual <= RESIDUAL_TOL:
            raise ValidationError(f"residual {self.residual!r} outside [0, {RESIDUAL_TOL}]")


def _check_z_lambda(z: float, lam: float) -> tuple[float, float]:
    z, lam = float(z), float(lam)
    if not math.isfinite(z) or z <= 0:
        raise ValidationError(f"nuclear charge Z must be positive, got {z!r}")
    # lambda = 0 is the exact free-particle limit (diagonal Hamiltonian)
    if not math.isfinite(lam) or lam < 0:
        raise ValidationError(f"lambda must be nonnegative, got {lam!r}")
    return z, lam


def kinetic_diagonal(basis: CiBasis) -> np.ndarray:
    """T_nm = (n^2 + m^2) pi^2 / 2 in configuration order."""
    return np.array(
        [(n * n + m * m) * math.pi**2 / 2.0 for n, m in basis.configurations]
    )


def interaction_matrix(z: float, basis: CiBasis, table: CoulombTable | None = None) -> np.ndarray:
    """W = -Z * (symmetrized central couplings) + symmetrized pair repulsion."""
    z, _ = _check_z_lambda(z, 0.0)
    if table is None:
        table = get_table()
    central, slater = table.s_wave_block(basis.nmax)
    pair = mode_pair_index(basis.nmax)
    # 0-based modes: row i of W is configuration (n, m), column j is (p, q)
    config = np.array(basis.configurations) - 1
    norm = np.where(config[:, 0] == config[:, 1], 0.5, 1.0 / math.sqrt(2.0))
    i, j = np.triu_indices(len(basis))
    n, m = config[i].T
    p, q = config[j].T
    pre = 2.0 * norm[i] * norm[j]
    att = (
        np.where(m == q, central[n, p], 0.0)
        + np.where(n == p, central[m, q], 0.0)
        + np.where(m == p, central[n, q], 0.0)
        + np.where(n == q, central[m, p], 0.0)
    )
    # coordinate 1 couples u_n u_p (or u_n u_q), coordinate 2 the other two
    rep = slater[pair[n, p], pair[m, q]] + slater[pair[n, q], pair[m, p]]
    w = np.empty((len(basis), len(basis)))
    w[i, j] = w[j, i] = pre * (-z * att + rep)
    return w


def build_hamiltonian(z: float, lam: float, basis: CiBasis,
                      table: CoulombTable | None = None) -> np.ndarray:
    """H(lambda) = diag(T) + lambda W; exactly symmetric."""
    z, lam = _check_z_lambda(z, lam)
    return np.diag(kinetic_diagonal(basis)) + lam * interaction_matrix(z, basis, table)


def ground_state(matrix: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Lowest eigenpair (energy, coefficients, residual) of a symmetric matrix.

    The eigenvector sign is fixed so its first component is nonnegative; the
    residual ||Hc - Ec|| must meet RESIDUAL_TOL or ConvergenceError is raised.
    """
    h = np.asarray(matrix, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValidationError("matrix contains non-finite entries")
    if not np.array_equal(h, h.T):
        raise ValidationError("matrix must be exactly symmetric")
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed on {h.shape[0]}x{h.shape[0]} matrix: {exc}")
    energy = float(eigenvalues[0])
    coeff = eigenvectors[:, 0].copy()
    if coeff[0] < 0:
        coeff = -coeff
    residual = float(np.linalg.norm(h @ coeff - energy * coeff))
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(
            f"eigenpair residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} "
            f"on {h.shape[0]}x{h.shape[0]} matrix"
        )
    coeff.setflags(write=False)
    return energy, coeff, residual


def solve_ground(z: float, lam: float, basis: CiBasis,
                 table: CoulombTable | None = None) -> CiSolution:
    """Assemble H(lambda) and package its ground state as a CiSolution."""
    z, lam = _check_z_lambda(z, lam)
    energy, coeff, residual = ground_state(build_hamiltonian(z, lam, basis, table))
    # |c_11| can exceed 1 by rounding in the normalized eigenvector
    overlap0 = min(abs(float(coeff[0])), 1.0)
    return CiSolution(lam=lam, energy=energy, coefficients=coeff,
                      overlap0=overlap0, residual=residual)


def overlap_scan(z: float, lambdas, basis: CiBasis,
                 table: CoulombTable | None = None) -> list[CiSolution]:
    """Ground-state solutions over an ascending positive lambda grid."""
    lams = [float(x) for x in lambdas]
    if not lams:
        raise ValidationError("lambda grid must not be empty")
    for lam in lams:
        if not math.isfinite(lam) or lam <= 0:
            raise ValidationError(f"lambda values must be positive, got {lam!r}")
    if any(b < a for a, b in zip(lams, lams[1:])):
        raise ValidationError("lambda grid must be sorted ascending")
    if table is None:
        table = get_table()
    kinetic = np.diag(kinetic_diagonal(basis))
    interaction = interaction_matrix(z, basis, table)
    out = []
    for lam in lams:
        energy, coeff, residual = ground_state(kinetic + lam * interaction)
        out.append(
            CiSolution(lam=lam, energy=energy, coefficients=coeff,
                       overlap0=min(abs(float(coeff[0])), 1.0), residual=residual)
        )
    return out


def second_order_sum_over_states(z: float, basis: CiBasis,
                                 table: CoulombTable | None = None) -> float:
    """In-subspace sum-over-states eps2 = sum_k |W_k0|^2 / (T_0 - T_k)."""
    kinetic = kinetic_diagonal(basis)
    interaction = interaction_matrix(z, basis, table)
    # only configuration (1,1) has n^2+m^2 = 2, so no vanishing denominators
    total = 0.0
    for k in range(1, len(basis)):
        total += interaction[k, 0] ** 2 / (kinetic[0] - kinetic[k])
    return total


def second_order_estimate(z: float, basis: CiBasis, lambda_grid,
                          table: CoulombTable | None = None) -> float:
    """s-wave-limited second-order coefficient from a small-lambda fit.

    Fits eps_CI(lambda) - eps0 - eps1*lambda against {lambda^2, lambda^3} and
    returns the lambda^2 coefficient. The value is a partial (s-limited) sum
    of the true second-order coefficient: l > 0 pair excitations are outside
    the basis. It must agree with the in-subspace sum-over-states value
    within 2%, else ConvergenceError.
    """
    if basis.nmax < 4:
        raise ValidationError(f"second-order estimate needs nmax >= 4, got {basis.nmax}")
    lams = [float(x) for x in lambda_grid]
    for lam in lams:
        if not math.isfinite(lam) or not 0.0 < lam <= _EPS2_LAMBDA_MAX:
            raise ValidationError(
                f"fit grid must lie in (0, {_EPS2_LAMBDA_MAX}], got {lam!r}"
            )
    if len(set(lams)) < 2:
        raise ValidationError("fit grid needs at least two distinct lambda values")
    if table is None:
        table = get_table()

    kinetic = np.diag(kinetic_diagonal(basis))
    interaction = interaction_matrix(z, basis, table)
    eps0 = kinetic[0, 0]
    eps1 = interaction[0, 0]
    lams_arr = np.array(lams)
    remainders = np.array(
        [ground_state(kinetic + lam * interaction)[0] - eps0 - eps1 * lam for lam in lams]
    )
    design = np.column_stack([lams_arr**2, lams_arr**3])
    coeffs, _, rank, singular = np.linalg.lstsq(design, remainders, rcond=None)
    if rank < 2 or singular[0] > 1e12 * singular[-1]:
        raise ConvergenceError(
            "second-order fit is ill-conditioned; use a smaller lambda range with more points"
        )
    fitted = float(coeffs[0])
    reference = second_order_sum_over_states(z, basis, table)
    if abs(fitted - reference) > 0.02 * abs(reference):
        raise ConvergenceError(
            f"second-order fit {fitted:.6e} and sum-over-states {reference:.6e} "
            f"disagree beyond 2%; use a smaller lambda range or a larger basis"
        )
    return fitted
