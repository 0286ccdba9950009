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

`CiProblem` holds T and W for one charge and basis, so a scan and an eps2 fit
share one W. In strong confinement H is strongly diagonally dominant, so each
scan and fit point is solved with Davidson's method (E. R. Davidson,
J. Comput. Phys. 17, 87 (1975)): preconditioner 1/(diag(H) - theta), started
from |11> and then from the previous lambda's vector. The pair is kept only
if its residual, recomputed from H, meets RESIDUAL_TOL and a Cholesky factor
of H - (E - delta) I exists, which proves that no eigenvalue lies below
E - delta. Otherwise the dense `ground_state` solves the point; it stays the
reference. Scan energies must also be concave in lambda, checked against the
Hellmann-Feynman tangent of every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .coulomb import MAX_NMAX, CoulombTable, check_nmax, get_table, mode_pair_index
from .errors import ConvergenceError, ValidationError

RESIDUAL_TOL = 1e-10
_EPS2_LAMBDA_MAX = 0.2
# Davidson stops below RESIDUAL_TOL, leaving room for the explicit recheck
_DAVIDSON_TOL = 1e-11
_DAVIDSON_MAX_ITER = 60
# preconditioner denominators diag(H) - theta are kept at least this large
_MIN_DENOMINATOR = 1e-8
# the certificate proves that no eigenvalue lies below E - _CERTIFICATE_SHIFT * (1 + |E|)
_CERTIFICATE_SHIFT = 1e-6
# rounding allowance of the concavity check, relative to the size of its terms
_CONCAVITY_RTOL = 1e-12
# pair comparisons held in memory at once by the concavity check
_CONCAVITY_BLOCK = 1 << 18


@dataclass(frozen=True)
class CiBasis:
    """Symmetrized configurations {n, m}, 1 <= n <= m <= nmax, ordered by n then m."""

    nmax: int
    configurations: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        nmax = check_nmax(self.nmax)
        object.__setattr__(self, "nmax", nmax)
        object.__setattr__(self, "configurations",
                           tuple((n, m) for n in range(1, nmax + 1) for m in range(n, nmax + 1)))

    @classmethod
    def up_to(cls, nmax: int) -> "CiBasis":
        return cls(nmax)

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
    return _hamiltonian(kinetic_diagonal(basis), lam, interaction_matrix(z, basis, table))


def _hamiltonian(kinetic: np.ndarray, lam: float, interaction: np.ndarray) -> np.ndarray:
    # an overflowing lambda * W is reported by ground_state as non-finite
    with np.errstate(over="ignore"):
        h = lam * interaction
    h[np.diag_indices_from(h)] += kinetic
    return h


def _checked_matrix(matrix: np.ndarray) -> np.ndarray:
    h = np.asarray(matrix, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValidationError("matrix contains non-finite entries")
    if not np.array_equal(h, h.T):
        raise ValidationError("matrix must be exactly symmetric")
    return h


def ground_state(matrix: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Lowest eigenpair (energy, coefficients, residual) of a symmetric matrix.

    The eigenvector sign is fixed so its first component is nonnegative; the
    residual ||Hc - Ec|| must meet RESIDUAL_TOL or ConvergenceError is raised.
    """
    h = _checked_matrix(matrix)
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed on {h.shape[0]}x{h.shape[0]} matrix: {exc}")
    energy = float(eigenvalues[0])
    coeff = eigenvectors[:, 0].copy()
    if coeff[0] < 0:
        coeff = -coeff
    # entries beyond ~1e154 overflow the norm; a non-finite residual fails
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.linalg.norm(h @ coeff - energy * coeff))
    if not residual <= RESIDUAL_TOL:
        raise ConvergenceError(
            f"eigenpair residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} "
            f"on {h.shape[0]}x{h.shape[0]} matrix"
        )
    coeff.setflags(write=False)
    return energy, coeff, residual


def _davidson(h: np.ndarray, start: np.ndarray) -> tuple[float, np.ndarray] | None:
    """Lowest Ritz pair of the subspace grown from `start`.

    Each correction is the residual times 1/(diag(h) - theta), orthogonalized
    twice against the subspace, which grows by one vector per iteration.
    Convergence means ||h c - theta c|| <= _DAVIDSON_TOL. If the iteration
    stalls or reaches its cap first, it returns the pair with the smallest
    residual seen; None means no finite pair. Nothing here proves that theta
    is the lowest eigenvalue of h.
    """
    size = h.shape[0]
    diagonal = h.diagonal()
    space = np.empty((size, _DAVIDSON_MAX_ITER + 1))
    image = np.empty((size, _DAVIDSON_MAX_ITER + 1))
    space[:, 0] = start / np.linalg.norm(start)
    image[:, 0] = h @ space[:, 0]
    k = 1
    best, best_norm = None, math.inf
    for _ in range(_DAVIDSON_MAX_ITER):
        v, hv = space[:, :k], image[:, :k]
        projected = v.T @ hv
        if not np.all(np.isfinite(projected)):
            break
        values, vectors = np.linalg.eigh(projected)
        theta, y = float(values[0]), vectors[:, 0]
        coeff, h_coeff = v @ y, hv @ y
        residual = h_coeff - theta * coeff
        residual_norm = np.linalg.norm(residual)
        if residual_norm <= _DAVIDSON_TOL:
            return theta, coeff
        if residual_norm < best_norm:
            best, best_norm = (theta, coeff), residual_norm
        denominator = diagonal - theta
        denominator[np.abs(denominator) < _MIN_DENOMINATOR] = _MIN_DENOMINATOR
        correction = residual / denominator
        scale = np.linalg.norm(correction)
        for _ in range(2):
            correction -= v @ (v.T @ correction)
        norm = np.linalg.norm(correction)
        # a correction inside the subspace adds nothing (nan fails here too)
        if not norm > 1e-8 * scale:
            break
        space[:, k] = correction / norm
        image[:, k] = h @ space[:, k]
        k += 1
    return best


def _no_eigenvalue_below(h: np.ndarray, bound: float) -> bool:
    """True if h - bound I has a Cholesky factor, which proves every eigenvalue exceeds bound."""
    shifted = h.copy()
    shifted[np.diag_indices_from(shifted)] -= bound
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _certified_ground_state(matrix: np.ndarray, start: np.ndarray) -> tuple[float, np.ndarray, float]:
    """`ground_state` by Davidson from `start`, falling back to the dense solve.

    The Davidson pair is kept only if its residual, recomputed from h,
    meets RESIDUAL_TOL and the Cholesky certificate shows that no eigenvalue
    lies below E - _CERTIFICATE_SHIFT * (1 + |E|). A pair that misses
    RESIDUAL_TOL gets one more Davidson run started from it: where ||h|| is
    near 1e5 (lambda of a few hundred and up) rounding holds a long subspace's
    residual near 1e-10, and a fresh subspace reaches a lower floor.
    """
    h = _checked_matrix(matrix)
    # near the overflow limit products turn non-finite; the checks below reject them
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(2):
            found = _davidson(h, start)
            if found is None:
                break
            energy, coeff = found
            coeff = coeff / np.linalg.norm(coeff)
            if coeff[0] < 0:
                coeff = -coeff
            residual = float(np.linalg.norm(h @ coeff - energy * coeff))
            if residual <= RESIDUAL_TOL:
                if _no_eigenvalue_below(h, energy - _CERTIFICATE_SHIFT * (1.0 + abs(energy))):
                    coeff.setflags(write=False)
                    return energy, coeff, residual
                break
            start = coeff
    return ground_state(h)


def _solution(lam: float, energy: float, coeff: np.ndarray, residual: float) -> CiSolution:
    # |c_11| can exceed 1 by rounding in the normalized eigenvector
    return CiSolution(lam=lam, energy=energy, coefficients=coeff,
                      overlap0=min(abs(float(coeff[0])), 1.0), residual=residual)


def solve_ground(z: float, lam: float, basis: CiBasis,
                 table: CoulombTable | None = None) -> CiSolution:
    """Assemble H(lambda) and package its dense ground state as a CiSolution."""
    z, lam = _check_z_lambda(z, lam)
    return _solution(lam, *ground_state(build_hamiltonian(z, lam, basis, table)))


def _check_concavity(lam: np.ndarray, energy: np.ndarray, slope: np.ndarray,
                     residual: np.ndarray) -> None:
    """Every energy must lie on or below every other row's tangent line.

    E(lambda) is the lowest of functions linear in lambda, so it is concave:
    with the Hellmann-Feynman slope s_i = c_i^T W c_i, E_j <= E_i + s_i
    (lambda_j - lambda_i) for every pair. The Rayleigh quotient of c_i
    differs from E_i by at most the residual r_i, so the tolerance is
    r_i + r_j plus _CONCAVITY_RTOL times the size of the terms.
    """
    rows = max(1, _CONCAVITY_BLOCK // len(lam))
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, len(lam), rows):
            part = slice(first, first + rows)
            shift = slope[part, None] * (lam[None, :] - lam[part, None])
            excess = energy[None, :] - energy[part, None] - shift
            tol = residual[part, None] + residual[None, :] + _CONCAVITY_RTOL * (
                np.abs(energy[part, None]) + np.abs(energy[None, :]) + np.abs(shift)
            )
            if not np.all(excess <= tol):
                i, j = np.argwhere(~(excess <= tol))[0]
                raise ConvergenceError(
                    f"CI energies are not concave in lambda: E({lam[j]:.6g}) = {energy[j]:.10g} "
                    f"lies {excess[i, j]:.3e} above the tangent at lambda = {lam[first + i]:.6g}"
                )


@dataclass(frozen=True, eq=False)
class CiProblem:
    """H(lambda) = diag(T) + lambda W for one charge, basis and table.

    T and W are built on first use and then shared, so a scan, an eps2 fit
    and a sum over states on one problem assemble W once.
    """

    z: float
    basis: CiBasis
    table: CoulombTable | None = None

    def __post_init__(self):
        object.__setattr__(self, "z", _check_z_lambda(self.z, 0.0)[0])

    @cached_property
    def kinetic(self) -> np.ndarray:
        return kinetic_diagonal(self.basis)

    @cached_property
    def interaction(self) -> np.ndarray:
        return interaction_matrix(self.z, self.basis, self.table)

    def _ground_states(self, lams: list[float]) -> list[tuple[float, np.ndarray, float]]:
        # start from |11>, then from the previous lambda's vector
        start = np.zeros(len(self.basis))
        start[0] = 1.0
        pairs = []
        for lam in lams:
            pairs.append(_certified_ground_state(_hamiltonian(self.kinetic, lam, self.interaction), start))
            start = pairs[-1][1]
        return pairs

    def overlap_scan(self, lambdas) -> list[CiSolution]:
        """Ground-state solutions over an ascending positive lambda grid, checked for concavity."""
        lams = [float(x) for x in lambdas]
        if not lams:
            raise ValidationError("lambda grid must not be empty")
        for lam in lams:
            if not math.isfinite(lam) or lam <= 0:
                raise ValidationError(f"lambda values must be positive, got {lam!r}")
        if any(b < a for a, b in zip(lams, lams[1:])):
            raise ValidationError("lambda grid must be sorted ascending")
        solutions = [_solution(lam, *pair) for lam, pair in zip(lams, self._ground_states(lams))]
        w = self.interaction
        # lambda = 0 joins as an exact row: |11>, energy T_11 = eps0, slope W_11 = eps1
        _check_concavity(
            np.array([0.0] + lams),
            np.array([self.kinetic[0]] + [s.energy for s in solutions]),
            np.array([w[0, 0]] + [s.coefficients @ (w @ s.coefficients) for s in solutions]),
            np.array([0.0] + [s.residual for s in solutions]),
        )
        return solutions

    def second_order_sum_over_states(self) -> float:
        """In-subspace sum-over-states eps2 = sum_k |W_k0|^2 / (T_0 - T_k)."""
        # only configuration (1,1) has n^2+m^2 = 2, so no vanishing denominators
        kinetic, interaction = self.kinetic, self.interaction
        return float(np.sum(interaction[1:, 0] ** 2 / (kinetic[0] - kinetic[1:])))

    def second_order_estimate(self, lambda_grid) -> float:
        """s-wave-limited second-order coefficient from a small-lambda fit.

        Fits eps_CI(lambda) - eps0 - eps1*lambda against {lambda^2, lambda^3} and
        returns the lambda^2 coefficient. The value is a partial (s-limited) sum
        of the true second-order coefficient: l > 0 pair excitations are outside
        the basis. It must agree with the in-subspace sum-over-states value
        within 2%, else ConvergenceError.
        """
        if self.basis.nmax < 4:
            raise ValidationError(f"second-order estimate needs nmax >= 4, got {self.basis.nmax}")
        lams = [float(x) for x in lambda_grid]
        for lam in lams:
            if not math.isfinite(lam) or not 0.0 < lam <= _EPS2_LAMBDA_MAX:
                raise ValidationError(
                    f"fit grid must lie in (0, {_EPS2_LAMBDA_MAX}], got {lam!r}"
                )
        if len(set(lams)) < 2:
            raise ValidationError("fit grid needs at least two distinct lambda values")

        eps0 = self.kinetic[0]
        eps1 = self.interaction[0, 0]
        lams_arr = np.array(lams)
        remainders = np.array(
            [energy - eps0 - eps1 * lam for lam, (energy, _, _) in zip(lams, self._ground_states(lams))]
        )
        design = np.column_stack([lams_arr**2, lams_arr**3])
        coeffs, _, rank, singular = np.linalg.lstsq(design, remainders, rcond=None)
        if rank < 2 or singular[0] > 1e12 * singular[-1]:
            raise ConvergenceError(
                "second-order fit is ill-conditioned; use a smaller lambda range with more points"
            )
        fitted = float(coeffs[0])
        reference = self.second_order_sum_over_states()
        if abs(fitted - reference) > 0.02 * abs(reference):
            raise ConvergenceError(
                f"second-order fit {fitted:.6e} and sum-over-states {reference:.6e} "
                f"disagree beyond 2%; use a smaller lambda range or a larger basis"
            )
        return fitted


def overlap_scan(z: float, lambdas, basis: CiBasis,
                 table: CoulombTable | None = None) -> list[CiSolution]:
    """Ground-state solutions over an ascending positive lambda grid."""
    return CiProblem(z, basis, table).overlap_scan(lambdas)


def second_order_sum_over_states(z: float, basis: CiBasis,
                                 table: CoulombTable | None = None) -> float:
    """In-subspace sum-over-states eps2 = sum_k |W_k0|^2 / (T_0 - T_k)."""
    return CiProblem(z, basis, table).second_order_sum_over_states()


def second_order_estimate(z: float, basis: CiBasis, lambda_grid,
                          table: CoulombTable | None = None) -> float:
    """s-wave-limited second-order coefficient from a small-lambda fit (CiProblem.second_order_estimate)."""
    return CiProblem(z, basis, table).second_order_estimate(lambda_grid)
