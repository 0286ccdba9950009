"""Configuration interaction for two s-wave electrons around a clamped charge.

Basis states are symmetrized radial products (singlet spatial part)

    |nm> = N_nm [u_n(r1) u_m(r2) + u_m(r1) u_n(r2)],  N_nm = 1/sqrt(2(1+d_nm)),

over sphere modes 1 <= n <= m <= nmax. Configuration k is {n, m} = mode pair
k of `coulomb.mode_pair_index(nmax)`, ordered by n and then m as
np.triu_indices(nmax) orders them. In this orthonormal basis

    H(lambda) = diag(T) + lambda W,  T_nm = (n^2 + m^2) pi^2 / 2,

where W collects -Z times the one-particle 1/r couplings and the electron
pair repulsion through monopole Slater integrals. W is gathered from the
checked s-wave block `coulomb.s_wave_block(nmax, points)` one mode group
at a time: the rows of the configurations (n, m) that share their first
mode n, against every column from the group's first row on, are written
through a slice and mirrored through its transpose, so W is exactly
symmetric. Nothing keeps the block, so it is freed once W is
gathered, and a second W at the same nmax computes the integrals again.
The ground eigenvalue is a
variational upper bound on the true ground energy within the subspace, and
the coefficient of |11> is the overlap with the free-particle ground state.

`CiProblem(z, nmax, points)` is the library's one way to solve the CI
problem, and the one the CLI runs: its `scan`, `second_order_estimate` and
`second_order_sum_over_states` share one W, checked once to be finite and
exactly symmetric; the eps2 fit is a scan of EPS2_FIT_GRID * min(1, 4 / Z).
`ground_state(build_hamiltonian(z, lam, nmax, points))` solves one lambda
densely; it is the reference the certified solver is
tested against. A lambda whose bound max(T) + lambda max_i sum_j |W_ij| on
||H||_2 exceeds RESIDUAL_TOL / (10 eps), about 4.5e4, is a ValidationError:
beyond it the residual tolerance is within rounding. In strong confinement
H is strongly diagonally dominant, so each scan and fit point is solved with
Davidson's method (E. R. Davidson, J. Comput. Phys. 17, 87 (1975)):
preconditioner 1/(diag(H) - theta), started from |11> and then from the
previous lambda's whole subspace. H V = T V + lambda W V, so moving to the
next lambda costs no product with W. A pair (theta, c) is kept only if its
residual r, recomputed as T c + lambda (W c) - theta c, meets RESIDUAL_TOL,
and only if the first of three tiers that succeeds proves it is the ground
state. That one W c also gives the pair's Hellmann-Feynman slope c^T W c, so
the slope costs no product with W of its own. The tiers are:

1. The interlacing floor. Let Q be every configuration but |11> and
   f(lambda) = lambda_min(H_QQ(lambda)). By Cauchy interlacing
   (B. N. Parlett, The Symmetric Eigenvalue Problem, SIAM 1998, section
   10.1) f bounds lambda_2(H) from below, and f is concave, being the
   minimum of functions affine in lambda. So the chord between two points
   where f is bounded from below bounds f between them. f(0) = min T_Q
   exactly; a knot at lambda > 0 is one Davidson estimate of f there,
   lowered by delta and proven by one Cholesky factor of H_QQ minus it. The
   first knot is the grid's largest lambda, and a point the chord misses
   gets a knot of its own; the knots stay on the problem, so the eps2 fit
   reuses the scan's. If theta + r + delta lies below the chord, the
   eigenvalue within r of theta lies below lambda_2, so it is the ground
   energy and |E_0 - theta| <= r.
2. A Cholesky factor of H - (theta - delta) I, which proves that no
   eigenvalue lies below theta - delta.
3. The dense `ground_state(H)`, which stays the reference.

Here delta = _CERTIFICATE_SHIFT (1 + |theta|). H is formed only for tiers 2
and 3. Tier 2 shifts it and factors it in place, a tile at a time, so it
makes no copy of H. Scan energies must also be concave in
lambda, checked against the Hellmann-Feynman tangent of every row, a block
of _CONCAVITY_BLOCK pairs at a time. `CiProblem.scan` returns the energy,
overlap0 and residual columns only once that check has passed; it drops each
vector once its overlap is read, so it holds five floats per row however
long the grid.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .coulomb import DEFAULT_POINTS, check_nmax, check_points, mode_pair_index, s_wave_block
from .errors import ConvergenceError, Record, ValidationError, real, reals

RESIDUAL_TOL = 1e-10
# the small-lambda grid of the second-order fit at Z <= 4, scaled by 4 / Z above;
# its design [lambda^2, lambda^3], never scaled, has rank 2 and condition number 35.5
EPS2_FIT_GRID = np.linspace(0.02, 0.2, 10)
EPS2_FIT_GRID.setflags(write=False)
# the smallest nmax the fit runs at
EPS2_MIN_NMAX = 4
# Davidson stops below RESIDUAL_TOL, leaving room for the explicit recheck
_DAVIDSON_TOL = 1e-11
_DAVIDSON_MAX_ITER = 60
# preconditioner denominators diag(H) - theta are kept at least this large
_MIN_DENOMINATOR = 1e-8
# the certificate proves that no eigenvalue lies below E - _CERTIFICATE_SHIFT * (1 + |E|)
_CERTIFICATE_SHIFT = 1e-6
# ||H||_2 above this bound puts eps ||H|| within a factor of 10 of RESIDUAL_TOL
_NORM_LIMIT = RESIDUAL_TOL / (10.0 * np.finfo(float).eps)
# rounding allowance of the concavity check, relative to the size of its terms
_CONCAVITY_RTOL = 1e-12
# pair comparisons held in memory at once by the concavity check
_CONCAVITY_BLOCK = 1 << 16
# rows and columns of the tiles in which the Cholesky tier factors H in place:
# the panel update's scratch is at most 64 x 1,175 entries at nmax 48
_CHOLESKY_TILE = 64


def _charge(z) -> float:
    z = real("nuclear charge Z", z)
    if z <= 0:
        raise ValidationError(f"nuclear charge Z must be positive, got {z!r}")
    return z


def _coupling(lam) -> float:
    # lambda = 0 is the exact free-particle limit (diagonal Hamiltonian)
    lam = real("lambda", lam)
    if lam < 0:
        raise ValidationError(f"lambda must be nonnegative, got {lam!r}")
    return lam


def _kinetic_diagonal(nmax: int) -> np.ndarray:
    """T_nm = (n^2 + m^2) pi^2 / 2 in configuration order."""
    n, m = np.add(np.triu_indices(nmax), 1)
    return (n * n + m * m) * math.pi**2 / 2.0


def _interaction_matrix(z: float, nmax: int, points: int) -> np.ndarray:
    """W = -Z * (symmetrized central couplings) + symmetrized pair repulsion, by the points-point rule."""
    # nothing keeps the block, so it is freed once W is gathered
    central, slater = s_wave_block(nmax, points)
    pair = mode_pair_index(nmax)
    # 0-based modes: row i of W is configuration (n, m), column j is (p, q)
    first, second = np.triu_indices(nmax)
    norm = np.where(first == second, 0.5, 1.0 / math.sqrt(2.0))
    w = np.empty((len(first), len(first)))
    for n in range(nmax):
        # the rows of mode group n, configurations (n, n) to (n, nmax - 1), against
        # every column from the group's first row on; the transposed write mirrors
        # them. The group's own lower triangle is computed too, then overwritten by
        # the mirror with the same bits: central and slater are exactly symmetric,
        # swapping (i, j) swaps only the third and fourth terms of att, which are
        # both nonzero only on the diagonal (n = m = p = q), and 2 a b is 2 b a
        start, stop = pair[n, n], pair[n, n] + nmax - n
        m, p, q = second[start:stop, None], first[start:], second[start:]
        att = (
            np.where(m == q, central[n, p], 0.0)
            + np.where(n == p, central[m, q], 0.0)
            + np.where(m == p, central[n, q], 0.0)
            + np.where(n == q, central[m, p], 0.0)
        )
        # coordinate 1 couples u_n u_p (or u_n u_q), coordinate 2 the other two
        rep = slater[pair[n, p], pair[m, q]] + slater[pair[n, q], pair[m, p]]
        w[start:stop, start:] = 2.0 * norm[start:stop, None] * norm[start:] * (-z * att + rep)
        w[start:, start:stop] = w[start:stop, start:].T
    return w


def build_hamiltonian(z: float, lam: float, nmax: int, points: int = DEFAULT_POINTS) -> np.ndarray:
    """H(lambda) = diag(T) + lambda W of `CiProblem(z, nmax, points)`; exactly symmetric."""
    problem = CiProblem(z, nmax, points)
    return _hamiltonian(problem.kinetic, _coupling(lam), problem.interaction)


def _hamiltonian(kinetic: np.ndarray, lam: float, interaction: np.ndarray) -> np.ndarray:
    # an overflowing lambda * W is reported by ground_state as non-finite
    with np.errstate(over="ignore"):
        h = lam * interaction
    h[np.diag_indices_from(h)] += kinetic
    return h


def _checked_matrix(matrix: np.ndarray) -> np.ndarray:
    # the number rule of `errors`: an int or float array, never booleans or strings
    try:
        h = np.asarray(matrix)
    except ValueError:  # a ragged nesting, refused below as an object array
        h = np.asarray(None)
    if h.dtype.kind not in "fiu":
        raise ValidationError(f"matrix must hold real numbers, got {type(matrix).__name__} of dtype {h.dtype}")
    h = h.astype(float, copy=False)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or not h.size:
        raise ValidationError(f"matrix must be square and not empty, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValidationError("matrix contains non-finite entries")
    if not np.array_equal(h, h.T):
        raise ValidationError("matrix must be exactly symmetric")
    return h


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


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


class _Subspace:
    """Orthonormal columns V with W V and the projections V^T diag(T) V and V^T W V.

    Neither projection depends on lambda, so V^T H(lambda) V costs no
    product with W or with V when lambda changes, and a subspace grown at
    one lambda starts the next. Appending a column costs one product with W
    and two with V^T; the subspace holds at most _DAVIDSON_MAX_ITER + 1
    columns.
    """

    def __init__(self, kinetic: np.ndarray, w: np.ndarray, vector: np.ndarray):
        self.kinetic, self.w = kinetic, w
        columns = _DAVIDSON_MAX_ITER + 1
        self.basis = np.empty((len(kinetic), columns))
        self.image = np.empty((len(kinetic), columns))
        self.projected_t = np.empty((columns, columns))
        self.projected_w = np.empty((columns, columns))
        self.restart(vector)

    @property
    def full(self) -> bool:
        return self.size == self.basis.shape[1]

    def restart(self, vector: np.ndarray) -> None:
        """Drop every column and start again from a unit vector."""
        self.size = 0
        self.append(vector)

    def append(self, vector: np.ndarray) -> None:
        """Add a unit vector orthogonal to the columns."""
        k = self.size
        self.basis[:, k] = vector
        self.image[:, k] = self.w @ vector
        v = self.basis[:, : k + 1]
        # filled by rows and columns alike, so both projections are exactly symmetric
        self.projected_t[k, : k + 1] = self.projected_t[: k + 1, k] = v.T @ (self.kinetic * vector)
        self.projected_w[k, : k + 1] = self.projected_w[: k + 1, k] = v.T @ self.image[:, k]
        self.size = k + 1


def _davidson(lam: float, subspace: _Subspace) -> tuple[float, np.ndarray] | None:
    """Lowest Ritz pair of H = diag(T) + lam W, grown from the subspace in place.

    Each correction is the residual times 1/(diag(H) - theta), orthogonalized
    twice against the subspace, which grows by one column per iteration.
    The residual is T c + lam (W V) y - theta c with c = V y, so no product
    with W is formed for it. Convergence means ||H c - theta c|| <=
    _DAVIDSON_TOL. If the iteration stalls or fills the subspace first, it
    returns the pair with the smallest residual seen; None means no finite
    pair. The grown subspace is left to start the next lambda from. Nothing
    here proves that theta is the lowest eigenvalue of H.
    """
    kinetic = subspace.kinetic
    diagonal = kinetic + lam * subspace.w.diagonal()
    best, best_norm = None, math.inf
    for _ in range(_DAVIDSON_MAX_ITER):
        k = subspace.size
        v = subspace.basis[:, :k]
        projected = subspace.projected_t[:k, :k] + lam * subspace.projected_w[:k, :k]
        if not np.all(np.isfinite(projected)):
            break
        values, vectors = np.linalg.eigh(projected)
        theta, y = float(values[0]), vectors[:, 0]
        coeff = v @ y
        residual = kinetic * coeff + lam * (subspace.image[:, :k] @ y) - theta * coeff
        residual_norm = np.linalg.norm(residual)
        if residual_norm <= _DAVIDSON_TOL:
            return theta, coeff
        if residual_norm < best_norm:
            best, best_norm = (theta, coeff), residual_norm
        if subspace.full:
            break
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
        subspace.append(correction / norm)
    return best


def _no_eigenvalue_below(kinetic: np.ndarray, lam: float, w: np.ndarray, bound: float) -> bool:
    """True if H - bound I, H = diag(kinetic) + lam w, has a Cholesky factor.

    A factor proves every eigenvalue of H exceeds bound. H is a fresh array,
    shifted and factored in place by the right-looking blocked Cholesky
    (G. H. Golub and C. F. Van Loan, Matrix Computations, 4th ed., 4.2):
    LAPACK factors each diagonal tile, the panel below it is solved against
    that factor, and the lower part of the trailing matrix is updated a band
    of tile rows at a time, so no copy of H is made. kinetic and w are not
    written.
    """
    h = _hamiltonian(kinetic, lam, w)
    h[np.diag_indices_from(h)] -= bound
    size = len(h)
    for start in range(0, size, _CHOLESKY_TILE):
        end = start + _CHOLESKY_TILE
        try:
            factor = np.linalg.cholesky(h[start:end, start:end])
        except np.linalg.LinAlgError:
            return False
        # L21 = A21 L11^-T, written over A21
        panel = h[end:, start:end]
        panel[...] = np.linalg.solve(factor, panel.T).T
        trailing = h[end:, end:]
        for row in range(0, len(trailing), _CHOLESKY_TILE):
            band = slice(row, row + _CHOLESKY_TILE)
            # the band's rows up to its diagonal tile: the lower part of A22 - L21 L21^T
            trailing[band, : band.stop] -= panel[band] @ panel[: band.stop].T
    return True


def _certificate_shift(energy: float) -> float:
    return _CERTIFICATE_SHIFT * (1.0 + abs(energy))


class _InterlacingFloor:
    """Certified lower bounds on lambda_2(H(lambda)): tier 1 of the module docstring.

    `knots` maps lambda to a proven lower bound on f(lambda) =
    lambda_min(H_QQ(lambda)); between two knots the chord lies below the
    concave f, and beyond the last knot nothing is known. Each knot's
    Davidson run starts from the previous knot's subspace.
    """

    def __init__(self, kinetic: np.ndarray, w: np.ndarray):
        self.kinetic, self.w = kinetic[1:], w[1:, 1:]
        self.knots: dict[float, float] = {}
        self.failed: set[float] = set()
        if len(self.kinetic):
            self.knots[0.0] = float(self.kinetic.min())
            lowest = np.eye(1, len(self.kinetic), int(np.argmin(self.kinetic)))[0]
            self.subspace = _Subspace(self.kinetic, self.w, lowest)

    def chord(self, lam: float) -> float:
        """The certified floor at lam, or -inf beyond the last knot."""
        xs = sorted(self.knots)
        return float(np.interp(lam, xs, [self.knots[x] for x in xs], right=-math.inf))

    def certify(self, lam: float) -> None:
        """Try to add a knot at lam; a failed attempt is not repeated."""
        if lam in self.knots or lam in self.failed:
            return
        found = _davidson(lam, self.subspace)
        if found is not None:
            theta, coeff = found
            if self.subspace.full:
                self.subspace.restart(coeff)
            bound = theta - _certificate_shift(theta)
            if _no_eigenvalue_below(self.kinetic, lam, self.w, bound):
                self.knots[lam] = bound
                return
        self.failed.add(lam)

    def exceeds(self, lam: float, value: float) -> bool:
        """True if lambda_2(H(lam)) > value is proven, certifying a knot at lam if needed."""
        if not self.knots:
            return True  # a one-configuration H has no second eigenvalue
        if self.chord(lam) > value:
            return True
        self.certify(lam)
        return self.chord(lam) > value


def _certified_ground_state(lam: float, subspace: _Subspace,
                            floor: _InterlacingFloor) -> tuple[float, np.ndarray, float, float]:
    """(energy, c, residual, slope) of H = diag(T) + lam W, by Davidson from the subspace.

    The pair must meet RESIDUAL_TOL, recomputed as T c + lam (W c) - theta c,
    and then pass the floor or the Cholesky tier of the module docstring;
    otherwise the dense `ground_state(H)` solves the point. The
    Hellmann-Feynman slope c^T W c reads the W c of that recheck, or, on the
    dense path, one product with W. A pair that misses RESIDUAL_TOL gets one
    more Davidson run started from it alone: a long subspace can hold the
    residual above the tolerance by rounding, or be full. The subspace is
    left to start the next lambda from.
    """
    kinetic, w = subspace.kinetic, subspace.w
    for _ in range(2):
        found = _davidson(lam, subspace)
        if found is None:
            break
        energy, coeff = found
        coeff = coeff / np.linalg.norm(coeff)
        if coeff[0] < 0:
            coeff = -coeff
        image = w @ coeff
        residual = float(np.linalg.norm(kinetic * coeff + lam * image - energy * coeff))
        if residual <= RESIDUAL_TOL:
            delta = _certificate_shift(energy)
            if floor.exceeds(lam, energy + residual + delta) or _no_eigenvalue_below(
                kinetic, lam, w, energy - delta
            ):
                return energy, coeff, residual, coeff @ image
            break
        subspace.restart(coeff)
    energy, coeff, residual = ground_state(_hamiltonian(kinetic, lam, w))
    subspace.restart(coeff)
    return energy, coeff, residual, coeff @ (w @ coeff)


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


class CiProblem(Record, eq=False):
    """H(lambda) = diag(T) + lambda W for one charge, nmax and quadrature resolution.

    T and W are built on first use and then shared, so a scan, an eps2 fit
    and a sum over states on one problem assemble W once; the fit also
    reuses the scan's interlacing knots. T and W are read-only, since every
    scan and the knots proven on them share them: an edited W would leave
    the knots claiming bounds it no longer has. The knots are solver state
    that a scan updates, so threads should not share one problem.
    """

    # the __dict__ slot holds the cached properties
    __slots__ = ("z", "nmax", "points", "__dict__")

    def __init__(self, z: float, nmax: int, points: int = DEFAULT_POINTS):
        self.z = _charge(z)
        self.nmax = check_nmax(nmax)
        self.points = check_points(points)

    @cached_property
    def kinetic(self) -> np.ndarray:
        return _read_only(_kinetic_diagonal(self.nmax))

    @cached_property
    def interaction(self) -> np.ndarray:
        return _read_only(_checked_matrix(_interaction_matrix(self.z, self.nmax, self.points)))

    @cached_property
    def _floor(self) -> _InterlacingFloor:
        return _InterlacingFloor(self.kinetic, self.interaction)

    def _norm_bound(self, lam: float) -> float:
        """max(T) + lambda max_i sum_j |W_ij|, an upper bound on ||H(lambda)||_2."""
        return float(self.kinetic.max()) + lam * float(np.abs(self.interaction).sum(axis=1).max())

    def scan(self, lambdas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(energy, overlap0, residual) over an ascending positive lambda grid.

        Three float64 arrays in grid order: the ground energy, the overlap
        |c_11| with the free-particle ground state and the eigenpair
        residual. Each point's Hellmann-Feynman slope c^T W c comes with its
        pair from `_certified_ground_state`, so the scan forms no product
        with W of its own. Each vector is dropped once its overlap is read,
        so a row holds five floats, and the arrays are returned only once
        the scan has passed the concavity check.
        """
        lams = reals("lambda values", lambdas)
        if not len(lams):
            raise ValidationError("lambda grid must not be empty")
        for x in map(float, lams):
            if not math.isfinite(x) or x <= 0:
                raise ValidationError(f"lambda values must be positive, got {x!r}")
        if np.any(lams[1:] < lams[:-1]):
            raise ValidationError("lambda grid must be sorted ascending")
        top = float(lams[-1])
        bound = self._norm_bound(top)
        if not bound <= _NORM_LIMIT:
            raise ValidationError(
                f"lambda = {top:.6g} is outside the CI solver's range: its bound "
                f"max(T) + lambda max_i sum_j |W_ij| = {bound:.3e} on ||H||_2 exceeds "
                f"RESIDUAL_TOL / (10 eps) = {_NORM_LIMIT:.3e}"
            )
        # the floor is certified at the largest lambda first; its chord from 0 covers the rest.
        # The chord is -inf beyond the last knot, so this certifies top unless a knot lies there
        self._floor.exceeds(top, -math.inf)
        w = self.interaction
        # start from |11>, then from the previous lambda's subspace
        subspace = _Subspace(self.kinetic, w, np.eye(1, len(self.kinetic))[0])
        # lambda = 0 joins as an exact row: |11>, energy T_11 = eps0, slope W_11 = eps1
        lam = np.concatenate(([0.0], lams))
        energy, slope, residual = np.empty_like(lam), np.empty_like(lam), np.empty_like(lam)
        overlap0 = np.empty(len(lams))
        energy[0], slope[0], residual[0] = self.kinetic[0], w[0, 0], 0.0
        for row, x in enumerate(map(float, lams), 1):
            energy[row], c, residual[row], slope[row] = _certified_ground_state(x, subspace, self._floor)
            # |c_11| can exceed 1 by rounding in the normalized eigenvector
            overlap0[row - 1] = min(abs(float(c[0])), 1.0)
        _check_concavity(lam, energy, slope, residual)
        return energy[1:], overlap0, residual[1:]

    def second_order_sum_over_states(self) -> float:
        """In-subspace sum-over-states eps2 = sum_k |W_k0|^2 / (T_0 - T_k)."""
        # only configuration (1,1) has n^2+m^2 = 2, so no vanishing denominators;
        # beyond Z ~ 1e154 W_k0^2 overflows to inf, which the fit's 2% gate refuses
        with np.errstate(over="ignore"):
            return float(np.sum(self.interaction[1:, 0] ** 2 / (self.kinetic[0] - self.kinetic[1:])))

    def second_order_estimate(self) -> float:
        """s-wave-limited second-order coefficient from a small-lambda fit.

        Fits eps_CI(lambda) - eps0 - eps1*lambda against {lambda^2, lambda^3}
        and returns the lambda^2 coefficient. The energies are a `scan` of
        EPS2_FIT_GRID * min(1, 4 / Z), so they pass its concavity check; at
        the grid's top, lambda W does not grow with Z, so its ||H||_2 bound
        stays inside the solver's range. The value is a partial (s-limited)
        sum of the true second-order coefficient: l > 0 pair excitations are
        outside the basis. It must agree with the in-subspace sum-over-states
        value within 2%, else ConvergenceError.
        """
        if self.nmax < EPS2_MIN_NMAX:
            raise ValidationError(f"second-order estimate needs nmax >= {EPS2_MIN_NMAX}, got {self.nmax}")
        # the design stays on the unscaled grid: on the scaled one lstsq's default
        # rcond drops the lambda^3 column from Z ~ 1e14
        scale = min(1.0, 4.0 / self.z)
        lams = EPS2_FIT_GRID * scale
        remainders = self.scan(lams)[0] - self.kinetic[0] - self.interaction[0, 0] * lams
        design = np.column_stack([EPS2_FIT_GRID**2, EPS2_FIT_GRID**3])
        fitted = float(np.linalg.lstsq(design, remainders, rcond=None)[0][0]) / scale / scale
        reference = self.second_order_sum_over_states()
        # eps2 grows as Z^2, so beyond Z ~ 1e154 both overflow and the nan fails here
        if not abs(fitted - reference) <= 0.02 * abs(reference):
            raise ConvergenceError(
                f"second-order fit {fitted:.6e} and sum-over-states {reference:.6e} "
                "disagree beyond 2%"
            )
        return fitted

