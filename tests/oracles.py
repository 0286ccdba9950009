"""Independent oracles used to freeze expected values.

Everything here is deliberately written without the package's production
paths: the entire cosine integral comes from its even series and the sine
integral from its odd series (both summed in 60-digit decimals, so they stay
exact where float terms would cancel), the zeros of j_1 from plain bisection
on its closed form, two-variable integrals from the rule nested on the
whole triangle grid at once (`triangle_grid`, `integrate_triangular` and
`integrate_square`; the package builds its inner grid a batch of rows at a
time), and the symmetrized CI matrix from a brute-force product-basis
projection, whose Coulomb entries are read one by one from the checked
s-wave block (`coulomb.s_wave_block`, its Slater matrix through
`mode_pair_index`). Four exceptions pin the bits of a streamed or banded
production path instead, by doing the same operations on the whole array at
once: `s_wave_block_whole_grid` (the block's batched inner grid),
`closed_forms` (the block check's bands of exact Slater rows),
`interaction_matrix_whole` (the gather of W one mode group at a time) and
`legendre_and_prev` (the Gauss-Legendre recurrence, whose products
(2j-1) x the package forms in blocks of steps, stepping in place).
`cholesky_verdict` is LAPACK's verdict on a whole matrix, the reference for
the CI's tiled in-place factorization; `concavity_failure` is the CI scan's
all-pairs concavity check on the whole matrix at once, the reference for its
check a block of rows at a time. `curve_columns` is the energy curve as
three lists grown one row at a time, the reference for the curve's float64
columns. `json_document` is the CLI's JSON output as the standard library's
encoder prints a document built whole. `NOT_NUMBERS` lists values that no
entry point may take as a number, though float() takes some of them.
"""

import itertools
import json
import math
from decimal import Decimal, localcontext

import numpy as np

from boxatom import coulomb, gauss_legendre
from boxatom.errors import ValidationError

# by test id: booleans, a numeric string and bytes, a numpy complex scalar
# (float() takes each of them), None, and an integer beyond the float range
NOT_NUMBERS = {"true": True, "numpy-true": np.True_, "text": "0.5", "bytes": b"1",
               "numpy-complex": np.complex128(0.5 + 1j), "none": None, "huge": 10**400}


def cin_series(x: float) -> float:
    """Cin(x) = sum_{k>=1} (-1)^(k+1) x^(2k) / (2k (2k)!), summed to convergence.

    The terms peak near e^x / sqrt(2 pi x), so the sum runs in 60-digit
    decimals from the exact value of x; the result is then good to a float
    ulp for every x up to about 80.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(x)
        total = Decimal(0)
        term = Decimal(1)  # x^(2k) / (2k)! tracked incrementally
        for k in range(1, 400):
            term = term * x * x / ((2 * k - 1) * (2 * k))
            contribution = (-1) ** (k + 1) * term / (2 * k)
            total += contribution
            if abs(contribution) < Decimal("1e-30") * max(1, abs(total)):
                break
        return float(total)


def si_series(x: float) -> float:
    """Si(x) = sum_{k>=0} (-1)^k x^(2k+1) / ((2k+1) (2k+1)!), summed to convergence.

    Summed in 60-digit decimals for the same reason as cin_series.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(x)
        total = Decimal(0)
        term = x  # x^(2k+1) / (2k+1)! tracked incrementally
        for k in range(400):
            contribution = (-1) ** k * term / (2 * k + 1)
            total += contribution
            if abs(contribution) < Decimal("1e-30") * max(1, abs(total)):
                break
            term = term * x * x / ((2 * k + 2) * (2 * k + 3))
        return float(total)


def triangle_grid(rule) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Outer nodes/weights on [0, 1] and nested inner grids on [0, r1]."""
    r1 = 0.5 * (rule.nodes + 1.0)
    w1 = 0.5 * rule.weights
    # inner interval [0, r1[i]] reuses the same mapped rule, scaled per row
    return r1, w1, np.outer(r1, r1), np.outer(r1, w1)


def integrate_triangular(f2, rule) -> float:
    """Integrate a vectorized f2(r1, r2) over the triangle 0 <= r2 <= r1 <= 1."""
    r1, w1, r2, w2 = triangle_grid(rule)
    inner = np.sum(w2 * f2(r1[:, None], r2), axis=1)
    return float(np.dot(w1, inner))


def integrate_square(f2, rule) -> float:
    """Symmetric completion of the triangular rule over the unit square."""
    return integrate_triangular(f2, rule) + integrate_triangular(lambda r1, r2: f2(r2, r1), rule)


def s_wave_ground_is_degenerate(weights, rel_tol: float) -> bool:
    """Brute force: does another s-wave occupation lie within rel_tol of the ground one?

    An occupation gives each particle a mode n_i >= 1 and has energy
    sum_i w_i n_i^2 (units pi^2/2, w_i = 1/m'_i). Every occupation with n_i in
    {1, 2}, not all 1, is tried: raising one particle to n = 2 is the
    cheapest excitation, so an occupation with some n_i >= 3 lies higher
    than one of these.
    """
    ground = math.fsum(weights)
    for ns in itertools.product((1, 2), repeat=len(weights)):
        energy = math.fsum(w * n * n for w, n in zip(weights, ns))
        if 2 in ns and abs(energy - ground) <= rel_tol * ground:
            return True
    return False


def legendre_and_prev(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n, P_{n-1}) at x, each step a new array; the package forms (2j-1) x in blocks and steps in place."""
    p, pm1 = np.ones_like(x), np.zeros_like(x)
    for j in range(1, n + 1):
        p, pm1 = ((2 * j - 1) * x * p - (j - 1) * pm1) / j, p
    return p, pm1


def bisect(f, a: float, b: float, tol: float = 1e-13) -> float:
    """Plain bisection; f(a) and f(b) must have opposite signs."""
    fa, fb = f(a), f(b)
    assert fa * fb < 0, "bisection bracket must change sign"
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def j1_closed(x: float) -> float:
    return math.sin(x) / (x * x) - math.cos(x) / x


def product_basis_hamiltonian(nmax: int, z: float, lam: float) -> np.ndarray:
    """Symmetric-subspace projection of the full product-basis Hamiltonian.

    Builds H on the nmax^2 distinguishable-product basis u_n(r1) u_m(r2) and
    projects with the symmetrized combinations; independently derives the
    symmetrization factors the ci module hard-codes.
    """
    prod = [(n, m) for n in range(1, nmax + 1) for m in range(1, nmax + 1)]
    central_block, block = coulomb.s_wave_block(nmax)
    index = coulomb.mode_pair_index(nmax)

    def central(n, p):
        return central_block[n - 1, p - 1]

    def slater(a, c, b, d):
        # R0(ab;cd): coordinate 1 couples a with c, coordinate 2 b with d
        return block[index[a - 1, c - 1], index[b - 1, d - 1]]

    size = len(prod)
    h = np.zeros((size, size))
    for i, (n, m) in enumerate(prod):
        for j, (p, q) in enumerate(prod):
            kinetic = (n * n + m * m) * math.pi**2 / 2.0 if (n, m) == (p, q) else 0.0
            attraction = (central(n, p) if m == q else 0.0) + (central(m, q) if n == p else 0.0)
            h[i, j] = kinetic + lam * (-z * attraction + slater(n, p, m, q))

    sym = [(n, m) for n in range(1, nmax + 1) for m in range(n, nmax + 1)]
    proj = np.zeros((len(sym), size))
    for k, (n, m) in enumerate(sym):
        weight = 0.5 if n == m else 1.0 / math.sqrt(2.0)
        proj[k, prod.index((n, m))] += weight
        proj[k, prod.index((m, n))] += weight
    return proj @ h @ proj.T


def s_wave_block_whole_grid(points: int, nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """The s-wave block of the points-point rule, on the whole triangle grid in one batch.

    The same operations as `coulomb._quadrature_block` in the same order,
    but the inner grid comes from `triangle_grid` as one points x points
    array and every row is in one batched product. A streamed block equals
    this one bit for bit only if its per-row inner grid and batching change
    no rounding.
    """
    r1, w1, r2, w2 = triangle_grid(gauss_legendre(points))
    first, second = np.triu_indices(nmax)
    values = coulomb._s_wave_profiles(r1, nmax)
    outer = w1 * values[first] * values[second] / r1
    u = coulomb._s_wave_profiles(r2, nmax)  # (mode, row, node)
    products = (w2 * u).transpose(1, 0, 2) @ u.transpose(1, 2, 0)
    inner = np.empty_like(outer)
    inner[:, :] = products[:, first, second].T
    central = np.empty((nmax, nmax))
    central[first, second] = central[second, first] = outer.sum(axis=1)
    half = outer @ inner.T
    return central, half + half.T


def closed_forms(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact central integrals and the whole exact Slater matrix for s-wave mode pairs.

    Pair k has u_a u_c = cos(p[k] pi r) - cos(q[k] pi r). The Slater matrix
    comes from four whole-matrix gathers of the kernel, the order of
    operations that `coulomb._closed_form_rows` keeps band by band.
    """
    top = int(q.max())
    si, cin = coulomb._si_cin_pi()
    m, s = np.ogrid[: top + 1, : top + 1]
    # kernel[m, s] = T(cos m pi r, cos s pi r)
    kernel = (si[s + m] + np.sign(s - m) * si[np.abs(s - m)]) / (2.0 * np.pi * np.maximum(s, 1))
    kernel[:, 0] = m[:, 0] == 0
    half = kernel[np.ix_(p, p)] - kernel[np.ix_(p, q)] - kernel[np.ix_(q, p)] + kernel[np.ix_(q, q)]
    return cin[q] - cin[p], half + half.T


def interaction_matrix_whole(z: float, nmax: int) -> np.ndarray:
    """W gathered for the whole upper triangle at once, as `CiProblem.interaction` does one mode group at a time."""
    central, slater = coulomb.s_wave_block(nmax)
    pair = coulomb.mode_pair_index(nmax)
    # 0-based modes of each configuration {n, m}, ordered by n and then m
    config = np.array([(n, m) for n in range(nmax) for m in range(n, nmax)])
    norm = np.where(config[:, 0] == config[:, 1], 0.5, 1.0 / math.sqrt(2.0))
    i, j = np.triu_indices(len(config))
    n, m = config[i].T
    p, q = config[j].T
    pre = 2.0 * norm[i] * norm[j]
    att = (
        np.where(m == q, central[n, p], 0.0)
        + np.where(n == p, central[m, q], 0.0)
        + np.where(m == p, central[n, q], 0.0)
        + np.where(n == q, central[m, p], 0.0)
    )
    rep = slater[pair[n, p], pair[m, q]] + slater[pair[n, q], pair[m, p]]
    w = np.empty((len(config), len(config)))
    w[i, j] = w[j, i] = pre * (-float(z) * att + rep)
    return w


def cholesky_verdict(a: np.ndarray) -> bool:
    """True if LAPACK's Cholesky factors the whole of `a` at once (it reads the lower triangle)."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def concavity_failure(lam, energy, slope, residual, rtol: float) -> str | None:
    """None if every energy lies on or below every row's tangent, else the failure message.

    The same elementwise test as `ci._check_concavity`, on the whole
    rows x rows matrix at once: the message names the first failing pair in
    row-major order, row i's tangent and column j's energy.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        shift = slope[:, None] * (lam[None, :] - lam[:, None])
        excess = energy[None, :] - energy[:, None] - shift
        tol = residual[:, None] + residual[None, :] + rtol * (
            np.abs(energy[:, None]) + np.abs(energy[None, :]) + np.abs(shift)
        )
    failing = np.argwhere(~(excess <= tol))
    if not len(failing):
        return None
    i, j = failing[0]
    return (f"CI energies are not concave in lambda: E({lam[j]:.6g}) = {energy[j]:.10g} "
            f"lies {excess[i, j]:.3e} above the tangent at lambda = {lam[i]:.6g}")


def curve_columns(system, coeffs, lambdas) -> list:
    """The energy curve's lambda, rc_bohr and energy lists, each row computed, checked and appended in turn."""
    columns = [[], [], []]
    for lam in lambdas:
        lam = float(lam)
        if not math.isfinite(lam) or lam <= 0:
            raise ValidationError(f"lambda values must be positive, got {lam!r}")
        try:
            energy = coeffs.eps0 / lam**2 + coeffs.eps1 / lam
        except (ZeroDivisionError, OverflowError):  # lam**2 underflows to 0 or overflows
            energy = coeffs.eps0 / lam / lam + coeffs.eps1 / lam
        rc_bohr = lam * system.length_scale_a
        if not all(math.isfinite(x) for x in (energy, energy * system.energy_prefactor, rc_bohr)):
            raise ValidationError(f"the energy at lambda={lam!r} is outside the float range")
        for column, value in zip(columns, (lam, rc_bohr, energy)):
            column.append(value)
    return columns


def json_document(command: str, system: str, quadrature_points: int, report) -> str:
    """`json.dumps(doc, indent=2)` of a CLI report, its whole document built first.

    The run head, the three arguments, comes first, then the report's metadata, then its rows (one
    object per row keyed by the columns) and its sections, nested the same
    way. Floats are cut to the 10 significant digits the CSV prints.
    """
    def value(v):
        return float(f"{v:.10g}") if isinstance(v, float) else v

    def obj(rep):
        doc = {key: value(v) for key, v in rep.meta}
        if rep.columns:
            doc[rep.rows_name] = [{c: value(v) for c, v in zip(rep.columns, row)} for row in rep.rows]
        for name, section in rep.sections.items():
            doc[name] = obj(section)
        return doc

    head = {"command": command, "system": system, "quadrature_points": quadrature_points}
    return json.dumps(head | obj(report), indent=2) + "\n"
