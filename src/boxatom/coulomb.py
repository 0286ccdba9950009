"""Coulomb matrix elements between sphere modes, cached and checked.

Between s-wave pair states the multipole expansion of 1/r12 truncates exactly
at the monopole, so every two-particle element reduces to the radial kernel
1/max(r1, r2) and splits over the triangle r2 <= r1 where it is smooth:

    R0(ab;cd) = T(u_a u_c, u_b u_d) + T(u_b u_d, u_a u_c),
    T(F, G)   = int_0^1 dr1 F(r1)/r1 int_0^r1 dr2 G(r2).

Every s-wave integral is computed in one block per nmax <= MAX_NMAX
(`s_wave_block`): with weighted outer profiles O[k] = w1 u_a u_c / r1 and
cumulative inner profiles I[k] = int_0^r1 u_b u_d over mode pairs
k = (a <= c), the central matrix is the row sum of O and the Slater matrix
is O I^T + I O^T. I is filled in batches of 8 outer nodes, each batch from
its own rows of the inner grid (nodes r1 x_j and weights r1 w_j on [0, r1]),
written into the same two 8 x nmax x points scratch arrays, so no
points x points array exists at any time; a row's products do not depend on
the batch it is in, so the batch size changes no bit. The mode profiles
u_n(r) = sqrt(2) sin(n pi r) take one sine per node, and one cosine per node
when nmax > 1; the rest follow from the Chebyshev recurrence
u_{n+1} = 2 cos(pi r) u_n - u_{n-1} (DLMF 18.5(i)). A rounding error made
at step j reaches u_n multiplied by U_{n-j-1}(cos pi r), at most n - j in
size, and one in cos(pi r) by about sin(pi r) U'_{n-1}, at most of order n^2;
so u_n stays within O(n^2 eps) of the sine, measured at most 0.97 n^2 eps
for n <= 48 on the 200- and 512-point grids, far inside the 1e-9 check
below. u_1 is the sine itself, so the nmax-1 block keeps its bits.

Every s-wave integral is also known exactly. With
p = |a-c| and q = a+c, u_a u_c = cos(p pi r) - cos(q pi r), so

    int u_a u_c / r dr = Cin(q pi) - Cin(p pi),
    T(cos m pi r, cos s pi r) = J[m, s]
        = [Si((s+m) pi) + sgn(s-m) Si(|s-m| pi)] / (2 s pi)   (s >= 1),
    J[m, 0] = delta_m0,

and T(u_a u_c, u_b u_d) is a four-term sum of J. Si(j pi) and Cin(j pi)
come from one table of j <= 4 MAX_NMAX, built on first use. A block is
compared with its closed forms elementwise, a band of Slater rows at a time,
so the whole exact matrix is never built; the entry named is the one
np.argmax of the whole gap would name, and a gap beyond 1e-9 raises
ConvergenceError instead of returning an under-resolved block. The returned
values are the quadrature's, so the rule size stays meaningful.

Nothing keeps a block: every `s_wave_block` call builds and checks one,
and the caller holds it as long as it needs it. CI reads the nmax block
once, to gather W, and a block of 11 MB at nmax 48 need not outlive that.
What is kept is `ground_integrals(points)`, the two entries of the nmax-1
block that first order reads, <1/r> and <1/r12> in the (l=0, n=1) mode,
one pair of floats per resolution; so the two first-order systems of a
nuclear-motion comparison build that block once. At worst, two threads
that first ask for `ground_integrals(points)` at once each build the
nmax-1 block, and get the same floats.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, ValidationError, integer
from .quadrature import MAX_POINTS, gauss_legendre

DEFAULT_POINTS = 200
MIN_POINTS = 16
AGREEMENT_TOL = 1e-9
# largest mode number of an s-wave block: 1,176 mode pairs and an 11 MB
# Slater matrix; a block grows as nmax^4
MAX_NMAX = 48
# outer nodes per inner-profile batch in s_wave_block: its scratch memory is
# two 8 x nmax x points arrays, allocated once per block (0.39 MB each at
# nmax 12 and 512 points, 0.61 MB at nmax 48 and 200 points), and no
# points x points array outlives one batch
_BLOCK_ROWS = 8
# Slater matrix rows compared with their closed forms at once by
# s_wave_block: each array of a band holds 64 x 1,176 entries (0.6 MB) at nmax 48
_CHECK_ROWS = 64
# Gauss-Legendre points per panel [j pi, (j+1) pi] of the Si/Cin tables; both
# integrands are entire, so the panel rule is exact to rounding
_PANEL_POINTS = 20


def check_nmax(nmax) -> int:
    """nmax as an int in [1, MAX_NMAX]; anything else is a ValidationError."""
    if not 1 <= integer("nmax", nmax) <= MAX_NMAX:
        raise ValidationError(f"nmax must be an integer in [1, {MAX_NMAX}], got {nmax!r}")
    return int(nmax)


def check_points(points) -> int:
    """points as an int in [MIN_POINTS, MAX_POINTS]; anything else is a ValidationError."""
    if not MIN_POINTS <= integer("quadrature points", points) <= MAX_POINTS:
        raise ValidationError(f"quadrature points must lie in [{MIN_POINTS}, {MAX_POINTS}], got {points}")
    return int(points)


def mode_pair_index(nmax: int) -> np.ndarray:
    """Row of the s-wave Slater matrix for each mode pair: index[a-1, c-1] = index[c-1, a-1].

    Pairs a <= c are numbered in np.triu_indices(nmax) order. The array is
    shared and read-only.
    """
    return _mode_pair_index(check_nmax(nmax))


@lru_cache(maxsize=None)
def _mode_pair_index(nmax: int) -> np.ndarray:
    first, second = np.triu_indices(nmax)
    index = np.empty((nmax, nmax), dtype=np.intp)
    index[first, second] = index[second, first] = np.arange(len(first))
    index.setflags(write=False)
    return index


@lru_cache(maxsize=None)
def _si_cin_pi() -> tuple[np.ndarray, np.ndarray]:
    """Si(j pi) and Cin(j pi) (DLMF 6.2) for j = 0..4 MAX_NMAX, all that the closed forms read.

    Built on first use, never at import. Si(x) = int_0^x sin t / t dt and
    Cin(x) = int_0^x (1 - cos t) / t dt are summed panel by panel over
    [j pi, (j+1) pi]; each panel is summed on its own and the running sum is
    sequential, so an entry does not depend on the table's length.
    """
    rule = gauss_legendre(_PANEL_POINTS)
    t = np.pi * (np.arange(4 * MAX_NMAX)[:, None] + 0.5 * (rule.nodes + 1.0))
    w = 0.5 * np.pi * rule.weights
    # 1 - cos t written as 2 sin^2(t/2), which does not cancel near t = 0
    tables = tuple(
        np.concatenate([[0.0], np.cumsum(np.sum(w * f / t, axis=1))])
        for f in (np.sin(t), 2.0 * np.sin(0.5 * t) ** 2)
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _closed_form_rows(p: np.ndarray, q: np.ndarray):
    """A function of a slice of mode pairs giving those rows of the exact Slater matrix.

    Pair k has u_a u_c = cos(p[k] pi r) - cos(q[k] pi r), that is p = c - a
    and q = a + c for a <= c. Entry [k, k'] is R0 for coordinate-1 pair k and
    coordinate-2 pair k': half[k, k'] + half[k', k], where half[k, k'] =
    J[p, p'] - J[p, q'] - J[q, p'] + J[q, q'] is summed in that order. The
    kernel's columns at p and q are gathered once, so a band of rows costs
    eight row gathers.
    """
    top = int(q.max())
    si, _ = _si_cin_pi()
    m, s = np.ogrid[: top + 1, : top + 1]
    # kernel[m, s] = T(cos m pi r, cos s pi r)
    kernel = (si[s + m] + np.sign(s - m) * si[np.abs(s - m)]) / (2.0 * np.pi * np.maximum(s, 1))
    kernel[:, 0] = m[:, 0] == 0
    at_p, at_q, mirror_p, mirror_q = kernel[:, p], kernel[:, q], kernel.T[:, p], kernel.T[:, q]

    def rows(band: slice) -> np.ndarray:
        pr, qr = p[band], q[band]
        half = at_p[pr] - at_q[pr] - at_p[qr] + at_q[qr]
        # [i, k'] of the mirror is half[k', k] for the band's pair k
        return half + (mirror_p[pr] - mirror_p[qr] - mirror_q[pr] + mirror_q[qr])

    return rows


def _worst_gap(value: np.ndarray, exact_rows, band: int) -> tuple[int, int, float]:
    """(i, j, exact[i, j]) of the entry np.argmax(|value - exact|) names, `band` rows at a time.

    exact_rows(rows) gives those rows of the exact matrix, so the whole of it
    is never built. As with np.argmax, the first NaN wins, and otherwise the
    first of equal gaps.
    """
    columns = value.shape[1]
    worst, found = -1.0, None
    for start in range(0, len(value), band):
        rows = slice(start, start + band)
        exact = exact_rows(rows)
        gap = np.abs(value[rows] - exact)
        k = int(np.argmax(gap))
        if gap.flat[k] > worst or math.isnan(gap.flat[k]):
            worst, found = gap.flat[k], (start + k // columns, k % columns, float(exact.flat[k]))
            if math.isnan(worst):
                break
    return found


def _s_wave_profiles(r: np.ndarray, nmax: int, out: np.ndarray | None = None) -> np.ndarray:
    """u_n(r) = sqrt(2) sin(n pi r), n = 1..nmax, on a new second-to-last axis, by recurrence.

    Written into `out` when it is given, an array of shape
    r.shape[:-1] + (nmax, r.shape[-1]).
    """
    if out is None:
        out = np.empty(r.shape[:-1] + (nmax, r.shape[-1]))
    # in place, so that at most one node-sized array lives beside the profiles
    twice_cos = np.multiply(np.pi, r)
    np.sin(twice_cos, out=out[..., 0, :])
    out[..., 0, :] *= math.sqrt(2.0)
    if nmax == 1:
        return out
    np.cos(twice_cos, out=twice_cos)
    twice_cos *= 2.0
    previous = 0.0
    for n in range(1, nmax):
        np.multiply(twice_cos, out[..., n - 1, :], out=out[..., n, :])
        out[..., n, :] -= previous
        previous = out[..., n - 1, :]
    return out


def _inner_profiles(r1: np.ndarray, w1: np.ndarray, nmax: int) -> np.ndarray:
    """I[k, i] = int_0^r1[i] u_a u_c for mode pairs k = (a <= c), by the rule on [0, r1[i]].

    Every batch of _BLOCK_ROWS outer nodes is written into the same three
    scratch arrays, which are freed on return.
    """
    first, second = np.triu_indices(nmax)
    points = len(r1)
    inner = np.empty((len(first), points))
    u = np.empty((_BLOCK_ROWS, nmax, points))  # (row, mode, node)
    weighted = np.empty_like(u)
    products = np.empty((_BLOCK_ROWS, nmax, nmax))
    for start in range(0, points, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        size = len(r1[rows])
        # these rows of the inner grid are the products that the tests'
        # whole-grid oracles.triangle_grid forms for them, so they have its bits
        _s_wave_profiles(np.outer(r1[rows], r1), nmax, out=u[:size])
        np.multiply(np.outer(r1[rows], w1)[:, None, :], u[:size], out=weighted[:size])
        np.matmul(weighted[:size], u[:size].transpose(0, 2, 1), out=products[:size])
        inner[:, rows] = products[:size, first, second].T
    return inner


def _quadrature_block(points: int, nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Central matrix over modes 1..nmax and Slater matrix over their pairs, by the points-point rule.

    Mode pairs k = (a <= c) are numbered as in mode_pair_index. The outer
    grid is the cached Gauss-Legendre rule mapped to [0, 1]. Nothing is
    cached here, and no array on the points x points inner grid is kept.
    """
    rule = gauss_legendre(points)
    r1 = 0.5 * (rule.nodes + 1.0)
    w1 = 0.5 * rule.weights
    first, second = np.triu_indices(nmax)
    values = _s_wave_profiles(r1, nmax)
    # w1 * u_a * u_c / r1, evaluated left to right in place
    outer = values[first]
    np.multiply(w1, outer, out=outer)
    outer *= values[second]
    outer /= r1
    inner = _inner_profiles(r1, w1, nmax)
    central = np.empty((nmax, nmax))
    central[first, second] = central[second, first] = outer.sum(axis=1)
    # O I^T + I O^T written as A + A^T, which is exactly symmetric
    half = outer @ inner.T
    return central, half + half.T


def _checked(points: int, what, value: float, reference: float) -> float:
    gap = abs(value - reference)
    if not gap <= AGREEMENT_TOL:
        advice = (
            f"try {min(2 * points, MAX_POINTS)} quadrature points"
            if points < MAX_POINTS
            else f"{MAX_POINTS} quadrature points is the most a table supports"
        )
        raise ConvergenceError(
            f"{what} at {points} quadrature points differs from its closed form "
            f"by {gap:.3e} (tolerance {AGREEMENT_TOL:.0e}); {advice}"
        )
    return value


def s_wave_block(nmax: int, points: int = DEFAULT_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Every s-wave integral of modes 1..nmax by the points-point rule, built and checked on each call.

    Returns read-only (C, R): C[a-1, c-1] = int u_a u_c / r dr, and
    R[k, k'] = R0(ab;cd) for mode pairs k = (a, c), k' = (b, d) numbered
    as in mode_pair_index(nmax). Both are quadrature values; every entry
    must lie within 1e-9 of its Si/Cin closed form. Nothing keeps either.
    """
    nmax, points = check_nmax(nmax), check_points(points)
    block = _quadrature_block(points, nmax)
    first, second = np.triu_indices(nmax)
    p, q = second - first, first + second + 2
    _, cin = _si_cin_pi()
    central = np.empty((nmax, nmax))
    central[first, second] = central[second, first] = cin[q] - cin[p]
    modes = list(range(1, nmax + 1))
    pairs = list(zip((first + 1).tolist(), (second + 1).tolist()))
    for what, labels, value, exact_rows in (
        ("central_expectation for modes", modes, block[0], central.__getitem__),
        ("Slater integral for mode pairs", pairs, block[1], _closed_form_rows(p, q)),
    ):
        # the worst entry passes only if every entry does
        i, j, exact = _worst_gap(value, exact_rows, _CHECK_ROWS)
        _checked(points, f"{what} {labels[i]} and {labels[j]} (nmax={nmax} block)",
                 float(value[i, j]), exact)
    for array in block:
        array.setflags(write=False)
    return block


def ground_integrals(points: int = DEFAULT_POINTS) -> tuple[float, float]:
    """(<1/r>, <1/r12>) in the (l=0, n=1) mode: C[0, 0] and R[0, 0] of s_wave_block(1, points), kept.

    These are int u_1^2 / r dr = Cin(2 pi) and R0(11;11), the two
    integrals that first order reads.
    """
    return _ground_integrals(check_points(points))


@lru_cache(maxsize=None)
def _ground_integrals(points: int) -> tuple[float, float]:
    central, slater = s_wave_block(1, points)
    return float(central[0, 0]), float(slater[0, 0])
