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
is O I^T + I O^T. A single integral is the entry of the block whose nmax is
its largest mode number, never of a larger block, so its value does not
depend on what a shared table computed before.

Every s-wave integral is also known exactly. With
p = |a-c| and q = a+c, u_a u_c = cos(p pi r) - cos(q pi r), so

    int u_a u_c / r dr = Cin(q pi) - Cin(p pi),
    T(cos m pi r, cos s pi r) = J[m, s]
        = [Si((s+m) pi) + sgn(s-m) Si(|s-m| pi)] / (2 s pi)   (s >= 1),
    J[m, 0] = delta_m0,

and T(u_a u_c, u_b u_d) is a four-term sum of J. A block is compared with
its closed forms elementwise; a gap beyond 1e-9 raises ConvergenceError
instead of caching an under-resolved block. The returned and cached values
are the quadrature's, so the rule size stays meaningful. Every integral is
between s-wave modes (l = 0); any other mode raises UnsupportedModeError.
The block cache uses atomic insert-if-absent, so a table can be shared
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, UnsupportedModeError, ValidationError
from .quadrature import MAX_POINTS, gauss_legendre, triangle_grid
from .sphere import ModeIndex, build_radial_mode

DEFAULT_POINTS = 200
MIN_POINTS = 16
AGREEMENT_TOL = 1e-9
# largest mode number of an s-wave block: 1,176 mode pairs and an 11 MB
# Slater matrix; a block grows as nmax^4
MAX_NMAX = 48
# outer nodes per inner-profile batch in s_wave_block: its scratch memory is
# a few 64 x nmax x points arrays, never a (pairs x points x points) tensor
_BLOCK_ROWS = 64
# Gauss-Legendre points per panel [j pi, (j+1) pi] of the Si/Cin tables; both
# integrands are entire, so the panel rule is exact to rounding
_PANEL_POINTS = 20


@dataclass(frozen=True)
class PairIntegralKey:
    """Slater integral label: coordinate-1 couples bra[0]/ket[0], coordinate-2 bra[1]/ket[1]."""

    bra: tuple[ModeIndex, ModeIndex]
    ket: tuple[ModeIndex, ModeIndex]

    def __post_init__(self):
        for side, pair in (("bra", self.bra), ("ket", self.ket)):
            if len(pair) != 2 or not all(isinstance(m, ModeIndex) for m in pair):
                raise ValidationError(f"{side} must be a pair of ModeIndex, got {pair!r}")


def check_nmax(nmax) -> int:
    """nmax as an int in [1, MAX_NMAX]; anything else is a ValidationError."""
    if isinstance(nmax, bool) or not isinstance(nmax, (int, np.integer)) or not 1 <= nmax <= MAX_NMAX:
        raise ValidationError(f"nmax must be an integer in [1, {MAX_NMAX}], got {nmax!r}")
    return int(nmax)


@lru_cache(maxsize=None)
def mode_pair_index(nmax: int) -> np.ndarray:
    """Row of the s-wave Slater matrix for each mode pair: index[a-1, c-1] = index[c-1, a-1].

    Pairs a <= c are numbered in np.triu_indices(nmax) order. The array is
    shared and read-only.
    """
    nmax = check_nmax(nmax)
    first, second = np.triu_indices(nmax)
    index = np.empty((nmax, nmax), dtype=np.intp)
    index[first, second] = index[second, first] = np.arange(len(first))
    index.setflags(write=False)
    return index


@lru_cache(maxsize=None)
def _si_cin_table(panels: int) -> tuple[np.ndarray, np.ndarray]:
    # Si(x) = int_0^x sin t / t dt and Cin(x) = int_0^x (1 - cos t) / t dt,
    # summed panel by panel; each panel is summed on its own and the running
    # sum is sequential, so an entry does not depend on the table's length
    rule = gauss_legendre(_PANEL_POINTS)
    t = np.pi * (np.arange(panels)[:, None] + 0.5 * (rule.nodes + 1.0))
    w = 0.5 * np.pi * rule.weights
    # 1 - cos t written as 2 sin^2(t/2), which does not cancel near t = 0
    tables = tuple(
        np.concatenate([[0.0], np.cumsum(np.sum(w * f / t, axis=1))])
        for f in (np.sin(t), 2.0 * np.sin(0.5 * t) ** 2)
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _si_cin_pi(jmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Si(j pi) and Cin(j pi) (DLMF 6.2) for j = 0..jmax at least.

    Built on first use, never at import; a larger jmax builds a longer
    table, at least 64 panels and a power of two, so few are ever built.
    """
    return _si_cin_table(max(64, 1 << (int(jmax) - 1).bit_length()))


def _closed_forms(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact central integrals and Slater matrix for s-wave mode pairs.

    Pair k has u_a u_c = cos(p[k] pi r) - cos(q[k] pi r), that is p = c - a
    and q = a + c for a <= c. Returns the central integral of each pair and
    R[k, k'] = R0 for coordinate-1 pair k and coordinate-2 pair k'.
    """
    top = int(q.max())
    si, cin = _si_cin_pi(2 * top)
    m, s = np.ogrid[: top + 1, : top + 1]
    # kernel[m, s] = T(cos m pi r, cos s pi r)
    kernel = (si[s + m] + np.sign(s - m) * si[np.abs(s - m)]) / (2.0 * np.pi * np.maximum(s, 1))
    kernel[:, 0] = m[:, 0] == 0
    half = kernel[np.ix_(p, p)] - kernel[np.ix_(p, q)] - kernel[np.ix_(q, p)] + kernel[np.ix_(q, q)]
    return cin[q] - cin[p], half + half.T


class _Grid:
    """Triangle quadrature grid; it caches nothing."""

    def __init__(self, points: int):
        rule = gauss_legendre(points)
        self.r1, self.w1, self.r2, self.w2 = triangle_grid(rule)

    def s_wave_block(self, nmax: int) -> tuple[np.ndarray, np.ndarray]:
        """Central matrix over modes 1..nmax and Slater matrix over their pairs.

        Mode pairs k = (a <= c) are numbered as in mode_pair_index. Nothing is
        cached here, and no per-mode array on the n x n inner grid is kept.
        """
        modes = [build_radial_mode(ModeIndex(0, n)) for n in range(1, nmax + 1)]
        first, second = np.triu_indices(nmax)
        values = np.stack([u(self.r1) for u in modes])
        outer = self.w1 * values[first] * values[second] / self.r1
        inner = np.empty_like(outer)
        for start in range(0, len(self.r1), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            u = np.stack([mode(self.r2[rows]) for mode in modes], axis=1)  # (rows, mode, node)
            products = (self.w2[rows, None, :] * u) @ u.transpose(0, 2, 1)
            inner[:, rows] = products[:, first, second].T
        central = np.empty((nmax, nmax))
        central[first, second] = central[second, first] = outer.sum(axis=1)
        # O I^T + I O^T written as A + A^T, which is exactly symmetric
        half = outer @ inner.T
        return central, half + half.T


class CoulombTable:
    """Cached s-wave Coulomb integrals at a fixed quadrature resolution."""

    def __init__(self, points: int = DEFAULT_POINTS):
        if isinstance(points, bool) or not isinstance(points, (int, np.integer)):
            raise ValidationError(f"quadrature points must be an integer, got {points!r}")
        if not MIN_POINTS <= points <= MAX_POINTS:
            raise ValidationError(
                f"quadrature points must lie in [{MIN_POINTS}, {MAX_POINTS}], got {points}"
            )
        self.points = int(points)
        self._grid = _Grid(self.points)
        self._blocks: dict = {}

    def _checked(self, what, value: float, reference: float) -> float:
        gap = abs(value - reference)
        if not gap <= AGREEMENT_TOL:
            advice = (
                f"try {min(2 * self.points, MAX_POINTS)} quadrature points"
                if self.points < MAX_POINTS
                else f"{MAX_POINTS} quadrature points is the most a table supports"
            )
            raise ConvergenceError(
                f"{what} at {self.points} quadrature points differs from its closed form "
                f"by {gap:.3e} (tolerance {AGREEMENT_TOL:.0e}); {advice}"
            )
        return value

    def s_wave_block(self, nmax: int) -> tuple[np.ndarray, np.ndarray]:
        """Every s-wave integral of modes 1..nmax, checked against closed forms and cached.

        Returns read-only (C, R): C[a-1, c-1] = int u_a u_c / r dr, and
        R[k, k'] = R0(ab;cd) for mode pairs k = (a, c), k' = (b, d) numbered
        as in mode_pair_index(nmax). Both are the table's quadrature values;
        every entry must lie within 1e-9 of its Si/Cin closed form.
        """
        nmax = check_nmax(nmax)
        got = self._blocks.get(nmax)
        if got is None:
            block = self._grid.s_wave_block(nmax)
            first, second = np.triu_indices(nmax)
            exact_central, exact_slater = _closed_forms(second - first, first + second + 2)
            central = np.empty((nmax, nmax))
            central[first, second] = central[second, first] = exact_central
            modes = list(range(1, nmax + 1))
            pairs = list(zip((first + 1).tolist(), (second + 1).tolist()))
            for what, labels, value, exact in (
                ("central_expectation for modes", modes, block[0], central),
                ("slater_radial for mode pairs", pairs, block[1], exact_slater),
            ):
                # the worst entry passes only if every entry does
                i, j = np.unravel_index(np.argmax(np.abs(value - exact)), value.shape)
                self._checked(f"{what} {labels[i]} and {labels[j]} (nmax={nmax} block)",
                              float(value[i, j]), float(exact[i, j]))
            for array in block:
                array.setflags(write=False)
            got = self._blocks.setdefault(nmax, block)
        return got

    def _block_for(self, what: str, modes: tuple) -> tuple[np.ndarray, np.ndarray]:
        # the one s-wave rule: the block whose nmax is the largest mode number
        for m in modes:
            if not isinstance(m, ModeIndex):
                raise ValidationError(f"{what} takes ModeIndex arguments, got {m!r}")
            if m.l != 0:
                raise UnsupportedModeError(f"{what} is restricted to s-wave modes (l = 0); got {m}")
        return self.s_wave_block(max(m.n for m in modes))

    def central_expectation(self, a: ModeIndex, b: ModeIndex) -> float:
        """One-particle matrix element int u_a u_b / r dr between s-wave modes."""
        central, _ = self._block_for("central_expectation", (a, b))
        return float(central[a.n - 1, b.n - 1])

    def pair_expectation(self, a: ModeIndex, b: ModeIndex) -> float:
        """Ground-type repulsion element: u_a^2 and u_b^2 against 1/max(r1, r2)."""
        return self.slater_radial(PairIntegralKey(bra=(a, b), ket=(a, b)))

    def slater_radial(self, key: PairIntegralKey) -> float:
        """Monopole Slater integral R0(ab;cd) for s-wave modes."""
        if not isinstance(key, PairIntegralKey):
            raise ValidationError("slater_radial takes a PairIntegralKey")
        (a, b), (c, d) = key.bra, key.ket
        # validates nmax before the index is built
        central, slater = self._block_for("slater_radial", (a, b, c, d))
        index = mode_pair_index(len(central))
        return float(slater[index[a.n - 1, c.n - 1], index[b.n - 1, d.n - 1]])


@lru_cache(maxsize=8)
def get_table(points: int = DEFAULT_POINTS) -> CoulombTable:
    """Process-wide shared table for the given resolution."""
    return CoulombTable(points)
