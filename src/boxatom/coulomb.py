"""Coulomb matrix elements between sphere modes, cached and self-checked.

Between s-wave pair states the multipole expansion of 1/r12 truncates exactly
at the monopole, so every two-particle element reduces to the radial kernel
1/max(r1, r2) and splits over the triangle r2 <= r1 where it is smooth:

    R0(ab;cd) = T(u_a u_c, u_b u_d) + T(u_b u_d, u_a u_c),
    T(F, G)   = int_0^1 dr1 F(r1)/r1 int_0^r1 dr2 G(r2).

Single integrals (`central_expectation`, `slater_radial`) are evaluated one
at a time. The CI matrix instead takes every s-wave integral it needs for
modes 1..nmax from one block per nmax (`s_wave_block`): with weighted outer
profiles O[k] = w1 u_a u_c / r1 and cumulative inner profiles
I[k] = int_0^r1 u_b u_d over mode pairs k = (a <= c), the central matrix is
the row sum of O and the Slater matrix is O I^T + I O^T.

Every integral, single or in a block, is evaluated at the table's rule size
n and again at 2n, and a block is compared elementwise; disagreement beyond
1e-9 raises ConvergenceError instead of caching an under-resolved number.
Caches use atomic insert-if-absent, so a table can be shared across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, UnsupportedModeError, ValidationError
from .quadrature import gauss_legendre, triangle_grid
from .sphere import ModeIndex, build_radial_mode

DEFAULT_POINTS = 200
MIN_POINTS = 16
MAX_POINTS = 512
AGREEMENT_TOL = 1e-9
# outer nodes per inner-profile batch in s_wave_block: its scratch memory is
# a few 64 x nmax x points arrays, never a (pairs x points x points) tensor
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class PairIntegralKey:
    """Slater integral label: coordinate-1 couples bra[0]/ket[0], coordinate-2 bra[1]/ket[1]."""

    bra: tuple[ModeIndex, ModeIndex]
    ket: tuple[ModeIndex, ModeIndex]
    multipole: int = 0

    def __post_init__(self):
        for side, pair in (("bra", self.bra), ("ket", self.ket)):
            if len(pair) != 2 or not all(isinstance(m, ModeIndex) for m in pair):
                raise ValidationError(f"{side} must be a pair of ModeIndex, got {pair!r}")
        if isinstance(self.multipole, bool) or not isinstance(self.multipole, int) or self.multipole < 0:
            raise ValidationError(f"multipole must be a nonnegative integer, got {self.multipole!r}")


def mode_pair_index(nmax: int) -> np.ndarray:
    """Row of the s-wave Slater matrix for each mode pair: index[a-1, c-1] = index[c-1, a-1].

    Pairs a <= c are numbered in np.triu_indices(nmax) order.
    """
    first, second = np.triu_indices(nmax)
    index = np.empty((nmax, nmax), dtype=np.intp)
    index[first, second] = index[second, first] = np.arange(len(first))
    return index


def _require_s_wave(*modes: ModeIndex) -> None:
    for m in modes:
        if m.l != 0:
            raise UnsupportedModeError(
                f"two-particle integrals are restricted to s-wave modes (l = 0); got {m}"
            )


class _Grid:
    """Triangle quadrature grid with per-mode and per-pair node-value caches."""

    def __init__(self, points: int):
        rule = gauss_legendre(points)
        self.r1, self.w1, self.r2, self.w2 = triangle_grid(rule)
        self._outer: dict[ModeIndex, np.ndarray] = {}
        self._inner: dict[ModeIndex, np.ndarray] = {}
        self._pair_outer: dict[tuple[ModeIndex, ModeIndex], np.ndarray] = {}
        self._pair_inner: dict[tuple[ModeIndex, ModeIndex], np.ndarray] = {}

    def _mode_outer(self, mode: ModeIndex) -> np.ndarray:
        got = self._outer.get(mode)
        if got is None:
            got = self._outer.setdefault(mode, build_radial_mode(mode)(self.r1))
        return got

    def _mode_inner(self, mode: ModeIndex) -> np.ndarray:
        got = self._inner.get(mode)
        if got is None:
            got = self._inner.setdefault(mode, build_radial_mode(mode)(self.r2))
        return got

    def pair_outer(self, pair: tuple[ModeIndex, ModeIndex]) -> np.ndarray:
        # weighted outer profile w1 * u_a * u_c / r1, ready for the dot product
        got = self._pair_outer.get(pair)
        if got is None:
            vals = self.w1 * self._mode_outer(pair[0]) * self._mode_outer(pair[1]) / self.r1
            got = self._pair_outer.setdefault(pair, vals)
        return got

    def pair_inner(self, pair: tuple[ModeIndex, ModeIndex]) -> np.ndarray:
        # cumulative inner integrals int_0^{r1_i} u_b u_d dr2 for every outer node
        got = self._pair_inner.get(pair)
        if got is None:
            vals = np.sum(self.w2 * self._mode_inner(pair[0]) * self._mode_inner(pair[1]), axis=1)
            got = self._pair_inner.setdefault(pair, vals)
        return got

    def central(self, pair: tuple[ModeIndex, ModeIndex]) -> float:
        # int u_a u_b / r dr; the pair_outer profile already carries weights and 1/r
        return float(np.sum(self.pair_outer(pair)))

    def slater(self, pair1: tuple[ModeIndex, ModeIndex], pair2: tuple[ModeIndex, ModeIndex]) -> float:
        return float(
            np.dot(self.pair_outer(pair1), self.pair_inner(pair2))
            + np.dot(self.pair_outer(pair2), self.pair_inner(pair1))
        )

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
        self._grids = (_Grid(self.points), _Grid(2 * self.points))
        self._central: dict = {}
        self._slater: dict = {}
        self._blocks: dict = {}

    def _checked(self, what, coarse: float, fine: float) -> float:
        if abs(coarse - fine) > AGREEMENT_TOL:
            raise ConvergenceError(
                f"{what} disagrees between {self.points} and {2 * self.points} quadrature "
                f"points by {abs(coarse - fine):.3e} (tolerance {AGREEMENT_TOL:.0e}); "
                f"increase the quadrature resolution"
            )
        return coarse

    def s_wave_block(self, nmax: int) -> tuple[np.ndarray, np.ndarray]:
        """Every s-wave integral of modes 1..nmax, checked at n against 2n and cached.

        Returns read-only (C, R): C[a-1, c-1] = int u_a u_c / r dr, and
        R[k, k'] = R0(ab;cd) for mode pairs k = (a, c), k' = (b, d) numbered
        as in mode_pair_index(nmax).
        """
        if isinstance(nmax, bool) or not isinstance(nmax, (int, np.integer)) or nmax < 1:
            raise ValidationError(f"nmax must be a positive integer, got {nmax!r}")
        nmax = int(nmax)
        got = self._blocks.get(nmax)
        if got is None:
            coarse, fine = (grid.s_wave_block(nmax) for grid in self._grids)
            modes = list(range(1, nmax + 1))
            first, second = np.triu_indices(nmax)
            pairs = list(zip((first + 1).tolist(), (second + 1).tolist()))
            for what, labels, low, high in (
                ("central_expectation for modes", modes, coarse[0], fine[0]),
                ("slater_radial for mode pairs", pairs, coarse[1], fine[1]),
            ):
                # the worst entry passes only if every entry does
                i, j = np.unravel_index(np.argmax(np.abs(low - high)), low.shape)
                self._checked(f"{what} {labels[i]} and {labels[j]} (nmax={nmax} block)",
                              float(low[i, j]), float(high[i, j]))
            for array in coarse:
                array.setflags(write=False)
            got = self._blocks.setdefault(nmax, coarse)
        return got

    def central_expectation(self, a: ModeIndex, b: ModeIndex) -> float:
        """One-particle matrix element int u_a u_b / r dr; exact 0 when l_a != l_b."""
        if not isinstance(a, ModeIndex) or not isinstance(b, ModeIndex):
            raise ValidationError("central_expectation takes two ModeIndex arguments")
        if a.l != b.l:
            return 0.0  # angular orthogonality, not an error
        key = (min(a, b), max(a, b))
        got = self._central.get(key)
        if got is None:
            value = self._checked(
                f"central_expectation{key}",
                self._grids[0].central(key),
                self._grids[1].central(key),
            )
            got = self._central.setdefault(key, value)
        return got

    def pair_expectation(self, a: ModeIndex, b: ModeIndex) -> float:
        """Ground-type repulsion element: u_a^2 and u_b^2 against 1/max(r1, r2)."""
        if not isinstance(a, ModeIndex) or not isinstance(b, ModeIndex):
            raise ValidationError("pair_expectation takes two ModeIndex arguments")
        _require_s_wave(a, b)
        return self.slater_radial(PairIntegralKey(bra=(a, b), ket=(a, b)))

    def slater_radial(self, key: PairIntegralKey) -> float:
        """Monopole Slater integral R0(ab;cd) for s-wave modes."""
        if not isinstance(key, PairIntegralKey):
            raise ValidationError("slater_radial takes a PairIntegralKey")
        if key.multipole != 0:
            raise UnsupportedModeError(
                f"only the multipole-0 channel is implemented; got multipole={key.multipole}"
            )
        _require_s_wave(*key.bra, *key.ket)
        pair1 = (min(key.bra[0], key.ket[0]), max(key.bra[0], key.ket[0]))
        pair2 = (min(key.bra[1], key.ket[1]), max(key.bra[1], key.ket[1]))
        canon = (min(pair1, pair2), max(pair1, pair2))
        got = self._slater.get(canon)
        if got is None:
            value = self._checked(
                f"slater_radial{canon}",
                self._grids[0].slater(*canon),
                self._grids[1].slater(*canon),
            )
            got = self._slater.setdefault(canon, value)
        return got


@lru_cache(maxsize=8)
def get_table(points: int = DEFAULT_POINTS) -> CoulombTable:
    """Process-wide shared table for the given resolution."""
    return CoulombTable(points)
