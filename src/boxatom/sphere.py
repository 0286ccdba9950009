"""Radial eigenstates of a unit sphere with an impenetrable wall, for l <= 1.

A particle of scaled mass m' confined to r < 1 with a Dirichlet wall has
eigenfunctions (spherical harmonic) x j_l(x_{l,n} r)/r and energies
x_{l,n}^2 / (2 m'), where x_{l,n} is the nth positive zero of the spherical
Bessel function j_l. Everything here works with the radial factor

    u_{l,n}(r) = norm * r * j_l(x_{l,n} r),  int_0^1 u^2 dr = 1,

so downstream Coulomb integrals are one-dimensional in each radial variable.
Only l = 0 and l = 1 are served, with j_0(x) = sin x / x and
j_1(x) = sin x / x^2 - cos x / x (DLMF 10.49.3). The zeros of j_0 are n pi,
so u_{0,n}(r) = sqrt(2) sin(n pi r); those of j_1 are the roots of
tan x = x, one in each (n pi, (n + 1/2) pi). Any l >= 2 raises
UnsupportedModeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedModeError, ValidationError


@dataclass(frozen=True, order=True)
class ModeIndex:
    """Angular momentum l >= 0 and radial quantum number n >= 1."""

    l: int
    n: int

    def __post_init__(self):
        for name, value, low in (("l", self.l, 0), ("n", self.n, 1)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"mode {name} must be an integer, got {value!r}")
            if value < low:
                raise ValidationError(f"mode {name} must be >= {low}, got {value}")


def _check_order(l) -> None:
    if isinstance(l, bool) or not isinstance(l, (int, np.integer)) or l < 0:
        raise ValidationError(f"order l must be a nonnegative integer, got {l!r}")
    if l > 1:
        raise UnsupportedModeError(f"sphere modes are served for l <= 1 only; got l = {l}")


def _j1_series(x: np.ndarray) -> np.ndarray:
    # j_1(x) = x/3 sum_k (-x^2/2)^k / (k! 5 7 ... (2k+3)); for |x| < 1 the
    # first term left out, k = 9, is below 1.2e-18 of the sum
    z = -0.5 * x * x
    term = acc = np.ones_like(x)
    for k in range(1, 9):
        term = term * z / (k * (2 * k + 3))
        acc = acc + term
    return x / 3.0 * acc


def spherical_jl(l: int, x) -> np.ndarray | float:
    """Spherical Bessel function j_0 or j_1; j_1 comes from its series below |x| = 1."""
    _check_order(l)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.ones_like(arr)  # j_0(0) = 1; every other entry is overwritten
    far = arr != 0.0 if l == 0 else np.abs(arr) >= 1.0
    x_far = arr[far]
    j0 = np.sin(x_far) / x_far
    out[far] = j0 if l == 0 else j0 / x_far - np.cos(x_far) / x_far
    if l == 1:
        out[~far] = _j1_series(arr[~far])
    return float(out[0]) if scalar else out


def bessel_zero(l: int, n: int) -> float:
    """nth positive zero of j_l: n pi for l = 0, the root of tan x = x in (n pi, (n + 1/2) pi) for l = 1."""
    _check_order(l)
    ModeIndex(l, n)  # validates n
    if l == 0:
        return n * math.pi
    # Newton on f = sin x - x cos x = x^2 j_1(x), f' = x sin x, from the right
    # end of the bracket: between the root and that end f f'' > 0, so every
    # iterate lies between the root and the one before
    x = (n + 0.5) * math.pi
    for _ in range(50):
        step = (math.sin(x) - x * math.cos(x)) / (x * math.sin(x))
        x -= step
        if abs(step) <= 1e-15 * x:
            break
    return x


def mode_energy(index: ModeIndex, m_prime: float) -> float:
    """Single-particle sphere energy x_{l,n}^2 / (2 m')."""
    m_prime = float(m_prime)
    if not math.isfinite(m_prime) or m_prime <= 0:
        raise ValidationError(f"scaled mass must be positive, got {m_prime!r}")
    x = bessel_zero(index.l, index.n)
    return x * x / (2.0 * m_prime)


@dataclass(frozen=True)
class RadialMode:
    """Normalized radial factor u(r) = norm * r * j_l(zero * r) on [0, 1]."""

    index: ModeIndex
    zero: float
    norm: float

    def __call__(self, r) -> np.ndarray | float:
        arr = np.asarray(r, dtype=float)
        if self.index.l == 0:
            # closed form sqrt(2) sin(n pi r); exact and cheap
            return math.sqrt(2.0) * np.sin(self.index.n * math.pi * arr)
        return self.norm * arr * spherical_jl(self.index.l, self.zero * arr)


def build_radial_mode(index: ModeIndex) -> RadialMode:
    """Construct the normalized mode for the given index (l <= 1)."""
    zero = bessel_zero(index.l, index.n)
    # int_0^1 j_l(x r)^2 r^2 dr = j_{l+1}(x)^2 / 2 at a zero x of j_l, and
    # there j_2 = 3 j_1 / x - j_0 = -j_0 (DLMF 10.51.1)
    norm = math.sqrt(2.0) / abs(spherical_jl(1 - index.l, zero))
    return RadialMode(index=index, zero=zero, norm=norm)
