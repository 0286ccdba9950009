"""Eigenstates of a unit sphere with an impenetrable wall: energies for l <= 1, radial factors for l = 0.

A particle of scaled mass m' confined to r < 1 with a Dirichlet wall has
eigenfunctions (spherical harmonic) x j_l(x_{l,n} r)/r and energies
x_{l,n}^2 / (2 m'), where x_{l,n} is the nth positive zero of the spherical
Bessel function j_l. Zeros and energies are served for l = 0 and l = 1. The
zeros of j_0(x) = sin x / x are n pi; those of
j_1(x) = sin x / x^2 - cos x / x (DLMF 10.49.3) are the roots of tan x = x,
one in each (n pi, (n + 1/2) pi). Downstream Coulomb integrals need only the
normalized s-wave radial factor

    u_{0,n}(r) = sqrt(2) n pi r j_0(n pi r) = sqrt(2) sin(n pi r),  int_0^1 u^2 dr = 1,

so they are one-dimensional in each radial variable. A radial factor with
l > 0, and any l >= 2, raises UnsupportedModeError; a zero or an energy
beyond the float range is a ValidationError.
"""

from __future__ import annotations

import math
from functools import total_ordering

import numpy as np

from .errors import Record, UnsupportedModeError, ValidationError, integer, real


@total_ordering
class ModeIndex(Record):
    """Angular momentum l >= 0 and radial quantum number n >= 1, ordered as the tuple (l, n)."""

    __slots__ = ("l", "n")

    def __init__(self, l: int, n: int):
        for name, value, low in (("l", l, 0), ("n", n, 1)):
            value = integer(f"mode {name}", value)
            if value < low:
                raise ValidationError(f"mode {name} must be >= {low}, got {value}")
            setattr(self, name, value)

    def __lt__(self, other):
        return self._values() < other._values() if other.__class__ is self.__class__ else NotImplemented


def _check_order(l) -> None:
    if integer("order l", l) < 0:
        raise ValidationError(f"order l must be a nonnegative integer, got {l!r}")
    if l > 1:
        raise UnsupportedModeError(f"sphere modes are served for l <= 1 only; got l = {l}")


def bessel_zero(l: int, n: int) -> float:
    """nth positive zero of j_l: n pi for l = 0, the root of tan x = x in (n pi, (n + 1/2) pi) for l = 1."""
    _check_order(l)
    n = ModeIndex(l, n).n
    # the zero itself for l = 0, the right end of its bracket for l = 1
    x = (n + 0.5 * l) * math.pi
    if not math.isfinite(x):
        raise ValidationError(f"the zero of j_{l} at mode n = {float(n):.6g} is beyond the float range")
    if l == 0:
        return x
    # Newton on f = sin x - x cos x = x^2 j_1(x), f' = x sin x, from the right
    # end of the bracket: between the root and that end f f'' > 0, so every
    # iterate lies between the root and the one before
    for _ in range(50):
        step = (math.sin(x) - x * math.cos(x)) / (x * math.sin(x))
        x -= step
        if abs(step) <= 1e-15 * x:
            break
    return x


def mode_energy(index: ModeIndex, m_prime: float) -> float:
    """Single-particle sphere energy x_{l,n}^2 / (2 m')."""
    m_prime = real("scaled mass", m_prime)
    if m_prime <= 0:
        raise ValidationError(f"scaled mass must be positive, got {m_prime!r}")
    x = bessel_zero(index.l, index.n)
    energy = x * x / (2.0 * m_prime)
    if not math.isfinite(energy):
        raise ValidationError(f"the energy of mode (l={index.l}, n={float(index.n):.6g}) at scaled mass "
                              f"{m_prime!r} is beyond the float range")
    return energy


class RadialMode(Record):
    """Normalized s-wave radial factor u(r) = sqrt(2) sin(n pi r) on [0, 1]."""

    __slots__ = ("index",)

    def __init__(self, index: ModeIndex):
        self.index = index
        if self.index.l != 0:
            raise UnsupportedModeError(f"radial modes are served for l = 0 only; got l = {self.index.l}")

    def __call__(self, r) -> np.ndarray | float:
        """u at r: a real number, or an int or float array of any shape, taken as is."""
        if not isinstance(r, np.ndarray):
            r = real("radius r", r)
        elif r.dtype.kind not in "fiu":
            raise ValidationError(f"radius r must be a real number or an int or float array, got {r.dtype} array")
        return math.sqrt(2.0) * np.sin(self.index.n * math.pi * np.asarray(r, dtype=float))


def build_radial_mode(index: ModeIndex) -> RadialMode:
    """The normalized mode for the given index; any l > 0 is an UnsupportedModeError."""
    return RadialMode(index)
