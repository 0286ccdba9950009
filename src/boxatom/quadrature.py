"""Gauss-Legendre quadrature with affine and triangular mappings.

All radial integrals in the package go through these rules. The two-variable
kernel 1/max(r1, r2) has a derivative kink on the diagonal, so the triangular
integrator nests the rule with inner interval [0, r1]; each sub-integrand is
then smooth and plain Gauss rules converge spectrally. A rule has at most
MAX_POINTS = 512 nodes, which is also the finest Coulomb table resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ValidationError

MAX_POINTS = 512


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights on (-1, 1); ``order`` is the point count."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


def _legendre_and_prev(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (P_n, P_{n-1}) via the three-term recurrence j P_j = (2j-1) x P_{j-1} - (j-1) P_{j-2}
    p, pm1 = np.ones_like(x), np.zeros_like(x)
    for j in range(1, n + 1):
        p, pm1 = ((2 * j - 1) * x * p - (j - 1) * pm1) / j, p
    return p, pm1


def _legendre_derivative(n: int, x: np.ndarray, p: np.ndarray, pm1: np.ndarray) -> np.ndarray:
    # valid on |x| < 1, which covers every Gauss node including x = 0
    return n * (x * p - pm1) / (x * x - 1.0)


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> QuadratureRule:
    """Return the n-point Gauss-Legendre rule, each node converged to 1e-15."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValidationError(f"rule size must be an integer, got {n!r}")
    if not 1 <= n <= MAX_POINTS:
        raise ValidationError(f"rule size must lie in [1, {MAX_POINTS}], got {n}")
    n = int(n)

    m = (n + 1) // 2
    k = np.arange(1, m + 1, dtype=float)
    x = np.cos(np.pi * (k - 0.25) / (n + 0.5))
    if n % 2:
        x[-1] = 0.0  # center node is an exact root for odd n
    for _ in range(100):
        p, pm1 = _legendre_and_prev(n, x)
        dx = p / _legendre_derivative(n, x, p, pm1)
        x = x - dx
        if n % 2:
            x[-1] = 0.0
        if np.all(np.abs(dx) < 1e-15):
            break
    else:
        raise ValidationError(f"Newton iteration for the {n}-point rule did not settle")

    p, pm1 = _legendre_and_prev(n, x)
    dp = _legendre_derivative(n, x, p, pm1)
    w = 2.0 / ((1.0 - x * x) * dp * dp)

    if n % 2:
        nodes = np.concatenate([-x, x[-2::-1]])
        nodes[m - 1] = 0.0  # avoid -0.0 at the center
        weights = np.concatenate([w, w[-2::-1]])
    else:
        nodes = np.concatenate([-x, x[::-1]])
        weights = np.concatenate([w, w[::-1]])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights, order=n)


def _evaluate(f: Callable, r: np.ndarray, what: str) -> np.ndarray:
    try:
        vals = np.asarray(f(r), dtype=float)
    except (TypeError, ValueError):
        vals = np.asarray([f(float(t)) for t in np.ravel(r)], dtype=float).reshape(r.shape)
    if vals.ndim == 0:
        vals = np.full(r.shape, float(vals))
    if vals.shape != r.shape:
        raise ValidationError(f"{what} must map nodes of shape {r.shape} to values of the same shape")
    if not np.all(np.isfinite(vals)):
        bad = np.asarray(r)[~np.isfinite(vals)].ravel()[0]
        raise ValidationError(f"{what} returned a non-finite value at node r={bad!r}")
    return vals


def integrate(f: Callable, a: float, b: float, rule: QuadratureRule) -> float:
    """Integrate f over [a, b] with the affine-mapped rule."""
    a, b = float(a), float(b)
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValidationError(f"need finite bounds with a < b, got a={a}, b={b}")
    half = 0.5 * (b - a)
    r = 0.5 * (a + b) + half * rule.nodes
    vals = _evaluate(f, r, "integrand")
    return half * float(np.dot(rule.weights, vals))


def triangle_grid(rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Outer nodes/weights on [0, 1] and nested inner grids on [0, r1]."""
    r1 = 0.5 * (rule.nodes + 1.0)
    w1 = 0.5 * rule.weights
    # inner interval [0, r1[i]] reuses the same mapped rule, scaled per row
    r2 = np.outer(r1, r1)
    w2 = np.outer(r1, w1)
    return r1, w1, r2, w2


def integrate_triangular(f2: Callable, rule: QuadratureRule) -> float:
    """Integrate f2(r1, r2) over the triangle 0 <= r2 <= r1 <= 1."""
    r1, w1, r2, w2 = triangle_grid(rule)
    vals = _evaluate(lambda _: f2(r1[:, None], r2), r2, "triangular integrand")
    inner = np.sum(w2 * vals, axis=1)
    return float(np.dot(w1, inner))


def integrate_square(f2: Callable, rule: QuadratureRule) -> float:
    """Symmetric completion of the triangular rule over the unit square."""
    return integrate_triangular(f2, rule) + integrate_triangular(lambda r1, r2: f2(r2, r1), rule)
