"""The Gauss-Legendre rule, and the integral it gives over an interval.

All radial integrals in the package use these rules. A rule has at most
MAX_POINTS = 512 nodes, which is also the finest Coulomb table resolution.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import Record, ValidationError, integer, real, reals

MAX_POINTS = 512
# recurrence steps whose products (2j-1) x are formed at once, one row each
_RECURRENCE_STEPS = 32


class QuadratureRule(Record, eq=False):
    """Nodes and weights on (-1, 1); ``order`` is the point count."""

    __slots__ = ("nodes", "weights", "order")

    def __init__(self, nodes: np.ndarray, weights: np.ndarray, order: int):
        self.nodes = nodes
        self.weights = weights
        self.order = order


def _legendre_and_prev(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (P_n, P_{n-1}) via the three-term recurrence j P_j = (2j-1) x P_{j-1} - (j-1) P_{j-2}.
    # The products (2j-1) x come _RECURRENCE_STEPS steps at a time, and P_j
    # overwrites P_{j-2} in place, each entry through the same operations as
    # ((2j-1) * x * p - (j-1) * pm1) / j
    p, pm1 = np.ones_like(x), np.zeros_like(x)
    scratch = np.empty((_RECURRENCE_STEPS, len(x)))
    for first in range(1, n + 1, _RECURRENCE_STEPS):
        steps = range(first, min(first + _RECURRENCE_STEPS, n + 1))
        rows = np.multiply.outer(np.arange(2 * first - 1, 2 * steps[-1], 2, dtype=float), x,
                                 out=scratch[:len(steps)])
        for j, row in zip(steps, rows):
            row *= p
            pm1 *= j - 1
            np.subtract(row, pm1, out=pm1)
            pm1 /= j
            p, pm1 = pm1, p
    return p, pm1


def _legendre_derivative(n: int, x: np.ndarray, p: np.ndarray, pm1: np.ndarray) -> np.ndarray:
    # valid on |x| < 1, which covers every Gauss node including x = 0
    return n * (x * p - pm1) / (x * x - 1.0)


def gauss_legendre(n: int) -> QuadratureRule:
    """Return the n-point Gauss-Legendre rule, each node converged to 1e-15."""
    n = integer("rule size", n)
    if not 1 <= n <= MAX_POINTS:
        raise ValidationError(f"rule size must lie in [1, {MAX_POINTS}], got {n}")
    return _gauss_legendre(n)


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> QuadratureRule:
    m = (n + 1) // 2
    k = np.arange(1, m + 1, dtype=float)
    x = np.cos(np.pi * (k - 0.25) / (n + 0.5))
    if n % 2:
        # the center node is an exact root for odd n: P_n(0) is exactly +-0,
        # so Newton's step there is +-0 and the node stays 0.0
        x[-1] = 0.0
    for _ in range(100):
        p, pm1 = _legendre_and_prev(n, x)
        dx = p / _legendre_derivative(n, x, p, pm1)
        x = x - dx
        if np.all(np.abs(dx) < 1e-15):
            break
    else:
        raise ValidationError(f"Newton iteration for the {n}-point rule did not settle")

    p, pm1 = _legendre_and_prev(n, x)
    dp = _legendre_derivative(n, x, p, pm1)
    w = 2.0 / ((1.0 - x * x) * dp * dp)

    # the mirror half; for odd n it leaves out the center node
    tail = slice(-1 - n % 2, None, -1)
    nodes = np.concatenate([-x, x[tail]])
    weights = np.concatenate([w, w[tail]])
    if n % 2:
        nodes[m - 1] = 0.0  # avoid -0.0 at the center
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights, order=n)


def _evaluate(f: Callable, r: np.ndarray, what: str) -> np.ndarray:
    """f on the node array: an integer or float array, or one real number for every node.

    An f that takes one float at a time is called node by node.
    """
    name = f"{what} values"
    try:
        vals = f(r)
    except (TypeError, ValueError):  # f takes one float at a time
        vals = reals(name, [f(float(t)) for t in np.ravel(r)]).reshape(r.shape)
    if isinstance(vals, np.ndarray) and vals.ndim:
        if vals.dtype.kind not in "fiu":
            raise ValidationError(f"{name} must be real numbers, got an array of {vals.dtype}")
        vals = np.asarray(vals, dtype=float)
    else:
        vals = np.full(r.shape, reals(name, [vals])[0])
    if vals.shape != r.shape:
        raise ValidationError(f"{what} must map nodes of shape {r.shape} to values of the same shape")
    if not np.all(np.isfinite(vals)):
        bad = np.asarray(r)[~np.isfinite(vals)].ravel()[0]
        raise ValidationError(f"{what} returned a non-finite value at node r={bad!r}")
    return vals


def integrate(f: Callable, a: float, b: float, rule: QuadratureRule) -> float:
    """Integrate f over [a, b] with the affine-mapped rule."""
    a, b = real("lower bound a", a), real("upper bound b", b)
    if not a < b:
        raise ValidationError(f"need bounds with a < b, got a={a}, b={b}")
    half = 0.5 * (b - a)
    r = 0.5 * (a + b) + half * rule.nodes
    vals = _evaluate(f, r, "integrand")
    return half * float(np.dot(rule.weights, vals))

