import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from boxatom import gauss_legendre, integrate, quadrature
from boxatom.errors import ValidationError

from oracles import cin_series, integrate_square, integrate_triangular, legendre_and_prev, triangle_grid


def test_one_point_rule():
    rule = gauss_legendre(1)
    assert rule.order == 1
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights.tolist() == [2.0]


def test_two_point_rule():
    rule = gauss_legendre(2)
    expected = 1.0 / math.sqrt(3.0)
    assert rule.nodes == pytest.approx([-expected, expected], abs=1e-15)
    assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)


@pytest.mark.parametrize("n", [2, 3, 16, 64, 201, 512])
def test_rule_structure(n):
    rule = gauss_legendre(n)
    assert len(rule.nodes) == n and len(rule.weights) == n
    assert math.fsum(rule.weights) == pytest.approx(2.0, abs=1e-14)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    # node/weight symmetry about the origin
    np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-15)
    np.testing.assert_allclose(rule.weights, rule.weights[::-1], atol=1e-15)
    if n % 2 == 1:
        assert rule.nodes[n // 2] == 0.0


@pytest.mark.parametrize("n", [5, 64, 257])
def test_matches_reference_nodes(n):
    rule = gauss_legendre(n)
    ref_nodes, ref_weights = leggauss(n)
    np.testing.assert_allclose(rule.nodes, ref_nodes, atol=5e-15)
    np.testing.assert_allclose(rule.weights, ref_weights, atol=5e-15)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_polynomial_exactness(n):
    # an n-point rule integrates degree <= 2n-1 exactly
    rng = np.random.RandomState(1234 + n)
    rule = gauss_legendre(n)
    for _ in range(5):
        coeffs = rng.uniform(-2.0, 2.0, size=2 * n)
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(1.0) - poly.integ()(-1.0)
        quad = float(np.sum(rule.weights * poly(rule.nodes)))
        assert quad == pytest.approx(exact, abs=1e-12)


def test_rules_are_cached_and_frozen():
    rule = gauss_legendre(64)
    assert gauss_legendre(64) is rule
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0


def test_rules_match_the_recurrence_one_step_at_a_time(monkeypatch):
    # the blocked in-place recurrence keeps every bit of every rule the package serves
    build = quadrature._gauss_legendre.__wrapped__
    rules = [build(n) for n in range(1, quadrature.MAX_POINTS + 1)]
    monkeypatch.setattr(quadrature, "_legendre_and_prev", legendre_and_prev)
    for n, rule in enumerate(rules, 1):
        reference = build(n)
        assert np.array_equal(rule.nodes, reference.nodes), n
        assert np.array_equal(rule.weights, reference.weights), n


@pytest.mark.parametrize("bad", [0, -3, 1025, 2.5, True])
def test_invalid_order_rejected(bad):
    with pytest.raises(ValidationError):
        gauss_legendre(bad)


@pytest.mark.parametrize("bad", [[4], np.array([4]), np.array(4)], ids=["list", "array", "0-d-array"])
def test_order_checked_before_the_cache(bad):
    # checked before the cache, which would raise a bare TypeError for an unhashable argument
    with pytest.raises(ValidationError, match="^rule size must be an integer, got [^\n]+$"):
        gauss_legendre(bad)


def test_integrate_constant_and_sine():
    rule = gauss_legendre(32)
    assert integrate(lambda r: np.ones_like(r), 0.0, 1.0, rule) == pytest.approx(1.0, abs=1e-14)
    exact = 0.5 - math.sin(2.0 * math.pi) / (4.0 * math.pi)
    got = integrate(lambda r: np.sin(math.pi * r) ** 2, 0.0, 1.0, rule)
    assert got == pytest.approx(exact, abs=1e-14)


def test_integrate_ground_mode_kernel():
    # 2 sin^2(pi r) / r integrated over (0, 1) equals Cin(2 pi)
    rule = gauss_legendre(200)
    got = integrate(lambda r: 2.0 * np.sin(math.pi * r) ** 2 / r, 0.0, 1.0, rule)
    assert got == pytest.approx(cin_series(2.0 * math.pi), abs=1e-13)


def test_integrate_scalar_integrand():
    rule = gauss_legendre(48)
    got = integrate(math.sin, 0.0, math.pi, rule)
    assert got == pytest.approx(2.0, abs=1e-13)


def test_integrate_rejects_bad_interval():
    rule = gauss_legendre(8)
    with pytest.raises(ValidationError):
        integrate(lambda r: r, 1.0, 1.0, rule)
    with pytest.raises(ValidationError):
        integrate(lambda r: r, 2.0, 1.0, rule)


def test_integrate_reports_nonfinite_integrand():
    rule = gauss_legendre(8)
    with pytest.raises(ValidationError, match="non-finite"):
        integrate(lambda r: np.where(r > 0.5, np.inf, 1.0), 0.0, 1.0, rule)


def test_integrand_returning_no_number_is_a_validation_error():
    # the value is refused whether f is called on the node array or a node at a time
    rule = gauss_legendre(4)
    for f in (lambda r: "x", lambda r: "x" if isinstance(r, float) else math.sin(r)):
        with pytest.raises(ValidationError, match="^integrand values must be real numbers, got 'x'$"):
            integrate(f, 0.0, 1.0, rule)


@pytest.mark.parametrize("f", [
    lambda r: np.sin(r) > 0,
    lambda r: r.astype(str),
    lambda r: r + 1j,
    lambda r: np.complex128(1j),
    lambda r: np.array("0.5"),
], ids=["boolean-array", "text-array", "complex-array", "complex-scalar", "text-scalar"])
def test_integrand_of_no_real_numbers_is_refused(f):
    # float() would take each of these, the complex ones with a warning
    with pytest.raises(ValidationError, match="^integrand values must be real numbers, got [^\n]+$"):
        integrate(f, 0.0, 1.0, gauss_legendre(4))


def test_integrate_rejects_wrong_shape():
    rule = gauss_legendre(8)
    with pytest.raises(ValidationError):
        integrate(lambda r: np.ones(3), 0.0, 1.0, rule)


def test_triangle_grid_shapes():
    rule = gauss_legendre(16)
    r1, w1, r2, w2 = triangle_grid(rule)
    assert r1.shape == (16,) and w1.shape == (16,)
    assert r2.shape == (16, 16) and w2.shape == (16, 16)
    assert np.all(r2 <= r1[:, None] + 1e-15)
    np.testing.assert_allclose(r2, np.outer(r1, r1), atol=0)


def test_triangular_closed_forms():
    # integrands receive broadcast-ready arrays (outer coordinate down columns)
    rule = gauss_legendre(64)
    area = integrate_triangular(lambda r1, r2: np.broadcast_to(1.0, np.broadcast(r1, r2).shape), rule)
    assert area == pytest.approx(0.5, abs=1e-14)
    moment = integrate_triangular(lambda r1, r2: r1 * r2, rule)
    assert moment == pytest.approx(1.0 / 8.0, abs=1e-14)


def test_square_from_symmetric_completion():
    # normalization of the ground pair density over the full unit square
    def density(r1, r2):
        return (2.0 * np.sin(math.pi * r1) ** 2) * (2.0 * np.sin(math.pi * r2) ** 2)

    got = integrate_square(density, gauss_legendre(64))
    assert got == pytest.approx(1.0, abs=1e-13)


def test_triangular_pair_kernel_converges():
    def kernel(r1, r2):
        u1 = 2.0 * np.sin(math.pi * r1) ** 2
        u2 = 2.0 * np.sin(math.pi * r2) ** 2
        return u1 * u2 / r1

    coarse = 2.0 * integrate_triangular(kernel, gauss_legendre(128))
    fine = 2.0 * integrate_triangular(kernel, gauss_legendre(256))
    assert abs(coarse - fine) < 1e-12


def test_determinism():
    a = gauss_legendre(200)
    quadrature._gauss_legendre.cache_clear()
    b = gauss_legendre(200)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.weights, b.weights)
