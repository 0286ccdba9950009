"""Headline-number checks for the whole package, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import math
import time

import numpy as np
import pytest

from boxatom import (
    CiProblem,
    ModeIndex,
    bessel_zero,
    build_hamiltonian,
    build_radial_mode,
    epsilon1,
    gauss_legendre,
    ground_state,
    helium_system,
    integrate,
    nondimensionalize,
    nuclear_motion_report,
)

from boxatom.coulomb import ground_integrals

from oracles import cin_series, si_series

LAMBDA_GRID = [1e-6, 0.01, 0.1, 0.5, 1.0, 2.0]


def _criterion(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def clamped_coeffs():
    system = nondimensionalize(helium_system(clamped_nucleus=True))
    return epsilon1(system)


def moving_coeffs():
    system = nondimensionalize(helium_system(clamped_nucleus=False))
    return epsilon1(system)


def test_criterion_01_clamped_eps0():
    system = nondimensionalize(helium_system(clamped_nucleus=True))
    got = epsilon1(system).eps0
    err = abs(got - 9.8696044)
    _criterion(1, err <= 1e-6, f"clamped eps0 = {got:.10f} (|err| = {err:.2e}, tol 1e-6)")


def test_criterion_02_clamped_eps1():
    got = clamped_coeffs().eps1
    err = abs(got - (-7.9645404))
    _criterion(2, err <= 1e-6, f"clamped eps1 = {got:.10f} (|err| = {err:.2e}, tol 1e-6)")


def test_criterion_03_moving_eps0():
    system = nondimensionalize(helium_system(clamped_nucleus=False))
    got = epsilon1(system).eps0
    err = abs(got - 9.870280744)
    _criterion(3, err <= 1e-8, f"moving eps0 = {got:.12f} (|err| = {err:.2e}, tol 1e-8)")


def test_criterion_04_moving_eps1_and_pair():
    eps1 = moving_coeffs().eps1
    _, pair = ground_integrals()
    eps_err = abs(eps1 - (-5.358219501))
    pair_err = abs(pair - 1.786073167)
    ok = eps_err <= 1e-7 and pair_err <= 4e-8
    _criterion(
        4,
        ok,
        f"moving eps1 = {eps1:.10f} (|err| = {eps_err:.2e}, tol 1e-7); "
        f"pair = {pair:.10f} (|err| = {pair_err:.2e}, tol 4e-8)",
    )


def pair_closed_form():
    """<1/r12> for two particles in the (l=0, n=1) mode, from Si alone.

    u_1^2 = 1 - cos(2 pi r), so the inner integral int_0^r u_1^2 is
    r - sin(2 pi r) / (2 pi), and
    2 int_0^1 u_1^2(r) / r * (r - sin(2 pi r) / (2 pi)) dr
    = 2 - [Si(2 pi) - Si(4 pi) / 2] / pi.
    """
    return 2.0 - (si_series(2.0 * math.pi) - 0.5 * si_series(4.0 * math.pi)) / math.pi


def test_criterion_05_cross_identity_as_stated():
    """Clamped-minus-moving eps1 identity, against closed forms.

    eps1 = sum_{i<j free} q'_i q'_j <1/r12> + sum_{i free} q'_i q'_c <1/r>,
    with <1/r> = Cin(2 pi) and <1/r12> = pair in the ground mode. Clamped
    helium (Z = 2): eps1 = pair - 2Z Cin(2 pi). Moving nucleus, all three
    particles free: eps1 = pair - 2Z pair = -(2Z - 1) pair = -3 pair. The
    difference is -2Z (Cin(2 pi) - pair) = -4 (Cin(2 pi) - pair). An earlier
    form wrote -(4 Cin(2 pi) - 3 pair), carrying the moving nucleus's own
    pair count 2Z - 1 = 3 into the difference, and missed by exactly one pair
    integral. Both Cin(2 pi) and pair come from their series, not the quadrature.
    """
    lhs = clamped_coeffs().eps1 - moving_coeffs().eps1
    rhs = -4.0 * (cin_series(2.0 * math.pi) - pair_closed_form())
    err = abs(lhs - rhs)
    _criterion(
        5,
        err <= 1e-7,
        f"lhs = {lhs:.12f}, rhs = -4 (Cin(2pi) - pair) = {rhs:.12f}, gap = {err:.2e} (tol 1e-7)",
    )


def test_criterion_05_consistent_form():
    """Same identity with the quadrature's own pair integral in place of its closed form."""
    lhs = clamped_coeffs().eps1 - moving_coeffs().eps1
    _, pair = ground_integrals()
    rhs = -4.0 * (cin_series(2.0 * math.pi) - pair)
    assert abs(lhs - rhs) <= 1e-7


def test_criterion_06_overlap_scan_properties():
    start = time.perf_counter()
    _, overlaps, _ = CiProblem(2.0, 8, 200).scan(LAMBDA_GRID)
    elapsed = time.perf_counter() - start
    bounded = all(v <= 1.0 for v in overlaps)
    near_one = overlaps[0] >= 1.0 - 1e-8
    monotone = all(b <= a for a, b in zip(overlaps, overlaps[1:]))
    ok = bounded and near_one and monotone and elapsed < 5.0
    _criterion(
        6,
        ok,
        f"overlaps = {[f'{v:.8f}' for v in overlaps]}, bounded = {bounded}, "
        f"overlap(1e-6) >= 1-1e-8: {near_one}, non-increasing = {monotone}, "
        f"elapsed = {elapsed:.2f} s (< 5 s)",
    )


def test_criterion_07_variational_dominance_and_slope():
    coeffs = clamped_coeffs()
    basis = 8
    dominated = True
    worst = 0.0
    for lam in LAMBDA_GRID:
        ci_energy = ground_state(build_hamiltonian(2.0, lam, basis))[0]
        first_order = coeffs.eps0 + coeffs.eps1 * lam
        worst = max(worst, ci_energy - first_order)
        dominated = dominated and ci_energy <= first_order + 1e-12
    h = 1e-4
    slope = (ground_state(build_hamiltonian(2.0, h, basis))[0] - coeffs.eps0) / h
    slope_err = abs(slope - (-7.9645404))
    ok = dominated and slope_err <= 1e-3
    _criterion(
        7,
        ok,
        f"CI <= first order on all grid points (worst excess {worst:.2e}); "
        f"slope at 0 = {slope:.7f} (|err| = {slope_err:.2e}, tol 1e-3)",
    )


def test_criterion_08_nuclear_motion_shifts():
    report = nuclear_motion_report(clamped_coeffs(), moving_coeffs())
    expected_kinetic = (9.870280744 - 9.8696044) / 9.8696044
    expected_potential = (7.9645404 - 5.358219501) / 7.9645404
    kin_err = abs(report.kinetic_shift - expected_kinetic) / expected_kinetic
    pot_err = abs(report.potential_shift - expected_potential) / expected_potential
    ok = kin_err <= 1e-3 and pot_err <= 1e-3 and report.dominant == "potential-dominated"
    _criterion(
        8,
        ok,
        f"kinetic shift = {report.kinetic_shift:.6e} (rel err {kin_err:.2e}), "
        f"potential shift = {report.potential_shift:.6f} (rel err {pot_err:.2e}), "
        f"flag = {report.dominant}",
    )


def test_criterion_09_numerical_infrastructure():
    # Gauss rules integrate degree 2n-1 exactly
    rng = np.random.RandomState(902)
    quad_worst = 0.0
    for n in (2, 4, 8, 16):
        rule = gauss_legendre(n)
        for _ in range(3):
            poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, size=2 * n))
            exact = poly.integ()(1.0) - poly.integ()(-1.0)
            quad_worst = max(quad_worst, abs(float(np.sum(rule.weights * poly(rule.nodes))) - exact))
    # radial-mode orthonormality, l = 0
    rule = gauss_legendre(200)
    modes = [build_radial_mode(ModeIndex(0, n)) for n in range(1, 11)]
    ortho_worst = 0.0
    for i, ui in enumerate(modes):
        for j, uj in enumerate(modes):
            overlap = integrate(lambda r: ui(r) * uj(r), 0.0, 1.0, rule)
            ortho_worst = max(ortho_worst, abs(overlap - (1.0 if i == j else 0.0)))
    # zero locations
    zero_worst = max(abs(bessel_zero(0, n) - n * math.pi) for n in range(1, 11))
    x11_err = abs(bessel_zero(1, 1) - 4.493409458)
    ok = quad_worst <= 1e-12 and ortho_worst <= 1e-10 and zero_worst <= 1e-12 and x11_err <= 1e-9
    _criterion(
        9,
        ok,
        f"quadrature exactness worst = {quad_worst:.2e} (tol 1e-12); "
        f"orthonormality worst = {ortho_worst:.2e} (tol 1e-10); "
        f"l=0 zeros worst = {zero_worst:.2e} (tol 1e-12); "
        f"x(1,1) err = {x11_err:.2e} (tol 1e-9)",
    )


def test_criterion_10_second_order_internal_agreement():
    problem = CiProblem(2.0, 8)
    fit = problem.second_order_estimate()
    sos = problem.second_order_sum_over_states()
    rel = abs(fit - sos) / abs(sos)
    ok = rel <= 0.02 and fit < 0.0
    _criterion(
        10,
        ok,
        f"s-limited eps2: fit = {fit:.8f}, sum-over-states = {sos:.8f}, "
        f"relative gap = {rel:.4f} (<= 0.02); no external value, accepted by agreement",
    )
