import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxatom import (
    BreakdownTerm,
    DimensionlessSystem,
    ModeIndex,
    Particle,
    PerturbationCoefficients,
    ScaledParticle,
    SystemDefinition,
    energy_curve,
    epsilon1,
    helium_system,
    nondimensionalize,
    nuclear_motion_report,
    turnover_lambda,
)
from boxatom.coulomb import DEFAULT_POINTS, ground_integrals
from boxatom.errors import ValidationError
from boxatom.perturbation import _DEGENERACY_RTOL

from oracles import NOT_NUMBERS, cin_series, curve_columns, s_wave_ground_is_degenerate


def electrons_only(count, rc=1.0):
    e = Particle(mass=1.0, charge=-1.0)
    return nondimensionalize(SystemDefinition(particles=(e,) * count, reference=0, rc_bohr=rc))


def clamped_he():
    return nondimensionalize(helium_system(clamped_nucleus=True))


def moving_he(nuclear_mass=7296.300):
    return nondimensionalize(helium_system(clamped_nucleus=False, nuclear_mass=nuclear_mass))


def first_order_curve(system, lambdas):
    """The lambda, rc_bohr and energy columns of the system's ground-occupation curve."""
    return energy_curve(system, epsilon1(system), lambdas)


def test_epsilon1_takes_a_system_and_a_resolution_only():
    assert list(inspect.signature(epsilon1).parameters) == ["system", "points"]
    assert inspect.signature(epsilon1).parameters["points"].default == DEFAULT_POINTS


def test_a_system_definition_is_refused_with_a_pointer_to_nondimensionalize():
    # the usual slip: a definition passed before nondimensionalize has scaled it
    with pytest.raises(ValidationError, match="^system must be a DimensionlessSystem, got SystemDefinition; "
                                              "nondimensionalize turns a SystemDefinition into one$"):
        epsilon1(helium_system(clamped_nucleus=True))


@pytest.mark.parametrize("call,message", [
    (lambda: epsilon1("a"), "system must be a DimensionlessSystem, got str"),
    (lambda: energy_curve("a", "b", [1.0]), "system must be a DimensionlessSystem, got str"),
    (lambda: energy_curve(clamped_he(), "b", [1.0]), "coefficients must be a PerturbationCoefficients, got str"),
    (lambda: nuclear_motion_report("a", "b"), "clamped coefficients must be a PerturbationCoefficients, got str"),
    (lambda: nuclear_motion_report(epsilon1(clamped_he()), None),
     "moving coefficients must be a PerturbationCoefficients, got NoneType"),
    # no nondimensionalize hint where no DimensionlessSystem belongs
    (lambda: nuclear_motion_report(helium_system(clamped_nucleus=True), None),
     "clamped coefficients must be a PerturbationCoefficients, got SystemDefinition"),
    # the ground occupation that first order once took where the resolution now goes
    (lambda: epsilon1(clamped_he(), (ModeIndex(0, 1),) * 2),
     r"quadrature points must be an integer, got \(ModeIndex\(l=0, n=1\), ModeIndex\(l=0, n=1\)\)"),
], ids=["epsilon1", "energy_curve-system", "energy_curve-coefficients", "nuclear_motion_report-clamped",
        "nuclear_motion_report-moving", "nuclear_motion_report-definition", "epsilon1-occupation"])
def test_first_order_refuses_what_is_not_its_input_type(call, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call()


class TestEpsilon0:
    def test_clamped_helium_is_pi_squared(self):
        system = clamped_he()
        assert epsilon1(system).eps0 == pytest.approx(math.pi**2, abs=1e-12)

    def test_moving_helium_adds_nuclear_mode(self):
        system = moving_he()
        got = epsilon1(system).eps0
        expected = math.pi**2 * (1.0 + 1.0 / (2.0 * 7296.300))
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(9.870280744, abs=1e-8)


class TestEpsilon1Breakdown:
    def test_clamped_helium_terms(self):
        system = clamped_he()
        coeffs = epsilon1(system)
        labels = [t.label for t in coeffs.breakdown]
        assert labels == ["kinetic[0]", "kinetic[1]", "pair[0,1]", "central[0,2]", "central[1,2]"]
        kinds = [t.kind for t in coeffs.breakdown]
        assert kinds == ["kinetic", "kinetic", "pair", "central", "central"]
        assert [t.prefactor for t in coeffs.breakdown] == [1.0, 1.0, 1.0, -2.0, -2.0]
        for t in coeffs.breakdown:
            assert t.value == t.prefactor * t.integral
        assert sum(t.kind == "kinetic" for t in coeffs.breakdown) == 2
        assert sum(t.kind != "kinetic" for t in coeffs.breakdown) == 3

    def test_very_heavy_free_particle_does_not_break_degeneracy_search(self):
        # the running energy sum at the heaviest particle rounds to just below
        # zero; the search may call the occupation degenerate, but not crash
        particles = (Particle(1.0, -1.0), Particle(7.0, -1.0), Particle(1.8014398509481984e16, -1.0))
        system = nondimensionalize(SystemDefinition(particles=particles, reference=0, rc_bohr=0.5))
        try:
            epsilon1(system)
        except ValidationError as exc:
            assert "degenerate" in str(exc)

    def test_clamped_helium_values(self):
        system = clamped_he()
        coeffs = epsilon1(system)
        central, pair = ground_integrals()
        assert coeffs.eps1 == pytest.approx(pair - 4.0 * central, abs=1e-13)
        assert coeffs.eps1 == pytest.approx(-7.96454040407721, abs=1e-10)

    def test_moving_helium_values(self):
        system = moving_he()
        coeffs = epsilon1(system)
        _, pair = ground_integrals()
        # one e-e repulsion and two e-nucleus attractions, all ground pair integrals
        assert coeffs.eps1 == pytest.approx(-3.0 * pair, abs=1e-13)
        assert coeffs.eps1 == pytest.approx(-5.35821950445506, abs=1e-10)
        assert coeffs.eps0 == pytest.approx(9.870280744194842, abs=1e-12)

    def test_hydrogen_like_attraction(self):
        proton = Particle(mass=1836.152673, charge=1.0, clamped=True)
        e = Particle(mass=1.0, charge=-1.0)
        system = nondimensionalize(SystemDefinition(particles=(e, proton), reference=0, rc_bohr=1.0))
        coeffs = epsilon1(system)
        assert coeffs.eps1 == pytest.approx(-cin_series(2.0 * math.pi), abs=1e-9)

    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_pair_count_scales_combinatorially(self, count):
        system = electrons_only(count)
        coeffs = epsilon1(system)
        _, pair = ground_integrals()
        expected = count * (count - 1) / 2 * pair
        assert coeffs.eps1 == pytest.approx(expected, rel=1e-14)
        assert len([t for t in coeffs.breakdown if t.kind == "pair"]) == count * (count - 1) // 2

    def test_charge_conjugation_invariance(self):
        base = helium_system(clamped_nucleus=True)
        flipped = SystemDefinition(
            particles=tuple(
                Particle(mass=p.mass, charge=-p.charge, clamped=p.clamped) for p in base.particles
            ),
            reference=0,
            rc_bohr=1.0,
        )
        a = epsilon1(nondimensionalize(base))
        b = epsilon1(nondimensionalize(flipped))
        assert a.eps0 == b.eps0 and a.eps1 == b.eps1

    @pytest.mark.parametrize("reference", [0, 1])
    def test_very_heavy_free_particle_is_degenerate_for_any_reference(self, reference):
        # mode 2 of the heavy particle lies about 1.5e-16 relative above eps0,
        # inside the tolerance, whichever particle sets the scale
        particles = (Particle(1.0, -1.0), Particle(7.0, -1.0), Particle(1.8014398509481984e16, -1.0))
        system = nondimensionalize(SystemDefinition(particles=particles, reference=reference, rc_bohr=0.5))
        with pytest.raises(ValidationError, match="degenerate"):
            epsilon1(system)

    @pytest.mark.parametrize("m_prime", [5e-324, 1e-310])
    def test_an_energy_beyond_the_float_range_is_not_called_degenerate(self, m_prime):
        # 1/m' overflows below about 5.6e-309, where the degeneracy test once read inf
        particles = (ScaledParticle(1.0, 1.0, False), ScaledParticle(m_prime, -1.0, False))
        with pytest.raises(ValidationError, match="is beyond the float range$"):
            epsilon1(DimensionlessSystem(particles, 1.0, 1.0, 1.0))

    def test_breakdown_sums_are_enforced(self):
        with pytest.raises(ValidationError):
            PerturbationCoefficients(eps0=1.0, eps1=0.5, breakdown=())

    @pytest.mark.parametrize("kinetic,eps1,pair,message", [
        (math.nan, 0.5, 0.5, "eps0 does not match the kinetic breakdown sum"),
        (1.0, math.nan, 0.5, "eps1 does not match the interaction breakdown sum"),
        (1.0, 0.5, math.nan, "eps1 does not match the interaction breakdown sum"),
    ], ids=["kinetic-term", "eps1", "pair-term"])
    def test_a_nan_sum_or_coefficient_is_refused(self, kinetic, eps1, pair, message):
        # a NaN gap compares false with any tolerance, so the check must fail it
        terms = (BreakdownTerm("kinetic[0]", "kinetic", 1.0, kinetic, kinetic),
                 BreakdownTerm("pair[0,1]", "pair", 1.0, pair, pair))
        with pytest.raises(ValidationError, match=f"^{message}$"):
            PerturbationCoefficients(eps0=1.0, eps1=eps1, breakdown=terms)


MASSES = st.one_of(
    st.floats(-50.0, 50.0).map(lambda e: min(max(10.0**e, 1e-50), 1e50)),
    st.sampled_from([1.0, 7.0, 206.768283, 1836.15267343]),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(masses=st.lists(MASSES, min_size=2, max_size=6))
# 3 w_min / tol is about 2.5 and 0.4: just outside the skipped band on each side
@example(masses=[1.0, 1.2e9])
@example(masses=[1.0, 7.5e9])
def test_ground_degeneracy_matches_oracle(masses):
    # the cheapest excitation lies 3 w_min above eps0 (units pi^2/2, w = 1/m');
    # rounding decides the band near the tolerance
    particles = tuple(Particle(mass=m, charge=-1.0) for m in masses)
    system = nondimensionalize(SystemDefinition(particles=particles, reference=0, rc_bohr=1.0))
    w = [1.0 / p.m_prime for p in system.free_particles]
    tol = _DEGENERACY_RTOL * math.fsum(w)
    if 0.5 <= 3.0 * min(w) / tol <= 2.0:
        return
    try:
        epsilon1(system)
        degenerate = False
    except ValidationError as exc:
        assert "degenerate" in str(exc)
        degenerate = True
    assert degenerate is s_wave_ground_is_degenerate(w, _DEGENERACY_RTOL)


class TestClampedLimit:
    def test_heavy_nucleus_approaches_clamped_kinetics(self):
        clamped_eps0 = epsilon1(clamped_he()).eps0
        previous = math.inf
        for mass in [1e3, 1e5, 1e7]:
            system = moving_he(nuclear_mass=mass)
            eps0 = epsilon1(system).eps0
            assert clamped_eps0 < eps0 < previous
            assert eps0 - clamped_eps0 == pytest.approx(math.pi**2 / (2.0 * mass), rel=1e-6)
            previous = eps0

    def test_potential_gap_does_not_close(self):
        # releasing the nucleus swaps central integrals for pair integrals,
        # which no nuclear mass can undo
        heavy = moving_he(nuclear_mass=1e7)
        moving = epsilon1(heavy)
        clamped = epsilon1(clamped_he())
        assert abs(moving.eps1 - clamped.eps1) > 2.0


class TestEnergyCurve:
    def test_energy_identity(self):
        system = clamped_he()
        coeffs = epsilon1(system)
        for lam, rc_bohr, energy in zip(*energy_curve(system, coeffs, [0.25, 1.0, 2.0]), strict=True):
            assert energy == coeffs.eps0 / lam**2 + coeffs.eps1 / lam
            assert rc_bohr == lam * system.length_scale_a

    @pytest.mark.parametrize("system", [clamped_he, lambda: electrons_only(1)], ids=["helium", "one-electron"])
    def test_lambda_squared_beyond_the_float_range_keeps_the_energy(self, system):
        # lam**2 overflows, but eps0/lam^2 + eps1/lam, about eps1/lam, is a float
        system = system()
        coeffs = epsilon1(system)
        lams = [1e155, 1e300, 1.7e308]
        _, _, energy = energy_curve(system, coeffs, lams)
        for lam, got in zip(map(Fraction, lams), energy.tolist()):
            exact = Fraction(coeffs.eps0) / lam**2 + Fraction(coeffs.eps1) / lam
            # two roundings, the second maybe into the subnormal range
            assert got == pytest.approx(float(exact), rel=1e-15, abs=1e-323)

    def test_unit_box_value(self):
        _, _, (energy,) = first_order_curve(clamped_he(), [1.0])
        assert energy == pytest.approx(1.9050639970, abs=1e-6)

    def test_small_box_is_kinetic_dominated(self):
        _, _, (energy,) = first_order_curve(clamped_he(), [1e-4])
        assert energy * 1e-8 == pytest.approx(math.pi**2, rel=1e-4)

    def test_moving_sits_above_clamped(self):
        lams = [0.1, 0.5, 1.0, 2.0]
        _, _, clamped = first_order_curve(clamped_he(), lams)
        _, _, moving = first_order_curve(moving_he(), lams)
        assert np.all(moving > clamped)

    @settings(max_examples=200, deadline=None)
    @given(lams=st.lists(st.one_of(st.floats(1e-3, 1e3), st.floats(), st.sampled_from(
        [-0.0, 1e-300, 1e-160, 1e154, 1e308, 5e-324])), max_size=8))
    def test_points_match_the_loop_oracle(self, lams):
        # the same columns, or the same error for the same lambda, as rows built one at a time
        system = clamped_he()
        coeffs = epsilon1(system)
        try:
            expected = curve_columns(system, coeffs, lams)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as failure:
                energy_curve(system, coeffs, lams)
            assert str(failure.value) == str(exc)
        else:
            columns = energy_curve(system, coeffs, lams)
            assert [column.tolist() for column in columns] == expected
            assert [column.dtype for column in columns] == [np.float64] * 3

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive_lambda(self, lam):
        with pytest.raises(ValidationError):
            first_order_curve(clamped_he(), [lam])

    @pytest.mark.parametrize(
        "lambdas",
        [[10**400], ["abc"], [None], None, np.array([True])] + [[value] for value in NOT_NUMBERS.values()],
        ids=["huge", "text", "none", "no-grid", "boolean-array"] + [f"entry-{i}" for i in NOT_NUMBERS])
    def test_rejects_values_float_cannot_take(self, lambdas):
        with pytest.raises(ValidationError, match="^lambda values must be real numbers, got [^\n]+$"):
            first_order_curve(clamped_he(), lambdas)

    def test_takes_numpy_numbers(self):
        system = clamped_he()

        def curve(grid):
            return [column.tolist() for column in first_order_curve(system, grid)]

        expected = curve([0.5, 1.0, 2.0])
        for grid in ([np.float64(0.5), np.int64(1), 2], np.array([0.5, 1, 2], dtype=object)):
            assert curve(grid) == expected
        assert curve(np.array([1, 2])) == [column[1:] for column in expected]


class TestTurnover:
    def test_clamped_helium_turnover(self):
        system = clamped_he()
        coeffs = epsilon1(system)
        got = turnover_lambda(coeffs)
        assert got == -2.0 * coeffs.eps0 / coeffs.eps1
        assert got == pytest.approx(2.478386, abs=1e-5)

    def test_repulsive_system_has_none(self):
        system = electrons_only(2)
        coeffs = epsilon1(system)
        assert coeffs.eps1 > 0
        assert turnover_lambda(coeffs) is None


class TestNuclearMotionReport:
    def report(self):
        clamped = epsilon1(clamped_he())
        moving = epsilon1(moving_he())
        return clamped, moving, nuclear_motion_report(clamped, moving)

    def test_shift_arithmetic(self):
        clamped, moving, report = self.report()
        assert report.kinetic_shift == abs(moving.eps0 - clamped.eps0) / clamped.eps0
        assert report.potential_shift == abs(moving.eps1 - clamped.eps1) / abs(clamped.eps1)

    def test_frozen_values(self):
        _, _, report = self.report()
        assert report.kinetic_shift == pytest.approx(6.85278839959656e-05, rel=1e-9)
        assert report.potential_shift == pytest.approx(0.3272405898384195, rel=1e-9)
        assert report.dominant == "potential-dominated"

    def test_report_holds_the_shifts_only(self):
        _, _, report = self.report()
        assert type(report).__slots__ == ("kinetic_shift", "potential_shift", "dominant")

    def test_zero_interaction_rejected(self):
        e = Particle(mass=1.0, charge=-1.0)
        lone = nondimensionalize(SystemDefinition(particles=(e,), reference=0, rc_bohr=1.0))
        coeffs = epsilon1(lone)
        assert coeffs.eps1 == 0.0
        with pytest.raises(ValidationError):
            nuclear_motion_report(coeffs, coeffs)
