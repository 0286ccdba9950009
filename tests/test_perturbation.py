import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxatom import (
    ModeIndex,
    Particle,
    PerturbationCoefficients,
    SystemDefinition,
    energy_curve,
    epsilon0,
    epsilon1,
    ground_occupation,
    helium_system,
    nondimensionalize,
    nuclear_motion_report,
    turnover_lambda,
)
from boxatom.errors import UnsupportedModeError, ValidationError
from boxatom.perturbation import _DEGENERACY_RTOL

from oracles import cin_series, curve_points, s_wave_ground_is_degenerate


def electrons_only(count, rc=1.0):
    e = Particle(mass=1.0, charge=-1.0)
    return nondimensionalize(SystemDefinition(particles=(e,) * count, reference=0, rc_bohr=rc))


def clamped_he():
    return nondimensionalize(helium_system(clamped_nucleus=True))


def moving_he(nuclear_mass=7296.300):
    return nondimensionalize(helium_system(clamped_nucleus=False, nuclear_mass=nuclear_mass))


class TestGroundOccupation:
    def test_one_mode_per_free_particle(self):
        assert ground_occupation(clamped_he()) == (ModeIndex(0, 1), ModeIndex(0, 1))
        assert len(ground_occupation(moving_he())) == 3


class TestEpsilon0:
    def test_clamped_helium_is_pi_squared(self):
        system = clamped_he()
        assert epsilon0(system, ground_occupation(system)) == pytest.approx(math.pi**2, abs=1e-12)

    def test_moving_helium_adds_nuclear_mode(self):
        system = moving_he()
        got = epsilon0(system, ground_occupation(system))
        expected = math.pi**2 * (1.0 + 1.0 / (2.0 * 7296.300))
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(9.870280744, abs=1e-8)

    def test_occupation_length_checked(self):
        system = clamped_he()
        with pytest.raises(ValidationError):
            epsilon0(system, (ModeIndex(0, 1),))
        with pytest.raises(ValidationError):
            epsilon0(system, (ModeIndex(0, 1), "nope"))


class TestEpsilon1Breakdown:
    def test_clamped_helium_terms(self, table):
        system = clamped_he()
        coeffs = epsilon1(system, ground_occupation(system), table)
        labels = [t.label for t in coeffs.breakdown]
        assert labels == ["kinetic[0]", "kinetic[1]", "pair[0,1]", "central[0,2]", "central[1,2]"]
        kinds = [t.kind for t in coeffs.breakdown]
        assert kinds == ["kinetic", "kinetic", "pair", "central", "central"]
        assert [t.prefactor for t in coeffs.breakdown] == [1.0, 1.0, 1.0, -2.0, -2.0]
        for t in coeffs.breakdown:
            assert t.value == t.prefactor * t.integral
        assert sum(t.kind == "kinetic" for t in coeffs.breakdown) == 2
        assert sum(t.kind != "kinetic" for t in coeffs.breakdown) == 3

    def test_very_heavy_free_particle_does_not_break_degeneracy_search(self, table):
        # the running energy sum at the heaviest particle rounds to just below
        # zero; the search may call the occupation degenerate, but not crash
        particles = (Particle(1.0, -1.0), Particle(7.0, -1.0), Particle(1.8014398509481984e16, -1.0))
        system = nondimensionalize(SystemDefinition(particles=particles, reference=0, rc_bohr=0.5))
        try:
            epsilon1(system, ground_occupation(system), table)
        except ValidationError as exc:
            assert "degenerate" in str(exc)

    def test_clamped_helium_values(self, table):
        system = clamped_he()
        coeffs = epsilon1(system, ground_occupation(system), table)
        pair = table.pair_expectation(ModeIndex(0, 1), ModeIndex(0, 1))
        central = table.central_expectation(ModeIndex(0, 1), ModeIndex(0, 1))
        assert coeffs.eps1 == pytest.approx(pair - 4.0 * central, abs=1e-13)
        assert coeffs.eps1 == pytest.approx(-7.96454040407721, abs=1e-10)

    def test_moving_helium_values(self, table):
        system = moving_he()
        coeffs = epsilon1(system, ground_occupation(system), table)
        pair = table.pair_expectation(ModeIndex(0, 1), ModeIndex(0, 1))
        # one e-e repulsion and two e-nucleus attractions, all ground pair integrals
        assert coeffs.eps1 == pytest.approx(-3.0 * pair, abs=1e-13)
        assert coeffs.eps1 == pytest.approx(-5.35821950445506, abs=1e-10)
        assert coeffs.eps0 == pytest.approx(9.870280744194842, abs=1e-12)

    def test_hydrogen_like_attraction(self, table):
        proton = Particle(mass=1836.152673, charge=1.0, clamped=True)
        e = Particle(mass=1.0, charge=-1.0)
        system = nondimensionalize(SystemDefinition(particles=(e, proton), reference=0, rc_bohr=1.0))
        coeffs = epsilon1(system, ground_occupation(system), table)
        assert coeffs.eps1 == pytest.approx(-cin_series(2.0 * math.pi), abs=1e-9)

    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_pair_count_scales_combinatorially(self, count, table):
        system = electrons_only(count)
        coeffs = epsilon1(system, ground_occupation(system), table)
        pair = table.pair_expectation(ModeIndex(0, 1), ModeIndex(0, 1))
        expected = count * (count - 1) / 2 * pair
        assert coeffs.eps1 == pytest.approx(expected, rel=1e-14)
        assert len([t for t in coeffs.breakdown if t.kind == "pair"]) == count * (count - 1) // 2

    def test_charge_conjugation_invariance(self, table):
        base = helium_system(clamped_nucleus=True)
        flipped = SystemDefinition(
            particles=tuple(
                Particle(mass=p.mass, charge=-p.charge, clamped=p.clamped) for p in base.particles
            ),
            reference=0,
            rc_bohr=1.0,
        )
        a = epsilon1(nondimensionalize(base), (ModeIndex(0, 1), ModeIndex(0, 1)), table)
        b = epsilon1(nondimensionalize(flipped), (ModeIndex(0, 1), ModeIndex(0, 1)), table)
        assert a.eps0 == b.eps0 and a.eps1 == b.eps1

    def test_non_s_wave_occupation_rejected(self, table):
        system = clamped_he()
        with pytest.raises(UnsupportedModeError):
            epsilon1(system, (ModeIndex(1, 1), ModeIndex(0, 1)), table)

    @pytest.mark.parametrize("function", ["epsilon0", "epsilon1", "energy_curve"])
    @pytest.mark.parametrize("occupation", [
        (ModeIndex(0, 1), ModeIndex(0, 2)),  # excited s-wave
        (ModeIndex(0, 1), ModeIndex(1, 1)),  # l > 0
        (ModeIndex(0, 1), ModeIndex(0, 7)),  # 1^2 + 7^2 = 5^2 + 5^2, degenerate with (5, 5)
    ], ids=["excited", "p-wave", "degenerate"])
    def test_only_the_ground_occupation_is_served(self, function, occupation, table):
        # an excited pair of identical particles needs exchange (J +- K), not J alone
        system = electrons_only(2)
        calls = {
            "epsilon0": lambda: epsilon0(system, occupation),
            "epsilon1": lambda: epsilon1(system, occupation, table),
            "energy_curve": lambda: energy_curve(system, occupation, [1.0], table),
        }
        with pytest.raises(UnsupportedModeError, match="ground occupation only"):
            calls[function]()

    @pytest.mark.parametrize("reference", [0, 1])
    def test_very_heavy_free_particle_is_degenerate_for_any_reference(self, table, reference):
        # mode 2 of the heavy particle lies about 1.5e-16 relative above eps0,
        # inside the tolerance, whichever particle sets the scale
        particles = (Particle(1.0, -1.0), Particle(7.0, -1.0), Particle(1.8014398509481984e16, -1.0))
        system = nondimensionalize(SystemDefinition(particles=particles, reference=reference, rc_bohr=0.5))
        with pytest.raises(ValidationError, match="degenerate"):
            epsilon1(system, ground_occupation(system), table)

    def test_breakdown_sums_are_enforced(self):
        with pytest.raises(ValidationError):
            PerturbationCoefficients(eps0=1.0, eps1=0.5, breakdown=())


MASSES = st.one_of(
    st.floats(-50.0, 50.0).map(lambda e: min(max(10.0**e, 1e-50), 1e50)),
    st.sampled_from([1.0, 7.0, 206.768283, 1836.15267343]),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(masses=st.lists(MASSES, min_size=2, max_size=6))
# 3 w_min / tol is about 2.5 and 0.4: just outside the skipped band on each side
@example(masses=[1.0, 1.2e9])
@example(masses=[1.0, 7.5e9])
def test_ground_degeneracy_matches_oracle(masses, table):
    # the cheapest excitation lies 3 w_min above eps0 (units pi^2/2, w = 1/m');
    # rounding decides the band near the tolerance
    particles = tuple(Particle(mass=m, charge=-1.0) for m in masses)
    system = nondimensionalize(SystemDefinition(particles=particles, reference=0, rc_bohr=1.0))
    w = [1.0 / p.m_prime for p in system.free_particles]
    tol = _DEGENERACY_RTOL * math.fsum(w)
    if 0.5 <= 3.0 * min(w) / tol <= 2.0:
        return
    try:
        epsilon1(system, ground_occupation(system), table)
        degenerate = False
    except ValidationError as exc:
        assert "degenerate" in str(exc)
        degenerate = True
    assert degenerate is s_wave_ground_is_degenerate(w, _DEGENERACY_RTOL)


class TestClampedLimit:
    def test_heavy_nucleus_approaches_clamped_kinetics(self, table):
        clamped_eps0 = epsilon0(clamped_he(), ground_occupation(clamped_he()))
        previous = math.inf
        for mass in [1e3, 1e5, 1e7]:
            system = moving_he(nuclear_mass=mass)
            eps0 = epsilon0(system, ground_occupation(system))
            assert clamped_eps0 < eps0 < previous
            assert eps0 - clamped_eps0 == pytest.approx(math.pi**2 / (2.0 * mass), rel=1e-6)
            previous = eps0

    def test_potential_gap_does_not_close(self, table):
        # releasing the nucleus swaps central integrals for pair integrals,
        # which no nuclear mass can undo
        heavy = moving_he(nuclear_mass=1e7)
        moving = epsilon1(heavy, ground_occupation(heavy), table)
        clamped = epsilon1(clamped_he(), ground_occupation(clamped_he()), table)
        assert abs(moving.eps1 - clamped.eps1) > 2.0


class TestEnergyCurve:
    def test_energy_identity(self, table):
        system = clamped_he()
        coeffs = epsilon1(system, ground_occupation(system), table)
        points = energy_curve(system, ground_occupation(system), [0.25, 1.0, 2.0], table)
        for p in points:
            assert p.energy == coeffs.eps0 / p.lam**2 + coeffs.eps1 / p.lam
            assert p.rc_bohr == p.lam * system.length_scale_a

    def test_unit_box_value(self, table):
        system = clamped_he()
        (point,) = energy_curve(system, ground_occupation(system), [1.0], table)
        assert point.energy == pytest.approx(1.9050639970, abs=1e-6)

    def test_small_box_is_kinetic_dominated(self, table):
        system = clamped_he()
        (point,) = energy_curve(system, ground_occupation(system), [1e-4], table)
        assert point.energy * 1e-8 == pytest.approx(math.pi**2, rel=1e-4)

    def test_moving_sits_above_clamped(self, table):
        lams = [0.1, 0.5, 1.0, 2.0]
        clamped_pts = energy_curve(clamped_he(), ground_occupation(clamped_he()), lams, table)
        moving_pts = energy_curve(moving_he(), ground_occupation(moving_he()), lams, table)
        for c, m in zip(clamped_pts, moving_pts):
            assert m.energy > c.energy

    @settings(max_examples=200, deadline=None)
    @given(lams=st.lists(st.one_of(st.floats(1e-3, 1e3), st.floats(), st.sampled_from(
        [-0.0, 1e-300, 1e-160, 1e154, 1e308, 5e-324])), max_size=8))
    def test_points_match_the_loop_oracle(self, lams, table):
        # the same points, or the same error for the same lambda, as points built one at a time
        system = clamped_he()
        coeffs = epsilon1(system, ground_occupation(system), table)
        try:
            expected = curve_points(system, coeffs, lams)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as failure:
                energy_curve(system, ground_occupation(system), lams, table)
            assert str(failure.value) == str(exc)
        else:
            points = energy_curve(system, ground_occupation(system), lams, table)
            assert points == expected
            assert all(type(x) is float for p in points for x in (p.lam, p.rc_bohr, p.energy))

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive_lambda(self, lam, table):
        system = clamped_he()
        with pytest.raises(ValidationError):
            energy_curve(system, ground_occupation(system), [lam], table)


class TestTurnover:
    def test_clamped_helium_turnover(self, table):
        system = clamped_he()
        coeffs = epsilon1(system, ground_occupation(system), table)
        got = turnover_lambda(coeffs)
        assert got == -2.0 * coeffs.eps0 / coeffs.eps1
        assert got == pytest.approx(2.478386, abs=1e-5)

    def test_repulsive_system_has_none(self, table):
        system = electrons_only(2)
        coeffs = epsilon1(system, ground_occupation(system), table)
        assert coeffs.eps1 > 0
        assert turnover_lambda(coeffs) is None


class TestNuclearMotionReport:
    def report(self, table):
        clamped = epsilon1(clamped_he(), ground_occupation(clamped_he()), table)
        moving = epsilon1(moving_he(), ground_occupation(moving_he()), table)
        return clamped, moving, nuclear_motion_report(clamped, moving)

    def test_shift_arithmetic(self, table):
        clamped, moving, report = self.report(table)
        assert report.kinetic_shift == abs(moving.eps0 - clamped.eps0) / clamped.eps0
        assert report.potential_shift == abs(moving.eps1 - clamped.eps1) / abs(clamped.eps1)

    def test_frozen_values(self, table):
        _, _, report = self.report(table)
        assert report.kinetic_shift == pytest.approx(6.85278839959656e-05, rel=1e-9)
        assert report.potential_shift == pytest.approx(0.3272405898384195, rel=1e-9)
        assert report.dominant == "potential-dominated"

    def test_zero_interaction_rejected(self, table):
        e = Particle(mass=1.0, charge=-1.0)
        lone = nondimensionalize(SystemDefinition(particles=(e,), reference=0, rc_bohr=1.0))
        coeffs = epsilon1(lone, ground_occupation(lone), table)
        assert coeffs.eps1 == 0.0
        with pytest.raises(ValidationError):
            nuclear_motion_report(coeffs, coeffs)
