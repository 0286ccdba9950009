import math

import numpy as np
import pytest

from boxatom import ModeIndex, RadialMode, bessel_zero, build_radial_mode, gauss_legendre, integrate, mode_energy
from boxatom.errors import UnsupportedModeError, ValidationError

from oracles import bisect, j1_closed

scipy_special = pytest.importorskip("scipy.special")


class TestModeIndex:
    def test_fields_and_ordering(self):
        idx = ModeIndex(l=0, n=1)
        assert (idx.l, idx.n) == (0, 1)
        assert ModeIndex(0, 1) < ModeIndex(0, 2) < ModeIndex(1, 1)

    @pytest.mark.parametrize("l,n", [(-1, 1), (0, 0), (0, -2), (1.5, 1), (0, 1.0), (True, 1), (0, True)])
    def test_invalid_indices(self, l, n):
        with pytest.raises(ValidationError):
            ModeIndex(l, n)


class TestSphericalBessel:
    def test_matches_scipy_on_grid(self):
        # u_{0,n}(r) = sqrt(2) n pi r j_0(n pi r)
        r = np.linspace(1e-3, 1.0, 301)
        for n in range(1, 10):
            x = n * math.pi * r
            ref = math.sqrt(2.0) * x * scipy_special.spherical_jn(0, x)
            got = build_radial_mode(ModeIndex(0, n))(r)
            np.testing.assert_allclose(got, ref, atol=1e-12, rtol=1e-12)

    def test_small_argument_series(self):
        # leading behavior u_{0,n}(r) ~ sqrt(2) n pi r
        r = 1e-5
        for n in (1, 2, 7):
            leading = math.sqrt(2.0) * n * math.pi * r
            assert build_radial_mode(ModeIndex(0, n))(r) == pytest.approx(leading, rel=1e-7)

    def test_scalar_passthrough(self):
        out = build_radial_mode(ModeIndex(0, 1))(0.5)
        assert isinstance(out, float)
        assert out == pytest.approx(math.sqrt(2.0), abs=1e-15)


class TestZeros:
    def test_l0_zeros_are_multiples_of_pi(self):
        for n in range(1, 49):
            assert bessel_zero(0, n) == n * math.pi

    def test_l1_first_zero(self):
        assert bessel_zero(1, 1) == pytest.approx(4.493409457909064, abs=1e-10)

    def test_l1_zeros_against_bisection(self):
        for n in range(1, 11):
            oracle = bisect(j1_closed, n * math.pi, (n + 0.5) * math.pi)
            assert bessel_zero(1, n) == pytest.approx(oracle, abs=1e-10)

    def test_zeros_interlace(self):
        for n in range(1, 49):
            assert bessel_zero(0, n) < bessel_zero(1, n) < bessel_zero(0, n + 1)

    def test_zeros_actually_vanish(self):
        for n in range(1, 6):
            x = bessel_zero(0, n)
            assert abs(math.sin(x) / x) < 1e-12
            assert abs(j1_closed(bessel_zero(1, n))) < 1e-12

    @pytest.mark.parametrize("l", [0, 1])
    def test_zero_beyond_the_float_range_is_refused(self, l):
        # n pi overflows above about 5.7e307; (n + 1/2) pi, where Newton starts, at the same n
        assert math.isfinite(bessel_zero(l, 5 * 10**307))
        with pytest.raises(ValidationError,
                           match=rf"^the zero of j_{l} at mode n = 1e\+308 is beyond the float range$"):
            bessel_zero(l, 10**308)


class TestModeEnergy:
    def test_ground_sphere_mode(self):
        assert mode_energy(ModeIndex(0, 1), 1.0) == pytest.approx(math.pi**2 / 2.0, abs=1e-13)

    def test_heavy_particle_scaling(self):
        light = mode_energy(ModeIndex(0, 1), 1.0)
        heavy = mode_energy(ModeIndex(0, 1), 7296.300)
        assert heavy == pytest.approx(light / 7296.300, rel=1e-15)

    def test_second_mode(self):
        assert mode_energy(ModeIndex(0, 2), 1.0) == pytest.approx(2.0 * math.pi**2, abs=1e-12)

    @pytest.mark.parametrize("mass", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_mass(self, mass):
        with pytest.raises(ValidationError):
            mode_energy(ModeIndex(0, 1), mass)

    @pytest.mark.parametrize("index, mass", [(ModeIndex(0, 10**308), 1.0), (ModeIndex(1, 10**308), 1.0),
                                             (ModeIndex(0, 10**200), 1.0), (ModeIndex(1, 1), 1e-320)])
    def test_energy_beyond_the_float_range_is_refused(self, index, mass):
        with pytest.raises(ValidationError, match="^the [^\n]+ beyond the float range$"):
            mode_energy(index, mass)


class TestRadialModes:
    def test_ground_mode_closed_form(self):
        u = build_radial_mode(ModeIndex(0, 1))
        r = np.linspace(0.01, 0.99, 25)
        np.testing.assert_allclose(u(r), math.sqrt(2.0) * np.sin(math.pi * r), atol=1e-14)
        assert u(0.5) == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_vanishes_at_wall(self):
        for index in [ModeIndex(0, 1), ModeIndex(0, 4), ModeIndex(0, 9)]:
            assert abs(build_radial_mode(index)(1.0)) < 1e-12

    def test_vanishes_at_origin(self):
        for index in [ModeIndex(0, 1), ModeIndex(0, 2), ModeIndex(0, 9)]:
            assert abs(build_radial_mode(index)(0.0)) < 1e-14

    def test_small_radius_behaves_like_power_law(self):
        u = build_radial_mode(ModeIndex(0, 3))
        vals = u(np.array([1e-6, 1e-8]))
        assert np.all(np.isfinite(vals))
        assert vals[0] > 0 and vals[1] > 0
        # u ~ r^(l+1) near the origin, so the ratio tracks r1/r2
        assert vals[0] / vals[1] == pytest.approx(1e2, rel=1e-8)

    def test_orthonormality(self):
        rule = gauss_legendre(200)
        modes = [build_radial_mode(ModeIndex(0, n)) for n in range(1, 7)]
        for i, ui in enumerate(modes):
            for j, uj in enumerate(modes):
                overlap = integrate(lambda r: ui(r) * uj(r), 0.0, 1.0, rule)
                expected = 1.0 if i == j else 0.0
                assert overlap == pytest.approx(expected, abs=1e-10)

    def test_evaluation_takes_real_numbers_and_real_arrays(self):
        u = build_radial_mode(ModeIndex(0, 1))
        assert u(np.float32(0.5)) == u(0.5) == u(np.array(0.5))
        assert u(1) == u(np.int64(1)) == u(1.0)
        grid = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        np.testing.assert_array_equal(u(grid), math.sqrt(2.0) * np.sin(math.pi * grid))
        np.testing.assert_array_equal(u(np.array([0, 1])), u(np.array([0.0, 1.0])))
        # test_numbers.py refuses each of NOT_NUMBERS as r
        for bad in ([0.5], math.nan):
            with pytest.raises(ValidationError, match="^radius r must be [^\n]+$"):
                u(bad)
        for bad in (np.array([True]), np.array(["0.5"]), np.array([0.5], dtype=object)):
            with pytest.raises(ValidationError, match="^radius r must be a real number or an int or float array"):
                u(bad)

    def test_radial_mode_fields(self):
        u = build_radial_mode(ModeIndex(0, 2))
        assert isinstance(u, RadialMode)
        assert u == RadialMode(ModeIndex(0, 2))
        assert type(u).__slots__ == ("index",)


class TestUnsupportedOrders:
    @pytest.mark.parametrize("call", [
        lambda: mode_energy(ModeIndex(2, 3), 0.5),
        lambda: bessel_zero(2, 1),
        lambda: mode_energy(ModeIndex(2, 1), 1.0),
    ])
    def test_l2_is_unsupported(self, call):
        with pytest.raises(UnsupportedModeError, match="l <= 1"):
            call()

    @pytest.mark.parametrize("l", [1, 2])
    def test_radial_mode_is_s_wave_only(self, l):
        with pytest.raises(UnsupportedModeError, match="l = 0 only"):
            build_radial_mode(ModeIndex(l, 1))

    @pytest.mark.parametrize("l", [-1, 1.0, True])
    def test_bad_order_is_a_validation_error(self, l):
        with pytest.raises(ValidationError):
            bessel_zero(l, 1)
