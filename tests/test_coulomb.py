import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from boxatom import CoulombTable, ModeIndex, PairIntegralKey, build_radial_mode, gauss_legendre, get_table, integrate_square
from boxatom.coulomb import mode_pair_index
from boxatom.errors import ConvergenceError, UnsupportedModeError, ValidationError

from oracles import cin_series

scipy_special = pytest.importorskip("scipy.special")


def mode(n, l=0):
    return ModeIndex(l, n)


def cin_scipy(x):
    # Cin(x) = gamma + ln(x) - Ci(x)
    _, ci = scipy_special.sici(x)
    return np.euler_gamma + math.log(x) - ci


class TestCentralExpectation:
    def test_ground_diagonal_is_cin_2pi(self, table):
        got = table.central_expectation(mode(1), mode(1))
        assert got == pytest.approx(cin_series(2.0 * math.pi), abs=1e-12)
        assert got == pytest.approx(cin_scipy(2.0 * math.pi), abs=1e-12)

    def test_off_diagonal_closed_form(self, table):
        # 2 sin(pi r) sin(2 pi r) / r integrates to Cin(3 pi) - Cin(pi)
        got = table.central_expectation(mode(1), mode(2))
        assert got == pytest.approx(cin_series(3.0 * math.pi) - cin_series(math.pi), abs=1e-11)

    def test_high_diagonal_frozen(self, table):
        # a float Cin series would cancel catastrophically by x = 10 pi; the
        # oracle sums in decimals, and the library function is a second route
        got = table.central_expectation(mode(5), mode(5))
        assert got == pytest.approx(cin_series(10.0 * math.pi), abs=1e-10)
        assert got == pytest.approx(cin_scipy(10.0 * math.pi), abs=1e-10)
        assert got == pytest.approx(4.025537815849732, abs=1e-9)

    def test_series_oracle_is_sane_where_used(self):
        for x in (math.pi, 2.0 * math.pi, 3.0 * math.pi):
            assert cin_series(x) == pytest.approx(cin_scipy(x), abs=1e-12)

    def test_argument_order_irrelevant(self, table):
        assert table.central_expectation(mode(1), mode(3)) == table.central_expectation(mode(3), mode(1))

    def test_l_mismatch_is_exact_zero(self, table):
        assert table.central_expectation(mode(1, l=0), ModeIndex(1, 1)) == 0.0

    def test_matching_higher_l_is_supported(self, table):
        # equal-l elements are legitimate one-particle integrals, not errors
        got = table.central_expectation(ModeIndex(1, 1), ModeIndex(1, 1))
        assert math.isfinite(got) and 0.0 < got < 4.0


class TestPairExpectation:
    def test_ground_pair_frozen(self, table):
        got = table.pair_expectation(mode(1), mode(1))
        assert got == pytest.approx(1.7860731681516866, abs=1e-10)

    def test_ground_pair_bounds(self, table):
        # 1/|r1 - r2| >= 1/max <= ... the mean sits between 1 and the unscreened central value
        got = table.pair_expectation(mode(1), mode(1))
        assert 1.0 < got < 2.0 * cin_series(2.0 * math.pi)

    def test_mixed_pair_frozen(self, table):
        got = table.pair_expectation(mode(1), mode(2))
        assert got == pytest.approx(1.7803272473469034, abs=1e-10)

    def test_symmetric_in_occupants(self, table):
        assert table.pair_expectation(mode(1), mode(2)) == table.pair_expectation(mode(2), mode(1))

    def test_non_s_wave_rejected(self, table):
        with pytest.raises(UnsupportedModeError):
            table.pair_expectation(ModeIndex(1, 1), mode(1))


class TestSlaterRadial:
    def test_diagonal_matches_pair(self, table):
        key = PairIntegralKey(bra=(mode(1), mode(1)), ket=(mode(1), mode(1)))
        assert table.slater_radial(key) == table.pair_expectation(mode(1), mode(1))

    def test_exchange_like_frozen(self, table):
        key = PairIntegralKey(bra=(mode(1), mode(1)), ket=(mode(2), mode(2)))
        assert table.slater_radial(key) == pytest.approx(0.2801282906379428, abs=1e-10)

    def test_symmetry_group(self, table):
        # invariant under bra/ket swap within each slot and under slot exchange
        for a in range(1, 4):
            for b in range(1, 4):
                for c in range(1, 4):
                    for d in range(1, 4):
                        base = table.slater_radial(PairIntegralKey(bra=(mode(a), mode(b)), ket=(mode(c), mode(d))))
                        swapped_within = table.slater_radial(PairIntegralKey(bra=(mode(c), mode(d)), ket=(mode(a), mode(b))))
                        swapped_slots = table.slater_radial(PairIntegralKey(bra=(mode(b), mode(a)), ket=(mode(d), mode(c))))
                        assert base == swapped_within == swapped_slots

    def test_against_direct_square_quadrature(self, table):
        # independent route: assemble the kernel on the full square at a
        # different resolution and integrate without any of the table caching
        ua, ub, uc, ud = (build_radial_mode(mode(n)) for n in (1, 2, 1, 3))

        def kernel(r1, r2):
            return ua(r1) * uc(r1) * ub(r2) * ud(r2) / np.maximum(r1, r2)

        direct = integrate_square(kernel, gauss_legendre(320))
        key = PairIntegralKey(bra=(mode(1), mode(2)), ket=(mode(1), mode(3)))
        assert table.slater_radial(key) == pytest.approx(direct, abs=1e-10)

    def test_multipole_beyond_monopole_rejected(self, table):
        with pytest.raises(UnsupportedModeError):
            table.slater_radial(PairIntegralKey(bra=(mode(1), mode(1)), ket=(mode(1), mode(1)), multipole=1))

    def test_key_validation(self):
        with pytest.raises(ValidationError):
            PairIntegralKey(bra=(mode(1),), ket=(mode(1), mode(1)))


class TestSWaveBlock:
    NMAX = 8

    def test_central_matches_cin_closed_form(self, table):
        # u_a u_c = cos(|a-c| pi r) - cos((a+c) pi r), so C = Cin((a+c)pi) - Cin(|a-c|pi)
        central, _ = table.s_wave_block(self.NMAX)
        for a in range(1, self.NMAX + 1):
            for c in range(1, self.NMAX + 1):
                exact = cin_series((a + c) * math.pi) - cin_series(abs(a - c) * math.pi)
                assert central[a - 1, c - 1] == pytest.approx(exact, abs=1e-12)

    def test_slater_matches_single_integrals(self, table):
        _, slater = table.s_wave_block(self.NMAX)
        index = mode_pair_index(self.NMAX)
        pairs = [(a, c) for a in range(1, self.NMAX + 1) for c in range(a, self.NMAX + 1)]
        assert sorted(index[a - 1, c - 1] for a, c in pairs) == list(range(len(pairs)))
        assert slater.shape == (len(pairs), len(pairs))
        for a, c in pairs:
            for b, d in pairs:
                key = PairIntegralKey(bra=(mode(a), mode(b)), ket=(mode(c), mode(d)))
                got = slater[index[a - 1, c - 1], index[b - 1, d - 1]]
                assert got == pytest.approx(table.slater_radial(key), abs=1e-13)

    def test_symmetric_cached_and_read_only(self, table):
        central, slater = table.s_wave_block(self.NMAX)
        np.testing.assert_array_equal(central, central.T)
        np.testing.assert_array_equal(slater, slater.T)
        again = table.s_wave_block(self.NMAX)
        assert again[0] is central and again[1] is slater
        with pytest.raises(ValueError):
            slater[0, 0] = 0.0

    def test_underresolved_block_names_both_grids(self):
        with pytest.raises(ConvergenceError) as err:
            CoulombTable(points=16).s_wave_block(10)
        message = str(err.value)
        assert "16" in message and "32" in message and "nmax=10" in message

    @pytest.mark.parametrize("nmax", [0, -1, 2.0, True])
    def test_bad_nmax(self, nmax, table):
        with pytest.raises(ValidationError):
            table.s_wave_block(nmax)


class TestResolutionGuard:
    def test_underresolved_high_mode_raises(self):
        coarse = CoulombTable(points=16)
        with pytest.raises(ConvergenceError) as err:
            coarse.pair_expectation(mode(8), mode(8))
        message = str(err.value)
        assert "16" in message and "32" in message

    def test_ground_modes_fine_even_when_coarse(self):
        coarse = CoulombTable(points=16)
        got = coarse.pair_expectation(mode(1), mode(1))
        assert got == pytest.approx(1.7860731681516866, abs=1e-9)

    @pytest.mark.parametrize("points", [8, 15, 513, 1000, 32.0, True])
    def test_point_budget_enforced(self, points):
        with pytest.raises(ValidationError):
            CoulombTable(points=points)


class TestCaching:
    def test_get_table_is_cached(self):
        assert get_table(128) is get_table(128)
        assert get_table(128) is not get_table(64)

    def test_results_stable_across_instances(self, table):
        fresh = CoulombTable(points=200)
        assert fresh.pair_expectation(mode(1), mode(2)) == table.pair_expectation(mode(1), mode(2))

    def test_thread_smoke(self, table):
        keys = [(a, b) for a in range(1, 5) for b in range(1, 5)]

        def work(pair):
            a, b = pair
            return table.pair_expectation(mode(a), mode(b))

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, keys * 4))
        serial = [work(pair) for pair in keys * 4]
        assert results == serial
