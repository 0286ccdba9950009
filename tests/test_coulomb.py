import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from boxatom import CoulombTable, ModeIndex, PairIntegralKey, build_radial_mode, ci, coulomb, gauss_legendre, get_table, integrate_square
from boxatom.coulomb import mode_pair_index
from boxatom.errors import ConvergenceError, UnsupportedModeError, ValidationError

from oracles import cin_series, si_series

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

    def test_si_series_oracle_matches_scipy(self):
        for k in range(1, 17):
            x = k * math.pi
            si, _ = scipy_special.sici(x)
            assert si_series(x) == pytest.approx(si, abs=1e-12)

    def test_argument_order_irrelevant(self, table):
        assert table.central_expectation(mode(1), mode(3)) == table.central_expectation(mode(3), mode(1))

    def test_l_mismatch_is_exact_zero(self, table):
        # every integral follows one s-wave rule: an l > 0 mode is unsupported
        with pytest.raises(UnsupportedModeError):
            table.central_expectation(mode(1, l=0), ModeIndex(1, 1))

    def test_matching_higher_l_is_supported(self, table):
        with pytest.raises(UnsupportedModeError):
            table.central_expectation(ModeIndex(1, 1), ModeIndex(1, 1))


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


class TestClosedForms:
    JMAX = 4 * ci.MAX_NMAX

    def test_tables_match_scipy(self):
        si, cin = coulomb._si_cin_pi(self.JMAX)
        assert si[0] == cin[0] == 0.0
        for j in range(1, self.JMAX + 1):
            x = j * math.pi
            assert si[j] == pytest.approx(scipy_special.sici(x)[0], abs=1e-13)
            assert cin[j] == pytest.approx(cin_scipy(x), abs=1e-13)

    def test_tables_match_series_oracles(self):
        # the 60-digit series lose accuracy far beyond 16 pi
        si, cin = coulomb._si_cin_pi(16)
        for j in range(1, 17):
            assert si[j] == pytest.approx(si_series(j * math.pi), abs=1e-13)
            assert cin[j] == pytest.approx(cin_series(j * math.pi), abs=1e-13)

    def test_tables_grow_without_changing_entries(self):
        short, long = coulomb._si_cin_pi(8), coulomb._si_cin_pi(300)
        assert len(short[0]) == 65 and len(long[0]) == 513
        for a, b in zip(short, long):
            np.testing.assert_array_equal(a, b[: len(a)])

    def test_tables_not_built_at_import(self):
        code = ("import boxatom.cli, boxatom.coulomb as c; "
                "assert c._si_cin_table.cache_info().currsize == 0")
        src = os.path.dirname(os.path.dirname(coulomb.__file__))
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})

    def test_block_matches_quadrature(self, table):
        nmax = 24
        first, second = np.triu_indices(nmax)
        central, slater = coulomb._closed_forms(second - first, first + second + 2)
        got_central, got_slater = table.s_wave_block(nmax)
        np.testing.assert_allclose(got_central[first, second], central, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_slater, slater, rtol=0, atol=1e-12)

    def test_pair_closed_form(self):
        # pair(1,1) = 2 - [Si(2pi) - Si(4pi)/2]/pi, from u_1^2 = 1 - cos(2 pi r)
        _, slater = coulomb._closed_forms(np.array([0]), np.array([2]))
        exact = 2.0 - (si_series(2.0 * math.pi) - si_series(4.0 * math.pi) / 2.0) / math.pi
        assert slater[0, 0] == pytest.approx(exact, abs=1e-14)

    @pytest.mark.parametrize("part,entry,label", [
        (0, (2, 5), "modes 3 and 6"),
        (1, (3, 7), "mode pairs (1, 4) and (1, 8)"),
    ])
    def test_block_check_names_one_perturbed_entry(self, monkeypatch, part, entry, label):
        build = coulomb._Grid.s_wave_block

        def tampered(grid, nmax):
            block = build(grid, nmax)
            block[part][entry] += 1e-8
            return block

        monkeypatch.setattr(coulomb._Grid, "s_wave_block", tampered)
        with pytest.raises(ConvergenceError) as err:
            CoulombTable(200).s_wave_block(8)
        message = str(err.value)
        assert label in message and "closed form" in message and "nmax=8" in message

    @pytest.mark.parametrize("method,call", [
        ("central", lambda t: t.central_expectation(mode(2), mode(3))),
        ("slater", lambda t: t.pair_expectation(mode(1), mode(2))),
    ])
    def test_single_check_catches_perturbation(self, monkeypatch, method, call):
        # a single integral is an entry of its block, so the block check guards it
        part = ("central", "slater").index(method)
        build = coulomb._Grid.s_wave_block

        def tampered(grid, nmax):
            block = build(grid, nmax)
            block[part][...] += 1e-8
            return block

        monkeypatch.setattr(coulomb._Grid, "s_wave_block", tampered)
        with pytest.raises(ConvergenceError, match="closed form"):
            call(CoulombTable(200))

    def test_s_wave_paths_never_build_the_doubled_rule(self, monkeypatch):
        sizes = []
        rule = coulomb.gauss_legendre
        monkeypatch.setattr(coulomb, "gauss_legendre", lambda n: sizes.append(n) or rule(n))
        fresh = CoulombTable(200)
        fresh.s_wave_block(6)
        fresh.central_expectation(mode(2), mode(3))
        fresh.pair_expectation(mode(1), mode(4))
        assert 200 in sizes and 400 not in sizes


class TestSingleFromBlock:
    def test_single_equals_block_entry_at_its_largest_mode(self):
        fresh = CoulombTable(200)
        key = PairIntegralKey(bra=(mode(1), mode(3)), ket=(mode(2), mode(4)))
        index = mode_pair_index(4)
        assert fresh.slater_radial(key) == fresh.s_wave_block(4)[1][index[0, 1], index[2, 3]]
        index = mode_pair_index(3)
        assert fresh.pair_expectation(mode(2), mode(3)) == fresh.s_wave_block(3)[1][index[1, 1], index[2, 2]]
        assert fresh.central_expectation(mode(3), mode(1)) == fresh.s_wave_block(3)[0][2, 0]

    def test_single_never_reads_a_larger_block(self):
        # a larger block may differ in the last bits, so a single value must
        # not depend on which blocks the table built before
        fresh, warmed = CoulombTable(200), CoulombTable(200)
        warmed.s_wave_block(24)
        assert fresh.pair_expectation(mode(1), mode(2)) == warmed.pair_expectation(mode(1), mode(2))
        key = PairIntegralKey(bra=(mode(1), mode(1)), ket=(mode(1), mode(2)))
        assert fresh.slater_radial(key) == warmed.slater_radial(key)
        assert fresh.central_expectation(mode(1), mode(2)) == warmed.central_expectation(mode(1), mode(2))

    def test_mode_pair_index_is_shared_and_read_only(self):
        index = mode_pair_index(5)
        assert mode_pair_index(5) is index
        with pytest.raises(ValueError):
            index[0, 0] = 1

    @pytest.mark.parametrize("bad", [coulomb.MAX_NMAX + 1, 0, True, 2.0])
    def test_mode_pair_index_checks_nmax(self, bad):
        mode_pair_index(1), mode_pair_index(2)  # cached entries must not answer True or 2.0
        with pytest.raises(ValidationError, match="nmax"):
            mode_pair_index(bad)

    def test_nmax_bound_checked_before_any_build(self, monkeypatch):
        # a mode number far beyond the bound must not even size an index array;
        # the spies only record, so a wrong order cannot allocate anything
        built = []
        monkeypatch.setattr(coulomb._Grid, "s_wave_block", lambda grid, nmax: built.append(nmax))
        monkeypatch.setattr(coulomb, "mode_pair_index", lambda nmax: built.append(nmax))
        fresh = CoulombTable(200)
        with pytest.raises(ValidationError, match="nmax"):
            fresh.s_wave_block(coulomb.MAX_NMAX + 1)
        with pytest.raises(ValidationError, match="nmax"):
            fresh.pair_expectation(mode(coulomb.MAX_NMAX + 1), mode(1))
        with pytest.raises(ValidationError, match="nmax"):
            fresh.slater_radial(PairIntegralKey(bra=(mode(1), mode(1)), ket=(mode(10**9), mode(1))))
        with pytest.raises(ValidationError, match="nmax"):
            fresh.central_expectation(mode(1), mode(coulomb.MAX_NMAX + 1))
        assert built == []
        assert ci.MAX_NMAX == coulomb.MAX_NMAX == 48


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
