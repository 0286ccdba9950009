import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from boxatom import (
    ModeIndex,
    build_radial_mode,
    coulomb,
    gauss_legendre,
)
from boxatom.coulomb import ground_integrals, mode_pair_index, s_wave_block
from boxatom.errors import ConvergenceError, ValidationError

from oracles import cin_series, closed_forms, integrate_square, s_wave_block_whole_grid, si_series, triangle_grid

scipy_special = pytest.importorskip("scipy.special")


def mode(n):
    return ModeIndex(0, n)


def r0(a, b, c, d):
    # R0(ab;cd), coordinate 1 coupling a with c and coordinate 2 b with d, read
    # from the block whose nmax is its largest mode number
    nmax = max(a, b, c, d)
    index = mode_pair_index(nmax)
    return s_wave_block(nmax)[1][index[a - 1, c - 1], index[b - 1, d - 1]]


def central(a, c):
    # int u_a u_c / r, read from the block whose nmax is the larger mode number
    return s_wave_block(max(a, c))[0][a - 1, c - 1]


def pair(a, b):
    # R0(ab;ab): u_a^2 and u_b^2 against 1/max(r1, r2)
    return r0(a, b, a, b)


def cin_scipy(x):
    # Cin(x) = gamma + ln(x) - Ci(x)
    _, ci = scipy_special.sici(x)
    return np.euler_gamma + math.log(x) - ci


class TestCentralExpectation:
    def test_ground_diagonal_is_cin_2pi(self):
        got, _ = ground_integrals()
        assert got == pytest.approx(cin_series(2.0 * math.pi), abs=1e-12)
        assert got == pytest.approx(cin_scipy(2.0 * math.pi), abs=1e-12)

    def test_off_diagonal_closed_form(self):
        # 2 sin(pi r) sin(2 pi r) / r integrates to Cin(3 pi) - Cin(pi)
        got = central(1, 2)
        assert got == pytest.approx(cin_series(3.0 * math.pi) - cin_series(math.pi), abs=1e-11)

    def test_high_diagonal_frozen(self):
        # a float Cin series would cancel catastrophically by x = 10 pi; the
        # oracle sums in decimals, and the library function is a second route
        got = central(5, 5)
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

    def test_argument_order_irrelevant(self):
        assert central(1, 3) == central(3, 1)


class TestPairExpectation:
    def test_ground_pair_frozen(self):
        _, got = ground_integrals()
        assert got == pytest.approx(1.7860731681516866, abs=1e-10)

    def test_ground_pair_bounds(self):
        # 1/|r1 - r2| >= 1/max <= ... the mean sits between 1 and the unscreened central value
        _, got = ground_integrals()
        assert 1.0 < got < 2.0 * cin_series(2.0 * math.pi)

    def test_mixed_pair_frozen(self):
        got = pair(1, 2)
        assert got == pytest.approx(1.7803272473469034, abs=1e-10)

    def test_symmetric_in_occupants(self):
        assert pair(1, 2) == pair(2, 1)


class TestSlaterRadial:
    def test_diagonal_matches_pair(self):
        assert r0(1, 1, 1, 1) == ground_integrals()[1]

    def test_exchange_like_frozen(self):
        assert r0(1, 1, 2, 2) == pytest.approx(0.2801282906379428, abs=1e-10)

    def test_symmetry_group(self):
        # invariant under bra/ket swap within each slot and under slot exchange
        for a in range(1, 4):
            for b in range(1, 4):
                for c in range(1, 4):
                    for d in range(1, 4):
                        base = r0(a, b, c, d)
                        swapped_within = r0(c, d, a, b)
                        swapped_slots = r0(b, a, d, c)
                        assert base == swapped_within == swapped_slots

    def test_against_direct_square_quadrature(self):
        # independent route: assemble the kernel on the full square at a
        # different resolution and integrate without any of the block's streaming
        ua, ub, uc, ud = (build_radial_mode(mode(n)) for n in (1, 2, 1, 3))

        def kernel(r1, r2):
            return ua(r1) * uc(r1) * ub(r2) * ud(r2) / np.maximum(r1, r2)

        direct = integrate_square(kernel, gauss_legendre(320))
        assert r0(1, 2, 1, 3) == pytest.approx(direct, abs=1e-10)


class TestSWaveBlock:
    NMAX = 8

    def test_central_matches_cin_closed_form(self):
        # u_a u_c = cos(|a-c| pi r) - cos((a+c) pi r), so C = Cin((a+c)pi) - Cin(|a-c|pi)
        central, _ = s_wave_block(self.NMAX)
        for a in range(1, self.NMAX + 1):
            for c in range(1, self.NMAX + 1):
                exact = cin_series((a + c) * math.pi) - cin_series(abs(a - c) * math.pi)
                assert central[a - 1, c - 1] == pytest.approx(exact, abs=1e-12)

    def test_slater_matches_single_integrals(self):
        _, block = s_wave_block(self.NMAX)
        index = mode_pair_index(self.NMAX)
        pairs = [(a, c) for a in range(1, self.NMAX + 1) for c in range(a, self.NMAX + 1)]
        assert sorted(index[a - 1, c - 1] for a, c in pairs) == list(range(len(pairs)))
        assert block.shape == (len(pairs), len(pairs))
        # each entry agrees with the same integral in the smaller block of its largest mode number
        for a, c in pairs:
            for b, d in pairs:
                got = block[index[a - 1, c - 1], index[b - 1, d - 1]]
                assert got == pytest.approx(r0(a, b, c, d), abs=1e-13)

    def test_symmetric_rebuilt_and_read_only(self):
        central, slater = s_wave_block(self.NMAX)
        np.testing.assert_array_equal(central, central.T)
        np.testing.assert_array_equal(slater, slater.T)
        # every call builds its own block, with the same bits
        again = s_wave_block(self.NMAX)
        assert again[0] is not central and again[1] is not slater
        np.testing.assert_array_equal(again[0], central)
        np.testing.assert_array_equal(again[1], slater)
        with pytest.raises(ValueError):
            slater[0, 0] = 0.0

    def test_underresolved_block_names_both_grids(self):
        with pytest.raises(ConvergenceError) as err:
            s_wave_block(10, 16)
        message = str(err.value)
        assert "16" in message and "32" in message and "nmax=10" in message

    @pytest.mark.parametrize("nmax", [0, -1, 2.0, True])
    def test_bad_nmax(self, nmax):
        with pytest.raises(ValidationError):
            s_wave_block(nmax)


class TestClosedForms:
    JMAX = 4 * coulomb.MAX_NMAX

    def test_tables_match_scipy(self):
        si, cin = coulomb._si_cin_pi()
        assert si[0] == cin[0] == 0.0
        for j in range(1, self.JMAX + 1):
            x = j * math.pi
            assert si[j] == pytest.approx(scipy_special.sici(x)[0], abs=1e-13)
            assert cin[j] == pytest.approx(cin_scipy(x), abs=1e-13)

    def test_tables_match_series_oracles(self):
        # the 60-digit series lose accuracy far beyond 16 pi
        si, cin = coulomb._si_cin_pi()
        for j in range(1, 17):
            assert si[j] == pytest.approx(si_series(j * math.pi), abs=1e-13)
            assert cin[j] == pytest.approx(cin_series(j * math.pi), abs=1e-13)

    def test_tables_reach_the_largest_index_closed_forms_read(self):
        # at nmax = MAX_NMAX, q = a + c reaches 2 MAX_NMAX and the kernel reads Si at 2 q
        first, second = np.triu_indices(coulomb.MAX_NMAX)
        largest = 2 * int((first + second + 2).max())
        assert largest == 4 * coulomb.MAX_NMAX
        assert all(len(table) == largest + 1 for table in coulomb._si_cin_pi())

    def test_tables_not_built_at_import(self):
        code = ("import boxatom.cli, boxatom.coulomb as c; "
                "assert c._si_cin_pi.cache_info().currsize == 0")
        src = os.path.dirname(os.path.dirname(coulomb.__file__))
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})

    def test_block_matches_quadrature(self):
        nmax = 24
        first, second = np.triu_indices(nmax)
        central, slater = closed_forms(second - first, first + second + 2)
        got_central, got_slater = s_wave_block(nmax)
        np.testing.assert_allclose(got_central[first, second], central, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_slater, slater, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("points", [200, 512])
    def test_profile_recurrence_tracks_the_sine(self, points):
        # each u_n is within n^2 eps of sqrt(2) sin(n pi r) on the outer and the inner grid
        r1, _, r2, _ = triangle_grid(gauss_legendre(points))
        n = np.arange(1, 49)
        for r in (r1, r2):
            got = coulomb._s_wave_profiles(r, 48)
            exact = np.stack([math.sqrt(2.0) * np.sin(k * np.pi * r) for k in n])
            gap = np.abs(got - exact).reshape(len(n), -1).max(axis=1)
            assert np.all(gap <= n**2 * np.finfo(float).eps)
            # u_1 is the sine itself, so the nmax-1 block keeps its bits
            np.testing.assert_array_equal(got[0], math.sqrt(2.0) * np.sin(1 * math.pi * r))

    def test_finest_block_matches_closed_forms(self):
        nmax = coulomb.MAX_NMAX
        first, second = np.triu_indices(nmax)
        central, slater = closed_forms(second - first, first + second + 2)
        got_central, got_slater = coulomb._quadrature_block(512, nmax)
        np.testing.assert_allclose(got_central[first, second], central, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_slater, slater, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("points,nmax", [
        (points, nmax) for points in (16, 200, 512) for nmax in (1, 2, 12)]
        + [(200, 24), (200, 48), (100, 24), (333, 7)])
    def test_streamed_block_is_bit_identical_to_whole_grid(self, points, nmax):
        # the printed 10-digit outputs depend on these bits
        for got, want in zip(coulomb._quadrature_block(points, nmax),
                             s_wave_block_whole_grid(points, nmax)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("points,nmax", [(512, 12), (200, 24)])
    def test_block_scratch_memory_is_small(self, points, nmax):
        # a whole points x points inner grid with its 64-row batches peaked
        # at 7.5 MB (512, 12) and 6.5 MB (200, 24)
        gauss_legendre(points)  # the rule is cached; only the block's scratch is measured
        tracemalloc.start()
        try:
            coulomb._quadrature_block(points, nmax)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_largest_block_memory_is_small(self):
        # the whole exact Slater matrix and its four gathers peaked at 42.3 MiB
        gauss_legendre(200)
        coulomb._si_cin_pi()  # both cached; only the block and its check are measured
        tracemalloc.start()
        try:
            s_wave_block(coulomb.MAX_NMAX, 200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 26 * 2**20

    @pytest.mark.parametrize("nmax", [1, 2, 12, 48])
    def test_closed_form_bands_are_bit_identical_to_the_whole_matrix(self, nmax):
        first, second = np.triu_indices(nmax)
        p, q = second - first, first + second + 2
        rows = coulomb._closed_form_rows(p, q)
        whole = closed_forms(p, q)[1]
        for band in (1, 7, coulomb._CHECK_ROWS):
            got = np.concatenate([rows(slice(start, start + band)) for start in range(0, len(p), band)])
            np.testing.assert_array_equal(got, whole)

    def test_pair_closed_form(self):
        # pair(1,1) = 2 - [Si(2pi) - Si(4pi)/2]/pi, from u_1^2 = 1 - cos(2 pi r)
        _, slater = closed_forms(np.array([0]), np.array([2]))
        exact = 2.0 - (si_series(2.0 * math.pi) - si_series(4.0 * math.pi) / 2.0) / math.pi
        assert slater[0, 0] == pytest.approx(exact, abs=1e-14)

    @pytest.mark.parametrize("part,entry,label", [
        (0, (2, 5), "modes 3 and 6"),
        (1, (3, 7), "mode pairs (1, 4) and (1, 8)"),
    ])
    def test_block_check_names_one_perturbed_entry(self, monkeypatch, part, entry, label):
        build = coulomb._quadrature_block

        def tampered(points, nmax):
            block = build(points, nmax)
            block[part][entry] += 1e-8
            return block

        monkeypatch.setattr(coulomb, "_quadrature_block", tampered)
        with pytest.raises(ConvergenceError) as err:
            s_wave_block(8, 200)
        message = str(err.value)
        assert label in message and "closed form" in message and "nmax=8" in message

    @pytest.mark.parametrize("rows", [coulomb._CHECK_ROWS, 5])
    @pytest.mark.parametrize("case,entry", [
        ("last band", (77, 3)),
        # the first NaN wins over a far larger finite gap and a later NaN
        ("nan", (76, 5)),
        # equal gaps in two bands: the first in row order is named
        ("tie", (2, 40)),
    ])
    def test_banded_check_names_the_whole_matrix_argmax(self, monkeypatch, rows, case, entry):
        nmax = 12  # 78 mode pairs, so the last band starts at row 64
        first, second = np.triu_indices(nmax)
        _, exact = closed_forms(second - first, first + second + 2)
        central, slater = coulomb._quadrature_block(200, nmax)
        if case == "last band":
            slater[77, 3] += 1e-8
        elif case == "nan":
            slater[0, 0] += 1.0
            slater[76, 5] = slater[77, 2] = np.nan
        else:
            for i, j in ((2, 40), (77, 1)):
                slater[i, j] = exact[i, j] + 2.0**-20
        gap = np.abs(slater - exact)
        i, j = np.unravel_index(np.argmax(gap), gap.shape)
        assert (i, j) == entry
        pairs = list(zip((first + 1).tolist(), (second + 1).tolist()))
        with pytest.raises(ConvergenceError) as want:
            coulomb._checked(200, f"Slater integral for mode pairs {pairs[i]} and {pairs[j]} (nmax={nmax} block)",
                             float(slater[i, j]), float(exact[i, j]))
        monkeypatch.setattr(coulomb, "_CHECK_ROWS", rows)
        monkeypatch.setattr(coulomb, "_quadrature_block", lambda points, n: (central, slater))
        with pytest.raises(ConvergenceError) as got:
            s_wave_block(nmax, 200)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("method,call", [
        ("central", lambda: ground_integrals(200)[0]),
        ("slater", lambda: ground_integrals(200)[1]),
    ])
    def test_single_check_catches_perturbation(self, monkeypatch, method, call):
        # the ground integrals are entries of the nmax-1 block, so the block check guards them
        part = ("central", "slater").index(method)
        build = coulomb._quadrature_block

        def tampered(points, nmax):
            block = build(points, nmax)
            block[part][...] += 1e-8
            return block

        monkeypatch.setattr(coulomb, "_quadrature_block", tampered)
        coulomb._ground_integrals.cache_clear()
        with pytest.raises(ConvergenceError, match="closed form"):
            call()

    def test_s_wave_paths_never_build_the_doubled_rule(self, monkeypatch):
        sizes = []
        rule = coulomb.gauss_legendre
        monkeypatch.setattr(coulomb, "gauss_legendre", lambda n: sizes.append(n) or rule(n))
        coulomb._ground_integrals.cache_clear()
        s_wave_block(6, 200)
        ground_integrals(200)
        assert 200 in sizes and 400 not in sizes


class TestSingleFromBlock:
    def test_ground_integrals_are_the_nmax1_block_entries(self):
        got = ground_integrals(200)
        central, slater = s_wave_block(1, 200)
        assert got == (central[0, 0], slater[0, 0])
        assert all(type(x) is float for x in got)
        # Cin(2 pi), and pair(1,1) = 2 - [Si(2pi) - Si(4pi)/2]/pi from u_1^2 = 1 - cos(2 pi r)
        assert got[0] == pytest.approx(cin_series(2.0 * math.pi), abs=1e-12)
        exact = 2.0 - (si_series(2.0 * math.pi) - si_series(4.0 * math.pi) / 2.0) / math.pi
        assert got[1] == pytest.approx(exact, abs=1e-12)

    def test_ground_integrals_are_built_once(self, monkeypatch):
        built = []
        build = coulomb._quadrature_block
        monkeypatch.setattr(coulomb, "_quadrature_block", lambda *a: built.append(a) or build(*a))
        coulomb._ground_integrals.cache_clear()
        assert ground_integrals(512) is ground_integrals(np.int64(512))
        assert built == [(512, 1)]

    def test_mode_pair_index_is_shared_and_read_only(self):
        index = mode_pair_index(5)
        assert mode_pair_index(5) is index
        with pytest.raises(ValueError):
            index[0, 0] = 1

    @pytest.mark.parametrize("bad", [coulomb.MAX_NMAX + 1, 0, True, 2.0, pytest.param(np.True_, id="numpy-True")])
    def test_mode_pair_index_checks_nmax(self, bad):
        # cached entries must not answer True, 2.0 or np.True_
        mode_pair_index(1), mode_pair_index(2), mode_pair_index(np.int64(1)), mode_pair_index(np.int64(2))
        with pytest.raises(ValidationError, match="nmax"):
            mode_pair_index(bad)

    @pytest.mark.parametrize("bad", [[4], np.array([4]), np.array(4)], ids=["list", "array", "0-d-array"])
    def test_mode_pair_index_checks_before_its_cache(self, bad):
        # checked before the cache, which would raise a bare TypeError for an unhashable argument
        with pytest.raises(ValidationError, match="^nmax must be an integer, got [^\n]+$"):
            mode_pair_index(bad)

    def test_nmax_bound_checked_before_any_build(self, monkeypatch):
        # a mode number far beyond the bound must not even size an index array;
        # the spies only record, so a wrong order cannot allocate anything
        built = []
        monkeypatch.setattr(coulomb, "_quadrature_block", lambda points, nmax: built.append(nmax))
        monkeypatch.setattr(coulomb, "mode_pair_index", lambda nmax: built.append(nmax))
        with pytest.raises(ValidationError, match="nmax"):
            s_wave_block(coulomb.MAX_NMAX + 1, 200)
        with pytest.raises(ValidationError, match="nmax"):
            s_wave_block(10**9, 200)
        assert built == []
        assert coulomb.MAX_NMAX == 48


class TestResolutionGuard:
    def test_underresolved_high_mode_raises(self):
        with pytest.raises(ConvergenceError) as err:
            s_wave_block(8, 16)
        message = str(err.value)
        assert "16" in message and "32" in message

    def test_ground_modes_fine_even_when_coarse(self):
        _, got = ground_integrals(16)
        assert got == pytest.approx(1.7860731681516866, abs=1e-9)

    @pytest.mark.parametrize("points", [8, 15, 513, 1000, 32.0, True])
    def test_point_budget_enforced(self, points):
        for call in (lambda: s_wave_block(1, points), lambda: ground_integrals(points)):
            with pytest.raises(ValidationError, match="^quadrature points must "):
                call()


class TestCaching:
    @pytest.mark.parametrize("bad", [[200], np.array([200]), np.array(200), True, 128.0],
                             ids=["list", "array", "0-d-array", "true", "float"])
    def test_ground_integrals_checks_before_its_cache(self, bad):
        # checked before the cache, which would raise a bare TypeError for an
        # unhashable argument and answer 128.0 from the entry for 128
        ground_integrals(128)
        with pytest.raises(ValidationError, match="^quadrature points must be an integer, got [^\n]+$"):
            ground_integrals(bad)

    def test_thread_smoke(self):
        # threads first ask for the ground integrals at once, and build blocks side by side
        coulomb._ground_integrals.cache_clear()
        keys = [(a, b) for a in range(1, 5) for b in range(1, 5)]

        def work(key):
            a, b = key
            return ground_integrals(), pair(a, b)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(work, keys * 4, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        serial = [(ground_integrals(), pair(a, b)) for a, b in keys * 4]
        assert results == serial
