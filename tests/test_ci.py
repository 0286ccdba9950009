import math
import re
import sys
import tracemalloc
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxatom import CiProblem, build_hamiltonian, ground_state
from boxatom import ci, coulomb
from boxatom.coulomb import MAX_NMAX, ground_integrals, mode_pair_index
from boxatom.errors import ConvergenceError, ValidationError

from oracles import (
    NOT_NUMBERS,
    cholesky_verdict,
    concavity_failure,
    interaction_matrix_whole,
    product_basis_hamiltonian,
)

EPS1_CLAMPED = -7.96454040407721


def dense_energy(z, lam, nmax) -> float:
    """The dense reference: the lowest eigenvalue of the assembled H(lambda)."""
    return ground_state(build_hamiltonian(z, lam, nmax))[0]


def configurations(nmax):
    """Each {n, m}, 1 <= n <= m <= nmax, ordered by n and then m."""
    return [(n, m) for n in range(1, nmax + 1) for m in range(n, nmax + 1)]


class TestBasis:
    def test_counts_and_order(self):
        # configuration k is coulomb's mode pair k
        for nmax in (1, 4, MAX_NMAX):
            pairs, index = configurations(nmax), mode_pair_index(nmax)
            assert [index[n - 1, m - 1] for n, m in pairs] == list(range(len(pairs)))
            assert len(CiProblem(2.0, nmax).kinetic) == len(pairs) == nmax * (nmax + 1) // 2

    @pytest.mark.parametrize("bad", [0, -1, 2.0, True])
    def test_bad_nmax(self, bad):
        with pytest.raises(ValidationError, match=r"^nmax must be [^\n]+, got [^\n]+$"):
            CiProblem(2.0, bad)

    def test_nmax_bound(self):
        assert CiProblem(2.0, MAX_NMAX).nmax == MAX_NMAX
        message = rf"^nmax must be an integer in \[1, {MAX_NMAX}\], got {MAX_NMAX + 1}$"
        for call in (lambda nmax: CiProblem(2.0, nmax), lambda nmax: build_hamiltonian(2.0, 1.0, nmax)):
            with pytest.raises(ValidationError, match=message):
                call(MAX_NMAX + 1)


class TestMatrixAssembly:
    def test_kinetic_diagonal(self):
        for nmax in (1, 4, MAX_NMAX):
            expected = [(n * n + m * m) * math.pi**2 / 2 for n, m in configurations(nmax)]
            np.testing.assert_allclose(CiProblem(2.0, nmax).kinetic, expected, rtol=0, atol=0)

    def test_free_particle_limit(self):
        h = build_hamiltonian(2.0, 0.0, 4)
        np.testing.assert_array_equal(h, np.diag(CiProblem(2.0, 4).kinetic))
        energy, coeff, _ = ground_state(h)
        assert energy == pytest.approx(math.pi**2, abs=1e-12)
        assert coeff[0] == 1.0

    def test_single_configuration_element(self):
        h = build_hamiltonian(2.0, 1.0, 1)
        central, pair = ground_integrals()
        assert h.shape == (1, 1)
        assert h[0, 0] == pytest.approx(math.pi**2 + pair - 4.0 * central, abs=1e-12)

    def test_interaction_is_symmetric(self):
        w = CiProblem(2.0, 5).interaction
        np.testing.assert_array_equal(w, w.T)

    def test_first_diagonal_matches_first_order(self):
        w = CiProblem(2.0, 6).interaction
        assert w[0, 0] == pytest.approx(EPS1_CLAMPED, abs=1e-10)

    @pytest.mark.parametrize("nmax", [2, 3, 4, 5])
    def test_matches_product_basis_projection(self, nmax):
        # brute-force oracle: project the full product-basis Hamiltonian
        # onto the symmetric subspace and compare entrywise
        lam, z = 0.7, 2.0
        ours = build_hamiltonian(z, lam, nmax)
        oracle = product_basis_hamiltonian(nmax, z, lam)
        np.testing.assert_allclose(ours, oracle, atol=1e-12)

    @pytest.mark.parametrize("nmax", [1, 2, 3, 12, 24, 33, 40, 48])
    def test_group_gather_is_bit_identical_to_whole_triangle(self, nmax):
        for z in (1.0, 2.0, 2.5, 3.0, 4.0):
            np.testing.assert_array_equal(CiProblem(z, nmax).interaction,
                                          interaction_matrix_whole(z, nmax))

    def test_gather_scratch_memory_is_small(self, monkeypatch):
        # the whole upper triangle gathered at once peaked at 63.4 MiB at nmax 48
        block = coulomb.s_wave_block(MAX_NMAX)
        # the block is built beforehand; only W and its scratch are measured
        monkeypatch.setattr(ci, "s_wave_block", lambda nmax, points: block)
        tracemalloc.start()
        try:
            ci._interaction_matrix(2.0, MAX_NMAX, coulomb.DEFAULT_POINTS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_w_is_built_from_a_block_nothing_keeps(self, monkeypatch):
        # W's nmax-24 block is built and checked, and freed once W is gathered
        built, returned = [], []
        build, block = coulomb._quadrature_block, coulomb.s_wave_block
        monkeypatch.setattr(coulomb, "_quadrature_block", lambda *a: built.append(a) or build(*a))

        def spied(nmax, points):
            got = block(nmax, points)
            returned.extend(map(weakref.ref, got))
            return got

        monkeypatch.setattr(ci, "s_wave_block", spied)
        w = CiProblem(2.0, 24).interaction
        assert returned and all(ref() is None for ref in returned)
        # so a second W builds it again, and keeps every bit
        np.testing.assert_array_equal(CiProblem(2.0, 24, 200).interaction, w)
        assert built == [(200, 24), (200, 24)]

    def test_underresolved_table_raises(self):
        # the CI path keeps the n-against-2n quadrature check
        with pytest.raises(ConvergenceError) as err:
            CiProblem(2.0, 10, 16).interaction
        message = str(err.value)
        assert "16" in message and "32" in message

    @pytest.mark.parametrize("call", [
        lambda nmax: CiProblem(2.0, nmax),
        lambda nmax: build_hamiltonian(2.0, 1.0, nmax),
    ], ids=["CiProblem", "build_hamiltonian"])
    @pytest.mark.parametrize("bad", [4.0, None, (1, 1)], ids=["nmax", "none", "configuration"])
    def test_an_nmax_that_is_not_an_integer_is_refused(self, call, bad):
        # the basis is nmax itself, so a float nmax or a configuration is refused as nmax
        with pytest.raises(ValidationError, match=rf"^nmax must be an integer, got {re.escape(repr(bad))}$"):
            call(bad)

    @pytest.mark.parametrize("z,lam", [(0.0, 1.0), (-2.0, 1.0), (2.0, -0.1), (2.0, math.nan)])
    def test_bad_charge_or_coupling(self, z, lam):
        with pytest.raises(ValidationError):
            build_hamiltonian(z, lam, 2)


class TestGroundState:
    def test_diagonal_matrix(self):
        energy, coeff, residual = ground_state(np.diag([3.0, 1.0, 2.0]))
        assert energy == 1.0
        np.testing.assert_allclose(np.abs(coeff), [0.0, 1.0, 0.0], atol=1e-15)
        assert residual <= 1e-14

    def test_two_by_two_closed_form(self):
        h = np.array([[2.0, 0.5], [0.5, 1.0]])
        energy, coeff, _ = ground_state(h)
        expected = 1.5 - math.sqrt(0.5**2 + 0.5**2)
        assert energy == pytest.approx(expected, abs=1e-14)
        np.testing.assert_allclose(h @ coeff, energy * coeff, atol=1e-14)

    def test_sign_convention_and_norm(self):
        rng = np.random.RandomState(7)
        for _ in range(10):
            a = rng.standard_normal((6, 6))
            energy, coeff, residual = ground_state(a + a.T)
            assert coeff[0] >= 0.0
            assert np.linalg.norm(coeff) == pytest.approx(1.0, abs=1e-13)
            assert residual <= 1e-12

    def test_coefficients_are_read_only(self):
        _, coeff, _ = ground_state(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError):
            coeff[0] = 5.0

    def test_rejects_bad_matrices(self):
        # non-square, asymmetric, non-finite, empty, or not real numbers
        for bad in (np.ones((2, 3)), np.array([[1.0, 2.0], [2.000001, 1.0]]), np.array([[np.inf, 0.0], [0.0, 1.0]]),
                    np.zeros((0, 0)), np.zeros((1, 0)), "a", None, [[1.0, 2.0], [2.0]], [["1"]], np.array([[True]])):
            with pytest.raises(ValidationError, match="^matrix [^\n]+$"):
                ground_state(bad)
        assert ground_state([[2, 0], [0, 1]])[0] == 1.0

    def test_huge_scale_fails_loudly(self):
        # residual check must refuse results whose absolute error exceeds the budget
        rng = np.random.RandomState(11)
        a = rng.standard_normal((30, 30)) * 1e9
        with pytest.raises(ConvergenceError):
            ground_state(a + a.T)


class TestSolveGround:
    def test_regression_nmax6(self):
        assert dense_energy(2.0, 0.5, 6) == pytest.approx(5.700105937638897, abs=1e-9)

    def test_regression_nmax8(self):
        assert dense_energy(2.0, 0.5, 8) == pytest.approx(5.698218845526088, abs=1e-9)

    def test_variational_below_first_order(self):
        for lam in [0.1, 0.5, 1.0, 2.0]:
            assert dense_energy(2.0, lam, 8) <= math.pi**2 + EPS1_CLAMPED * lam + 1e-12

    def test_enlarging_basis_never_raises_energy(self):
        energies = [dense_energy(2.0, 1.0, nmax) for nmax in (2, 4, 6, 8)]
        assert all(b <= a + 1e-13 for a, b in zip(energies, energies[1:]))

    def test_small_lambda_slope_recovers_first_order(self):
        h = 1e-4
        e_plus = dense_energy(2.0, h, 8)
        slope = (e_plus - math.pi**2) / h
        assert slope == pytest.approx(EPS1_CLAMPED, abs=1e-3)

    @pytest.mark.parametrize(
        "z, lam",
        [(2.0, None), (2.0, "abc"), (10**400, 0.5)]
        + [(2.0, value) for value in NOT_NUMBERS.values()]
        + [(value, 0.5) for value in NOT_NUMBERS.values()],
        ids=["none", "text", "huge-z"] + [f"lambda-{i}" for i in NOT_NUMBERS] + [f"z-{i}" for i in NOT_NUMBERS])
    def test_rejects_values_float_cannot_take(self, z, lam):
        with pytest.raises(ValidationError,
                           match="^(nuclear charge Z|lambda) must be a real number, got [^\n]+$"):
            build_hamiltonian(z, lam, 4)

    def test_takes_numpy_numbers(self):
        nmax = 4
        for z, lam in ((np.int64(2), np.float64(0.5)), (np.float64(2.0), np.int64(1))):
            assert dense_energy(z, lam, nmax) == dense_energy(float(z), float(lam), nmax)

    @pytest.mark.filterwarnings("error")  # lambda * W overflowing must not warn on its way out
    def test_overflowing_lambda_raises_without_warning(self):
        with pytest.raises(ValidationError, match="non-finite"):
            ground_state(build_hamiltonian(2.0, 1e308, 4))
        assert np.isinf(build_hamiltonian(2.0, 1e308, 4)).any()


class TestScan:
    GRID = [1e-6, 0.01, 0.1, 0.5, 1.0, 2.0]

    def test_overlap_decays_monotonically(self):
        _, overlaps, _ = CiProblem(2.0, 8).scan(self.GRID)
        assert all(0.0 <= v <= 1.0 for v in overlaps)
        assert overlaps[0] >= 1.0 - 1e-8
        assert all(b <= a + 1e-12 for a, b in zip(overlaps, overlaps[1:]))

    def test_matches_pointwise_solve(self):
        nmax = 5
        grid = [0.3, 0.9]
        energies, overlaps, _ = CiProblem(2.0, nmax).scan(grid)
        for lam, e, overlap in zip(grid, energies, overlaps, strict=True):
            energy, coeff, _ = ground_state(build_hamiltonian(2.0, lam, nmax))
            assert e == pytest.approx(energy, abs=1e-12)
            assert overlap == pytest.approx(coeff[0], abs=1e-12)

    def test_residuals_within_budget(self):
        _, _, residuals = CiProblem(2.0, 6).scan(self.GRID)
        assert all(r <= 1e-10 for r in residuals)

    def test_grid_validation(self):
        nmax = 4
        with pytest.raises(ValidationError):
            CiProblem(2.0, nmax).scan([])
        with pytest.raises(ValidationError):
            CiProblem(2.0, nmax).scan([0.5, 0.1])
        with pytest.raises(ValidationError):
            CiProblem(2.0, nmax).scan([0.0, 0.5])

    @pytest.mark.parametrize(
        "lambdas",
        [[10**400], ["abc"], [None], None, np.array([True])] + [[value] for value in NOT_NUMBERS.values()],
        ids=["huge", "text", "none", "no-grid", "boolean-array"] + [f"entry-{i}" for i in NOT_NUMBERS])
    def test_rejects_values_float_cannot_take(self, lambdas):
        with pytest.raises(ValidationError, match="^lambda values must be real numbers, got [^\n]+$"):
            CiProblem(2.0, 4).scan(lambdas)

    def test_rejects_a_charge_float_cannot_take(self):
        for z in NOT_NUMBERS.values():
            with pytest.raises(ValidationError, match="^nuclear charge Z must be a real number, got [^\n]+$"):
                CiProblem(z, 4)

    def test_takes_numpy_numbers(self):
        nmax = 4
        expected, _, _ = CiProblem(2.0, nmax).scan([0.5, 1.0, 2.0])
        for grid in ([np.float64(0.5), np.int64(1), 2], np.array([0.5, 1, 2], dtype=object)):
            assert list(CiProblem(np.int64(2), nmax).scan(grid)[0]) == list(expected)
        # an integer array is converted whole
        integers, _, _ = CiProblem(2.0, nmax).scan(np.array([1, 2]))
        assert list(integers) == list(CiProblem(2.0, nmax).scan([1.0, 2.0])[0])

    def test_scan_returns_three_float64_columns_of_the_grid_length(self):
        nmax = 6
        columns = CiProblem(2.0, nmax).scan(self.GRID)
        assert isinstance(columns, tuple) and len(columns) == 3
        for column in columns:
            assert isinstance(column, np.ndarray)
            assert column.dtype == np.float64 and column.shape == (len(self.GRID),)
        # in grid order: row i is the ground state at GRID[i]
        assert list(columns[0]) == pytest.approx([dense_energy(2.0, lam, nmax) for lam in self.GRID],
                                                 rel=1e-12, abs=0)
        again = CiProblem(2.0, nmax).scan(self.GRID)
        assert all(np.array_equal(a, b) for a, b in zip(columns, again, strict=True))

    def test_shared_kinetic_and_interaction_are_read_only(self):
        # every scan, the fit and the floor's proven knots share T and W, so an
        # edited W would leave a knot claiming a bound the new W does not have
        problem = CiProblem(2.0, 6)
        with pytest.raises(ValueError):
            problem.kinetic[0] = 0.0
        with pytest.raises(ValueError):
            problem.interaction[1:, 1:] *= 3.0


class TestCertifiedGroundState:
    AGREEMENT_GRID = np.linspace(0.05, 3.0, 20)

    @staticmethod
    def _block_diagonal():
        # block A (indices 0-3) holds the ground state, block B (4-7) lies above it
        rng = np.random.RandomState(3)
        h = np.zeros((8, 8))
        for block, offset in ((slice(0, 4), 1.0), (slice(4, 8), 10.0)):
            a = 0.1 * rng.standard_normal((4, 4))
            h[block, block] = np.diag(offset + np.arange(4.0)) + (a + a.T)
        return h

    @staticmethod
    def _subspace(h, start):
        # H = diag(0) + 1.0 * h is h itself
        return ci._Subspace(np.zeros(len(h)), h, start / np.linalg.norm(start))

    @staticmethod
    def _floor(h):
        return ci._InterlacingFloor(np.zeros(len(h)), h)

    def test_certificate_rejects_a_ground_state_of_the_wrong_block(self, monkeypatch):
        h = self._block_diagonal()
        start = np.zeros(8)
        start[4] = 1.0
        # the diagonal preconditioner keeps every iterate in block B
        energy, coeff = ci._davidson(1.0, self._subspace(h, start))
        assert energy == pytest.approx(np.linalg.eigvalsh(h[4:, 4:])[0], abs=1e-12)
        np.testing.assert_array_equal(coeff[:4], 0.0)
        delta = ci._CERTIFICATE_SHIFT * (1.0 + abs(energy))
        assert not self._floor(h).exceeds(1.0, energy + delta)
        assert not ci._no_eigenvalue_below(np.zeros(len(h)), 1.0, h, energy - delta)
        dense = []
        monkeypatch.setattr(ci, "ground_state", lambda m: dense.append(m) or ground_state(m))
        got, _, _, _ = ci._certified_ground_state(1.0, self._subspace(h, start), self._floor(h))
        assert len(dense) == 1
        assert got == ground_state(h)[0]
        assert got == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-12)

    def test_certificate_accepts_the_true_ground_state(self):
        h = self._block_diagonal()
        start = np.zeros(8)
        start[0] = 1.0
        energy, _ = ci._davidson(1.0, self._subspace(h, start))
        assert energy == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-12)
        delta = ci._CERTIFICATE_SHIFT * (1.0 + abs(energy))
        assert ci._no_eigenvalue_below(np.zeros(len(h)), 1.0, h, energy - delta)
        assert self._floor(h).exceeds(1.0, energy + delta)

    def test_cholesky_tier_writes_neither_input(self):
        # H is formed and shifted in place, never kinetic or w
        h = self._block_diagonal()
        kinetic = np.linspace(1.0, 2.0, len(h))
        kept_kinetic, kept_h = kinetic.copy(), h.copy()
        bound = np.linalg.eigvalsh(np.diag(kinetic) + 0.5 * h)[0] - 1e-3
        assert ci._no_eigenvalue_below(kinetic, 0.5, h, bound)
        assert not ci._no_eigenvalue_below(kinetic, 0.5, h, bound + 2e-3)
        np.testing.assert_array_equal(kinetic, kept_kinetic)
        np.testing.assert_array_equal(h, kept_h)

    @staticmethod
    def _verdicts_match_lapack(size, seed):
        # H = diag(kinetic) + lam w with random symmetric w, bounds just either
        # side of lambda_min(H) relative to ||H||_2
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((size, size))
        kinetic, lam, w = rng.uniform(0.0, 5.0, size), rng.uniform(0.1, 3.0), a + a.T
        h = np.diag(kinetic) + lam * w
        lowest, norm = np.linalg.eigvalsh(h)[0], np.linalg.norm(h, 2)
        for gap in (1e-6, 1e-9):
            for bound in (lowest - gap * norm, lowest + gap * norm):
                expected = cholesky_verdict(h - bound * np.eye(size))
                assert expected == (bound < lowest)
                assert ci._no_eigenvalue_below(kinetic, lam, w, bound) == expected

    @pytest.mark.parametrize("size", [1, 63, 64, 65, 128, 129, 299])
    def test_tiled_verdict_matches_lapack_at_tile_edges(self, size):
        for seed in range(3):
            self._verdicts_match_lapack(size, seed)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(size=st.integers(1, 260), seed=st.integers(0, 2**32 - 1))
    def test_tiled_verdict_matches_lapack(self, size, seed):
        self._verdicts_match_lapack(size, seed)

    def test_tiled_verdict_makes_no_copy_of_h(self):
        # LAPACK's whole-matrix Cholesky peaked at 21.07 MiB here: H, its
        # Fortran-ordered copy and the returned factor
        problem = CiProblem(2.0, MAX_NMAX)
        w, kinetic = problem.interaction, problem.kinetic
        kinetic_qq, w_qq = kinetic[1:], w[1:, 1:]
        # below the Gershgorin floor, so every tile is factored
        diagonal = kinetic_qq + np.diag(w_qq)
        floor = float(np.min(diagonal - (np.abs(w_qq).sum(axis=1) - np.abs(np.diag(w_qq)))))
        tracemalloc.start()
        try:
            assert ci._no_eigenvalue_below(kinetic_qq, 1.0, w_qq, floor - 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12.5 * 2**20

    def test_capped_davidson_returns_its_best_pair(self, monkeypatch):
        # one iteration leaves only the start vector and its Rayleigh quotient
        monkeypatch.setattr(ci, "_DAVIDSON_MAX_ITER", 1)
        h = self._block_diagonal()
        start = np.zeros(8)
        start[0] = 1.0
        energy, coeff = ci._davidson(1.0, self._subspace(h, start))
        assert energy == h[0, 0]
        np.testing.assert_array_equal(coeff, start)

    def test_unconverged_pair_gets_one_fresh_run_from_its_vector(self, monkeypatch):
        monkeypatch.setattr(ci, "_DAVIDSON_MAX_ITER", 1)
        davidson = ci._davidson
        starts, found = [], []

        def recorded(lam, subspace):
            starts.append(subspace.basis[:, : subspace.size].copy())
            found.append(davidson(lam, subspace))
            return found[-1]

        monkeypatch.setattr(ci, "_davidson", recorded)
        h = self._block_diagonal()
        start = np.zeros(8)
        start[:4] = 0.5
        energy, _, residual, _ = ci._certified_ground_state(1.0, self._subspace(h, start), self._floor(h))
        assert len(starts) == 2
        np.testing.assert_array_equal(starts[1], (found[0][1] / np.linalg.norm(found[0][1]))[:, None])
        assert energy == ground_state(h)[0] and residual <= 1e-10

    def test_excited_pair_falls_through_the_floor_and_cholesky_to_dense(self, monkeypatch):
        # Davidson started on the exact first excited vector returns that pair
        # with a tiny residual; the floor and the Cholesky tier must both reject it
        problem = CiProblem(2.0, 8)
        lam = 1.0
        h = build_hamiltonian(2.0, lam, problem.nmax)
        values, vectors = np.linalg.eigh(h)
        subspace = ci._Subspace(problem.kinetic, problem.interaction, vectors[:, 1])
        assert ci._davidson(lam, subspace)[0] == pytest.approx(values[1], abs=1e-10)
        floor_verdicts, cholesky_verdicts, dense = [], [], []
        exceeds, no_eigenvalue_below = ci._InterlacingFloor.exceeds, ci._no_eigenvalue_below
        monkeypatch.setattr(ci._InterlacingFloor, "exceeds",
                            lambda self, *a: floor_verdicts.append(exceeds(self, *a)) or floor_verdicts[-1])
        monkeypatch.setattr(ci, "_no_eigenvalue_below",
                            lambda *a: cholesky_verdicts.append(no_eigenvalue_below(*a)) or cholesky_verdicts[-1])
        monkeypatch.setattr(ci, "ground_state", lambda m: dense.append(m) or ground_state(m))
        subspace = ci._Subspace(problem.kinetic, problem.interaction, vectors[:, 1])
        energy, coeff, residual, slope = ci._certified_ground_state(lam, subspace, problem._floor)
        # the first Cholesky certifies the floor's knot at lambda = 1, the second rejects the pair
        assert floor_verdicts == [False] and cholesky_verdicts == [True, False] and len(dense) == 1
        assert energy == pytest.approx(values[0], abs=1e-10) and residual <= 1e-10
        # the dense pair's Hellmann-Feynman slope
        assert slope == coeff @ (problem.interaction @ coeff)
        assert values[0] < problem._floor.knots[lam] < values[1]

    @pytest.mark.parametrize("nmax", [4, 8, 12, 24])
    def test_scan_agrees_with_dense_ground_state(self, nmax):
        for z in (1.0, 2.0, 3.0, 4.0):
            columns = CiProblem(z, nmax).scan(self.AGREEMENT_GRID)
            for lam, e, overlap, r in zip(self.AGREEMENT_GRID, *columns, strict=True):
                energy, coeff, _ = ground_state(build_hamiltonian(z, lam, nmax))
                assert e == pytest.approx(energy, rel=1e-12, abs=0)
                assert f"{e:.10g}" == f"{energy:.10g}"
                assert f"{overlap:.10g}" == f"{min(abs(float(coeff[0])), 1.0):.10g}"
                assert r <= 1e-10

    def test_every_row_is_certified_without_dense_fallback(self, monkeypatch):
        def forbidden(matrix):
            raise AssertionError("dense fallback used")

        monkeypatch.setattr(ci, "ground_state", forbidden)
        problem = CiProblem(2.0, 40)
        assert len(problem.scan(np.linspace(0.1, 2.0, 20))[0]) == 20
        assert problem.second_order_estimate() < 0.0

    def test_a_certified_point_forms_one_product_with_w(self, monkeypatch):
        # the residual recheck's W c also gives the Hellmann-Feynman slope, so
        # beyond Davidson's columns, in the scan's subspace and the floor's, a
        # certified point multiplies W by a vector once
        products, columns = [], []

        class CountingW(np.ndarray):
            def __matmul__(self, other):
                # matrix-vector products only: the Cholesky tier's panel products are views of H
                if np.ndim(other) == 1:
                    products.append(1)
                return np.asarray(self) @ other

        def forbidden(matrix):
            raise AssertionError("dense fallback used")

        append = ci._Subspace.append
        monkeypatch.setattr(ci._Subspace, "append", lambda self, v: columns.append(1) or append(self, v))
        monkeypatch.setattr(ci, "ground_state", forbidden)
        problem = CiProblem(2.0, 12)
        problem.__dict__["interaction"] = problem.interaction.view(CountingW)
        grid = np.linspace(0.1, 3.0, 20)
        assert len(problem.scan(grid)[0]) == 20
        assert len(products) - len(columns) == len(grid)

    def test_strong_coupling_scan_is_certified_without_dense_fallback(self, monkeypatch):
        # at Z = 1 and lambda 35-70 the nmax-24 Hamiltonian is far from
        # diagonally dominant, yet Davidson converges on every row within the cap
        def forbidden(matrix):
            raise AssertionError("dense fallback used")

        monkeypatch.setattr(ci, "ground_state", forbidden)
        assert len(CiProblem(1.0, 24).scan(np.linspace(35.0, 70.0, 20))[0]) == 20

    def test_strong_coupling_falls_back_to_dense(self, monkeypatch):
        # with the iteration cap cut to 2, Davidson misses its tolerance on
        # every row of this strongly coupled scan
        monkeypatch.setattr(ci, "_DAVIDSON_MAX_ITER", 2)
        dense = []
        monkeypatch.setattr(ci, "ground_state", lambda m: dense.append(m) or ground_state(m))
        nmax = 24
        grid = np.linspace(35.0, 70.0, 8)
        energies, _, residuals = CiProblem(1.0, nmax).scan(grid)
        assert len(dense) >= 1
        for lam, e, r in zip(grid, energies, residuals, strict=True):
            assert e == pytest.approx(
                ground_state(build_hamiltonian(1.0, lam, nmax))[0], rel=1e-12, abs=0
            )
            assert r <= 1e-10

    def test_excited_state_trips_concavity_check(self, monkeypatch):
        # a row that reports the first excited pair passes its own residual
        # check but lies far above the neighbouring tangent lines
        certified = ci._certified_ground_state
        nmax = 6
        rows = []

        def excited_third_row(lam, subspace, floor):
            rows.append(lam)
            pair = certified(lam, subspace, floor)
            if len(rows) != 3:
                return pair
            matrix = build_hamiltonian(2.0, lam, nmax)
            values, vectors = np.linalg.eigh(matrix)
            coeff = vectors[:, 1] * np.sign(vectors[0, 1])
            residual = float(np.linalg.norm(matrix @ coeff - values[1] * coeff))
            return float(values[1]), coeff, residual, coeff @ (subspace.w @ coeff)

        monkeypatch.setattr(ci, "_certified_ground_state", excited_third_row)
        with pytest.raises(ConvergenceError, match="concave"):
            CiProblem(2.0, nmax).scan(np.linspace(0.1, 2.0, 6))
        assert len(rows) == 6

    def test_energy_above_first_order_line_trips_concavity(self, monkeypatch):
        # the exact lambda = 0 row makes eps0 + eps1 lambda one of the tangents
        certified = ci._certified_ground_state

        def raised(lam, subspace, floor):
            energy, coeff, residual, slope = certified(lam, subspace, floor)
            return energy + 0.5, coeff, residual, slope

        monkeypatch.setattr(ci, "_certified_ground_state", raised)
        with pytest.raises(ConvergenceError, match="tangent at lambda = 0"):
            CiProblem(2.0, 6).scan([0.5])

    def test_concavity_tolerates_rounding_on_a_tight_grid(self):
        # tangent margins shrink to rounding when lambda steps are ~1e-14 apart
        energies, _, _ = CiProblem(2.0, 8).scan(np.linspace(1.0, 1.0 + 1e-12, 20))
        assert len(energies) == 20


def concave_rows(rng: np.random.Generator, rows: int, bumps: int):
    """lambda, energy, slope and residual of a concave parabola, with bumps raised above it."""
    lam = np.sort(rng.uniform(0.0, rng.choice([1e-9, 1.0, 50.0]), rows))
    a, b, c = rng.uniform(0.0, 2.0), rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
    energy = c + b * lam - a * lam**2
    slope = b - 2.0 * a * lam
    residual = rng.uniform(0.0, 1e-10, rows)
    for row in rng.integers(0, rows, bumps):
        energy[row] += 10.0 ** rng.uniform(-12.0, 0.0)
    return lam, energy, slope, residual


class TestConcavityCheck:
    """The check scans blocks of rows in order, so it must name the pair the whole matrix names."""

    def check(self, lam, energy, slope, residual):
        expected = concavity_failure(lam, energy, slope, residual, ci._CONCAVITY_RTOL)
        if expected is None:
            ci._check_concavity(lam, energy, slope, residual)
        else:
            with pytest.raises(ConvergenceError) as failure:
                ci._check_concavity(lam, energy, slope, residual)
            assert str(failure.value) == expected
        return expected

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40), bumps=st.integers(0, 3),
           block=st.sampled_from([1, 7, 64, 1 << 16]))
    def test_any_block_matches_the_whole_matrix(self, seed, rows, bumps, block):
        with mock.patch.object(ci, "_CONCAVITY_BLOCK", block):
            self.check(*concave_rows(np.random.default_rng(seed), rows, bumps))

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(300, 700), bumps=st.integers(0, 2))
    def test_production_blocks_match_the_whole_matrix(self, seed, rows, bumps):
        # 65,536 // rows rows per block: two to seven blocks
        self.check(*concave_rows(np.random.default_rng(seed), rows, bumps))

    def test_both_verdicts_are_drawn(self):
        verdicts = {self.check(*concave_rows(np.random.default_rng(seed), 50, 1)) is None
                    for seed in range(20)}
        assert verdicts == {True, False}

    def test_non_finite_rows_fail(self):
        lam, energy, slope, residual = concave_rows(np.random.default_rng(0), 5, 0)
        energy[3] = math.nan
        assert self.check(lam, energy, slope, residual) is not None


class TestInterlacingFloor:
    def test_floor_starts_at_the_lowest_excited_kinetic_energy(self):
        floor = CiProblem(2.0, 6)._floor
        assert floor.knots == {0.0: 2.5 * math.pi**2}
        assert floor.chord(0.0) == 2.5 * math.pi**2
        assert floor.chord(0.5) == -math.inf  # nothing is known beyond the last knot

    def test_one_configuration_has_no_second_eigenvalue(self):
        problem = CiProblem(2.0, 1)
        assert problem._floor.exceeds(1.0, math.inf)
        (energy,), _, _ = problem.scan([1.0])
        assert energy == pytest.approx(dense_energy(2.0, 1.0, 1), rel=1e-14, abs=0)

    def test_interior_knot_covers_the_rest_of_the_scan(self, monkeypatch):
        # the seed-1 benchmark input ci2.json: the chord from lambda = 0 to the
        # top knot misses one point, and the knot certified there covers every
        # later point, so the scan and the fit need two Cholesky calls in all
        def forbidden(matrix):
            raise AssertionError("dense fallback used")

        calls = []
        no_eigenvalue_below = ci._no_eigenvalue_below

        def recorded(kinetic, lam, w, bound):
            calls.append((len(kinetic), lam))
            return no_eigenvalue_below(kinetic, lam, w, bound)

        monkeypatch.setattr(ci, "_no_eigenvalue_below", recorded)
        monkeypatch.setattr(ci, "ground_state", forbidden)
        problem = CiProblem(4.0, 24)
        grid = np.linspace(0.3739, 2.2723, 20)
        problem.scan(grid)
        problem.second_order_estimate()
        # both on the 299 x 299 H_QQ, none on the 300 x 300 H
        assert calls == [(299, 2.2723), (299, grid[5])]
        assert grid[5] == pytest.approx(0.8735, abs=1e-4)

    def test_scan_and_fit_share_the_knots(self):
        problem = CiProblem(2.0, 12)
        problem.scan(np.linspace(0.1, 2.0, 20))
        knots = dict(problem._floor.knots)
        problem.second_order_estimate()
        assert problem._floor.knots == knots and 2.0 in knots

    @staticmethod
    def _counted(monkeypatch):
        calls = {"_davidson": 0, "_no_eigenvalue_below": 0}
        for name in calls:
            original = getattr(ci, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(ci, name, counted)
        return calls

    def test_a_failed_knot_is_not_tried_again(self, monkeypatch):
        # H_QQ = lam diag(3, 1, 2) and the floor starts from its first configuration,
        # an excited eigenvector: Davidson stops there at theta = 3 lam at once, and
        # the Cholesky of H_QQ below it fails on the eigenvalue lam
        h = np.diag([0.0, 3.0, 1.0, 2.0])
        floor = ci._InterlacingFloor(np.zeros(len(h)), h)
        calls = self._counted(monkeypatch)
        assert not floor.exceeds(1.0, 0.5)
        assert calls == {"_davidson": 1, "_no_eigenvalue_below": 1}
        assert floor.knots == {0.0: 0.0} and floor.failed == {1.0}
        # asking again at the failed lambda costs no Davidson run and no Cholesky
        assert not floor.exceeds(1.0, 0.5)
        assert not floor.exceeds(1.0, -math.inf)
        assert calls == {"_davidson": 1, "_no_eigenvalue_below": 1}

    def test_the_top_is_certified_only_beyond_the_last_knot(self, monkeypatch):
        # exceeds(top, -inf) is what a scan asks first: the chord is -inf beyond the
        # last knot, so it certifies one knot at top unless a knot lies at or beyond it
        floor = CiProblem(2.0, 6)._floor
        calls = self._counted(monkeypatch)
        for top, certified in ((1.0, 1), (1.0, 0), (0.5, 0), (2.0, 1)):
            before = calls["_no_eigenvalue_below"]
            assert floor.exceeds(top, -math.inf)
            assert calls["_no_eigenvalue_below"] - before == certified
        assert sorted(floor.knots) == [0.0, 1.0, 2.0] and not floor.failed


# subnormal bounds are left out: any float form of the line loses their relative precision
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(knots=st.dictionaries(st.floats(0.0, 500.0), st.floats(-1e4, 1e4, allow_subnormal=False),
                             min_size=2, max_size=40),
       t=st.floats(0.0, 1.0))
def test_chord_is_the_line_between_neighbouring_knots(knots, t):
    # a one-configuration floor has no knots of its own; these stand in for proven ones
    floor = ci._InterlacingFloor(np.zeros(1), np.zeros((1, 1)))
    floor.knots = knots
    xs = sorted(knots)
    for x in xs:
        assert floor.chord(x) == knots[x]
    assert floor.chord(np.nextafter(xs[-1], math.inf)) == -math.inf
    assert floor.chord(501.0) == -math.inf
    for a, b in zip(xs, xs[1:]):
        x = min(max(a + t * (b - a), a), b)
        ya, yb = knots[a], knots[b]
        slope = (Fraction(yb) - Fraction(ya)) / (Fraction(b) - Fraction(a))
        if abs(slope) > sys.float_info.max:
            # np.interp forms this slope first, so between knots this close (about
            # 1e-304 apart for these bounds) the chord is +-inf, not the line
            continue
        # the line through both knots at x, in exact arithmetic
        line = Fraction(ya) + (Fraction(x) - Fraction(a)) * slope
        got = floor.chord(x)
        assert math.isfinite(got)
        assert abs(Fraction(got) - line) <= Fraction(1e-12) * (abs(Fraction(ya)) + abs(Fraction(yb)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(z=st.floats(0.5, 4.0), nmax=st.integers(4, 16), top=st.floats(1e-3, 3.0),
       fraction=st.floats(1e-3, 1.0))
def test_floor_never_exceeds_the_second_eigenvalue(z, nmax, top, fraction):
    # every certified knot and every chord value lies below the dense lambda_2
    floor = CiProblem(z, nmax)._floor
    lam = top * fraction
    floor.exceeds(top, -math.inf)
    floor.certify(lam)
    assert top in floor.knots

    def eigenvalue(x, block, index):
        h = build_hamiltonian(z, x, nmax)[block, block]
        value = float(np.linalg.eigvalsh(h)[index])
        return value + 1e-12 * (1.0 + abs(value))

    def second(x):
        return eigenvalue(x, slice(None), 1)

    for knot, value in floor.knots.items():
        # each knot bounds lambda_min(H_QQ), which interlacing puts below lambda_2
        assert value <= eigenvalue(knot, slice(1, None), 0)
        assert value <= second(knot)
    for x in (lam, 0.5 * lam, 0.5 * (lam + top)):
        assert floor.chord(x) <= second(x)


class TestNormBound:
    def test_rounding_bound_input_is_rejected(self):
        # eps ||H|| near RESIDUAL_TOL made this verdict depend on the BLAS thread count
        problem = CiProblem(3.0, 12)
        assert problem._norm_bound(2238.72113856834) == pytest.approx(3.086e5, rel=1e-3)
        with pytest.raises(ValidationError, match=r"3\.086e\+05 on \|\|H\|\|_2 exceeds"):
            problem.scan([2238.72113856834])

    @pytest.mark.parametrize("z,nmax,lam,bound", [(1.0, 24, 70.0, 1.267e4), (4.0, 48, 3.0, 2.494e4)])
    def test_strong_coupling_stays_inside(self, z, nmax, lam, bound):
        got = CiProblem(z, nmax)._norm_bound(lam)
        assert got == pytest.approx(bound, rel=1e-3) and got < ci._NORM_LIMIT

    def test_bound_covers_the_spectral_norm(self):
        problem = CiProblem(4.0, 8)
        for lam in (0.5, 30.0):
            h = build_hamiltonian(4.0, lam, problem.nmax)
            assert np.linalg.norm(h, 2) <= problem._norm_bound(lam)


# nuclear charges above 4, where the eps2 fit grid shrinks as 4 / Z
FIT_CHARGES = (5.0, 8.0, 9.0, 10.0, 20.0, 100.0, 1e5, 1e20, 1e100)


class TestSecondOrder:
    def test_fit_agrees_with_sum_over_states(self):
        nmax = 8
        problem = CiProblem(2.0, nmax)
        fit = problem.second_order_estimate()
        sos = problem.second_order_sum_over_states()
        assert fit == pytest.approx(-0.6839750967457979, abs=1e-6)
        assert sos == pytest.approx(-0.6844563375149016, abs=1e-9)
        assert abs(fit - sos) <= 0.02 * abs(sos)

    def test_always_negative(self):
        problem = CiProblem(2.0, 6)
        assert problem.second_order_estimate() < 0.0
        assert problem.second_order_sum_over_states() < 0.0

    def test_deepens_with_basis(self):
        values = [CiProblem(2.0, n).second_order_sum_over_states() for n in (4, 6, 8, 10)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_grid_validation(self):
        with pytest.raises(ValidationError, match="nmax >= 4"):
            CiProblem(2.0, 3).second_order_estimate()

    @pytest.mark.parametrize("nmax", [4, 16, 48])
    @pytest.mark.parametrize("z", FIT_CHARGES)
    def test_fit_follows_the_sum_over_states_at_every_charge(self, z, nmax):
        # on the fixed grid, Z = 9 missed the 2% gate and Z = 1e5 left the solver's range
        problem = CiProblem(z, nmax)
        fit, sos = problem.second_order_estimate(), problem.second_order_sum_over_states()
        # the gate is 2%; every gap here is below 0.5%
        assert abs(fit - sos) <= 0.005 * abs(sos)

    @pytest.mark.parametrize("z", [1e160, 1e200])
    def test_overflowing_eps2_is_a_convergence_error(self, z):
        # eps2 grows as Z^2: beyond Z ~ 1e154 the fit and the sum over states overflow,
        # and from Z ~ 1e162 the fit grid's scale squared underflows to 0
        with pytest.raises(ConvergenceError, match="disagree beyond 2%"):
            CiProblem(z, 4).second_order_estimate()

    @pytest.mark.parametrize("z", (1e-3, 0.5, 1.0, 2.0, 4.0) + FIT_CHARGES)
    def test_fit_grid_top_stays_in_range_at_every_charge(self, z):
        # lambda W at the top of EPS2_FIT_GRID * min(1, 4 / Z) does not grow with Z
        problem = CiProblem(z, 48)
        assert problem._norm_bound(ci.EPS2_FIT_GRID[-1] * min(1.0, 4.0 / z)) < 2.3e4 < ci._NORM_LIMIT

    def test_fit_design_is_well_conditioned(self):
        # the fixed grid's design [lambda^2, lambda^3] is why the fit needs no rank check
        grid = ci.EPS2_FIT_GRID
        np.testing.assert_array_equal(grid, np.linspace(0.02, 0.2, 10))
        design = np.column_stack([grid**2, grid**3])
        assert np.linalg.matrix_rank(design) == 2
        assert np.linalg.cond(design) == pytest.approx(35.45, abs=0.01)
        with pytest.raises(ValueError):
            grid[0] = 0.1

    def test_takes_numpy_numbers(self):
        nmax = 4
        expected = CiProblem(2.0, nmax).second_order_estimate()
        assert CiProblem(np.int64(2), nmax).second_order_estimate() == expected
