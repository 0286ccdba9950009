import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxatom import (
    CiBasis,
    CiProblem,
    CiSolution,
    CoulombTable,
    ModeIndex,
    build_hamiltonian,
    ground_state,
    interaction_matrix,
    kinetic_diagonal,
    overlap_scan,
    second_order_estimate,
    second_order_sum_over_states,
    solve_ground,
)
from boxatom import ci, coulomb
from boxatom.ci import MAX_NMAX
from boxatom.errors import ConvergenceError, ValidationError

from oracles import (
    cholesky_verdict,
    concavity_failure,
    interaction_matrix_whole,
    product_basis_hamiltonian,
)

EPS1_CLAMPED = -7.96454040407721


class TestBasis:
    def test_counts_and_order(self):
        basis = CiBasis.up_to(4)
        assert len(basis) == 10
        assert basis.configurations[0] == (1, 1)
        assert all(n <= m for n, m in basis.configurations)
        assert len(set(basis.configurations)) == len(basis)

    @pytest.mark.parametrize("bad", [0, -1, 2.0, True])
    def test_bad_nmax(self, bad):
        with pytest.raises(ValidationError):
            CiBasis.up_to(bad)

    def test_nmax_bound(self):
        assert len(CiBasis.up_to(MAX_NMAX)) == 1176
        with pytest.raises(ValidationError):
            CiBasis.up_to(MAX_NMAX + 1)
        with pytest.raises(ValidationError, match="nmax"):
            CiBasis(nmax=MAX_NMAX + 1)


class TestMatrixAssembly:
    def test_kinetic_diagonal(self):
        basis = CiBasis.up_to(3)
        got = kinetic_diagonal(basis)
        expected = [(n * n + m * m) * math.pi**2 / 2.0 for n, m in basis.configurations]
        np.testing.assert_allclose(got, expected, rtol=0, atol=0)

    def test_free_particle_limit(self, table):
        basis = CiBasis.up_to(4)
        h = build_hamiltonian(2.0, 0.0, basis, table)
        np.testing.assert_array_equal(h, np.diag(kinetic_diagonal(basis)))
        solution = solve_ground(2.0, 0.0, basis, table)
        assert solution.energy == pytest.approx(math.pi**2, abs=1e-12)
        assert solution.overlap0 == 1.0

    def test_single_configuration_element(self, table):
        basis = CiBasis.up_to(1)
        h = build_hamiltonian(2.0, 1.0, basis, table)
        pair = table.pair_expectation(ModeIndex(0, 1), ModeIndex(0, 1))
        central = table.central_expectation(ModeIndex(0, 1), ModeIndex(0, 1))
        assert h.shape == (1, 1)
        assert h[0, 0] == pytest.approx(math.pi**2 + pair - 4.0 * central, abs=1e-12)

    def test_interaction_is_symmetric(self, table):
        w = interaction_matrix(2.0, CiBasis.up_to(5), table)
        np.testing.assert_array_equal(w, w.T)

    def test_first_diagonal_matches_first_order(self, table):
        w = interaction_matrix(2.0, CiBasis.up_to(6), table)
        assert w[0, 0] == pytest.approx(EPS1_CLAMPED, abs=1e-10)

    @pytest.mark.parametrize("nmax", [2, 3, 4, 5])
    def test_matches_product_basis_projection(self, nmax, table):
        # brute-force oracle: project the full product-basis Hamiltonian
        # onto the symmetric subspace and compare entrywise
        lam, z = 0.7, 2.0
        ours = build_hamiltonian(z, lam, CiBasis.up_to(nmax), table)
        oracle = product_basis_hamiltonian(nmax, z, lam, table)
        np.testing.assert_allclose(ours, oracle, atol=1e-12)

    @pytest.mark.parametrize("nmax", [1, 2, 12, 24, 48])
    def test_banded_gather_is_bit_identical_to_whole_triangle(self, nmax, table):
        basis = CiBasis.up_to(nmax)
        for z in (1.0, 2.0, 3.0, 4.0):
            np.testing.assert_array_equal(interaction_matrix(z, basis, table),
                                          interaction_matrix_whole(z, basis, table))

    def test_gather_scratch_memory_is_small(self, table):
        # the whole upper triangle gathered at once peaked at 63.4 MiB at nmax 48
        basis = CiBasis.up_to(MAX_NMAX)
        table.s_wave_block(MAX_NMAX)  # cached; only W and its scratch are measured
        tracemalloc.start()
        try:
            interaction_matrix(2.0, basis, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_w_is_built_from_a_block_the_table_does_not_keep(self, monkeypatch):
        # a fresh table builds and checks the nmax-24 block for W, then drops it
        fresh = CoulombTable(200)
        w = CiProblem(2.0, CiBasis(24), fresh).interaction
        assert 24 not in fresh._blocks
        fresh.s_wave_block(24)
        # a table that holds the block builds none, and W keeps every bit
        built = []
        build = coulomb._quadrature_block
        monkeypatch.setattr(coulomb, "_quadrature_block", lambda *a: built.append(a) or build(*a))
        np.testing.assert_array_equal(CiProblem(2.0, CiBasis(24), fresh).interaction, w)
        assert built == []

    def test_underresolved_table_raises(self):
        # the CI path keeps the n-against-2n quadrature check
        with pytest.raises(ConvergenceError) as err:
            interaction_matrix(2.0, CiBasis.up_to(10), CoulombTable(16))
        message = str(err.value)
        assert "16" in message and "32" in message

    @pytest.mark.parametrize("z,lam", [(0.0, 1.0), (-2.0, 1.0), (2.0, -0.1), (2.0, math.nan)])
    def test_bad_charge_or_coupling(self, z, lam, table):
        with pytest.raises(ValidationError):
            build_hamiltonian(z, lam, CiBasis.up_to(2), table)


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
        with pytest.raises(ValidationError):
            ground_state(np.ones((2, 3)))
        with pytest.raises(ValidationError):
            ground_state(np.array([[1.0, 2.0], [2.000001, 1.0]]))
        with pytest.raises(ValidationError):
            ground_state(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_huge_scale_fails_loudly(self):
        # residual check must refuse results whose absolute error exceeds the budget
        rng = np.random.RandomState(11)
        a = rng.standard_normal((30, 30)) * 1e9
        with pytest.raises(ConvergenceError):
            ground_state(a + a.T)


class TestSolveGround:
    def test_regression_nmax6(self, table):
        got = solve_ground(2.0, 0.5, CiBasis.up_to(6), table)
        assert got.energy == pytest.approx(5.700105937638897, abs=1e-9)

    def test_regression_nmax8(self, table):
        got = solve_ground(2.0, 0.5, CiBasis.up_to(8), table)
        assert got.energy == pytest.approx(5.698218845526088, abs=1e-9)

    def test_variational_below_first_order(self, table):
        for lam in [0.1, 0.5, 1.0, 2.0]:
            solution = solve_ground(2.0, lam, CiBasis.up_to(8), table)
            assert solution.energy <= math.pi**2 + EPS1_CLAMPED * lam + 1e-12

    def test_enlarging_basis_never_raises_energy(self, table):
        energies = [solve_ground(2.0, 1.0, CiBasis.up_to(nmax), table).energy for nmax in (2, 4, 6, 8)]
        assert all(b <= a + 1e-13 for a, b in zip(energies, energies[1:]))

    def test_small_lambda_slope_recovers_first_order(self, table):
        h = 1e-4
        basis = CiBasis.up_to(8)
        e_plus = solve_ground(2.0, h, basis, table).energy
        slope = (e_plus - math.pi**2) / h
        assert slope == pytest.approx(EPS1_CLAMPED, abs=1e-3)

    def test_solution_invariants_enforced(self):
        with pytest.raises(ValidationError):
            CiSolution(lam=1.0, energy=0.0, coefficients=np.array([0.5, 0.5]), overlap0=0.5, residual=0.0)
        with pytest.raises(ValidationError):
            CiSolution(lam=1.0, energy=0.0, coefficients=np.array([1.0, 0.0]), overlap0=1.5, residual=0.0)
        with pytest.raises(ValidationError):
            CiSolution(lam=-1.0, energy=0.0, coefficients=np.array([1.0, 0.0]), overlap0=0.5, residual=0.0)
        with pytest.raises(ValidationError):
            CiSolution(lam=1.0, energy=0.0, coefficients=np.array([1.0, 0.0]), overlap0=0.5, residual=1.0)

    @pytest.mark.filterwarnings("error")  # lambda * W overflowing must not warn on its way out
    def test_overflowing_lambda_raises_without_warning(self, table):
        with pytest.raises(ValidationError, match="non-finite"):
            solve_ground(2.0, 1e308, CiBasis.up_to(4), table)
        assert np.isinf(build_hamiltonian(2.0, 1e308, CiBasis.up_to(4), table)).any()


class TestOverlapScan:
    GRID = [1e-6, 0.01, 0.1, 0.5, 1.0, 2.0]

    def test_overlap_decays_monotonically(self, table):
        scan = overlap_scan(2.0, self.GRID, CiBasis.up_to(8), table)
        overlaps = [s.overlap0 for s in scan]
        assert all(0.0 <= v <= 1.0 for v in overlaps)
        assert overlaps[0] >= 1.0 - 1e-8
        assert all(b <= a + 1e-12 for a, b in zip(overlaps, overlaps[1:]))

    def test_matches_pointwise_solve(self, table):
        basis = CiBasis.up_to(5)
        scan = overlap_scan(2.0, [0.3, 0.9], basis, table)
        for s in scan:
            single = solve_ground(2.0, s.lam, basis, table)
            assert s.energy == pytest.approx(single.energy, abs=1e-12)
            assert s.overlap0 == pytest.approx(single.overlap0, abs=1e-12)

    def test_residuals_within_budget(self, table):
        scan = overlap_scan(2.0, self.GRID, CiBasis.up_to(6), table)
        assert all(s.residual <= 1e-10 for s in scan)

    def test_grid_validation(self, table):
        basis = CiBasis.up_to(4)
        with pytest.raises(ValidationError):
            overlap_scan(2.0, [], basis, table)
        with pytest.raises(ValidationError):
            overlap_scan(2.0, [0.5, 0.1], basis, table)
        with pytest.raises(ValidationError):
            overlap_scan(2.0, [0.0, 0.5], basis, table)

    def test_scan_yields_the_overlap_scan_and_keeps_no_vector(self, table):
        basis = CiBasis.up_to(6)
        listed = overlap_scan(2.0, self.GRID, basis, table)
        problem, vectors = CiProblem(2.0, basis, table), []
        for solution, expected in zip(problem.scan(self.GRID), listed, strict=True):
            assert (solution.lam, solution.energy, solution.overlap0, solution.residual) == (
                expected.lam, expected.energy, expected.overlap0, expected.residual)
            assert np.array_equal(solution.coefficients, expected.coefficients)
            vectors.append(weakref.ref(solution.coefficients))
        del solution
        # neither the scan nor the problem keeps a vector once its row is read
        assert [ref() for ref in vectors] == [None] * len(self.GRID)


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
        got, _, _ = ci._certified_ground_state(1.0, self._subspace(h, start), self._floor(h))
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

    def test_tiled_verdict_makes_no_copy_of_h(self, table):
        # LAPACK's whole-matrix Cholesky peaked at 21.07 MiB here: H, its
        # Fortran-ordered copy and the returned factor
        w = interaction_matrix(2.0, CiBasis.up_to(MAX_NMAX), table)
        kinetic = kinetic_diagonal(CiBasis.up_to(MAX_NMAX))
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
        energy, _, residual = ci._certified_ground_state(1.0, self._subspace(h, start), self._floor(h))
        assert len(starts) == 2
        np.testing.assert_array_equal(starts[1], (found[0][1] / np.linalg.norm(found[0][1]))[:, None])
        assert energy == ground_state(h)[0] and residual <= 1e-10

    def test_excited_pair_falls_through_the_floor_and_cholesky_to_dense(self, table, monkeypatch):
        # Davidson started on the exact first excited vector returns that pair
        # with a tiny residual; the floor and the Cholesky tier must both reject it
        problem = CiProblem(2.0, CiBasis.up_to(8), table)
        lam = 1.0
        h = build_hamiltonian(2.0, lam, problem.basis, table)
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
        energy, coeff, residual = ci._certified_ground_state(lam, subspace, problem._floor)
        # the first Cholesky certifies the floor's knot at lambda = 1, the second rejects the pair
        assert floor_verdicts == [False] and cholesky_verdicts == [True, False] and len(dense) == 1
        assert energy == pytest.approx(values[0], abs=1e-10) and residual <= 1e-10
        assert values[0] < problem._floor.knots[lam] < values[1]

    @pytest.mark.parametrize("nmax", [4, 8, 12, 24])
    def test_scan_agrees_with_dense_ground_state(self, nmax, table):
        basis = CiBasis.up_to(nmax)
        for z in (1.0, 2.0, 3.0, 4.0):
            for s in overlap_scan(z, self.AGREEMENT_GRID, basis, table):
                energy, coeff, _ = ground_state(build_hamiltonian(z, s.lam, basis, table))
                assert s.energy == pytest.approx(energy, rel=1e-12, abs=0)
                assert f"{s.energy:.10g}" == f"{energy:.10g}"
                assert f"{s.overlap0:.10g}" == f"{min(abs(float(coeff[0])), 1.0):.10g}"
                assert s.residual <= 1e-10

    def test_every_row_is_certified_without_dense_fallback(self, table, monkeypatch):
        def forbidden(matrix):
            raise AssertionError("dense fallback used")

        monkeypatch.setattr(ci, "ground_state", forbidden)
        problem = CiProblem(2.0, CiBasis.up_to(40), table)
        assert len(problem.overlap_scan(np.linspace(0.1, 2.0, 20))) == 20
        assert problem.second_order_estimate(np.linspace(0.02, 0.2, 10)) < 0.0

    def test_strong_coupling_scan_is_certified_without_dense_fallback(self, table, monkeypatch):
        # at Z = 1 and lambda 35-70 the nmax-24 Hamiltonian is far from
        # diagonally dominant, yet Davidson converges on every row within the cap
        def forbidden(matrix):
            raise AssertionError("dense fallback used")

        monkeypatch.setattr(ci, "ground_state", forbidden)
        assert len(overlap_scan(1.0, np.linspace(35.0, 70.0, 20), CiBasis.up_to(24), table)) == 20

    def test_strong_coupling_falls_back_to_dense(self, table, monkeypatch):
        # with the iteration cap cut to 2, Davidson misses its tolerance on
        # every row of this strongly coupled scan
        monkeypatch.setattr(ci, "_DAVIDSON_MAX_ITER", 2)
        dense = []
        monkeypatch.setattr(ci, "ground_state", lambda m: dense.append(m) or ground_state(m))
        basis = CiBasis.up_to(24)
        scan = overlap_scan(1.0, np.linspace(35.0, 70.0, 8), basis, table)
        assert len(dense) >= 1
        for s in scan:
            assert s.energy == pytest.approx(
                ground_state(build_hamiltonian(1.0, s.lam, basis, table))[0], rel=1e-12, abs=0
            )
            assert s.residual <= 1e-10

    def test_excited_state_trips_concavity_check(self, table, monkeypatch):
        # a row that reports the first excited pair passes its own residual
        # check but lies far above the neighbouring tangent lines
        solution = ci._solution
        basis = CiBasis.up_to(6)
        rows = []

        def excited_third_row(lam, energy, coeff, residual):
            rows.append(lam)
            if len(rows) != 3:
                return solution(lam, energy, coeff, residual)
            matrix = build_hamiltonian(2.0, lam, basis, table)
            values, vectors = np.linalg.eigh(matrix)
            coeff = vectors[:, 1] * np.sign(vectors[0, 1])
            residual = float(np.linalg.norm(matrix @ coeff - values[1] * coeff))
            return solution(lam, float(values[1]), coeff, residual)

        monkeypatch.setattr(ci, "_solution", excited_third_row)
        with pytest.raises(ConvergenceError, match="concave"):
            overlap_scan(2.0, np.linspace(0.1, 2.0, 6), basis, table)
        assert len(rows) == 6

    def test_energy_above_first_order_line_trips_concavity(self, table, monkeypatch):
        # the exact lambda = 0 row makes eps0 + eps1 lambda one of the tangents
        solution = ci._solution

        def raised(lam, energy, coeff, residual):
            return solution(lam, energy + 0.5, coeff, residual)

        monkeypatch.setattr(ci, "_solution", raised)
        with pytest.raises(ConvergenceError, match="tangent at lambda = 0"):
            overlap_scan(2.0, [0.5], CiBasis.up_to(6), table)

    def test_concavity_tolerates_rounding_on_a_tight_grid(self, table):
        # tangent margins shrink to rounding when lambda steps are ~1e-14 apart
        scan = overlap_scan(2.0, np.linspace(1.0, 1.0 + 1e-12, 20), CiBasis.up_to(8), table)
        assert len(scan) == 20


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
    def test_floor_starts_at_the_lowest_excited_kinetic_energy(self, table):
        floor = CiProblem(2.0, CiBasis.up_to(6), table)._floor
        assert floor.knots == {0.0: 2.5 * math.pi**2}
        assert floor.chord(0.0) == 2.5 * math.pi**2
        assert floor.chord(0.5) == -math.inf  # nothing is known beyond the last knot

    def test_one_configuration_has_no_second_eigenvalue(self, table):
        problem = CiProblem(2.0, CiBasis.up_to(1), table)
        assert problem._floor.exceeds(1.0, math.inf)
        (solution,) = problem.overlap_scan([1.0])
        assert solution.energy == pytest.approx(solve_ground(2.0, 1.0, CiBasis.up_to(1), table).energy,
                                                rel=1e-14, abs=0)

    def test_interior_knot_covers_the_rest_of_the_scan(self, table, monkeypatch):
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
        problem = CiProblem(4.0, CiBasis.up_to(24), table)
        grid = np.linspace(0.3739, 2.2723, 20)
        problem.overlap_scan(grid)
        problem.second_order_estimate(np.linspace(0.02, 0.2, 10))
        # both on the 299 x 299 H_QQ, none on the 300 x 300 H
        assert calls == [(299, 2.2723), (299, grid[5])]
        assert grid[5] == pytest.approx(0.8735, abs=1e-4)

    def test_scan_and_fit_share_the_knots(self, table):
        problem = CiProblem(2.0, CiBasis.up_to(12), table)
        problem.overlap_scan(np.linspace(0.1, 2.0, 20))
        knots = dict(problem._floor.knots)
        problem.second_order_estimate(np.linspace(0.02, 0.2, 10))
        assert problem._floor.knots == knots and 2.0 in knots


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(z=st.floats(0.5, 4.0), nmax=st.integers(4, 16), top=st.floats(1e-3, 3.0),
       fraction=st.floats(1e-3, 1.0))
def test_floor_never_exceeds_the_second_eigenvalue(table, z, nmax, top, fraction):
    # every certified knot and every chord value lies below the dense lambda_2
    basis = CiBasis.up_to(nmax)
    floor = CiProblem(z, basis, table)._floor
    lam = top * fraction
    floor.reach(top)
    floor.certify(lam)
    assert top in floor.knots

    def eigenvalue(x, block, index):
        h = build_hamiltonian(z, x, basis, table)[block, block]
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
    def test_rounding_bound_input_is_rejected(self, table):
        # eps ||H|| near RESIDUAL_TOL made this verdict depend on the BLAS thread count
        problem = CiProblem(3.0, CiBasis.up_to(12), table)
        assert problem._norm_bound(2238.72113856834) == pytest.approx(3.086e5, rel=1e-3)
        with pytest.raises(ValidationError, match=r"3\.086e\+05 on \|\|H\|\|_2 exceeds"):
            problem.overlap_scan([2238.72113856834])

    @pytest.mark.parametrize("z,nmax,lam,bound", [(1.0, 24, 70.0, 1.267e4), (4.0, 48, 3.0, 2.494e4)])
    def test_strong_coupling_stays_inside(self, table, z, nmax, lam, bound):
        got = CiProblem(z, CiBasis.up_to(nmax), table)._norm_bound(lam)
        assert got == pytest.approx(bound, rel=1e-3) and got < ci._NORM_LIMIT

    def test_bound_covers_the_spectral_norm(self, table):
        problem = CiProblem(4.0, CiBasis.up_to(8), table)
        for lam in (0.5, 30.0):
            h = build_hamiltonian(4.0, lam, problem.basis, table)
            assert np.linalg.norm(h, 2) <= problem._norm_bound(lam)


class TestSecondOrder:
    FIT_GRID = np.linspace(0.02, 0.2, 10)

    def test_fit_agrees_with_sum_over_states(self, table):
        basis = CiBasis.up_to(8)
        fit = second_order_estimate(2.0, basis, self.FIT_GRID, table)
        sos = second_order_sum_over_states(2.0, basis, table)
        assert fit == pytest.approx(-0.6839750967457979, abs=1e-6)
        assert sos == pytest.approx(-0.6844563375149016, abs=1e-9)
        assert abs(fit - sos) <= 0.02 * abs(sos)

    def test_always_negative(self, table):
        assert second_order_estimate(2.0, CiBasis.up_to(6), self.FIT_GRID, table) < 0.0
        assert second_order_sum_over_states(2.0, CiBasis.up_to(6), table) < 0.0

    def test_deepens_with_basis(self, table):
        values = [second_order_sum_over_states(2.0, CiBasis.up_to(nmax), table) for nmax in (4, 6, 8, 10)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_grid_validation(self, table):
        basis = CiBasis.up_to(4)
        with pytest.raises(ValidationError):
            second_order_estimate(2.0, basis, [0.1, 0.5], table)
        with pytest.raises(ValidationError):
            second_order_estimate(2.0, basis, [0.1, 0.1], table)
        with pytest.raises(ValidationError):
            second_order_estimate(2.0, CiBasis.up_to(3), self.FIT_GRID, table)

    def test_degenerate_grid_fails_loudly(self, table):
        basis = CiBasis.up_to(4)
        grid = [0.2 * (1.0 - 1e-13), 0.2]
        with pytest.raises(ConvergenceError, match="lambda"):
            second_order_estimate(2.0, basis, grid, table)
