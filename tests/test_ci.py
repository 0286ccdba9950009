import math

import numpy as np
import pytest

from boxatom import (
    CiBasis,
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
from boxatom.ci import MAX_NMAX
from boxatom.errors import ConvergenceError, ValidationError

from oracles import product_basis_hamiltonian

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
