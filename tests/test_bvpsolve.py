import math

import numpy as np
import pytest

from lagweb.bvpsolve import (
    apriori_bounds,
    shooting_residual,
    solve_bvp_maslov0,
)
from lagweb.errors import BadPhaseWindow, MaslovNonzero
from lagweb.geoflow import horizontal_frame
from lagweb.laggrass import (
    FlatCalabiYau,
    make_frame,
    pair_decomposition,
    principal_angle_distance,
    random_maslov_zero_pair,
)
from lagweb.numkernel import IntegratorConfig

CFG = IntegratorConfig(2000)


def diag_frame(*angles):
    n = len(angles)
    return make_frame(FlatCalabiYau(n), np.diag(np.exp(1j * np.array(angles))))


class TestAprioriBounds:
    def test_positive_window(self):
        b = apriori_bounds(0.0, math.pi / 4)
        assert abs(b.metric_bound - math.exp(math.pi)) < 1e-12
        assert abs(b.coefficient_bound - math.exp(math.pi) * math.pi / 8) < 1e-12

    def test_negative_window(self):
        b = apriori_bounds(-0.5, -0.1)
        assert b.metric_bound == 1.0
        assert abs(b.coefficient_bound - 0.2) < 1e-15

    def test_degenerate_window(self):
        assert apriori_bounds(0.3, 0.3).coefficient_bound == 0.0

    def test_overflowing_metric_bound_is_infinite(self):
        # e^{pi tan phi1} overflows a float once phi1 exceeds ~1.5664
        b = apriori_bounds(0.0, 1.568)
        assert b.metric_bound == math.inf
        assert b.coefficient_bound == math.inf
        assert apriori_bounds(1.568, 1.568).coefficient_bound == 0.0

    def test_rejects_bad_windows(self):
        with pytest.raises(BadPhaseWindow):
            apriori_bounds(0.5, 0.1)
        with pytest.raises(BadPhaseWindow):
            apriori_bounds(-2.0, 0.1)
        with pytest.raises(BadPhaseWindow):
            apriori_bounds(0.0, math.pi / 2)


class TestShootingResidual:
    def test_zero_coefficients_give_minus_beta(self):
        l0 = make_frame(FlatCalabiYau(1), np.eye(1))
        l1 = diag_frame(0.6)
        spec = pair_decomposition(l0, l1)
        r = shooting_residual(spec, [0.0], CFG)
        assert abs(r[0] + 0.6) < 1e-12

    def test_closed_form_coefficient(self):
        l0 = make_frame(FlatCalabiYau(1), np.eye(1))
        l1 = diag_frame(0.6)
        spec = pair_decomposition(l0, l1)
        r = shooting_residual(spec, [-math.tan(0.6) / 2.0], CFG)
        assert abs(r[0]) < 1e-9

    def test_coincident_pair(self):
        f = diag_frame(0.2, -0.1)
        spec = pair_decomposition(f, f)
        r = shooting_residual(spec, [0.0, 0.0], CFG)
        np.testing.assert_array_equal(r, np.zeros(2))

    def test_rejects_positive_coefficients(self):
        f = diag_frame(0.2, -0.1)
        spec = pair_decomposition(f, f)
        with pytest.raises(ValueError):
            shooting_residual(spec, [0.1, -0.1], CFG)


class TestSolver:
    def test_1d_closed_form(self):
        l0 = make_frame(FlatCalabiYau(1), np.eye(1))
        for beta in (0.1, 0.6, 1.2):
            sol = solve_bvp_maslov0(l0, diag_frame(beta), 1e-10, CFG)
            assert abs(sol.coefficients[0] + math.tan(beta) / 2.0) < 1e-8
            assert sol.residual_norm < 1e-10

    def test_2d_diagonal_pair(self):
        l0 = make_frame(FlatCalabiYau(2), np.eye(2))
        l1 = diag_frame(math.pi / 6, math.pi / 4)
        sol = solve_bvp_maslov0(l0, l1, 1e-10, CFG)
        assert sol.residual_norm < 1e-10
        assert np.all(sol.coefficients < 0.0)
        f1 = horizontal_frame(sol.trajectory, 1.0)
        assert principal_angle_distance(f1, l1) < 1e-8

    def test_coincident_pair_freezes_everything(self):
        f = diag_frame(0.3, -0.2, 0.1)
        sol = solve_bvp_maslov0(f, f, 1e-10, IntegratorConfig(200))
        np.testing.assert_array_equal(sol.coefficients, np.zeros(3))
        assert sol.residual_norm == 0.0
        assert sol.continuation_steps == 0

    def test_maslov_nonzero_rejected(self):
        l0 = make_frame(FlatCalabiYau(2), np.eye(2))
        l1 = diag_frame(math.pi / 6, math.pi / 4)
        with pytest.raises(MaslovNonzero):
            solve_bvp_maslov0(l1, l0, 1e-10, CFG)

    def test_degenerate_block_gets_equal_coefficients(self):
        rng = np.random.default_rng(21)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        beta = np.array([0.35, 0.35, 0.7])  # sum stays below pi/2
        raw1 = (q * np.exp(1j * beta)) @ q.T
        l0 = make_frame(FlatCalabiYau(3), np.eye(3))
        l1 = make_frame(l0.ambient, raw1)
        sol = solve_bvp_maslov0(l0, l1, 1e-10, IntegratorConfig(1000))
        spec = sol.spectrum
        assert sorted(len(b) for b in spec.blocks) == [1, 2]
        block = next(list(b) for b in spec.blocks if len(b) == 2)
        assert sol.coefficients[block[0]] == sol.coefficients[block[1]]
        assert principal_angle_distance(horizontal_frame(sol.trajectory, 1.0), l1) < 1e-7

    def test_partially_frozen_pair(self):
        rng = np.random.default_rng(22)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        beta = np.array([0.0, 0.5, 0.9])
        raw1 = (q * np.exp(1j * beta)) @ q.T
        l0 = make_frame(FlatCalabiYau(3), np.eye(3))
        l1 = make_frame(l0.ambient, raw1)
        sol = solve_bvp_maslov0(l0, l1, 1e-10, IntegratorConfig(1000))
        assert not sol.spectrum.transverse
        assert sol.coefficients[0] == 0.0
        assert np.all(sol.coefficients[1:] < 0.0)
        assert sol.residual_norm < 1e-10
        assert principal_angle_distance(horizontal_frame(sol.trajectory, 1.0), l1) < 1e-7

    def test_random_pairs_round_trip(self):
        rng = np.random.default_rng(23)
        for n in (2, 4, 6):
            l0, l1, beta_true, _ = random_maslov_zero_pair(rng, n)
            sol = solve_bvp_maslov0(l0, l1, 1e-10, IntegratorConfig(1000))
            assert sol.residual_norm < 1e-10
            assert np.all(sol.coefficients < 0.0)
            assert np.all(sol.coefficients > -sol_bounds(sol))
            f1 = horizontal_frame(sol.trajectory, 1.0)
            assert principal_angle_distance(f1, l1) < 1e-7
            # angles of (start plane, reached plane) reproduce the targets
            spec_rt = pair_decomposition(l0, f1)
            np.testing.assert_allclose(spec_rt.beta, beta_true, atol=1e-7)
            # rotation mechanism: every angle lands in [0, pi) and the total
            # phase change matches
            theta1 = sol.trajectory.theta[-1]
            assert np.all(theta1 >= 0.0) and np.all(theta1 < math.pi)
            assert abs(theta1.sum() - (l1.phase - l0.phase)) < 1e-8

    def test_phase_near_half_pi_solves_without_box(self):
        # phase1 = 1.568 leaves no finite a priori box; the solve still lands
        beta = np.array([0.568, 1.0])
        l0 = make_frame(FlatCalabiYau(2), np.eye(2))
        sol = solve_bvp_maslov0(l0, diag_frame(*beta), 1e-10, IntegratorConfig(1000))
        assert sol.residual_norm < 1e-10
        np.testing.assert_allclose(sol.trajectory.theta[-1], beta, atol=1e-10)
        assert np.all(sol.coefficients < 0.0)

    def test_quadratic_final_stage(self):
        rng = np.random.default_rng(24)
        l0, l1, _, _ = random_maslov_zero_pair(rng, 4)
        sol = solve_bvp_maslov0(l0, l1, 1e-10, IntegratorConfig(1000))
        hist = [r for r in sol.newton_residuals if r > 1e-13]
        assert len(hist) >= 3
        for r_prev, r_next in zip(hist[-3:], hist[-2:]):
            assert r_next <= max(50.0 * r_prev**2, 1e-13)


def sol_bounds(sol):
    b = apriori_bounds(sol.spectrum.phase0, sol.spectrum.phase1)
    return b.coefficient_bound + 1e-6
