import math

import numpy as np
import pytest

from lagweb.bvpsolve import (
    _BlockShooter,
    apriori_bounds,
    shooting_residual,
    solve_bvp_maslov0,
)
from lagweb.errors import BadPhaseWindow, MaslovNonzero, NoConvergence
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

    def test_angle_past_half_pi(self):
        # beta = (0.4, 1.6): the -tan(beta)/4 start of the larger angle is
        # positive and gets clipped to the box before Newton moves it
        l0, l1 = diag_frame(-1.2, 0.0), diag_frame(0.4, 0.4)
        sol = solve_bvp_maslov0(l0, l1, 1e-10, IntegratorConfig(1000))
        assert sol.spectrum.beta[1] > 0.5 * math.pi
        assert sol.residual_norm < 1e-10
        assert np.all(sol.coefficients < 0.0)
        assert principal_angle_distance(horizontal_frame(sol.trajectory, 1.0), l1) < 1e-7

    def test_phase_near_minus_half_pi_falls_back_to_continuation(self):
        # phase0 = -1.5378: the first shot from the -tan(beta)/4 start leaves
        # the phase chart, so only the continuation's starts reach the solution
        beta = np.array([0.4793, 0.6221])
        l0 = diag_frame(-0.7689, -0.7689)
        l1 = diag_frame(*(-0.7689 + beta))
        sol = solve_bvp_maslov0(l0, l1, 1e-10, IntegratorConfig(1000))
        assert sol.continuation_steps > 0
        assert sol.residual_norm < 1e-10
        np.testing.assert_allclose(sol.trajectory.theta[-1], beta, rtol=0, atol=1e-10)
        assert np.all(sol.coefficients < 0.0)

    def test_jacobian_leaving_the_chart_is_a_failed_solve(self):
        # phase1 = 1.569: a coarse-grid difference row of a Jacobian leaves
        # the phase chart; that fails the Newton stage instead of escaping
        with pytest.raises(NoConvergence) as info:
            solve_bvp_maslov0(diag_frame(0.06), diag_frame(1.569), 1e-10, IntegratorConfig(1000))
        assert 0.0 < info.value.best_residual < math.inf

    def test_singular_jacobian_is_a_failed_solve(self, monkeypatch):
        monkeypatch.setattr(_BlockShooter, "jacobian",
                            lambda self, v, s, config, fd_step: np.zeros((v.size, v.size)))
        with pytest.raises(NoConvergence) as info:
            solve_bvp_maslov0(make_frame(FlatCalabiYau(2), np.eye(2)),
                              diag_frame(math.pi / 6, math.pi / 4), 1e-10, IntegratorConfig(200))
        assert info.value.best_residual > 0.0


def hard_pair(seed, phase1, fixed, weights):
    """Maslov-zero pair reaching phase1: the fixed angles as given, the rest
    of phase1 - phase0 shared by the weights, in a random rotated basis."""
    rng = np.random.default_rng(seed)
    n = len(fixed) + len(weights)
    l0 = make_frame(FlatCalabiYau(n), np.diag(np.exp(1j * np.full(n, rng.uniform(-0.3, 0.3) / n))))
    w = np.asarray(weights, dtype=float)
    beta = np.concatenate([np.asarray(fixed, dtype=float),
                           (phase1 - l0.phase - sum(fixed)) * w / w.sum()])
    r, _ = np.linalg.qr(rng.standard_normal((n, n)))
    raw1 = ((l0.columns @ r) * np.exp(1j * beta)) @ r.T
    return l0, make_frame(l0.ambient, raw1), np.sort(beta)


# (phase1, fixed angles, weights): phases near pi/2, an angle of 1e-4,
# repeated angles (one degenerate block) and zero angles (frozen blocks)
HARD_PAIRS = [
    (1.555, (), (1.0, 1.5)),
    (1.565, (), (1.0, 2.0, 3.0)),
    (1.568, (), (1.0, 2.0)),
    (1.2, (1e-4,), (1.0, 1.3)),
    (1.0, (1e-4,), (1.0, 2.0, 3.0)),
    (1.3, (), (1.0, 1.0, 2.0, 2.0)),
    (1.1, (), (1.0, 1.0, 1.0)),
    (1.2, (0.0,), (1.0, 2.0)),
    (1.3, (0.0, 0.0), (1.0, 2.0)),
    (1.555, (0.0, 1e-4), (1.0, 1.0, 2.0)),
]


@pytest.mark.parametrize("seed,case", list(enumerate(HARD_PAIRS)))
def test_hard_pair_stress(seed, case):
    phase1, fixed, weights = case
    l0, l1, beta_true = hard_pair(seed, phase1, fixed, weights)
    sol = solve_bvp_maslov0(l0, l1, 1e-10, IntegratorConfig(1000))
    assert sol.residual_norm < 1e-10
    assert sol.continuation_steps == 0
    np.testing.assert_allclose(sol.spectrum.beta, beta_true, rtol=0, atol=1e-8)
    np.testing.assert_allclose(sol.trajectory.theta[-1], beta_true, rtol=0, atol=1e-8)
    frozen = sol.spectrum.beta == 0.0
    assert np.all(sol.coefficients[frozen] == 0.0)
    assert np.all(sol.coefficients[~frozen] < 0.0)


def sol_bounds(sol):
    b = apriori_bounds(sol.spectrum.phase0, sol.spectrum.phase1)
    return b.coefficient_bound + 1e-6
