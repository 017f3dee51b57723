import dataclasses
import math

import numpy as np
import pytest
from conftest import hard_pair

from lagweb import bvpsolve
from lagweb.bvpsolve import (
    apriori_bounds,
    exact_shooting_map,
    phase_quadrature,
    shooting_window,
    solve_bvp_maslov0,
)
from lagweb.errors import NoConvergence
from lagweb.geoflow import _scalar_flow, horizontal_frame
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


def shooting_residual(spectrum, a, config):
    """(th_j(1; a) - beta_j)_j by the solver's RK4 flow, averaged inside each block."""
    _, _, theta = _scalar_flow(np.asarray(a, dtype=float), spectrum.phase0, config)
    sizes = [len(block) for block in spectrum.blocks]  # blocks partition range(n) in order
    return np.repeat(bvpsolve._block_average(theta[-1] - spectrum.beta, spectrum.blocks), sizes)


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
        with pytest.raises(ValueError, match="need -pi/2 < phi0 <= phi1 < pi/2"):
            apriori_bounds(0.5, 0.1)
        with pytest.raises(ValueError, match="need -pi/2 < phi0 <= phi1 < pi/2"):
            apriori_bounds(-2.0, 0.1)
        with pytest.raises(ValueError, match="need -pi/2 < phi0 <= phi1 < pi/2"):
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
        with pytest.raises(ValueError, match="pair has Maslov index 2, need 0"):
            solve_bvp_maslov0(l1, l0, 1e-10, CFG)

    def test_non_integer_maslov_quotient_rejected(self, monkeypatch):
        # rounding the quotient used to read 0.4 as index 0 and solve
        def shifted(l0, l1):
            spectrum = pair_decomposition(l0, l1)
            phase1 = spectrum.phase0 + float(spectrum.beta.sum()) - 0.4 * math.pi
            return dataclasses.replace(spectrum, phase1=phase1)

        monkeypatch.setattr(bvpsolve, "pair_decomposition", shifted)
        with pytest.raises(ValueError, match=r"^Maslov quotient 0\.400000000 is 4\.000e-01 from "
                                             r"an integer$"):
            solve_bvp_maslov0(make_frame(FlatCalabiYau(2), np.eye(2)),
                              diag_frame(math.pi / 6, math.pi / 4), 1e-10, CFG)

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
        # beta = (0.4, 1.6): -tan(beta)/4 would start the larger angle at a
        # positive coefficient; the exact map starts every block below zero
        l0, l1 = diag_frame(-1.2, 0.0), diag_frame(0.4, 0.4)
        sol = solve_bvp_maslov0(l0, l1, 1e-10, IntegratorConfig(1000))
        assert sol.spectrum.beta[1] > 0.5 * math.pi
        assert sol.residual_norm < 1e-10
        assert np.all(sol.coefficients < 0.0)
        assert principal_angle_distance(horizontal_frame(sol.trajectory, 1.0), l1) < 1e-7

    def test_phase_near_minus_half_pi_falls_back_to_continuation(self):
        # phase0 = -1.5378: RK4 shooting from the -tan(beta)/4 start left the
        # phase chart here and needed the continuation fallback, which is gone;
        # the exact map never leaves [phase0, phase1] and solves it directly
        beta = np.array([0.4793, 0.6221])
        l0 = diag_frame(-0.7689, -0.7689)
        l1 = diag_frame(*(-0.7689 + beta))
        sol = solve_bvp_maslov0(l0, l1, 1e-10, IntegratorConfig(1000))
        assert sol.continuation_steps == 0
        assert sol.grid_residuals == ()   # the exact root needs no grid correction
        assert sol.residual_norm < 1e-10
        np.testing.assert_allclose(sol.trajectory.theta[-1], beta, rtol=0, atol=1e-10)
        assert np.all(sol.coefficients < 0.0)

    def test_jacobian_leaving_the_chart_is_a_failed_solve(self):
        # phase1 = 1.569 at 200 steps: the exact root exists, but this RK4
        # grid misses it by 4e-4 and the grid correction stalls
        with pytest.raises(NoConvergence) as info:
            solve_bvp_maslov0(diag_frame(0.06), diag_frame(1.569), 1e-10, IntegratorConfig(200))
        assert 0.0 < info.value.best_residual < math.inf
        steps = int(str(info.value).split("about ")[1].split(" steps")[0])
        assert 200 * (3e-4 / 1e-10) ** 0.25 < steps < 200 * (5e-4 / 1e-10) ** 0.25

    def test_singular_jacobian_is_a_failed_solve(self, monkeypatch):
        def singular(v, mult, window):
            t, th, dt, dth, rate = exact_shooting_map(v, mult, window)
            return t, th, 0.0 * dt, 0.0 * dth, rate

        monkeypatch.setattr(bvpsolve, "exact_shooting_map", singular)
        with pytest.raises(NoConvergence) as info:
            solve_bvp_maslov0(make_frame(FlatCalabiYau(2), np.eye(2)),
                              diag_frame(math.pi / 6, math.pi / 4), 1e-10, IntegratorConfig(200))
        assert info.value.best_residual > 0.0


def n1_root(phase0, phase1):
    """Closed-form coefficient of the n = 1 flow from phase0 to phase1."""
    return -math.cos(phase0) ** 2 * (math.tan(phase1) - math.tan(phase0)) / 2.0


class TestExactMap:
    def test_n1_root_is_the_closed_form(self):
        for phase0, phase1 in ((0.0, 0.6), (-1.2, 0.3), (0.06, 1.569), (-1.56, -0.4),
                               (0.5, 1.568), (-1.5, 1.569), (-0.3, 1.568)):
            v, _, _ = bvpsolve.solve_exact_map(np.array([phase1 - phase0]), np.ones(1),
                                             phase0, 1e-10)
            assert abs(v[0] / n1_root(phase0, phase1) - 1.0) < 1e-12, (phase0, phase1)

    def test_rk4_oracle_at_the_exact_root(self):
        rng = np.random.default_rng(25)
        for n in (2, 3, 4, 5, 6):
            l0, l1, _, _ = random_maslov_zero_pair(rng, n)
            sol = solve_bvp_maslov0(l0, l1, 1e-10, IntegratorConfig(1000))
            assert sol.grid_residuals == ()
            r = shooting_residual(sol.spectrum, sol.coefficients, IntegratorConfig(1000))
            assert np.max(np.abs(r)) <= 1e-12

    def test_analytic_jacobian_matches_differences(self):
        mult = np.array([1.0, 2.0, 1.0])
        v = np.array([-0.3, -1.1, -4.0])
        window = shooting_window(-0.4, 1.3, 3)
        _, _, dt, dth, _ = exact_shooting_map(v, mult, window)
        for c in range(3):
            e = np.zeros(3)
            e[c] = 1e-6
            tp, thp, _, _, _ = exact_shooting_map(v + e, mult, window)
            tm, thm, _, _, _ = exact_shooting_map(v - e, mult, window)
            assert abs((tp - tm) / 2e-6 - dt[c]) < 1e-7 * (1.0 + abs(dt[c]))
            np.testing.assert_allclose((thp - thm) / 2e-6, dth[:, c], rtol=1e-7, atol=1e-8)

    def test_angles_sum_to_the_window(self):
        mult = np.array([2.0, 1.0])
        t, th, _, _, _ = exact_shooting_map(np.array([-0.2, -3.0]), mult,
                                            shooting_window(-1.0, 1.5, 2))
        assert t > 0.0
        assert abs(th @ mult - 2.5) < 1e-14

    def test_first_integral_along_the_trajectory(self):
        rng = np.random.default_rng(26)
        for n in (2, 4, 6):
            l0, l1, _, _ = random_maslov_zero_pair(rng, n)
            traj = solve_bvp_maslov0(l0, l1, 1e-10, IntegratorConfig(1000)).trajectory
            integral = np.cos(traj.phases) * np.sqrt(np.prod(traj.g, axis=1))
            assert np.max(np.abs(integral - math.cos(traj.spec.base.phase))) <= 1e-11

    @pytest.mark.parametrize("phase0,beta", [
        (0.0, (0.568, 1.0)),                # phase1 = 1.568
        (-1.5378, (0.4793, 0.6221)),        # phase0 = -1.5378
    ])
    def test_doubling_the_panels_keeps_the_root(self, monkeypatch, phase0, beta):
        beta = np.array(beta)
        mult = np.ones(2)
        v, _, _ = bvpsolve.solve_exact_map(beta, mult, phase0, 1e-10)
        monkeypatch.setattr(bvpsolve, "PANEL_RATIO", math.sqrt(bvpsolve.PANEL_RATIO))
        fine, _, _ = bvpsolve.solve_exact_map(beta, mult, phase0, 1e-10)
        assert np.max(np.abs(fine / v - 1.0)) < 1e-13

    @pytest.mark.parametrize("case", ["seeded-n4", "n1-near-half-pi"])
    def test_root_outputs_are_not_evaluated_again(self, monkeypatch, case):
        # the solve reads the time-1 Jacobian from solve_exact_map's last
        # accepted iterate: no call of the map outside the Newton solve, and
        # the same bits as a fresh evaluation at the returned root
        if case == "seeded-n4":
            l0, l1, _, _ = random_maslov_zero_pair(np.random.default_rng(27), 4)
        else:  # the grid correction runs and uses the Jacobian
            l0, l1 = diag_frame(0.06), diag_frame(1.569)
        exact_map, solve = bvpsolve.exact_shooting_map, bvpsolve.solve_exact_map
        calls, roots = [], []

        def map_spy(*args):
            calls.append(args)
            return exact_map(*args)

        def solve_spy(*args):
            v, root, history = solve(*args)
            roots.append((v, len(calls)))
            return v, root, history

        monkeypatch.setattr(bvpsolve, "exact_shooting_map", map_spy)
        monkeypatch.setattr(bvpsolve, "solve_exact_map", solve_spy)
        sol = solve_bvp_maslov0(l0, l1, 1e-10, IntegratorConfig(1000))
        assert (case == "n1-near-half-pi") == bool(sol.grid_residuals)
        [(v, inside)] = roots
        assert len(calls) == inside
        _, mult, window = calls[-1]
        _, _, dt, dth, rate = exact_map(v, mult, window)
        condition = float(np.linalg.cond(dth - rate[:, np.newaxis] * dt[np.newaxis, :]))
        assert sol.jacobian_condition == condition  # >= 1, so equal values are equal bits


class TestFormerlyUnsolvedPairs:
    """Pairs that RK4-rooting Newton with continuation could not solve."""

    def test_n1_pair_near_half_pi(self):
        sol = solve_bvp_maslov0(diag_frame(0.06), diag_frame(1.569), 1e-10, IntegratorConfig(1000))
        assert sol.residual_norm < 1e-10
        # RK4 at the exact root -277.3147 misses by 2.4e-6; the grid
        # correction lands in three trajectories
        assert 1 < len(sol.grid_residuals) <= 1 + bvpsolve.GRID_STEPS
        assert sol.grid_residuals[0] > 1e-6
        assert abs(sol.coefficients[0] / n1_root(0.06, 1.569) - 1.0) < 1e-2
        np.testing.assert_allclose(sol.trajectory.theta[-1], [1.509], atol=1e-10)

    def test_n3_pair_from_phase_near_minus_half_pi(self):
        rng = np.random.default_rng(5)
        l0 = diag_frame(-0.52, -0.52, -0.52)
        beta = np.array([4e-4, 0.086, 0.628])
        r, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        l1 = make_frame(l0.ambient, ((l0.columns @ r) * np.exp(1j * beta)) @ r.T)
        sol = solve_bvp_maslov0(l0, l1, 1e-10, IntegratorConfig(1000))
        assert sol.residual_norm < 1e-10
        assert sol.grid_residuals[0] > 1e-10     # RK4 misses by 4.1e-10 at the exact root
        np.testing.assert_allclose(sol.spectrum.beta, beta, atol=1e-12)
        np.testing.assert_allclose(sol.trajectory.theta[-1], beta, atol=1e-10)
        assert np.all(sol.coefficients < 0.0)

    def test_n6_pair_from_phase_near_minus_half_pi(self):
        # phase0 = -1.569: uncapped Newton steps in log(-v) overshoot to
        # t(phase1) ~ 0, where the line search stalls; steps capped at 2 land
        beta = np.array([7.4e-4, 0.0603, 0.0957, 0.1724, 0.2619, 1.0926])
        l0 = diag_frame(*np.full(6, -1.569 / 6))
        sol = solve_bvp_maslov0(l0, diag_frame(*(-1.569 / 6 + beta)), 1e-10,
                                IntegratorConfig(1000))
        assert sol.residual_norm < 1e-10
        np.testing.assert_allclose(sol.trajectory.theta[-1], beta, atol=1e-10)
        assert np.all(sol.coefficients < 0.0)


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
    assert sol.grid_residuals == ()   # RK4 at the exact root already meets the tolerance
    np.testing.assert_allclose(sol.spectrum.beta, beta_true, rtol=0, atol=1e-8)
    np.testing.assert_allclose(sol.trajectory.theta[-1], beta_true, rtol=0, atol=1e-8)
    frozen = sol.spectrum.beta == 0.0
    assert np.all(sol.coefficients[frozen] == 0.0)
    assert np.all(sol.coefficients[~frozen] < 0.0)


def per_evaluation_map(v, mult, phase0, nodes, weights):
    """exact_shooting_map with everything formed at each evaluation: psi,
    the right-hand side, 1 - rho at every metric Newton step, and the
    identity.  The reference for the map that takes them from its window."""
    psi = np.append(nodes, phase0 + weights.sum())
    rhs = 2.0 * (math.log(math.cos(phase0)) - np.log(np.cos(psi)))
    rho = v / v.min()
    u = rhs / mult.sum()
    for _ in range(100):
        e = rho * np.exp(u)[:, np.newaxis]
        g = (1.0 - rho) + e
        du = (np.log(g) @ mult - rhs) / ((e / g) @ mult)
        u = u - du
        if np.all(np.abs(du) <= 1e-13 * (1.0 + np.abs(u))):
            break
    else:
        raise NoConvergence("metric root did not converge")
    s, g = -np.expm1(u) / (4.0 * v.min()), (1.0 - rho) + rho * np.exp(u)[:, np.newaxis]
    q = -2.0 * v / g
    f = q @ mult
    ds = 2.0 * mult * s[:, np.newaxis] / (g * f[:, np.newaxis])
    dq = -2.0 * (q**2)[:, :, np.newaxis] * ds[:, np.newaxis, :]
    dq -= 2.0 * np.eye(v.size) / (g**2)[:, :, np.newaxis]
    df = np.einsum("b,nbc->nc", mult, dq)
    wf = weights / f[:-1] ** 2
    dt = -wf @ df[:-1]
    dth = np.einsum("n,nbc->bc", wf, dq[:-1] * f[:-1, np.newaxis, np.newaxis]
                    - q[:-1, :, np.newaxis] * df[:-1, np.newaxis, :])
    return weights @ (1.0 / f[:-1]), (weights / f[:-1]) @ q[:-1], dt, dth, q[-1]


def bits(*arrays):
    return [np.asarray(x, dtype=float).tobytes() for x in arrays]


# solve_corpus's shapes: seeded pairs at n = 2..6, the hard pairs, and the n = 1
# pair near pi/2 whose grid correction reads the root's Jacobian
MAP_CASES = [("seeded", n) for n in range(2, 7)] + [("hard", i) for i in range(len(HARD_PAIRS))] \
    + [("n1-near-half-pi",)]


@pytest.mark.parametrize("case", MAP_CASES, ids=lambda c: "-".join(map(str, c)))
def test_same_bits_as_the_per_evaluation_map(monkeypatch, case):
    if case[0] == "seeded":
        l0, l1, _, _ = random_maslov_zero_pair(np.random.default_rng(40 + case[1]), case[1])
    elif case[0] == "hard":
        l0, l1, _ = hard_pair(case[1], *HARD_PAIRS[case[1]])
    else:
        l0, l1 = diag_frame(0.06), diag_frame(1.569)
    solve, runs = bvpsolve.solve_exact_map, []

    def solve_spy(*args):
        runs.append((args, solve(*args)))
        return runs[-1][1]

    monkeypatch.setattr(bvpsolve, "solve_exact_map", solve_spy)
    solve_bvp_maslov0(l0, l1, 1e-10, IntegratorConfig(1000))
    [(args, (v, root, history))] = runs
    beta_block, mult, phase0, _ = args
    nodes, weights = phase_quadrature(phase0, phase0 + beta_block @ mult)
    monkeypatch.setattr(bvpsolve, "exact_shooting_map",
                        lambda v, mult, window: per_evaluation_map(v, mult, phase0, nodes, weights))
    v_ref, root_ref, history_ref = solve(*args)
    assert bits(v, *root, history) == bits(v_ref, *root_ref, history_ref)


def sol_bounds(sol):
    b = apriori_bounds(sol.spectrum.phase0, sol.spectrum.phase1)
    return b.coefficient_bound + 1e-6
