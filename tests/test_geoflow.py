import math

import numpy as np
import pytest

from lagweb.errors import PhaseBlowup
from lagweb.geoflow import (
    GeodesicSpec,
    GeodesicTrajectory,
    frame_ode_oracle,
    geodesic_ivp,
    horizontal_frame,
    phase_along,
    read_trajectory_csv,
    two_route_deviation,
    write_trajectory_csv,
)
from lagweb.laggrass import (
    FlatCalabiYau,
    make_frame,
    principal_angle_distance,
)
from lagweb.numkernel import IntegratorConfig

CFG = IntegratorConfig(2000)


def real_line(angle=0.0):
    return make_frame(FlatCalabiYau(1), np.array([[np.exp(1j * angle)]]))


def spec_1d(beta, phase0=0.0):
    # closed form: theta(t) = arctan(t tan beta), g(t) = 1 + t^2 tan^2 beta
    return GeodesicSpec.from_frame(real_line(phase0), [-math.tan(beta) / 2.0])


def random_spec(rng, n, amin=-2.0, amax=-0.05):
    from conftest import random_flow_spec

    return random_flow_spec(rng, n, amin, amax)


class TestScalarFlow:
    def test_zero_hamiltonian_is_constant(self):
        spec = GeodesicSpec.from_frame(real_line(), [0.0])
        traj = geodesic_ivp(spec, IntegratorConfig(50))
        np.testing.assert_array_equal(traj.g, np.ones((51, 1)))
        np.testing.assert_array_equal(traj.theta, np.zeros((51, 1)))

    def test_1d_closed_form(self):
        beta = 0.6
        traj = geodesic_ivp(spec_1d(beta), CFG)
        tanb = math.tan(beta)
        theta_exact = np.arctan(traj.times * tanb)
        g_exact = 1.0 + (traj.times * tanb) ** 2
        assert np.max(np.abs(traj.theta[:, 0] - theta_exact)) < 1e-9
        assert np.max(np.abs(traj.g[:, 0] - g_exact)) < 1e-9

    def test_symmetric_coefficients_stay_symmetric(self):
        l0 = make_frame(FlatCalabiYau(2), np.eye(2))
        spec = GeodesicSpec.from_frame(l0, [-0.3, -0.3])
        traj = geodesic_ivp(spec, CFG)
        assert np.max(np.abs(traj.g[:, 0] - traj.g[:, 1])) < 1e-12
        assert np.max(np.abs(traj.theta[:, 0] - traj.theta[:, 1])) < 1e-12

    def test_zero_coefficient_freezes_direction(self):
        l0 = make_frame(FlatCalabiYau(2), np.eye(2))
        spec = GeodesicSpec.from_frame(l0, [-0.4, 0.0])
        traj = geodesic_ivp(spec, IntegratorConfig(400))
        np.testing.assert_array_equal(traj.g[:, 1], np.ones(401))
        np.testing.assert_array_equal(traj.theta[:, 1], np.zeros(401))

    def test_initial_sample(self):
        traj = geodesic_ivp(spec_1d(0.3), IntegratorConfig(10))
        assert traj.times[0] == 0.0
        assert traj.g[0, 0] == 1.0 and traj.theta[0, 0] == 0.0

    def test_phase_blowup(self):
        # base phase already inside the pi/2 guard band: first step aborts
        spec = GeodesicSpec.from_frame(real_line(0.5 * math.pi - 1e-7), [-0.5])
        with pytest.raises(PhaseBlowup):
            geodesic_ivp(spec, IntegratorConfig(100))

    def test_apriori_metric_bound(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            spec = random_spec(rng, 3)
            traj = geodesic_ivp(spec, IntegratorConfig(400))
            phi1 = traj.phases[-1]
            bound = math.exp(math.pi * math.tan(phi1)) if phi1 > 0 else 1.0
            assert traj.g.max() <= bound + 1e-6


class TestHorizontalFrame:
    def test_t0_is_base_plane(self):
        rng = np.random.default_rng(11)
        spec = random_spec(rng, 3)
        traj = geodesic_ivp(spec, IntegratorConfig(100))
        f0 = horizontal_frame(traj, 0.0)
        assert principal_angle_distance(f0, spec.base) < 1e-12
        assert abs(f0.phase - spec.base.phase) < 1e-12

    def test_1d_endpoint_spans_rotated_line(self):
        beta = 0.6
        traj = geodesic_ivp(spec_1d(beta), CFG)
        f1 = horizontal_frame(traj, 1.0)
        assert principal_angle_distance(f1, real_line(beta)) < 1e-9

    def test_phase_matches_angle_sum(self):
        rng = np.random.default_rng(12)
        spec = random_spec(rng, 4)
        traj = geodesic_ivp(spec, IntegratorConfig(200))
        for i in range(0, 201, 50):
            f = horizontal_frame(traj, traj.times[i])
            expected = spec.phase0 + traj.theta[i].sum()
            assert abs(f.phase - expected) < 1e-8

    def test_non_sample_time_rejected(self):
        traj = geodesic_ivp(spec_1d(0.3), IntegratorConfig(10))
        with pytest.raises(ValueError):
            horizontal_frame(traj, 0.123456)


class TestFlowFactors:
    def test_rates_match_differenced_factors(self):
        # dw/dt comes from the flow equations; a central difference of w
        # agrees to second order in the step
        rng = np.random.default_rng(13)
        traj = geodesic_ivp(random_spec(rng, 3), CFG)
        w, dw = traj.flow_factors()
        central = (w[2:] - w[:-2]) / (traj.times[2:] - traj.times[:-2])[:, np.newaxis]
        assert np.max(np.abs(central - dw[1:-1])) < 1e-5


class TestPhaseAlong:
    def test_zero_hamiltonian(self):
        spec = GeodesicSpec.from_frame(real_line(0.2), [0.0])
        _, phi, dphi = phase_along(geodesic_ivp(spec, IntegratorConfig(50)))
        np.testing.assert_allclose(phi, 0.2 * np.ones(51), atol=1e-15)
        np.testing.assert_array_equal(dphi, np.zeros(51))

    def test_1d_closed_form_phase(self):
        beta = 0.6
        traj = geodesic_ivp(spec_1d(beta), CFG)
        _, phi, _ = phase_along(traj)
        np.testing.assert_allclose(phi, np.arctan(traj.times * math.tan(beta)), atol=1e-9)
        assert np.all(np.diff(phi) > 0)

    def test_monotone_for_negative_semidefinite(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            spec = random_spec(rng, 3)
            _, phi, dphi = phase_along(geodesic_ivp(spec, IntegratorConfig(300)))
            assert np.all(np.diff(phi) > 0)
            assert np.all(dphi > 0)


class TestFrameOracle:
    def test_constant_for_zero_hamiltonian(self):
        l0 = make_frame(FlatCalabiYau(2), np.eye(2))
        spec = GeodesicSpec.from_frame(l0, [0.0, 0.0])
        _, frames = frame_ode_oracle(spec, IntegratorConfig(50))
        np.testing.assert_array_equal(frames[-1], frames[0])

    def test_1d_straight_line(self):
        a = -math.tan(0.6) / 2.0
        spec = GeodesicSpec.from_frame(real_line(), [a])
        ts, frames = frame_ode_oracle(spec, CFG)
        exact = 1.0 - 2.0j * a * ts
        assert np.max(np.abs(frames[:, 0, 0] - exact)) < 1e-9

    def test_two_route_agreement(self):
        rng = np.random.default_rng(14)
        for n in (2, 3, 5):
            spec = random_spec(rng, n)
            g_dev, angle_dev, offdiag = two_route_deviation(spec, CFG)
            assert g_dev < 1e-7
            assert angle_dev < 1e-7
            assert offdiag < 1e-7

    def test_fourth_order_route_convergence(self):
        rng = np.random.default_rng(15)
        spec = random_spec(rng, 3)
        devs = []
        for steps in (125, 250):
            g_dev, _, _ = two_route_deviation(spec, IntegratorConfig(steps), frame_stride=1000)
            devs.append(g_dev)
        ratio = devs[0] / devs[1]
        assert 10.0 < ratio < 24.0


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        spec = random_spec(rng, 2)
        traj = geodesic_ivp(spec, IntegratorConfig(64))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        read_trajectory_csv(path, traj)  # raises on any difference
        # one ulp in one sample is a different trajectory
        g = traj.g.copy()
        g[10, 1] = np.nextafter(g[10, 1], np.inf)
        other = GeodesicTrajectory(spec=traj.spec, times=traj.times, g=g, theta=traj.theta)
        with pytest.raises(ValueError, match="^trajectory CSV samples disagree with the "
                                             "solution's trajectory: .* column g_2 differs in "
                                             "data row 11$"):
            read_trajectory_csv(path, other)
