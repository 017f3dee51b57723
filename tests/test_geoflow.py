import fractions
import functools
import math
import re

import numpy as np
import pytest
from conftest import frame_spec, hard_pair
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from lagweb import csvtext
from lagweb.bvpsolve import solve_bvp_maslov0
from lagweb.csvtext import CSV_CELL, csv_rows
from lagweb.errors import LagwebError
from lagweb.geoflow import (
    METRIC_FLOOR,
    PHASE_MARGIN,
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
    random_maslov_zero_pair,
)
from lagweb.numkernel import IntegratorConfig, integrate_rk4

CFG = IntegratorConfig(2000)


def real_line(angle=0.0):
    return make_frame(FlatCalabiYau(1), np.array([[np.exp(1j * angle)]]))


def diagonal_frame(n, last_angle):
    """The real n-plane with its last axis turned by last_angle: phase last_angle."""
    return make_frame(FlatCalabiYau(n), np.diag(np.exp(1j * np.eye(n)[-1] * last_angle)))


def spec_1d(beta, phase0=0.0):
    # closed form: theta(t) = arctan(t tan beta), g(t) = 1 + t^2 tan^2 beta
    return frame_spec(real_line(phase0), [-math.tan(beta) / 2.0])


def random_spec(rng, n, amin=-2.0, amax=-0.05):
    from conftest import random_flow_spec

    return random_flow_spec(rng, n, amin, amax)


class TestScalarFlow:
    def test_zero_hamiltonian_is_constant(self):
        spec = frame_spec(real_line(), [0.0])
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
        spec = frame_spec(l0, [-0.3, -0.3])
        traj = geodesic_ivp(spec, CFG)
        assert np.max(np.abs(traj.g[:, 0] - traj.g[:, 1])) < 1e-12
        assert np.max(np.abs(traj.theta[:, 0] - traj.theta[:, 1])) < 1e-12

    def test_zero_coefficient_freezes_direction(self):
        l0 = make_frame(FlatCalabiYau(2), np.eye(2))
        spec = frame_spec(l0, [-0.4, 0.0])
        traj = geodesic_ivp(spec, IntegratorConfig(400))
        np.testing.assert_array_equal(traj.g[:, 1], np.ones(401))
        np.testing.assert_array_equal(traj.theta[:, 1], np.zeros(401))

    def test_initial_sample(self):
        traj = geodesic_ivp(spec_1d(0.3), IntegratorConfig(10))
        assert traj.times[0] == 0.0
        assert traj.g[0, 0] == 1.0 and traj.theta[0, 0] == 0.0

    def test_phase_blowup(self):
        # base phase already inside the pi/2 guard band: first step aborts
        spec = frame_spec(real_line(0.5 * math.pi - 1e-7), [-0.5])
        with pytest.raises(LagwebError, match="phase reached 1.570796 at t = 0.0000"):
            geodesic_ivp(spec, IntegratorConfig(100))

    def test_metric_collapse(self):
        # a > 0 at phase 1.5 shrinks g fast: a midpoint stage of step 2 dips below the floor
        spec = frame_spec(real_line(1.5), [2.0])
        with pytest.raises(LagwebError, match=r"^metric coefficient collapsed at t = 0\.0150$"):
            geodesic_ivp(spec, IntegratorConfig(100))

    def test_non_finite_state(self):
        # -2 a_j overflows to +-inf: the angles cancel to a NaN phase, which no
        # rate guard trips, and the first step ends non-finite
        l0 = make_frame(FlatCalabiYau(2), np.eye(2))
        spec = frame_spec(l0, [-1e308, 1e308])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(LagwebError, match=r"^state became non-finite at t = 0\.01$"):
                geodesic_ivp(spec, IntegratorConfig(100))

    @pytest.mark.parametrize("n, message", [
        (8, "phase reached 1.572527 at t = 0.0650"),
        (11, "phase reached 1.571307 at t = 0.0400"),
    ])
    def test_phase_guard_pairwise(self, n, message):
        # n >= 8 sums the phase pairwise; the phase rises through the band
        # at a midpoint stage
        spec = frame_spec(diagonal_frame(n, 1.5), -np.linspace(0.01, 0.2, n))
        with pytest.raises(LagwebError, match=f"^{re.escape(message)}$"):
            geodesic_ivp(spec, IntegratorConfig(100))

    @pytest.mark.parametrize("n", [8, 11])
    def test_metric_guard_pairwise(self, n):
        # test_metric_collapse's line as the last of n directions: the
        # guard scans every g_j, and the pairwise phase is the 1-d one
        spec = frame_spec(diagonal_frame(n, 1.5), [0.0] * (n - 1) + [2.0])
        with pytest.raises(LagwebError, match=r"^metric coefficient collapsed at t = 0\.0150$"):
            geodesic_ivp(spec, IntegratorConfig(100))

    @pytest.mark.parametrize("n", [8, 11])
    def test_non_finite_guard_pairwise(self, n):
        spec = frame_spec(diagonal_frame(n, 0.0), [0.0] * (n - 2) + [-1e308, 1e308])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(LagwebError, match=r"^state became non-finite at t = 0\.01$"):
                geodesic_ivp(spec, IntegratorConfig(100))

    def test_apriori_metric_bound(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            spec = random_spec(rng, 3)
            traj = geodesic_ivp(spec, IntegratorConfig(400))
            phi1 = traj.phases[-1]
            bound = math.exp(math.pi * math.tan(phi1)) if phi1 > 0 else 1.0
            assert traj.g.max() <= bound + 1e-6


def numpy_scalar_rhs(a, phase0):
    """The scalar flow as one numpy vector field, for ``integrate_rk4``."""
    n = a.size

    def rhs(t, y):
        g = y[:n]
        phi = phase0 + y[n:].sum()
        if abs(phi) >= 0.5 * math.pi - PHASE_MARGIN:
            raise LagwebError(f"phase reached {phi:.6f} at t = {t:.4f}")
        if g.min() < METRIC_FLOOR:
            raise LagwebError(f"metric coefficient collapsed at t = {t:.4f}")
        out = np.empty(2 * n)
        out[:n] = (-4.0 * math.tan(phi)) * a
        out[n:] = (-2.0) * a / g
        return out

    return rhs


@functools.cache
def solved_spec(case):
    """The spec of a solved pair: ("seeded", n) or ("hard", seed, phase1, fixed, weights)."""
    if case[0] == "seeded":
        l0, l1, _, _ = random_maslov_zero_pair(np.random.default_rng(case[1]), case[1])
    else:
        l0, l1, _ = hard_pair(*case[1:])
    return solve_bvp_maslov0(l0, l1, 1e-10, IntegratorConfig(1000)).trajectory.spec


class TestScalarFlowBits:
    """geodesic_ivp's float stepper against the numpy field through integrate_rk4.

    n >= 8 takes numpy's pairwise phase sum; the hard pairs come within
    0.016 of pi/2, and at one step both routes stop at the same phase guard.
    """

    CASES = [("seeded", n) for n in range(1, 11)] + [
        ("hard", 0, 1.555, (), (1.0, 1.5)),
        ("hard", 1, 1.565, (), (1.0, 2.0, 3.0)),
    ]

    @pytest.mark.parametrize("steps", [1, 7, 1000])
    @pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c[:3])))
    def test_same_bits_as_numpy_rk4(self, case, steps):
        spec = solved_spec(case)
        config = IntegratorConfig(steps)
        y0 = np.concatenate([np.ones(spec.n), np.zeros(spec.n)])
        try:
            ts, ys = integrate_rk4(numpy_scalar_rhs(spec.coefficients, spec.phase0),
                                   y0, 0.0, 1.0, config)
        except LagwebError as exc:
            with pytest.raises(LagwebError, match=f"^{re.escape(str(exc))}$"):
                geodesic_ivp(spec, config)
            return
        traj = geodesic_ivp(spec, config)
        for got, want in ((traj.times, ts), (traj.g, ys[:, :spec.n]), (traj.theta, ys[:, spec.n:])):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


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
        spec = frame_spec(real_line(0.2), [0.0])
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
        spec = frame_spec(l0, [0.0, 0.0])
        _, frames = frame_ode_oracle(spec, IntegratorConfig(50))
        np.testing.assert_array_equal(frames[-1], frames[0])

    def test_1d_straight_line(self):
        a = -math.tan(0.6) / 2.0
        spec = frame_spec(real_line(), [a])
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

    def test_unparseable_cell_names_the_file(self, tmp_path):
        traj = geodesic_ivp(random_spec(np.random.default_rng(16), 2), IntegratorConfig(64))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        lines[40] = "abc" + lines[40][lines[40].index(","):]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^trajectory CSV samples disagree with the "
                                             f"solution's trajectory: {re.escape(str(path))} "
                                             "column t differs in data row 40$"):
            read_trajectory_csv(path, traj)


def printf_rows(table):
    """CPython's '%.17g' of each value, comma separated, one line per row."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist()).encode()


def finite_bits(rng, size, low, high):
    """Random signs and mantissas with binary exponents in [low, high)."""
    mantissa = rng.integers(0, 1 << 52, size, dtype=np.uint64)
    exponent = rng.integers(low + 1023, high + 1023, size).astype(np.uint64)
    sign = rng.integers(0, 2, size).astype(np.uint64)
    return (sign << np.uint64(63) | exponent << np.uint64(52) | mantissa).view(np.float64)


class TestCsvText:
    """csv_rows must make CPython's '%.17g' text byte for byte."""

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=12),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
    def test_any_float(self, table):
        assert csv_rows(table) == printf_rows(table)

    def test_zeros_and_subnormals(self):
        tiny = np.array([0.0, 5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308])
        table = np.concatenate([tiny, -tiny]).reshape(2, -1)
        assert csv_rows(table) == printf_rows(table)
        assert csv_rows(table).startswith(b"0,4.9406564584124654e-324,")

    def test_powers_of_ten_and_neighbours(self):
        # log10 rounds onto the wrong exponent next to a power of ten, and a
        # value just under one can round up to it in 17 digits
        powers = np.array([float(f"1e{k}") for k in range(-5, 18)])
        near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        table = np.column_stack([near, -near])
        assert csv_rows(table) == printf_rows(table)

    def test_fast_path_edges(self):
        edges = np.array([1e-4, 1e16])
        near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        table = np.column_stack([near, -near])
        assert csv_rows(table) == printf_rows(table)

    def test_exact_ties_round_to_even(self):
        # m / 4 with m odd: ten times it ends in .5, a tie in the 17th digit
        rng = np.random.default_rng(3)
        m = 2 * rng.integers(2 * 10 ** 15, 45 * 10 ** 14, 4000) + 1
        table = (m / 4.0).reshape(-1, 8)
        assert np.all(table * 4.0 == m.reshape(-1, 8))
        assert csv_rows(table) == printf_rows(table)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(4)
        every = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(np.float64)
        printed_plain = finite_bits(rng, 100000, -14, 54)  # about 6e-5 to 1.8e16
        for values in (every, printed_plain):
            table = values.reshape(-1, 10)
            assert csv_rows(table) == printf_rows(table)

    def test_prefix_goes_before_each_row(self):
        prefix = np.array([b"a,", b"bcd,", b""]).view(np.uint8).reshape(3, -1)
        table = np.array([[1.5, -0.0], [1e22, 0.25], [np.nan, 7.0]])
        assert csv_rows(table, prefix) == b"a,1.5,-0\nbcd,1e+22,0.25\nnan,7\n"

    def test_rows_across_blocks_of_a_few_values(self, monkeypatch):
        # 7-value blocks hold 7, 3, 2 and 1 rows of these widths, so row ends
        # fall on every block edge, fast cells and '%.17g' cells alike
        monkeypatch.setattr(csvtext, "CSV_BLOCK", 7)
        rng = np.random.default_rng(5)
        for k in (1, 2, 3, 5):
            table = rng.standard_normal((20, k)) * 10.0 ** rng.integers(-6, 18, (20, k))
            table[::3, -1] = [0.0, np.nan, -np.inf, 1e300, -5e-324, 0.5, 7.0]
            table[1::4, 0] = -0.0
            assert len(table) > 2 * csvtext.block_rows(k)
            assert csv_rows(table) == printf_rows(table)


def significant_digits(text: str) -> str:
    """The digits of a plain '%.17g' text from its first nonzero one."""
    return text.lstrip("-").replace(".", "").lstrip("0")


def exact_decimal(rng, e: int, kept: int):
    """A float of decimal exponent e that is exactly a decimal of kept
    significant digits, the last nonzero, followed by e + 1 - kept zeros if
    that is positive, so that '%.17g' prints 17 - kept trailing zeros; None
    if no float is (below 1, such a float is an odd multiple of 2**-p with
    p = kept - e - 1 places)."""
    if kept <= e:
        m = int(rng.integers(10 ** (kept - 1), 10 ** kept))
        return float((m + (m % 10 == 0)) * 10 ** (e + 1 - kept))
    places = kept - e - 1
    scale = fractions.Fraction(10) ** e * 2 ** places
    low, high = math.ceil(scale) | 1, min(math.ceil(10 * scale), 2 ** 53)
    if low >= high:
        return None
    return (low + 2 * int(rng.integers(0, (high - low + 1) // 2))) / 2 ** places


class TestCsvCells:
    """The 25-byte cells: every exponent that '%.17g' prints plainly, any
    count of trailing zeros, the point placed among the digits, and the
    cells that are not numbers with a point, in every column of a row."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_every_plain_exponent_with_0_to_16_trailing_zeros(self, sign):
        rng = np.random.default_rng(6)
        cases = [(e, kept, exact_decimal(rng, e, kept))
                 for e in range(-4, 16) for kept in range(1, 18)]
        cases = [case for case in cases if case[2] is not None]
        table = sign * np.array([v for _, _, v in cases]).reshape(-1, 8)
        assert csv_rows(table) == printf_rows(table)
        # the table holds what it is meant to: every exponent, every count of
        # trailing zeros, and integer parts that keep their zeros
        assert {e for e, _, _ in cases} == set(range(-4, 16))
        assert {17 - kept for e, kept, _ in cases if e in (-1, 15)} == set(range(17))
        for e, kept, v in cases:
            assert int(f"{v:e}".split("e")[1]) == e
            assert len(significant_digits("%.17g" % v)) == max(kept, e + 1)

    def test_integer_parts_keep_their_zeros_and_whole_values_drop_the_point(self):
        values = [1230.0, 1e15, 100.5, 12.0, 10.0, 1000.25, 2.0 ** 53, 1e15 + 0.5, 120.0625,
                  9007199254740993.0, 99.99999999999999, 5.0, 1.0, 0.5, 0.0001,
                  0.00010000000000000002]
        table = np.array([values, [-v for v in values]])
        assert csv_rows(table) == printf_rows(table)
        assert csv_rows(table).startswith(b"1230,1000000000000000,100.5,12,10,1000.25,")

    @pytest.mark.parametrize("prefixed", [False, True])
    def test_signed_zeros_and_the_longest_text_in_every_column(self, prefixed):
        longest = -2.2250738585072014e-308
        assert len("%.17g" % longest) == CSV_CELL - 1
        rows = []
        for special in (0.0, -0.0, longest, -1.7976931348623157e308):
            for column in range(3):
                row = [0.25, -12.5, 3.0]
                row[column] = special
                rows.append(row)
        table = np.array(rows)
        if not prefixed:
            assert csv_rows(table) == printf_rows(table)
            return
        heads = [b"p%d," % i for i in range(len(table))]
        prefix = np.array(heads).view(np.uint8).reshape(len(table), -1)
        assert csv_rows(table, prefix) == b"".join(
            head + line for head, line in zip(heads, printf_rows(table).splitlines(True)))
