import collections
import dataclasses
import errno
import fractions
import functools
import importlib.util
import itertools
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import frame_spec

from lagweb.bvpsolve import solve_bvp_maslov0
from lagweb.errors import LagwebError
from lagweb.geoflow import geodesic_ivp, thin_trajectory, time_reversed
from lagweb.laggrass import FlatCalabiYau, make_frame, random_maslov_zero_pair
from lagweb.numkernel import IntegratorConfig
from lagweb import csvtext, geoflow, webbing
from lagweb.webbing import (
    CylinderMesh,
    SphereGrid,
    boundary_containment,
    cylinder_mesh,
    euler_transversality,
    harmonic_residual,
    level_set_chart,
    read_mesh_csv,
    relflux,
    sphere_grid,
    verify_slag,
    webbing_family,
    write_mesh_csv,
)


CHUNK_ROWS = 16  # time rows per check chunk in the tests that cross chunk edges


def shrink_chunks(monkeypatch, p_count, rows=CHUNK_ROWS):
    """Set the block budget so that a check chunk of a P-node grid holds
    the given number of time rows."""
    monkeypatch.setattr(csvtext, "CSV_BLOCK", rows * p_count)


def fix_block_rows(monkeypatch, rows):
    """Give every streamed block the given number of time rows, below the
    harmonic residual's floor too."""
    monkeypatch.setattr(csvtext, "block_rows", lambda width, least=1: rows)


def use_cpus(monkeypatch, count):
    """Let the CSV ring see count CPUs: 1 runs it in this process alone, 2
    forks one helper.  The ring's CPU placement is skipped, since these CPUs
    need not exist."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)


def spy_forks(monkeypatch):
    """The pids of the helpers forked from here on."""
    forks, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return forks


def diag_frame(*angles):
    n = len(angles)
    return make_frame(FlatCalabiYau(n), np.diag(np.exp(1j * np.array(angles))))


@pytest.fixture(scope="module")
def solved():
    l0 = make_frame(FlatCalabiYau(2), np.eye(2))
    l1 = diag_frame(math.pi / 6, math.pi / 4)
    sol = solve_bvp_maslov0(l0, l1, 1e-10, IntegratorConfig(2000))
    return l0, l1, sol


@pytest.fixture(scope="module")
def symmetric_traj():
    l0 = make_frame(FlatCalabiYau(2), np.eye(2))
    spec = frame_spec(l0, [-0.3, -0.3])
    return geodesic_ivp(spec, IntegratorConfig(2000))


def ordinal(x):
    """Each double's place on the number line, so that neighbours differ by 1."""
    i = np.ascontiguousarray(x).view(np.int64)
    return np.where(i < 0, -(i & 0x7FFF_FFFF_FFFF_FFFF), i)


class TestLevelSetChart:
    def test_round_circle(self):
        chart = level_set_chart([-1.0, -1.0], -1.0)
        np.testing.assert_array_equal(chart.semi_axes, [1.0, 1.0])

    def test_anisotropic(self):
        chart = level_set_chart([-1.0, -4.0], -1.0)
        np.testing.assert_allclose(chart.semi_axes, [1.0, 0.5])

    def test_level_scaling(self):
        a = [-1.0, -1.0]
        np.testing.assert_array_equal(
            level_set_chart(a, -4.0).semi_axes, 2.0 * level_set_chart(a, -1.0).semi_axes
        )

    def test_sign_errors(self):
        with pytest.raises(ValueError, match="all coefficients must be negative$"):
            level_set_chart([-1.0, 0.5], -1.0)
        with pytest.raises(ValueError, match="level must be negative"):
            level_set_chart([-1.0, -1.0], 1.0)
        with pytest.raises(ValueError, match="level must be finite, got nan"):
            level_set_chart([-1.0, -1.0], math.nan)

    @pytest.mark.parametrize("a, message", [
        ([-1.0, 0.0], "a_2 = 0: the pair is not transverse in direction 2"),
        ([-0.0, -1.0, 0.0], "a_1 = a_3 = 0: the pair is not transverse in directions 1, 3"),
        ([0.0, 0.5], "a_1 = 0: the pair is not transverse in direction 1"),
    ])
    def test_frozen_directions_named(self, a, message):
        # the solver freezes the directions where the pair is not transverse
        # at a_j = 0, so a zero coefficient names its cause
        with pytest.raises(ValueError) as exc:
            level_set_chart(a, -1.0)
        assert str(exc.value) == f"all coefficients must be negative; {message}"


class TestSphereGrid:
    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            sphere_grid(1)

    @pytest.mark.parametrize("n,res", [(2, 32), (3, 16), (4, 256), (5, 128)])
    def test_units_and_tangents(self, n, res):
        grid = sphere_grid(n, res)
        np.testing.assert_allclose(np.linalg.norm(grid.points, axis=1), 1.0, atol=1e-12)
        # tangent directions: unit, orthogonal to the point and to each other
        dots = np.einsum("pmi,pi->pm", grid.tangents, grid.points)
        assert np.max(np.abs(dots)) < 1e-12
        gram = np.einsum("pmi,pki->pmk", grid.tangents, grid.tangents)
        eye = np.broadcast_to(np.eye(n - 1), gram.shape)
        assert np.max(np.abs(gram - eye)) < 1e-12

    @pytest.mark.parametrize("n", range(2, 13))
    def test_node_frames_have_det_one(self, n):
        # the invariant of the closed-form normal (webbing._mesh_factors)
        grid = sphere_grid(n)
        assert grid.kind == {2: "circle", 3: "latlong"}.get(n, "quasirandom")
        det = np.linalg.det(np.concatenate([grid.points[:, np.newaxis], grid.tangents], axis=1))
        assert np.max(np.abs(det - 1.0)) <= 1e-13

    def test_quasirandom_nodes_are_halton_gaussians(self):
        from scipy.stats import qmc

        # the Halton seed is fixed at 0: a grid is a function of (n, resolution)
        grid = sphere_grid(4, 64)
        uniform = np.clip(qmc.Halton(d=4, seed=0).random(64), 1e-12, 1.0 - 1e-12)
        gauss = np.vectorize(statistics.NormalDist().inv_cdf)(uniform)
        expected = gauss / np.linalg.norm(gauss, axis=1, keepdims=True)
        np.testing.assert_array_equal(grid.points, expected)
        np.testing.assert_array_equal(grid.params, expected)

    @pytest.mark.parametrize("d", [1, 2, 4, 7, 12])
    def test_halton_is_scipys_bit_for_bit(self, d):
        from scipy.stats import qmc

        for m in (1, 5, 256, 4096, 20000):
            expected = qmc.Halton(d=d, seed=0).random(m)
            got = webbing._halton(m, d)
            assert got.shape == expected.shape
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_quantiles_within_8_ulps_of_scipy(self):
        from scipy.special import ndtri

        # the grid's clipped domain: uniform, log-uniform towards either end,
        # the bits around AS241's branch edges (|y - 1/2| = 0.425, and
        # r = sqrt(-ln min(y, 1 - y)) = 5) and the clip, and the grid's own points
        lo, hi = 1e-12, 1.0 - 1e-12
        rng = np.random.default_rng(7)
        edges = [np.nextafter(edge, direction)
                 for edge in (0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0), lo, hi)
                 for direction in (0.0, 1.0)]
        edges = [edge + step * np.spacing(edge) for edge in edges for step in range(-3, 4)]
        halton = [np.clip(webbing._halton(m, n), lo, hi).ravel()
                  for n in (4, 5, 6, 8, 12) for m in (64, 256, 4096)]
        y = np.clip(np.concatenate([rng.uniform(lo, hi, 20000),
                                    10.0 ** rng.uniform(-12.0, 0.0, 20000),
                                    1.0 - 10.0 ** rng.uniform(-12.0, 0.0, 20000),
                                    edges, *halton]), lo, hi)
        got = np.array(list(map(statistics.NormalDist().inv_cdf, y.tolist())))
        assert np.max(np.abs(ordinal(got) - ordinal(ndtri(y)))) <= 8

    def test_quantiles_do_not_depend_on_the_accelerator(self, monkeypatch):
        # statistics runs _statistics' C inv_cdf where it is built, and its
        # own Python where it is not: the grid must not tell them apart
        fast = pytest.importorskip("_statistics")._normal_dist_inv_cdf
        spec = importlib.util.find_spec("statistics")
        pure = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "_statistics", None)
        spec.loader.exec_module(pure)
        assert pure._normal_dist_inv_cdf is not fast
        y = np.concatenate([np.clip(webbing._halton(4096, n), 1e-12, 1.0 - 1e-12).ravel()
                            for n in range(4, 13)]).tolist()
        got = np.array([fast(value, 0.0, 1.0) for value in y])
        want = np.array([pure._normal_dist_inv_cdf(value, 0.0, 1.0) for value in y])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_quasirandom_sphere_leaves_scipy_stats_unloaded(self):
        # the n >= 4 grid imports no scipy module at all: scipy.special would
        # add ~0.15 s and ~22 MB to the first n >= 4 grid, scipy.stats ~0.7 s
        # and ~45 MB more
        src = os.path.dirname(os.path.dirname(os.path.abspath(webbing.__file__)))
        code = ("import sys; from lagweb.webbing import sphere_grid; sphere_grid(4, 16); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_resolution_below_minimum_rejected(self, n):
        for res in (-4, 0, 1, 3):
            with pytest.raises(ValueError, match="at least 4"):
                sphere_grid(n, res)


class TestCylinderMesh:
    def test_symmetric_slices_are_round(self, symmetric_traj):
        mesh = cylinder_mesh(symmetric_traj, -1.0, 64)
        radii = np.linalg.norm(mesh.points, axis=2)
        expected = np.sqrt(symmetric_traj.g[:, 0] / 0.3)
        assert np.max(np.abs(radii - expected[:, np.newaxis])) < 1e-8

    def test_boundary_slices_in_planes(self, solved):
        l0, l1, sol = solved
        mesh = cylinder_mesh(sol.trajectory, -1.0, 64)
        assert mesh.boundary_defect < 1e-8
        assert boundary_containment(mesh, l0, 0) < 1e-8
        assert boundary_containment(mesh, l1, 1) < 1e-8

    @pytest.mark.parametrize("row", [0, -1])
    def test_nan_end_slice_left_its_plane(self, row):
        # Python's max(0.0, nan) is 0.0, so a NaN end slice passed with defect 0
        traj = edited_traj(random_traj(2, 20, 5), row, g=[math.nan, 1.0])
        with pytest.raises(LagwebError, match=r"^boundary slice left its plane \(defect nan\)$"):
            cylinder_mesh(traj, -0.7, 8)

    @pytest.mark.parametrize("level", [-1e200, -1e300])
    def test_huge_level_forms_no_sphere_factor(self, level):
        # at n = 3 the sphere factors' products overflow at these levels,
        # but the boundary check raises first: the build forms none of them
        traj = random_traj(3, 20, 33)
        with pytest.raises(LagwebError, match=r"^boundary slice left its plane \(defect "):
            cylinder_mesh(traj, level, 8)

    def test_dimension_guard(self):
        l0 = make_frame(FlatCalabiYau(1), np.eye(1))
        traj = geodesic_ivp(frame_spec(l0, [-0.3]), IntegratorConfig(50))
        with pytest.raises(ValueError):
            cylinder_mesh(traj, -1.0)

    def test_base_slice_tangents_pair_to_zero_with_base_plane(self, solved):
        # tangents of the t = 0 slice lie inside the base plane, which is
        # Lagrangian, so they pair to zero with any basis of it
        l0, _, sol = solved
        mesh = cylinder_mesh(sol.trajectory, -1.0, 32)
        pair = np.einsum("pki,ij->pkj", mesh.sphere_tangents[0].conj(), l0.columns).imag
        assert np.max(np.abs(pair)) < 1e-8


class TestVerifySlag:
    def test_solved_mesh_calibration(self, solved):
        _, _, sol = solved
        report = verify_slag(cylinder_mesh(sol.trajectory, -1.0, 128))
        assert report.max_omega < 1e-8
        assert report.max_re_omega < 1e-7
        assert report.min_im_omega > 0.0

    def test_offset_trajectory_stays_pointwise_calibrated(self, solved):
        # shifting theta moves the phase in the rotation factor and in the
        # time-tangent bracket together, so the frame determinant stays
        # proportional to i / cos(phase): the calibration residual cannot see
        # state-consistent corruptions (their boundary planes move instead)
        _, _, sol = solved
        traj = sol.trajectory
        crooked = type(traj)(spec=traj.spec, times=traj.times, g=traj.g,
                             theta=traj.theta + 0.01)
        mesh = cylinder_mesh(crooked, -1.0, 64)
        assert verify_slag(mesh).max_re_omega < 1e-10
        assert boundary_containment(mesh, solved[1], 1) > 1e-3

    def test_tampered_tangents_detected(self, solved):
        # rotating the time tangents against the points breaks the pointwise
        # identity and the calibration residual sees it at first order
        _, _, sol = solved
        mesh = cylinder_mesh(sol.trajectory, -1.0, 64)
        tampered = CylinderMesh(
            trajectory=mesh.trajectory, chart=mesh.chart, sphere=mesh.sphere,
            points=mesh.points, sphere_tangents=mesh.sphere_tangents,
            time_tangents=mesh.time_tangents * np.exp(0.01j),
            boundary_defect=mesh.boundary_defect,
        )
        assert verify_slag(tampered).max_re_omega > 1e-3

    def test_nan_in_a_later_chunk_reaches_the_report(self, solved, monkeypatch):
        report = verify_slag(nan_tangent_mesh(solved[2].trajectory, monkeypatch))
        assert math.isnan(report.max_omega)
        assert math.isnan(report.max_re_omega)
        assert math.isnan(report.min_im_omega)

    @pytest.mark.parametrize("nan_sample", [1, CHUNK_ROWS])
    def test_nan_frame_hides_no_degenerate_frame(self, nan_sample, monkeypatch):
        # a NaN frame in an earlier time chunk than a zero time tangent, or in
        # the same chunk, must not switch off the rank test for the mesh
        shrink_chunks(monkeypatch, 4)
        points, tangents = random_frames(3, (20, 4), np.random.default_rng(5))
        tangents[nan_sample, 2, 0, 0] = np.nan
        tangents[17, 1, -1] = 0.0
        mesh = frame_mesh(points, tangents)
        with pytest.raises(LagwebError, match="tangent frame degenerates"):
            euler_transversality(mesh)
        with pytest.raises(LagwebError, match=r"tangent frame degenerates "
                                              r"\(\|Omega\| / Hadamard bound = 0\.000e\+00\)"):
            verify_slag(mesh)

    def test_nan_chunk_hides_no_degenerate_frame(self, monkeypatch):
        # a chunk of NaN frames alone has a NaN ratio, which the fold across
        # chunks must skip as the fold within a chunk does
        shrink_chunks(monkeypatch, 4)
        points, tangents = random_frames(3, (20, 4), np.random.default_rng(5))
        tangents[:CHUNK_ROWS] = np.nan
        tangents[17, 1, -1] = 0.0
        with pytest.raises(LagwebError, match=r"tangent frame degenerates "
                                              r"\(\|Omega\| / Hadamard bound = 0\.000e\+00\)"):
            verify_slag(frame_mesh(points, tangents))

    def test_symmetric_mesh_calibration(self, symmetric_traj):
        report = verify_slag(cylinder_mesh(symmetric_traj, -1.0, 64))
        assert report.max_omega < 1e-8
        assert report.max_re_omega < 1e-7
        assert report.min_im_omega > 0.0

    def test_orientation_of_the_readme_pair(self, solved):
        # the closed form's cofactor sign decides this; test_checks_agree holds
        # it to the LAPACK sweep on the same pair, thinned to 20 steps
        traj = solved[2].trajectory
        assert verify_slag(cylinder_mesh(traj, -1.0, 24)).orientation == -1
        assert verify_slag(cylinder_mesh(time_reversed(traj), -1.0, 24)).orientation == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [2, 3])
    def test_tiny_tangents_keep_orientation(self, n, solved):
        traj = solved[2].trajectory if n == 2 else random_traj(3, 20, 33)
        mesh = cylinder_mesh(traj, -1.0, 16)
        tiny = CylinderMesh(trajectory=mesh.trajectory, chart=mesh.chart, sphere=mesh.sphere,
                            points=mesh.points, sphere_tangents=mesh.sphere_tangents * 1e-100,
                            time_tangents=mesh.time_tangents * 1e-100,
                            boundary_defect=mesh.boundary_defect)
        assert verify_slag(tiny).orientation == verify_slag(mesh).orientation
        assert euler_transversality(tiny) == pytest.approx(euler_transversality(mesh),
                                                           rel=1e-12)


def nan_tangent_mesh(traj, monkeypatch):
    """Mesh with one NaN time tangent past the first check chunk, the
    chunks shrunk to CHUNK_ROWS slices."""
    mesh = cylinder_mesh(traj, -1.0, 16)
    shrink_chunks(monkeypatch, 16)
    time_tangents = mesh.time_tangents.copy()
    time_tangents[CHUNK_ROWS + 3, 5, 0] = np.nan
    return CylinderMesh(trajectory=mesh.trajectory, chart=mesh.chart, sphere=mesh.sphere,
                        points=mesh.points, sphere_tangents=mesh.sphere_tangents,
                        time_tangents=time_tangents, boundary_defect=mesh.boundary_defect)


class TestEulerTransversality:
    def test_solved_mesh_is_transverse(self, solved):
        _, _, sol = solved
        assert euler_transversality(cylinder_mesh(sol.trajectory, -1.0, 64)) > 0.01

    def test_nan_in_a_later_chunk_reaches_the_angle(self, solved, monkeypatch):
        assert math.isnan(euler_transversality(nan_tangent_mesh(solved[2].trajectory,
                                                                monkeypatch)))

    def test_radial_cone_control(self, symmetric_traj):
        mesh = cylinder_mesh(symmetric_traj, -1.0, 32)
        mid = mesh.points.shape[0] // 2
        tau = np.linspace(0.5, 1.5, 41)
        cone_points = tau[:, None, None] * mesh.points[mid][None, :, :]
        cone_sphere = tau[:, None, None, None] * mesh.sphere_tangents[mid][None, :, :, :]
        cone_time = np.broadcast_to(mesh.points[mid][None, :, :], cone_points.shape).copy()
        cone = CylinderMesh(trajectory=mesh.trajectory, chart=mesh.chart,
                            sphere=mesh.sphere, points=cone_points,
                            sphere_tangents=cone_sphere, time_tangents=cone_time,
                            boundary_defect=0.0)
        assert euler_transversality(cone) < 1e-8

    def test_scale_invariance(self, symmetric_traj):
        fam = webbing_family(symmetric_traj, [-1.0, -4.0], 32)
        angles = [euler_transversality(m) for m in fam]
        assert abs(angles[0] - angles[1]) < 1e-10

    def test_origin_node_rejected(self, symmetric_traj):
        mesh = cylinder_mesh(symmetric_traj, -1.0, 16)
        points = mesh.points.copy()
        points[3, 5] = 0.0
        broken = CylinderMesh(trajectory=mesh.trajectory, chart=mesh.chart,
                              sphere=mesh.sphere, points=points,
                              sphere_tangents=mesh.sphere_tangents,
                              time_tangents=mesh.time_tangents,
                              boundary_defect=mesh.boundary_defect)
        with pytest.raises(LagwebError, match="mesh node at the origin"):
            euler_transversality(broken)

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_known_tilt(self, n, eps, monkeypatch):
        # e leaves the real span of a random, non-orthonormal frame by
        # exactly arcsin(eps); 1 - b^T G^-1 b / |e|^2 floors near 1.5e-8
        shrink_chunks(monkeypatch, 4)
        rng = np.random.default_rng(10 * n)
        shape = (CHUNK_ROWS + 3, 4)
        v = rng.standard_normal(shape + (n, 2 * n))           # real frames in R^2n
        q, _ = np.linalg.qr(np.concatenate([np.swapaxes(v, -1, -2),
                                            rng.standard_normal(shape + (2 * n, 1))], axis=-1))
        inside = q[..., :n] @ rng.standard_normal(shape + (n, 1))
        inside /= np.linalg.norm(inside, axis=-2, keepdims=True)
        e = math.sqrt(1.0 - eps**2) * inside[..., 0] + eps * q[..., n]
        mesh = frame_mesh(e[..., :n] + 1j * e[..., n:], v[..., :n] + 1j * v[..., n:])
        assert euler_transversality(mesh) == pytest.approx(math.asin(eps), rel=1e-6)

    def test_rank_deficient_frame_rejected(self, monkeypatch):
        # in the second time chunk, the first sphere tangent or the time
        # tangent is zero, or half the tangent before it (cyclically): the
        # QR pivot and the Hadamard bound see it; a zero tangent's bound is 0
        shrink_chunks(monkeypatch, 4)
        for n, row, scale in itertools.product(range(2, 7), (0, -1), (0.0, 0.5)):
            points, tangents = random_frames(n, (CHUNK_ROWS + 3, 4), np.random.default_rng(4))
            tangents[CHUNK_ROWS + 1, 2, row] = scale * tangents[CHUNK_ROWS + 1, 2, row - 1]
            mesh = frame_mesh(points, tangents)
            with pytest.raises(LagwebError, match=r"tangent frame degenerates "
                                                  r"\(QR pivot <= 1e-12 \|tangent\|\)"):
                euler_transversality(mesh)
            ratio = r"0\.000e\+00\)" if scale == 0.0 else ""
            with pytest.raises(LagwebError, match=r"tangent frame degenerates "
                                                  r"\(\|Omega\| / Hadamard bound = " + ratio):
                verify_slag(mesh)


def frame_mesh(points, tangents):
    """CylinderMesh holding given nodes (T, P, n) and frames (T, P, n, n),
    sphere tangents then time tangent; the checks read only these arrays."""
    return CylinderMesh(trajectory=None, chart=None, sphere=None, points=points,
                        sphere_tangents=tangents[:, :, :-1], time_tangents=tangents[:, :, -1],
                        boundary_defect=0.0)


def random_frames(n, shape, rng):
    def gauss(*dims):
        return rng.standard_normal(shape + dims) + 1j * rng.standard_normal(shape + dims)
    return gauss(n), gauss(n, n)


def cofactors(v):
    """C_j with det [v; y] = sum_j y_j C_j, for the n - 1 rows of v over n
    columns, by Laplace expansion along the rows: the minors of rows 0..r on
    each column subset reuse those of rows 0..r-1 (n 2^(n-1) products)."""
    n = v.shape[1]
    minors = {(c,): v[0, c] for c in range(n)}
    for row in range(1, n - 1):
        minors = {cols: sum((-1) ** (row + k) * v[row, c] * minors[cols[:k] + cols[k + 1:]]
                            for k, c in enumerate(cols))
                  for cols in itertools.combinations(range(n), row + 1)}
    return [(-1) ** (n - 1 + j) * minors[tuple(c for c in range(n) if c != j)] for j in range(n)]


def laplace_det(frames):
    """det of each (n, n) frame by Laplace expansion along its last row: no
    LAPACK call."""
    v = np.moveaxis(frames, (-2, -1), (0, 1))
    return sum(v[-1, j] * cofactor for j, cofactor in enumerate(cofactors(v[:-1])))


class TestAgainstPerFrameReference:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_random_frames(self, n, seed, monkeypatch):
        # arbitrary complex frames across a chunk boundary: the LAPACK sweep
        # must agree with the Laplace determinant, orientation sign included,
        # with Im <v_a, v_b> pair by pair, and with a least-squares projection
        shrink_chunks(monkeypatch, 7)
        rng = np.random.default_rng(100 * n + seed)
        points, frames = random_frames(n, (CHUNK_ROWS + 5, 7), rng)
        mesh = frame_mesh(points, frames)
        report = verify_slag(mesh)
        det = laplace_det(frames)
        orientation = 1 if det.imag.max() + det.imag.min() > 0.0 else -1
        assert report.orientation == orientation
        assert report.min_im_omega == pytest.approx(
            det.imag.min() if orientation == 1 else -det.imag.max(), rel=1e-12)
        assert report.max_re_omega == pytest.approx(np.abs(det.real).max(), rel=1e-12)
        pairs = [np.einsum("...i,...i->...", frames[..., a, :].conj(), frames[..., b, :]).imag
                 for a in range(n) for b in range(a + 1, n)]
        assert report.max_omega == pytest.approx(np.abs(pairs).max(), rel=1e-12)
        real = np.concatenate([frames.real, frames.imag], axis=-1).swapaxes(-1, -2)
        e = np.concatenate([points.real, points.imag], axis=-1)[..., np.newaxis]
        resid = e - real @ (np.linalg.pinv(real) @ e)
        sines = np.linalg.norm(resid, axis=(-2, -1)) / np.linalg.norm(e, axis=(-2, -1))
        assert euler_transversality(mesh) == pytest.approx(np.arcsin(sines).min(),
                                                           rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("n,steps,res", [(2, 100, 16), (3, 20, 8), (4, 20, 64), (5, 20, 64)])
    def test_solved_meshes(self, n, steps, res):
        mesh = cylinder_mesh(random_traj(n, steps, 30 + n), -0.7, res)
        report, oracle = verify_slag(mesh), verify_slag(oracle_mesh(mesh))
        assert report.orientation == oracle.orientation
        assert report.min_im_omega == pytest.approx(oracle.min_im_omega, rel=1e-12)
        assert report.max_omega < 1e-13 and report.max_re_omega < 1e-13
        assert euler_transversality(mesh) == pytest.approx(
            euler_transversality(oracle_mesh(mesh)), rel=1e-12)


def oracle_mesh(mesh):
    """The same mesh given its lazily formed arrays, so the checks run the
    node sweep over them."""
    return CylinderMesh(trajectory=mesh.trajectory, chart=mesh.chart, sphere=mesh.sphere,
                        boundary_defect=mesh.boundary_defect, points=mesh.points,
                        sphere_tangents=mesh.sphere_tangents, time_tangents=mesh.time_tangents)


def formed(mesh):
    """The array fields that reading has formed from the mesh's factors."""
    return {name for name in ("points", "sphere_tangents", "time_tangents")
            if "_formed_" + name in vars(mesh)}


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.fixture(scope="module")
def closed_form_meshes(solved):
    """Meshes whose time grids span three check chunks of CHUNK_ROWS rows:
    seeded solved pairs n = 2..6, the README pair at the three README levels, and the
    mesh of the reversed README pair: its index is n, so it is solved with
    the roles swapped, as the README pair, and run back in time."""
    meshes = {f"seeded-n{n}": cylinder_mesh(random_traj(n, 2 * CHUNK_ROWS + 7, 40 + n), -0.7,
                                            {2: 16, 3: 8}.get(n, 64))
              for n in range(2, 7)}
    readme = thin_trajectory(solved[2].trajectory, 20)
    for level in (-1.0, -0.25, -0.0625):
        meshes[f"readme{level}"] = cylinder_mesh(readme, level, 24)
    meshes["readme-reversed"] = cylinder_mesh(time_reversed(readme), -1.0, 24)
    return meshes


MESH_NAMES = ([f"seeded-n{n}" for n in range(2, 7)]
              + [f"readme{level}" for level in (-1.0, -0.25, -0.0625)] + ["readme-reversed"])


class TestClosedFormAgainstSweep:
    @pytest.mark.parametrize("name", MESH_NAMES)
    def test_checks_agree(self, closed_form_meshes, name, monkeypatch):
        mesh = closed_form_meshes[name]
        shrink_chunks(monkeypatch, len(mesh.sphere.points))
        assert len(mesh.trajectory.times) > 2 * csvtext.block_rows(len(mesh.sphere.points))
        assert mesh.factored
        assert_slag_agrees(mesh)
        assert euler_transversality(mesh) == pytest.approx(
            euler_transversality(oracle_mesh(mesh)), rel=1e-12)
        if mesh.n == 2:
            every = slice(None)
            for closed, swept in zip(webbing._metric(mesh, every),
                                     webbing._metric(oracle_mesh(mesh), every)):
                np.testing.assert_allclose(closed, swept, rtol=1e-12, atol=1e-13)
            assert harmonic_residual(mesh) == pytest.approx(
                harmonic_residual(oracle_mesh(mesh)), rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("steps, res", [(4, 130), (16, 64)],
                             ids=["every-chunk-one-row", "last-chunk-one-row"])
    def test_one_row_chunks(self, steps, res):
        # 130 x 65 = 8450 nodes, more than CSV_BLOCK // 2, give one time row
        # per chunk; the 2048 default nodes give 8 rows, so 17 rows end in a
        # chunk of one.  A product's last bits may follow its row count, so
        # one-row chunks are held to the reference bit for bit
        mesh = cylinder_mesh(random_traj(3, steps, 44), -0.7, res)
        t_count, p_count = len(mesh.trajectory.times), len(mesh.sphere.points)
        rows = [len(range(t_count)[sl]) for sl in webbing._time_chunks(t_count, p_count)]
        assert rows == ([1] * 5 if steps == 4 else [8, 8, 1])
        assert outcome(verify_slag, mesh) == outcome(reference_slag, mesh)
        assert_slag_agrees(mesh)

    def test_reversed_mesh_has_the_opposite_orientation(self, closed_form_meshes):
        assert verify_slag(closed_form_meshes["readme-reversed"]).orientation == 1
        assert verify_slag(closed_form_meshes["readme-1.0"]).orientation == -1

    @pytest.mark.parametrize("name", MESH_NAMES)
    def test_formed_arrays_are_the_eager_einsums(self, closed_form_meshes, name):
        mesh = closed_form_meshes[name]
        traj, chart, grid = mesh.trajectory, mesh.chart, mesh.sphere
        directions = traj.spec.frame_directions()
        w, dw = traj.flow_factors()
        kappa = grid.points * chart.semi_axes[np.newaxis, :]
        kappa_tan = grid.tangents * chart.semi_axes[np.newaxis, np.newaxis, :]
        points = np.einsum("pj,tj,ij->tpi", kappa, w, directions)
        assert np.array_equal(bits(mesh.points), bits(points))
        assert np.array_equal(bits(mesh.sphere_tangents),
                              bits(np.einsum("pmj,tj,ij->tpmi", kappa_tan, w, directions)))
        assert np.array_equal(bits(mesh.time_tangents),
                              bits(np.einsum("pj,tj,ij->tpi", kappa, dw, directions)))
        # the build-time defect, from the two end slices alone, as from the whole
        defect = max(float(np.max(np.abs((points[idx] @ (directions * np.exp(
            1j * traj.theta[idx])[np.newaxis, :]).conj()).imag))) for idx in (0, -1))
        assert mesh.boundary_defect == defect

    @pytest.mark.parametrize("kind, n, res, sign", [
        ("circle", 2, 16, -1.0), ("latlong", 3, 8, 1.0),
        *(("quasirandom", n, 64, (-1.0) ** (n - 1)) for n in range(4, 9)),
    ])
    def test_cofactor_normal(self, kind, n, res, sign):
        # the mesh's closed-form N is the Laplace cofactor normal of its
        # sphere tangents, and c_j = kappa_j N_j reduces to sign *
        # prod(semi-axes) * p_j^2, the sign being det [tangents..., p]
        grid = sphere_grid(n, res)
        chart = level_set_chart(-0.3 * np.arange(1, n + 1), -0.7)
        # any trajectory: the sphere factors read the chart and the grid alone
        traj = geodesic_ivp(frame_spec(make_frame(FlatCalabiYau(n), np.eye(n)), [-0.01] * n),
                            IntegratorConfig(4))
        mesh = CylinderMesh(trajectory=traj, chart=chart, sphere=grid, boundary_defect=0.0)
        laplace = np.stack(cofactors(mesh.factors.kappa_tan.transpose(1, 2, 0)), axis=1)
        assert grid.kind == kind
        np.testing.assert_allclose(mesh.sphere_factors.normal, laplace, rtol=0, atol=1e-13)
        np.testing.assert_allclose(mesh.sphere_factors.c.T,
                                   sign * np.prod(chart.semi_axes) * grid.points**2,
                                   rtol=0, atol=1e-13)


def assert_slag_agrees(mesh):
    """verify_slag in closed form agrees with the node sweep to rounding."""
    report, oracle = verify_slag(mesh), verify_slag(oracle_mesh(mesh))
    assert report.orientation == oracle.orientation
    assert report.min_im_omega == pytest.approx(oracle.min_im_omega, rel=1e-12)
    assert report.max_omega == pytest.approx(oracle.max_omega, abs=1e-13)
    assert report.max_re_omega == pytest.approx(oracle.max_re_omega, abs=1e-13)


def edited_traj(traj, row, g=None, theta=None):
    """A hand-built trajectory: traj with the g or theta of one sample replaced."""
    g_values, theta_values = traj.g.copy(), traj.theta.copy()
    if g is not None:
        g_values[row] = g
    if theta is not None:
        theta_values[row] = theta
    return geoflow.GeodesicTrajectory(spec=traj.spec, times=traj.times, g=g_values,
                                      theta=theta_values)


class TestClosedFormGuards:
    @pytest.fixture(scope="class")
    def traj3(self):
        return random_traj(3, 2 * CHUNK_ROWS + 7, 43)

    @pytest.mark.parametrize("oracle", [False, True])
    def test_degenerate_frame(self, traj3, oracle, monkeypatch):
        # two tiny g_j squeeze the sphere tangents onto one direction
        mesh = cylinder_mesh(edited_traj(traj3, CHUNK_ROWS + 3, g=[1.0, 1e-40, 1e-40]), -0.7, 8)
        shrink_chunks(monkeypatch, len(mesh.sphere.points))
        mesh = oracle_mesh(mesh) if oracle else mesh
        with pytest.raises(LagwebError,
                           match=r"tangent frame degenerates \(\|Omega\| / Hadamard bound = "):
            verify_slag(mesh)

    @pytest.mark.parametrize("oracle", [False, True])
    def test_node_at_the_origin(self, traj3, oracle, monkeypatch):
        mesh = cylinder_mesh(edited_traj(traj3, CHUNK_ROWS + 3, g=[1e-30] * 3), -0.7, 8)
        shrink_chunks(monkeypatch, len(mesh.sphere.points))
        with pytest.raises(LagwebError, match="mesh node at the origin"):
            euler_transversality(oracle_mesh(mesh) if oracle else mesh)

    # the last sample of the first time chunk, the first of the second, and
    # the last interior sample, in the last of at least three time blocks
    @pytest.mark.parametrize("row", [CHUNK_ROWS - 1, CHUNK_ROWS, pytest.param(-2, id="last-block")])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("edit", [dict(g=[1.0, math.nan]), dict(theta=[math.nan, 0.0])])
    def test_nan_reaches_the_report(self, solved, traj3, n, edit, row, monkeypatch):
        traj = solved[2].trajectory if n == 2 else traj3
        assert len(traj.times) > 2 * CHUNK_ROWS + 2  # at least three blocks of residual rows
        edit = {key: (value + [1.0] * (n - 2)) for key, value in edit.items()}
        mesh = cylinder_mesh(edited_traj(traj, row, **edit), -0.7, 8)
        shrink_chunks(monkeypatch, len(mesh.sphere.points))
        report = verify_slag(mesh)
        assert math.isnan(report.max_omega)
        assert math.isnan(report.max_re_omega)
        assert math.isnan(report.min_im_omega)
        assert math.isnan(euler_transversality(mesh))
        if n == 2:
            assert math.isnan(harmonic_residual(mesh))

    @pytest.mark.parametrize("oracle", [False, True])
    def test_nan_node_hides_no_origin_node(self, oracle):
        # g = 0 in row 20 puts nodes at the origin, and a NaN g_1 in row 10,
        # in the same chunk, must not hide them from the node guard
        traj = edited_traj(random_traj(3, 40, 63), 20, g=[0.0, 0.0, 0.0])
        traj = edited_traj(traj, 10, g=[math.nan, 1.0, 1.0])
        with np.errstate(divide="ignore", invalid="ignore"):
            mesh = cylinder_mesh(traj, -0.7, 8)
            assert len(list(webbing._time_chunks(len(traj.times), 8))) == 1
            with pytest.raises(LagwebError, match="mesh node at the origin"):
                euler_transversality(oracle_mesh(mesh) if oracle else mesh)
            if not oracle:
                assert outcome(reference_angle, mesh) == "raised: mesh node at the origin"


def reference_slag(mesh):
    """verify_slag of a factored mesh by the unscreened closed form: the
    Hadamard bound's square roots and |Omega| / bound at every node."""
    f, m = mesh.factors, mesh.n - 1
    c = (f.kappa * mesh.sphere_factors.normal).T
    det_u = np.linalg.det(f.directions)
    pairs = (f.kappa_tan * f.kappa[:, np.newaxis, :]).reshape(-1, m + 1).T
    sphere_sq = (f.kappa_tan**2).reshape(-1, m + 1).T
    kappa_sq = (f.kappa**2).T
    max_omega = max_re = 0.0
    im_min, im_max, min_ratio = math.inf, -math.inf, math.inf
    for sl in webbing._time_chunks(len(f.w), len(f.kappa)):
        w, dw = f.w[sl], f.dw[sl]
        g, rate = (w.conj() * w).real, w.conj() * dw
        max_omega = np.maximum(max_omega, np.max(np.abs(rate.imag @ pairs)))
        e = (det_u * np.prod(w, axis=1))[:, np.newaxis] * (rate * (1.0 / g))
        re, im = np.split(np.concatenate([e.real, e.imag]) @ c, 2)
        hadamard = np.sqrt((dw.conj() * dw).real @ kappa_sq)
        sphere = np.sqrt(g @ sphere_sq).reshape(len(w), -1, m)
        for a in range(m):
            hadamard = hadamard * sphere[:, :, a]
        max_re = np.maximum(max_re, np.max(np.abs(re)))
        im_min = np.minimum(im_min, im.min())
        im_max = np.maximum(im_max, im.max())
        ratio = np.divide(np.hypot(re, im), hadamard, out=np.zeros_like(hadamard),
                          where=hadamard != 0.0)
        min_ratio = np.fmin(min_ratio, np.fmin.reduce(ratio, axis=None))
    if min_ratio < 1e-12:
        raise LagwebError("tangent frame degenerates "
                          f"(|Omega| / Hadamard bound = {min_ratio:.3e})")
    orientation = 1 if im_max + im_min > 0.0 else -1
    return webbing.SlagReport(max_omega=float(max_omega), max_re_omega=float(max_re),
                              min_im_omega=float(im_min if orientation == 1 else -im_max),
                              orientation=orientation)


def reference_angle(mesh):
    """euler_transversality of a factored mesh by the unscreened closed form:
    hypot and arcsin at every node."""
    f, normal = mesh.factors, mesh.sphere_factors.normal
    c = f.kappa * normal
    delta = np.abs(c.sum(axis=1))
    c, normal_sq, kappa_sq = c.T, (normal**2).T, (f.kappa**2).T
    angle = math.inf
    for sl in webbing._time_chunks(len(f.w), len(f.kappa)):
        w, dw = f.w[sl], f.dw[sl]
        g, rate = (w.conj() * w).real, w.conj() * dw
        norms = np.sqrt(g @ kappa_sq)
        if np.fmin.reduce(norms, axis=None) < 1e-12:
            raise LagwebError("mesh node at the origin")
        root_q = np.sqrt((rate.imag**2 / g) @ kappa_sq)
        sines = delta * root_q / (norms * np.hypot((rate.real / g) @ c,
                                                   np.sqrt((1.0 / g) @ normal_sq) * root_q))
        angle = np.minimum(angle, np.arcsin(np.clip(sines, 0.0, 1.0)).min())
    return float(angle)


def reference_harmonic(mesh):
    """harmonic_residual(mesh) of u = t with u formed on every node of each
    block and both angle differences taken by np.roll."""
    times = mesh.trajectory.times
    t_count, p_count = len(times), len(mesh.sphere.params)
    hs, ht = 2.0 * np.pi / p_count, times[1] - times[0]

    def d_angle(z):
        return (np.roll(z, -1, axis=1) - np.roll(z, 1, axis=1)) / (2.0 * hs)

    min_det, worst = math.inf, 0.0
    rows = csvtext.block_rows(p_count, least=16)
    for start in range(1, t_count - 1, rows):
        stop = min(start + rows, t_count - 1)
        lo, hi = max(start - 2, 0), min(stop + 2, t_count)
        e, f, g = webbing._metric(mesh, slice(lo, hi))
        det = e * g - f * f
        min_det = np.minimum(min_det, det.min())
        if det.min() < 1e-14:
            continue
        root = np.sqrt(det)
        u = np.broadcast_to(times[lo:hi, np.newaxis], e.shape)
        u_s, u_t = d_angle(u), np.gradient(u, ht, axis=0)
        flux_s = (g * u_s - f * u_t) / root
        flux_t = (e * u_t - f * u_s) / root
        div = d_angle(flux_s) + np.gradient(flux_t, ht, axis=0)
        worst = np.maximum(worst, np.max(np.abs(div[start - lo:stop - lo]
                                                / root[start - lo:stop - lo])))
    if min_det < 1e-14:
        raise LagwebError(f"induced metric degenerates (EG - F^2 = {min_det:.3e})")
    return float(worst)


def outcome(check, mesh):
    """A check's value as exact bits, or the message that it raised."""
    try:
        value = check(mesh)
    except LagwebError as exc:
        return f"raised: {exc}"
    if isinstance(value, webbing.SlagReport):
        return tuple(float(v).hex() for v in dataclasses.astuple(value))
    return float(value).hex()


def assert_reference_bits(mesh):
    checks = [(verify_slag, reference_slag), (euler_transversality, reference_angle)]
    if mesh.n == 2:
        checks.append((harmonic_residual, reference_harmonic))
    for check, reference in checks:
        assert outcome(check, mesh) == outcome(reference, mesh), check.__name__


def screen_paths(monkeypatch):
    """Counts of the closed-form chunks that each screen decided and of those
    that took the full path: _sines gets 1-D arrays of the nodes near the
    screened minimum, or a chunk's 2-D arrays, and only the rank test's
    full path calls _rank_ratio.  "rank chunks" counts the rank tests, one
    per chunk, of which the factors settle "rank factors"; "sines factors"
    counts the chunks whose sine screen range the factor bounds settle;
    "sines skipped" counts the chunks of the groups that the sine bounds
    skip, and "sines groups" the groups visited."""
    paths = collections.Counter()
    sines, rank = webbing._sines, webbing._rank_ratio
    settled, sines_in_range = webbing._rank_settled, webbing._sines_in_range
    closed_sines = webbing._closed_sines

    def spy_closed_sines(mesh):
        t_count, p_count = len(mesh.trajectory.times), len(mesh.sphere.points)
        chunk_count = len(list(webbing._time_chunks(t_count, p_count)))
        group_of = {i: k for k, group in enumerate(webbing._sine_groups(chunk_count, p_count))
                    for i in group}
        visited = set()
        for i, chunk_sines in closed_sines(mesh):
            paths["sines skipped"] += chunk_sines is None
            if chunk_sines is not None:
                visited.add(group_of[i])
            yield i, chunk_sines
        paths["sines groups"] += len(visited)

    def spy_sines(delta, q, *rest):
        paths["sines full" if q.ndim == 2 else "sines screened"] += 1
        paths["most near nodes"] = max(paths["most near nodes"], q.size if q.ndim == 1 else 0)
        return sines(delta, q, *rest)

    def spy_rank(det, hadamard):
        paths["rank full"] += 1
        return rank(det, hadamard)

    def spy_settled(*args):
        paths["rank chunks"] += 1
        decided = settled(*args)
        paths["rank factors"] += decided
        return decided

    def spy_sines_in_range(*args):
        in_range = sines_in_range(*args)
        paths["sines factors"] += int(np.count_nonzero(in_range))
        return in_range

    monkeypatch.setattr(webbing, "_sines", spy_sines)
    monkeypatch.setattr(webbing, "_rank_ratio", spy_rank)
    monkeypatch.setattr(webbing, "_rank_settled", spy_settled)
    monkeypatch.setattr(webbing, "_sines_in_range", spy_sines_in_range)
    monkeypatch.setattr(webbing, "_closed_sines", spy_closed_sines)
    return paths


SCREEN_LEVELS = (-1e-12, -1e-6, -0.7, -1e6, -1e12)


class TestScreenedChecks:
    """The screened checks hold the bits and messages of the unscreened
    closed form, kept here alone (reference_slag, reference_angle,
    reference_harmonic)."""

    @pytest.fixture(scope="class")
    def trajs(self):
        return {n: random_traj(n, 2 * CHUNK_ROWS + 7, 60 + n) for n in range(2, 7)}

    @pytest.mark.parametrize("level", SCREEN_LEVELS)
    @pytest.mark.parametrize("n", range(2, 7))
    def test_levels(self, trajs, n, level, monkeypatch):
        # from -1e-12 to -1e12 the screens decide every chunk
        mesh = cylinder_mesh(trajs[n], level, {2: 16, 3: 8}.get(n, 64))
        shrink_chunks(monkeypatch, len(mesh.sphere.points))
        paths = screen_paths(monkeypatch)
        assert_reference_bits(mesh)
        assert paths["sines full"] == paths["rank full"] == 0
        assert paths["sines screened"] + paths["sines skipped"] == paths["rank chunks"] == 3

    @pytest.mark.parametrize("budget", [1, 3, None])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_budgets(self, trajs, n, budget, monkeypatch):
        mesh = cylinder_mesh(trajs[n], -0.7, {2: 16, 3: 8}.get(n, 64))
        if budget is not None:
            shrink_chunks(monkeypatch, len(mesh.sphere.points), budget)
        assert_reference_bits(mesh)

    @pytest.mark.parametrize("level", [-1.0, -0.25, -0.0625])
    def test_readme_pair(self, solved, level):
        # the default chunks of a 2000-step mesh on the 128-node circle
        assert_reference_bits(cylinder_mesh(solved[2].trajectory, level, 128))

    @pytest.mark.parametrize("level", [-1.0, -1e-9, -1e9])
    @pytest.mark.parametrize("res", [64, 128])
    def test_tied_minima(self, symmetric_traj, res, level, monkeypatch):
        # on the round circle every node of a time row has the same sine,
        # but for rounding: many nodes come near the screened minimum, and
        # the smallest sine may sit at any of them
        paths = screen_paths(monkeypatch)
        assert_reference_bits(cylinder_mesh(symmetric_traj, level, res))
        assert paths["most near nodes"] > 1
        assert paths["sines full"] == paths["rank full"] == 0

    @pytest.mark.parametrize("edit, full", [
        (dict(g=[1.0, math.nan]), ("rank full", "sines full")),
        (dict(theta=[math.nan, 0.0]), ("rank full", "sines full")),
        (dict(g=[1.0, 0.0]), ("rank full",)),
        (dict(g=[1.0, 1e-40]), ()),
    ], ids=["nan-g", "nan-theta", "zero-tangent", "tiny-g"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_nan_and_zero_tangent(self, trajs, n, edit, full, monkeypatch):
        # g_2 = 0 makes the first sphere tangent of the node at angle 0
        # zero, and its dtheta_2 / dt infinite; 1e-40 only squeezes the
        # frame.  A NaN or a zero sends the edited sample's chunk down the
        # full path of each screen that it reaches (at n = 2 the zero also
        # puts a node at the origin)
        edit = {key: value + [1.0] * (n - 2) for key, value in edit.items()}
        with np.errstate(divide="ignore", invalid="ignore"):
            mesh = cylinder_mesh(edited_traj(trajs[n], CHUNK_ROWS + 3, **edit), -0.7, 8)
            shrink_chunks(monkeypatch, len(mesh.sphere.points))
            paths = screen_paths(monkeypatch)
            assert_reference_bits(mesh)
        assert all(paths[key] >= 1 for key in full)

    def test_full_paths(self, monkeypatch):
        # at n = 9 and level -1e-20, Delta^2 ~ |c|^9 and the bound's nine
        # factors leave the screens' ranges: both take the full path
        mesh = cylinder_mesh(random_traj(9, 40, 3), -1e-20, 64)
        paths = screen_paths(monkeypatch)
        assert_reference_bits(mesh)
        assert paths["sines full"] >= 1 and paths["rank full"] >= 1
        assert paths["sines screened"] == 0

    def test_smallest_square_below_the_range(self, monkeypatch):
        # w = 1 and dw = 2^20 + 2^-240 i keep every factor bound in range,
        # but Q ~ 2^-480 E against R^2 ~ 2^40 puts the chunk's smallest
        # sin^2 near 2^-520: the chunk takes the sines of every node
        mesh = cylinder_mesh(random_traj(2, 20, 5), -0.7, 8)
        ones = np.ones_like(mesh.factors.w)
        mesh.__dict__["factors"] = mesh.factors._replace(w=ones,
                                                         dw=(2.0**20 + 2.0**-240 * 1j) * ones)
        paths = screen_paths(monkeypatch)
        angle = euler_transversality(mesh)
        assert float(angle).hex() == outcome(reference_angle, mesh)
        assert 0.0 < angle < 1e-75
        assert paths["sines factors"] == 1
        assert paths["sines full"] == 1 and paths["sines screened"] == 0

    @pytest.fixture(scope="class")
    def checked_trajs(self, solved):
        """The trajectories of a mesh-checks pass: the README pair at 2000
        steps, a seeded n = 3 pair at 500 steps and an n = 4 pair at 2000."""
        return {2: solved[2].trajectory, 3: random_traj(3, 500, 71), 4: random_traj(4, 2000, 72)}

    @pytest.mark.parametrize("n, level, res", [
        (2, -1.0, 128), (2, -0.25, 128), (2, -0.0625, 128), (3, -1.0, None), (4, -1.0, 256),
    ])
    def test_factors_settle_the_checked_meshes(self, checked_trajs, n, level, res,
                                               monkeypatch):
        # on the default chunks of the meshes that a mesh-checks pass runs,
        # the factor bounds decide every rank test and every sine screen's
        # range, so no (T, P) array of E_t or E_a is formed; the sine bounds
        # skip all groups of chunks but one or two
        mesh = cylinder_mesh(checked_trajs[n], level, res)
        chunks = len(list(webbing._time_chunks(len(mesh.trajectory.times),
                                               len(mesh.sphere.points))))
        paths = screen_paths(monkeypatch)
        assert_reference_bits(mesh)
        assert paths["rank factors"] == paths["rank chunks"] == chunks
        assert paths["sines factors"] == paths["sines screened"] + paths["sines skipped"] == chunks
        assert paths["rank full"] == paths["sines full"] == 0
        assert 1 <= paths["sines groups"] <= 2

    @pytest.mark.parametrize("edit", ["sign-change", "zero-tangent"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_factors_leave_a_chunk_open(self, trajs, n, edit, monkeypatch):
        # pi added to theta_1 of one sample turns Omega of that time row
        # around, so Im Omega changes sign in its chunk; g_2 = 0 gives a
        # zero sphere tangent and NaN rates.  That chunk alone goes on to the
        # Hadamard bound at every node, and the NaN also to every node's sine
        row = CHUNK_ROWS + 3
        if edit == "sign-change":
            edits = dict(theta=trajs[n].theta[row] + np.pi * (np.arange(n) == 0))
        else:
            edits = dict(g=[1.0, 0.0] + [1.0] * (n - 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            mesh = cylinder_mesh(edited_traj(trajs[n], row, **edits), -0.7, 8)
            shrink_chunks(monkeypatch, len(mesh.sphere.points))
            paths = screen_paths(monkeypatch)
            assert_reference_bits(mesh)
        assert paths["rank chunks"] == 3
        assert paths["rank factors"] == 2 and paths["rank full"] == 1
        assert paths["sines factors"] == (3 if edit == "sign-change" else 2)

    @pytest.mark.parametrize("n, seed", [(2, 31), (3, 43)])
    def test_nearly_real_omega(self, n, seed, monkeypatch):
        # the base's phase turned by pi/2 after the flow was integrated (a
        # phase fault of the record): Omega becomes real but for rounding, so
        # Im Omega changes sign in every chunk, no chunk is settled from its
        # factors, and the rank test reads |Omega| from both halves at every
        # node
        traj = random_traj(n, 2 * CHUNK_ROWS + 7, seed)
        base = dataclasses.replace(traj.spec.base, phase=traj.spec.base.phase + math.pi / 2)
        spec = dataclasses.replace(traj.spec, base=base)
        turned = geoflow.GeodesicTrajectory(spec=spec, times=traj.times, g=traj.g,
                                            theta=traj.theta)
        mesh = cylinder_mesh(turned, -0.7, 8)
        shrink_chunks(monkeypatch, len(mesh.sphere.points))
        paths = screen_paths(monkeypatch)
        assert_reference_bits(mesh)
        assert paths["rank full"] == paths["rank chunks"] == 3
        report = verify_slag(mesh)
        assert report.max_re_omega > 1.0 and abs(report.min_im_omega) < 1e-12

    def test_rank_screen_margin(self):
        # one-frame chunks whose |Omega| / Hadamard bound lies within a few
        # ulps of RANK_TOL, each bounded by its own E_t and E_a (all n - 1
        # equal), with Omega purely imaginary: the factors must never settle
        # a chunk whose ratio, by the square roots, falls below it
        rng = np.random.default_rng(24)
        below = 0
        for n in (2, 3, 6):
            for _ in range(300):
                time_sq = rng.uniform(0.1, 10.0)
                sphere_sq = rng.uniform(0.1, 10.0)
                hadamard = math.sqrt(time_sq)
                for _ in range(n - 1):
                    hadamard *= math.sqrt(sphere_sq)
                for step in range(-4, 5):
                    size = 1e-12 * hadamard + step * np.spacing(1e-12 * hadamard)
                    ratio = webbing._rank_ratio(np.array([[size]]), np.array([[hadamard]]))
                    if ratio < webbing.RANK_TOL:
                        below += 1
                        assert not webbing._rank_settled(size, size, time_sq, time_sq,
                                                         sphere_sq, sphere_sq, n)
        assert below > 100


def edited_factors(mesh, rows, w=None, dw=None):
    """The mesh with the flow factors w and dw of the given time rows
    replaced by functions of their old values."""
    f = mesh.factors
    new_w, new_dw = f.w.copy(), f.dw.copy()
    if w is not None:
        new_w[rows] = w(f.w[rows])
    if dw is not None:
        new_dw[rows] = dw(f.w[rows], f.dw[rows])
    mesh.__dict__["factors"] = f._replace(w=new_w, dw=new_dw)
    return mesh


def planted_minimum(mesh, rows):
    """The mesh with Im d = Im(dw / w) of the given time rows cut 10^3-fold:
    Q falls 10^6-fold there, and the sines of those rows hold the mesh's
    smallest."""
    return edited_factors(mesh, rows, dw=lambda w, dw: w * ((dw / w).real + 1e-3j * (dw / w).imag))


def chunk_count(mesh):
    return len(list(webbing._time_chunks(len(mesh.trajectory.times), len(mesh.sphere.points))))


class TestSineSkip:
    """The sine bounds skip whole groups of chunks, and every angle, NaN
    and message keeps the bits of the unscreened closed form
    (reference_angle)."""

    @pytest.fixture(scope="class")
    def trajs(self):
        # nine chunks of CHUNK_ROWS rows, so nine groups of one chunk
        return {n: random_traj(n, 8 * CHUNK_ROWS + 7, 80 + n) for n in (2, 3)}

    def mesh(self, traj, monkeypatch, level=-0.7):
        mesh = cylinder_mesh(traj, level, 8)
        shrink_chunks(monkeypatch, len(mesh.sphere.points))
        assert len(webbing._sine_groups(chunk_count(mesh), 8)) == chunk_count(mesh) == 9
        return mesh

    @pytest.mark.parametrize("level", [-1e-9, -0.7, -1e9])
    @pytest.mark.parametrize("n", [2, 3])
    def test_minimum_in_the_last_group(self, trajs, n, level, monkeypatch):
        mesh = planted_minimum(self.mesh(trajs[n], monkeypatch, level), [-1])
        paths = screen_paths(monkeypatch)
        assert outcome(euler_transversality, mesh) == outcome(reference_angle, mesh)
        assert paths["sines groups"] == 1 and paths["sines skipped"] == 8

    @pytest.mark.parametrize("level", [-1.0, -1e-9, -1e9])
    @pytest.mark.parametrize("res", [16, 64])
    def test_ties_across_groups(self, symmetric_traj, res, level, monkeypatch):
        # on the round circle every node of a time row has the same sine but
        # for rounding, here over 16 groups of eight chunks
        mesh = cylinder_mesh(symmetric_traj, level, res)
        shrink_chunks(monkeypatch, res)
        paths = screen_paths(monkeypatch)
        assert outcome(euler_transversality, mesh) == outcome(reference_angle, mesh)
        assert paths["sines skipped"] > 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_tied_groups(self, trajs, n, monkeypatch):
        # the first and last chunks hold the same factors, and so the same
        # smallest sine: its bound lies below the smallest square, so both
        # groups are visited
        mesh = planted_minimum(self.mesh(trajs[n], monkeypatch), [3])
        first = mesh.factors.w[:CHUNK_ROWS], mesh.factors.dw[:CHUNK_ROWS]
        mesh = edited_factors(mesh, slice(8 * CHUNK_ROWS, 9 * CHUNK_ROWS),
                              w=lambda w: first[0][:len(w)], dw=lambda w, dw: first[1][:len(dw)])
        paths = screen_paths(monkeypatch)
        assert outcome(euler_transversality, mesh) == outcome(reference_angle, mesh)
        assert paths["sines groups"] == 2 and paths["sines skipped"] == 7

    @pytest.mark.parametrize("row", [-2, 4 * CHUNK_ROWS])
    @pytest.mark.parametrize("n", [2, 3])
    def test_nan_in_a_group_the_bound_would_skip(self, trajs, n, row, monkeypatch):
        # the minimum sits in the first chunk; a NaN w_1 in one row of a
        # later group makes that group's bound NaN, so it is visited
        mesh = planted_minimum(self.mesh(trajs[n], monkeypatch), [3])
        mesh = edited_factors(mesh, [row], w=lambda w: w * np.where(np.arange(n) == 0, math.nan, 1.0))
        paths = screen_paths(monkeypatch)
        with np.errstate(invalid="ignore"):
            angle = outcome(euler_transversality, mesh)
            assert angle == outcome(reference_angle, mesh) == "nan"
        assert paths["sines groups"] == 2 and paths["sines skipped"] == 7

    @pytest.mark.parametrize("n", [2, 3])
    def test_origin_in_a_group_the_bound_would_skip(self, trajs, n, monkeypatch):
        # w and dw of every row of the fifth chunk scaled by 1e-15 leave its
        # sines and its bound as they were, as sin^2 is scale-free, but put
        # its nodes within 1e-12 of the origin: the certificate fails there
        mesh = planted_minimum(self.mesh(trajs[n], monkeypatch), [3])
        rows = slice(4 * CHUNK_ROWS, 5 * CHUNK_ROWS)
        mesh = edited_factors(mesh, rows, w=lambda w: 1e-15 * w, dw=lambda w, dw: 1e-15 * dw)
        with pytest.raises(LagwebError, match="mesh node at the origin"):
            euler_transversality(mesh)
        assert outcome(reference_angle, mesh) == "raised: mesh node at the origin"

    def test_first_visited_chunk_below_the_range(self, monkeypatch):
        # the first chunk takes w = 1 and dw = 2^20 + 2^-240 i, as in
        # test_smallest_square_below_the_range: its bound is the least, and
        # its smallest square near 2^-520 lies below the screen's range, so
        # it takes the sines of every node and sets no smallest square; the
        # second chunk is visited too
        mesh = cylinder_mesh(random_traj(2, 20, 5), -0.7, 8)
        shrink_chunks(monkeypatch, 8)
        mesh = edited_factors(mesh, slice(0, CHUNK_ROWS), w=np.ones_like,
                              dw=lambda w, dw: (2.0**20 + 2.0**-240 * 1j) * np.ones_like(dw))
        paths = screen_paths(monkeypatch)
        angle = euler_transversality(mesh)
        assert float(angle).hex() == outcome(reference_angle, mesh)
        assert 0.0 < angle < 1e-75
        assert paths["sines full"] == paths["sines screened"] == 1
        assert paths["sines skipped"] == 0

    def test_skip_needs_a_bound_above_the_smallest_square(self, trajs, monkeypatch):
        # bounds made up for the nine groups: the first visited first, the
        # second equal to the first chunk's smallest square, the rest twice
        # it.  Only a bound strictly above it skips: seven chunks
        mesh = self.mesh(trajs[2], monkeypatch)
        sines, sine_bounds, squares = webbing._sines, webbing._sine_bounds, []

        def spy_sines(delta, q, e, r, b):
            squares.append((delta**2 * q / (e * (r * r + b * q))).min())
            return sines(delta, q, e, r, b)

        def made_up(first):
            def bounds(*args):
                low, certified = sine_bounds(*args)
                low[:] = 2.0 * first
                low[:2] = 2.0**-400, first
                return low, certified
            return bounds

        monkeypatch.setattr(webbing, "_sines", spy_sines)
        monkeypatch.setattr(webbing, "_sine_bounds", made_up(math.nan))
        euler_transversality(mesh)  # NaN bounds: every chunk visited, in time order
        monkeypatch.setattr(webbing, "_sine_bounds", made_up(squares[0]))
        paths = screen_paths(monkeypatch)
        euler_transversality(mesh)
        assert paths["sines skipped"] == 7

    @pytest.mark.parametrize("level", [-1e-9, -0.7, -1e9])
    @pytest.mark.parametrize("n", [2, 3])
    def test_r_near_cancellation(self, trajs, n, level, monkeypatch):
        # each row's Re d is made orthogonal to c at one node, so R cancels
        # there to a few ulps, and Im d is cut 10^3-fold, so R^2 outweighs
        # B Q elsewhere
        mesh = self.mesh(trajs[n], monkeypatch, level)
        f = mesh.factors
        c = (f.kappa * mesh.sphere_factors.normal).T
        d = f.dw / f.w
        for t in range(len(d)):
            cp = c[:, t % c.shape[1]]
            d[t] = d[t].real - (d[t].real @ cp) / (cp @ cp) * cp + 1e-3j * d[t].imag
        mesh = edited_factors(mesh, slice(None), dw=lambda w, dw: w * d)
        paths = screen_paths(monkeypatch)
        assert outcome(euler_transversality, mesh) == outcome(reference_angle, mesh)
        assert paths["sines skipped"] > 0

    @pytest.mark.parametrize("rows", [1, 8])
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_bound_below_every_square(self, n, rows):
        # sin^2 as a chunk forms it, against its group's bound for the node
        # alone, with a relative 5e-10 to spare.  Each row's Re d is
        # orthogonal to c at one node, so R cancels there to a few ulps;
        # with Q at 1e-40 R^2 then outweighs B Q, with Q at 1 it does not
        rng = np.random.default_rng(n)
        t_count, p_count = 48, 40
        kappa_sq, normal_sq = rng.uniform(0.1, 2.0, (2, n, p_count))
        c = rng.standard_normal((n, p_count))
        delta_sq = c.sum(axis=0)**2
        g = rng.uniform(0.5, 2.0, (t_count, n))
        r_time = rng.standard_normal((t_count, n))
        for t, p in enumerate(rng.integers(0, p_count, t_count)):
            r_time[t] -= (r_time[t] @ c[:, p]) / (c[:, p] @ c[:, p]) * c[:, p]
        starts = list(range(0, t_count, rows))
        for q_scale in (1e-40, 1e-8, 1.0):
            q_time = q_scale * rng.uniform(0.1, 2.0, (t_count, n))
            q, e, r, b = (x @ y for x, y in ((q_time, kappa_sq), (g, kappa_sq), (r_time, c),
                                             (1.0 / g, normal_sq)))
            squares = np.minimum.reduceat(delta_sq * q / (e * (r * r + b * q)), starts)
            for p in range(p_count):
                node = slice(p, p + 1)
                bounds, certified = webbing._sine_bounds(
                    delta_sq[node], kappa_sq[:, node], normal_sq[:, node], c[:, node], g,
                    q_time, r_time, 1.0 / g, starts)
                assert certified.all()
                assert (bounds <= squares[:, p] * (1.0 - 5e-10)).all()

def sums_in_orders(a, k):
    """a . k of two non-negative vectors: the rounded products summed
    forward, backward and by fsum, and the exact sum rounded once."""
    products = [x * y for x, y in zip(a.tolist(), k.tolist())]
    exact = sum(fractions.Fraction(x) * fractions.Fraction(y) for x, y in zip(a.tolist(), k.tolist()))
    return [sum(products), sum(products[::-1]), math.fsum(products), float(exact)]


def reference_chunk_bounds(time_factor, sphere_factor, starts):
    """_chunk_bounds with numpy's folds along the short axes."""
    top = np.maximum.reduceat(time_factor, starts, axis=0) @ sphere_factor.max(axis=1)
    low = np.minimum.reduceat(time_factor.min(axis=1), starts) * sphere_factor.sum(axis=0).min()
    return low * (1.0 - webbing.BOUND_SLACK), top * (1.0 + webbing.BOUND_SLACK)


def bound_bits(bounds):
    """The bits of (low, top), every NaN as one: the sign of a NaN carries
    nothing, and no guard accepts a NaN bound."""
    return [np.where(np.isnan(b), math.nan, b).view(np.int64).tolist() for b in bounds]


class TestChunkBounds:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_same_bits_as_short_axis_folds(self, closed_form_meshes, n, monkeypatch):
        # the four factor pairs of the sines and the two of the calibration,
        # each over the three chunks of a seeded mesh
        pairs, bounds = [], webbing._chunk_bounds
        monkeypatch.setattr(webbing, "_chunk_bounds",
                            lambda *args: pairs.append(args) or bounds(*args))
        mesh = closed_form_meshes[f"seeded-n{n}"]
        shrink_chunks(monkeypatch, len(mesh.sphere.points))
        verify_slag(mesh)
        euler_transversality(mesh)
        assert len(pairs) == 6 and all(len(starts) == 3 for *_, starts in pairs)
        for pair in pairs:
            assert bound_bits(bounds(*pair)) == bound_bits(reference_chunk_bounds(*pair))

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_same_bits_with_nan_inf_and_signed_zeros(self, n):
        rng = np.random.default_rng(n)
        specials = np.array([0.0, -0.0, math.inf, -math.inf, math.nan])
        for _ in range(200):
            time_factor = rng.uniform(0.0, 2.0, (9, n))
            sphere_factor = rng.uniform(0.0, 2.0, (7, n))
            for factor in (time_factor, sphere_factor):
                mask = rng.random(factor.shape) < 0.3
                factor[mask] = rng.choice(specials, np.count_nonzero(mask))
            with np.errstate(invalid="ignore"):
                for starts in ([0], [0, 4, 8]):
                    pair = time_factor, sphere_factor.T, starts
                    assert (bound_bits(webbing._chunk_bounds(*pair))
                            == bound_bits(reference_chunk_bounds(*pair)))

    @pytest.mark.parametrize("n", [2, 3, 6, 9])
    def test_every_summation_order_within_bounds(self, n):
        # the first row of a chunk holds every column maximum of the time
        # factor, and the first column of the sphere factor every row
        # maximum, so a value of the product reaches the top bound but for
        # rounding, and the second row and column reach the low one: no
        # order of the sum may round past a bound
        rng = np.random.default_rng(n)
        for _ in range(200):
            time_factor = np.exp(rng.uniform(-5.0, 5.0, (4, n)))
            sphere_factor = np.exp(rng.uniform(-5.0, 5.0, (n, 3)))
            time_factor[0] = time_factor.max(axis=0)
            sphere_factor[:, 0] = sphere_factor.max(axis=1)
            time_factor[1] = time_factor.min()
            sphere_factor[:, 1] *= sphere_factor.sum(axis=0).min() / sphere_factor[:, 1].sum()
            (low,), (top,) = webbing._chunk_bounds(time_factor, sphere_factor, [0])
            assert max(sums_in_orders(time_factor[0], sphere_factor[:, 0])) <= top
            assert min(sums_in_orders(time_factor[1], sphere_factor[:, 1])) >= low
            assert low <= (time_factor @ sphere_factor).min()
            assert (time_factor @ sphere_factor).max() <= top

    def test_chunks_bounded_apart(self):
        # each chunk's bounds come from its own rows alone
        time_factor = np.array([[1.0, 2.0], [3.0, 1.0], [0.5, 0.25]])
        sphere_factor = np.array([[1.0, 2.0], [4.0, 1.0]])
        low, top = webbing._chunk_bounds(time_factor, sphere_factor, [0, 2])
        slack = webbing.BOUND_SLACK
        np.testing.assert_array_equal(top, np.array([3.0 * 2.0 + 2.0 * 4.0, 0.5 * 2.0 + 0.25 * 4.0])
                                      * (1.0 + slack))
        np.testing.assert_array_equal(low, np.array([1.0 * 3.0, 0.25 * 3.0]) * (1.0 - slack))


class TestChunkBudget:
    @pytest.mark.parametrize("p_count", [4, 128, 2048, 40000])
    def test_chunks_hold_a_block_of_node_samples(self, p_count):
        # each chunk holds as many whole time rows as fit in CSV_BLOCK
        # node-samples, and at least one; together they cover each row once
        for t_count in (1, 2, 3, 1000, 2001):
            rows = [range(t_count)[sl] for sl in webbing._time_chunks(t_count, p_count)]
            assert [t for chunk in rows for t in chunk] == list(range(t_count))
            for chunk in rows:
                assert len(chunk) * p_count <= csvtext.CSV_BLOCK or len(chunk) == 1
            for chunk in rows[:-1]:
                assert (len(chunk) + 1) * p_count > csvtext.CSV_BLOCK

    @pytest.mark.parametrize("budget", ["one-row", "three-rows", "default", "whole-grid"])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_values_hold_across_budgets(self, closed_form_meshes, monkeypatch, n, budget):
        # the chunk's row count only sets BLAS's blocking of the closed form's
        # products, so the values stay with the oracle whatever the budget,
        # and the harmonic residual keeps its bits
        mesh = closed_form_meshes[f"seeded-n{n}"]
        t_count, p_count = len(mesh.trajectory.times), len(mesh.sphere.points)
        oracle = verify_slag(oracle_mesh(mesh))
        oracle_angle = euler_transversality(oracle_mesh(mesh))
        residual = harmonic_residual(mesh).hex() if n == 2 else None
        rows = {"one-row": 1, "three-rows": 3, "whole-grid": t_count}.get(budget)
        if rows is not None:
            shrink_chunks(monkeypatch, p_count, rows)
        assert len(list(webbing._time_chunks(t_count, p_count))) == {
            "one-row": t_count, "three-rows": -(-t_count // 3)}.get(budget, 1)
        report = verify_slag(mesh)
        assert report.orientation == oracle.orientation
        assert report.min_im_omega == pytest.approx(oracle.min_im_omega, rel=1e-12)
        assert report.max_omega == pytest.approx(oracle.max_omega, abs=1e-13)
        assert report.max_re_omega == pytest.approx(oracle.max_re_omega, abs=1e-13)
        assert euler_transversality(mesh) == pytest.approx(oracle_angle, rel=1e-12)
        if n == 2:
            assert harmonic_residual(mesh).hex() == residual


class TestLazyArrays:
    def test_checks_form_no_array(self, solved):
        l0, l1, sol = solved
        for n, traj in ((2, sol.trajectory), (3, random_traj(3, 40, 33))):
            mesh = cylinder_mesh(traj, -1.0, 16)
            assert mesh.n == n
            verify_slag(mesh)
            euler_transversality(mesh)
            if n == 2:
                harmonic_residual(mesh)
                boundary_containment(mesh, l0, 0)
            assert formed(mesh) == set()

    def test_csv_io_forms_no_array(self, solved, tmp_path):
        for n, traj in ((2, thin_trajectory(solved[2].trajectory, 20)), (3, random_traj(3, 40, 33))):
            mesh = cylinder_mesh(traj, -1.0, 16)
            assert mesh.n == n
            write_mesh_csv(mesh, tmp_path / f"mesh{n}.csv")
            read_mesh_csv(tmp_path / f"mesh{n}.csv", mesh)
            assert formed(mesh) == set()

    def test_csv_io_peak_is_a_block(self, tmp_path):
        # the nodes are formed one CSV block at a time: writing and checking
        # the mesh holds far less than its (T, P, n) node array
        mesh = cylinder_mesh(random_traj(3, 200, 33), -1.0, 64)
        node_bytes = len(mesh.trajectory.times) * len(mesh.sphere.points) * 3 * 16
        assert node_bytes > 19e6
        mesh.factors, csvtext._tables()  # made once per mesh and per process
        tracemalloc.start()
        try:
            write_mesh_csv(mesh, tmp_path / "mesh.csv")
            read_mesh_csv(tmp_path / "mesh.csv", mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < node_bytes / 4

    def test_first_read_forms_and_keeps(self, solved):
        mesh = cylinder_mesh(solved[2].trajectory, -1.0, 16)
        points = mesh.points
        assert formed(mesh) == {"points"}
        assert mesh.points is points
        assert mesh.factored
        assert not oracle_mesh(mesh).factored
        with pytest.raises(dataclasses.FrozenInstanceError):
            mesh.points = points
        assert {f.name for f in dataclasses.fields(CylinderMesh)} >= {
            "points", "sphere_tangents", "time_tangents"}

    def test_given_array_is_kept(self, solved):
        mesh = cylinder_mesh(solved[2].trajectory, -1.0, 16)
        points = mesh.points.copy()
        given = CylinderMesh(trajectory=mesh.trajectory, chart=mesh.chart, sphere=mesh.sphere,
                             boundary_defect=0.0, points=points)
        assert given.points is points and not given.factored
        assert np.array_equal(bits(given.time_tangents), bits(mesh.time_tangents))

    def test_factors_built_once(self, tmp_path, monkeypatch):
        # cylinder_mesh hands the factors of its boundary check to the mesh
        calls = []
        build = webbing._mesh_factors
        monkeypatch.setattr(webbing, "_mesh_factors",
                            lambda *args: calls.append(args) or build(*args))
        traj = random_traj(3, 40, 33)
        mesh = cylinder_mesh(traj, -1.0, 16)
        report, angle = verify_slag(mesh), euler_transversality(mesh)
        write_mesh_csv(mesh, tmp_path / "mesh.csv")
        assert len(calls) == 1
        # the values and bytes of a mesh that builds its factors on first read
        fresh = CylinderMesh(trajectory=traj, chart=mesh.chart, sphere=mesh.sphere,
                             boundary_defect=mesh.boundary_defect)
        assert verify_slag(fresh) == report and euler_transversality(fresh) == angle
        write_mesh_csv(fresh, tmp_path / "fresh.csv")
        assert (tmp_path / "fresh.csv").read_bytes() == (tmp_path / "mesh.csv").read_bytes()
        assert len(calls) == 2


class TestWebbingFamily:
    def test_homogeneity(self, solved):
        _, _, sol = solved
        fam = webbing_family(sol.trajectory, [-1.0, -4.0], 32)
        # outermost (c = -4) equals twice the c = -1 mesh, node for node
        assert np.max(np.abs(fam[0].points - 2.0 * fam[1].points)) < 1e-10

    def test_linear_shrinkage(self, solved):
        _, _, sol = solved
        scales = np.array([1.0, 0.5, 0.25])
        fam = webbing_family(sol.trajectory, -(scales**2), 32)
        sups = np.array([np.abs(m.points).max() for m in fam])
        np.testing.assert_allclose(sups / sups[0], scales, atol=1e-12)

    def test_family_members_stay_calibrated(self, solved):
        _, _, sol = solved
        fam = webbing_family(sol.trajectory, [-1.0, -0.25], 48)
        reports = [verify_slag(m) for m in fam]
        for r in reports:
            assert r.max_omega < 1e-8
            assert r.max_re_omega < 1e-7
            assert r.min_im_omega > 0.0


class TestRelflux:
    def test_unit_interval_value(self, solved):
        _, _, sol = solved
        report = relflux(sol.trajectory, -2.0, -1.0)
        assert abs(report.relflux - 1.0) < 1e-4
        assert report.spread < 1e-5

    def test_empty_interval(self, solved):
        _, _, sol = solved
        assert relflux(sol.trajectory, -1.5, -1.5).relflux == 0.0

    def test_additivity(self, solved):
        _, _, sol = solved
        a = relflux(sol.trajectory, -2.0, -1.5).relflux
        b = relflux(sol.trajectory, -1.5, -1.0).relflux
        c = relflux(sol.trajectory, -2.0, -1.0).relflux
        assert abs(a + b - c) < 2e-4

    def test_symmetric_case(self, symmetric_traj):
        report = relflux(symmetric_traj, -1.25, -0.75)
        assert abs(report.relflux - 0.5) < 1e-4

    def test_boundary_values_are_minus_one(self, solved):
        # the deformation field is Phi / (2c) by degree-2 homogeneity, so the
        # pairing with the time tangent is exactly -1 at every level
        _, _, sol = solved
        report = relflux(sol.trajectory, -3.0, -0.5)
        assert abs(report.boundary_value + 1.0) < 1e-7

    @pytest.mark.parametrize("which", ["solved", "symmetric"])
    def test_matches_per_level_rebuilds(self, which, solved, symmetric_traj):
        # one boundary value and one spread stand in for the whole level grid
        traj = solved[2].trajectory if which == "solved" else symmetric_traj
        report = relflux(traj, -3.0, -0.5)
        _, boundary_values, spreads, total = reference_relflux(traj, -3.0, -0.5, 7)
        np.testing.assert_allclose(boundary_values, report.boundary_value, rtol=0, atol=1e-12)
        np.testing.assert_allclose(spreads, report.spread, rtol=0, atol=1e-12)
        assert abs(report.relflux - total) < 1e-12

    def test_builds_no_cylinder(self, solved, monkeypatch):
        # the pairing is read off the flow factors, not off a mesh
        def no_mesh(*args, **kwargs):
            raise AssertionError("relflux built a cylinder mesh")

        monkeypatch.setattr(webbing, "cylinder_mesh", no_mesh)
        assert abs(relflux(solved[2].trajectory, -2.0, -1.0).relflux - 1.0) < 1e-4

    @pytest.mark.parametrize("edit", ["g", "theta"])
    def test_nan_history_rejected(self, edit):
        # one NaN sample makes every rate and so the spread NaN, which passes
        # no tolerance
        traj = random_traj(2, 100, 42)
        values = getattr(traj, edit)[50].copy()
        values[0] = math.nan
        with np.errstate(invalid="ignore"), pytest.raises(
                LagwebError, match=r"^primitive varies by nan on the top boundary$"):
            relflux(edited_traj(traj, 50, **{edit: values}), -2.0, -1.0)

    def test_zero_coefficient_rejected(self):
        # a frozen direction has no level-set ellipsoid, as in cylinder_mesh
        l0 = make_frame(FlatCalabiYau(2), np.eye(2))
        traj = geodesic_ivp(frame_spec(l0, [0.0, -0.3]), IntegratorConfig(200))
        with pytest.raises(ValueError, match="all coefficients must be negative"):
            cylinder_mesh(traj, -1.0, 16)
        with pytest.raises(ValueError, match="all coefficients must be negative"):
            relflux(traj, -2.0, -1.0)


def reference_relflux(traj, b0, b1, level_count):
    """relflux rebuilt level by level from the immersion, with the flow-equation
    time tangent: (levels, boundary values, spreads, relflux)."""
    a = traj.spec.coefficients
    grid = sphere_grid(traj.spec.n)
    directions = traj.spec.frame_directions()
    sqrt_g = np.sqrt(traj.g)
    w = sqrt_g * np.exp(1j * traj.theta)
    dg = -4.0 * np.tan(traj.phases)[:, np.newaxis] * a[np.newaxis, :]
    dw = (dg / (2.0 * sqrt_g) + 1j * sqrt_g * (-2.0 * a / traj.g)) * np.exp(1j * traj.theta)
    levels = np.linspace(b0, b1, level_count)
    boundary_values = np.empty(level_count)
    spreads = np.empty(level_count)
    for k, c in enumerate(levels):
        kappa = grid.points * np.sqrt(c / a)[np.newaxis, :]
        phi = (kappa[np.newaxis, :, :] * w[:, np.newaxis, :]) @ directions.T
        d_t = (kappa[np.newaxis, :, :] * dw[:, np.newaxis, :]) @ directions.T
        integrand = np.sum(phi.conj() * d_t, axis=2).imag / (2.0 * c)
        u_top = np.trapezoid(integrand, traj.times, axis=0)
        boundary_values[k] = u_top.mean()
        spreads[k] = u_top.max() - u_top.min()
    return levels, boundary_values, spreads, -float(np.trapezoid(boundary_values, levels))


class TestHarmonicResidual:
    @staticmethod
    def grid_mesh(spec, m):
        traj = geodesic_ivp(spec, IntegratorConfig(m))
        return cylinder_mesh(traj, -1.0, m)

    def test_symmetric_residual_tiny_and_decaying(self, symmetric_traj):
        spec = symmetric_traj.spec
        r64 = harmonic_residual(self.grid_mesh(spec, 64))
        r128 = harmonic_residual(self.grid_mesh(spec, 128))
        assert r64 < 1e-3
        assert r128 < r64

    def test_stencil_is_exact_on_exact_samples(self, solved):
        # the time coordinate's flux fields are constant on level cylinders
        # (F == 0 from the level-set relation, E/W == const), so the discrete
        # operator is exact and the residual is pure flow-sampling error;
        # near-exact samples push it to roundoff
        _, _, sol = solved
        spec = sol.trajectory.spec
        from lagweb.geoflow import geodesic_ivp as ivp, thin_trajectory as thin

        traj = thin(ivp(spec, IntegratorConfig(64 * 64)), 64)
        assert harmonic_residual(cylinder_mesh(traj, -1.0, 64)) < 1e-12

    def test_generic_residual_decays(self, solved):
        # with matching step counts the sampling error dominates and decays
        # at the integrator's fourth order
        _, _, sol = solved
        spec = sol.trajectory.spec
        r64 = harmonic_residual(self.grid_mesh(spec, 64))
        r128 = harmonic_residual(self.grid_mesh(spec, 128))
        assert r64 < 1e-6
        assert 10.0 < r64 / r128 < 24.0

    def test_quadratic_time_control(self, solved):
        _, _, sol = solved
        spec = sol.trajectory.spec
        for m in (64, 128):
            mesh = self.grid_mesh(spec, m)
            times = mesh.trajectory.times
            u = np.broadcast_to((times**2)[:, np.newaxis], mesh.points.shape[:2])
            assert harmonic_residual(mesh, u) > 0.1

    @pytest.mark.parametrize("t_count", [3, 4, CHUNK_ROWS + 1, CHUNK_ROWS + 2, 2 * CHUNK_ROWS + 3])
    @pytest.mark.parametrize("oracle", [False, True], ids=["factored", "oracle"])
    @pytest.mark.parametrize("given_u", [False, True], ids=["u=t", "random-u"])
    def test_blocks_equal_one_block(self, solved, monkeypatch, t_count, oracle, given_u):
        # each block's two-row halo gives every residual row the whole-grid
        # stencil, so the sup-norm keeps its bits at any block size; the
        # random u is 0 on the two rows at each end, so that the one-sided
        # rows there do not hold the sup
        traj = geodesic_ivp(solved[2].trajectory.spec, IntegratorConfig(t_count - 1))
        mesh = cylinder_mesh(traj, -1.0, 12)
        mesh = oracle_mesh(mesh) if oracle else mesh
        u = None
        if given_u:
            u = np.random.default_rng(t_count).standard_normal((t_count, 12))
            u[:2] = u[-2:] = 0.0
        blocked = {}
        for block in (1, 2, 3, CHUNK_ROWS):
            fix_block_rows(monkeypatch, block)
            blocked[block] = harmonic_residual(mesh, u).hex()
        fix_block_rows(monkeypatch, t_count)
        assert blocked == dict.fromkeys(blocked, harmonic_residual(mesh, u).hex())

    def test_degenerate_metric_in_a_later_block(self, symmetric_traj, monkeypatch):
        # the message names the smallest EG - F^2 of the whole grid
        mesh = cylinder_mesh(symmetric_traj, -1.0, 16)
        shrink_chunks(monkeypatch, 16)
        time_tangents = mesh.time_tangents.copy()
        time_tangents[5 * CHUNK_ROWS + 3] *= 1e-9
        time_tangents[9 * CHUNK_ROWS] = 0.0
        broken = CylinderMesh(trajectory=mesh.trajectory, chart=mesh.chart,
                              sphere=mesh.sphere, points=mesh.points,
                              sphere_tangents=mesh.sphere_tangents,
                              time_tangents=time_tangents, boundary_defect=mesh.boundary_defect)
        with pytest.raises(LagwebError,
                           match=r"induced metric degenerates \(EG - F\^2 = 0\.000e\+00\)"):
            harmonic_residual(broken)

    @pytest.mark.parametrize("p_count", [128, 2048, 8192, 40000])
    def test_blocks_keep_sixteen_rows(self, symmetric_traj, monkeypatch, p_count):
        # a block reads two halo rows per side, so it keeps at least 16 rows
        # however many nodes a row has, and about CSV_BLOCK node-samples
        mesh = cylinder_mesh(geodesic_ivp(symmetric_traj.spec, IntegratorConfig(60)), -1.0,
                             p_count)
        spans = []
        metric = webbing._metric
        monkeypatch.setattr(webbing, "_metric",
                            lambda mesh, rows: spans.append(rows) or metric(mesh, rows))
        harmonic_residual(mesh)
        rows = max(16, csvtext.CSV_BLOCK // p_count)
        assert [(sl.start, sl.stop) for sl in spans] == [
            (max(start - 2, 0), min(start + rows + 2, 61)) for start in range(1, 60, rows)]

    @pytest.mark.parametrize("row", [0, 1, 17, 30, 59, 60])
    def test_infinite_metric_reaches_the_residual(self, monkeypatch, row):
        # time tangents scaled by 1e160 give G = +inf on one row, but F^2,
        # with F below 1e-15, stays finite: det and root are +inf there, and
        # u = t's fluxes without G * 0 would be finite zeros.  The chunks
        # that hold the row take the full expression, whose G * 0 = NaN
        # reaches the residual of every interior row.  At 16-row blocks,
        # row 17 is also a halo row
        mesh = cylinder_mesh(random_traj(2, 60, 61), -0.7, 16)
        fix_block_rows(monkeypatch, 16)
        time_tangents = mesh.time_tangents.copy()
        time_tangents[row] *= 1e160
        broken = CylinderMesh(trajectory=mesh.trajectory, chart=mesh.chart,
                              sphere=mesh.sphere, points=mesh.points,
                              sphere_tangents=mesh.sphere_tangents,
                              time_tangents=time_tangents, boundary_defect=mesh.boundary_defect)
        with np.errstate(over="ignore", invalid="ignore"):
            e, f, g = webbing._metric(broken, slice(row, row + 1))
            assert np.all(e * g - f * f == math.inf)
            value = outcome(harmonic_residual, broken)
            assert value == outcome(reference_harmonic, broken)
        assert (value == "nan") == (0 < row < 60)

    @pytest.mark.parametrize("rows, nan_rows", [(16, [10]), (59, [10]), (16, range(20))],
                             ids=["nan-row", "one-block", "nan-block"])
    def test_nan_row_hides_no_degenerate_row(self, monkeypatch, rows, nan_rows):
        # the smallest EG - F^2 was folded with det.min() and np.minimum: a
        # NaN metric row, or a block of them (rows 0-18 at 16-row blocks),
        # made the fold NaN, NaN < 1e-14 is False, and the zero time
        # tangents of row 40 returned nan
        mesh = cylinder_mesh(random_traj(2, 60, 61), -0.7, 16)
        fix_block_rows(monkeypatch, rows)
        time_tangents = mesh.time_tangents.copy()
        time_tangents[list(nan_rows)] = math.nan
        time_tangents[40] = 0.0
        broken = CylinderMesh(trajectory=mesh.trajectory, chart=mesh.chart,
                              sphere=mesh.sphere, points=mesh.points,
                              sphere_tangents=mesh.sphere_tangents,
                              time_tangents=time_tangents, boundary_defect=mesh.boundary_defect)
        with pytest.raises(LagwebError,
                           match=r"induced metric degenerates \(EG - F\^2 = 0\.000e\+00\)"):
            harmonic_residual(broken)

    def test_degenerate_metric_rejected(self, symmetric_traj):
        mesh = cylinder_mesh(symmetric_traj, -1.0, 16)
        broken = CylinderMesh(trajectory=mesh.trajectory, chart=mesh.chart,
                              sphere=mesh.sphere, points=mesh.points,
                              sphere_tangents=mesh.sphere_tangents,
                              time_tangents=np.zeros_like(mesh.time_tangents),
                              boundary_defect=mesh.boundary_defect)
        with pytest.raises(LagwebError,
                           match=r"induced metric degenerates \(EG - F\^2 = 0\.000e\+00\)"):
            harmonic_residual(broken)


def reference_mesh_csv(mesh):
    """The row-at-a-time formatter that write_mesh_csv must match byte for byte."""
    n = mesh.n
    k = mesh.sphere.params.shape[1]
    header = [f"s_{i + 1}" for i in range(k)] + ["t"]
    for j in range(n):
        header += [f"re_z{j + 1}", f"im_z{j + 1}"]
    lines = [",".join(header)]
    for it, t in enumerate(mesh.trajectory.times):
        for ip in range(mesh.points.shape[1]):
            row = [f"{v:.17g}" for v in mesh.sphere.params[ip]]
            row.append(f"{t:.17g}")
            for j in range(n):
                z = mesh.points[it, ip, j]
                row.append(f"{z.real:.17g}")
                row.append(f"{z.imag:.17g}")
            lines.append(",".join(row))
    return "".join(line + "\n" for line in lines).encode("utf-8")


def random_traj(n, steps, seed):
    l0, l1, _, _ = random_maslov_zero_pair(np.random.default_rng(seed), n)
    return solve_bvp_maslov0(l0, l1, 1e-10, IntegratorConfig(steps)).trajectory


ROW_EDITS = [
    (lambda lines: lines[:-1], "ends before data row 328$"),
    (lambda lines: lines + lines[-1:], "has more than 328 data rows$"),
    (lambda lines: lines[:100] + [""] + lines[100:], "column s_1 differs in data row 100$"),
    # rows 10 and 11 share one time slice and differ in s_1
    (lambda lines: lines[:10] + [lines[11], lines[10]] + lines[12:],
     "column s_1 differs in data row 10$"),
    (lambda lines: [lines[0].replace("im_z2", "im_z3")] + lines[1:],
     "header is not s_1,t,re_z1,im_z1,re_z2,im_z2$"),
    (lambda lines: lines[:1], "ends before data row 1$"),
]
ROW_EDIT_IDS = ["missing-row", "extra-row", "blank-line", "swapped-rows", "renamed-column",
                "header-only"]


class TestSlicePoints:
    """The nodes in two steps, kappa w by a complex multiply and then the
    two-operand einsum with U, are the three-operand einsum's bits."""

    @pytest.mark.parametrize("pair", ["readme", "seeded-n3"])
    def test_meshes(self, solved, pair):
        # the README mesh's kappa has exact zeros; the seeded frame's U is not I
        traj = solved[2].trajectory if pair == "readme" else random_traj(3, 40, 33)
        f = cylinder_mesh(traj, -1.0).factors
        assert np.any(f.kappa == 0.0) if pair == "readme" else np.all(f.directions.imag != 0.0)
        assert np.array_equal(bits(webbing._slice_points(f, slice(None))),
                              bits(np.einsum("pj,tj,ij->tpi", f.kappa, f.w, f.directions)))

    def test_factors_with_zeros_infinities_and_nans(self):
        rng = np.random.default_rng(8)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        for n in (2, 3, 6):
            kappa = rng.standard_normal((30, n)) * 10.0 ** rng.integers(-300, 300, (30, n))
            w = ((rng.standard_normal((12, n)) + 1j * rng.standard_normal((12, n)))
                 * 10.0 ** rng.integers(-300, 300, (12, n)))
            directions = np.linalg.qr(rng.standard_normal((n, n))
                                      + 1j * rng.standard_normal((n, n)))[0]
            kappa.flat[rng.integers(0, kappa.size, 12)] = rng.choice(specials, 12)
            w.real.flat[rng.integers(0, w.size, 6)] = rng.choice(specials, 6)
            w.imag.flat[rng.integers(0, w.size, 6)] = rng.choice(specials, 6)
            f = webbing._Factors(kappa, None, w, None, directions)
            with np.errstate(invalid="ignore", over="ignore"):
                two = webbing._slice_points(f, slice(None)).view(np.float64)
                three = np.einsum("pj,tj,ij->tpi", kappa, w, directions).view(np.float64)
            nan = np.isnan(three)
            assert nan.any() and np.isinf(three).any()
            assert np.array_equal(np.isnan(two), nan)  # NaN payloads are not compared
            assert np.array_equal(bits(two[~nan]), bits(three[~nan]))


class TestMeshCsv:
    @pytest.mark.parametrize("n,steps,res", [(2, 40, 16), (3, 20, 8), (4, 20, 64)])
    def test_bytes_match_row_formatter(self, n, steps, res, tmp_path):
        mesh = cylinder_mesh(random_traj(n, steps, 30 + n), -0.7, res)
        assert mesh.sphere.kind == {2: "circle", 3: "latlong", 4: "quasirandom"}[n]
        path = tmp_path / "mesh.csv"
        write_mesh_csv(mesh, path)
        assert path.read_bytes() == reference_mesh_csv(mesh)

    @pytest.mark.parametrize("slices", [1, 2, 3, 16])
    @pytest.mark.parametrize("n,steps,res", [(2, 40, 16), (3, 20, 8), (4, 20, 64)])
    def test_blocks_of_slices_match_row_formatter(self, n, steps, res, slices, tmp_path,
                                                  monkeypatch):
        # nodes formed one block of slices at a time are the whole mesh's, bit for bit
        mesh = cylinder_mesh(random_traj(n, steps, 30 + n), -0.7, res)
        monkeypatch.setattr(csvtext, "CSV_BLOCK", slices * len(mesh.sphere.points) * 2 * n)
        path = tmp_path / "mesh.csv"
        write_mesh_csv(mesh, path)
        assert mesh.factored and formed(mesh) == set()
        assert path.read_bytes() == reference_mesh_csv(mesh)

    def test_negative_zero_and_specials_match(self, symmetric_traj, tmp_path):
        mesh = cylinder_mesh(thin_trajectory(symmetric_traj, 200), -1.0, 8)
        points = mesh.points.copy()
        points[0, 0, 0] = complex(-0.0, -0.0)
        points[1, 2, 1] = complex(1e-300, -2.5e-17)
        params = mesh.sphere.params.copy()
        params[3, 0] = -0.0
        sphere = SphereGrid(mesh.sphere.kind, params, mesh.sphere.points, mesh.sphere.tangents)
        odd = CylinderMesh(trajectory=mesh.trajectory, chart=mesh.chart, sphere=sphere,
                           points=points, sphere_tangents=mesh.sphere_tangents,
                           time_tangents=mesh.time_tangents,
                           boundary_defect=mesh.boundary_defect)
        path = tmp_path / "mesh.csv"
        write_mesh_csv(odd, path)
        text = path.read_bytes()
        assert text == reference_mesh_csv(odd)
        assert b"\n0,0,-0,-0," in text and b"\n-0,0," in text

    def test_round_trip(self, solved, tmp_path):
        _, _, sol = solved
        mesh = cylinder_mesh(thin_trajectory(sol.trajectory, 100), -1.0, 16)
        path = tmp_path / "mesh.csv"
        write_mesh_csv(mesh, path)
        read_mesh_csv(path, mesh)  # raises on any difference

    def test_round_trip_keeps_negative_zeros(self, symmetric_traj, tmp_path):
        mesh = cylinder_mesh(thin_trajectory(symmetric_traj, 50), -1.0, 8)
        points = mesh.points.copy()
        points[0, 0, 0] = complex(-0.0, -0.0)
        points[2, 3, 1] = complex(-0.0, 0.5)
        points[4, 1, 0] = complex(0.25, -0.0)
        odd = CylinderMesh(trajectory=mesh.trajectory, chart=mesh.chart, sphere=mesh.sphere,
                           points=points, sphere_tangents=mesh.sphere_tangents,
                           time_tangents=mesh.time_tangents,
                           boundary_defect=mesh.boundary_defect)
        path = tmp_path / "mesh.csv"
        write_mesh_csv(odd, path)
        read_mesh_csv(path, odd)
        # the same nodes with +0 in place of each -0 (-0 + 0 is +0) compare
        # equal as floats, but not bitwise; the first -0 is re_z1 of data row 1
        plus = CylinderMesh(trajectory=mesh.trajectory, chart=mesh.chart, sphere=mesh.sphere,
                            points=points + 0.0, sphere_tangents=mesh.sphere_tangents,
                            time_tangents=mesh.time_tangents,
                            boundary_defect=mesh.boundary_defect)
        assert np.array_equal(plus.points, points)
        with pytest.raises(ValueError, match="column re_z1 differs in data row 1$"):
            read_mesh_csv(path, plus)

    def test_reads_one_block_at_a_time(self, symmetric_traj, tmp_path, monkeypatch):
        mesh = cylinder_mesh(thin_trajectory(symmetric_traj, 50), -1.0, 8)  # 41 slices
        path = tmp_path / "mesh.csv"
        write_mesh_csv(mesh, path)
        lines = path.read_bytes().splitlines(keepends=True)
        reads = []
        pread = os.pread
        monkeypatch.setattr(os, "pread",
                            lambda fd, size, at: reads.append(size) or pread(fd, size, at))
        # 100 values make blocks of three slices of 8 rows of 4 values
        monkeypatch.setattr(csvtext, "CSV_BLOCK", 100)
        blocks = [sum(map(len, lines[1 + 8 * start:1 + 8 * (start + 3)]))
                  for start in range(0, 41, 3)]
        assert max(blocks) <= 3 * 8 * 6 * 25  # 25 bytes hold any '%.17g' value and its comma
        # the header, each block, then one byte to find the end of the file;
        # with a helper, this process reads the even blocks alone
        for count, mine in ((1, blocks), (2, blocks[::2])):
            use_cpus(monkeypatch, count)
            reads.clear()
            read_mesh_csv(path, mesh)
            assert reads == [len(lines[0]), *mine, 1]

    @staticmethod
    def edited(mesh, tmp_path, edit):
        """Write mesh, pass its lines (header first) through edit, rewrite."""
        path = tmp_path / "mesh.csv"
        write_mesh_csv(mesh, path)
        path.write_text("".join(line + "\n" for line in edit(path.read_text().splitlines())))
        return path

    @pytest.mark.parametrize("row, column, value", [(3, 0, 9.5), (20, 1, 0.01)])
    def test_grid_columns_checked(self, symmetric_traj, tmp_path, row, column, value):
        mesh = cylinder_mesh(thin_trajectory(symmetric_traj, 50), -1.0, 8)

        def edit(lines):
            cells = lines[1 + row].split(",")
            cells[column] = repr(value)
            lines[1 + row] = ",".join(cells)
            return lines

        name = ["s_1", "t"][column]
        with pytest.raises(ValueError, match=f"column {name} differs in data row {row + 1}$"):
            read_mesh_csv(self.edited(mesh, tmp_path, edit), mesh)

    @pytest.mark.parametrize("edit, message", ROW_EDITS, ids=ROW_EDIT_IDS)
    def test_rows_must_be_the_writers(self, symmetric_traj, tmp_path, edit, message):
        mesh = cylinder_mesh(thin_trajectory(symmetric_traj, 50), -1.0, 8)
        with pytest.raises(ValueError, match=f"^mesh CSV rows differ from the rebuild: .*{message}"):
            read_mesh_csv(self.edited(mesh, tmp_path, edit), mesh)

    @pytest.mark.parametrize("edit, message", ROW_EDITS, ids=ROW_EDIT_IDS)
    def test_rows_numbered_across_blocks(self, symmetric_traj, tmp_path, monkeypatch, edit,
                                         message):
        # blocks of one slice (8 rows): every message counts the rows of the
        # blocks that matched before it
        mesh = cylinder_mesh(thin_trajectory(symmetric_traj, 50), -1.0, 8)
        monkeypatch.setattr(csvtext, "CSV_BLOCK", 8 * 4)
        with pytest.raises(ValueError, match=f"^mesh CSV rows differ from the rebuild: .*{message}"):
            read_mesh_csv(self.edited(mesh, tmp_path, edit), mesh)

    def test_header_only_file_rejected(self, symmetric_traj, tmp_path):
        # used to end in an IndexError, outside the CLI's exit-code contract
        mesh = cylinder_mesh(thin_trajectory(symmetric_traj, 50), -1.0, 8)
        path = tmp_path / "mesh.csv"
        path.write_text("s_1,t,re_z1,im_z1,re_z2,im_z2\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))} ends before data row 1$"):
            read_mesh_csv(path, mesh)

    def test_file_cut_inside_a_row(self, symmetric_traj, tmp_path):
        mesh = cylinder_mesh(thin_trajectory(symmetric_traj, 50), -1.0, 8)
        path = tmp_path / "mesh.csv"
        write_mesh_csv(mesh, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match=f"{re.escape(str(path))} ends in data row 328$"):
            read_mesh_csv(path, mesh)


def one_slice_blocks(monkeypatch, tmp_path, symmetric_traj, edit):
    """The 41-slice, 8-node test mesh, written by one process; its lines
    passed through edit; blocks of one slice, so data rows 8k + 1 to 8k + 8
    are block k, which the stage visits for even k and a helper for odd k."""
    mesh = cylinder_mesh(thin_trajectory(symmetric_traj, 50), -1.0, 8)
    monkeypatch.setattr(csvtext, "CSV_BLOCK", 8 * 4)
    use_cpus(monkeypatch, 1)
    return mesh, TestMeshCsv.edited(mesh, tmp_path, edit)


def set_cells(rows, column, value):
    """An edit that sets one column of the given data rows (from 1)."""
    def edit(lines):
        col = lines[0].split(",").index(column)
        for row in rows:
            cells = lines[row].split(",")
            cells[col] = value
            lines[row] = ",".join(cells)
        return lines
    return edit


class TestCsvRing:
    """The CSV text is formed, written and checked by the stage and, with
    two CPUs and more than one block, one forked helper in lockstep."""

    @pytest.mark.parametrize("slices", [None, 1, 2, 3, 16])
    @pytest.mark.parametrize("n,steps,res", [(2, 40, 16), (3, 20, 8), (4, 20, 64)])
    def test_same_bytes_at_one_and_two_cpus(self, n, steps, res, slices, tmp_path,
                                            monkeypatch):
        mesh = cylinder_mesh(random_traj(n, steps, 30 + n), -0.7, res)
        if slices:
            monkeypatch.setattr(csvtext, "CSV_BLOCK", slices * len(mesh.sphere.points) * 2 * n)
        blocks = len(webbing._mesh_blocks(mesh))
        expected = reference_mesh_csv(mesh)
        for count in (1, 2):
            use_cpus(monkeypatch, count)
            forks = spy_forks(monkeypatch)
            path = tmp_path / f"mesh{count}.csv"
            write_mesh_csv(mesh, path)
            read_mesh_csv(path, mesh)
            assert path.read_bytes() == expected
            # one CPU or one block: nothing is forked; else one helper per pass
            assert len(forks) == (2 if count == 2 and blocks > 1 else 0)

    def test_trajectory_csv_is_one_block(self, solved, tmp_path, monkeypatch):
        traj = solved[2].trajectory
        monkeypatch.setattr(csvtext, "CSV_BLOCK", 7)  # many text blocks, one CSV block
        texts = []
        for count in (1, 2):
            use_cpus(monkeypatch, count)
            forks = spy_forks(monkeypatch)
            path = tmp_path / f"trajectory{count}.csv"
            geoflow.write_trajectory_csv(traj, path)
            geoflow.read_trajectory_csv(path, traj)
            texts.append(path.read_bytes())
            assert forks == []
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("rows, named", [((20,), 20), ((12,), 12), ((12, 20), 12),
                                             ((4, 12), 4), ((328,), 328)],
                             ids=["even", "odd", "odd-then-even", "even-then-odd", "last"])
    def test_first_edit_in_file_order_is_named(self, symmetric_traj, tmp_path, monkeypatch,
                                               count, rows, named):
        mesh, path = one_slice_blocks(monkeypatch, tmp_path, symmetric_traj,
                                      set_cells(rows, "re_z2", "9.5"))
        use_cpus(monkeypatch, count)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))} column re_z2 differs in "
                                             f"data row {named}$"):
            read_mesh_csv(path, mesh)

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("edit, message", ROW_EDITS, ids=ROW_EDIT_IDS)
    def test_row_edits_at_one_and_two_cpus(self, symmetric_traj, tmp_path, monkeypatch, count,
                                           edit, message):
        mesh, path = one_slice_blocks(monkeypatch, tmp_path, symmetric_traj, edit)
        use_cpus(monkeypatch, count)
        with pytest.raises(ValueError, match=f"^mesh CSV rows differ from the rebuild: .*{message}"):
            read_mesh_csv(path, mesh)

    def test_stage_kills_its_helper_on_failure(self, symmetric_traj, tmp_path, monkeypatch):
        # the stage's block 0 differs while the helper still has blocks to go
        mesh, path = one_slice_blocks(monkeypatch, tmp_path, symmetric_traj,
                                      set_cells([4], "t", "9.5"))
        use_cpus(monkeypatch, 2)
        forks = spy_forks(monkeypatch)
        reaped, waitpid = [], os.waitpid
        monkeypatch.setattr(os, "waitpid",
                            lambda pid, options: reaped.append(waitpid(pid, options)) or reaped[-1])
        with pytest.raises(ValueError, match="column t differs in data row 4$"):
            read_mesh_csv(path, mesh)
        assert [pid for pid, _ in reaped] == forks
        status = reaped[0][1]
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU forks no helper")
    def test_stage_gets_its_cpus_back(self, symmetric_traj, tmp_path, monkeypatch):
        # the stage keeps to every other CPU while its helper runs, then
        # gets them all back, so the next file has a helper again
        mesh = cylinder_mesh(thin_trajectory(symmetric_traj, 50), -1.0, 8)
        monkeypatch.setattr(csvtext, "CSV_BLOCK", 8 * 4)
        cpus = sorted(os.sched_getaffinity(0))
        forks = spy_forks(monkeypatch)
        pins, pin = [], os.sched_setaffinity
        monkeypatch.setattr(os, "sched_setaffinity",
                            lambda pid, to: pins.append(sorted(to)) or pin(pid, to))
        for name in ("a.csv", "b.csv"):
            write_mesh_csv(mesh, tmp_path / name)
        assert len(forks) == 2 and sorted(os.sched_getaffinity(0)) == cpus
        assert pins == [cpus[0::2], cpus] * 2
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @staticmethod
    def helper_fails(how):
        """Four 3-byte blocks whose visit, in a helper alone, fails as how says."""
        stage = os.getpid()

        def visit(text, offset):
            if os.getpid() != stage:
                how()
            return offset + len(text)

        return [functools.partial(bytes, 3)] * 4, visit

    def test_helper_oserror_keeps_its_errno(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        blocks, visit = self.helper_fails(lambda: os.pwrite(-1, b"x", 0))
        with pytest.raises(OSError) as raised:
            csvtext._ring(blocks, visit, 0)
        assert type(raised.value) is OSError and raised.value.errno == errno.EBADF
        assert str(raised.value) == f"[Errno {errno.EBADF}] {os.strerror(errno.EBADF)}"

    def test_helper_only_failure_is_named(self, monkeypatch):
        # the stage visits the helper's block again; here it passes
        use_cpus(monkeypatch, 2)
        blocks, visit = self.helper_fails(lambda: 1 / 0)
        with pytest.raises(LagwebError, match="CSV helper process failed on a block"):
            csvtext._ring(blocks, visit, 0)

    def test_helper_that_ends_is_named(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        blocks, visit = self.helper_fails(lambda: os._exit(3))
        with pytest.raises(LagwebError, match="CSV helper process ended before its block"):
            csvtext._ring(blocks, visit, 0)

    def test_blocks_call_no_blas(self):
        # the helper forms its blocks after a fork, where BLAS threads are
        # not safe: every numpy call on the factors is seen here
        calls = []

        class Seen(np.ndarray):
            def __array_function__(self, func, types, args, kwargs):
                calls.append((func.__module__, func.__name__, kwargs))
                return super().__array_function__(func, types, args, kwargs)

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                calls.append(("ufunc", ufunc.__name__, kwargs))
                inputs = [x.view(np.ndarray) if isinstance(x, Seen) else x for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        mesh = cylinder_mesh(random_traj(3, 20, 33), -0.7, 8)
        expected = reference_mesh_csv(mesh)
        mesh.__dict__["factors"] = webbing._Factors(*(a.view(Seen) for a in mesh.factors))
        text = b"".join(block() for block in webbing._mesh_blocks(mesh))
        assert expected.endswith(text) and len(text) > len(expected) // 2
        assert ("numpy", "einsum", {}) in calls
        blas = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum_path", "linalg"}
        assert not [c for c in calls if blas & {c[1], *c[0].split(".")} or c[2].get("optimize")]
