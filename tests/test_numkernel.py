import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import lagweb
from lagweb import numkernel
from lagweb.errors import LagwebError, NoConvergence
from lagweb.numkernel import (
    IntegratorConfig,
    integrate_rk4,
    jacobi_eigh,
    joint_diagonalize_symmetric_unitary,
)


def rotation2(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


class TestJacobi:
    def test_diagonalizes_random_symmetric(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5, 8):
            a = rng.standard_normal((n, n))
            a = 0.5 * (a + a.T)
            w, v = jacobi_eigh(a)
            np.testing.assert_allclose(v.T @ v, np.eye(n), atol=1e-13)
            np.testing.assert_allclose(v @ np.diag(w) @ v.T, a, atol=1e-12)

    def test_matches_trig_eigenvalues(self):
        # 2x2 with known spectrum {3, 1}
        a = rotation2(0.4) @ np.diag([3.0, 1.0]) @ rotation2(0.4).T
        w, _ = jacobi_eigh(a)
        np.testing.assert_allclose(sorted(w), [1.0, 3.0], atol=1e-13)


def spectrum_matrix(rng, eigenvalues):
    """q @ diag(eigenvalues) @ q.T with q a seeded random orthogonal matrix."""
    q, _ = np.linalg.qr(rng.standard_normal((len(eigenvalues),) * 2))
    a = q @ np.diag(eigenvalues) @ q.T
    return 0.5 * (a + a.T)


class TestJacobiContract:
    def test_diagonal_input_is_returned_bit_for_bit(self):
        for values in ([3.0], [2.0, -0.0], [1.0, 1.0, -5e-324, 7.5], [0.5, 1e300, -2.0, 0.5, 3.0]):
            w, v = jacobi_eigh(np.diag(values))
            np.testing.assert_array_equal(w.view(np.int64), np.array(values).view(np.int64))
            np.testing.assert_array_equal(v.view(np.int64), np.eye(len(values)).view(np.int64))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_repeated_and_clustered_eigenvalues(self, n):
        rng = np.random.default_rng(100 + n)
        spectra = [
            np.full(n, 0.7),                                          # one repeated value
            np.repeat([-1.0, 2.0], [n // 2, n - n // 2]),            # two repeated values
            1.0 + 1e-9 * np.arange(n),                                # one tight cluster
            np.concatenate([[-3.0], 0.25 + 1e-12 * np.arange(n - 1)]),  # a cluster and one apart
        ]
        for eigenvalues in spectra:
            a = spectrum_matrix(rng, eigenvalues)
            w, v = jacobi_eigh(a)
            assert np.max(np.abs(v @ np.diag(w) @ v.T - a)) <= 1e-12
            assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-13
            np.testing.assert_allclose(np.sort(w), np.sort(eigenvalues), rtol=0, atol=1e-12)

    def test_sweep_limit_raises_no_convergence(self, monkeypatch):
        a = spectrum_matrix(np.random.default_rng(8), np.arange(1.0, 6.0))
        jacobi_eigh(a)  # converges within the default limit
        monkeypatch.setattr(numkernel, "JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(NoConvergence, match="^Jacobi sweeps did not reach tolerance$"):
            jacobi_eigh(a)

    def test_nan_entry_gives_all_nan_without_raising(self):
        # every sweep rotates by NaN, and a NaN largest off-diagonal entry
        # neither ends the sweeps nor raises: w and V come back all NaN
        for n, index in ((2, (0, 1)), (3, (1, 1)), (4, (2, 3))):
            a = spectrum_matrix(np.random.default_rng(n), np.arange(float(n)))
            a[index] = a[index[::-1]] = math.nan
            w, v = jacobi_eigh(a)
            assert w.shape == (n,) and v.shape == (n, n)
            assert np.all(np.isnan(w)) and np.all(np.isnan(v))


# OPENBLAS_CORETYPE values: rotations as BLAS 2 x 2 products gave other bits under
# Sandybridge than under the other two
OPENBLAS_KERNELS = ["Haswell", "SkylakeX", "Sandybridge"]
JACOBI_SHA256 = "8de72408abb3422e4c33e0d289d02d76e0f93c6871225e8a6f883ccf75809892"


def jacobi_digest() -> str:
    """The sha256 of jacobi_eigh's (w, V) bytes on five seeded symmetric
    matrices at each n of 2, 3, 4, 5, 6 and 8."""
    rng = np.random.default_rng(32)
    digest = hashlib.sha256()
    for n in (2, 3, 4, 5, 6, 8):
        for _ in range(5):
            a = rng.standard_normal((n, n))
            w, v = jacobi_eigh(0.5 * (a + a.T))
            digest.update(w.tobytes())
            digest.update(v.tobytes())
    return digest.hexdigest()


def jacobi_digest_in_subprocess(**env) -> str:
    src = os.path.dirname(os.path.dirname(os.path.abspath(lagweb.__file__)))
    code = "from test_numkernel import jacobi_digest; print(jacobi_digest())"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]), **env)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


class TestJacobiBits:
    """The rotations run on Python floats: (w, V) has the same bytes under
    every BLAS kernel and with or without numpy's AVX-512 loops."""

    def test_golden_digest(self):
        assert jacobi_digest() == JACOBI_SHA256

    @pytest.mark.parametrize("kernel", OPENBLAS_KERNELS)
    def test_golden_digest_under_openblas_kernel(self, kernel):
        assert jacobi_digest_in_subprocess(OPENBLAS_CORETYPE=kernel) == JACOBI_SHA256

    def test_golden_digest_without_avx512_loops(self):
        features = np._core._multiarray_umath.__cpu_features__
        if not features.get("X86_V4"):
            pytest.skip("no AVX-512 loops to turn off on this host")
        off = "X86_V4 AVX512_ICL AVX512_SPR"
        assert jacobi_digest_in_subprocess(NPY_DISABLE_CPU_FEATURES=off) == JACOBI_SHA256


class TestJointDiagonalization:
    def test_identity(self):
        o, args, blocks = joint_diagonalize_symmetric_unitary(np.eye(2))
        np.testing.assert_allclose(np.abs(o), np.eye(2), atol=1e-12)
        np.testing.assert_allclose(args, [0.0, 0.0], atol=1e-12)
        assert sorted(len(b) for b in blocks) == [2]

    def test_already_diagonal(self):
        s = np.diag(np.exp(1j * np.array([np.pi / 3, np.pi / 2])))
        o, args, blocks = joint_diagonalize_symmetric_unitary(s)
        np.testing.assert_allclose(sorted(args), [np.pi / 3, np.pi / 2], atol=1e-12)
        np.testing.assert_allclose(np.abs(o), np.eye(2), atol=1e-12)
        assert [len(b) for b in blocks] == [1, 1]

    def test_construct_then_recover(self):
        r = rotation2(0.7)
        s = r.T @ np.diag(np.exp(1j * np.array([np.pi / 3, np.pi / 2]))) @ r
        o, args, blocks = joint_diagonalize_symmetric_unitary(s)
        np.testing.assert_allclose(sorted(args), [np.pi / 3, np.pi / 2], atol=1e-10)
        # columns of o recover r's rows (= r.T columns) up to sign/permutation
        overlap = np.abs(o.T @ r.T)
        np.testing.assert_allclose(np.sort(overlap.ravel()), [0, 0, 1, 1], atol=1e-9)

    def test_diagonalization_quality_random(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4, 6):
            for _ in range(20):
                q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                args_true = rng.uniform(0.0, 2.0 * np.pi, size=n)
                s = q @ np.diag(np.exp(1j * args_true)) @ q.T
                o, args, _ = joint_diagonalize_symmetric_unitary(s)
                assert np.max(np.abs(o.T @ o - np.eye(n))) < 1e-12
                d = o.T @ s @ o
                off = d - np.diag(d.diagonal())
                assert np.max(np.abs(off)) < 1e-9
                np.testing.assert_allclose(np.sort(args), np.sort(args_true), atol=1e-9)

    def test_wraparound_cluster(self):
        # eigenvalues exp(+-i*eps) straddle arg 0; they must land in one block
        eps = 1e-10
        r = rotation2(0.3)
        s = r.T @ np.diag(np.exp(1j * np.array([eps, -eps]))) @ r
        _, _, blocks = joint_diagonalize_symmetric_unitary(s)
        assert sorted(len(b) for b in blocks) == [2]

    def test_rejects_non_symmetric(self):
        s = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)  # unitary, skew
        with pytest.raises(ValueError, match="symmetry defect"):
            joint_diagonalize_symmetric_unitary(s)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitarity defect"):
            joint_diagonalize_symmetric_unitary(np.diag([2.0, 1.0]).astype(complex))


class TestRK4:
    def test_constant_field(self):
        ts, ys = integrate_rk4(lambda t, y: 0.0 * y, np.array([3.0]), 0.0, 1.0, IntegratorConfig(100))
        assert ts.shape == (101,) and ys.shape == (101, 1)
        np.testing.assert_array_equal(ys, 3.0 * np.ones((101, 1)))

    def test_exponential(self):
        _, ys = integrate_rk4(lambda t, y: y, np.array([1.0]), 0.0, 1.0, IntegratorConfig(1000))
        assert abs(ys[-1, 0] - math.e) < 1e-11

    def test_cosine_antiderivative(self):
        _, ys = integrate_rk4(
            lambda t, y: np.array([math.cos(t)]), np.array([0.0]), 0.0, 1.0, IntegratorConfig(1000)
        )
        assert abs(ys[-1, 0] - math.sin(1.0)) < 1e-12

    def test_fourth_order_on_exponential(self):
        errs = []
        for m in (100, 200):
            _, ys = integrate_rk4(lambda t, y: y, np.array([1.0]), 0.0, 1.0, IntegratorConfig(m))
            errs.append(abs(ys[-1, 0] - math.e))
        ratio = errs[0] / errs[1]
        assert 14.0 < ratio < 18.0

    def test_non_finite_detection(self):
        # y' = y**2, y0 = 2 blows up at t = 0.5
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(LagwebError, match="state became non-finite at t = 0.5"):
                integrate_rk4(lambda t, y: y * y, np.array([2.0]), 0.0, 1.0, IntegratorConfig(100))

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_rk4(lambda t, y: y, np.array([1.0]), 1.0, 0.0, IntegratorConfig(10))
