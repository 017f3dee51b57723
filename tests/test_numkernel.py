import math

import numpy as np
import pytest

from lagweb.errors import LagwebError
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
