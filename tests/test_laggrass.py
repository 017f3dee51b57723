import itertools
import math

import numpy as np
import pytest

from lagweb.laggrass import (
    FlatCalabiYau,
    frame_from_json_dict,
    frame_to_json_dict,
    make_frame,
    maslov_index,
    pair_decomposition,
    principal_angle_distance,
    random_maslov_zero_pair,
    random_positive_frame,
)

C2 = FlatCalabiYau(2)


def diag_frame(*angles):
    n = len(angles)
    return make_frame(FlatCalabiYau(n), np.diag(np.exp(1j * np.array(angles))))


def intersection_is_trivial(a, b):
    """Rank test for Lambda_a cap Lambda_b = 0 over the reals: the smallest
    singular value of the stacked real bases, against 1e-8."""
    qa = np.vstack([a.columns.real, a.columns.imag])
    qb = np.vstack([b.columns.real, b.columns.imag])
    return bool(np.linalg.svd(np.hstack([qa, -qb]), compute_uv=False).min() > 1e-8)


def random_rotation(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


# --- independent oracles for the convention stack ---

def wedge_nn(alpha, beta_form, vectors):
    """(alpha ^ beta)(v_1..v_2n) for two n-forms, by shuffle expansion."""
    m = len(vectors)
    n = m // 2
    total = 0.0 + 0.0j
    for subset in itertools.combinations(range(m), n):
        rest = tuple(i for i in range(m) if i not in subset)
        perm = subset + rest
        sign = 1
        for i in range(m):
            for j in range(i + 1, m):
                if perm[i] > perm[j]:
                    sign = -sign
        total += sign * alpha([vectors[i] for i in subset]) * beta_form(
            [vectors[i] for i in rest]
        )
    return total


def pfaffian(a):
    """Recursive Pfaffian of a (2k x 2k) skew matrix; fine for k <= 3."""
    m = a.shape[0]
    if m == 0:
        return 1.0
    total = 0.0
    for j in range(1, m):
        keep = [i for i in range(m) if i not in (0, j)]
        minor = a[np.ix_(keep, keep)]
        total += (-1.0) ** (j + 1) * a[0, j] * pfaffian(minor)
    return total


class TestConventions:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_density_is_one(self, n):
        # rho^2 * omega^n / n! == (-1)^{n(n-1)/2} (i/2)^n Omega ^ conj(Omega)
        # evaluated on a random real basis; equality with rho == 1.
        rng = np.random.default_rng(5 + n)
        vectors = [
            rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2 * n)
        ]
        grammian = np.array(
            [[np.vdot(u, v).imag for v in vectors] for u in vectors]
        )
        lhs = pfaffian(grammian)  # omega^n / n! on the tuple, rho == 1

        def omega_form(vs):
            return np.linalg.det(np.column_stack(vs))

        def omega_bar(vs):
            return np.conj(omega_form(vs))

        rhs = (
            (-1.0) ** (n * (n - 1) // 2)
            * (0.5j) ** n
            * wedge_nn(omega_form, omega_bar, vectors)
        )
        assert abs(rhs.imag) < 1e-10 * max(1.0, abs(rhs))
        assert abs(lhs - rhs.real) < 1e-10 * max(1.0, abs(lhs))


class TestMakeFrame:
    def test_identity(self):
        f = make_frame(C2, np.eye(2))
        np.testing.assert_allclose(f.columns, np.eye(2))
        assert f.phase == 0.0

    def test_diagonal_phases_add(self):
        f = diag_frame(math.pi / 6, math.pi / 4)
        assert abs(f.phase - 5 * math.pi / 12) < 1e-14

    def test_rejects_phase_on_axis(self):
        with pytest.raises(ValueError, match="lies on the imaginary axis"):
            make_frame(C2, np.diag([1j, 1.0]))

    def test_rejects_non_lagrangian(self):
        raw = np.array([[1.0, 1j], [0.0, 1.0]])
        with pytest.raises(ValueError, match="omega pairing of input columns reaches 7.071e-01"):
            make_frame(C2, raw)

    def test_orthonormalizes_real_input(self):
        f = make_frame(C2, np.array([[2.0, 1.0], [0.0, 3.0]]))
        np.testing.assert_allclose(f.columns, np.eye(2), atol=1e-14)

    def test_orientation_flip(self):
        # negative real determinant gets flipped into the right half plane
        f = make_frame(C2, np.diag([-1.0, 1.0]))
        det = np.linalg.det(f.columns)
        assert det.real > 0

    def test_rejects_dependent_columns(self):
        with pytest.raises(ValueError):
            make_frame(C2, np.array([[1.0, 2.0], [1.0, 2.0]]))


class TestPhase:
    def test_diagonal_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            angles = rng.uniform(-0.4, 0.4, size=3)
            f = diag_frame(*angles)
            assert abs(f.phase - angles.sum()) < 1e-12

    def test_rotation_invariance(self):
        rng = np.random.default_rng(1)
        base = random_positive_frame(rng, 3)
        for _ in range(10):
            r = random_rotation(rng, 3)
            g = make_frame(base.ambient, base.columns @ r)
            assert abs(g.phase - base.phase) < 1e-12


class TestPairDecomposition:
    def test_coincident(self):
        f = diag_frame(0.3, -0.1)
        spec = pair_decomposition(f, f)
        np.testing.assert_allclose(spec.beta, [0.0, 0.0], atol=1e-12)
        assert not spec.transverse
        assert spec.blocks == ((0, 1),)

    def test_diagonal_pair(self):
        l0 = make_frame(C2, np.eye(2))
        l1 = diag_frame(math.pi / 6, math.pi / 4)
        spec = pair_decomposition(l0, l1)
        np.testing.assert_allclose(spec.beta, [math.pi / 6, math.pi / 4], atol=1e-12)
        np.testing.assert_allclose(np.abs(spec.adapted_basis), np.eye(2), atol=1e-10)
        assert spec.transverse
        assert spec.membership_defect < 1e-10

    def test_conjugated_pair_recovers_rotation(self):
        r = np.array(
            [[math.cos(0.9), -math.sin(0.9)], [math.sin(0.9), math.cos(0.9)]]
        )
        raw1 = (r @ np.diag(np.exp(1j * np.array([math.pi / 6, math.pi / 4])))) @ r.T
        # same plane written with mixed columns
        l0 = make_frame(C2, np.eye(2))
        l1 = make_frame(C2, raw1)
        spec = pair_decomposition(l0, l1)
        np.testing.assert_allclose(spec.beta, [math.pi / 6, math.pi / 4], atol=1e-10)
        overlap = np.abs(spec.adapted_basis.T @ r)
        np.testing.assert_allclose(np.sort(overlap.ravel()), [0, 0, 1, 1], atol=1e-9)

    def test_frame_choice_independence(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 5):
            for _ in range(20):
                l0, l1, _, _ = random_maslov_zero_pair(rng, n)
                ra, rb = random_rotation(rng, n), random_rotation(rng, n)
                g0 = make_frame(l0.ambient, l0.columns @ ra)
                g1 = make_frame(l1.ambient, l1.columns @ rb)
                sa = pair_decomposition(l0, l1)
                sb = pair_decomposition(g0, g1)
                np.testing.assert_allclose(sa.beta, sb.beta, atol=1e-10)

    def test_ground_truth_spectrum(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 6):
            for _ in range(10):
                l0, l1, beta_true, basis_true = random_maslov_zero_pair(rng, n)
                spec = pair_decomposition(l0, l1)
                np.testing.assert_allclose(spec.beta, beta_true, atol=1e-9)
                assert spec.membership_defect < 1e-8
                overlap = np.abs(spec.adapted_basis.T @ basis_true)
                np.testing.assert_allclose(
                    np.sort(overlap.ravel())[-n:], np.ones(n), atol=1e-7
                )


class TestMaslov:
    def test_diagonal_pair_is_zero(self):
        l0 = make_frame(C2, np.eye(2))
        l1 = diag_frame(math.pi / 6, math.pi / 4)
        m, defect = maslov_index(l0, l1)
        assert m == 0
        assert defect < 1e-12

    def test_swapped_pair_is_n(self):
        l0 = make_frame(C2, np.eye(2))
        l1 = diag_frame(math.pi / 6, math.pi / 4)
        m, defect = maslov_index(l1, l0)
        assert m == 2
        assert defect < 1e-12

    def test_coincident_is_zero(self):
        f = diag_frame(0.2, 0.1)
        m, _ = maslov_index(f, f)
        assert m == 0

    def test_branch_near_half_turn(self):
        # one angle close to pi: the half-open representative keeps the index
        # integral and the complement identity intact
        rng = np.random.default_rng(17)
        r = random_rotation(rng, 2)
        beta = np.array([math.pi - 0.01, 0.3])
        raw1 = ((np.eye(2) @ r) * np.exp(1j * beta)) @ r.T
        l0 = make_frame(C2, np.eye(2))
        l1 = make_frame(C2, raw1)
        spec = pair_decomposition(l0, l1)
        np.testing.assert_allclose(np.sort(spec.beta), np.sort(beta), atol=1e-9)
        m, defect = maslov_index(l0, l1)
        assert m == 1
        assert defect < 1e-10
        m_back, _ = maslov_index(l1, l0)
        assert m + m_back == 2

    def test_complement_identity_bulk(self):
        # m(a, b) + m(b, a) == n exactly on 1000 random transverse pairs:
        # independent frames land at arbitrary indices, mixed with known
        # index-zero constructions
        rng = np.random.default_rng(4)
        count = 0
        seen_indices = set()
        for n in (2, 3, 4, 5, 6):
            for i in range(200):
                if i % 2 == 0:
                    l0 = random_positive_frame(rng, n)
                    l1 = random_positive_frame(rng, n)
                    if not intersection_is_trivial(l0, l1):
                        l1 = random_positive_frame(rng, n)
                else:
                    l0, l1, _, _ = random_maslov_zero_pair(rng, n)
                m01, d01 = maslov_index(l0, l1)
                m10, d10 = maslov_index(l1, l0)
                assert m01 + m10 == n
                assert d01 < 1e-8 and d10 < 1e-8
                seen_indices.add(m01)
                count += 1
        assert count == 1000
        assert len(seen_indices) > 2  # generic sampling reaches several indices


class TestTransversality:
    def test_rank_cross_check_bulk(self):
        # spectrum's flag agrees with a real-linear rank test on 1000 pairs,
        # a third of them built with a forced shared direction
        rng = np.random.default_rng(6)
        checked = 0
        for i in range(1000):
            n = int(rng.integers(2, 6))
            l0, l1, _, _ = random_maslov_zero_pair(rng, n)
            if i % 3 == 0:
                # rebuild l1 with one rotation angle zeroed: shared direction
                r = random_rotation(rng, n)
                beta = rng.uniform(0.2, 1.0, size=n)
                beta[0] = 0.0
                raw1 = ((l0.columns @ r) * np.exp(1j * beta)) @ r.T
                l1 = make_frame(l0.ambient, raw1)
            spec = pair_decomposition(l0, l1)
            assert spec.transverse == intersection_is_trivial(l0, l1)
            assert spec.membership_defect < 1e-8
            checked += 1
        assert checked == 1000


class TestDistance:
    def test_zero_for_same_plane(self):
        rng = np.random.default_rng(8)
        f = random_positive_frame(rng, 3)
        g = make_frame(f.ambient, f.columns @ random_rotation(rng, 3))
        assert principal_angle_distance(f, g) < 1e-12

    def test_single_direction_rotation(self):
        l0 = make_frame(C2, np.eye(2))
        l1 = diag_frame(0.3, 0.0)
        assert abs(principal_angle_distance(l0, l1) - 0.3) < 1e-12


class TestJsonFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        f = random_positive_frame(rng, 3)
        g = frame_from_json_dict(frame_to_json_dict(f))
        assert principal_angle_distance(f, g) < 1e-12
        assert abs(f.phase - g.phase) < 1e-12
