"""Positive Lagrangian planes in flat C^n.

Conventions (fixed once, used by every module):
    Hermitian product   <u, v> = sum conj(u_j) v_j
    symplectic form     omega(u, v) = Im <u, v>
    complex structure   J = multiplication by 1j
    holomorphic volume  Omega(v_1, ..., v_n) = det [v_1 ... v_n]
    induced real metric Re <u, v>,  density rho == 1

A frame is a complex n x n matrix whose columns form a real-orthonormal
basis of a Lagrangian plane; such a matrix is unitary, and the plane's
phase is arg det of the frame.  Positivity pins the phase to (-pi/2, pi/2).

Tolerance table:
    CONSTRUCTION_TOL = 1e-10   frame validation (unitarity, axis distance)
    IDENTITY_TOL     = 1e-8    derived identities (Lagrangian input check,
                               pair membership, transversality margin)
    INTEGER_TOL      = 1e-6    Maslov integrality hard failure
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .numkernel import ARC_CLUSTER_TOL, TWO_PI, joint_diagonalize_symmetric_unitary

CONSTRUCTION_TOL = 1e-10
IDENTITY_TOL = 1e-8
INTEGER_TOL = 1e-6
# random_maslov_zero_pair: smallest angle and largest target phase
SAMPLE_MIN_ANGLE = 0.02
SAMPLE_MAX_PHASE = 1.40


@dataclass(frozen=True)
class FlatCalabiYau:
    """Flat C^n with the standard structures; only the dimension varies."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("complex dimension must be >= 1")


@dataclass(frozen=True, eq=False)
class LagrangianFrame:
    """Unitary frame of a positive Lagrangian plane with cached phase."""

    ambient: FlatCalabiYau
    columns: np.ndarray  # (n, n) complex, unitary, Re det > 0
    phase: float

    @property
    def n(self) -> int:
        return self.ambient.n


@dataclass(frozen=True, eq=False)
class PairSpectrum:
    """Canonical angles and adapted basis of a pair of Lagrangian planes.

    ``beta`` holds the angle of each adapted direction in [0, pi), sorted
    ascending and constant inside each degeneracy block; ``adapted_basis``
    is real orthogonal with det +1, its j-th column u_j satisfying
    exp(1j*beta[j]) * F0 @ u_j in Lambda_1.
    """

    beta: np.ndarray           # (n,) floats in [0, pi)
    adapted_basis: np.ndarray  # (n, n) real orthogonal, det +1
    blocks: tuple              # tuple of index tuples partitioning range(n)
    phase0: float
    phase1: float
    transverse: bool
    membership_defect: float   # sup |Im(F1^H exp(i beta) F0 u)| over columns

    @property
    def n(self) -> int:
        return len(self.beta)

    def maslov_index(self):
        """(m, defect): the integer m nearest (sum beta + phase0 - phase1) / pi
        and the quotient's distance from it.  Raises ValueError when that is
        INTEGER_TOL or more, which signals inconsistent input frames."""
        raw = (float(self.beta.sum()) + self.phase0 - self.phase1) / math.pi
        m = int(round(raw))
        defect = abs(raw - m)
        if defect >= INTEGER_TOL:
            raise ValueError(f"Maslov quotient {raw:.9f} is {defect:.3e} from an integer")
        return m, defect


def real_gram_schmidt(columns: np.ndarray) -> np.ndarray:
    """Orthonormalize complex columns with respect to Re<u, v>.

    Two projection passes keep orthogonality near machine precision.
    """
    a = np.array(columns, dtype=complex)
    n_rows, n_cols = a.shape
    q = np.empty_like(a)
    for j in range(n_cols):
        v = a[:, j]
        for _ in range(2):
            for i in range(j):
                v = v - np.vdot(q[:, i], v).real * q[:, i]
        norm = math.sqrt(np.vdot(v, v).real)
        if norm < 1e-12:
            raise ValueError("columns are real-linearly dependent")
        q[:, j] = v / norm
    return q


def make_frame(ambient: FlatCalabiYau, raw) -> LagrangianFrame:
    """Validate and normalize a raw frame into a positive Lagrangian one.

    The Lagrangian condition is checked on the (column-normalized) input
    before any mixing; orthonormalization happens over the reals, and the
    first column is negated if needed so that Re det > 0.
    """
    raw = np.asarray(raw, dtype=complex)
    n = ambient.n
    if raw.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} frame, got {raw.shape}")
    if not np.all(np.isfinite(raw)):
        raise ValueError("frame has a non-finite entry")
    norms = np.sqrt(np.einsum("ij,ij->j", raw.conj(), raw).real)
    if not np.all(np.isfinite(norms)):
        j = int(np.argmin(np.isfinite(norms)))
        raise ValueError(f"frame column {j + 1} has a norm too large for a float")
    if np.any(norms < 1e-12):
        raise ValueError("columns are real-linearly dependent")
    unit = raw / norms
    pairings = np.abs((unit.conj().T @ unit).imag)
    worst = float(pairings.max())
    if worst > IDENTITY_TOL:
        raise ValueError(f"omega pairing of input columns reaches {worst:.3e} > {IDENTITY_TOL:.0e}")
    f = real_gram_schmidt(raw)
    unitary_defect = float(np.max(np.abs(f.conj().T @ f - np.eye(n))))
    if unitary_defect > CONSTRUCTION_TOL:
        raise ValueError(f"orthonormalized frame is not unitary (defect {unitary_defect:.3e})")
    det = complex(np.linalg.det(f))
    if abs(det.real) < CONSTRUCTION_TOL:
        raise ValueError(
            f"frame determinant {det:.6e} lies on the imaginary axis within {CONSTRUCTION_TOL:.0e}"
        )
    if det.real < 0.0:
        f = f.copy()
        f[:, 0] = -f[:, 0]
        det = -det
    f.setflags(write=False)
    return LagrangianFrame(ambient=ambient, columns=f, phase=float(np.angle(det)))


def _circular_mean(angles: np.ndarray) -> float:
    z = np.exp(1j * angles).sum()
    return float(np.mod(np.angle(z), TWO_PI))


def pair_decomposition(l0: LagrangianFrame, l1: LagrangianFrame) -> PairSpectrum:
    """Split a pair of planes into jointly rotated orthogonal directions.

    Works on S = U U^T with U = F0^H F1: S is symmetric unitary and does not
    change when either frame is re-chosen inside its plane.  Halving the
    eigenvalue arguments (taken in [0, 2*pi)) yields the canonical angles
    beta in [0, pi).
    """
    if l0.ambient.n != l1.ambient.n:
        raise ValueError("frames live in different ambient dimensions")
    n = l0.ambient.n
    u = l0.columns.conj().T @ l1.columns
    s = u @ u.T
    o, args, blocks = joint_diagonalize_symmetric_unitary(s)

    # non-transverse <=> some eigenvalue sits on 1 (arc distance through 0)
    axis_distance = np.minimum(args, TWO_PI - args)
    transverse = bool(axis_distance.min() > IDENTITY_TOL)

    beta = np.empty(n)
    for block in blocks:
        block_arg = _circular_mean(args[list(block)])
        if min(block_arg, TWO_PI - block_arg) <= ARC_CLUSTER_TOL:
            block_arg = 0.0
        beta[list(block)] = 0.5 * block_arg

    order = np.argsort(beta, kind="stable")
    beta = beta[order]
    o = o[:, order]
    if np.linalg.det(o) < 0.0:
        o[:, -1] = -o[:, -1]

    # beta is sorted and constant inside a block: blocks end where it steps
    ends = [0, *(np.flatnonzero(np.diff(beta)) + 1).tolist(), n]
    sorted_blocks = [tuple(range(start, end)) for start, end in zip(ends, ends[1:])]

    rotated = l0.columns @ o * np.exp(1j * beta)[np.newaxis, :]
    defect = float(np.max(np.abs((l1.columns.conj().T @ rotated).imag)))

    o.setflags(write=False)
    beta.setflags(write=False)
    return PairSpectrum(
        beta=beta,
        adapted_basis=o,
        blocks=tuple(sorted_blocks),
        phase0=l0.phase,
        phase1=l1.phase,
        transverse=transverse,
        membership_defect=defect,
    )


def maslov_index(l0: LagrangianFrame, l1: LagrangianFrame):
    """(m, defect) of the pair: see PairSpectrum.maslov_index."""
    return pair_decomposition(l0, l1).maslov_index()


def principal_angle_distance(a: LagrangianFrame, b: LagrangianFrame) -> float:
    """Largest principal angle between the two real n-planes."""
    return span_angle(a.columns, b.columns)


def span_angle(fa: np.ndarray, fb: np.ndarray) -> float:
    """Largest principal angle between the real spans of two complex column sets.

    Computed from the projection residual, which stays accurate for tiny
    angles where arccos of a cross-Gram singular value loses digits.
    """
    qa, _ = np.linalg.qr(np.vstack([fa.real, fa.imag]))
    qb, _ = np.linalg.qr(np.vstack([fb.real, fb.imag]))
    resid = qb - qa @ (qa.T @ qb)
    s = np.linalg.svd(resid, compute_uv=False)
    return float(np.arcsin(min(1.0, float(s.max()))))


# --- JSON frame format (consumed by the CLI) ---

def frame_to_json_dict(frame: LagrangianFrame) -> dict:
    cols = []
    for j in range(frame.n):
        cols.append([{"re": float(z.real), "im": float(z.imag)} for z in frame.columns[:, j]])
    return {"n": frame.n, "columns": cols}


def frame_from_json_dict(data: dict) -> LagrangianFrame:
    """Frame from ``{"n": n, "columns": [[{"re": .., "im": ..}, ..], ..]}``.

    Raises ValueError on any other shape or JSON type, missing keys, scalar
    entries and numbers too large for a float included.
    """
    try:
        n, cols = data["n"], data["columns"]
        if type(n) is not int:  # exact JSON types: int() would take 1.9, "1" and true
            raise ValueError("malformed frame JSON: n must be an integer")
        if len(cols) != n or any(len(c) != n for c in cols):
            raise ValueError("frame JSON must hold n columns of n entries")
        parts = [[(e["re"], e["im"]) for e in col] for col in cols]
        if any(type(x) not in (int, float) for col in parts for part in col for x in part):
            raise ValueError("malformed frame JSON: re and im must be numbers")  # a bool is an int
        raw = np.array([[complex(*col[i]) for col in parts] for i in range(n)], complex).reshape(n, n)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed frame JSON: {type(exc).__name__} {exc}") from exc
    return make_frame(FlatCalabiYau(n), raw)


def load_frame(path):
    """(frame, data): the frame that the JSON file at path gives, and the
    JSON object it was made from, kept to n and each entry's re and im, so
    that frame_from_json_dict(data) makes the same frame again."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    frame = frame_from_json_dict(data)
    columns = [[{"re": e["re"], "im": e["im"]} for e in col] for col in data["columns"]]
    return frame, {"n": frame.n, "columns": columns}


# --- randomized samplers (test corpus + experiments) ---

def random_positive_frame(rng: np.random.Generator, n: int,
                          phase_range=(-1.35, 1.35)) -> LagrangianFrame:
    """Haar-ish positive frame: complex Gaussian, unitarized, phase re-aimed.

    The determinant argument is redrawn uniformly in ``phase_range`` and the
    sample is rejected while it sits within 1e-3 of the imaginary axis.
    """
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = np.empty_like(z)
    for j in range(n):
        v = z[:, j]
        for i in range(j):
            v = v - np.vdot(q[:, i], v) * q[:, i]
        q[:, j] = v / math.sqrt(np.vdot(v, v).real)
    while True:
        target = rng.uniform(*phase_range)
        if 0.5 * math.pi - abs(target) > 1e-3:
            break
    g = q * np.exp(1j * (target - np.angle(np.linalg.det(q))) / n)
    return make_frame(FlatCalabiYau(n), g)


def random_maslov_zero_pair(rng: np.random.Generator, n: int):
    """Transverse Maslov-zero pair with known ground-truth spectrum.

    Returns (l0, l1, beta_true, basis_true): l1 is built by rotating an
    orthogonal splitting of l0 by angles beta_true (componentwise), so the
    pair's spectrum is known exactly for oracle comparisons.
    """
    l0 = random_positive_frame(rng, n, phase_range=(-1.2, 0.9))
    lo = l0.phase + max(n * 2.5 * SAMPLE_MIN_ANGLE, 0.08)
    gap = rng.uniform(lo, SAMPLE_MAX_PHASE) - l0.phase
    w = rng.uniform(0.3, 1.0, size=n)
    beta = gap * w / w.sum()
    if beta.min() < SAMPLE_MIN_ANGLE:  # rare with these weights; rescale the runt
        beta = beta + (SAMPLE_MIN_ANGLE - beta.min())
        beta *= gap / beta.sum()
    r, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if np.linalg.det(r) < 0.0:
        r[:, -1] = -r[:, -1]
    raw1 = ((l0.columns @ r) * np.exp(1j * beta)[np.newaxis, :]) @ r.T
    l1 = make_frame(l0.ambient, raw1)
    order = np.argsort(beta)
    basis = r[:, order]
    if np.linalg.det(basis) < 0.0:  # column permutation may have flipped it
        basis = basis.copy()
        basis[:, -1] = -basis[:, -1]
    return l0, l1, beta[order], basis
