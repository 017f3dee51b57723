"""Dense kernel: structured eigendecomposition, and the fixed-step RK4 that
integrates the full-frame oracle (``geoflow.frame_ode_oracle``).

Everything here is pure-function over small dense arrays.  The only
nontrivial algorithm is the two-stage Jacobi scheme for symmetric unitary
matrices: the real and imaginary parts of such a matrix are commuting real
symmetric matrices, so a joint orthogonal eigenbasis exists and can be found
by diagonalizing Re(S) first and then Im(S) restricted to each Re-eigenspace.
Each Jacobi rotation runs on Python floats with no BLAS call, so its bits do
not depend on the host's BLAS kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LagwebError, NoConvergence

TWO_PI = 2.0 * np.pi

# Precision ladder used throughout the package: construction-time checks at
# 1e-10, derived identities at 1e-8 (see laggrass), Jacobi sweep target 1e-13.
JACOBI_TOL = 1e-13
JACOBI_MAX_SWEEPS = 60
SYM_UNITARY_TOL = 1e-10
# Re-eigenvalue gaps below this are merged before the Im stage; eigenvectors
# across smaller gaps are not trustworthy individually, and the Im stage (or
# the final arc-distance blocking) separates whatever is genuinely distinct.
RE_CLUSTER_TOL = 1e-8
# eigenvalues of S closer than this in arc distance on the unit circle form
# one block, and a block this close to 1 is read as angle 0 (see laggrass)
ARC_CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step classical RK4 configuration."""

    step_count: int = 2000

    def __post_init__(self):
        if self.step_count < 1:
            raise ValueError("step_count must be >= 1")


def _largest_off_diagonal(rows) -> float:
    """np.max(np.abs(a - np.diag(a.diagonal()))) of a list of rows: NaN if
    any term is NaN, as numpy's maximum gives."""
    terms = [abs(x - x) if i == j else abs(x)
             for i, row in enumerate(rows) for j, x in enumerate(row)]
    return math.nan if any(x != x for x in terms) else max(terms)


def jacobi_eigh(a: np.ndarray):
    """Cyclic Jacobi diagonalization of a real symmetric matrix.

    Returns (eigenvalues, V) with a = V @ diag(w) @ V.T; sweeps stop once the
    largest off-diagonal entry drops below JACOBI_TOL.  The rotations run on
    Python floats with no BLAS call, so (w, V) has the same bits on every
    host; a diagonal input returns its diagonal and V = I.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a.diagonal().copy(), np.eye(1)
    rows = a.tolist()
    vt = np.eye(n).tolist()  # rows of V.T: a rotation of V's columns is one of vt's rows
    for _ in range(JACOBI_MAX_SWEEPS):
        if _largest_off_diagonal(rows) < JACOBI_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = rows[p][q]
                if abs(apq) < 0.1 * JACOBI_TOL:
                    continue
                # Givens angle zeroing a[p, q]; smaller-|t| root keeps |angle| <= pi/4
                tau = (rows[q][q] - rows[p][p]) / (2.0 * apq)
                t = (math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
                     if tau != 0.0 else 1.0)
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                # a <- J.T a J and V <- V J, J = [[c, s], [-s, c]] in rows and
                # columns p, q: the rows of a and of V.T first, then a's columns
                ap, aq, vp, vq = rows[p], rows[q], vt[p], vt[q]
                for j in range(n):
                    x, y = ap[j], aq[j]
                    ap[j] = c * x - s * y
                    aq[j] = s * x + c * y
                    x, y = vp[j], vq[j]
                    vp[j] = c * x - s * y
                    vq[j] = s * x + c * y
                for row in rows:
                    x, y = row[p], row[q]
                    row[p] = c * x - s * y
                    row[q] = s * x + c * y
    if _largest_off_diagonal(rows) >= JACOBI_TOL:
        raise NoConvergence("Jacobi sweeps did not reach tolerance")
    # the diagonal of 0.5 * (a + a.T): each entry itself, or inf where x + x
    # overflows
    w = [0.5 * (row[i] + row[i]) for i, row in enumerate(rows)]
    return np.array(w), np.array(vt).T.copy()


def _cluster_sorted(values: np.ndarray, gap: float):
    """Split the indices of an ascending 1-d array wherever the gap exceeds ``gap``."""
    groups = [[0]]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] < gap:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def joint_diagonalize_symmetric_unitary(s):
    """Orthogonally diagonalize a symmetric unitary matrix.

    Parameters
    ----------
    s : (n, n) complex array with s.T == s and s*s = I
        within 1e-10.

    Returns
    -------
    o : (n, n) real orthogonal matrix with o.T @ s @ o diagonal.
    args : (n,) arguments of the diagonal entries, taken in [0, 2*pi).
    blocks : list of index lists partitioning range(n), grouped by arc
        distance (ARC_CLUSTER_TOL); a group may wrap around 0 ~ 2*pi.
    """
    s = np.asarray(s, dtype=complex)
    n = s.shape[0]
    if s.shape != (n, n):
        raise ValueError("matrix is not square")
    sym_defect = float(np.max(np.abs(s - s.T)))
    if sym_defect > SYM_UNITARY_TOL:
        raise ValueError(f"symmetry defect {sym_defect:.3e} exceeds {SYM_UNITARY_TOL:.0e}")
    unit_defect = float(np.max(np.abs(s.conj().T @ s - np.eye(n))))
    if unit_defect > SYM_UNITARY_TOL:
        raise ValueError(f"unitarity defect {unit_defect:.3e} exceeds {SYM_UNITARY_TOL:.0e}")
    s = 0.5 * (s + s.T)

    # stage 1: diagonalize Re(s); its eigenspaces are Im(s)-invariant
    w_re, o = jacobi_eigh(s.real)
    order = np.argsort(w_re, kind="stable")
    w_re = w_re[order]
    o = o[:, order]

    # stage 2: within each Re-eigenvalue cluster, diagonalize Im(s)
    for group in _cluster_sorted(w_re, RE_CLUSTER_TOL):
        if len(group) < 2:
            continue
        cols = o[:, group]
        b = cols.T @ s.imag @ cols
        _, r = jacobi_eigh(0.5 * (b + b.T))
        o[:, group] = cols @ r

    lam = np.einsum("ij,jk,ki->i", o.T, s, o)
    args = np.mod(np.angle(lam), TWO_PI)
    order = np.argsort(args, kind="stable")
    args = args[order]
    o = o[:, order]

    blocks = _cluster_sorted(args, ARC_CLUSTER_TOL)
    # arc distance wraps: a group near 2*pi may continue into the group at 0
    if len(blocks) > 1 and (args[blocks[0][0]] + TWO_PI - args[blocks[-1][-1]]) < ARC_CLUSTER_TOL:
        blocks[0] = blocks.pop() + blocks[0]
    return o, args, blocks


def integrate_rk4(vector_field, y0, t0: float, t1: float, config: IntegratorConfig):
    """Classical fixed-step RK4 over [t0, t1].

    ``vector_field(t, y)`` maps a float and a 1-d state array to the state
    derivative.  Returns (times, states) with ``step_count + 1`` samples
    including both endpoints; states has shape (step_count + 1, len(y0)).

    Raises LagwebError as soon as a step produces NaN or Inf.
    """
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    y = np.array(y0, dtype=float, copy=True).ravel()
    m = config.step_count
    h = (t1 - t0) / m
    ts = t0 + h * np.arange(m + 1)
    ts[-1] = t1
    ys = np.empty((m + 1, y.size))
    ys[0] = y
    for i in range(m):
        t = ts[i]
        k1 = np.asarray(vector_field(t, y))
        k2 = np.asarray(vector_field(t + 0.5 * h, y + (0.5 * h) * k1))
        k3 = np.asarray(vector_field(t + 0.5 * h, y + (0.5 * h) * k2))
        k4 = np.asarray(vector_field(t + h, y + h * k3))
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.all(np.isfinite(y)):
            raise LagwebError(f"state became non-finite at t = {ts[i + 1]:.6g}")
        ys[i + 1] = y
    return ts, ys
