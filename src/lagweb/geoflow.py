"""Geodesic flow of positive Lagrangian planes in diagonalizing coordinates.

A geodesic through the plane of ``base`` with quadratic Hamiltonian
``h(x) = sum a_j x_j^2`` (written in the adapted orthonormal basis) reduces
to the scalar system

    g_j' = -4 a_j tan(phi),      g_j(0) = 1,
    th_j' = -2 a_j / g_j,        th_j(0) = 0,
    phi(t) = phase0 + sum_j th_j(t),

where g_j is the squared stretch of the j-th frame direction and th_j its
accumulated rotation angle.  The plane at time t is spanned by w_j u_j for
u_j the adapted basis pushed into C^n, with the flow factors

    w_j = sqrt(g_j) e^{i th_j},
    w_j' = (g_j' / (2 sqrt(g_j)) + i sqrt(g_j) th_j') e^{i th_j},

the rates read from the flow equations at each sample
(``GeodesicTrajectory.flow_factors``, the one place they are computed).
With every a_j <= 0 the phase rises; along samples in reversed time
(``time_reversed``, for Maslov index n) it falls, and the rates change sign.

``frame_ode_oracle`` integrates the full matrix evolution

    dPsi/dt = -2 (i + tan(phi)) Psi G^{-1} diag(a),    G = Re(Psi^H Psi),

with phi read off as arg det Psi; it never assumes the diagonal reduction
and exists to cross-check it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import IdentityDefect, NonFiniteState, PhaseBlowup
from .laggrass import LagrangianFrame, make_frame, span_angle
from .numkernel import IntegratorConfig, integrate_rk4

PHASE_MARGIN = 1e-6   # |phi| >= pi/2 - margin aborts the flow
METRIC_FLOOR = 1e-9   # g_j below this signals bad input


@dataclass(frozen=True, eq=False)
class GeodesicSpec:
    """Initial plane, adapted basis, Hamiltonian coefficients, base phase; phase0 is
    not read off ``base``, whose phase can differ in the last bits once re-made from JSON."""

    base: LagrangianFrame
    adapted_basis: np.ndarray  # (n, n) real orthogonal
    coefficients: np.ndarray   # (n,) the a_j
    phase0: float

    def __post_init__(self):
        a = np.array(self.coefficients, dtype=float)
        if not np.all(np.isfinite(a)):
            raise ValueError("coefficients must be finite")
        a.setflags(write=False)
        object.__setattr__(self, "coefficients", a)
        basis = np.array(self.adapted_basis, dtype=float)
        if np.max(np.abs(basis.T @ basis - np.eye(basis.shape[0]))) > 1e-8:
            raise ValueError("adapted basis must be orthogonal")
        if np.linalg.det(basis) < 0.0:
            raise ValueError("adapted basis must have determinant +1")
        basis.setflags(write=False)
        object.__setattr__(self, "adapted_basis", basis)

    @classmethod
    def from_frame(cls, base: LagrangianFrame, coefficients,
                   adapted_basis=None) -> "GeodesicSpec":
        n = base.n
        basis = np.eye(n) if adapted_basis is None else np.asarray(adapted_basis, float)
        return cls(base=base, adapted_basis=basis,
                   coefficients=np.asarray(coefficients, float), phase0=base.phase)

    @property
    def n(self) -> int:
        return self.base.n

    def frame_directions(self) -> np.ndarray:
        """Complex orthonormal vectors u_j = F0 @ adapted_basis[:, j]."""
        return self.base.columns @ self.adapted_basis


@dataclass(frozen=True, eq=False)
class GeodesicTrajectory:
    """Uniformly sampled (g, theta) history over [0, 1]."""

    spec: GeodesicSpec
    times: np.ndarray   # (m+1,)
    g: np.ndarray       # (m+1, n)
    theta: np.ndarray   # (m+1, n)

    @property
    def phases(self) -> np.ndarray:
        return self.spec.phase0 + self.theta.sum(axis=1)

    def grid_index(self, t: float) -> int:
        h = self.times[1] - self.times[0]
        i = int(round((t - self.times[0]) / h))
        if not 0 <= i < len(self.times) or abs(self.times[i] - t) > 1e-9:
            raise ValueError(f"t = {t} is not a sample time")
        return i

    def flow_factors(self):
        """(w, dw/dt) per sample and direction, each (m+1, n) complex; the
        rates are negated where the phase falls, in reversed time."""
        a, phases = self.spec.coefficients, self.phases
        sign = -1.0 if phases[-1] < phases[0] else 1.0
        sqrt_g, rotation = np.sqrt(self.g), np.exp(1j * self.theta)
        dg = -4.0 * sign * np.tan(phases)[:, np.newaxis] * a[np.newaxis, :]
        dtheta = -2.0 * sign * a[np.newaxis, :] / self.g
        return sqrt_g * rotation, (dg / (2.0 * sqrt_g) + 1j * sqrt_g * dtheta) * rotation


def _scalar_rhs(a: np.ndarray, phase0: float):
    n = a.size

    def rhs(t, y):
        g = y[:n]
        phi = phase0 + y[n:].sum()
        if abs(phi) >= 0.5 * math.pi - PHASE_MARGIN:
            raise PhaseBlowup(f"phase reached {phi:.6f} at t = {t:.4f}")
        if g.min() < METRIC_FLOOR:
            raise NonFiniteState(f"metric coefficient collapsed at t = {t:.4f}")
        out = np.empty(2 * n)
        out[:n] = (-4.0 * math.tan(phi)) * a
        out[n:] = (-2.0) * a / g
        return out

    return rhs


def geodesic_ivp(spec: GeodesicSpec, config: IntegratorConfig = IntegratorConfig()) -> GeodesicTrajectory:
    """Integrate the scalar geodesic system from (g, theta) = (1, 0)."""
    n = spec.n
    y0 = np.concatenate([np.ones(n), np.zeros(n)])
    ts, ys = integrate_rk4(_scalar_rhs(spec.coefficients, spec.phase0), y0, 0.0, 1.0, config)
    traj = GeodesicTrajectory(spec=spec, times=ts, g=ys[:, :n], theta=ys[:, n:])
    phases = traj.phases
    if traj.g.min() <= 0.0:
        raise NonFiniteState("metric coefficient lost positivity")
    if np.max(np.abs(phases)) >= 0.5 * math.pi - PHASE_MARGIN:
        i = int(np.argmax(np.abs(phases)))
        raise PhaseBlowup(f"phase reached {phases[i]:.6f}")
    return traj


def time_reversed(traj: GeodesicTrajectory) -> GeodesicTrajectory:
    """The same planes in reversed time: the sample at t is traj's at 1 - t."""
    return GeodesicTrajectory(spec=traj.spec, times=1.0 - traj.times[::-1],
                              g=traj.g[::-1], theta=traj.theta[::-1])


def horizontal_frame(traj: GeodesicTrajectory, t: float) -> LagrangianFrame:
    """Frame spanned by the flow factors w_j u_j at a sample time.

    Revalidation rescales the sqrt(g) factors away; the returned phase must
    agree with phase0 + sum th_j to 1e-8 or the reduction itself is broken.
    """
    i = traj.grid_index(t)
    w = traj.flow_factors()[0][i]
    frame = make_frame(traj.spec.base.ambient, traj.spec.frame_directions() * w[np.newaxis, :])
    expected = traj.spec.phase0 + traj.theta[i].sum()
    if abs(frame.phase - expected) > 1e-8:
        raise IdentityDefect(
            f"frame phase {frame.phase:.12f} != reconstructed {expected:.12f}"
        )
    return frame


def thin_trajectory(traj: GeodesicTrajectory, stride: int) -> GeodesicTrajectory:
    """Subsample onto every stride-th grid point (stride must divide the steps).

    The samples are exact flow samples, so the result is a valid coarser
    trajectory; large meshes in n >= 3 are built on thinned grids.
    """
    steps = len(traj.times) - 1
    if stride < 1 or steps % stride != 0:
        raise ValueError(f"stride {stride} does not divide {steps} steps")
    return GeodesicTrajectory(spec=traj.spec, times=traj.times[::stride],
                              g=traj.g[::stride], theta=traj.theta[::stride])


def phase_along(traj: GeodesicTrajectory):
    """Per-sample (t, phi, dphi/dt) with dphi/dt = -2 sum_j a_j / g_j."""
    a = traj.spec.coefficients
    dphi = -2.0 * (a[np.newaxis, :] / traj.g).sum(axis=1)
    return traj.times, traj.phases, dphi


def _frame_rhs(a: np.ndarray, n: int):
    def rhs(t, y):
        psi = (y[: n * n] + 1j * y[n * n:]).reshape(n, n)
        det = complex(np.linalg.det(psi))
        phi = math.atan2(det.imag, det.real)
        if abs(phi) >= 0.5 * math.pi - PHASE_MARGIN:
            raise PhaseBlowup(f"oracle phase reached {phi:.6f} at t = {t:.4f}")
        gram = (psi.conj().T @ psi).real
        try:
            ginv = np.linalg.inv(gram)
        except np.linalg.LinAlgError as exc:
            raise NonFiniteState(f"oracle Gram matrix singular at t = {t:.4f}") from exc
        dpsi = (-2.0 * (1j + math.tan(phi))) * ((psi @ ginv) * a[np.newaxis, :])
        return np.concatenate([dpsi.real.ravel(), dpsi.imag.ravel()])

    return rhs


def frame_ode_oracle(spec: GeodesicSpec, config: IntegratorConfig = IntegratorConfig()):
    """Integrate the full frame evolution; returns (times, frames).

    frames[i] is the complex n x n matrix of frame vectors at times[i];
    nothing here uses the (g, theta) reduction.
    """
    n = spec.n
    psi0 = spec.frame_directions()
    y0 = np.concatenate([psi0.real.ravel(), psi0.imag.ravel()])
    ts, ys = integrate_rk4(_frame_rhs(spec.coefficients, n), y0, 0.0, 1.0, config)
    frames = (ys[:, : n * n] + 1j * ys[:, n * n:]).reshape(-1, n, n)
    return ts, frames


def two_route_deviation(spec: GeodesicSpec, config: IntegratorConfig = IntegratorConfig(),
                        frame_stride: int = 20):
    """Sup deviation between the scalar route and the frame oracle.

    Returns (g_deviation, angle_deviation, gram_offdiag): the metric
    comparison runs over every sample, plane angles over a strided subset.
    """
    traj = geodesic_ivp(spec, config)
    ts, frames = frame_ode_oracle(spec, config)
    gram = np.einsum("sij,sik->sjk", frames.conj(), frames).real
    g_oracle = np.einsum("sjj->sj", gram)
    g_dev = float(np.max(np.abs(g_oracle - traj.g)))
    off = gram - g_oracle[:, :, np.newaxis] * np.eye(spec.n)[np.newaxis, :, :]
    gram_offdiag = float(np.max(np.abs(off)))

    directions = spec.frame_directions()
    w, _ = traj.flow_factors()
    angle_dev = 0.0
    for i in [*range(0, len(ts), frame_stride), -1]:
        angle_dev = max(angle_dev, span_angle(directions * w[i][np.newaxis, :], frames[i]))
    return g_dev, angle_dev, gram_offdiag


# --- trajectory CSV (t, g_1..g_n, theta_1..theta_n, phase) ---

def _trajectory_table(traj: GeodesicTrajectory):
    """The trajectory CSV's header and (m+1, 2n+2) rows."""
    names = [f"{name}_{j + 1}" for name in ("g", "theta") for j in range(traj.spec.n)]
    return ["t", *names, "phase"], np.column_stack([traj.times, traj.g, traj.theta, traj.phases])


def write_trajectory_csv(traj: GeodesicTrajectory, path) -> None:
    """One row per sample, 17 significant digits."""
    header, table = _trajectory_table(traj)
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def _check_csv_rows(fh, header, blocks, what: str) -> None:
    """Require the open CSV fh to hold exactly header, then each float block's
    rows, then end of file.  A block is parsed by one np.loadtxt call and
    compared bit for bit, so -0 is not 0.  A ValueError starts with what and
    names the file, the first differing column and data row (from 1)."""
    if fh.readline() != ",".join(header) + "\n":
        raise ValueError(f"{what}: {fh.name} header is not {','.join(header)}")
    done = 0
    for block in blocks:
        lines = list(itertools.islice(fh, len(block)))
        data = np.loadtxt(lines, delimiter=",", ndmin=2) if lines else np.empty((0, 0))
        if data.shape != block.shape:
            raise ValueError(f"{what}: {fh.name} data rows {done + 1}-{done + len(block)} are "
                             f"not {len(block)} rows of {block.shape[1]} values")
        row, col = np.nonzero(data.view(np.uint64) != block.view(np.uint64))
        if row.size:
            raise ValueError(f"{what}: {fh.name} column {header[col[0]]} differs in data row "
                             f"{done + row[0] + 1}")
        done += len(block)
    if fh.readline():
        raise ValueError(f"{what}: {fh.name} has more than {done} data rows")


def read_trajectory_csv(path, traj: GeodesicTrajectory) -> None:
    """Require the trajectory CSV at path to hold exactly write_trajectory_csv's
    header and rows of traj, bit for bit; ValueError if not."""
    header, table = _trajectory_table(traj)
    with open(path, "r", encoding="utf-8") as fh:
        _check_csv_rows(fh, header, [table],
                        "trajectory CSV samples disagree with the solution's trajectory")
