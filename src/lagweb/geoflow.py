"""Geodesic flow of positive Lagrangian planes in diagonalizing coordinates.

A geodesic through the plane of ``base`` with quadratic Hamiltonian
``h(x) = sum a_j x_j^2`` (written in the adapted orthonormal basis) reduces
to the scalar system

    g_j' = -4 a_j tan(phi),      g_j(0) = 1,
    th_j' = -2 a_j / g_j,        th_j(0) = 0,
    phi(t) = phase0 + sum_j th_j(t),

where phase0 is the phase of ``base``, g_j the squared stretch of the j-th
frame direction and th_j its accumulated rotation angle.  Along the flow
g_j = 1 - 4 a_j S with S' = tan(phi), S(0) = 0, so the state that the
equations leave free is (S, phi) alone.  ``geodesic_ivp`` integrates it by
fixed-step classical RK4 on Python floats, in one straight-line stepper per
dimension, generated from n and compiled once (``_stepper``); g and th are
formed from the stored stage values of S in one numpy pass
(``_scalar_flow``).
The plane at time t is spanned by w_j u_j for u_j the adapted basis pushed
into C^n, with the flow factors

    w_j = sqrt(g_j) e^{i th_j},
    w_j' = (g_j' / (2 sqrt(g_j)) + i sqrt(g_j) th_j') e^{i th_j},

the rates read from the flow equations at each sample
(``GeodesicTrajectory._rates``, the one place they are computed, for
``flow_factors`` and ``phase_along``).  With every a_j <= 0 the phase rises;
along samples in reversed time (``time_reversed``, for Maslov index n) each
th_j moves against its forward rate, and the rates change sign.

``frame_ode_oracle`` integrates the full matrix evolution

    dPsi/dt = -2 (i + tan(phi)) Psi G^{-1} diag(a),    G = Re(Psi^H Psi),

with phi read off as arg det Psi; it never assumes the diagonal reduction
and exists to cross-check it.  It runs on ``integrate_rk4``.  The trajectory
CSV's table is made here, and ``csvtext`` owns its text.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .csvtext import check_csv, csv_rows, write_csv
from .errors import LagwebError
from .laggrass import LagrangianFrame, make_frame, span_angle
from .numkernel import IntegratorConfig, integrate_rk4

PHASE_MARGIN = 1e-6   # |phi| >= pi/2 - margin aborts the flow
METRIC_FLOOR = 1e-9   # g_j below this signals bad input


@dataclass(frozen=True, eq=False)
class GeodesicSpec:
    """Initial plane, adapted basis and Hamiltonian coefficients.  The flow
    starts from the phase of the plane, ``base.phase``."""

    base: LagrangianFrame
    adapted_basis: np.ndarray  # (n, n) real orthogonal
    coefficients: np.ndarray   # (n,) the a_j

    def __post_init__(self):
        a = np.array(self.coefficients, dtype=float)
        if a.shape != (self.base.n,):
            raise ValueError(f"coefficients must be {self.base.n} numbers, one per direction, "
                             f"got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("coefficients must be finite")
        a.setflags(write=False)
        object.__setattr__(self, "coefficients", a)
        basis = np.array(self.adapted_basis, dtype=float)
        if basis.shape != (self.base.n, self.base.n):
            raise ValueError(f"adapted basis must be {self.base.n} x {self.base.n}, one column "
                             f"per direction, got shape {basis.shape}")
        if not np.all(np.isfinite(basis)):
            raise ValueError("adapted basis must be finite")
        if np.max(np.abs(basis.T @ basis - np.eye(basis.shape[0]))) > 1e-8:
            raise ValueError("adapted basis must be orthogonal")
        if np.linalg.det(basis) < 0.0:
            raise ValueError("adapted basis must have determinant +1")
        basis.setflags(write=False)
        object.__setattr__(self, "adapted_basis", basis)

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
        return self.spec.base.phase + self.theta.sum(axis=1)

    def grid_index(self, t: float) -> int:
        h = self.times[1] - self.times[0]
        i = int(round((t - self.times[0]) / h))
        if not 0 <= i < len(self.times) or abs(self.times[i] - t) > 1e-9:
            raise ValueError(f"t = {t} is not a sample time")
        return i

    def _rates(self):
        """(dg/dt, dth/dt) per sample and direction, each (m+1, n), read from
        the flow equations: the one place they are formed.  In reversed time
        (``time_reversed``) an angle th_j moves against its forward rate
        -2 a_j / g_j, and the rates are negated."""
        a = self.spec.coefficients
        sign = -1.0 if (a * (self.theta[-1] - self.theta[0]) > 0.0).any() else 1.0
        dg = -4.0 * sign * np.tan(self.phases)[:, np.newaxis] * a[np.newaxis, :]
        dtheta = -2.0 * sign * a[np.newaxis, :] / self.g
        return dg, dtheta

    def flow_factors(self):
        """(w, dw/dt) per sample and direction, each (m+1, n) complex, from
        the flow rates (``_rates``)."""
        dg, dtheta = self._rates()
        sqrt_g, rotation = np.sqrt(self.g), np.exp(1j * self.theta)
        return sqrt_g * rotation, (dg / (2.0 * sqrt_g) + 1j * sqrt_g * dtheta) * rotation


def _scalar_flow(a: np.ndarray, phase0: float, config: IntegratorConfig):
    """Classical RK4 for the flow from (S, phi) = (0, phase0) on [0, 1].

    Along the flow g_j = 1 + m_j S with m_j = -4 a_j and S' = tan(phi), and
    RK4 keeps that linear relation exact, so ``_stepper(n)`` steps the two
    floats (S, phi) alone and stores the four stage values of S per step.
    g is then 1 + m S at the samples, and th_j the running sum of the RK4
    increments of th_j' = b_j / g_j, b_j = -2 a_j, at those stage values:
    one numpy pass, the same operations that RK4 on (S, phi, th) makes.
    Returns (times, g, th), the last two (steps + 1, n).
    """
    n, steps = a.size, config.step_count
    h = 1.0 / steps
    ts = h * np.arange(steps + 1)
    ts[-1] = 1.0
    slope, rate = -4.0 * a, -2.0 * a
    stages = np.frombuffer(_stepper(n)(slope.tolist(), rate.tolist(), float(phase0), steps, ts))
    k = rate / (1.0 + slope * stages[:-1].reshape(steps, 4, 1))
    theta = np.zeros((steps + 1, n))
    np.cumsum(h / 6.0 * (k[:, 0] + 2.0 * (k[:, 1] + k[:, 2]) + k[:, 3]), axis=0, out=theta[1:])
    theta[1:] += 0.0   # RK4 sums from th(0) = +0.0, which -0.0 increments leave at +0.0
    if not np.isfinite(theta[-1]).all():   # a sum stays non-finite once it is
        first = np.isfinite(theta).all(axis=1).argmin()
        raise LagwebError(f"state became non-finite at t = {ts[first]:.6g}")
    return ts, 1.0 + slope * stages[::4, np.newaxis], theta


def _first_collapse(slope: float) -> float:
    """The least float S > 0 at which ``1.0 + slope * S < METRIC_FLOOR``, or
    NaN if none.  Rounding is monotone, so the test holds on an upward-closed
    set of S: if +inf is in it, the walk starts at the estimate
    (floor - 1) / slope (at least the least subnormal), steps up by
    ``math.nextafter`` until the test fires, then down while the float below
    still fires.  The upward steps end by +inf, where the test fires, and the
    downward ones by +0, where it never does; the correctly rounded estimate
    leaves at most a step or two."""
    def fires(s):
        return 1.0 + slope * s < METRIC_FLOOR

    if not fires(math.inf):
        return math.nan
    s = max((METRIC_FLOOR - 1.0) / slope, 5e-324)
    while not fires(s):
        s = math.nextafter(s, math.inf)
    while fires(math.nextafter(s, 0.0)):
        s = math.nextafter(s, 0.0)
    return s


def _metric_bounds(m) -> tuple:
    """(low, high): the stepper's metric guard ``1.0 + (min(m) if S > 0.0
    else max(m)) * S < METRIC_FLOOR`` fires exactly when S <= low or
    S >= high, low < 0 < high, a bound being NaN on a side where no float
    fires it (so S = +-0 and NaN never do).  For S < 0, max(m) * S is
    -(max(m) * -S) to the bit, so each side is one ``_first_collapse``."""
    return -_first_collapse(-max(m)), _first_collapse(min(m))


@functools.cache
def _stepper(n: int):
    """The RK4 loop of (S, phi) in dimension n >= 1, as Python source built
    from n alone and compiled once (as ``dataclasses`` builds ``__init__``):
    the state, the stage values S{2..4}, P{2..4} and the rates k{1..4}s,
    k{1..4}p are all local floats.

    The returned ``flow(m, b, phase0, steps, ts)`` takes the slopes m_j and
    the rates b_j as lists and returns the stage values of S, four per step
    and the last S, written by index into an ``array`` of doubles that holds
    no float object; ts only names the time in the non-finite message.  Each
    stage guards the phase against +-edge, then the metric floor on the one
    extreme 1 + m_j S, which is the least of the n since rounding is
    monotone: the least m_j while S > 0, the greatest otherwise, as the two
    bounds of S that ``_metric_bounds`` finds once per flow.  A NaN passes
    both guards.  phi' = sum_j b_j / (1 + m_j S) adds left to right.
    """
    def rates(k, s, p, t):
        """The k-th rates at stage (s, p) and time t, behind the guards."""
        return [
            f"if {p} >= edge or {p} <= neg_edge:",
            f"    raise LagwebError(f'phase reached {{{p}:.6f}} at t = {{{t}:.4f}}')",
            f"if {s} <= low or {s} >= high:",
            f"    raise LagwebError(f'metric coefficient collapsed at t = {{{t}:.4f}}')",
            f"k{k}s = tan({p})",
            f"k{k}p = " + " + ".join(f"b{j} / (1.0 + m{j} * {s})" for j in range(n)),
        ]

    body = [
        *rates(1, "S", "phi", "h * i"),
        "S2, P2 = S + half * k1s, phi + half * k1p",
        *rates(2, "S2", "P2", "h * i + half"),
        "S3, P3 = S + half * k2s, phi + half * k2p",
        *rates(3, "S3", "P3", "h * i + half"),
        "S4, P4 = S + h * k3s, phi + h * k3p",
        *rates(4, "S4", "P4", "h * i + h"),
        "j = 4 * i",
        "stages[j] = S",
        "stages[j + 1] = S2",
        "stages[j + 2] = S3",
        "stages[j + 3] = S4",
        "S = S + sixth * (k1s + 2.0 * (k2s + k3s) + k4s)",
        "phi = phi + sixth * (k1p + 2.0 * (k2p + k3p) + k4p)",
        # x - x is 0.0 exactly when x is finite, NaN otherwise
        "if (S - S) + (phi - phi) != 0.0:",
        "    raise LagwebError(f'state became non-finite at t = {ts[i + 1]:.6g}')",
    ]
    source = "\n".join([
        "def flow(m, b, phase0, steps, ts):",
        *[f"    {', '.join(f'{x}{j}' for j in range(n))}, = {x}" for x in "mb"],
        "    low, high = bounds(m)",
        "    h = 1.0 / steps",
        "    half, sixth = 0.5 * h, h / 6.0",
        "    edge, neg_edge, tan = EDGE, -EDGE, TAN",
        "    S, phi = 0.0, phase0",
        "    stages = array('d', bytes(8 * (4 * steps + 1)))",
        "    for i in range(steps):",
        *[f"        {line}" for line in body],
        "    stages[4 * steps] = S",
        "    return stages",
    ])
    namespace = {"LagwebError": LagwebError, "EDGE": 0.5 * math.pi - PHASE_MARGIN,
                 "TAN": math.tan, "array": array, "bounds": _metric_bounds}
    exec(compile(source, f"<scalar flow, n = {n}>", "exec"), namespace)
    return namespace["flow"]


def geodesic_ivp(spec: GeodesicSpec, config: IntegratorConfig = IntegratorConfig()) -> GeodesicTrajectory:
    """Integrate the scalar geodesic system from (g, theta) = (1, 0)."""
    ts, g, theta = _scalar_flow(spec.coefficients, spec.base.phase, config)
    traj = GeodesicTrajectory(spec=spec, times=ts, g=g, theta=theta)
    phases = traj.phases
    if traj.g.min() <= 0.0:
        raise LagwebError("metric coefficient lost positivity")
    if np.max(np.abs(phases)) >= 0.5 * math.pi - PHASE_MARGIN:
        i = int(np.argmax(np.abs(phases)))
        raise LagwebError(f"phase reached {phases[i]:.6f}")
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
    expected = traj.spec.base.phase + traj.theta[i].sum()
    if abs(frame.phase - expected) > 1e-8:
        raise LagwebError(f"frame phase {frame.phase:.12f} != reconstructed {expected:.12f}")
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
    """Per-sample (t, phi, dphi/dt), dphi/dt the sum over j of the flow's
    dth_j/dt (``GeodesicTrajectory._rates``), negated in reversed time."""
    return traj.times, traj.phases, traj._rates()[1].sum(axis=1)


def _frame_rhs(a: np.ndarray, n: int):
    def rhs(t, y):
        psi = (y[: n * n] + 1j * y[n * n:]).reshape(n, n)
        det = complex(np.linalg.det(psi))
        phi = math.atan2(det.imag, det.real)
        if abs(phi) >= 0.5 * math.pi - PHASE_MARGIN:
            raise LagwebError(f"oracle phase reached {phi:.6f} at t = {t:.4f}")
        gram = (psi.conj().T @ psi).real
        try:
            ginv = np.linalg.inv(gram)
        except np.linalg.LinAlgError as exc:
            raise LagwebError(f"oracle Gram matrix singular at t = {t:.4f}") from exc
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
    """One row per sample, 17 significant digits ('%.17g')."""
    header, table = _trajectory_table(traj)
    write_csv(path, header, [functools.partial(csv_rows, table)])


def read_trajectory_csv(path, traj: GeodesicTrajectory) -> None:
    """Require the trajectory CSV at path to hold exactly the bytes that
    write_trajectory_csv makes from traj; ValueError if not."""
    header, table = _trajectory_table(traj)
    check_csv(path, header, [functools.partial(csv_rows, table)],
              "trajectory CSV samples disagree with the solution's trajectory")
