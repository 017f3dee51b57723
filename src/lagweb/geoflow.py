"""Geodesic flow of positive Lagrangian planes in diagonalizing coordinates.

A geodesic through the plane of ``base`` with quadratic Hamiltonian
``h(x) = sum a_j x_j^2`` (written in the adapted orthonormal basis) reduces
to the scalar system

    g_j' = -4 a_j tan(phi),      g_j(0) = 1,
    th_j' = -2 a_j / g_j,        th_j(0) = 0,
    phi(t) = phase0 + sum_j th_j(t),

where g_j is the squared stretch of the j-th frame direction and th_j its
accumulated rotation angle.  ``geodesic_ivp`` integrates it by fixed-step
classical RK4 on Python floats (``_scalar_flow``): a step on 2n numbers is
cheaper without numpy, and the samples are the bits that ``integrate_rk4``
gives on the same equations.  The plane at time t is spanned by w_j u_j for
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
and exists to cross-check it.  It runs on ``integrate_rk4``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import LagwebError
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
    def from_frame(cls, base: LagrangianFrame, coefficients) -> "GeodesicSpec":
        """The spec in the frame's own basis (the identity), from its phase."""
        return cls(base=base, adapted_basis=np.eye(base.n),
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


def _scalar_flow(a: np.ndarray, phase0: float, config: IntegratorConfig):
    """Classical RK4 for y = (g, th) from (1, 0) on [0, 1], on Python floats.

    The arithmetic is ``integrate_rk4``'s on the flow equations, operation
    for operation, so the samples are the same bits without numpy's call
    overhead on 2n entries.  The phase adds the angles in numpy's order:
    left to right from 0.0 below 8 entries (not the builtin ``sum``, which
    is compensated from Python 3.12), pairwise from 8 on.
    Returns (times, g, th), the last two (m+1, n).
    """
    n = a.size
    a = a.tolist()
    minus_2a = [(-2.0) * aj for aj in a]
    edge = 0.5 * math.pi - PHASE_MARGIN

    def rates(t, y):
        if n < 8:
            total = 0.0
            for thj in y[n:]:
                total += thj
        else:
            total = float(np.add.reduce(y[n:]))
        phi = phase0 + total
        if abs(phi) >= edge:
            raise LagwebError(f"phase reached {phi:.6f} at t = {t:.4f}")
        # NaN enters g only through a NaN phase, which makes all of g NaN;
        # so min() decides as g.min() does
        if min(y[:n]) < METRIC_FLOOR:
            raise LagwebError(f"metric coefficient collapsed at t = {t:.4f}")
        c = -4.0 * math.tan(phi)
        k = [c * aj for aj in a]
        k += [b / gj for b, gj in zip(minus_2a, y)]
        return k

    m = config.step_count
    h = 1.0 / m
    half, sixth = 0.5 * h, h / 6.0
    ts = h * np.arange(m + 1)
    ts[-1] = 1.0
    y = [1.0] * n + [0.0] * n
    ys = np.empty((m + 1, 2 * n))
    ys[0] = y
    for i in range(m):
        t = h * i  # = ts[i]; only ts[m] differs, set to 1.0
        k1 = rates(t, y)
        k2 = rates(t + half, [yj + half * kj for yj, kj in zip(y, k1)])
        k3 = rates(t + half, [yj + half * kj for yj, kj in zip(y, k2)])
        k4 = rates(t + h, [yj + h * kj for yj, kj in zip(y, k3)])
        y = [yj + sixth * (k1j + 2.0 * (k2j + k3j) + k4j)
             for yj, k1j, k2j, k3j, k4j in zip(y, k1, k2, k3, k4)]
        if not all(map(math.isfinite, y)):
            raise LagwebError(f"state became non-finite at t = {ts[i + 1]:.6g}")
        ys[i + 1] = y
    return ts, ys[:, :n], ys[:, n:]


def geodesic_ivp(spec: GeodesicSpec, config: IntegratorConfig = IntegratorConfig()) -> GeodesicTrajectory:
    """Integrate the scalar geodesic system from (g, theta) = (1, 0)."""
    ts, g, theta = _scalar_flow(spec.coefficients, spec.phase0, config)
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
    expected = traj.spec.phase0 + traj.theta[i].sum()
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


# --- CSV text: each float as CPython's '%.17g' makes it, built by numpy ---
#
# A value is a cell of 32 bytes: an 8-byte head (sign, the "0." and zeros of
# a value below 1, the leading digit and a point after it), five 4-byte words
# of three digits each with room for a point, and a last word with the 17th
# digit and the separator.  Dropped characters are NUL, and one
# bytes.translate per block removes them.

CSV_CELL = 32
CSV_BLOCK = 1 << 15     # values formatted per pass: bounds the temporaries
_SPLIT = 134217729.0    # 2**27 + 1, Dekker's splitter
_POW10 = np.array([10.0 ** k for k in range(23)])   # exact in binary64
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI


@functools.cache
def _csv_tables():
    """Lookup tables of cell words, as (head, zeros, group, mode, tail).

    head[zeros[e + 4] + negative * 20 + d0 * 2 + point]: the 8-byte head of a
    value with decimal exponent e; zeros[e + 4] / 40 = max(0, -e) picks the
    "0." and the -e - 1 zeros that come before the digits of a value below 1.
    group[mode * 1000 + ddd]: a 3-digit group; mode 0 keeps all digits, 1
    drops trailing zeros, 2 + q and 5 + q put a point after digit q + 1 and
    keep or drop the trailing zeros after it (and the point, if none is left).
    mode[j, (e + 4) * 2 + z]: 1000 x the mode of group j (digits 3j + 1 to
    3j + 3) for decimal exponent e in [-4, 15], z when all later digits are 0.
    tail[10 * last + d16]: the 17th digit (NUL if 0), then a comma or, last, a newline.
    """
    digits = np.arange(1000)[:, np.newaxis] // np.array([100, 10, 1]) % 10
    chars = (48 + digits).astype(np.uint8)
    later = np.zeros((1000, 4), bool)   # later[:, i]: a nonzero digit at i or after
    later[:, :3] = np.logical_or.accumulate((digits != 0)[:, ::-1], axis=1)[:, ::-1]
    stripped = np.where(later[:, :3], chars, 0)
    group = np.zeros((8, 1000, 4), np.uint8)
    group[0, :, :3], group[1, :, :3] = chars, stripped
    for q in range(1, 4):
        for m, after, point in ((1 + q, chars, 46), (4 + q, stripped, 46 * later[:, q])):
            group[m, :, :q] = chars[:, :q]
            group[m, :, q] = point
            group[m, :, q + 1:] = after[:, q:]
    mode = np.zeros((5, 20, 2), np.int32)
    for j in range(5):
        for e in range(-4, 16):
            at = (e - 1) // 3 if e >= 1 else -1     # the group with the point
            if at == j:
                mode[j, e + 4] = 1000 * (1 + e - 3 * j + np.array([0, 3]))
            elif at < j:
                mode[j, e + 4] = 1000 * np.array([0, 1])
    head = np.zeros((5, 2, 10, 2, 8), np.uint8)
    head[:, 1, ..., 0] = ord("-")
    for zeros in range(1, 5):
        head[zeros, ..., 1:zeros + 2] = np.frombuffer(b"0." + b"0" * (zeros - 1), np.uint8)
    head[..., 6] = (48 + np.arange(10))[:, np.newaxis]
    head[..., 1, 7] = ord(".")
    zeros = 40 * np.clip(-np.arange(-4, 16), 0, 4).astype(np.int32)
    tail = np.zeros((2, 10, 4), np.uint8)
    tail[:, 1:, 0] = 48 + np.arange(1, 10)
    tail[:, :, 3] = [[ord(",")], [ord("\n")]]
    tables = (head.view(np.uint64).ravel(), zeros, group.view(np.uint32).ravel(),
              mode.reshape(5, 40), tail.view(np.uint32).ravel())
    for table in tables:
        table.setflags(write=False)  # one copy, shared by every call
    return tables


def _digits17(a, e):
    """round(a * 10**(16 - e)) exactly, ties to even, as int64: the product is
    hi + lo exactly (Dekker), and hi is an even integer from 2**53 up."""
    ph, pl = np.take(_POW10_HI, 16 - e), np.take(_POW10_LO, 16 - e)
    hi = a * (ph + pl)
    split = a * _SPLIT
    ah = split - (split - a)
    al = a - ah
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _csv_cells(x, last):
    """The (N, CSV_CELL) uint8 cells of the float64 values x; last (int32,
    10 or 0) chooses a newline or a comma after each value."""
    head, zeros, group, mode, tail = _csv_tables()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)     # '%.17g' prints these without an exponent
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int32)
    d = _digits17(a, e)
    # log10 can miss near a power of ten, and rounding can carry into one
    off = np.flatnonzero((d < 10 ** 16) | (d >= 10 ** 17))
    if off.size:
        e[off] += np.where(d[off] < 10 ** 16, -1, 1).astype(np.int32)
        d[off] = _digits17(a[off], e[off])
    # digits d0 | g0 g1 g2 g3 g4 (three each) | d16, by floor division (not divmod, slower)
    d0 = d // 10 ** 16
    r = d - d0 * 10 ** 16
    q = r // 10
    d16 = (r - q * 10).astype(np.int32)
    upper = q // 10 ** 9
    lower = (q - upper * 10 ** 9).astype(np.int32)
    upper = upper.astype(np.int32)
    g0 = upper // 1000
    g2 = lower // 10 ** 6
    lower -= g2 * 10 ** 6
    g3 = lower // 1000
    groups = ((4, lower - g3 * 1000), (3, g3), (2, g2), (1, upper - g0 * 1000), (0, g0))

    cells = np.empty((len(x), CSV_CELL // 8), np.uint64)
    words = cells.view(np.uint32)
    words[:, 7] = np.take(tail, last + d16)
    zero = (d16 == 0).view(np.int8)     # all digits after the current group are 0
    row = (e + 4) * 2
    for j, g in groups:
        words[:, 2 + j] = np.take(group, np.take(mode[j], row + zero) + g)
        zero &= (g == 0).view(np.int8)
    point = (e == 0) & (zero == 0)
    cells[:, 0] = np.take(head, np.take(zeros, e + 4) + (x < 0) * 20 + d0 * 2 + point)

    cells = cells.view(np.uint8)
    slow = np.flatnonzero(~fast)        # 0, tiny, huge and non-finite values
    if slow.size:
        seps = [b"\n" if end else b"," for end in last[slow].tolist()]
        text = b"".join((b"%.17g" % v).ljust(CSV_CELL - 1, b"\0") + sep
                        for v, sep in zip(x[slow].tolist(), seps))
        cells[slow] = np.frombuffer(text, np.uint8).reshape(-1, CSV_CELL)
    return cells


def _csv_rows(table, prefix=None) -> bytes:
    """Each row of the float64 (m, k) table as its values in '%.17g',
    comma separated, and a newline: exactly CPython's text, -0 and non-finite
    values included.  prefix, an (m, w) uint8 array, puts its row of text
    (NUL bytes dropped) before each table row."""
    m, k = table.shape
    rows = max(1, CSV_BLOCK // k)
    last = np.tile(np.where(np.arange(k) == k - 1, 10, 0).astype(np.int32), min(rows, m))
    out = []
    for start in range(0, m, rows):
        block = table[start:start + rows]
        cells = _csv_cells(block.ravel(), last[:block.size]).reshape(len(block), -1)
        if prefix is not None:
            cells = np.concatenate([prefix[start:start + rows], cells], axis=1)
        out.append(cells.tobytes().translate(None, b"\0"))
    return b"".join(out)


def _write_csv(path, header, blocks) -> None:
    """Write the header line, then each block of row bytes."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for block in blocks:
            fh.write(block)


def _check_csv(path, header, blocks, what: str) -> None:
    """Require the file at path to hold exactly the header line, then each
    block of row bytes, then end of file; each read takes one block.  A
    ValueError starts with what and names the file, and the first differing
    column and data row (from 1), or the row where the file ends."""
    with open(path, "rb") as fh:
        line = (",".join(header) + "\n").encode()
        if fh.readline(len(line)) != line:
            raise ValueError(f"{what}: {fh.name} header is not {','.join(header)}")
        done = 0
        for block in blocks:
            data = fh.read(len(block))
            if data != block:
                at = len(data)
                same = np.frombuffer(data, np.uint8) == np.frombuffer(block, np.uint8, at)
                if not same.all():
                    at = int(np.argmin(same))
                start = block.rfind(b"\n", 0, at) + 1
                row = done + block.count(b"\n", 0, at) + 1
                if at == len(data):
                    raise ValueError(f"{what}: {fh.name} ends {'before' if at == start else 'in'} "
                                     f"data row {row}")
                raise ValueError(f"{what}: {fh.name} column {header[block.count(b',', start, at)]} "
                                 f"differs in data row {row}")
            done += block.count(b"\n")
        if fh.read(1):
            raise ValueError(f"{what}: {fh.name} has more than {done} data rows")


# --- trajectory CSV (t, g_1..g_n, theta_1..theta_n, phase) ---

def _trajectory_table(traj: GeodesicTrajectory):
    """The trajectory CSV's header and (m+1, 2n+2) rows."""
    names = [f"{name}_{j + 1}" for name in ("g", "theta") for j in range(traj.spec.n)]
    return ["t", *names, "phase"], np.column_stack([traj.times, traj.g, traj.theta, traj.phases])


def write_trajectory_csv(traj: GeodesicTrajectory, path) -> None:
    """One row per sample, 17 significant digits ('%.17g')."""
    header, table = _trajectory_table(traj)
    _write_csv(path, header, [_csv_rows(table)])


def read_trajectory_csv(path, traj: GeodesicTrajectory) -> None:
    """Require the trajectory CSV at path to hold exactly the bytes that
    write_trajectory_csv makes from traj; ValueError if not."""
    header, table = _trajectory_table(traj)
    _check_csv(path, header, [_csv_rows(table)],
               "trajectory CSV samples disagree with the solution's trajectory")
