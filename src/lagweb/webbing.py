"""Cylinders swept by level sets of the flow Hamiltonian, and their checks.

For a flow with coefficients a_j < 0, the level set {sum a_j x_j^2 = c},
c < 0, is the ellipsoid with semi-axes sqrt(c / a_j).  Carrying it along the
flow gives the immersion

    Phi(p, t) = sum_j kappa_j(p) sqrt(g_j(t)) e^{i th_j(t)} u_j,
    kappa_j(p) = sqrt(c / a_j) p_j,   p in S^{n-1},

whose slices t = 0, 1 sit inside the start and target planes.  All tangent
data is analytic: sphere tangents push the chart differential through the
frame, the time tangent uses d/dt (sqrt(g) e^{i th}) evaluated from the flow
equations at each sample, so verification measures geometry rather than
differencing noise.  The time tangent carries the factor
i e^{-i phase} / cos(phase), so the frame determinant is
i e^{i(phase0 + sum theta - phase)} / cos(phase) times a real factor.  Re Omega
therefore vanishes on the stored tangents for any trajectory with
phases = phase0 + sum(theta), whether or not it solves the flow.  A corrupted
theta history shows up instead in boundary containment or in time tangents
differenced from the nodes.

Verification quantities per mesh: sup |omega| over tangent pairs, sup |Re
Omega| and inf Im Omega over oriented tangent n-frames (the calibration
residuals), the minimum angle to the radial direction, boundary containment
defects, and for surfaces the discrete Laplace-Beltrami residual of the time
coordinate (which the continuum immersion makes harmonic).  The
boundary-flux check uses the exact level-family deformation field
Phi_c / (2c) on the unit-level cylinder alone, as Phi_c = sqrt|c| Phi_-1.
scipy is imported only by the quasi-random sphere of n >= 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFrame,
    DegenerateMetric,
    IdentityDefect,
    InconsistentBoundary,
    OriginNode,
    SignError,
)
from .geoflow import GeodesicTrajectory

BOUNDARY_TOL = 1e-8
FLUX_SPREAD_TOL = 1e-4
TIME_CHUNK = 64  # node sweeps run in time blocks to bound peak memory
MIN_SPHERE_RESOLUTION = 4


@dataclass(frozen=True, eq=False)
class LevelSetChart:
    """Ellipsoid level set {sum a_j x_j^2 = c} with its semi-axes."""

    level: float
    semi_axes: np.ndarray


def level_set_chart(coefficients, level: float) -> LevelSetChart:
    a = np.asarray(coefficients, dtype=float)
    if np.any(a >= 0.0):
        raise SignError("all coefficients must be negative")
    if not math.isfinite(level):
        raise ValueError(f"level must be finite, got {level}")
    if level >= 0.0:
        raise SignError("level must be negative")
    return LevelSetChart(level=float(level), semi_axes=np.sqrt(level / a))


@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Discrete unit sphere with an orthonormal tangent pair per node."""

    kind: str            # "circle" | "latlong" | "quasirandom"
    params: np.ndarray   # (P, k) chart coordinates stored in mesh CSVs
    points: np.ndarray   # (P, n) unit vectors
    tangents: np.ndarray  # (P, n-1, n) orthonormal tangent directions


def sphere_grid(n: int, resolution=None, seed: int = 0) -> SphereGrid:
    """Build the sampling grid used for cylinders in dimension n >= 2.

    n == 2 uses ``resolution`` uniform angles (default 128); n == 3 a
    latitude-longitude grid resolution x resolution/2 with latitudes offset
    from the poles (default 64 x 32); n >= 4 falls back to ``resolution``
    quasi-random unit vectors (default 4096) with Householder-completed
    tangent bases.
    """
    if n < 2:
        raise ValueError("cylinders need n >= 2 (S^0 cross sections are not supported)")
    if resolution is not None and resolution < MIN_SPHERE_RESOLUTION:
        raise ValueError(f"sphere resolution must be at least {MIN_SPHERE_RESOLUTION}, "
                         f"got {resolution}")
    if n == 2:
        m = 128 if resolution is None else int(resolution)
        s = 2.0 * np.pi * np.arange(m) / m
        points = np.stack([np.cos(s), np.sin(s)], axis=1)
        tangents = np.stack([-np.sin(s), np.cos(s)], axis=1)[:, np.newaxis, :]
        return SphereGrid("circle", s[:, np.newaxis], points, tangents)
    if n == 3:
        m = 64 if resolution is None else int(resolution)
        lon = 2.0 * np.pi * np.arange(m) / m
        lat = np.pi * (np.arange(m // 2) + 0.5) / (m // 2)  # offset avoids poles
        ll, tt = np.meshgrid(lon, lat, indexing="ij")
        ll, tt = ll.ravel(), tt.ravel()
        st, ct = np.sin(tt), np.cos(tt)
        points = np.stack([st * np.cos(ll), st * np.sin(ll), ct], axis=1)
        d_lat = np.stack([ct * np.cos(ll), ct * np.sin(ll), -st], axis=1)
        d_lon = np.stack([-np.sin(ll), np.cos(ll), np.zeros_like(ll)], axis=1)
        tangents = np.stack([d_lat, d_lon], axis=1)
        return SphereGrid("latlong", np.stack([ll, tt], axis=1), points, tangents)
    # scipy is needed only here; importing it lazily keeps ~1 s of
    # scipy.stats start-up out of every CLI call that never samples n >= 4
    from scipy.special import ndtri
    from scipy.stats import qmc

    m = 4096 if resolution is None else int(resolution)
    sampler = qmc.Halton(d=n, seed=seed)
    gauss = ndtri(np.clip(sampler.random(m), 1e-12, 1.0 - 1e-12))
    points = gauss / np.linalg.norm(gauss, axis=1, keepdims=True)
    # reflection sending p to -sign(p_0) e_0; its remaining columns span p-perp
    sign = np.where(points[:, 0] >= 0.0, 1.0, -1.0)
    v = points.copy()
    v[:, 0] += sign
    vnorm2 = np.einsum("pi,pi->p", v, v)
    tangents = np.empty((m, n - 1, n))
    for k in range(1, n):
        col = -2.0 * v * (v[:, k] / vnorm2)[:, np.newaxis]
        col[:, k] += 1.0
        tangents[:, k - 1, :] = col
    # det [p, tangents...] equals sign; flip one tangent so every node frame
    # is positively oriented and the calibration form keeps a single sign
    tangents[:, 0, :] *= sign[:, np.newaxis]
    return SphereGrid("quasirandom", points, points, tangents)


def grid_resolution(n: int, params: np.ndarray) -> int:
    """The ``sphere_grid`` resolution whose chart coordinates are ``params``."""
    if n == 3:
        return int(round(math.sqrt(2 * params.shape[0])))  # latlong grid m x m/2
    return params.shape[0]


def slice_level(traj: GeodesicTrajectory, slice_points: np.ndarray) -> float:
    """The level c of mesh nodes stored for the trajectory's first sample.

    The nodes are paired with the frame rotated and stretched to that sample
    (a time-reversed trajectory's first sample is not the unit state); the
    Hamiltonian sum a_j kappa_j^2 recovers the level.
    """
    rotated = traj.spec.frame_directions() * np.exp(1j * traj.theta[0])[np.newaxis, :]
    prods = slice_points @ rotated.conj()
    if np.max(np.abs(prods.imag)) > 1e-8:
        raise ValueError("first slice of the stored mesh is not in its trajectory plane")
    kappa = prods.real / np.sqrt(traj.g[0])[np.newaxis, :]
    values = (kappa**2) @ traj.spec.coefficients
    level = float(values.mean())
    if float(values.max() - values.min()) > 1e-8 * abs(level):
        raise ValueError("stored mesh nodes do not sit on a single level set")
    return level


@dataclass(frozen=True, eq=False)
class CylinderMesh:
    """Discretized immersion S^{n-1} x [0, 1] -> C^n with analytic tangents."""

    trajectory: GeodesicTrajectory
    chart: LevelSetChart
    sphere: SphereGrid
    points: np.ndarray           # (T, P, n) complex
    sphere_tangents: np.ndarray  # (T, P, n-1, n) complex
    time_tangents: np.ndarray    # (T, P, n) complex
    boundary_defect: float

    @property
    def n(self) -> int:
        return self.points.shape[2]


@dataclass(frozen=True)
class SlagReport:
    max_omega: float
    max_re_omega: float
    min_im_omega: float
    orientation: int


@dataclass(frozen=True, eq=False)
class FluxReport:
    levels: np.ndarray           # c grid, ascending
    boundary_values: np.ndarray  # A_c per level
    spreads: np.ndarray          # per-level spread of the primitive over p
    relflux: float


def cylinder_mesh(traj: GeodesicTrajectory, level: float,
                  sphere_resolution=None, seed: int = 0) -> CylinderMesh:
    """Mesh the level-set cylinder of a trajectory with negative coefficients.

    The time grid is the trajectory grid; boundary containment in the two
    endpoint planes is verified at build time.  Time tangents come from the
    flow equations at each sample, not from differences of the nodes.
    """
    a = traj.spec.coefficients
    chart = level_set_chart(a, level)
    grid = sphere_grid(traj.spec.n, sphere_resolution, seed)
    directions = traj.spec.frame_directions()
    # w = sqrt(g) e^{i th} and dw its derivative from the flow equations
    sqrt_g, rotation = np.sqrt(traj.g), np.exp(1j * traj.theta)
    w = sqrt_g * rotation
    dg = -4.0 * np.tan(traj.phases)[:, np.newaxis] * a[np.newaxis, :]
    dtheta = -2.0 * a[np.newaxis, :] / traj.g
    dw = (dg / (2.0 * sqrt_g) + 1j * sqrt_g * dtheta) * rotation

    kappa = grid.points * chart.semi_axes[np.newaxis, :]             # (P, n)
    kappa_tan = grid.tangents * chart.semi_axes[np.newaxis, np.newaxis, :]
    points = np.einsum("pj,tj,ij->tpi", kappa, w, directions)
    sphere_tangents = np.einsum("pmj,tj,ij->tpmi", kappa_tan, w, directions)
    time_tangents = np.einsum("pj,tj,ij->tpi", kappa, dw, directions)

    defect = 0.0
    for idx in (0, -1):
        plane = directions * np.exp(1j * traj.theta[idx])[np.newaxis, :]
        defect = max(defect, float(np.max(np.abs((points[idx] @ plane.conj()).imag))))
    if defect > BOUNDARY_TOL:
        raise IdentityDefect(f"boundary slice left its plane (defect {defect:.3e})")
    return CylinderMesh(trajectory=traj, chart=chart, sphere=grid, points=points,
                        sphere_tangents=sphere_tangents, time_tangents=time_tangents,
                        boundary_defect=defect)


def boundary_containment(mesh: CylinderMesh, frame, end: int) -> float:
    """sup |Im(F^H Phi)| over the t = end slice against a given plane frame."""
    slice_points = mesh.points[0 if end == 0 else -1]
    return float(np.max(np.abs((slice_points @ frame.columns.conj()).imag)))


def _frame_chunks(mesh: CylinderMesh):
    """(slice, (T_chunk, P, n, n) sphere tangents then time tangent) per TIME_CHUNK samples."""
    for start in range(0, mesh.points.shape[0], TIME_CHUNK):
        sl = slice(start, start + TIME_CHUNK)
        tangents = [mesh.sphere_tangents[sl], mesh.time_tangents[sl, :, np.newaxis]]
        yield sl, np.concatenate(tangents, axis=2)


def verify_slag(mesh: CylinderMesh) -> SlagReport:
    """Calibration residuals over every node; no thresholding here.

    omega is evaluated on all tangent pairs, Omega as the determinant of the
    (sphere..., time)-ordered tangent frame; the orientation sign is chosen
    so that Im Omega is predominantly positive and reported alongside.
    Re Omega cannot see a wrong theta history (module docstring).  The chunk
    folds use np.maximum and np.minimum, so a NaN anywhere reaches the report.
    """
    max_omega = 0.0
    max_re = 0.0
    im_values_min = math.inf
    im_values_max = -math.inf
    min_rank_ratio = math.inf
    for _, v in _frame_chunks(mesh):
        pair = np.einsum("tpai,tpbi->tpab", v.conj(), v).imag
        max_omega = np.maximum(max_omega, np.max(np.abs(pair)))
        det = np.linalg.det(v)
        max_re = np.maximum(max_re, np.max(np.abs(det.real)))
        im_values_min = np.minimum(im_values_min, det.imag.min())
        im_values_max = np.maximum(im_values_max, det.imag.max())
        # |Omega| against the Hadamard bound: scale-free rank test
        hadamard = np.sqrt(np.einsum("tpki,tpki->tpk", v.conj(), v).real).prod(axis=2)
        min_rank_ratio = np.minimum(min_rank_ratio, np.min(np.abs(det) / hadamard))
    if min_rank_ratio < 1e-12:
        raise DegenerateFrame(
            f"tangent frame degenerates (|Omega| / Hadamard bound = {min_rank_ratio:.3e})"
        )
    orientation = 1 if im_values_max + im_values_min > 0.0 else -1
    min_im = im_values_min if orientation == 1 else -im_values_max
    return SlagReport(max_omega=float(max_omega), max_re_omega=float(max_re),
                      min_im_omega=float(min_im), orientation=orientation)


def euler_transversality(mesh: CylinderMesh) -> float:
    """Minimum angle between the radial direction and the tangent plane."""
    min_angle = math.inf
    for sl, v in _frame_chunks(mesh):
        real_frames = np.concatenate([v.real, v.imag], axis=3)  # (.., n, 2n)
        q, _ = np.linalg.qr(np.swapaxes(real_frames, 2, 3))     # (.., 2n, n)
        pos = mesh.points[sl]
        e = np.concatenate([pos.real, pos.imag], axis=2)        # (.., 2n)
        norms = np.linalg.norm(e, axis=2)
        if norms.min() < 1e-12:
            raise OriginNode("mesh node at the origin")
        coeff = np.einsum("tpkj,tpk->tpj", q, e)
        resid = e - np.einsum("tpkj,tpj->tpk", q, coeff)
        sin_angle = np.linalg.norm(resid, axis=2) / norms
        min_angle = np.minimum(min_angle, np.arcsin(np.clip(sin_angle, 0.0, 1.0)).min())
    return float(min_angle)


def webbing_family(traj: GeodesicTrajectory, levels, sphere_resolution=None,
                   seed: int = 0):
    """Cylinder meshes at the requested negative levels, outermost first.

    Degree-2 homogeneity of the Hamiltonian makes the mesh at level c equal
    the mesh at level c / s^2 rescaled by s, node for node.
    """
    levels = sorted(float(c) for c in levels)  # ascending = |c| decreasing
    return [cylinder_mesh(traj, c, sphere_resolution, seed) for c in levels]


def relflux(traj: GeodesicTrajectory, b0: float, b1: float,
            level_count: int = 9, sphere_resolution=None, seed: int = 0) -> FluxReport:
    """Integrated boundary value of the level-family deformation primitive.

    For each level c, the deformation field v = d Phi_c / dc is paired with
    the time tangent through omega; the t-integral from the bottom boundary
    gives a primitive that must be constant on the top boundary, whose value
    is A_c.  The result is -integral A_c dc over [b0, b1].  As Phi_c =
    sqrt|c| Phi_-1, the field is exactly v = Phi_c / (2c), and its pairing,
    so A_c, is the same at every level: one unit-level cylinder gives all.
    """
    if not (b0 <= b1 < 0.0):
        raise SignError("need b0 <= b1 < 0")
    if b0 == b1:
        return FluxReport(levels=np.array([]), boundary_values=np.array([]),
                          spreads=np.array([]), relflux=0.0)
    mesh = cylinder_mesh(traj, -1.0, sphere_resolution, seed)
    pairing = np.einsum("tpi,tpi->tp", mesh.points.conj(), mesh.time_tangents).imag
    u_top = np.trapezoid(pairing / (2.0 * mesh.chart.level), traj.times, axis=0)
    spread = float(u_top.max() - u_top.min())
    if spread > FLUX_SPREAD_TOL:
        raise InconsistentBoundary(f"primitive varies by {spread:.3e} on the top boundary")
    levels = np.linspace(b0, b1, level_count)
    boundary_values = np.full(level_count, float(u_top.mean()))
    return FluxReport(levels=levels, boundary_values=boundary_values,
                      spreads=np.full(level_count, spread),
                      relflux=-float(np.trapezoid(boundary_values, levels)))


def harmonic_residual(mesh: CylinderMesh, u_values=None) -> float:
    """Interior sup-norm of the discrete Laplace-Beltrami of u (default u = t).

    Surface case only (n == 2, uniform angle grid).  The operator is the
    divergence-form one for the induced metric (E, F, G from the analytic
    tangents), discretized with central differences: periodic in the angle,
    one-sided second-order at the time edges, residual taken on interior
    time rows.
    """
    if mesh.n != 2 or mesh.sphere.kind != "circle":
        raise ValueError("harmonic residual needs the n = 2 angle x time grid")
    phi_s = mesh.sphere_tangents[:, :, 0, :]
    phi_t = mesh.time_tangents
    e = np.einsum("tpi,tpi->tp", phi_s.conj(), phi_s).real
    f = np.einsum("tpi,tpi->tp", phi_s.conj(), phi_t).real
    g = np.einsum("tpi,tpi->tp", phi_t.conj(), phi_t).real
    det = e * g - f * f
    if det.min() < 1e-14:
        raise DegenerateMetric(f"induced metric degenerates (EG - F^2 = {det.min():.3e})")
    root = np.sqrt(det)

    times = mesh.trajectory.times
    t_count, p_count = e.shape
    if u_values is None:
        u = np.broadcast_to(times[:, np.newaxis], (t_count, p_count))
    else:
        u = np.asarray(u_values, dtype=float)
        if u.shape != e.shape:
            raise ValueError(f"u grid must have shape {e.shape}")
    hs = 2.0 * np.pi / p_count
    ht = times[1] - times[0]

    def d_angle(z):
        return (np.roll(z, -1, axis=1) - np.roll(z, 1, axis=1)) / (2.0 * hs)

    u_s = d_angle(u)
    u_t = np.gradient(u, ht, axis=0)
    flux_s = (g * u_s - f * u_t) / root
    flux_t = (e * u_t - f * u_s) / root
    div = d_angle(flux_s) + np.gradient(flux_t, ht, axis=0)
    residual = div / root
    return float(np.max(np.abs(residual[1:-1, :])))


# --- mesh CSV (sphere_param_coords..., t, re/im of each coordinate) ---

def write_mesh_csv(mesh: CylinderMesh, path) -> None:
    """One row per node, time-major, 17 significant digits.

    Each node's parameter prefix is formatted once; each time slice is then
    a single ``%`` call over its re/im columns, written as it is formatted.
    """
    n = mesh.n
    k = mesh.sphere.params.shape[1]
    header = [f"s_{i + 1}" for i in range(k)] + ["t"]
    for j in range(n):
        header += [f"re_z{j + 1}", f"im_z{j + 1}"]
    heads = ["".join(f"{v:.17g}," for v in row) for row in mesh.sphere.params.tolist()]
    columns = ",%.17g" * (2 * n) + "\n"
    # (T, P, n) complex viewed as (T, P * 2n) floats: re_z1, im_z1, re_z2, ...
    values = np.ascontiguousarray(mesh.points).view(np.float64)
    values = values.reshape(values.shape[0], -1)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for t, row in zip(mesh.trajectory.times.tolist(), values):
            tail = f"{t:.17g}{columns}"  # row p of the slice is heads[p] + tail
            fh.write((tail.join(heads) + tail) % tuple(row.tolist()))


def read_mesh_csv(path):
    """Returns (params, times, points) with points shaped (T, P, n), as copies
    that do not keep the parse alive.  Each time slice must repeat the first
    slice's parameters, and carry one time."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    k = header.index("t")
    if data.size == 0 or data.shape[1] != len(header):
        raise ValueError("mesh CSV rows do not match its header")
    p_count = int(np.argmax(data[:, k] != data[0, k])) or data.shape[0]  # rows at t[0]
    if data.shape[0] % p_count:
        raise ValueError("mesh CSV rows do not fill whole time slices")
    blocks = data.reshape(-1, p_count, data.shape[1])  # (T, P, columns)
    for col, name in enumerate(header[:k + 1]):
        if np.any(blocks[:, :, col] != (blocks[:, :1, col] if col == k else blocks[:1, :, col])):
            raise ValueError(f"mesh CSV column {name} is not constant along its grid axis")
    points = np.ascontiguousarray(blocks[:, :, k + 1:]).view(np.complex128)
    return blocks[0, :, :k].copy(), blocks[:, 0, k].copy(), points
