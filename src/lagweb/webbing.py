"""Cylinders swept by level sets of the flow Hamiltonian, and their checks.

For a flow with coefficients a_j < 0, the level set {sum a_j x_j^2 = c},
c < 0, is the ellipsoid with semi-axes sqrt(c / a_j).  Carrying it along the
flow gives the immersion

    Phi(p, t) = sum_j kappa_j(p) w_j(t) u_j,   w_j = sqrt(g_j) e^{i th_j},
    kappa_j(p) = sqrt(c / a_j) p_j,   p in S^{n-1},

whose slices t = 0, 1 sit inside the start and target planes.  All tangent
data is analytic: sphere tangents push the chart differential through the
frame, the time tangent uses the rates dw_j/dt from the flow equations at
each sample (``GeodesicTrajectory.flow_factors``), so verification measures
geometry rather than differencing noise.  The time tangent carries the factor
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
coordinate (which the continuum immersion makes harmonic).  The calibration
and Euler checks are numpy vector algebra over the nodes of a time chunk, one
vector per frame entry: a Gram matrix, a Laplace-expanded determinant, and a
Cholesky solve whose residual is formed directly.  The boundary-flux check
uses the exact level-family deformation field Phi_c / (2c), as Phi_c =
sqrt|c| Phi_-1; with the u_j orthonormal its pairing with the time tangent is
sum_j kappa_j^2 Im(conj(w_j) dw_j/dt), so it reads the flow factors and builds
no cylinder.  scipy is imported only by the quasi-random sphere of n >= 4.
"""

from __future__ import annotations

import itertools
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
from .geoflow import GeodesicTrajectory, _check_csv_rows

BOUNDARY_TOL = 1e-8
FLUX_SPREAD_TOL = 1e-4
TIME_CHUNK = 16  # node sweeps run in time blocks to bound peak memory
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


def sphere_grid(n: int, resolution=None) -> SphereGrid:
    """Build the sampling grid used for cylinders in dimension n >= 2.

    n == 2 uses ``resolution`` uniform angles (default 128); n == 3 a
    latitude-longitude grid resolution x resolution/2 with latitudes offset
    from the poles (default 64 x 32); n >= 4 falls back to ``resolution``
    quasi-random unit vectors (default 4096) with Householder-completed
    tangent bases.  The quasi-random points come from a Halton sequence with
    the fixed seed 0, so every grid is a function of (n, resolution) alone.
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
    sampler = qmc.Halton(d=n, seed=0)
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


@dataclass(frozen=True)
class FluxReport:
    boundary_value: float  # A_c, the same at every level c
    spread: float          # spread of the primitive over the top boundary
    relflux: float


def cylinder_mesh(traj: GeodesicTrajectory, level: float,
                  sphere_resolution=None) -> CylinderMesh:
    """Mesh the level-set cylinder of a trajectory with negative coefficients.

    The time grid is the trajectory grid; boundary containment in the two
    endpoint planes is verified at build time.  Time tangents come from the
    flow equations at each sample, not from differences of the nodes.
    """
    chart = level_set_chart(traj.spec.coefficients, level)
    grid = sphere_grid(traj.spec.n, sphere_resolution)
    directions = traj.spec.frame_directions()
    w, dw = traj.flow_factors()

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
    """(slice, v) per TIME_CHUNK samples; v[k, i], coordinate i of tangent k
    (sphere tangents, then time), is an (N,) vector over the chunk's nodes."""
    for start in range(0, mesh.points.shape[0], TIME_CHUNK):
        sl = slice(start, start + TIME_CHUNK)
        sphere = mesh.sphere_tangents[sl]
        v = np.empty((mesh.n, mesh.n) + sphere.shape[:2], dtype=complex)
        v[:-1] = sphere.transpose(2, 3, 0, 1)
        v[-1] = mesh.time_tangents[sl].transpose(2, 0, 1)
        yield sl, v.reshape(mesh.n, mesh.n, -1)


def _dot(x, y):
    """sum_i conj(x_i) y_i of batch-last vectors, node by node."""
    return np.einsum("i...,i...->...", x.conj(), y)


def _det(v):
    """det v by Laplace expansion along the rows: the minors of rows 0..r on
    each column subset reuse those of rows 0..r-1 (n 2^(n-1) products)."""
    n = v.shape[0]
    minors = {(c,): v[0, c] for c in range(n)}
    for row in range(1, n):
        minors = {cols: sum((-1) ** (row + k) * v[row, c] * minors[cols[:k] + cols[k + 1:]]
                            for k, c in enumerate(cols))
                  for cols in itertools.combinations(range(n), row + 1)}
    return minors[tuple(range(n))]


def verify_slag(mesh: CylinderMesh) -> SlagReport:
    """Calibration residuals over every node; no thresholding here.

    With V the (sphere..., time)-ordered tangent frame, omega is Im of the Gram
    matrix V^H V, from its n(n+1)/2 vector products, and Omega = det V by
    Laplace expansion; the orientation sign makes Im Omega predominantly
    positive and is reported alongside.  Re Omega cannot see a wrong theta
    history (module docstring).  The chunk folds use np.maximum and
    np.minimum, so a NaN anywhere reaches the report.
    """
    max_omega = max_re = 0.0
    im_values_min, im_values_max, min_rank_ratio = math.inf, -math.inf, math.inf
    for _, v in _frame_chunks(mesh):
        hadamard = 1.0  # multiply norms, not squares: a product of squares underflows sooner
        for a in range(mesh.n):
            hadamard = hadamard * np.sqrt(_dot(v[a], v[a]).real)
            for b in range(a + 1, mesh.n):
                max_omega = np.maximum(max_omega, np.max(np.abs(_dot(v[a], v[b]).imag)))
        det = _det(v)
        max_re = np.maximum(max_re, np.max(np.abs(det.real)))
        im_values_min = np.minimum(im_values_min, det.imag.min())
        im_values_max = np.maximum(im_values_max, det.imag.max())
        # |Omega| against the Hadamard bound: scale-free rank test
        min_rank_ratio = np.minimum(min_rank_ratio, np.min(np.abs(det) / hadamard))
    if min_rank_ratio < 1e-12:
        raise DegenerateFrame("tangent frame degenerates "
                              f"(|Omega| / Hadamard bound = {min_rank_ratio:.3e})")
    orientation = 1 if im_values_max + im_values_min > 0.0 else -1
    min_im = im_values_min if orientation == 1 else -im_values_max
    return SlagReport(max_omega=float(max_omega), max_re_omega=float(max_re),
                      min_im_omega=float(min_im), orientation=orientation)


def euler_transversality(mesh: CylinderMesh) -> float:
    """Minimum angle between the radial direction and the tangent plane.

    The node e is projected onto the real span of the frame V by solving
    G x = b, G = Re V^H V and b = Re V^H e, with a Cholesky factor G = L L^T
    built column by column.  The sine is |r| / |e| for r = e - sum_k x_k v_k
    formed directly: an error in x moves |r| only at second order, while
    1 - b^T x / |e|^2 cancels to a floor near 1e-8 rad.  A pivot <= 0 means
    a rank-deficient frame; a NaN pivot carries NaN to the angle.
    """
    min_angle = math.inf
    n = mesh.n
    for sl, v in _frame_chunks(mesh):
        e = mesh.points[sl].transpose(2, 0, 1).reshape(n, -1)
        norms = np.sqrt(_dot(e, e).real)
        if norms.min() < 1e-12:
            raise OriginNode("mesh node at the origin")
        low, y, x = {}, [], [None] * n  # L by (row, column); L y = b; L^T x = y
        for j in range(n):
            pivot = _dot(v[j], v[j]).real - sum(low[j, k] ** 2 for k in range(j))
            if np.any(pivot <= 0.0):
                raise DegenerateFrame("tangent frame degenerates (Gram pivot <= 0)")
            low[j, j] = np.sqrt(pivot)
            for i in range(j + 1, n):
                gram = _dot(v[i], v[j]).real
                low[i, j] = (gram - sum(low[i, k] * low[j, k] for k in range(j))) / low[j, j]
            y.append((_dot(v[j], e).real - sum(low[j, k] * y[k] for k in range(j))) / low[j, j])
        for j in reversed(range(n)):
            x[j] = (y[j] - sum(low[k, j] * x[k] for k in range(j + 1, n))) / low[j, j]
        resid = e - sum(x[k] * v[k] for k in range(n))
        sin_angle = np.sqrt(_dot(resid, resid).real) / norms
        min_angle = np.minimum(min_angle, np.arcsin(np.clip(sin_angle, 0.0, 1.0)).min())
    return float(min_angle)


def webbing_family(traj: GeodesicTrajectory, levels, sphere_resolution=None):
    """Cylinder meshes at the requested negative levels, outermost first.

    Degree-2 homogeneity of the Hamiltonian makes the mesh at level c equal
    the mesh at level c / s^2 rescaled by s, node for node.
    """
    levels = sorted(float(c) for c in levels)  # ascending = |c| decreasing
    return [cylinder_mesh(traj, c, sphere_resolution) for c in levels]


def relflux(traj: GeodesicTrajectory, b0: float, b1: float) -> FluxReport:
    """Integrated boundary value of the level-family deformation primitive.

    For each level c, the deformation field v = d Phi_c / dc is paired with
    the time tangent through omega; the t-integral from the bottom boundary
    gives a primitive that must be constant on the top boundary, whose value
    is A_c.  The result is -integral A_c dc over [b0, b1].  As Phi_c =
    sqrt|c| Phi_-1, the field is exactly v = Phi_c / (2c), and its pairing,
    so A_c, is the same at every level.  At c = -1 the pairing is
    sum_j kappa_j(p)^2 Im(conj(w_j) dw_j/dt), and the t-integral is taken
    per direction before the sum over j, so only (T, n) and (P, n) arrays
    are held.
    """
    if not (b0 <= b1 < 0.0):
        raise SignError("need b0 <= b1 < 0")
    chart = level_set_chart(traj.spec.coefficients, -1.0)
    kappa = sphere_grid(traj.spec.n).points * chart.semi_axes
    w, dw = traj.flow_factors()
    rates = np.trapezoid((w.conj() * dw).imag, traj.times, axis=0)    # (n,)
    u_top = (kappa**2 @ rates) / (2.0 * chart.level)
    spread = float(u_top.max() - u_top.min())
    if spread > FLUX_SPREAD_TOL:
        raise InconsistentBoundary(f"primitive varies by {spread:.3e} on the top boundary")
    boundary_value = float(u_top.mean())
    return FluxReport(boundary_value=boundary_value, spread=spread,
                      relflux=-float(b1 - b0) * boundary_value)


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

def _mesh_header(mesh: CylinderMesh):
    return ([f"s_{i + 1}" for i in range(mesh.sphere.params.shape[1])] + ["t"]
            + [f"{part}_z{j + 1}" for j in range(mesh.n) for part in ("re", "im")])


def write_mesh_csv(mesh: CylinderMesh, path) -> None:
    """One row per node, time-major, 17 significant digits.

    Each node's parameter prefix is formatted once; each time slice is then
    a single ``%`` call over its re/im columns, written as it is formatted.
    """
    heads = ["".join(f"{v:.17g}," for v in row) for row in mesh.sphere.params.tolist()]
    columns = ",%.17g" * (2 * mesh.n) + "\n"
    # (T, P, n) complex viewed as (T, P * 2n) floats: re_z1, im_z1, re_z2, ...
    values = np.ascontiguousarray(mesh.points).view(np.float64).reshape(len(mesh.points), -1)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_mesh_header(mesh)) + "\n")
        for t, row in zip(mesh.trajectory.times.tolist(), values):
            tail = f"{t:.17g}{columns}"  # row p of the slice is heads[p] + tail
            fh.write((tail.join(heads) + tail) % tuple(row.tolist()))


def read_mesh_csv(path, mesh: CylinderMesh) -> None:
    """Require the mesh CSV at path to hold exactly write_mesh_csv's header and
    rows of mesh, bit for bit; ValueError if not.  Rows are parsed and
    compared TIME_CHUNK slices at a time."""
    params, times = mesh.sphere.params, mesh.trajectory.times
    chunks = (slice(start, start + TIME_CHUNK) for start in range(0, len(times), TIME_CHUNK))
    blocks = (np.column_stack([np.tile(params, (len(times[sl]), 1)),
                               np.repeat(times[sl], len(params)),
                               np.ascontiguousarray(mesh.points[sl]).view(np.float64)
                               .reshape(-1, 2 * mesh.n)]) for sl in chunks)
    with open(path, "r", encoding="utf-8") as fh:
        _check_csv_rows(fh, _mesh_header(mesh), blocks, "mesh CSV rows differ from the rebuild")
