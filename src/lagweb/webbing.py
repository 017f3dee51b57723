"""Cylinders swept by level sets of the flow Hamiltonian, and their checks.

For a flow with coefficients a_j < 0, the level set {sum a_j x_j^2 = c},
c < 0, is the ellipsoid with semi-axes sqrt(c / a_j).  Carrying it along the
flow gives the immersion

    Phi(p, t) = sum_j kappa_j(p) w_j(t) u_j = U diag(w(t)) kappa(p),
    w_j = sqrt(g_j) e^{i th_j},   kappa_j(p) = sqrt(c / a_j) p_j,   p in S^{n-1},

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
coordinate (which the continuum immersion makes harmonic).

A mesh holds its factors: the trajectory (so w and dw/dt), the chart and the
sphere grid (so kappa and the sphere tangents kappa_tan), and U.  Its node
and tangent arrays are formed only when read.  Every tangent is U diag(w)
times a real vector in p, or times diag(dw/w) kappa for the time tangent,
so each check is a sum over j of a factor in p times a factor in t: one
(T x n)(n x P) product per quantity, taken one time chunk at a time, with no
array of the mesh formed (the closed form).  For Omega the whole time
factor det U prod_k w_k d_j, d = dw / w, is folded once per mesh, and the
sphere factor c_j = kappa_j N_j is real, so a chunk's Re Omega and Im Omega
are one real product of the stacked real and imaginary halves of the time
factor with c.  A mesh given any array by its caller, such as tangents
differenced from the nodes, is checked by the node
sweep over those arrays instead, the oracle that the closed form is tested
against: LAPACK per node frame, with det for Omega, the Gram matrix for omega
and the Hadamard bound, and a QR factor for the radial projection, whose
residual is formed directly.  It shares no code with the closed form, so a
wrong cofactor there shows as a disagreement.  The mesh CSV writer and
reader form a factored mesh's nodes one block of time slices at a time, and
the harmonic residual reads the metric one time chunk at a time with a
two-row halo, so no pass holds an array of the whole mesh.  Every such block
is whole time rows of about CSV_BLOCK values or node-samples, whatever the
node count P (``csvtext.block_rows``; at least 16 rows for the harmonic
halo), so peak memory is set by that one budget, not by T x P.  The mesh
CSV's header and blocks are made here, each block a time-slice range whose
nodes and text are formed only by the process that writes or checks it
(``csvtext``, which owns the text), and by no BLAS call.  A block's nodes,
like CylinderMesh.points, are formed in two steps (_slice_points): kappa_j
w_j by numpy's complex multiply, then the sum over j of those times u_ij by
a two-operand einsum.  That is the three-operand einsum's arithmetic, term
for term and in the same order, in about half its time.  kappa has
no imaginary part, whose products are exact zeros, so a complex multiply
that fuses them into an add in SIMD rounds as the einsum does.

The closed form takes one of two paths per check and time chunk: the
chunk's scalars settle it, or it runs the reference expression on every
node.  Each squared norm and sine term is a sum of non-negative products,
so the column maxima and minima of its (T x n) and (n x P) factors bound
it (_chunk_bounds, with a relative 1e-9 rounding slack).  With Im Omega of
one sign in the chunk, its least |Im Omega| squared above 1e-24 (1 + 1e-9)
x the product of the squared norms' top bounds passes every frame's rank
test, with no E_t or E_a array (_rank_settled).  With bounds inside
[2^-500, 2^500], where squares and products keep full precision, the sines
are screened on their squares, and hypot runs only at the nodes within a
relative 1e-11 of the chunk's smallest (_closed_sines).  The forms round
apart by a few ulps, far inside those margins, so the scalars choose a
path and never a value, and every reported value and message keeps its
bits.  The angle check also skips whole groups of chunks, whose lower
bounds of sin^2, from the same factor bounds, top the smallest sin^2 that
it has screened (_sine_bounds): their sines exceed the minimum by a
relative 1e-9, and a group that holds a NaN or a node at the origin is
always visited.

The boundary-flux check uses the exact level-family deformation field
Phi_c / (2c), as Phi_c = sqrt|c| Phi_-1; with the u_j orthonormal its
pairing with the time tangent is sum_j kappa_j^2 Im(conj(w_j) dw_j/dt), so
it reads the flow factors and builds no cylinder.  The quasi-random sphere
of n >= 4 makes its Halton points here and takes their normal quantiles
from the standard library's ``statistics.NormalDist`` (Wichura's AS241),
so no lagweb process imports scipy.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import csvtext
from .errors import LagwebError
from .geoflow import GeodesicTrajectory

BOUNDARY_TOL = 1e-8
RANK_TOL = 1e-12  # least |Omega| / Hadamard bound of a tangent frame
# a chunk passes the rank test if its least |Im Omega|^2 tops this x its top squared norms
RANK_SCREEN = RANK_TOL**2 * (1.0 + 1e-9)
FLUX_SPREAD_TOL = 1e-4
MIN_SPHERE_RESOLUTION = 4


@dataclass(frozen=True, eq=False)
class LevelSetChart:
    """Ellipsoid level set {sum a_j x_j^2 = c} with its semi-axes."""

    level: float
    semi_axes: np.ndarray


def level_set_chart(coefficients, level: float) -> LevelSetChart:
    """The level set of the flow Hamiltonian at a negative level.  ValueError
    unless every coefficient is negative and the level negative and finite,
    and for a level whose semi-axes sqrt(level / a_j) overflow a float."""
    a = np.asarray(coefficients, dtype=float)
    if np.any(a >= 0.0):
        message = "all coefficients must be negative"
        # the solver freezes each direction where the pair is not transverse at a_j = 0
        frozen = [j + 1 for j in np.flatnonzero(a == 0.0)]
        if frozen:
            message += (f"; {''.join(f'a_{j} = ' for j in frozen)}0: the pair is not transverse "
                        f"in direction{'s' if len(frozen) > 1 else ''} "
                        f"{', '.join(map(str, frozen))}")
        raise ValueError(message)
    if not math.isfinite(level):
        raise ValueError(f"level must be finite, got {level}")
    if level >= 0.0:
        raise ValueError("level must be negative")
    with np.errstate(over="ignore"):
        semi_axes = np.sqrt(level / a)
    if not np.all(np.isfinite(semi_axes)):
        raise ValueError(f"level {float(level)!r} overflows a semi-axis sqrt(level / a_j)")
    return LevelSetChart(level=float(level), semi_axes=semi_axes)


@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Discrete unit sphere with an orthonormal tangent pair per node."""

    kind: str            # "circle" | "latlong" | "quasirandom"
    params: np.ndarray   # (P, k) chart coordinates stored in mesh CSVs
    points: np.ndarray   # (P, n) unit vectors
    tangents: np.ndarray  # (P, n-1, n) orthonormal tangent directions


def _halton(m: int, d: int) -> np.ndarray:
    """The (m, d) points that scipy.stats.qmc.Halton(d=d, seed=0).random(m)
    draws, bit for bit: per dimension, the van der Corput sequence in the next
    prime base with each digit permuted (Owen's scrambling), the permutations
    shuffled in turn by default_rng(0).  Made here because importing
    scipy.stats would add about 0.7 s and 45 MB resident to the first
    n >= 4 sphere."""
    rng = np.random.default_rng(0)
    primes = (k for k in itertools.count(2) if all(k % p for p in range(2, math.isqrt(k) + 1)))
    columns = []
    for base in itertools.islice(primes, d):
        # one permutation per digit that still changes a double: base**-k > 2**-54
        perms = np.repeat(np.arange(base)[np.newaxis], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        index = np.arange(m)
        column = np.zeros(m)
        weight = 1.0 / base
        for perm in perms:
            column += perm[index % base] * weight
            index //= base
            weight /= base
        columns.append(column)
    return np.stack(columns, axis=1)


def sphere_grid(n: int, resolution=None) -> SphereGrid:
    """Build the sampling grid used for cylinders in dimension n >= 2.

    n == 2 uses ``resolution`` uniform angles (default 128); n == 3 a
    latitude-longitude grid resolution x resolution/2 with latitudes offset
    from the poles (default 64 x 32); n >= 4 falls back to ``resolution``
    quasi-random unit vectors (default 4096) with Householder-completed
    tangent bases.  The quasi-random points are the normal quantiles of a
    Halton sequence with the fixed seed 0, so every grid is a function of
    (n, resolution) alone.
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
    # imported here, so that no n <= 3 process loads statistics and what it imports
    from statistics import NormalDist

    m = 4096 if resolution is None else int(resolution)
    # the clip keeps every coordinate inside (0, 1), where inv_cdf is defined
    uniform = np.clip(_halton(m, n), 1e-12, 1.0 - 1e-12)
    gauss = np.array(list(map(NormalDist().inv_cdf, uniform.ravel().tolist()))).reshape(m, n)
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


class _Factors(NamedTuple):
    """Phi(p, t) = U diag(w(t)) kappa(p), and its tangents, in factors."""

    kappa: np.ndarray       # (P, n) real: the level set over the sphere grid
    kappa_tan: np.ndarray   # (P, n-1, n) real: its sphere tangents
    w: np.ndarray           # (T, n) complex flow factors
    dw: np.ndarray          # (T, n) complex: their rates dw/dt
    directions: np.ndarray  # (n, n) complex unitary U, column j = u_j


class _Formed:
    """A CylinderMesh array field.  It holds the array that the caller gave;
    with none given (None), form makes one from the mesh's factors on the
    first read, and it is kept."""

    def __init__(self, form):
        self.form = form

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, mesh, owner=None):
        if mesh is None:
            return None  # the field's default: no array given
        if mesh.__dict__[self.name] is not None:
            return mesh.__dict__[self.name]
        key = "_formed_" + self.name
        if key not in mesh.__dict__:
            mesh.__dict__[key] = self.form(mesh.factors)
        return mesh.__dict__[key]

    def __set__(self, mesh, value):
        mesh.__dict__[self.name] = value


_ARRAY_FIELDS = ("points", "sphere_tangents", "time_tangents")


@dataclass(frozen=True, eq=False)
class CylinderMesh:
    """Discretized immersion S^{n-1} x [0, 1] -> C^n with analytic tangents.

    The arrays are formed from the factors (trajectory, chart and sphere)
    only when read.  A mesh given none of them is checked in closed form
    from the factors; one given any goes through the node sweep over its
    arrays, the oracle."""

    trajectory: GeodesicTrajectory
    chart: LevelSetChart
    sphere: SphereGrid
    boundary_defect: float
    points: np.ndarray = _Formed(lambda f: _slice_points(f, slice(None)))  # (T, P, n)
    sphere_tangents: np.ndarray = _Formed(                                  # (T, P, n-1, n)
        lambda f: np.einsum("pmj,tj,ij->tpmi", f.kappa_tan, f.w, f.directions))
    time_tangents: np.ndarray = _Formed(                                    # (T, P, n)
        lambda f: np.einsum("pj,tj,ij->tpi", f.kappa, f.dw, f.directions))

    @property
    def n(self) -> int:
        return self.points.shape[2] if self.chart is None else len(self.chart.semi_axes)

    @property
    def factored(self) -> bool:
        """True when the caller gave no array: the checks read the factors."""
        return all(self.__dict__[name] is None for name in _ARRAY_FIELDS)

    @functools.cached_property
    def factors(self) -> _Factors:
        return _mesh_factors(self.trajectory, self.chart, self.sphere)


def _mesh_factors(traj: GeodesicTrajectory, chart: LevelSetChart, grid: SphereGrid) -> _Factors:
    w, dw = traj.flow_factors()
    return _Factors(kappa=grid.points * chart.semi_axes[np.newaxis, :],
                    kappa_tan=grid.tangents * chart.semi_axes[np.newaxis, np.newaxis, :],
                    w=w, dw=dw, directions=traj.spec.frame_directions())


def _slice_points(f: _Factors, index) -> np.ndarray:
    """The nodes of the time samples at index: kappa_j w_j by numpy's complex
    multiply, then summed over j times u_ij by a two-operand einsum (no
    BLAS call).  These are the bits of einsum("pj,tj,ij->tpi", kappa, w, U),
    which forms and sums the same terms in the same order (module
    docstring); CylinderMesh.points is this at every sample."""
    return np.einsum("tpj,ij->tpi", f.kappa * f.w[index, np.newaxis, :], f.directions)


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
    endpoint planes is verified at build time, on the two end slices alone.
    Time tangents come from the flow equations at each sample, not from
    differences of the nodes.  No array is formed here.
    """
    chart = level_set_chart(traj.spec.coefficients, level)
    grid = sphere_grid(traj.spec.n, sphere_resolution)
    f = _mesh_factors(traj, chart, grid)
    defect = 0.0
    for idx, points in zip((0, -1), _slice_points(f, [0, -1])):
        plane = f.directions * np.exp(1j * traj.theta[idx])[np.newaxis, :]
        defect = np.maximum(defect, np.max(np.abs((points @ plane.conj()).imag)))
    if not defect <= BOUNDARY_TOL:  # so a NaN slice fails too
        raise LagwebError(f"boundary slice left its plane (defect {defect:.3e})")
    mesh = CylinderMesh(trajectory=traj, chart=chart, sphere=grid, boundary_defect=float(defect))
    mesh.__dict__["factors"] = f  # where the cached property keeps them: built once
    return mesh


def boundary_containment(mesh: CylinderMesh, frame, end: int) -> float:
    """sup |Im(F^H Phi)| over the t = end slice against a given plane frame."""
    idx = 0 if end == 0 else -1
    slice_points = _slice_points(mesh.factors, [idx])[0] if mesh.factored else mesh.points[idx]
    return float(np.max(np.abs((slice_points @ frame.columns.conj()).imag)))


def _time_chunks(t_count: int, p_count: int):
    """The check chunks of a T x P grid: whole time rows of about
    CSV_BLOCK node-samples each."""
    rows = csvtext.block_rows(p_count)
    return (slice(start, start + rows) for start in range(0, t_count, rows))


def _abs2(z):
    return (z.conj() * z).real


def _frame_chunks(mesh: CylinderMesh):
    """(slice, V) per time chunk; V[t, p] is the (n, n) frame of node p at
    sample t, its rows the sphere tangents, then the time tangent."""
    for sl in _time_chunks(*mesh.time_tangents.shape[:2]):
        yield sl, np.concatenate([mesh.sphere_tangents[sl],
                                  mesh.time_tangents[sl, :, np.newaxis]], axis=2)


def _cofactors(v):
    """C_j with det [v; y] = sum_j y_j C_j, for the n - 1 rows of v over n
    columns, by Laplace expansion along the rows: the minors of rows 0..r on
    each column subset reuse those of rows 0..r-1 (n 2^(n-1) products)."""
    n = v.shape[1]
    minors = {(c,): v[0, c] for c in range(n)}
    for row in range(1, n - 1):
        minors = {cols: sum((-1) ** (row + k) * v[row, c] * minors[cols[:k] + cols[k + 1:]]
                            for k, c in enumerate(cols))
                  for cols in itertools.combinations(range(n), row + 1)}
    return [(-1) ** (n - 1 + j) * minors[tuple(c for c in range(n) if c != j)] for j in range(n)]


def _normal(f: _Factors) -> np.ndarray:
    """(P, n) cofactor normal N of the sphere tangents kappa_tan: the
    factor in p of det [kappa_tan; y] = sum_j y_j N_j."""
    return np.stack(_cofactors(f.kappa_tan.transpose(1, 2, 0)), axis=1)


def _swept_calibration(mesh: CylinderMesh):
    """(sup |omega|, sup |Re Omega|, min Im Omega, max Im Omega, min rank
    ratio) per time chunk from the frame arrays, one LAPACK call per frame:
    omega is Im of the Gram matrix V V^H off its diagonal, Omega = det V,
    and the Hadamard bound is the product of the tangent norms on that
    diagonal (norms, not squares: squares underflow sooner).  det sets the
    invalid flag on a NaN frame, whose NaN goes on to the report."""
    upper = np.triu_indices(mesh.n, 1)
    for _, v in _frame_chunks(mesh):
        gram = v @ v.conj().swapaxes(-1, -2)
        with np.errstate(invalid="ignore"):
            det = np.linalg.det(v)
        hadamard = np.sqrt(np.diagonal(gram, axis1=-2, axis2=-1).real).prod(axis=-1)
        yield (np.max(np.abs(gram.imag[..., upper[0], upper[1]])), np.max(np.abs(det.real)),
               det.imag.min(), det.imag.max(), _rank_ratio(np.abs(det), hadamard))


def _rank_ratio(size, hadamard):
    """The chunk's smallest size / hadamard, size being |Omega| and hadamard
    the Hadamard bound at each node: the scale-free rank test, folded with
    fmin, which skips NaN, so a NaN frame cannot hide a degenerate one; a
    frame with a zero tangent has bound 0 and counts as ratio 0, not 0 / 0."""
    ratio = np.divide(size, hadamard, out=np.zeros_like(hadamard), where=hadamard != 0.0)
    return np.fmin.reduce(ratio, axis=None)


def _in_range(values):
    """True when every value lies in [2^-500, 2^500], so no NaN: a product
    of two such values is a normal double and keeps its full relative
    precision, as does a square."""
    return 2.0**-500 <= values.min() and values.max() <= 2.0**500


def _sup_abs(x):
    """max |x| with no |x| array; + 0.0 makes a -0.0 maximum np.abs's +0.0,
    and a NaN stays."""
    return max(x.max(), -x.min()) + 0.0


BOUND_SLACK = 1e-9  # relative rounding slack of a factor bound (_chunk_bounds)


def _chunk_bounds(time_factor, sphere_factor, starts):
    """(low, top) per time chunk, the chunks starting at the rows starts, of
    the product time_factor @ sphere_factor of a non-negative (T x n) time
    factor and (n x X) sphere factor, from the factors alone.  Each value
    is a sum of n non-negative products, so it is at most the sum over j of
    the column maxima, max_t A_tj max_x K_jx, and at least min_tj A_tj
    times the least column sum min_x sum_j K_jx.  The slack, a relative
    BOUND_SLACK each way, covers the 2n + 2 ulps by which the product, in
    any summation order, and its bound may round apart, for any n below
    10^6, and the subnormal terms of a value whose bounds lie within
    2^+-500, where the guards use them.  A NaN or inf factor makes the
    bounds NaN or inf, which no guard accepts.

    numpy folds a short axis slowly, so each is folded as elementwise
    passes over the long one: the time factor's row minima as n - 1
    np.minimum passes over its columns, and the sphere factor's row maxima
    and node sums on one contiguous copy, whose sums add j in order."""
    sphere_factor = np.ascontiguousarray(sphere_factor)
    top = np.maximum.reduceat(time_factor, starts, axis=0) @ sphere_factor.max(axis=1)
    row_min = functools.reduce(np.minimum, time_factor.T)
    low = np.minimum.reduceat(row_min, starts) * sphere_factor.sum(axis=0).min()
    return low * (1.0 - BOUND_SLACK), top * (1.0 + BOUND_SLACK)


def _rank_settled(im_min, im_max, time_low, time_top, sphere_low, sphere_top, n):
    """True when a closed-form chunk's scalars show that every frame has
    |Omega| / Hadamard bound >= RANK_TOL in _rank_ratio, so that no E_t or
    E_a array need be formed.  E_t lies in [time_low, time_top] and every
    E_a in [sphere_low, sphere_top] (_chunk_bounds); with all of them inside
    [2^(-500/n), 2^(500/n)], every partial product below stays normal and
    keeps its relative precision.  Where Im Omega keeps one sign in the
    chunk, |Omega| >= least, its least |Im Omega|, and a frame's bound
    sqrt(E_t) prod_a sqrt(E_a) is at most the root of time_top
    sphere_top^(n - 1), within the 2n ulps of its roots and products.  So
    least^2 > 1e-24 (1 + 1e-9) time_top sphere_top^(n - 1), as rounded
    here, puts every ratio at least RANK_TOL (1 + 5e-10) less (3n + 4)
    ulps, above RANK_TOL for any n below 10^6.  A NaN settles nothing."""
    lo, hi = 2.0 ** -(500 // n), 2.0 ** (500 // n)
    if not (lo <= time_low and lo <= sphere_low and time_top <= hi and sphere_top <= hi):
        return False
    least = im_min if im_min > 0.0 else -im_max if im_max < 0.0 else 0.0
    bound = RANK_SCREEN * time_top
    for _ in range(n - 1):
        bound *= sphere_top
    return least * least > bound


def _closed_calibration(mesh: CylinderMesh):
    """The same per time chunk from the factors, each a (T x n)(n x P)
    product.  With c_j = kappa_j N_j and d = dw / w = conj(w) dw / |w|^2,
    Omega = sum_j (det U prod_k w_k d_j) c_j: the whole time factor e =
    det U prod_k w_k d is folded once per mesh, a (T x n) complex array, and
    c stays real, so a chunk's Re Omega and Im Omega are one real product
    of its stacked halves [Re e; Im e] with c, and no complex (T, P) array
    is formed.  Re Omega and Im Omega are folded over the product's two
    contiguous halves.  omega is Im of a real sum on two sphere tangents, so
    0, and sum_j kappa_tan,aj kappa_j Im(conj(w_j) dw_j) on sphere tangent a
    and the time tangent.  The squared tangent norms are E_t = sum_j
    kappa_j^2 |dw_j|^2 and E_a = sum_j kappa_tan,aj^2 |w_j|^2.

    The rank test is settled from the chunk's Im Omega fold and the column
    bounds of those two products (_rank_settled), with no (T, P) array of
    E_t or E_a.  A chunk that this leaves open, because Im Omega changes
    sign or is NaN in it, a bound leaves the range, or a frame may come
    near RANK_TOL, forms |Omega| = hypot(Re Omega, Im Omega) and the
    Hadamard bound sqrt(E_t) prod_a sqrt(E_a) at every node for
    _rank_ratio.  The time factors are formed once per mesh."""
    f, m = mesh.factors, mesh.n - 1
    c = (f.kappa * _normal(f)).T                                     # (n, P)
    pairs = (f.kappa_tan * f.kappa[:, np.newaxis, :]).reshape(-1, m + 1).T  # (n, P m)
    sphere_sq = (f.kappa_tan**2).reshape(-1, m + 1).T
    kappa_sq = (f.kappa**2).T
    g, rate, dw_sq = _abs2(f.w), f.w.conj() * f.dw, _abs2(f.dw)
    d = rate * (1.0 / g)
    e = (np.linalg.det(f.directions) * np.prod(f.w, axis=1))[:, np.newaxis] * d  # (T, n)
    chunks = list(_time_chunks(len(f.w), len(f.kappa)))
    starts = [sl.start for sl in chunks]
    bounds = zip(*_chunk_bounds(dw_sq, kappa_sq, starts), *_chunk_bounds(g, sphere_sq, starts))
    for sl, chunk_bounds in zip(chunks, bounds):
        re, im = np.split(np.concatenate([e.real[sl], e.imag[sl]]) @ c, 2)
        im_min, im_max = im.min(), im.max()
        if _rank_settled(im_min, im_max, *chunk_bounds, m + 1):
            ratio = math.inf
        else:
            hadamard = np.sqrt(dw_sq[sl] @ kappa_sq)
            sphere = np.sqrt(g[sl] @ sphere_sq).reshape(len(re), -1, m)
            for a in range(m):
                hadamard = hadamard * sphere[..., a]
            ratio = _rank_ratio(np.hypot(re, im), hadamard)
        yield _sup_abs(rate[sl].imag @ pairs), _sup_abs(re), im_min, im_max, ratio


def verify_slag(mesh: CylinderMesh) -> SlagReport:
    """Calibration residuals over every node; no thresholding here.

    With V the (sphere..., time)-ordered tangent frame: sup |omega| over
    tangent pairs, sup |Re Omega| and inf Im Omega for Omega = det V, in
    closed form from the factors, or by the node sweep over a mesh's given
    arrays.  The orientation sign makes Im Omega predominantly positive and
    is reported alongside.  Re Omega cannot see a wrong theta history (module
    docstring).  The closed form takes Omega = sum_j (det U prod_k w_k d_j)
    c_j, the time factor folded once per mesh, so each node's Re Omega and
    Im Omega are real dot products of length n, one real product per chunk
    for both halves.  It settles the rank test of a chunk from its Im Omega
    fold and factor bounds, or forms |Omega| and the Hadamard bound at every
    node of it (_closed_calibration).  The chunk folds use np.maximum and
    np.minimum, so a NaN anywhere reaches the report.  The rank ratio alone
    is folded with fmin, which skips NaN, so a NaN frame cannot hide a
    degenerate one elsewhere.
    """
    chunks = _closed_calibration(mesh) if mesh.factored else _swept_calibration(mesh)
    max_omega = max_re = 0.0
    im_values_min, im_values_max, min_rank_ratio = math.inf, -math.inf, math.inf
    for omega, re_omega, im_min, im_max, rank_ratio in chunks:
        max_omega = np.maximum(max_omega, omega)
        max_re = np.maximum(max_re, re_omega)
        im_values_min = np.minimum(im_values_min, im_min)
        im_values_max = np.maximum(im_values_max, im_max)
        min_rank_ratio = np.fmin(min_rank_ratio, rank_ratio)
    if min_rank_ratio < RANK_TOL:
        raise LagwebError("tangent frame degenerates "
                          f"(|Omega| / Hadamard bound = {min_rank_ratio:.3e})")
    orientation = 1 if im_values_max + im_values_min > 0.0 else -1
    min_im = im_values_min if orientation == 1 else -im_values_max
    return SlagReport(max_omega=float(max_omega), max_re_omega=float(max_re),
                      min_im_omega=float(min_im), orientation=orientation)


def _swept_sines(mesh: CylinderMesh):
    """sin of the radial angle per node of each time chunk, from the arrays.

    Each frame, as n columns a_k in R^2n (real parts over imaginary parts),
    is factored A = Q R by one LAPACK QR per frame.  The sine is |r| / |e|
    for the node e and r = e - Q Q^T e formed directly.  |R_kk| is the
    distance of a_k from the span of the columns before it, so a frame with
    |R_kk| <= 1e-12 |a_k| is rank-deficient, whatever its scale: for a_k in
    that span, rounding leaves R_kk near 1e-16 |a_k|, not 0.  A NaN R_kk
    fails the test and carries NaN to the angle.
    """
    for sl, v in _frame_chunks(mesh):
        points = mesh.points[sl]
        e = np.concatenate([points.real, points.imag], axis=-1)[..., np.newaxis]
        norms = np.linalg.norm(e[..., 0], axis=-1)
        if np.fmin.reduce(norms, axis=None) < 1e-12:
            raise LagwebError("mesh node at the origin")
        frames = np.concatenate([v.real, v.imag], axis=-1).swapaxes(-1, -2)
        q, r = np.linalg.qr(frames)
        pivots = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
        if np.any(pivots <= 1e-12 * np.linalg.norm(frames, axis=-2)):
            raise LagwebError("tangent frame degenerates (QR pivot <= 1e-12 |tangent|)")
        resid = e - q @ (q.swapaxes(-1, -2) @ e)
        yield np.linalg.norm(resid[..., 0], axis=-1) / norms


def _sines(delta, q, e, r, b):
    """sin = Delta sqrt(Q) / (|Phi| hypot(R, sqrt(B) sqrt(Q))) elementwise,
    in the names of _closed_sines: no square overflows."""
    root_q = np.sqrt(q)
    return delta * root_q / (np.sqrt(e) * np.hypot(r, np.sqrt(b) * root_q))


def _sines_in_range(delta_sq, e, q, b, r, starts):
    """Per time chunk, True when Delta^2 and the factor bounds of E, Q, B
    and R^2 + B Q lie in [2^-500, 2^500], so that every value of the
    chunk's arrays does (_closed_sines).  e, q, b and r are the (time,
    sphere) factor pairs of E, Q, B and of the bound on |R|."""
    (e_low, e_top), (q_low, q_top), (b_low, b_top), (_, r_top) = (
        _chunk_bounds(*pair, starts) for pair in (e, q, b, r))
    low = np.minimum.reduce([e_low, q_low, b_low, b_low * q_low])
    top = np.maximum.reduce([e_top, q_top, b_top, r_top * r_top + b_top * q_top])
    return _in_range(delta_sq) & (2.0**-500 <= low) & (top <= 2.0**500)


def _sine_groups(chunk_count: int, p_count: int):
    """The groups of consecutive check chunks that _closed_sines bounds, as
    ranges of chunk indices: at most block_rows(P) groups, so that each of
    the (groups, P) arrays of _sine_bounds holds about CSV_BLOCK values, as
    a chunk's arrays do."""
    size = -(-chunk_count // csvtext.block_rows(p_count))
    return [range(k, min(k + size, chunk_count)) for k in range(0, chunk_count, size)]


def _sine_bounds(delta_sq, kappa_sq, normal_sq, c, g, q_time, r_time, b_time, starts):
    """(bound, certified) per group of time rows, the groups starting at the
    rows starts, in the names of _closed_sines.  bound is at most sin^2 =
    Delta^2 Q / (E (R^2 + B Q)) at every node of the group, by a relative
    1e-9 at least: that is increasing in Q and decreasing in E, B and |R|,
    so each node takes Q's low bound and the top bounds of E, B and |R|.
    Q, E and B are sums of non-negative products, bounded by the group's
    column minima or maxima of the (T x n) time factor times the (n x P)
    sphere factor, with a relative BOUND_SLACK each way (as _chunk_bounds).
    R = sum_j Re d_j c_j has signed terms: it lies in the interval of that
    sum over each Re d_j's range, and the chunk's product and the
    interval's own sums, in any order, round apart by less than (3n + 2)
    ulps of sum_j max |Re d_j| |c_j|, so |R|'s bound adds BOUND_SLACK times
    that sum, which covers cancellation, for any n below 10^6.  certified
    is true when E's low bound keeps every node of the group off the origin
    (fmin, as the node guard).  A NaN or inf factor makes the bound NaN, and
    so may a bound out of range, which no group skips on: so these raise no
    floating-point warning here, and a chunk that is visited warns as before."""
    low, top = 1.0 - BOUND_SLACK, 1.0 + BOUND_SLACK
    r_low, r_top = np.minimum.reduceat(r_time, starts), np.maximum.reduceat(r_time, starts)
    c_split = np.concatenate([np.maximum(c, 0.0), np.minimum(c, 0.0)])  # (2n, P)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = np.maximum(np.concatenate([r_top, r_low], axis=1) @ c_split,
                       -(np.concatenate([r_low, r_top], axis=1) @ c_split))
        r += BOUND_SLACK * (np.maximum(r_top, -r_low) @ np.abs(c))
        q = (np.minimum.reduceat(q_time, starts) @ kappa_sq) * low
        denominator = r * r
        denominator += (np.maximum.reduceat(b_time, starts) @ normal_sq) * top * q
        denominator *= (np.maximum.reduceat(g, starts) @ kappa_sq) * top
        square = delta_sq * q
        square /= denominator
        e_low = (np.minimum.reduceat(g, starts) @ kappa_sq) * low
    return square.min(axis=1), np.sqrt(np.fmin.reduce(e_low, axis=1)) >= 1e-12


def _closed_sines(mesh: CylinderMesh):
    """The same sines from the factors.  U and the phases e^{i theta} are
    isometries, so the node becomes the real vector sqrt(g) kappa, the sphere
    tangents sqrt(g) kappa_tan and the time tangent sqrt(g) d kappa.  Their
    real span has sin^2 = Delta^2 Q / (E (R^2 + B Q)) to the node, with
    Delta = |sum c_j|, R = sum c_j Re d_j, B = sum N_j^2 / g_j,
    Q = sum kappa_j^2 g_j (Im d_j)^2 and E = sum kappa_j^2 g_j = |Phi|^2.

    Two paths per chunk.  Only the smallest sine is kept, so a chunk whose
    scalars allow it is screened on that square, and the sine itself, with
    its libm hypot (_sines), is taken only at the nodes whose square lies
    within a relative 1e-11 of the chunk's smallest.  The two forms round
    apart by a few ulps, so the node of the smallest sine is always among
    them; any arcsin within a few ulps of monotone then gives
    euler_transversality the same minimum.  The screen needs Delta^2, Q,
    E, B, R^2 + B Q and the smallest square in [2^-500, 2^500], where the
    squares and products keep full relative precision: Delta^2 is checked
    once per mesh, and Q, E, B and R^2 + B Q per chunk from their factor
    bounds (_chunk_bounds; |R| <= sum_j max |Re d_j| max |c_j|, and
    rounding is monotone on R^2 + B Q), with no (T, P) array.  Any other
    chunk, so also one that holds a NaN, takes the sines of every node,
    where the NaN then reaches the sine.

    Most chunks need neither path: the chunks are bounded in groups
    (_sine_groups), and each group's _sine_bounds give a lower bound of
    sin^2 at every node, less a relative 1e-9, and a certificate that no
    node is at the origin.  The groups are visited in ascending order of
    bound, and a group is skipped whole when its bound, in [2^-500, 2^500],
    strictly tops `smallest`, the least square of the screened chunks so
    far, and its certificate holds.  A group whose chunks' screens are not
    all in range gets a NaN bound, so it is never skipped: in range, each
    Q, E, B and R of the group keeps its relative precision within its
    bounds, and every sine that the group would yield exceeds the sine of
    the node of `smallest` by a relative 1e-9 less a few ulps, far more than
    arcsin's rounding; that node's sine is among those its screened chunk
    yields.  A NaN node makes the bound NaN, and a node at the origin fails
    the certificate, so each chunk that would yield a NaN or raise is
    visited.  Every visited chunk runs the two paths above.

    Yields (chunk index, sines) in the order visited, with None for the
    sines of a skipped chunk."""
    f = mesh.factors
    normal = _normal(f)
    c = f.kappa * normal
    delta = np.abs(c.sum(axis=1))
    delta_sq = delta**2
    c, normal_sq, kappa_sq = c.T, (normal**2).T, (f.kappa**2).T
    g, rate = _abs2(f.w), f.w.conj() * f.dw  # g d = rate
    q_time, r_time, b_time = rate.imag**2 / g, rate.real / g, 1.0 / g
    chunks = list(_time_chunks(len(f.w), len(f.kappa)))
    factors_in_range = _sines_in_range(
        delta_sq, (g, kappa_sq), (q_time, kappa_sq), (b_time, normal_sq),
        (np.abs(r_time), np.abs(c)), [sl.start for sl in chunks])
    groups = _sine_groups(len(chunks), len(f.kappa))
    firsts = [group.start for group in groups]
    bounds, certified = _sine_bounds(delta_sq, kappa_sq, normal_sq, c, g, q_time, r_time,
                                     b_time, [chunks[k].start for k in firsts])
    bounds[~np.logical_and.reduceat(factors_in_range, firsts)] = math.nan
    smallest = math.inf
    for k in np.argsort(bounds, kind="stable"):
        if 2.0**-500 <= bounds[k] <= 2.0**500 and bounds[k] > smallest and certified[k]:
            yield from ((i, None) for i in groups[k])
            continue
        for i in groups[k]:
            sl = chunks[i]
            e = g[sl] @ kappa_sq
            # the node guard on |Phi| = sqrt(E): a correctly rounded sqrt is
            # monotone, and fmin skips a NaN, so a NaN node hides no other
            if np.sqrt(np.fmin.reduce(e, axis=None)) < 1e-12:
                raise LagwebError("mesh node at the origin")
            q, r, b = q_time[sl] @ kappa_sq, r_time[sl] @ c, b_time[sl] @ normal_sq
            inner = r * r
            inner += b * q
            square = delta_sq * q
            square /= e * inner
            least = square.min()
            if factors_in_range[i] and least >= 2.0**-500:
                smallest = min(smallest, least)
                near = np.flatnonzero(square <= least * (1.0 + 1e-11))
                yield i, _sines(delta[near % len(delta)], *(x.ravel()[near] for x in (q, e, r, b)))
            else:
                yield i, _sines(delta, q, e, r, b)


def euler_transversality(mesh: CylinderMesh) -> float:
    """Minimum angle between the radial direction and the real span of the
    tangent frame, in closed form from the factors, or by the node sweep
    over a mesh's given arrays.  The closed form yields the sines of only
    the nodes that can hold the minimum, and skips the groups of chunks
    whose bounds show that they cannot (_closed_sines).  The chunks' minima
    are folded in chunk order, so the order in which the groups are visited
    moves no bit, not even a NaN's."""
    chunks = _closed_sines(mesh) if mesh.factored else enumerate(_swept_sines(mesh))
    angles = {i: np.arcsin(np.clip(sines, 0.0, 1.0)).min()
              for i, sines in chunks if sines is not None}
    min_angle = math.inf
    for i in sorted(angles):
        min_angle = np.minimum(min_angle, angles[i])
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

    The value is an identity of the flow equations, which no finite
    (g, theta) history can fail: dw/dt comes from them, so Im(conj(w_j)
    dw_j/dt) = g_j dtheta_j/dt = -2 a_j, the pairing is -2c at every node
    and time, and relflux is b1 - b0 (run forward in time) whatever g and
    theta hold.  A NaN in the history makes the spread NaN, which fails.
    """
    if not (b0 <= b1 < 0.0):
        raise ValueError("need b0 <= b1 < 0")
    chart = level_set_chart(traj.spec.coefficients, -1.0)
    kappa = sphere_grid(traj.spec.n).points * chart.semi_axes
    w, dw = traj.flow_factors()
    rates = np.trapezoid((w.conj() * dw).imag, traj.times, axis=0)    # (n,)
    u_top = (kappa**2 @ rates) / (2.0 * chart.level)
    spread = float(u_top.max() - u_top.min())
    if not spread <= FLUX_SPREAD_TOL:  # so a NaN history fails too
        raise LagwebError(f"primitive varies by {spread:.3e} on the top boundary")
    boundary_value = float(u_top.mean())
    return FluxReport(boundary_value=boundary_value, spread=spread,
                      relflux=-float(b1 - b0) * boundary_value)


def _metric(mesh: CylinderMesh, rows: slice):
    """E, F, G of the induced metric of an n = 2 mesh on the time rows, each
    (rows, P): from the factors, sum_j kappa_tan,j^2 |w_j|^2,
    sum_j kappa_tan,j kappa_j Re(conj(w_j) dw_j) and sum_j kappa_j^2 |dw_j|^2,
    or from the arrays."""
    if mesh.factored:
        f = mesh.factors
        w, dw, tangent = f.w[rows], f.dw[rows], f.kappa_tan[:, 0, :]
        return (_abs2(w) @ (tangent**2).T, (w.conj() * dw).real @ (tangent * f.kappa).T,
                _abs2(dw) @ (f.kappa**2).T)
    phi_s = mesh.sphere_tangents[rows, :, 0, :]
    phi_t = mesh.time_tangents[rows]
    return (np.einsum("tpi,tpi->tp", phi_s.conj(), phi_s).real,
            np.einsum("tpi,tpi->tp", phi_s.conj(), phi_t).real,
            np.einsum("tpi,tpi->tp", phi_t.conj(), phi_t).real)


def harmonic_residual(mesh: CylinderMesh, u_values=None) -> float:
    """Interior sup-norm of the discrete Laplace-Beltrami of u (default u = t).

    Surface case only (n == 2, uniform angle grid, at least 3 time samples).
    The operator is the divergence-form one for the induced metric (E, F, G
    from the analytic tangents), discretized with central differences:
    periodic in the angle, one-sided first-order at the time edges, residual taken on
    interior time rows.  The rows run in blocks of about CSV_BLOCK
    node-samples and at least 16 rows, each with a halo of two rows per
    side: a residual row reads the time fluxes of rows r - 1 .. r + 1, and
    those read u of rows r - 2 .. r + 2.  So one-sided differences fall only
    on the grid's first and last rows, and every residual keeps the bits of
    the whole-grid stencil.  No (T, P) array is formed.

    Nor is a block of the default u = t.  Its angle difference is exactly
    +0, and its time difference is one column for every node, taken once
    per grid, so its fluxes lose their zero terms: the angle flux is
    -F u_t / root and the time flux E u_t / root, up to the sign of a zero.
    As d_angle(-x) = -d_angle(x) exactly, the divergence Delta_t(E u_t /
    root) - d_angle(F u_t / root) has the magnitude of the full one, and so
    the residual its bits.  Only the rows that the residual reads are
    formed, in place in the metric's arrays, and the time difference of an
    interior row is np.gradient's (x[r + 1] - x[r - 1]) / (2 ht).  The
    zero terms G * 0 and F * 0 only carried a NaN or inf of the metric.  A
    NaN reaches det and root as well, but a G of +inf gives det = root =
    inf and finite zero fluxes; so a block whose largest det is not finite
    takes the full expression, where G * 0 makes it NaN.
    """
    if mesh.n != 2 or mesh.sphere.kind != "circle":
        raise ValueError("harmonic residual needs the n = 2 angle x time grid")
    times = mesh.trajectory.times
    t_count, p_count = len(times), len(mesh.sphere.params)
    if t_count < 3:
        raise ValueError(f"harmonic residual needs at least 3 time samples, got {t_count}")
    if u_values is not None:
        u_values = np.asarray(u_values, dtype=float)
        if u_values.shape != (t_count, p_count):
            raise ValueError(f"u grid must have shape {(t_count, p_count)}")
    hs = 2.0 * np.pi / p_count
    ht = times[1] - times[0]

    def d_angle(z):
        # z[:, k + 1] - z[:, k - 1], the angle periodic
        diff = np.empty_like(z)
        np.subtract(z[:, 2:], z[:, :-2], out=diff[:, 1:-1])
        np.subtract(z[:, 1], z[:, -1], out=diff[:, 0])
        np.subtract(z[:, 0], z[:, -2], out=diff[:, -1])
        diff /= 2.0 * hs
        return diff

    min_det, worst = math.inf, 0.0
    # d(u = t)/dt once for the grid; where a block's own np.gradient would
    # differ, on its first and last halo row, no residual reads it
    time_steps = np.gradient(times, ht) if u_values is None else None
    rows = csvtext.block_rows(p_count, least=16)  # so the two-row halos add at most a quarter
    for start in range(1, t_count - 1, rows):
        stop = min(start + rows, t_count - 1)
        lo, hi = max(start - 2, 0), min(stop + 2, t_count)
        e, f, g = _metric(mesh, slice(lo, hi))
        det = e * g - f * f
        # fmin skips NaN: a NaN row or block hides no degenerate row
        lowest = np.fmin.reduce(det, axis=None)
        min_det = np.fmin(min_det, lowest)
        if lowest < 1e-14:
            continue  # raised below, naming the smallest EG - F^2 of the grid
        root = np.sqrt(det)
        inner = slice(start - lo, stop - lo)  # the residual's rows
        if u_values is None:
            # t - t = +0 exactly, and one time difference for every node
            u_s, u_t = 0.0, time_steps[lo:hi, np.newaxis]
        else:
            u = u_values[lo:hi]
            u_s, u_t = d_angle(u), np.gradient(u, ht, axis=0)
        if u_values is None and math.isfinite(det.max()):
            # no zero terms: the time flux on rows r - 1 .. r + 1, the angle flux on r
            near = slice(inner.start - 1, inner.stop + 1)
            flux_t = e[near]
            flux_t *= u_t[near]
            flux_t /= root[near]
            flux_s = f[inner]
            flux_s *= u_t[inner]
            flux_s /= root[inner]
            div = flux_t[2:] - flux_t[:-2]
            div /= 2.0 * ht
            div -= d_angle(flux_s)
        else:
            flux_s = (g * u_s - f * u_t) / root
            flux_t = (e * u_t - f * u_s) / root
            div = (d_angle(flux_s) + np.gradient(flux_t, ht, axis=0))[inner]
        residual = div / root[inner]
        worst = np.maximum(worst, np.max(np.abs(residual)))
    if min_det < 1e-14:
        raise LagwebError(f"induced metric degenerates (EG - F^2 = {min_det:.3e})")
    return float(worst)


# --- mesh CSV (sphere_param_coords..., t, re/im of each coordinate) ---

def _mesh_header(mesh: CylinderMesh):
    return ([f"s_{i + 1}" for i in range(mesh.sphere.params.shape[1])] + ["t"]
            + [f"{part}_z{j + 1}" for j in range(mesh.n) for part in ("re", "im")])


def _mesh_blocks(mesh: CylinderMesh):
    """The mesh CSV's data rows as blocks of whole time slices of about
    CSV_BLOCK values, one callable per block, which forms the block's bytes
    when called: csvtext's writer and byte check call each block in the
    process that handles it.  The s_ and t cells are formatted once, into
    one block's prefix, whose t cells each block refills.  A factored mesh's
    nodes are formed one block at a time from its factors, bit for bit the
    rows of CylinderMesh.points; a mesh given arrays prints its own points."""
    params, times = mesh.sphere.params, mesh.trajectory.times
    heads = np.array(["".join(f"{v:.17g}," for v in row).encode() for row in params.tolist()])
    stamps = np.array([f"{t:.17g},".encode() for t in times.tolist()])
    step = csvtext.block_rows(len(params) * 2 * mesh.n)
    prefix = np.empty((len(times[:step]), len(params)), [("s", heads.dtype), ("t", stamps.dtype)])
    prefix["s"] = heads

    def rows(sl: slice) -> bytes:
        block = prefix[:len(times[sl])]
        block["t"] = stamps[sl, np.newaxis]
        points = _slice_points(mesh.factors, sl) if mesh.factored else mesh.points[sl]
        # (T, P, n) complex viewed as (T * P, 2n) floats: re_z1, im_z1, re_z2, ...
        values = np.ascontiguousarray(points).view(np.float64).reshape(-1, 2 * mesh.n)
        return csvtext.csv_rows(values, block.view(np.uint8).reshape(len(values), -1))

    return [functools.partial(rows, slice(start, start + step))
            for start in range(0, len(times), step)]


def write_mesh_csv(mesh: CylinderMesh, path) -> None:
    """One row per node, time-major, 17 significant digits ('%.17g')."""
    csvtext.write_csv(path, _mesh_header(mesh), _mesh_blocks(mesh))


def read_mesh_csv(path, mesh: CylinderMesh) -> None:
    """Require the mesh CSV at path to hold exactly the bytes that
    write_mesh_csv makes from mesh, compared one block of slices at a time;
    ValueError if not."""
    csvtext.check_csv(path, _mesh_header(mesh), _mesh_blocks(mesh),
                      "mesh CSV rows differ from the rebuild")
