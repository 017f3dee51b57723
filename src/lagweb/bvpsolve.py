"""Two-plane boundary value problem for the geodesic flow.

Given frames with Maslov index zero, find non-positive coefficients a_j
whose flow carries the start plane onto the target plane in unit time,
i.e. th_j(1; a) = beta_j.  The unknowns are one coefficient v_b < 0 per
active degeneracy block (m_b directions each); zero-angle blocks of
non-transverse pairs are frozen at a_j = 0.

Exact shooting map.  Along the flow g_j = 1 - 4 a_j S with S' = tan(phi),
and cos(phi) sqrt(prod_j g_j) = cos(phase0) is a first integral.  For a < 0
the phase rises strictly from phase0 to phase1 = phase0 + sum(beta), so the
flow is parametrised by the phase psi instead of time: S(psi) is the root of

    sum_b m_b ln(1 - 4 v_b S) = 2 ln(cos(phase0) / cos(psi)),

and with F = sum_b m_b (-2 v_b / g_b) the time and the block angles are the
quadratures

    t(psi) = int dpsi / F,        th_b(psi) = int (-2 v_b / g_b) / F dpsi

over [phase0, psi], which never leaves the chart; what v does not change
(the quadrature, ln cos psi at its nodes, the identity) is made once per
solve (``shooting_window``).  Newton in w = log(-v),
with the Jacobian differentiated under the integral, drives t(phase1) - 1
and every block th_b - beta_b but the last to zero; the last one follows,
because sum_b m_b th_b = psi - phase0 holds by construction.  The
trajectory is one RK4 integration of (S, phi) on the requested grid at that
root (geoflow).  When the grid misses the targets by more than the
tolerance, a few RK4 steps with the fixed exact time-1 Jacobian correct the
coefficients on that grid.

A priori bounds: along an admissible flow with phases inside [alpha0, alpha1],

    g_j <= max(1, e^{pi tan alpha1})         =: metric_bound
    0 < -a_j < metric_bound (alpha1 - alpha0) / 2 =: coefficient_bound,

the second following from integrating the phase speed -2 sum a_j / g_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LagwebError, NoConvergence
from .geoflow import GeodesicSpec, GeodesicTrajectory, geodesic_ivp
from .laggrass import LagrangianFrame, PairSpectrum, pair_decomposition
from .numkernel import IntegratorConfig


def _gauss_legendre(count: int):
    """Nodes and weights on [-1, 1] by Golub-Welsch; numpy.polynomial would
    add its import to every CLI call."""
    k = np.arange(1.0, count)
    nodes, vectors = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k**2 - 1.0), -1))
    return nodes, 2.0 * vectors[0] ** 2


GAUSS_NODES, GAUSS_WEIGHTS = _gauss_legendre(16)  # per panel
PANEL_RATIO = 1.6      # panels shrink by this factor toward a chart edge
NEWTON_ITERATIONS = 40
GRID_STEPS = 4         # RK4 correction steps allowed on the requested grid


@dataclass(frozen=True)
class AprioriBounds:
    """Metric and coefficient bounds of a phase window [alpha0, alpha1]."""

    metric_bound: float
    coefficient_bound: float


@dataclass(frozen=True, eq=False)
class BvpSolution:
    spectrum: PairSpectrum
    coefficients: np.ndarray        # (n,) all <= 0, negative on active blocks
    trajectory: GeodesicTrajectory
    residual_norm: float            # max_j |th_j(1) - beta_j| on the RK4 grid
    jacobian_condition: float       # of the exact time-1 shooting Jacobian
    newton_residuals: tuple         # residual norms of the exact-map Newton solve
    grid_residuals: tuple = ()      # RK4 residuals of the grid correction, if it ran
    continuation_steps: int = 0     # always 0: the solve has no continuation


def apriori_bounds(phi0: float, phi1: float) -> AprioriBounds:
    """Bounds for flows whose phase stays inside [phi0, phi1].

    phi0 == phi1 is admitted and forces the zero Hamiltonian.  When
    e^{pi tan phi1} overflows a float, both bounds are infinite.
    """
    half_pi = 0.5 * math.pi
    if not (-half_pi < phi0 <= phi1 < half_pi):
        raise ValueError(f"need -pi/2 < phi0 <= phi1 < pi/2, got ({phi0}, {phi1})")
    try:
        metric_bound = 1.0 if phi1 <= 0.0 else math.exp(math.pi * math.tan(phi1))
    except OverflowError:  # phi1 within ~4e-3 of pi/2: no finite bound
        metric_bound = math.inf
    return AprioriBounds(
        metric_bound=metric_bound,
        coefficient_bound=0.5 * metric_bound * (phi1 - phi0) if phi1 > phi0 else 0.0,
    )


def _block_average(values: np.ndarray, blocks) -> np.ndarray:
    return np.array([values[list(block)].mean() for block in blocks])


def _graded_panels(far: float, near: float) -> np.ndarray:
    """Panel ends from ``far`` to ``near``, graded geometrically toward the
    chart edge +-pi/2 on the side of ``near``."""
    edge = math.copysign(0.5 * math.pi, near)
    d_far, d_near = abs(edge - far), abs(edge - near)
    count = max(1, math.ceil(math.log(d_far / d_near) / math.log(PANEL_RATIO)))
    return edge - math.copysign(1.0, edge) * d_far * (d_near / d_far) ** (np.arange(count + 1) / count)


def phase_quadrature(phase0: float, phase1: float):
    """Composite Gauss-Legendre nodes and weights on [phase0, phase1].

    The window is split at 0, and each side is graded toward the chart edge
    it approaches.
    """
    if phase0 < 0.0 < phase1:
        ends = np.concatenate([_graded_panels(0.0, phase0)[::-1], _graded_panels(0.0, phase1)[1:]])
    elif phase1 <= 0.0:
        ends = _graded_panels(phase1, phase0)[::-1]
    else:
        ends = _graded_panels(phase0, phase1)
    ends[0], ends[-1] = phase0, phase1
    half = 0.5 * np.diff(ends)[:, np.newaxis]
    nodes = (0.5 * (ends[:-1] + ends[1:]))[:, np.newaxis] + half * GAUSS_NODES
    return nodes.ravel(), (half * GAUSS_WEIGHTS).ravel()


def _metric_factors(v: np.ndarray, mult: np.ndarray, rhs: np.ndarray):
    """(S, g) at each node: S solves sum_b m_b ln(1 - 4 v_b S) = rhs.

    In u = ln(1 - 4 v_max S), v_max the most negative coefficient, each
    g_b = (1 - rho_b) + rho_b e^u with rho_b = v_b / v_max in (0, 1] is a sum
    of positive terms, and the left side is convex and increasing in u with
    slope between that block's size and n.  Newton from any start therefore
    converges, monotonically once past the root, with no safeguard needed.
    """
    rho = v / v.min()
    rest = 1.0 - rho
    u = rhs / mult.sum()
    for _ in range(100):
        e = rho * np.exp(u)[:, np.newaxis]
        g = rest + e
        du = (np.log(g) @ mult - rhs) / ((e / g) @ mult)
        u = u - du
        if np.all(np.abs(du) <= 1e-13 * (1.0 + np.abs(u))):
            break
    else:
        raise NoConvergence("metric root did not converge")
    return -np.expm1(u) / (4.0 * v.min()), rest + rho * np.exp(u)[:, np.newaxis]


def shooting_window(phase0: float, phase1: float, blocks: int):
    """The exact map's inputs that do not depend on v, made once per solve:
    (weights, rhs, eye).  weights are the quadrature's on [phase0, phase1];
    rhs = 2 (ln cos phase0 - ln cos psi) at its nodes psi and at the end
    point ``phase0 + sum(weights)``, where the window closes; eye is the
    identity of the block count."""
    nodes, weights = phase_quadrature(phase0, phase1)
    psi = np.append(nodes, phase0 + weights.sum())
    rhs = 2.0 * (math.log(math.cos(phase0)) - np.log(np.cos(psi)))
    return weights, rhs, np.eye(blocks)


def exact_shooting_map(v, mult, window):
    """t and the block angles th_b at the end of the quadrature window.

    window is ``shooting_window``'s.  Returns (t, th, dt/dv, dth/dv, rate)
    with rate_b = dth_b/dt at the window's end point.
    """
    weights, rhs, eye = window
    s, g = _metric_factors(v, mult, rhs)
    q = -2.0 * v / g                             # (N, k) angle speeds
    f = q @ mult                                 # phase speed
    ds = 2.0 * mult * s[:, np.newaxis] / (g * f[:, np.newaxis])        # dS/dv_c
    # dq_b/dv_c = -2 delta_bc / g_b^2 - 2 q_b^2 dS/dv_c
    dq = -2.0 * (q**2)[:, :, np.newaxis] * ds[:, np.newaxis, :]
    dq -= 2.0 * eye / (g**2)[:, :, np.newaxis]
    df = np.einsum("b,nbc->nc", mult, dq)
    wf = weights / f[:-1] ** 2
    dt = -wf @ df[:-1]
    dth = np.einsum("n,nbc->bc", wf, dq[:-1] * f[:-1, np.newaxis, np.newaxis]
                    - q[:-1, :, np.newaxis] * df[:-1, np.newaxis, :])
    return weights @ (1.0 / f[:-1]), (weights / f[:-1]) @ q[:-1], dt, dth, q[-1]


def solve_exact_map(beta_block, mult, phase0, tolerance):
    """Newton in w = log(-v) on the exact map.

    Returns (v, root, history): the root; exact_shooting_map's outputs
    (t, th, dt, dth, rate) at that root, on the quadrature it was solved on,
    kept from the last accepted iterate; and the residual norm at every
    accepted iterate.  Iterates stop at or below 1e-3 * tolerance (a
    subnormal tolerance makes that 0), or below tolerance where rounding
    stops the descent.  Every iterate evaluates the map on one window.
    """
    window = shooting_window(phase0, phase0 + beta_block @ mult, mult.size)

    def residual(w):
        v = -np.exp(w)
        out = exact_shooting_map(v, mult, window)
        t, th, dt, dth, _ = out
        r = np.concatenate([[t - 1.0], th[:-1] - beta_block[:-1]])
        return r, np.vstack([dt, dth[:-1]]) * v[np.newaxis, :], out

    # each block alone would rotate by beta_b in unit time with the 1-D root
    # -cos^2(phase0) (tan(phase0 + beta_b) - tan(phase0)) / 2; start at half of it
    w = np.log(0.25 * math.cos(phase0) ** 2 * (np.tan(phase0 + beta_block) - math.tan(phase0)))
    r, jac, out = residual(w)
    history = [float(np.max(np.abs(r)))]
    while history[-1] > 1e-3 * tolerance:
        if len(history) > NEWTON_ITERATIONS:
            raise NoConvergence("exact-map Newton solve did not converge",
                                best_residual=min(history))
        try:
            delta = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"exact-map Jacobian is singular ({exc})",
                                best_residual=min(history)) from exc
        # a step changes v by at most a factor e^2: far from the root a full
        # step can leave the region where the map is nearly linear
        step = min(1.0, 2.0 / np.max(np.abs(delta)))
        while True:
            try:
                r_try, jac_try, out_try = residual(w + step * delta)
                norm = float(np.max(np.abs(r_try)))
            except NoConvergence:  # a trial so far out that v overflowed
                norm = math.inf
            if norm <= (1.0 - 0.25 * step) * history[-1]:
                break
            step *= 0.5
            if step < 1e-6:
                if history[-1] < tolerance:
                    return -np.exp(w), out, history
                raise NoConvergence("exact-map Newton step stopped descending",
                                    best_residual=min(history))
        w, r, jac, out = w + step * delta, r_try, jac_try, out_try
        history.append(norm)
    return -np.exp(w), out, history


def solve_bvp_maslov0(l0: LagrangianFrame, l1: LagrangianFrame,
                      tolerance: float = 1e-10,
                      config: IntegratorConfig = IntegratorConfig(),
                      spectrum: PairSpectrum | None = None) -> BvpSolution:
    """Coefficients carrying l0 to l1 in unit time, with their RK4 trajectory.

    Requires Maslov index 0; transverse directions get strictly negative
    coefficients, zero-angle blocks are frozen.  spectrum, if given, must be
    pair_decomposition(l0, l1), which is then not made again.  Raises
    NoConvergence, with the smallest residual reached, when the exact-map
    Newton solve fails or when the requested RK4 grid cannot be corrected to
    the tolerance.
    """
    if spectrum is None:
        spectrum = pair_decomposition(l0, l1)
    index, _ = spectrum.maslov_index()
    if index != 0:
        raise ValueError(f"pair has Maslov index {index}, need 0")

    n = spectrum.n
    blocks = [b for b in spectrum.blocks if spectrum.beta[b[0]] > 0.0]

    def trajectory(v):
        a = np.zeros(n)
        for value, block in zip(v, blocks):
            a[list(block)] = value
        spec = GeodesicSpec(base=l0, adapted_basis=spectrum.adapted_basis, coefficients=a)
        traj = geodesic_ivp(spec, config)
        return a, traj, float(np.max(np.abs(traj.theta[-1] - spectrum.beta)))

    if not blocks:
        # coincident planes: the constant flow is the unique admissible one
        a, traj, residual = trajectory([])
        return BvpSolution(spectrum=spectrum, coefficients=a, trajectory=traj,
                           residual_norm=residual, jacobian_condition=1.0,
                           newton_residuals=(0.0,))

    beta_block = _block_average(spectrum.beta, blocks)
    mult = np.array([len(b) for b in blocks], dtype=float)
    v, (_, _, dt, dth, rate), history = solve_exact_map(beta_block, mult, spectrum.phase0,
                                                        tolerance)
    jac1 = dth - rate[:, np.newaxis] * dt[np.newaxis, :]   # d th(1) / dv on the exact flow

    grid = []  # RK4 residual of each trajectory on the requested grid
    try:
        a, traj, residual = trajectory(v)
        grid.append(residual)
        # the grid's own discretisation error: correct v on that grid while
        # the correction contracts
        while (residual >= tolerance and len(grid) <= GRID_STEPS
               and (len(grid) < 2 or grid[-1] <= 0.5 * grid[-2])):
            v = v - np.linalg.solve(jac1, _block_average(traj.theta[-1], blocks) - beta_block)
            if np.any(v >= 0.0):
                break
            a, traj, residual = trajectory(v)
            grid.append(residual)
    except (LagwebError, np.linalg.LinAlgError) as exc:
        if not grid:
            raise NoConvergence(f"RK4 grid of {config.step_count} steps fails at the exact "
                                f"root ({exc})", best_residual=math.inf) from exc
    if not grid[-1] < tolerance:
        ratio = grid[0] / tolerance   # inf at a subnormal tolerance: root each side first
        root = ratio ** 0.25 if ratio < math.inf else grid[0] ** 0.25 / tolerance ** 0.25
        steps = math.ceil(config.step_count * root)
        raise NoConvergence(
            f"RK4 grid of {config.step_count} steps misses the targets by {grid[0]:.3e} at "
            f"the exact root, and its correction stalled at {min(grid):.3e}; fourth order "
            f"puts {tolerance:.1e} at about {steps} steps", best_residual=min(grid))
    return BvpSolution(
        spectrum=spectrum,
        coefficients=a,
        trajectory=traj,
        residual_norm=residual,
        jacobian_condition=float(np.linalg.cond(jac1)),
        newton_residuals=tuple(history),
        grid_residuals=tuple(grid) if len(grid) > 1 else (),
    )
