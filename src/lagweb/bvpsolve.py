"""Two-plane boundary value problem for the geodesic flow.

Given transverse frames with Maslov index zero, find negative coefficients
a_j whose flow rotates every adapted direction of the start plane onto the
target plane at t = 1, i.e. th_j(1; a) = beta_j.  The solver shoots on the
block coefficients (one unknown per degeneracy block) with a projected
Newton solve at the full targets, started from a_j = -tan(beta_j) / 4; the
paper's a priori existence result for Maslov index 0 lets it aim at beta
directly.  When that start fails (from a start phase near -pi/2 the
guess can drive the phase out of the chart), the solve restarts from the
roots of a continuation that walks the targets s * beta up from s = 0.05.  Zero-angle blocks of
non-transverse pairs are frozen at a_j = 0 and only the complementary
sub-problem is shot.

The a priori box used as a trust region: along an admissible flow with
phases inside [alpha0, alpha1],

    g_j <= max(1, e^{pi tan alpha1})         =: metric_bound
    0 < -a_j < metric_bound (alpha1 - alpha0) / 2 =: coefficient_bound,

the second following from integrating the phase speed -2 sum a_j / g_j.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadPhaseWindow,
    MaslovNonzero,
    NoConvergence,
    NonFiniteState,
    PhaseBlowup,
)
from .geoflow import METRIC_FLOOR, PHASE_MARGIN, GeodesicSpec, GeodesicTrajectory, geodesic_ivp
from .laggrass import LagrangianFrame, PairSpectrum, pair_decomposition
from .numkernel import IntegratorConfig, integrate_rk4

S_START = 0.05
DS_START = 0.1
DS_FLOOR = 1e-4
S_HANDOFF = 0.75
ZERO_COEFF = -1e-14  # coefficients are clipped strictly below zero


@dataclass(frozen=True)
class AprioriBounds:
    """Phase window [alpha0, alpha1] with its metric and coefficient bounds."""

    alpha0: float
    alpha1: float
    metric_bound: float
    coefficient_bound: float


@dataclass(frozen=True, eq=False)
class BvpSolution:
    spectrum: PairSpectrum
    coefficients: np.ndarray        # (n,) all <= 0, negative on active blocks
    trajectory: GeodesicTrajectory
    residual_norm: float            # max_j |th_j(1) - beta_j|
    jacobian_condition: float
    continuation_steps: int         # continuation stops before s = 1; 0 when solved directly
    newton_residuals: tuple         # residual norms of the Newton solve


def apriori_bounds(phi0: float, phi1: float) -> AprioriBounds:
    """Bounds for flows whose phase stays inside [phi0, phi1].

    phi0 == phi1 is admitted and forces the zero Hamiltonian.  When
    e^{pi tan phi1} overflows a float, both bounds are infinite and the
    solver runs without a box.
    """
    half_pi = 0.5 * math.pi
    if not (-half_pi < phi0 <= phi1 < half_pi):
        raise BadPhaseWindow(f"need -pi/2 < phi0 <= phi1 < pi/2, got ({phi0}, {phi1})")
    try:
        metric_bound = 1.0 if phi1 <= 0.0 else math.exp(math.pi * math.tan(phi1))
    except OverflowError:  # phi1 within ~4e-3 of pi/2: no finite box
        metric_bound = math.inf
    return AprioriBounds(
        alpha0=phi0,
        alpha1=phi1,
        metric_bound=metric_bound,
        coefficient_bound=0.5 * metric_bound * (phi1 - phi0) if phi1 > phi0 else 0.0,
    )


def _shoot_final_angles(a_rows: np.ndarray, phase0: float, config: IntegratorConfig) -> np.ndarray:
    """th(1) for a batch of coefficient rows, integrated simultaneously."""
    a_rows = np.atleast_2d(np.asarray(a_rows, dtype=float))
    m, n = a_rows.shape
    neg4a = -4.0 * a_rows
    neg2a = -2.0 * a_rows
    phase_limit = 0.5 * math.pi - PHASE_MARGIN

    def rhs(t, y):
        state = y.reshape(m, 2 * n)
        g = state[:, :n]
        phi = state[:, n:].sum(axis=1)
        phi += phase0
        if np.abs(phi).max() >= phase_limit:
            raise PhaseBlowup(f"phase left the chart at t = {t:.4f}", t)
        if g.min() < METRIC_FLOOR:
            raise NonFiniteState(f"metric coefficient collapsed at t = {t:.4f}")
        out = np.empty_like(state)
        np.multiply(neg4a, np.tan(phi)[:, np.newaxis], out=out[:, :n])
        np.divide(neg2a, g, out=out[:, n:])
        return out.ravel()

    y0 = np.concatenate([np.ones((m, n)), np.zeros((m, n))], axis=1).ravel()
    _, ys = integrate_rk4(rhs, y0, 0.0, 1.0, config)
    return ys[-1].reshape(m, 2 * n)[:, n:].copy()


def _block_average(values: np.ndarray, blocks) -> np.ndarray:
    out = np.empty(len(blocks))
    for i, block in enumerate(blocks):
        out[i] = values[list(block)].mean()
    return out


def shooting_residual(spectrum: PairSpectrum, a, config: IntegratorConfig = IntegratorConfig()) -> np.ndarray:
    """(th_j(1; a) - beta_j)_j with entries averaged inside each block."""
    a = np.asarray(a, dtype=float)
    if np.any(a > 0.0):
        raise ValueError("shooting requires non-positive coefficients")
    theta1 = _shoot_final_angles(a, spectrum.phase0, config)[0]
    raw = theta1 - spectrum.beta
    out = np.empty_like(raw)
    for block in spectrum.blocks:
        out[list(block)] = raw[list(block)].mean()
    return out


class _BlockShooter:
    """Residual machinery on one unknown per active block."""

    def __init__(self, spectrum, active_blocks, phase0, n):
        self.blocks = active_blocks
        self.phase0 = phase0
        self.n = n
        self.targets_full = spectrum.beta
        self.beta_block = _block_average(spectrum.beta, active_blocks)

    def expand(self, v: np.ndarray) -> np.ndarray:
        a = np.zeros(self.n)
        for value, block in zip(v, self.blocks):
            a[list(block)] = value
        return a

    def residual(self, v, s, config):
        theta1 = _shoot_final_angles(self.expand(v), self.phase0, config)[0]
        return _block_average(theta1, self.blocks) - s * self.beta_block

    def jacobian(self, v, s, config, fd_step):
        k = v.size
        rows = np.empty((2 * k, self.n))
        for i in range(k):
            vp = v.copy()
            vp[i] += fd_step
            vm = v.copy()
            vm[i] -= fd_step
            rows[2 * i] = self.expand(vp)
            rows[2 * i + 1] = self.expand(vm)
        theta1 = _shoot_final_angles(rows, self.phase0, config)
        jac = np.empty((k, k))
        for i in range(k):
            diff = _block_average(theta1[2 * i], self.blocks) - _block_average(
                theta1[2 * i + 1], self.blocks
            )
            jac[:, i] = diff / (2.0 * fd_step)
        return jac


def _newton_stage(shooter, v, s, config, tol, box_low, max_iter=12, fd_step=1e-6,
                  record=None, jac_config=None, box_high=ZERO_COEFF):
    """Projected damped Newton at fixed continuation parameter s.

    Returns (v, norm, jacobian) on success, None on failure; ``record``
    collects the residual norms seen at accepted iterates.  ``jac_config``
    lets the finite-difference Jacobian run on a coarser grid than the
    residual; the mild inexactness costs at most an extra iteration.
    """
    jac_config = jac_config or config

    def clip(w):
        return np.clip(w, box_low, box_high)

    v = clip(v)
    try:
        r = shooter.residual(v, s, config)
    except (PhaseBlowup, NonFiniteState):
        return None
    norm = float(np.max(np.abs(r)))
    jac = None
    for _ in range(max_iter):
        if record is not None:
            record.append(norm)
        try:
            if norm < tol:
                if jac is None:
                    jac = shooter.jacobian(v, s, jac_config, fd_step)
                return v, norm, jac
            jac = shooter.jacobian(v, s, jac_config, fd_step)
            delta = np.linalg.solve(jac, -r)
        except (PhaseBlowup, NonFiniteState, np.linalg.LinAlgError):
            return None  # a difference row left the chart, or jac is singular
        step = 1.0
        while True:
            v_try = clip(v + step * delta)
            try:
                r_try = shooter.residual(v_try, s, config)
            except (PhaseBlowup, NonFiniteState):
                r_try = None
            if r_try is not None:
                norm_try = float(np.max(np.abs(r_try)))
                if norm_try <= (1.0 - 0.25 * step) * norm or norm_try < tol:
                    v, r, norm = v_try, r_try, norm_try
                    break
            step *= 0.5
            if step < 1e-3:
                return None
    if record is not None:
        record.append(norm)
    return (v, norm, jac) if norm < tol else None


def solve_experimental(l0: LagrangianFrame, l1: LagrangianFrame,
                       tolerance: float = 1e-10,
                       config: IntegratorConfig = IntegratorConfig()):
    """Unconstrained-sign shooting for pairs of any Maslov index.

    Best effort only: for index m, the m largest angles are retargeted one
    half-turn down (those directions rotate backwards, coefficients turn
    positive) and the same continuation is attempted without the sign box.
    No existence or convergence claim is made; callers must treat failure
    as an expected outcome.

    Returns (spectrum, coefficients, trajectory, residual_norm, index).
    """
    spectrum = pair_decomposition(l0, l1)
    raw = (float(spectrum.beta.sum()) + spectrum.phase0 - spectrum.phase1) / math.pi
    index = int(round(raw))
    n = spectrum.n
    targets = spectrum.beta.copy()
    if index > 0:
        drop = np.argsort(spectrum.beta)[-index:]
        targets[drop] -= math.pi
    blocks = [b for b in spectrum.blocks if abs(targets[b[0]]) > 0.0]
    if not blocks:
        spec = GeodesicSpec(base=l0, adapted_basis=spectrum.adapted_basis,
                            coefficients=np.zeros(n), phase0=spectrum.phase0)
        return spectrum, np.zeros(n), geodesic_ivp(spec, config), 0.0, index

    shooter = _BlockShooter(spectrum, blocks, spectrum.phase0, n)
    shooter.beta_block = _block_average(targets, blocks)
    big = 1.0 + 4.0 * float(np.abs(targets).sum())
    coarse = IntegratorConfig(max(150, config.step_count // 8))
    budget = 40  # stage attempts; this path carries no convergence claim
    v = -0.5 * S_START * shooter.beta_block
    s, ds = S_START, DS_START
    stage = _newton_stage_unclipped(shooter, v, s, coarse, 1e-7, big)
    if stage is None:
        raise NoConvergence("experimental shooting failed at its first stop", last_good=0.0)
    v = stage[0]
    while s < 1.0:
        budget -= 1
        if budget <= 0:
            raise NoConvergence("experimental stage budget exhausted", last_good=s)
        final = min(s + ds, 1.0) == 1.0
        s_next = min(s + ds, 1.0)
        stage = _newton_stage_unclipped(shooter, v, s_next,
                                        config if final else coarse,
                                        0.2 * tolerance if final else 1e-7, big)
        if stage is None:
            ds *= 0.5
            if ds < 5e-3:
                raise NoConvergence("experimental continuation collapsed", last_good=s)
            continue
        v, s = stage[0], s_next
        ds *= 2.0
    a = shooter.expand(v)
    spec = GeodesicSpec(base=l0, adapted_basis=spectrum.adapted_basis,
                        coefficients=a, phase0=spectrum.phase0)
    traj = geodesic_ivp(spec, config)
    residual = float(np.max(np.abs(traj.theta[-1] - targets)))
    if residual >= tolerance:
        raise NoConvergence(f"experimental residual stuck at {residual:.3e}", last_good=s)
    return spectrum, a, traj, residual, index


def _newton_stage_unclipped(shooter, v, s, config, tol, box):
    return _newton_stage(shooter, v, s, config, tol, -box, max_iter=8, box_high=box)


def _continuation_starts(shooter, coarse, box_low):
    """Start points for the Newton solve at s = 1 from a coarse-grid walk.

    The targets s * beta are walked from S_START to S_HANDOFF with an
    adaptive step and Newton-corrected at each stop.  Yields the root at
    S_HANDOFF, then roots at stops that halve the distance left to 1, each
    with its count of stops plus one for the final solve.
    """
    coarse_tol = 1e-7  # the final fine solve corrects the rest
    stage = _newton_stage(shooter, -0.5 * S_START * shooter.beta_block, S_START,
                          coarse, coarse_tol, box_low)
    if stage is None:
        return
    v, s, ds, stops = stage[0], S_START, DS_START, 1
    while s < S_HANDOFF:
        s_next = min(s + ds, S_HANDOFF)
        stage = _newton_stage(shooter, v, s_next, coarse, coarse_tol, box_low)
        if stage is None:
            ds *= 0.5
            if ds < DS_FLOOR:
                return
            continue
        v, s, ds, stops = stage[0], s_next, 2.0 * ds, stops + 1
    while True:
        yield v, stops + 1
        s = 0.5 * (1.0 + s)
        stage = _newton_stage(shooter, v, s, coarse, coarse_tol, box_low)
        if stage is None or s > 1.0 - 1e-3:
            return
        v, stops = stage[0], stops + 1


def solve_bvp_maslov0(l0: LagrangianFrame, l1: LagrangianFrame,
                      tolerance: float = 1e-10,
                      config: IntegratorConfig = IntegratorConfig()) -> BvpSolution:
    """Shooting solver carrying l0 to l1 in unit time.

    Requires Maslov index 0; transverse directions get strictly negative
    coefficients, zero-angle blocks are frozen.  Raising NoConvergence
    reports the smallest residual any Newton solve at s = 1 reached.
    """
    spectrum = pair_decomposition(l0, l1)
    raw = (float(spectrum.beta.sum()) + spectrum.phase0 - spectrum.phase1) / math.pi
    index = int(round(raw))
    if index != 0:
        raise MaslovNonzero(f"pair has Maslov index {index}, need 0", index)

    n = spectrum.n
    active_blocks = [b for b in spectrum.blocks if spectrum.beta[b[0]] > 0.0]
    if not active_blocks:
        # coincident planes: the constant flow is the unique admissible one
        spec = GeodesicSpec(base=l0, adapted_basis=spectrum.adapted_basis,
                            coefficients=np.zeros(n), phase0=spectrum.phase0)
        traj = geodesic_ivp(spec, config)
        return BvpSolution(spectrum=spectrum, coefficients=np.zeros(n), trajectory=traj,
                           residual_norm=float(np.max(np.abs(traj.theta[-1] - spectrum.beta))),
                           jacobian_condition=1.0, continuation_steps=0,
                           newton_residuals=(0.0,))

    shooter = _BlockShooter(spectrum, active_blocks, spectrum.phase0, n)
    # phase1 = phase0 + sum(beta) here, so the window is (phase0, phase1)
    bounds = apriori_bounds(spectrum.phase0, spectrum.phase1)
    box_low = -(bounds.coefficient_bound + 1.0)
    coarse = IntegratorConfig(max(150, config.step_count // 8))

    # Newton at s = 1 with residuals on the requested grid and Jacobians on
    # the coarse one; each start is tried only after the one before failed
    starts = itertools.chain([(-0.25 * np.tan(shooter.beta_block), 0)],
                             _continuation_starts(shooter, coarse, box_low))
    best = math.inf
    for v, continuation_steps in starts:
        history: list = []
        final = _newton_stage(shooter, v, 1.0, config, 0.2 * tolerance, box_low,
                              max_iter=24, record=history, jac_config=coarse)
        best = min([best, *history])
        if final is not None:
            break
    else:
        raise NoConvergence("Newton solve at the full targets did not converge",
                            best_residual=best)
    v, _, jac = final

    a = shooter.expand(v)
    spec = GeodesicSpec(base=l0, adapted_basis=spectrum.adapted_basis,
                        coefficients=a, phase0=spectrum.phase0)
    traj = geodesic_ivp(spec, config)
    residual_norm = float(np.max(np.abs(traj.theta[-1] - spectrum.beta)))
    if residual_norm >= tolerance:
        raise NoConvergence(
            f"final residual {residual_norm:.3e} did not reach {tolerance:.1e}",
            best_residual=residual_norm,
        )
    return BvpSolution(
        spectrum=spectrum,
        coefficients=a,
        trajectory=traj,
        residual_norm=residual_norm,
        jacobian_condition=float(np.linalg.cond(jac)),
        continuation_steps=continuation_steps,
        newton_residuals=tuple(history),
    )
