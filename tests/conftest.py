import math

import numpy as np

from lagweb.errors import LagwebError
from lagweb.geoflow import GeodesicSpec, geodesic_ivp
from lagweb.laggrass import FlatCalabiYau, make_frame, random_maslov_zero_pair
from lagweb.numkernel import IntegratorConfig


def random_flow_spec(rng, n, amin=-2.0, amax=-0.05):
    """Random negative-coefficient flow verified to stay inside the chart.

    Coefficients start in [amin, amax) and shrink until a coarse integration
    confirms the phase remains safely below pi/2.
    """
    l0, _, _, basis = random_maslov_zero_pair(rng, n)
    room = 0.5 * math.pi - 0.08 - l0.phase
    a = rng.uniform(amin, amax, size=n)
    a *= min(1.0, room / (2.0 * np.abs(a).sum()))
    while True:
        spec = GeodesicSpec(base=l0, adapted_basis=basis, coefficients=a, phase0=l0.phase)
        try:
            traj = geodesic_ivp(spec, IntegratorConfig(200))
        except LagwebError:  # the flow left the chart
            a = 0.5 * a
            continue
        if traj.phases[-1] > 0.5 * math.pi - 0.1:
            a = 0.7 * a
            continue
        return spec


def hard_pair(seed, phase1, fixed, weights):
    """Maslov-zero pair reaching phase1: the fixed angles as given, the rest
    of phase1 - phase0 shared by the weights, in a random rotated basis."""
    rng = np.random.default_rng(seed)
    n = len(fixed) + len(weights)
    l0 = make_frame(FlatCalabiYau(n), np.diag(np.exp(1j * np.full(n, rng.uniform(-0.3, 0.3) / n))))
    w = np.asarray(weights, dtype=float)
    beta = np.concatenate([np.asarray(fixed, dtype=float),
                           (phase1 - l0.phase - sum(fixed)) * w / w.sum()])
    r, _ = np.linalg.qr(rng.standard_normal((n, n)))
    raw1 = ((l0.columns @ r) * np.exp(1j * beta)) @ r.T
    return l0, make_frame(l0.ambient, raw1), np.sort(beta)
