"""Geodesics of positive Lagrangian planes in flat C^n and the imaginary
special Lagrangian cylinder families they sweep out.

Module map:
    numkernel -- eigendecomposition of symmetric unitaries, RK4
    laggrass  -- Lagrangian frames, pair angles, Maslov index
    geoflow   -- the geodesic ODE system and its full-frame cross-check
    bvpsolve  -- Newton on the exact phase-parametrised shooting map, then
                 one RK4 trajectory, for the two-frame boundary value problem
    webbing   -- level-set cylinders, calibration verification, flux
    cephes    -- the normal quantile ndtri of the n >= 4 sphere, scipy's bits
    cli       -- command line pipeline and its JSON emitter
"""

__version__ = "0.1.0"
