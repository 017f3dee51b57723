"""Geodesics of positive Lagrangian planes in flat C^n and the imaginary
special Lagrangian cylinder families they sweep out.

Module map:
    numkernel -- eigendecomposition of symmetric unitaries, RK4, Newton
    laggrass  -- Lagrangian frames, pair angles, Maslov index
    geoflow   -- the geodesic ODE system and its full-frame cross-check
    bvpsolve  -- direct Newton shooting solver, with a continuation
                 fallback, for the two-frame boundary value problem
    webbing   -- level-set cylinders, calibration verification, flux
    cli       -- command line pipeline and JSON/CSV emitters
"""

__version__ = "0.1.0"
