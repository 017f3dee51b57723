"""Exception hierarchy shared by all lagweb modules."""


class LagwebError(Exception):
    """Base class for all errors raised by this package."""


# --- linear algebra / kernel ---

class NotSymmetricUnitary(LagwebError):
    """Input matrix fails the symmetric-unitary precondition."""

    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


class NonFiniteState(LagwebError):
    """An integration step produced NaN/Inf or a collapsed metric coefficient."""


class NoConvergence(LagwebError):
    """Iteration budget exhausted before reaching the requested tolerance."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


# --- Lagrangian frames ---

class NotLagrangian(LagwebError):
    """Frame columns do not span a Lagrangian subspace."""


class NotPositive(LagwebError):
    """Frame determinant lies (numerically) on the imaginary axis."""


class NotInteger(LagwebError):
    """Maslov quotient is too far from the nearest integer."""


class MaslovNonzero(LagwebError):
    """Boundary-value solver requires a Maslov index zero pair."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


# --- geodesic flow ---

class PhaseBlowup(LagwebError):
    """Phase reached +/- pi/2; the flow left the positive Grassmannian."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class BadPhaseWindow(LagwebError):
    """Phase window endpoints violate -pi/2 < phi0 <= phi1 < pi/2."""


# --- cylinders and verification ---

class SignError(LagwebError):
    """Level-set chart needs strictly negative coefficients and level."""


class DegenerateFrame(LagwebError):
    """A mesh node's tangent frame is real-linearly rank deficient."""


class OriginNode(LagwebError):
    """A mesh node sits at the origin; radial angle undefined."""


class InconsistentBoundary(LagwebError):
    """Flux primitive is not constant on the top boundary."""

    def __init__(self, message, spread=None):
        super().__init__(message)
        self.spread = spread


class DegenerateMetric(LagwebError):
    """Induced surface metric is singular at a grid node."""


class IdentityDefect(LagwebError):
    """A built frame or mesh misses an identity of its construction, such as
    boundary containment, by more than its tolerance."""
