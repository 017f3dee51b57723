"""The two failure types of lagweb, besides ValueError.

Bad input (a frame that is not Lagrangian or not positive, a Maslov index
the solver does not take, a non-integer Maslov quotient, a phase window or
level of the wrong sign, a matrix that is not symmetric unitary) raises
ValueError.  A computation that cannot finish on valid input (a flow that
leaves the chart or turns non-finite, a degenerate frame or metric, a built
mesh that misses an identity of its construction) raises LagwebError.  The
CLI exits 2 on both; NoConvergence alone exits 3.
"""


class LagwebError(Exception):
    """A computation on valid input could not finish."""


class NoConvergence(LagwebError):
    """Iteration budget exhausted before reaching the requested tolerance."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual
