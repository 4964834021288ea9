"""Exception types raised across the library."""


class ContractViolation(ValueError):
    """An argument violates a documented precondition (shape, range, or kind)."""


class DivergenceError(RuntimeError):
    """An update direction or iterate became non-finite.

    Carries the last good state in ``state`` so callers can inspect or
    restart from it. A failed sipba_step also names the rows that went
    non-finite (``rows``, positions in the block; ``[0]`` for a state of
    vectors) and carries the step's result for all rows (``next_state``),
    so the other rows of a batch can go on.
    """

    def __init__(self, message, state=None, rows=None, next_state=None):
        super().__init__(message)
        self.state = state
        self.rows = rows
        self.next_state = next_state


class SaddleConvergenceError(RuntimeError):
    """The saddle oracle exhausted its iteration budget, stalled or
    diverged through 60 step halvings, or its halved step underflowed.

    ``saddle`` holds the last iterate packaged as a SaddlePoint with
    converged=False; ``saddle.residual`` is the last residual (||T|| for
    an underflow).
    """

    def __init__(self, message, saddle=None):
        super().__init__(message)
        self.saddle = saddle


class ParameterOverflowError(RuntimeError):
    """A derived quantity (step size, penalty weight) left the float range."""
