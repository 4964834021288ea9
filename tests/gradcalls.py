"""Counted gradient calls: the reference that pins the cost models.

The library counts evaluations from the work it did (6 per single-loop step
and row, 3 per operator evaluation of the double loop). The tests check
those numbers against calls counted here, on a copy of the problem whose
four gradient callables are wrapped.
"""

from dataclasses import replace
from types import SimpleNamespace

from sipba.problem import GRADIENTS


def with_gradient_counter(problem):
    """Return (a copy of problem whose gradient calls are counted, the
    counter): its .count grows by one per call on a point and by one per
    row on a block of rows."""
    counter = SimpleNamespace(count=0)

    def wrap(fn):
        def counted(x, y):
            counter.count += len(x) if getattr(x, "ndim", 1) == 2 else 1
            return fn(x, y)

        return counted

    return replace(problem, **{g: wrap(getattr(problem, g))
                               for g in GRADIENTS}), counter
