"""Problem containers and projection operators.

A pessimistic bilevel problem

    min_{x in X}  max_{y in S(x)}  F(x, y),
    S(x) = argmin_{y' in Y} f(x, y'),

is described to the solver through a :class:`BilevelProblem`: plain callables
for the two objectives and their four partial gradients, plus projectable
descriptions of X and Y. The library never differentiates anything itself;
callers supply analytic gradients and can validate them with
:func:`check_gradients`.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ContractViolation

_F64 = np.dtype(np.float64)


def _as_vector(v, dim, name, rows=False):
    """v as a float64 vector of shape (dim,): the package's one vector check.

    With rows, a block of S such vectors, shape (S, dim), passes too (the
    solver steps a batch of starts as one block). O(1) for such an ndarray
    (returned as is); a scalar becomes a vector of length one; anything else
    raises ContractViolation naming the argument.
    """
    if type(v) is np.ndarray and v.dtype == _F64 and (
            v.shape == (dim,) or rows and v.ndim == 2 and v.shape[1] == dim):
        return v
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.shape[-1:] != (dim,) or arr.ndim > (2 if rows else 1):
        raise ContractViolation("%s must have shape (%d,)%s, got %s" % (
            name, dim, " or (S, %d)" % dim if rows else "", arr.shape))
    return arr


class ProjectableSet:
    """A closed convex set with a cheap Euclidean projection.

    project takes one vector of shape (dim,) or a block of S of them, shape
    (S, dim), and projects each row.
    """

    dim: int = 0

    def project(self, v):
        raise NotImplementedError

    def contains(self, v, tol=1e-10):
        v = _as_vector(v, self.dim, "v")
        return bool(
            np.linalg.norm(self.project(v) - v)
            <= tol * max(1.0, float(np.linalg.norm(v)))
        )


class FullSpace(ProjectableSet):
    """All of R^dim; projection is the identity."""

    def __init__(self, dim):
        if int(dim) < 1:
            raise ContractViolation("dim must be >= 1")
        self.dim = int(dim)

    def project(self, v):
        return _as_vector(v, self.dim, "v", rows=True).copy()

    def __repr__(self):
        return "FullSpace(%d)" % self.dim


def _uniform(side):
    """side's one value as a 0-d float64 array when every entry has the same
    bits, else side itself. Not a Python float: numpy converts one on every
    call, which makes a vector's projection slower than against the array."""
    bits = side.view(np.int64)
    if side.size and (bits == bits[0]).all():
        return np.array(side[0])
    return side


class Box(ProjectableSet):
    """Axis-aligned box. Bounds may be -inf/+inf for unbounded coordinates.

    Parameters
    ----------
    lower, upper : array_like
        Per-coordinate bounds, broadcastable to a common shape. Must satisfy
        lower <= upper everywhere (so no bound is NaN).

    A side whose faces all have the same bits (all 0.1, all -0.0, all inf)
    is projected against that one value, a 0-d float64 array, so numpy
    clips a block in one loop instead of one loop per row; the result is
    the same bit for bit. A side that mixes 0.0 and -0.0 faces keeps its
    array. ``lower`` and ``upper`` stay the per-coordinate arrays either
    way, read-only: the bounds are fixed at construction.
    """

    def __init__(self, lower, upper):
        lo = np.atleast_1d(np.asarray(lower, dtype=float))
        hi = np.atleast_1d(np.asarray(upper, dtype=float))
        lo, hi = np.broadcast_arrays(lo, hi)
        if lo.ndim != 1:
            raise ContractViolation("box bounds must be one-dimensional")
        if not np.all(lo <= hi):  # also rejects NaN bounds
            raise ContractViolation("box needs lower <= upper and no NaN bound")
        self.lower = lo.copy()
        self.upper = hi.copy()
        self.lower.flags.writeable = self.upper.flags.writeable = False
        self.dim = lo.shape[0]
        # one path: np.maximum(v, -inf) is v bit for bit, NaN and -0.0
        # included, so only an upper side with no finite face is skipped
        self._clip_upper = bool(np.any(hi < np.inf))
        self._lo = _uniform(self.lower)
        self._hi = _uniform(self.upper)

    def project(self, v):
        v = _as_vector(v, self.dim, "v", rows=True)
        # np.clip's arithmetic without its Python-level wrapper
        out = np.maximum(v, self._lo)
        if self._clip_upper:
            np.minimum(out, self._hi, out=out)
        return out

    def __repr__(self):
        return "Box(dim=%d)" % self.dim


class Ball(ProjectableSet):
    """Euclidean ball of given center and radius."""

    def __init__(self, center, radius):
        c = np.atleast_1d(np.asarray(center, dtype=float))
        if not np.isfinite(c).all():
            raise ContractViolation("ball center must be finite")
        r = float(radius)
        if not (r > 0 and np.isfinite(r)):
            raise ContractViolation("ball radius must be positive and finite")
        self.center = c.copy()
        self.radius = r
        self.dim = c.shape[0]

    def project(self, v):
        v = _as_vector(v, self.dim, "v", rows=True)
        d = v - self.center
        # row norms as np.linalg.norm takes them: the square root of a dot
        nd = np.sqrt(np.vecdot(d, d))
        if v.ndim == 1:
            if nd <= self.radius:
                return v.copy()
            return self.center + (self.radius / nd) * d
        out = v.copy()
        far = ~(nd <= self.radius)  # a NaN norm projects like a far row
        out[far] = self.center + (self.radius / nd[far])[:, None] * d[far]
        return out

    def __repr__(self):
        return "Ball(dim=%d, radius=%g)" % (self.dim, self.radius)


@dataclass(frozen=True)
class BilevelProblem:
    """Immutable description of one pessimistic bilevel instance.

    F and f map (x, y) to a float; the four gradient callables return arrays
    of the matching dimension, n_x = set_X.dim or n_y = set_Y.dim (the
    dimensions are the sets', stored nowhere else). Caller obligations, not
    checked here: the callables are pure and deterministic; the gradients
    also take blocks, (S, n_x) x and (S, n_y) y, and return the (S, dim)
    row gradients, each row equal bit for bit to the call on that row alone
    (a batch of starts makes one call per gradient); f(x, .) attains its
    minimum on Y for every feasible x; and the supplied Lipschitz constants
    are valid on X times the region of Y the iterates visit.

    mu is the strong-concavity modulus of F(x, .). Instances that violate
    that assumption record mu=0 together with a human-readable
    ``assumption_note``; bounds that consume min(sigma, mu) refuse to run
    on them.
    """

    F: Callable
    f: Callable
    grad_F_x: Callable
    grad_F_y: Callable
    grad_f_x: Callable
    grad_f_y: Callable
    set_X: ProjectableSet
    set_Y: ProjectableSet
    mu: float
    lip_F: float
    lip_f: float
    assumption_note: Optional[str] = None

    @property
    def n_x(self):
        return self.set_X.dim

    @property
    def n_y(self):
        return self.set_Y.dim

    def __post_init__(self):
        if self.n_x < 1 or self.n_y < 1:
            raise ContractViolation("n_x and n_y must be >= 1")
        if self.mu < 0 or not np.isfinite(self.mu):
            raise ContractViolation("mu must be finite and >= 0")
        if self.mu == 0 and self.assumption_note is None:
            raise ContractViolation(
                "mu=0 requires an assumption_note explaining the violation"
            )
        if not (self.lip_F > 0 and self.lip_f > 0):
            raise ContractViolation("Lipschitz constants must be positive")


GRADIENTS = ("grad_F_x", "grad_F_y", "grad_f_x", "grad_f_y")


def _sample_interior(s, rng):
    # Draw a point well inside s. Infinite box faces fall back to a window of
    # width 3 next to the finite face (or [-3, 3] if both faces are infinite).
    window = 3.0
    if isinstance(s, Box):
        lo, hi = s.lower, s.upper
        out = np.empty(s.dim)
        for i in range(s.dim):
            l, h = lo[i], hi[i]
            if np.isfinite(l) and np.isfinite(h):
                span = h - l
                out[i] = rng.uniform(l + 0.05 * span, h - 0.05 * span) if span > 0 else l
            elif np.isfinite(l):
                out[i] = rng.uniform(l + 1e-3, l + window)
            elif np.isfinite(h):
                out[i] = rng.uniform(h - window, h - 1e-3)
            else:
                out[i] = rng.uniform(-window, window)
        return out
    if isinstance(s, Ball):
        d = rng.standard_normal(s.dim)
        d /= max(np.linalg.norm(d), 1e-300)
        return s.center + d * s.radius * rng.uniform(0.0, 0.9)
    return rng.uniform(-window, window, s.dim)


def _central_diff(fun, v, i, h):
    vp = v.copy()
    vm = v.copy()
    vp[i] += h
    vm[i] -= h
    return (fun(vp) - fun(vm)) / (2.0 * h)


def _fd_error(fun, g, at, h):
    """||g - g_fd|| / max(||g_fd||, 1e-12) for central differences g_fd of fun."""
    g = np.asarray(g, dtype=float)
    fd = np.array([_central_diff(fun, at, i, h) for i in range(at.size)])
    return float(np.linalg.norm(g - fd) / max(float(np.linalg.norm(fd)), 1e-12))


@dataclass
class GradientCheckReport:
    """Worst relative finite-difference error per supplied gradient."""

    errors: dict
    n_points: int
    fd_step: float

    def __str__(self):
        lines = ["gradient check over %d points (h=%g):" % (self.n_points, self.fd_step)]
        for k in sorted(self.errors):
            lines.append("  %-9s max rel err %.3e" % (k, self.errors[k]))
        return "\n".join(lines)


def check_gradients(problem, n_points=20, fd_step=1e-6):
    """Compare the four supplied gradients against central differences.

    Points are sampled inside X and Y from a fixed-seed generator, so
    repeated calls agree. Returns a
    :class:`GradientCheckReport`; the relative error for gradient g at a
    point is ||g - g_fd|| / max(||g_fd||, 1e-12).
    """
    rng = np.random.default_rng(0)
    worst = dict.fromkeys(GRADIENTS, 0.0)
    for _ in range(n_points):
        x = _sample_interior(problem.set_X, rng)
        y = _sample_interior(problem.set_Y, rng)
        pairs = [
            ("grad_F_x", problem.grad_F_x(x, y), lambda v: problem.F(v, y), x),
            ("grad_F_y", problem.grad_F_y(x, y), lambda v: problem.F(x, v), y),
            ("grad_f_x", problem.grad_f_x(x, y), lambda v: problem.f(v, y), x),
            ("grad_f_y", problem.grad_f_y(x, y), lambda v: problem.f(x, v), y),
        ]
        for key, g, fun, at in pairs:
            worst[key] = max(worst[key], _fd_error(fun, g, at, fd_step))
    return GradientCheckReport(errors=worst, n_points=n_points, fd_step=fd_step)
