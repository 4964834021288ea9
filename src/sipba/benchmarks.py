"""Benchmark problem families with known structure.

Three families, whose callables are module-level functions, bound to their
data with functools.partial where they have any, or bound methods of a
module-level class (a built problem pickles, its hyper-rep memo included):

* quadratic_testbed: scalar F = -(y-x)^2, f = (y-x)^2, everything
  unconstrained. The saddle of the regularized objective solves a 2x2
  linear system (analytic_saddle), which makes it the ground truth for
  oracle and contraction tests.
* synthetic_problem: the n-dimensional family with closed-form pessimistic
  value function and known optimum (e/2, e/(2*sqrt(n))).
* hyper-representation: pessimistic linear representation learning on
  synthetic regression splits; no strong concavity (mu recorded as 0).

Every family's gradients take one point or a block of rows, as
BilevelProblem asks, so a batch of starts makes one call per gradient per
step.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ContractViolation
from .problem import BilevelProblem, Box, FullSpace, _as_vector, _dot, _norm


# ---------------------------------------------------------------------------
# quadratic testbed


def _testbed_value(c, x, y):  # c (y - x)^2: F at c = -1, f at c = 1
    d = y[0] - x[0]
    return c * d * d


def _testbed_grad(c, x, y):  # c (y - x): the gradients at c = +-2
    return c * (y - x)


def quadratic_testbed():
    """Scalar unconstrained instance used as ground truth in tests.

    F(x,y) = -(y-x)^2 and f(x,y) = (y-x)^2, so S(x) = {x}, phi(x) = 0 for
    every x, mu = 2, and both Lipschitz constants (as consumed by the
    operator bounds) equal 2.
    """
    up, down = partial(_testbed_grad, 2.0), partial(_testbed_grad, -2.0)
    return BilevelProblem(
        F=partial(_testbed_value, -1.0), f=partial(_testbed_value, 1.0),
        grad_F_x=up, grad_F_y=down, grad_f_x=down, grad_f_y=up,
        set_X=FullSpace(1), set_Y=FullSpace(1),
        mu=2.0, lip_F=2.0, lip_f=2.0,
    )


def quadratic_init(rng):
    """Random start on the testbed: x, y ~ U[-3, 3], z = y."""
    x0 = rng.uniform(-3.0, 3.0, 1)
    y0 = rng.uniform(-3.0, 3.0, 1)
    return x0, y0, y0.copy()


def analytic_saddle(x, rho, sigma):
    """Exact saddle of the regularized testbed objective at scalar x.

    Stationarity of psi in (y, z) is the linear system

        2(1+rho) y + sigma z          = 2(1+rho) x
        -sigma   y + (2 rho + sigma) z = 2 rho x

    Returns (y_star, z_star) as shape-(1,) arrays. As sigma -> 0 both
    tend to x, the exact lower-level response.
    """
    x = float(_as_vector(x, 1, "x")[0])
    A = np.array([[2.0 * (1.0 + rho), sigma], [-sigma, 2.0 * rho + sigma]])
    b = np.array([2.0 * (1.0 + rho) * x, 2.0 * rho * x])
    y, z = np.linalg.solve(A, b)
    return np.array([y]), np.array([z])


# ---------------------------------------------------------------------------
# synthetic family with closed-form value function


@dataclass(frozen=True)
class SyntheticProblem:
    """Synthetic instance bundle: the problem plus its known solution and
    the closed forms of its pessimistic response and value."""

    problem: BilevelProblem
    x_star: np.ndarray
    y_star: np.ndarray  # e / (2 sqrt n), also Y's lower face

    def closed_form_y_star(self, x):
        """Pessimistic lower-level response y*(x): (||x||/n) e past the kink
        ||x|| = sqrt(n)/2, Y's lower face y_star up to it."""
        n = self.problem.n_x
        x = _as_vector(x, n, "x")
        nx = float(_norm(x))
        if nx > math.sqrt(n) / 2.0:
            return (nx / n) * np.ones(n)
        return self.y_star.copy()

    def closed_form_phi(self, x):
        """Exact pessimistic value phi(x) = F(x, y*(x))."""
        x = _as_vector(x, self.problem.n_x, "x")
        return self.problem.F(x, self.closed_form_y_star(x))

    def sample_init(self, rng):
        """Random start: x ~ U[0.1,10]^n, y ~ U[1/(2 sqrt n), 10]^n, z = y."""
        n = self.problem.n_x
        x0 = rng.uniform(0.1, 10.0, n)
        y0 = rng.uniform(self.y_star[0], 10.0, n)
        return x0, y0, y0.copy()


def _synthetic_F(n, e, x, y):
    dx = x - e
    dy = y - e
    return float(_dot(dx, dx) / n - _dot(dy, dy))


def _synthetic_f(e, x, y):
    r = float(_dot(e, y) - _norm(x))
    return r * r


# The gradients take one point or a block of rows. e's entries are all
# 1.0: x - 1.0 is x - e bit for bit, and each row's factor c[..., None]
# repeated along its row is c * e (a point's c is 0-d); numpy runs an
# operation against a scalar as one loop over a whole block, and against e
# as one loop per row
def _synthetic_grad_F_x(n, x, y):
    return (2.0 / n) * (x - 1.0)


def _synthetic_grad_F_y(x, y):
    return -2.0 * (y - 1.0)


def _synthetic_grad_f_x(e, x, y):
    nx = _norm(x)
    r = _dot(e, y) - nx
    return (-2.0 * r / nx)[..., None] * x


def _synthetic_grad_f_y(e, x, y):
    r = _dot(e, y) - _norm(x)
    return np.full(y.shape, (2.0 * r)[..., None])


def synthetic_problem(n):
    """The n-dimensional closed-form family; needs n >= 2.

    F(x,y) = (1/n)||x-e||^2 - ||y-e||^2 over X = [0.1, 10]^n,
    f(x,y) = (<e,y> - ||x||)^2 over Y = [1/(2 sqrt n), inf)^n.
    Unique optimum (e/2, e/(2 sqrt n)) with value sqrt(n) - n.

    lip_f is an analytic bound on the joint Hessian of f over
    X x (Y cut at 3 sqrt(n)): the xx block is bounded by
    2 + 2*max|<e,y>-||x||| / min||x||  <=  2 + (3n^1.5 + 10 sqrt n)/(0.05 sqrt n)
    = 60n + 202 (using min ||x|| = 0.1 sqrt n), the yy block by 2n, the
    cross block by 2 sqrt n; a symmetric block matrix is bounded by
    max(diag norms) + offdiag norm.
    """
    if n < 2:
        raise ContractViolation("synthetic family needs n >= 2")
    e = np.ones(n)
    rootn = math.sqrt(n)
    y_star = e / (2.0 * rootn)
    lip_f = 60.0 * n + 202.0 + 2.0 * rootn
    prob = BilevelProblem(
        F=partial(_synthetic_F, n, e), f=partial(_synthetic_f, e),
        grad_F_x=partial(_synthetic_grad_F_x, n),
        grad_F_y=_synthetic_grad_F_y,
        grad_f_x=partial(_synthetic_grad_f_x, e),
        grad_f_y=partial(_synthetic_grad_f_y, e),
        set_X=Box(np.full(n, 0.1), np.full(n, 10.0)),
        set_Y=Box(y_star, np.inf),
        mu=2.0, lip_F=2.0, lip_f=lip_f,
    )
    return SyntheticProblem(problem=prob, x_star=e / 2.0, y_star=y_star)


# ---------------------------------------------------------------------------
# hyper-representation on synthetic regression data


@dataclass(frozen=True)
class HyperRepData:
    """Synthetic regression splits for pessimistic representation learning.

    Targets are generated noise-free as y = X^T H_real w_real; Gaussian
    noise (scale noise_a of generate_hyper_rep) is then added to the
    validation/training inputs and targets. The test split stays clean.
    """

    H_real: np.ndarray   # (n_feat, p_dim)
    w_real: np.ndarray   # (p_dim,)
    X_val: np.ndarray    # (n_feat, m1)
    y_val: np.ndarray    # (m1,)
    X_train: np.ndarray  # (n_feat, m2)
    y_train: np.ndarray  # (m2,)
    X_test: np.ndarray   # (n_feat, m_test)
    y_test: np.ndarray   # (m_test,)

    @property
    def n_feat(self):
        return self.H_real.shape[0]

    @property
    def p_dim(self):
        return self.H_real.shape[1]


def generate_hyper_rep(n_feat, p_dim, m1, m2, m_test, noise_a, seed):
    """Draw one HyperRepData instance (all base entries standard normal)."""
    if min(n_feat, p_dim, m1, m2, m_test) < 1:
        raise ContractViolation("all hyper-representation dimensions must be >= 1")
    if noise_a < 0:
        raise ContractViolation("noise_a must be >= 0")
    rng = np.random.Generator(np.random.Philox(seed))
    H_real = rng.standard_normal((n_feat, p_dim))
    w_real = rng.standard_normal(p_dim)
    X_val = rng.standard_normal((n_feat, m1))
    X_train = rng.standard_normal((n_feat, m2))
    X_test = rng.standard_normal((n_feat, m_test))
    g = H_real @ w_real
    y_val = X_val.T @ g
    y_train = X_train.T @ g
    y_test = X_test.T @ g
    # noise drawn unconditionally so a=0 reproduces the clean stream exactly
    X_val = X_val + noise_a * rng.standard_normal(X_val.shape)
    X_train = X_train + noise_a * rng.standard_normal(X_train.shape)
    y_val = y_val + noise_a * rng.standard_normal(m1)
    y_train = y_train + noise_a * rng.standard_normal(m2)
    return HyperRepData(
        H_real=H_real, w_real=w_real, X_val=X_val, y_val=y_val,
        X_train=X_train, y_train=y_train, X_test=X_test, y_test=y_test,
    )


class _Split:
    """The squared loss of one data split (X, y) and its two gradients, at
    x (the map H, flattened) and w.

    X^T H is kept for the last x seen, keyed on x's dtype, shape, strides
    and bytes, so the calls that share an x (the gradients of one step, and
    every call of an inner solve at fixed x) form it once. The strides are
    in the key because numpy's matmul may take another loop, with other
    last bits, for a strided H than for a contiguous one. The residual is
    (X^T H) w - y, the left-to-right association X.T @ H @ w takes, so the
    loss and grad_x equal the uncached formulas' bit for bit; the products
    with a vector are ndarray.dot, the gemv @ runs, with less call
    overhead. grad_w is (X^T H)^T r from the same memo: m p multiply-adds,
    where H^T (X r) would take n m + n p. Its last bits differ from
    H^T (X r)'s; the end-metric gate in tests/test_equivalence.py bounds
    how far that moves a run. On a block of rows, x (S, n p) and w (S, p),
    the gradients are matmuls over the (S, n, p) stack, memoized per block,
    whose slices run the 1-D products' loops: each row equals its call
    alone bit for bit (tests/test_benchmarks.py pins it on the BLAS at
    hand). A point keeps its own path: a step's six calls take 29-32 us on
    one, 43-44 us on a one-row block. The loss takes one point. Instances
    pickle with their memo; their bound methods stay pure seen from outside.
    """

    def __init__(self, X, y):
        self.X, self.y = X, y
        self._memo = (None, None)  # (key of x, X^T H)

    def _residual(self, x, w):
        """(X^T H, the residual (X^T H) w - y, whether x is one point, so
        the gradients need not test it again); for a block, the (S, m, p)
        and (S, m) stacks of its rows'."""
        key = (x.dtype, x.shape, x.strides, x.tobytes())
        memo = self._memo  # read once: the pair stays matched under threads
        point = x.ndim == 1
        if key != memo[0]:
            n = self.X.shape[0]
            H = x.reshape(n, -1) if point else x.reshape(len(x), n, -1)
            memo = self._memo = (key, self.X.T @ H)
        if point:
            return memo[1], memo[1].dot(w) - self.y, point
        return memo[1], (memo[1] @ w[:, :, None])[:, :, 0] - self.y, point

    def loss(self, x, w):
        _, r, _ = self._residual(x, w)
        return float(_dot(r, r) / self.y.shape[0])

    def grad_x(self, x, w):
        _, r, point = self._residual(x, w)
        c = 2.0 / self.y.shape[0]
        # (X r) w^T as np.outer forms it: one product per entry
        if point:
            return (c * (self.X.dot(r)[:, None] * w)).ravel()
        return (c * (self.X @ r[:, :, None] * w[:, None, :])).reshape(x.shape)

    def grad_w(self, x, w):
        A, r, point = self._residual(x, w)
        if point:
            return (2.0 / self.y.shape[0]) * A.T.dot(r)
        return (2.0 / self.y.shape[0]) * (r[:, None, :] @ A)[:, 0]


def hyper_rep_problem(data):
    """Bilevel instance: x is the flattened map H, y the regression head w.

    Upper objective: mean squared validation error of X_val^T H w;
    lower objective: the same on the training split. Both are convex in w,
    so the strong-concavity assumption fails; mu is recorded as 0 with an
    assumption note and certified step bounds refuse the instance. The
    penalty term restores concavity in practice once rho exceeds the
    validation/training curvature ratio. F and f are quartic in (H, w)
    jointly, so no global gradient Lipschitz bound exists: lip_F and lip_f
    are recorded as inf.

    Gradients (r = X^T H w - y): grad_w = (2/m) (X^T H)^T r,
    grad_H = (2/m) X r w^T.

    F and its two gradients share one validation split, f and its two one
    training split, and each split keeps X^T H for the last x it saw (see
    _Split): a step's calls and an inner solve at fixed x form it once. A
    batch of starts passes its (S, n p) and (S, p) blocks, so a step's
    calls form X^T H once for all rows.
    """
    n, p = data.n_feat, data.p_dim
    val = _Split(data.X_val, data.y_val)
    train = _Split(data.X_train, data.y_train)
    return BilevelProblem(
        F=val.loss, f=train.loss,
        grad_F_x=val.grad_x, grad_F_y=val.grad_w,
        grad_f_x=train.grad_x, grad_f_y=train.grad_w,
        set_X=FullSpace(n * p), set_Y=FullSpace(p),
        mu=0.0, lip_F=math.inf, lip_f=math.inf,
        assumption_note="upper objective is convex (not strongly concave) in w",
    )


def hyper_rep_test_loss(data, x, w):
    """Mean squared error of the learned (H, w) on the clean test split."""
    return _Split(data.X_test, data.y_test).loss(
        _as_vector(x, data.n_feat * data.p_dim, "x"),
        _as_vector(w, data.p_dim, "w"))


def hyper_rep_init(data, rng):
    """Random start for a hyper-representation run: H, w standard normal."""
    x0 = rng.standard_normal(data.n_feat * data.p_dim)
    y0 = rng.standard_normal(data.p_dim)
    return x0, y0, y0.copy()
