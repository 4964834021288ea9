"""Exercise the saddle oracle on the 1-d quadratic testbed.

Everything here is checkable by hand: the surrogate is jointly quadratic, so
the inner saddle has a closed form and the certified step bound from the
contraction analysis can be compared against what actually happens.
"""

import numpy as np

from sipba import (
    PenaltyReg,
    check_gradients,
    eval_phi,
    grad_phi,
    lemma_step_bound,
    operator_T,
    quadratic_testbed,
    solve_saddle,
)
from sipba.benchmarks import analytic_saddle
from sipba.saddle import estimate_T_lipschitz, default_start

quad = quadratic_testbed()
pr = PenaltyReg(rho=1.0, sigma=1.0)
x = np.array([1.0])

# closed form vs oracle
ys, zs = analytic_saddle(1.0, pr.rho, pr.sigma)
sd = solve_saddle(quad, pr, x, tol=1e-12)
print("analytic saddle  y = %.12f  z = %.12f" % (ys[0], zs[0]))
print("oracle saddle    y = %.12f  z = %.12f  (%d iterations, residual %.1e)"
      % (sd.y_star[0], sd.z_star[0], sd.iterations, sd.residual))

# the certified step and the step the oracle actually picked
bound = lemma_step_bound(quad, pr)
est = estimate_T_lipschitz(quad, pr, x, default_start(quad))
print("certified contraction step  %.6f" % bound)
print("default oracle step 1/L     %.6f  (L estimate %.4f, %d operator calls)"
      % (1.0 / est.value, est.value, est.calls))

# a nearby solve warm-started from the last one, as the double-loop
# baseline makes it: it starts at that saddle, and its step-size estimate
# runs 3 power iterations from the last estimate's direction instead of 30
near_est = estimate_T_lipschitz(quad, pr, x + 0.01, sd.u, v0=est.vector)
near = solve_saddle(quad, pr, x + 0.01, tol=1e-12, u0=sd.u,
                    beta=0.5 / near_est.value)
print("cold solve: %d iterations, estimate %d calls; warm solve at x+0.01: "
      "%d iterations, estimate %d calls"
      % (sd.iterations, est.calls, near.iterations, near_est.calls))

# smoothed value and its gradient; phi is -5/13 at x = 1 for rho = sigma = 1
print("phi(1.0)      = %.12f" % eval_phi(quad, pr, x, tol=1e-12))
print("grad phi(1.0) = %.12f" % grad_phi(quad, pr, x, tol=1e-12)[0])

# finite-difference audit of the four partial gradients
print(check_gradients(quad, n_points=20))

# one projected fixed-point step below the bound really does contract
rng = np.random.default_rng(7)
ustar = np.concatenate((ys, zs))
beta = 0.9 * bound
worst = 0.0
for _ in range(200):
    u = rng.normal(scale=4.0, size=2)
    u_next = u - beta * operator_T(quad, pr, x, u)
    before = np.dot(u - ustar, u - ustar)
    after = np.dot(u_next - ustar, u_next - ustar)
    worst = max(worst, after / before)
print("worst contraction ratio over 200 random starts: %.6f "
      "(certified %.6f)" % (worst, 1 - min(pr.sigma, quad.mu) * beta))
