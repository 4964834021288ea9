"""How close is the smoothed value to the true pessimistic value?

The surrogate under-estimates the true worst-case objective (up to a small
regularization slack), and the gap closes as rho grows and sigma shrinks.
On the synthetic family both values are available in closed form, so the
sandwich can be checked exactly. We also watch the oracle saddle collapse
onto the worst-case follower response (y*(x), y*(x)) in the same limit.
"""

import numpy as np

from sipba import sandwich_check, synthetic_problem

N = 4

sb = synthetic_problem(N)
x = np.ones(N)

rhos = [1e1, 1e2, 1e3, 1e4]
sigmas = [1e-1, 1e-2, 1e-3, 1e-4]

rep = sandwich_check(sb, x, rho_list=rhos, sigma_list=sigmas,
                     oracle_tol=1e-9)
print(rep)
print()
print("%10s %10s %14s %14s %12s" % ("rho", "sigma", "phi_smoothed",
                                    "phi_exact", "gap"))
for r in rep.records:
    print("%10.0e %10.0e %14.6f %14.6f %12.3e"
          % (r.rho, r.sigma, r.phi_smoothed, r.phi_exact, r.gap))

# saddle collapse along the diagonal
print()
print("distance of the oracle saddle to (y*(x), y*(x)):")
for r in rep.diagonal:
    print("  rho %8.0e  sigma %8.0e   dev %.3e" % (r.rho, r.sigma, r.saddle_dev))
