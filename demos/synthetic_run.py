"""Solve the n=100 synthetic benchmark and watch the diagnostics decay.

The synthetic family has a known leader optimum x* = 0.5 * ones and a known
worst-case follower response, so we can report a true relative error while
the solver runs. The schedule below is the reference configuration used
throughout the test suite: very slow penalty growth (p = q = 0.001) and a
mildly decaying leader step (s = 0.1).
"""

import numpy as np

from sipba import (
    ScheduleParams,
    initial_state,
    relative_error,
    run,
    snapshot,
    synthetic_problem,
)

N = 100
MAX_ITER = 20000
SEED = 0


def main():
    sb = synthetic_problem(N)
    sp = ScheduleParams(alpha0=0.1, beta0=0.001, rho0=10.0, sigma0=0.01,
                        p=0.001, q=0.001, s=0.1)

    rng = np.random.Generator(np.random.Philox(SEED))
    x0, y0, z0 = sb.sample_init(rng)
    init = initial_state(sb.problem, x0, y0, z0)
    x_init, y_init = init.x.copy(), init.y.copy()

    print("synthetic benchmark, n = %d, seed = %d" % (N, SEED))
    print("%8s  %12s  %12s" % ("k", "eps_rel", "tracking"))

    def progress(state, elapsed):
        eps = relative_error(state.x, state.y, sb.x_star, sb.y_star,
                             x_init, y_init)
        te = snapshot(sb.problem, sp, state, oracle_tol=1e-8).tracking_err
        print("%8d  %12.4e  %12.4e" % (state.k - 1, eps, te))

    res = run(sb.problem, sp, init, max_iter=MAX_ITER,
              target=lambda st: relative_error(
                  st.x, st.y, sb.x_star, sb.y_star, x_init, y_init) < 1e-4,
              callback=progress, callback_stride=2000)

    final = relative_error(res.state.x, res.state.y, sb.x_star, sb.y_star,
                           x_init, y_init)
    print("finished after %d iterations (%.2f s of stepping)"
          % (res.iterations, res.step_seconds))
    if res.target_iteration is not None:
        print("eps_rel crossed 1e-4 at iteration %d" % res.target_iteration)
    print("final eps_rel %.3e (squared-distance ratio to the start)" % final)
    print("max |x_i - x*_i| = %.2e, started at %.2e"
          % (np.max(np.abs(res.state.x - sb.x_star)),
             np.max(np.abs(x_init - sb.x_star))))
    print("x[:5]  = %s" % np.array2string(res.state.x[:5], precision=6))
    print("x*[:5] = %s" % np.array2string(sb.x_star[:5], precision=6))


if __name__ == "__main__":
    main()
