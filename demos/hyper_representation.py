"""Linear hyper-representation: single loop vs double loop at equal budget.

The task learns a feature map H (the leader) so that a linear head w fit on
training data generalizes to a validation set, with the head chosen
adversarially among training-optimal solutions. The double-loop baseline
re-solves the inner saddle to tolerance at every outer step; the single-loop
method takes one cheap step of everything. Budgets are matched in partial
gradient evaluations, which is what actually costs time here.
"""

import numpy as np

from sipba import (
    ScheduleParams,
    generate_hyper_rep,
    hyper_rep_init,
    hyper_rep_problem,
    hyper_rep_test_loss,
    initial_state,
    run,
    run_double_loop_baseline,
    with_gradient_counter,
)

N_FEAT, P_DIM = 50, 5
STEPS = 10000  # single-loop iterations; budget = 6 evaluations per step

data = generate_hyper_rep(N_FEAT, P_DIM, m1=100, m2=100, m_test=500,
                          noise_a=0.1, seed=7)
prob = hyper_rep_problem(data)
x0, y0, z0 = hyper_rep_init(data, np.random.Generator(np.random.Philox(42)))
print("features %d, head dim %d, leader unknowns %d"
      % (N_FEAT, P_DIM, prob.n_x))
print("initial test loss %.4f" % hyper_rep_test_loss(data, x0, y0))

sp = ScheduleParams(alpha0=0.01, beta0=1e-4, rho0=10.0, sigma0=0.01,
                    p=0.01, q=0.01, s=0.16)

# single loop, counting every partial gradient call
counted, cnt = with_gradient_counter(prob)
res = run(counted, sp, initial_state(counted, x0, y0, z0), max_iter=STEPS)
s_loss = hyper_rep_test_loss(data, res.state.x, res.state.y)
print("single loop: %6d evals  test loss %.4f" % (cnt.count, s_loss))
budget = cnt.count

# double loop with a larger leader step, stopped at the same budget
counted, cnt = with_gradient_counter(prob)
sp_base = ScheduleParams(alpha0=0.2, beta0=1e-4, rho0=10.0, sigma0=0.01,
                         p=0.01, q=0.01, s=0.16)
u0 = np.concatenate((y0, z0))
base = run_double_loop_baseline(counted, sp_base, x0, outer_iter=None,
                                inner_tol=1e-5, u0=u0, grad_budget=budget)
b_loss = hyper_rep_test_loss(data, base.x, base.saddle.y_star)
print("double loop: %6d evals  test loss %.4f  (%d outer steps, "
      "%d inner iterations)" % (cnt.count, b_loss, base.outer_iterations,
                                base.inner_iterations))

print("loss ratio single/double at matched budget: %.3f" % (s_loss / b_loss))
