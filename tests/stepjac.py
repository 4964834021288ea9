"""The single-loop step at frozen Params as a map, its Jacobian and its
fixed point: the tool that says whether the step is stable where it is.

At fixed Params the step is a map G of the flat state v = (x, y, z), with
N = n_x + 2 n_y entries. The batch contract (every row of a batch steps as
its serial step, bit for bit) makes G's central-difference Jacobian one
sipba_step call: the 2N perturbed states are stacked as rows of one batch.
Its dominant eigenvalue alone costs two rows a product, by power iteration.
"""

import numpy as np

from sipba.solver import IterateState, sipba_step


def flat(state):
    """v = (x, y, z) of a state of vectors; one row per row of a batch."""
    return np.concatenate((state.x, state.y, state.z), axis=-1)


def unflat(problem, v, k):
    """The state at counter k whose flat form is v (a vector or rows), in
    contiguous blocks, as initial_state and run build them."""
    n_x, n_y = problem.n_x, problem.n_y
    x, y, z = np.split(v, (n_x, n_x + n_y), axis=-1)
    return IterateState(k=k, x=x.copy(), y=y.copy(), z=z.copy())


def step_jacobian(problem, pars, state, h):
    """dG/dv at state, G the step at pars, by central differences of step h:
    column j from the rows v + h e_j and v - h e_j of one batched step."""
    v = flat(state)
    dv = h * np.eye(v.size)
    g = flat(sipba_step(problem, pars,
                        unflat(problem, np.vstack((v + dv, v - dv)), state.k)))
    return ((g[:v.size] - g[v.size:]) / (2.0 * h)).T


def frozen_fixed_point(problem, pars, state, h=1e-7, iters=8):
    """Newton on G(v) - v from state, G the step at pars: (the state at the
    fixed point, G's Jacobian there, ||G(v) - v|| there)."""
    eye = np.eye(flat(state).size)
    for _ in range(iters):
        v = flat(state)
        gap = flat(sipba_step(problem, pars, state)) - v
        jac = step_jacobian(problem, pars, state, h)
        state = unflat(problem, v - np.linalg.solve(jac - eye, gap), state.k)
    gap = flat(sipba_step(problem, pars, state)) - flat(state)
    return state, step_jacobian(problem, pars, state, h), np.linalg.norm(gap)


def spectral_reading(problem, pars, state, h=1e-7, iters=30):
    """Power iteration on dG/dv at state, G the step at pars, each product
    Jv the central difference (G(v + h u) - G(v - h u)) / (2h) along the
    unit vector u, from the rows v + h u and v - h u of one batched step:
    (|lambda|, u.Ju) after iters products from a fixed random u. |lambda|
    is the size of the dominant eigenvalue and u.Ju, once u has settled on
    a real one, that eigenvalue with its sign (below -1: the step flips).
    It reads the dominant eigenvalue only: a negative eigenvalue smaller in
    size than the dominant one is invisible to it, however close to -1."""
    v = flat(state)
    u = np.random.default_rng(0).standard_normal(v.size)
    u /= np.linalg.norm(u)
    for _ in range(iters):
        g = flat(sipba_step(problem, pars, unflat(
            problem, np.vstack((v + h * u, v - h * u)), state.k)))
        ju = (g[0] - g[1]) / (2.0 * h)
        size, along = np.linalg.norm(ju), u @ ju
        u = ju / size
    return size, along
