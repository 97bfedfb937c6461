"""Reference implementation of the plain damped Picard iteration.

``solve_mfgc`` Anderson-mixes the last sweeps; this is the iteration it
accelerates, written out on its own: from the uncontrolled flow, the next
flow is ``omega * prop + (1 - omega) * x`` after every sweep, until the
residual reaches the tolerance.  The accepted flow is the final proposal
with the terminal momenta refreshed from g, as in ``solve_mfgc``.
"""
import numpy as np

from mfgclab.solver import PicardError, _d1_rows, _quantile_dist, _sweep


def plain_picard(model, x0, grid, picard, seed):
    """(states, momenta, residual history) of the damped Picard solve."""
    brownian = np.random.default_rng(seed).standard_normal((grid.n_t, x0.size))
    xs, dx, dt = grid.xs, grid.dx, grid.dt
    states = np.empty((grid.n_t + 1, x0.size))
    states[0] = x0
    for k in range(grid.n_t):
        states[k + 1] = states[k] + np.sqrt(dt) * brownian[k]
    momenta = np.zeros_like(states)
    history = []
    for _ in range(picard.max_iter):
        prop_states, prop_momenta, u = _sweep(model, x0, xs, dx, dt, brownian,
                                              states, momenta)
        history.append(float(max(np.max(_quantile_dist(states, prop_states)),
                                 np.max(_quantile_dist(momenta, prop_momenta)))))
        if history[-1] <= picard.tol:
            states, momenta = prop_states, prop_momenta
            break
        omega = picard.damping
        states = omega * prop_states + (1.0 - omega) * states
        momenta = omega * prop_momenta + (1.0 - omega) * momenta
    else:
        raise PicardError("plain Picard did not converge", history)
    u[-1] = model.g(xs, states[-1])
    momenta[-1] = np.interp(states[-1], xs, _d1_rows(u[-1], dx))
    return states, momenta, history
