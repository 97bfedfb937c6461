"""Reference implementations of the Picard iteration and of one sweep.

``solve_mfgc`` Anderson-mixes the last sweeps; ``plain_picard`` is the
iteration it accelerates, written out on its own: from the uncontrolled
flow, the next flow is ``omega * prop + (1 - omega) * x`` after every sweep,
until the residual reaches the tolerance.  ``anderson_picard`` is the mixed
iteration with its history kept as lists of the last ANDERSON_DEPTH + 1
iterates and updates, differenced anew at every sweep.  The depth is the
solver's, 8, which holds every difference a shipped ll solve forms; depth 5
dropped the first one at sweep 8 and cost those solves a sweep.  The
accepted flow is the final proposal with the terminal momenta refreshed
from g, as in ``solve_mfgc``.  Both build the uncontrolled flow level by
level and take the residual from ``quantile_dist``: the arithmetic that
``solve_mfgc`` writes in fewer calls, so a bit-for-bit comparison checks
those calls too.

``backward_value`` and ``forward_push`` are the two halves of ``_sweep`` as
plain level-by-level recurrences: u_k = u + dt (u_xx / 2 + H(x, u_x)) with
the difference stencils of ``_d1_rows`` and ``_d2_rows`` and the terms of
level k + 1, and X_{k+1} = X_k + dt H_p(X_k, P_k) + sqrt(dt) dW_k with P_k
the value gradient interpolated at X_k.
"""
import numpy as np

from mfgclab.models import hamiltonian_dp, hamiltonian_terms, mean_terms
from mfgclab.solver import (
    ANDERSON_DEPTH,
    PicardError,
    SolverError,
    _d1_rows,
    _d2_rows,
    _sweep,
)


def backward_value(model, xs, dx, dt, m1, m2, terminal_atoms):
    """The (levels, n_x) value grid of the backward sweep against the
    per-level moments (m1, m2), one level at a time."""
    means = [t[:, None] for t in mean_terms(model, m1, m2)]
    *terms, q = hamiltonian_terms(model, xs, means)
    a0, b0, c, d1, d2 = np.broadcast_arrays(*terms, xs * q)
    u = np.empty(a0.shape)
    u[-1] = model.g(xs, terminal_atoms)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(u.shape[0] - 2, -1, -1):
            row = u[k + 1]
            ux, uxx = _d1_rows(row, dx), _d2_rows(row, dx)
            a = a0[k + 1] + ux * b0[k + 1]
            ham = -0.5 * a**2 + ux * c[k + 1] + d1[k + 1] + d2[k + 1]
            u[k] = row + dt * (0.5 * uxx + ham)
    finite = np.isfinite(u[:-1]).all(axis=1)
    if not finite.all():
        k = int(np.flatnonzero(~finite)[-1])
        raise SolverError(f"value sweep produced non-finite values at level {k}")
    return u


def forward_push(model, x0, xs, dx, dt, brownian, m1, m2, u):
    """(states, momenta) of the particle push from x0 through the value grid
    u against the per-level moments (m1, m2), one level at a time."""
    ux = _d1_rows(u, dx)
    means = [t[:, None] for t in mean_terms(model, m1, m2)]
    states = np.empty((brownian.shape[0] + 1, x0.size))
    momenta = np.empty_like(states)
    states[0] = x0
    for k in range(brownian.shape[0]):
        xk = states[k]
        momenta[k] = np.interp(xk, xs, ux[k])
        drift = hamiltonian_dp(model, xk, momenta[k], [t[k] for t in means])
        states[k + 1] = xk + dt * drift + np.sqrt(dt) * brownian[k]
    momenta[-1] = np.interp(states[-1], xs, ux[-1])
    return states, momenta


def quantile_dist(a, b):
    """The W2 distance of ``solver._quantile_dist``: the RMS difference of
    the sorted rows."""
    return np.sqrt(np.mean((np.sort(a, axis=-1) - np.sort(b, axis=-1)) ** 2, axis=-1))


def uncontrolled_flow(x0, grid, seed):
    """The Brownian increments of a solve and its first flow: the particles
    driven by noise alone, with zero momenta."""
    brownian = np.random.default_rng(seed).standard_normal((grid.n_t, x0.size))
    states = np.empty((grid.n_t + 1, x0.size))
    states[0] = x0
    for k in range(grid.n_t):
        states[k + 1] = states[k] + np.sqrt(grid.dt) * brownian[k]
    return brownian, states, np.zeros_like(states)


def anderson_picard(model, x0, grid, picard, seed):
    """(states, momenta, residual history) of the Anderson-mixed solve."""
    brownian, states, momenta = uncontrolled_flow(x0, grid, seed)
    xs, dx, dt = grid.xs, grid.dx, grid.dt
    omega = picard.damping
    history, iterates, updates = [], [], []
    for _ in range(picard.max_iter):
        prop_states, prop_momenta, u = _sweep(model, x0, xs, dx, dt, brownian,
                                              states, momenta)
        history.append(float(max(np.max(quantile_dist(states, prop_states)),
                                 np.max(quantile_dist(momenta, prop_momenta)))))
        if history[-1] <= picard.tol:
            states, momenta = prop_states, prop_momenta
            break
        x, prop = np.stack((states, momenta)), np.stack((prop_states, prop_momenta))
        step = omega * prop + (1.0 - omega) * x
        iterates.append(x.ravel())
        updates.append((prop - x).ravel())
        del iterates[:-ANDERSON_DEPTH - 1], updates[:-ANDERSON_DEPTH - 1]
        if len(iterates) > 1:
            d_x, d_f = np.diff(iterates, axis=0).T, np.diff(updates, axis=0).T
            gamma = np.linalg.lstsq(d_f, updates[-1], rcond=None)[0]
            step -= ((d_x + omega * d_f) @ gamma).reshape(step.shape)
        states, momenta = step
    else:
        raise PicardError("Anderson-mixed Picard did not converge", history)
    u[-1] = model.g(xs, states[-1])
    momenta[-1] = np.interp(states[-1], xs, _d1_rows(u[-1], dx))
    return states, momenta, history


def plain_picard(model, x0, grid, picard, seed):
    """(states, momenta, residual history) of the damped Picard solve."""
    brownian, states, momenta = uncontrolled_flow(x0, grid, seed)
    xs, dx, dt = grid.xs, grid.dx, grid.dt
    history = []
    for _ in range(picard.max_iter):
        prop_states, prop_momenta, u = _sweep(model, x0, xs, dx, dt, brownian,
                                              states, momenta)
        history.append(float(max(np.max(quantile_dist(states, prop_states)),
                                 np.max(quantile_dist(momenta, prop_momenta)))))
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
