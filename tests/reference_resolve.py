"""Reference implementation of the re-solve of a displaced cloud.

``ValueAccess.matrices`` is the derivative of the discrete equilibrium at
the base cloud; the package never re-solves a displaced cloud, so the tests
realise the re-solve here as the oracle of central differences.  The
re-solve of a cloud x at level k starts from the base flow shifted atom by
atom, states = base.states[k:] + (x - base.states[k]) with the momenta
base.momenta[k:], reuses the base flow's Brownian increments and iterates
undamped one-cloud ``_sweep``s to their fixed point.  At the last level it
is the terminal slice g(., mu).
"""
import numpy as np

from mfgclab.solver import ValueField, _d1_rows, _sweep, terminal_field

# The re-solve stops once a sweep moves no state or momentum by more than
# RESOLVE_TOL, or once the move has reached the round-off floor and stopped
# falling: below ROUNDOFF_FLOOR, with no new minimum over STALL_SWEEPS
# sweeps.  An absolute 1e-15 is at round-off itself, and some re-solves
# cycle just above it (two of test_quadratic_mean_field's re-solves from
# level 9 move by 1.1e-15 on every sweep).  Each undamped sweep contracts the
# distance to the fixed point by at most about 0.2 on the tests' flows, so a
# displacement of 1e-2 converges in some 20 sweeps; MAX_SWEEPS bounds a map
# that does not.
RESOLVE_TOL = 1e-15
ROUNDOFF_FLOOR = 1e-13
STALL_SWEEPS = 3
MAX_SWEEPS = 100


def resolve_field(model, flow, k, x):
    """The one-level field V(t_k, ., mu) of the re-solve of the cloud x at
    level k, for the uniform cloud mu of x."""
    grid = flow.grid
    if k == grid.n_t:
        return terminal_field(model, x, grid.xs, grid.t_end)
    states = flow.states[k:] + (x - flow.states[k])
    states[0] = x
    momenta = flow.momenta[k:]
    least, stalled = np.inf, 0
    for _ in range(MAX_SWEEPS):
        prop_states, prop_momenta, u = _sweep(model, x, grid.xs, grid.dx, grid.dt,
                                              flow.brownian[k:], states, momenta)
        change = max(np.max(np.abs(prop_states - states)),
                     np.max(np.abs(prop_momenta - momenta)))
        states, momenta = prop_states, prop_momenta
        least, stalled = (change, 0) if change < least else (least, stalled + 1)
        if change <= RESOLVE_TOL or (least < ROUNDOFF_FLOOR and stalled >= STALL_SWEEPS):
            return ValueField(u[:1], grid.xs, grid.ts[k:k + 1])
    raise AssertionError(f"the re-solve from level {k} moved by {change:.1e} after "
                         f"{MAX_SWEEPS} sweeps")


def ux_at(field, level, x):
    """The value gradient of one level of a field, interpolated at the points x."""
    ux = _d1_rows(field.u[level], field.xs[1] - field.xs[0])
    return np.interp(np.asarray(x, dtype=float), field.xs, ux)
