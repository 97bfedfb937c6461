"""Reference implementation of the fixed-sweep re-solve map.

``ValueAccess.tangent`` is the derivative of this map at the base cloud;
the package never runs the map itself, so the tests realise it here as the
oracle of central differences.  The re-solve of a cloud x at level k starts
from the base flow shifted atom by atom, states = base.states[k:] + (x -
base.states[k]) with the momenta base.momenta[k:], reuses the base flow's
Brownian increments and runs RESOLVE_SWEEPS undamped one-cloud ``_sweep``s
with no residual check.  At the last level it is the terminal slice
g(., mu).
"""
import numpy as np

from mfgclab.solver import RESOLVE_SWEEPS, ValueField, _d1_rows, _sweep, terminal_field


def resolve_field(model, flow, k, x):
    """The one-level field V(t_k, ., mu) of the re-solve of the cloud x at
    level k, for the uniform cloud mu of x."""
    grid = flow.grid
    if k == grid.n_t:
        return terminal_field(model, x, grid.xs, grid.t_end)
    states = flow.states[k:] + (x - flow.states[k])
    states[0] = x
    momenta = flow.momenta[k:]
    for _ in range(RESOLVE_SWEEPS):
        states, momenta, u = _sweep(model, x, grid.xs, grid.dx, grid.dt, flow.brownian[k:],
                                    states, momenta)
    return ValueField(u[:1], grid.xs, grid.ts[k:k + 1])


def ux_at(field, level, x):
    """The value gradient of one level of a field, interpolated at the points x."""
    ux = _d1_rows(field.u[level], field.xs[1] - field.xs[0])
    return np.interp(np.asarray(x, dtype=float), field.xs, ux)
