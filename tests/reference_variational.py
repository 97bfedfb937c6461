"""Reference implementation of ``propagation.simulate_variational``: the
first-variation system stepped level by level, as the package stepped it
before the transition stack.

Each level reads V_xx at the atoms (``access.field``) and the measure
derivative of the value gradient (``value_measure_gradient``) for itself
alone, and takes one explicit Euler step of dX with the velocity ``dx_velocity`` of the level's
hat table.
"""
import numpy as np

from mfgclab.calculus import value_measure_gradient
from mfgclab.models import HatTable, hat_derivative_table
from mfgclab.propagation import GateError


def dx_velocity(table: HatTable, eta: np.ndarray, gz: np.ndarray) -> np.ndarray:
    """Velocity of the first-variation state dX = eta with gz = G + U: the
    point terms plus the mean-field forcing (h_prho1 eta + h_prho2 gz) @ w.
    Leading axes of eta and gz are independent directions."""
    w = np.full(eta.shape[-1], 1.0 / eta.shape[-1])
    return (table.h_xp * eta + table.h_pp * gz
            + (table.h_prho1 * eta[..., None, :] + table.h_prho2 * gz[..., None, :]) @ w)


def simulate_variational(access, etas: np.ndarray) -> tuple:
    """(dX, G, U, table) of the (B, N) stack etas along the access's flow,
    one Euler step per level."""
    flow = access.flow
    delta = np.array(etas, dtype=float)
    n_t, dt = flow.grid.n_t, flow.grid.dt
    table = hat_derivative_table(access.model, flow.states, flow.momenta)
    dx, gamma, upsilon = (np.empty((len(delta), n_t + 1, flow.n_particles))
                          for _ in range(3))
    for k in range(n_t + 1):
        g_k = access.field([k])[0] * delta
        u_k = value_measure_gradient(access, [k], delta[:, None])[:, 0]
        dx[:, k], gamma[:, k], upsilon[:, k] = delta, g_k, u_k
        if k < n_t:
            delta = delta + dt * dx_velocity(table[k], delta, g_k + u_k)
            if not np.all(np.isfinite(delta)):
                raise GateError(f"variational state blew up at level {k}", {"level": k})
    return dx, gamma, upsilon, table
