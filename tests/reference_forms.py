"""Reference implementation of the quadratic forms L, Ibar, DX2 and the
displacement form, the oracle of both paths that evaluate them: the gates'
closed-form matrices (``conditions.form_matrices``) and the traces' atom
sums (``propagation.evaluate_rhs_formulas``).

Each form is written out as the atom sums of its definition, one direction
(eta, gamma, zeta) at a time.  Double sums run over all atom pairs
(self-pairs included) through the weight vectors; [i, j] entries of the
derivative tables put the base point at atom i and the support atom at j.
"""
import numpy as np

from mfgclab.models import HatTable
from reference_variational import dx_velocity


def ll_form(table: HatTable, eta: np.ndarray, gamma: np.ndarray, zeta: np.ndarray) -> float:
    """Left-hand side of the Lasry-Lions propagation condition."""
    w = np.full(eta.shape[0], 1.0 / eta.shape[0])
    gz = gamma + zeta
    term_pp = float(np.mean(zeta * table.h_pp * zeta))
    cross_x = float((w * eta) @ (table.h_xrho1 * eta[None, :]
                                 + table.h_xrho2 * gz[None, :]) @ w)
    cross_p = float((w * (gamma - zeta)) @ (table.h_prho1 * eta[None, :]
                                            + table.h_prho2 * gz[None, :]) @ w)
    return term_pp - cross_x - cross_p


def ibar_form(table: HatTable, eta: np.ndarray, gamma: np.ndarray,
              zeta: np.ndarray) -> float:
    """Time derivative of the curvature pairing Ibar = E[G dX] at
    (dX, G, U) = (eta, gamma, zeta)."""
    w = np.full(eta.shape[0], 1.0 / eta.shape[0])
    return (float(np.mean(table.h_pp * gamma * gamma))
            + 2.0 * float(np.mean(table.h_pp * gamma * zeta))
            + 2.0 * float((w * gamma) @ (table.h_prho1 * eta[None, :]
                                         + table.h_prho2 * (gamma + zeta)[None, :]) @ w)
            - float(np.mean(table.h_xx * eta * eta)))


def dx2_form(table: HatTable, eta: np.ndarray, gamma: np.ndarray,
             zeta: np.ndarray) -> float:
    """Time derivative of the second moment E[dX^2] at (dX, G, U) =
    (eta, gamma, zeta)."""
    return 2.0 * float(np.mean(dx_velocity(table, eta, gamma + zeta) * eta))


def disp_form(table: HatTable, eta: np.ndarray, gamma: np.ndarray, zeta: np.ndarray,
              lam: float) -> float:
    """Left-hand side of the displacement lambda propagation condition: the
    time derivative of I + Ibar + lam E[dX^2] along the first-variation
    system.  It depends on gamma and zeta only through gamma + zeta."""
    return (ll_form(table, eta, gamma, zeta) + ibar_form(table, eta, gamma, zeta)
            + lam * dx2_form(table, eta, gamma, zeta))
