"""Differential calculus on empirical measures.

The chain-rule check of the reduced Hamiltonian Hhat(x, p, rho) =
H(x, p, Phi(rho)) against central differences, over a stack of laws in one
vectorised pass, and the one reader of the directional measure derivative
of the value-function gradient that the monotonicity functionals consume:
the exact measure-derivative matrix of each level, held by the value access,
applied to a stack of directions at a stack of levels.  Measure derivatives
are Lions derivatives of a uniform cloud: N times the partial derivative in
one atom.
"""
from __future__ import annotations

from dataclasses import fields

import numpy as np

from .models import HatTable, Model, fixed_point_phi, hamiltonian, hat_derivative_table
from .solver import level_indices

# Relative steps of the central differences: first derivatives in a point
# variable, and second derivatives and atom displacements.  Hhat is a
# low-degree polynomial, so round-off is the only error and larger steps cut it.
FD_STEP_FIRST = 1e-4
FD_STEP_SECOND = 1e-3


class CalculusError(ValueError):
    pass


def _difference_table(model: Model, x: np.ndarray, p: np.ndarray) -> tuple:
    """Central differences of Hhat for every entry of ``hat_derivative_table``,
    and Hhat(x_i, p_i, rho) at the atoms, for the laws along the leading axes.

    Each law is a (1, N) row, so that its means round as one law's however
    many are stacked, against the atoms as a column of points.  Measure
    entries [i, j] differentiate in the point (x_i, p_i) and in atom j of the
    law; the laws with one atom displaced are an (N, N) stack per law.
    """
    n = x.shape[-1]
    w = np.full(n, 1.0 / n)

    def hat(xs, ps):
        """Hhat(xx, pp, rho) of the points, for the laws rho along the
        second-to-last axis, their means taken once."""
        m1, m2 = (xs @ w)[..., None, :], (fixed_point_phi(model, xs, ps) @ w)[..., None, :]
        return lambda xx, pp: hamiltonian(model, xx, pp, m1, m2)

    xr, pr, xc, pc = x[..., None, :], p[..., None, :], x[..., None], p[..., None]
    h1 = FD_STEP_FIRST * np.maximum(1.0, np.abs(pc))
    hx = FD_STEP_SECOND * np.maximum(1.0, np.abs(xc))
    hp = FD_STEP_SECOND * np.maximum(1.0, np.abs(pc))
    hh = hat(xr, pr)
    base = hh(xc, pc)
    point = dict(
        h_p=(hh(xc, pc + h1) - hh(xc, pc - h1)) / (2.0 * h1),
        h_pp=(hh(xc, pc + hp) - 2.0 * base + hh(xc, pc - hp)) / hp**2,
        h_xx=(hh(xc + hx, pc) - 2.0 * base + hh(xc - hx, pc)) / hx**2,
        h_xp=(hh(xc + hx, pc + hp) - hh(xc + hx, pc - hp)
              - hh(xc - hx, pc + hp) + hh(xc - hx, pc - hp)) / (4.0 * hx * hp),
    )

    # Row j of a displaced stack is the law with atom j moved by its own step.
    measure = {}
    for atom, sx, sp, e in ((1, hx * np.eye(n), 0.0, hx), (2, 0.0, hp * np.eye(n), hp)):
        plus, minus = hat(xr + sx, pr + sp), hat(xr - sx, pr - sp)
        for var, step in (("x", hx), ("p", hp)):
            dx, dp = (step, 0.0) if var == "x" else (0.0, step)
            cross = (plus(xc + dx, pc + dp) - plus(xc - dx, pc - dp)
                     - minus(xc + dx, pc + dp) + minus(xc - dx, pc - dp))
            measure[f"h_{var}rho{atom}"] = n * cross / (4.0 * step * e.swapaxes(-1, -2))
    return HatTable(**{k: v[..., 0] for k, v in point.items()}, **measure), base[..., 0]


def chain_rule_check(model: Model, x, p) -> tuple:
    """(errors, scale): the largest |closed form - central difference| of
    each hat derivative over the uniform law of the aligned atom arrays
    (x_i, p_i), and the scale max(1, max_i |Hhat(x_i, p_i, rho)|), in the
    shape of the leading axes, which are independent laws; each law's values
    are bit-identical to its own check.

    The closed forms are ``hat_derivative_table``'s; the differences are
    taken of H(x, p, Phi(rho)), with Phi the model's control-law fixed point,
    so the check covers the chain rule through Phi.  Their round-off grows
    with the size of Hhat itself, so a tolerance is meant relative to the
    scale.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    closed = hat_derivative_table(model, x, p)
    fd, base = _difference_table(model, x, p)
    errors = {f.name: np.abs(getattr(closed, f.name) - getattr(fd, f.name))
              .reshape(*x.shape[:-1], -1).max(axis=-1) for f in fields(HatTable)}
    return errors, np.maximum(1.0, np.max(np.abs(base), axis=-1))


def value_measure_gradient(access, levels, etas) -> np.ndarray:
    """Directional measure derivatives of the value gradient at the atoms of
    each given level's cloud, for the (B, L, N) stack etas: etas[b, l] is
    direction b at level k = levels[l], and so is the answer's row [b, l].

    Row [b, l] is D_i = (1/N) sum_j d_x d_mu V(t_k, x_i, mu_k, x_j) eta_j at
    every atom x_i of mu_k, the uniform cloud of level k's N atoms: M[k] eta,
    with M the access's (levels, N, N) stack ``matrices``
    (``solver.ValueAccess``).  It is one matrix-vector product per
    (direction, level), so every row is bit-identical to asking for it
    alone.  A level outside the stack is a ``SolverError``.
    """
    matrices = access.matrices[level_indices(levels, len(access.matrices))]
    etas = np.asarray(etas, dtype=float)
    if etas.shape[1:] != matrices.shape[:2]:
        raise CalculusError(f"direction stack of shape {etas.shape} does not match "
                            f"{len(matrices)} level(s) of {matrices.shape[-1]} atoms")
    return np.matmul(matrices, etas[..., None])[..., 0]
