"""Monotonicity functionals evaluated on a value function through the solver.

Three quadratic functionals of a test pair (xi, eta) — the Lasry-Lions form,
the displacement lambda-form, and the anti-monotone form — are evaluated on
V(t_k, ., mu_k) at sampled grid levels k of the equilibrium flow, where mu_k
is the solved cloud of that level, for a battery of directions.  The law of
xi is the uniform cloud of the level's N atoms, and eta = eta(xi) is a 1-D
array aligned with them; the functionals take a (B, N) stack of directions
and return one value per direction.

Each functional is a function of the ``Pairings`` of (eta, Vxx eta, D),
with D the directional measure derivative of the value gradient.  Its kind
object (``propagation.MONOTONICITY_KINDS``) defines it once, with the kind's
parameters and verdict sign: ``mon_disp`` applies it at one level,
``monotonicity_sweep`` over a flow, and the variational traces of
``propagation`` along the first-variation system.

Access to V is keyed by the level index k alone and answers at that level's
cloud, whose size is the access's ``n_particles``.  ``field(k)`` returns
V_xx(t_k, ., mu_k) at the atoms, and ``tangent(k, etas)`` the (B, N)
directional measure derivatives of the value gradient there for the (B, N)
stack of directions, each row as if asked alone.  ``solver.ValueAccess``
provides both for a converged flow, from the exact measure-derivative
matrix of each level, and a fixed terminal cost at a fixed cloud serves as
well.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .calculus import value_measure_gradient
from .reports import MonotonicityReport


class MonotonicityError(ValueError):
    pass


@dataclass(frozen=True)
class LambdaVec:
    """Weight vector of the anti-monotone functional; the admissible set is
    l0 > 0, l1 real, l2 > 0, l3 >= 0."""

    l0: float
    l1: float
    l2: float
    l3: float

    def __post_init__(self):
        if not (self.l0 > 0 and self.l2 > 0 and self.l3 >= 0):
            raise MonotonicityError(
                f"lambda vector ({self.l0}, {self.l1}, {self.l2}, {self.l3}) "
                "violates l0 > 0, l2 > 0, l3 >= 0"
            )


class Pairings(NamedTuple):
    """The pairings of a first-variation state (dX, G, U), one value per
    direction: I = E[U dX], Ibar = E[G dX], dX2 = E[dX^2], g2 = E[G^2] and
    u2 = E[U^2].  Every monotonicity functional is a function of these."""

    i: np.ndarray
    ibar: np.ndarray
    dx2: np.ndarray
    g2: np.ndarray
    u2: np.ndarray


def pairings(dx: np.ndarray, gamma: np.ndarray, upsilon: np.ndarray) -> Pairings:
    """The ``Pairings`` of (dX, G, U), averaged over the atoms (last axis)."""
    def mean(a):
        return np.mean(a, axis=-1)

    return Pairings(mean(upsilon * dx), mean(gamma * dx), mean(dx**2), mean(gamma**2),
                    mean(upsilon**2))


def mon_disp(access, k: int, etas: np.ndarray, kind) -> np.ndarray:
    """The functional of a kind at level k, one value per direction of the
    (B, N) stack etas, from the pairings of (eta, G = Vxx eta, D) with
    D_i = (1/N) sum_j d_x d_mu V(t_k, x_i, mu_k, x_j) eta_j.  The
    Lasry-Lions functional reads I alone, so G does not enter its value."""
    vxx = access.field(k)
    d_vals = value_measure_gradient(access, k, etas)
    return kind.functional(pairings(etas, vxx * etas, d_vals))


def direction_battery(xs: np.ndarray, count: int = 12, seed: int = 0) -> list:
    """Deterministic direction battery over the atoms xs: a list of 1-D
    arrays eta, each aligned with xs.

    The first ``count`` of the shapes 1, noise, x, x - mean, x^2, x^2 - mean,
    x^3, x^3 - mean, each followed by its negative, where noise is a mean-free
    i.i.d. draw (the mean-free variant of the constant feedback) and shapes
    that vanish on the cloud are skipped; fresh mean-free noise pairs fill any
    remainder.  The default count of 12 therefore stops before the cubic
    shapes.  All directions are normalised to unit root-mean-square.  A
    remainder on a single atom cannot be filled, since every mean-free draw
    vanishes there; that is a MonotonicityError.
    """
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(xs.shape[0])
    candidates = [np.ones_like(xs), noise - noise.mean()]
    for degree in (1, 2, 3):
        psi = xs**degree
        candidates += [psi, psi - psi.mean()]
    shapes = []
    for cand in candidates:
        rms = float(np.sqrt(np.mean(cand**2)))
        if rms >= 1e-12:
            shapes += [cand / rms, -cand / rms]
    while len(shapes) < count:
        fresh = rng.standard_normal(xs.shape[0])
        fresh = fresh - fresh.mean()
        rms = float(np.sqrt(np.mean(fresh**2)))
        if rms < 1e-12:
            raise MonotonicityError(
                f"cannot fill a battery of {count} directions on {xs.shape[0]} atom(s): "
                f"only {len(shapes)} directions do not vanish on the cloud")
        shapes += [fresh / rms, -fresh / rms]
    return shapes[:count]


def tolerance_scale(dt: float, dx: float, n_particles: int, c: float) -> float:
    """Discretisation tolerance: every first-order error source enters linearly."""
    return float(c * (dt + dx**2 + 1.0 / np.sqrt(n_particles)))


def monotonicity_sweep(access, kind, slices: int = 5, battery_size: int = 12,
                       tolerance: float = 1e-6, seed: int = 0) -> MonotonicityReport:
    """Evaluate one kind's functional over time slices x direction battery.

    ``kind`` is a monotonicity kind object (``propagation.MONOTONICITY_KINDS``):
    it carries its parameters and functional, which ``mon_disp`` evaluates
    at each level, and judges the values by its sign.  Slice times are grid
    levels of the access's converged flow, with the flow's own states there
    as the cloud.
    """
    flow = access.flow
    grid = flow.grid
    levels = [int(round(q * grid.n_t / (slices - 1))) for q in range(slices)] \
        if slices > 1 else [0]
    samples, ts = [], grid.ts
    for k in sorted(set(levels)):
        etas = np.array(direction_battery(flow.states[k], battery_size, seed))
        values = mon_disp(access, k, etas, kind)
        samples += [{"t": float(ts[k]), "level": k, "direction": d_idx,
                     "value": float(value)}
                    for d_idx, value in enumerate(values)]
    values = np.array([s["value"] for s in samples])
    lvec = kind.lvec
    return MonotonicityReport(
        kind=kind.name,
        samples=samples,
        minimum=float(values.min()),
        tolerance=tolerance,
        verdict=kind.holds(values, tolerance),
        metadata={
            "maximum": float(values.max()),
            "lambda": kind.lam,
            "lambda_vec": None if lvec is None else [lvec.l0, lvec.l1, lvec.l2, lvec.l3],
            "slices": slices,
            "battery_size": battery_size,
            "seed": seed,
        },
    )
