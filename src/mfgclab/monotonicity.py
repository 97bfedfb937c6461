"""Monotonicity functionals evaluated on a value function through the solver.

Three quadratic functionals of a test pair (xi, eta) — the Lasry-Lions form,
the displacement lambda-form, and the anti-monotone form — are evaluated on
V(t, ., mu) for sampled time slices and direction batteries.  The law mu of
xi is the uniform cloud of the 1-D atom array x, and eta = eta(xi) is a 1-D
array aligned with it.  Access to V is an object with a
``field(t, x) -> ValueField`` method whose first slice is V(t, ., mu):
``solver.ValueAccess`` re-solves from a converged flow, and a fixed terminal
cost or an analytic stand-in serves as well.  The measure derivative of the
value gradient is the central difference of two such fields at directionally
displaced clouds (``value_measure_gradient``).
"""
from __future__ import annotations

from dataclasses import dataclass

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


def mon_ll(access, t: float, x: np.ndarray, eta: np.ndarray,
           fd_eps: float = 1e-3) -> float:
    """Lasry-Lions form: the empirical mean of <eta_i, D_i>, where
    D_i = (1/N) sum_j d_x d_mu V(t, x_i, mu, x_j) eta_j."""
    d_vals = value_measure_gradient(access, t, x, eta, fd_eps)
    return float(np.mean(eta * d_vals))


def mon_disp(access, t: float, x: np.ndarray, eta: np.ndarray,
             lam: float, fd_eps: float = 1e-3) -> float:
    """Displacement lambda-form: Lasry-Lions term plus <Vxx eta, eta> + lam |eta|^2."""
    if lam < 0:
        raise MonotonicityError("displacement parameter lambda must be nonnegative")
    vxx = access.field(t, x).uxx_at(0, x)
    ll_term = mon_ll(access, t, x, eta, fd_eps)
    return float(ll_term + np.mean(vxx * eta**2) + lam * np.mean(eta**2))


def mon_anti(access, t: float, x: np.ndarray, eta: np.ndarray,
             lvec: LambdaVec, fd_eps: float = 1e-3) -> float:
    """Anti-monotone form; the verdict direction is value <= tolerance."""
    vxx = access.field(t, x).uxx_at(0, x)
    d_vals = value_measure_gradient(access, t, x, eta, fd_eps)
    return float(np.mean(
        lvec.l0 * vxx * eta**2
        + lvec.l1 * d_vals * eta
        + (vxx * eta) ** 2
        + lvec.l2 * d_vals**2
        - lvec.l3 * eta**2
    ))


def direction_battery(xs: np.ndarray, count: int = 12, seed: int = 0) -> list:
    """Deterministic direction battery over the atoms xs: a list of 1-D
    arrays eta, each aligned with xs.

    The first ``count`` of the shapes 1, noise, x, x - mean, x^2, x^2 - mean,
    x^3, x^3 - mean, each followed by its negative, where noise is a mean-free
    i.i.d. draw (the mean-free variant of the constant feedback) and shapes
    that vanish on the cloud are skipped; fresh mean-free noise pairs fill any
    remainder.  The default count of 12 therefore stops before the cubic
    shapes.  All directions are normalised to unit root-mean-square.
    """
    rng = np.random.default_rng(seed)
    shapes = []
    ones = np.ones_like(xs)
    noise = rng.standard_normal(xs.shape[0])
    noise = noise - noise.mean()
    candidates = [ones, noise]
    for degree in (1, 2, 3):
        psi = xs**degree
        candidates.append(psi)
        candidates.append(psi - psi.mean())
    extra = 0
    while len(shapes) < count:
        for cand in candidates:
            rms = float(np.sqrt(np.mean(cand**2)))
            if rms < 1e-12:
                continue
            shapes.append(cand / rms)
            shapes.append(-cand / rms)
            if len(shapes) >= count:
                break
        else:
            extra += 1
            fresh = rng.standard_normal(xs.shape[0])
            candidates = [fresh - fresh.mean()]
            if extra > 8:
                raise MonotonicityError("could not assemble the direction battery")
            continue
    return shapes[:count]


def tolerance_scale(dt: float, dx: float, n_particles: int, fd_eps: float,
                    c: float) -> float:
    """Discretisation tolerance: every first-order error source enters linearly."""
    return float(c * (dt + dx**2 + 1.0 / np.sqrt(n_particles) + fd_eps**2))


def mon_value(kind: str, access, t: float, x: np.ndarray, eta: np.ndarray,
              fd_eps: float, lam: float = 0.0, lvec: LambdaVec | None = None) -> float:
    """The functional of one kind ("ll", "disp" or "anti") at one (t, direction)."""
    if kind == "ll":
        return mon_ll(access, t, x, eta, fd_eps)
    if kind == "disp":
        return mon_disp(access, t, x, eta, lam, fd_eps)
    return mon_anti(access, t, x, eta, lvec, fd_eps)


def monotonicity_sweep(flow, access, kind: str, lam: float = 0.0,
                       lvec: LambdaVec | None = None, slices: int = 5,
                       battery_size: int = 12, fd_eps: float = 1e-3,
                       tolerance: float = 1e-6, seed: int = 0) -> MonotonicityReport:
    """Evaluate one functional over time slices x direction battery.

    Slice times are grid levels of the converged flow, with the flow's own
    states there as the cloud.  The verdict is min >= -tolerance for the Lasry-Lions
    and displacement kinds, and max <= tolerance for the anti-monotone kind.
    """
    if kind not in ("ll", "disp", "anti"):
        raise MonotonicityError(f"unknown monotonicity kind {kind!r}")
    if kind == "anti" and lvec is None:
        raise MonotonicityError("anti kind needs a lambda vector")
    grid = flow.grid
    levels = [int(round(q * grid.n_t / (slices - 1))) for q in range(slices)] \
        if slices > 1 else [0]
    samples = []
    for k in sorted(set(levels)):
        t, x_k = float(grid.ts[k]), flow.states[k]
        for d_idx, eta in enumerate(direction_battery(x_k, battery_size, seed)):
            value = mon_value(kind, access, t, x_k, eta, fd_eps, lam, lvec)
            samples.append({"t": t, "level": k, "direction": d_idx, "value": value})
    values = np.array([s["value"] for s in samples])
    minimum = float(values.min())
    maximum = float(values.max())
    verdict = (maximum <= tolerance) if kind == "anti" else (minimum >= -tolerance)
    return MonotonicityReport(
        kind=kind,
        samples=samples,
        minimum=minimum,
        tolerance=tolerance,
        verdict=bool(verdict),
        metadata={
            "maximum": maximum,
            "lambda": lam,
            "lambda_vec": None if lvec is None else [lvec.l0, lvec.l1, lvec.l2, lvec.l3],
            "slices": slices,
            "battery_size": battery_size,
            "fd_eps": fd_eps,
            "seed": seed,
        },
    )

