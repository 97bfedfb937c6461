"""Monotonicity functionals evaluated on a value function through the solver.

Three quadratic functionals of a test pair (xi, eta) — the Lasry-Lions form,
the displacement lambda-form, and the anti-monotone form — are evaluated on
V(t, ., mu) for sampled time slices and direction batteries.  The law mu of
xi is the uniform cloud of the 1-D atom array x, and eta = eta(xi) is a 1-D
array aligned with it; the functionals take a (B, N) stack of directions and
return one value per direction.  Access to V is an object with two
methods: ``tangent(t, x, etas)`` returns the (B, N) directional measure
derivatives of the value gradient at the atoms x for the (B, N) stack of
directions (``value_measure_gradient``), and ``field(t, clouds)`` maps a
(B, N) stack of clouds at one time to B fields whose first slice is
V(t, ., mu) for each row, read for V_xx of the undisplaced cloud only.
``solver.ValueAccess`` provides both from a converged flow, and a fixed
terminal cost serves as well.
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


def mon_ll(access, t: float, x: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """Lasry-Lions form of each direction eta of the (B, N) stack: the
    empirical mean of <eta_i, D_i>, where
    D_i = (1/N) sum_j d_x d_mu V(t, x_i, mu, x_j) eta_j."""
    d_vals = value_measure_gradient(access, t, x, etas)
    return np.mean(etas * d_vals, axis=-1)


def mon_disp(access, t: float, x: np.ndarray, etas: np.ndarray,
             lam: float) -> np.ndarray:
    """Displacement lambda-form of each direction: Lasry-Lions term plus
    <Vxx eta, eta> + lam |eta|^2."""
    if lam < 0:
        raise MonotonicityError("displacement parameter lambda must be nonnegative")
    vxx = access.field(t, x[None, :])[0].uxx_at(0, x)
    ll_term = mon_ll(access, t, x, etas)
    return ll_term + np.mean(vxx * etas**2, axis=-1) + lam * np.mean(etas**2, axis=-1)


def mon_anti(access, t: float, x: np.ndarray, etas: np.ndarray,
             lvec: LambdaVec) -> np.ndarray:
    """Anti-monotone form of each direction; the verdict direction is
    value <= tolerance."""
    vxx = access.field(t, x[None, :])[0].uxx_at(0, x)
    d_vals = value_measure_gradient(access, t, x, etas)
    return np.mean(
        lvec.l0 * vxx * etas**2
        + lvec.l1 * d_vals * etas
        + (vxx * etas) ** 2
        + lvec.l2 * d_vals**2
        - lvec.l3 * etas**2,
        axis=-1,
    )


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


def mon_value(kind: str, access, t: float, x: np.ndarray, etas: np.ndarray,
              lam: float = 0.0, lvec: LambdaVec | None = None) -> np.ndarray:
    """The functional of one kind ("ll", "disp" or "anti") at time t, one
    value per direction of the (B, N) stack etas."""
    if kind == "ll":
        return mon_ll(access, t, x, etas)
    if kind == "disp":
        return mon_disp(access, t, x, etas, lam)
    return mon_anti(access, t, x, etas, lvec)


def monotonicity_sweep(flow, access, kind: str, lam: float = 0.0,
                       lvec: LambdaVec | None = None, slices: int = 5,
                       battery_size: int = 12, tolerance: float = 1e-6, seed: int = 0) -> MonotonicityReport:
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
        etas = np.array(direction_battery(x_k, battery_size, seed))
        values = mon_value(kind, access, t, x_k, etas, lam, lvec)
        samples += [{"t": t, "level": k, "direction": d_idx, "value": float(value)}
                    for d_idx, value in enumerate(values)]
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
            "seed": seed,
        },
    )

