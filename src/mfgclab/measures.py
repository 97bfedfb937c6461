"""Empirical probability measures on state space and on state x control space.

Particle clouds with explicit weights are the computational stand-in for
square-integrable probability measures.  All shipped experiments run with
uniform weights and one-dimensional states; weighted supports are kept so
that Picard damping can mix two clouds without optimal-transport machinery.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

WEIGHT_TOL = 1e-12


class MeasureError(ValueError):
    """Raised when a particle cloud violates a measure invariant."""


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise MeasureError(f"points must be a (n, d) array with n >= 1, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise MeasureError("points contain non-finite coordinates")
    return pts


def _as_weights(weights, n: int) -> np.ndarray:
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise MeasureError(f"weights must have shape ({n},), got {w.shape}")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise MeasureError("weights must be finite and nonnegative")
    if abs(w.sum() - 1.0) > WEIGHT_TOL:
        raise MeasureError(f"weights sum to {w.sum()!r}, expected 1 within {WEIGHT_TOL}")
    return w


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted particle cloud on R^d."""

    points: np.ndarray   # (n, d)
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        pts = _as_points(self.points)
        w = _as_weights(self.weights if self.weights is not None else None, pts.shape[0])
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def x(self) -> np.ndarray:
        """Flat coordinate view, only meaningful for d = 1."""
        if self.dim != 1:
            raise MeasureError("flat view requires d = 1")
        return self.points[:, 0]

    def mean(self, coordinate: int = 0) -> float:
        return float(self.weights @ self.points[:, coordinate])

    def shifted(self, delta) -> "EmpiricalMeasure":
        """Cloud with every particle moved by its own displacement vector."""
        d = np.asarray(delta, dtype=float)
        if d.ndim == 1:
            d = d[:, None]
        return EmpiricalMeasure(self.points + d, self.weights)

    def is_uniform(self) -> bool:
        return bool(np.all(np.abs(self.weights - 1.0 / self.n) <= WEIGHT_TOL))


@dataclass(frozen=True)
class JointEmpiricalMeasure:
    """Weighted particle cloud on pairs (state, second component).

    The second component is either a control or a momentum depending on
    which law the cloud represents.  The first marginal always shares the
    state atoms and weights exactly.
    """

    states: np.ndarray   # (n, d)
    seconds: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        s = _as_points(self.states)
        a = _as_points(self.seconds)
        if a.shape != s.shape:
            raise MeasureError(f"state/second shapes differ: {s.shape} vs {a.shape}")
        w = _as_weights(self.weights if self.weights is not None else None, s.shape[0])
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "seconds", a)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def x(self) -> np.ndarray:
        if self.dim != 1:
            raise MeasureError("flat view requires d = 1")
        return self.states[:, 0]

    @property
    def a(self) -> np.ndarray:
        if self.dim != 1:
            raise MeasureError("flat view requires d = 1")
        return self.seconds[:, 0]

    def second_mean(self, coordinate: int = 0) -> float:
        return float(self.weights @ self.seconds[:, coordinate])

    def with_seconds(self, seconds) -> "JointEmpiricalMeasure":
        return JointEmpiricalMeasure(self.states, _as_points(seconds), self.weights)


def mixture(a, b, weight_b: float):
    """Convex combination (1-w)*a + w*b as a concatenated-support cloud."""
    if not 0.0 <= weight_b <= 1.0:
        raise MeasureError(f"mixture weight must lie in [0, 1], got {weight_b}")
    w = np.concatenate([(1.0 - weight_b) * a.weights, weight_b * b.weights])
    # Renormalise away the last-ulp drift so the invariant check stays exact.
    w = w / w.sum()
    if isinstance(a, JointEmpiricalMeasure):
        if not isinstance(b, JointEmpiricalMeasure):
            raise MeasureError("cannot mix joint and plain clouds")
        return JointEmpiricalMeasure(
            np.concatenate([a.states, b.states]),
            np.concatenate([a.seconds, b.seconds]),
            w,
        )
    if isinstance(b, JointEmpiricalMeasure):
        raise MeasureError("cannot mix joint and plain clouds")
    return EmpiricalMeasure(np.concatenate([a.points, b.points]), w)


def _levels(n: int) -> np.ndarray:
    """Midpoint quantile levels (i + 1/2)/n of an n-atom cloud."""
    if n < 1:
        raise MeasureError(f"a cloud needs at least one atom, got n = {n}")
    return (np.arange(n) + 0.5) / n


def gaussian_quantile_cloud(n: int, mean: float = 0.0, sd: float = 1.0) -> EmpiricalMeasure:
    """Deterministic Gaussian cloud: stratified quantiles of N(mean, sd^2)."""
    levels = _levels(n)
    return EmpiricalMeasure((mean + sd * ndtri(levels))[:, None], np.full(n, 1.0 / n))


def uniform_grid_cloud(n: int, lo: float, hi: float) -> EmpiricalMeasure:
    levels = _levels(n)
    return EmpiricalMeasure((lo + (hi - lo) * levels)[:, None], np.full(n, 1.0 / n))

