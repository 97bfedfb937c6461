"""Empirical probability measures on state space and on state x control space.

Particle clouds with explicit weights are the computational stand-in for
square-integrable probability measures.  All shipped experiments run with
uniform weights and one-dimensional states; weighted supports are kept so
that Picard damping can mix two clouds without optimal-transport machinery.
"""
from __future__ import annotations

import csv
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


def first_marginal(joint: JointEmpiricalMeasure) -> EmpiricalMeasure:
    """Project a joint cloud onto its state components, weights unchanged."""
    return EmpiricalMeasure(joint.states, joint.weights)


def moment(m: EmpiricalMeasure, k: int, coordinate: int = 0) -> float:
    """Weighted power sum sum_i w_i x_i^k along one coordinate."""
    if k not in (1, 2):
        raise MeasureError(f"moment order must be 1 or 2, got {k}")
    if not 0 <= coordinate < m.dim:
        raise MeasureError(f"coordinate {coordinate} out of range for d = {m.dim}")
    return float(m.weights @ m.points[:, coordinate] ** k)


def flow_distance(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """2-Wasserstein distance between two uniform d=1 clouds of equal size.

    Uses the sorted-quantile coupling, which is optimal on the line:
    sqrt((1/n) sum_i |x_(i) - y_(i)|^2) over order statistics.
    """
    if a.dim != 1 or b.dim != 1:
        raise MeasureError("flow_distance is restricted to d = 1")
    if a.n != b.n:
        raise MeasureError(f"flow_distance needs equal particle counts, got {a.n} and {b.n}")
    if not (a.is_uniform() and b.is_uniform()):
        raise MeasureError("flow_distance needs uniform weights")
    xa = np.sort(a.x)
    xb = np.sort(b.x)
    return float(np.sqrt(np.mean((xa - xb) ** 2)))


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


def resample_quantile(m: EmpiricalMeasure, n: int) -> EmpiricalMeasure:
    """Stratified inverse-CDF resampling of a d=1 cloud back to n uniform atoms.

    Deterministic: atom i is the weighted empirical quantile at level
    (i + 1/2)/n.  Resampling a uniform n-cloud onto n atoms reproduces its
    sorted support exactly.
    """
    if m.dim != 1:
        raise MeasureError("quantile resampling is restricted to d = 1")
    order = np.argsort(m.x, kind="stable")
    xs = m.x[order]
    cum = np.cumsum(m.weights[order])
    levels = _levels(n)
    idx = np.searchsorted(cum, levels, side="left")
    idx = np.clip(idx, 0, m.n - 1)
    return EmpiricalMeasure(xs[idx][:, None], np.full(n, 1.0 / n))


def gaussian_quantile_cloud(n: int, mean: float = 0.0, sd: float = 1.0) -> EmpiricalMeasure:
    """Deterministic Gaussian cloud: stratified quantiles of N(mean, sd^2)."""
    levels = _levels(n)
    return EmpiricalMeasure((mean + sd * ndtri(levels))[:, None], np.full(n, 1.0 / n))


def uniform_grid_cloud(n: int, lo: float, hi: float) -> EmpiricalMeasure:
    levels = _levels(n)
    return EmpiricalMeasure((lo + (hi - lo) * levels)[:, None], np.full(n, 1.0 / n))


def save_measure_csv(path, m) -> None:
    """One row per particle; header row is mandatory."""
    joint = isinstance(m, JointEmpiricalMeasure)
    d = m.dim
    header = [f"x_{i}" for i in range(d)]
    if joint:
        header += [f"a_{i}" for i in range(d)]
    header.append("weight")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(m.n):
            row = list((m.states if joint else m.points)[i])
            if joint:
                row += list(m.seconds[i])
            row.append(m.weights[i])
            writer.writerow([repr(float(v)) for v in row])


def load_measure_csv(path):
    """Inverse of save_measure_csv; returns a joint cloud when a_* columns exist."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows or header[-1] != "weight":
        raise MeasureError(f"malformed measure CSV {path!r}")
    x_cols = [i for i, name in enumerate(header) if name.startswith("x_")]
    a_cols = [i for i, name in enumerate(header) if name.startswith("a_")]
    data = np.asarray(rows)
    weights = data[:, -1]
    points = data[:, x_cols]
    if a_cols:
        return JointEmpiricalMeasure(points, data[:, a_cols], weights)
    return EmpiricalMeasure(points, weights)
