"""Empirical probability measures on state space.

A state law in P2(R) is a uniform cloud of N atoms, held as a 1-D float
array; its mean is ``np.full(n, 1/n) @ x``.  A test direction eta is a 1-D
array aligned with the cloud, eta_i attached to atom x_i, and the cloud
displaced along it is ``x + eps * eta``.  A (state, momentum) or (state,
control) law is a pair of aligned atom arrays.
"""
from __future__ import annotations

from statistics import NormalDist

import numpy as np


class MeasureError(ValueError):
    """Raised when a particle cloud violates a measure invariant."""


def _levels(n: int) -> np.ndarray:
    """Midpoint quantile levels (i + 1/2)/n of an n-atom cloud."""
    if n < 1:
        raise MeasureError(f"a cloud needs at least one atom, got n = {n}")
    return (np.arange(n) + 0.5) / n


def gaussian_quantile_cloud(n: int, mean: float = 0.0, sd: float = 1.0) -> np.ndarray:
    """Deterministic Gaussian cloud: stratified quantiles of N(mean, sd^2)."""
    unit = NormalDist()
    return mean + sd * np.array([unit.inv_cdf(p) for p in _levels(n)])


def uniform_grid_cloud(n: int, lo: float, hi: float) -> np.ndarray:
    return lo + (hi - lo) * _levels(n)

