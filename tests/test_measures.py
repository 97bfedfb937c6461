import itertools

import numpy as np
import pytest

from mfgclab.measures import (
    JointEmpiricalMeasure,
    MeasureError,
    gaussian_quantile_cloud,
    mixture,
)
from mfgclab.models import QuadraticTerminalCost
from mfgclab.solver import _quantile_dist


def joint(xs, sec, weights=None):
    xs = np.asarray(xs, dtype=float)
    sec = np.asarray(sec, dtype=float)
    return JointEmpiricalMeasure(xs[:, None], sec[:, None], weights)


class TestInvariants:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(MeasureError):
            JointEmpiricalMeasure(np.zeros((2, 1)), np.zeros((2, 1)), np.array([0.5, 0.6]))

    def test_nonfinite_points_rejected(self):
        with pytest.raises(MeasureError):
            joint([0.0, np.inf], [0.0, 0.0])
        with pytest.raises(MeasureError):
            joint([0.0, 0.0], [np.nan, 0.0])

    def test_negative_weights_rejected(self):
        with pytest.raises(MeasureError):
            JointEmpiricalMeasure(np.zeros((2, 1)), np.zeros((2, 1)), np.array([1.5, -0.5]))

    def test_empty_rejected(self):
        with pytest.raises(MeasureError):
            JointEmpiricalMeasure(np.zeros((0, 1)), np.zeros((0, 1)), np.zeros(0))


def mean(x):
    """A cloud's mean, with the uniform weight vector the package uses."""
    return float(np.full(x.shape[0], 1.0 / x.shape[0]) @ x)


class TestMoment:
    def test_first_moment(self):
        # The terminal cost g = x E[xi] reads the mean of its cloud of atoms.
        g = QuadraticTerminalCost(xm=1.0)
        assert g(1.0, np.array([1.0, 3.0])) == pytest.approx(2.0)

    def test_single_atom(self):
        g = QuadraticTerminalCost(xm=1.0)
        for c in (-2.5, 0.0, 7.0):
            assert g(1.0, np.array([c])) == pytest.approx(c)

    def test_linear_in_weights(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = joint(rng.normal(size=5), rng.normal(size=5))
            b = joint(rng.normal(size=4), rng.normal(size=4))
            w = float(rng.uniform())
            mixed = mixture(a, b, w)
            for moment in (lambda m: m.second_mean(), lambda m: float(m.weights @ m.x**2)):
                expected = (1 - w) * moment(a) + w * moment(b)
                assert moment(mixed) == pytest.approx(expected, abs=1e-12)


class TestFlowDistance:
    """The Picard residual's metric: 2-Wasserstein distance of equal-size
    uniform clouds by the sorted-quantile coupling."""

    def test_identical_is_zero(self):
        a = np.array([0.3, -1.0, 2.0])
        assert _quantile_dist(a, a) == 0.0

    def test_translation(self):
        a = np.zeros(7)
        for c in (-1.5, 0.25, 4.0):
            assert _quantile_dist(a, np.full(7, c)) == pytest.approx(abs(c))

    def test_two_atom_oracle(self):
        # Enumerate both couplings of {0,1} vs {1,2}: the sorted coupling wins.
        xs = np.array([0.0, 1.0])
        ys = np.array([1.0, 2.0])
        best = min(
            np.sqrt(np.mean((xs - np.array(perm)) ** 2))
            for perm in itertools.permutations(ys)
        )
        assert best == pytest.approx(1.0)
        assert _quantile_dist(xs, ys) == pytest.approx(best)

    def test_metric_properties_on_seeded_triples(self):
        rng = np.random.default_rng(2024)
        for _ in range(120):
            n = int(rng.integers(2, 9))
            a, b, c = rng.normal(size=(3, n))
            dab = _quantile_dist(a, b)
            dba = _quantile_dist(b, a)
            assert dab == dba
            assert dab >= 0.0
            assert dab <= _quantile_dist(a, c) + _quantile_dist(c, b) + 1e-12

    def test_zero_iff_sorted_supports_match(self):
        a = np.array([0.0, 1.0, 2.0])
        assert _quantile_dist(a, np.array([2.0, 0.0, 1.0])) == 0.0
        assert _quantile_dist(a, np.array([0.0, 1.0, 2.5])) > 0.0


class TestMixtureResample:
    def test_mixture_weights(self):
        mixed = mixture(joint([0.0, 1.0], [0.0, 0.0]), joint([5.0], [0.0]), 0.25)
        assert mixed.n == 3
        assert mixed.weights.sum() == pytest.approx(1.0)
        assert np.allclose(mixed.weights, [0.375, 0.375, 0.25])

    def test_joint_mixture(self):
        mixed = mixture(joint([0.0], [1.0]), joint([2.0], [3.0]), 0.5)
        assert mixed.n == 2
        assert np.allclose(mixed.seconds[:, 0], [1.0, 3.0])

    def test_mixture_weight_outside_unit_interval_rejected(self):
        with pytest.raises(MeasureError):
            mixture(joint([0.0], [0.0]), joint([1.0], [0.0]), 1.5)


class TestQuantileClouds:
    def test_gaussian_cloud_moments(self):
        g = gaussian_quantile_cloud(4096, mean=1.5, sd=2.0)
        assert g.shape == (4096,)
        assert mean(g) == pytest.approx(1.5, abs=1e-12)
        assert mean(g**2) - mean(g) ** 2 == pytest.approx(4.0, rel=5e-3)

    def test_gaussian_cloud_symmetric(self):
        g = gaussian_quantile_cloud(16)
        assert np.allclose(np.sort(g) + np.sort(g)[::-1], 0.0, atol=1e-12)
