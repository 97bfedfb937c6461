import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgclab.calculus import chain_rule_check, value_measure_gradient
from mfgclab.models import MeanPoly2, Model
from mfgclab.solver import ValueField


def cloud(xs):
    return np.asarray(xs, dtype=float)


def mean(x):
    return float(np.mean(x))


class AnalyticAccess:
    """Access object whose field is the one-level grid of an analytic V(x, atoms).

    Central differences are exact for quadratics in x, so the field's gradient
    at the atoms is the analytic dV/dx.
    """

    def __init__(self, value):
        self.value = value
        self.xs = np.linspace(-4.0, 4.0, 161)

    def field(self, t, x):
        return ValueField(self.value(self.xs, x)[None, :], self.xs, np.array([t]))


class TestValueMeasureGradient:
    def test_linear_mean_field(self):
        # V(t, x, mu) = x * E[xi]: the gradient derivative along eta is mean(eta).
        access = AnalyticAccess(lambda xs, mu: xs * mean(mu))
        mu = cloud([0.0, 1.0, -2.0, 0.5])
        eta = np.array([1.0, 2.0, 0.0, -1.0])
        got = value_measure_gradient(access, 0.0, mu, eta)
        assert got.shape == (4,)
        assert np.allclose(got, np.mean(eta), atol=1e-9)

    def test_no_measure_dependence(self):
        access = AnalyticAccess(lambda xs, mu: xs**2)
        mu = cloud([0.0, 1.0])
        got = value_measure_gradient(access, 0.0, mu, np.array([1.0, -3.0]))
        assert np.array_equal(got, np.zeros(2))

    def test_quadratic_mean_field(self):
        # V = x * E[xi]^2: derivative of dV/dx along eta is 2 E[xi] mean(eta).
        access = AnalyticAccess(lambda xs, mu: xs * mean(mu) ** 2)
        mu = cloud([0.5, 1.5, -1.0, 3.0])
        eta = np.array([0.2, -0.4, 1.0, 0.6])
        got = value_measure_gradient(access, 0.0, mu, eta)
        assert np.allclose(got, 2 * mean(mu) * np.mean(eta), atol=1e-7)

    def test_linearity_in_direction(self):
        # V = x E[xi]^2 + x^2 E[xi^2] / 2, so dV/dx = E[xi]^2 + x E[xi^2].
        def value(xs, mu):
            return xs * mean(mu) ** 2 + 0.5 * xs**2 * mean(mu**2)

        access = AnalyticAccess(value)
        rng = np.random.default_rng(12)
        mu = cloud(rng.normal(size=6))
        e1 = rng.normal(size=6)
        e2 = rng.normal(size=6)
        g1 = value_measure_gradient(access, 0.0, mu, e1)
        g2 = value_measure_gradient(access, 0.0, mu, e2)
        g12 = value_measure_gradient(access, 0.0, mu, e1 + e2)
        assert np.allclose(g12, g1 + g2, atol=2e-6)

    def test_zero_direction_short_circuits(self):
        class NoAccess:
            def field(self, t, x):  # pragma: no cover - must not be called
                raise AssertionError("no field should be asked for a zero direction")

        mu = cloud([0.0, 1.0])
        got = value_measure_gradient(NoAccess(), 0.0, mu, np.zeros(2))
        assert np.array_equal(got, np.zeros(2))


coefficient = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def random_models(draw):
    """Models with every coefficient in [-1, 1] and df0/dm2 <= 0.9."""
    def some(k):
        return tuple(draw(st.lists(coefficient, min_size=k, max_size=k)))

    return Model(b0=some(3), f0=some(3) + (draw(st.floats(-1.0, 0.9)),), b1_x=some(3),
                 B=MeanPoly2(some(6)), f1_x=some(4), q1=draw(coefficient),
                 q2=draw(coefficient))


class TestChainRuleCheck:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(model=random_models(), seed=st.integers(0, 2**32 - 1))
    def test_random_models_pass(self, model, seed):
        x, p = np.random.default_rng(seed).normal(size=(2, 8))
        errors = chain_rule_check(model, x, p)
        assert max(errors.values()) <= 1e-6, errors
