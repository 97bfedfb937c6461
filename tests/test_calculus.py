import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgclab.calculus import CalculusError, chain_rule_check, value_measure_gradient
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
        self.requests = []

    def field(self, t, clouds):
        self.requests.append(len(clouds))
        return [ValueField(self.value(self.xs, x)[None, :], self.xs, np.array([t]))
                for x in clouds]


class TestValueMeasureGradient:
    def test_linear_mean_field(self):
        # V(t, x, mu) = x * E[xi]: the gradient derivative along eta is mean(eta).
        access = AnalyticAccess(lambda xs, mu: xs * mean(mu))
        mu = cloud([0.0, 1.0, -2.0, 0.5])
        eta = np.array([1.0, 2.0, 0.0, -1.0])
        got = value_measure_gradient(access, 0.0, mu, eta[None, :])
        assert got.shape == (1, 4)
        assert np.allclose(got, np.mean(eta), atol=1e-9)

    def test_no_measure_dependence(self):
        access = AnalyticAccess(lambda xs, mu: xs**2)
        mu = cloud([0.0, 1.0])
        got = value_measure_gradient(access, 0.0, mu, np.array([[1.0, -3.0]]))
        assert np.array_equal(got, np.zeros((1, 2)))

    def test_quadratic_mean_field(self):
        # V = x * E[xi]^2: derivative of dV/dx along eta is 2 E[xi] mean(eta).
        access = AnalyticAccess(lambda xs, mu: xs * mean(mu) ** 2)
        mu = cloud([0.5, 1.5, -1.0, 3.0])
        eta = np.array([0.2, -0.4, 1.0, 0.6])
        got = value_measure_gradient(access, 0.0, mu, eta[None, :])
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
        g1, g2, g12 = value_measure_gradient(access, 0.0, mu, np.array([e1, e2, e1 + e2]))
        assert np.allclose(g12, g1 + g2, atol=2e-6)

    def test_zero_direction_short_circuits(self):
        class NoAccess:
            def field(self, t, clouds):  # pragma: no cover - must not be called
                raise AssertionError("no field should be asked for a zero direction")

        mu = cloud([0.0, 1.0])
        got = value_measure_gradient(NoAccess(), 0.0, mu, np.zeros((2, 2)))
        assert np.array_equal(got, np.zeros((2, 2)))

    def test_sign_pair_and_zero_row_in_one_request(self):
        # V = x E[xi]^2 + x^2 E[xi^2] / 2 as in the linearity test.
        def value(xs, mu):
            return xs * mean(mu) ** 2 + 0.5 * xs**2 * mean(mu**2)

        access = AnalyticAccess(value)
        rng = np.random.default_rng(5)
        mu = cloud(rng.normal(size=6))
        eta = rng.normal(size=6)
        got = value_measure_gradient(access, 0.0, mu, np.array([eta, -eta, np.zeros(6)]))
        assert access.requests == [4]  # x +/- eps eta for the two live rows
        (single,) = value_measure_gradient(AnalyticAccess(value), 0.0, mu, eta[None, :])
        assert np.array_equal(got[0], single)
        assert np.array_equal(got[1], -single)
        assert np.array_equal(got[2], np.zeros(6))

    def test_direction_stack_must_match_cloud(self):
        access = AnalyticAccess(lambda xs, mu: xs * mean(mu))
        mu = cloud([0.0, 1.0])
        for bad in (np.ones(2), np.ones((1, 3))):
            with pytest.raises(CalculusError, match="direction"):
                value_measure_gradient(access, 0.0, mu, bad)


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
        errors, _ = chain_rule_check(model, x, p)
        assert max(errors.values()) <= 1e-6, errors

    def test_near_contraction_bound_passes_relative_to_hhat(self):
        # At df0/dm2 = 0.999 the control mean is amplified 1000-fold, Hhat
        # reaches ~6e3 and its round-off moves h_pp and h_xx by ~3e-6: an
        # absolute 1e-6 fails this correct model, the scaled tolerance passes.
        model = Model(b0=(0.8, 0.3, -0.2), f0=(0.1, 0.2, -0.3, 0.999))
        x, p = np.random.default_rng(7).normal(size=(2, 8))
        errors, scale = chain_rule_check(model, x, p)
        assert max(errors.values()) > 1e-6
        assert scale > 1e3
        assert max(errors.values()) <= 1e-6 * scale, (errors, scale)
