import numpy as np
import pytest

from mfgclab.calculus import (
    CalculusError,
    MeasureFunctional,
    chain_rule_check,
    identity_map,
    mean_shift_map,
    value_measure_gradient,
)
from mfgclab.measures import EmpiricalMeasure, JointEmpiricalMeasure
from mfgclab.solver import ValueField


def cloud(xs):
    xs = np.asarray(xs, dtype=float)
    return EmpiricalMeasure(xs[:, None], np.full(len(xs), 1.0 / len(xs)))


def joint_cloud(rng, n):
    return JointEmpiricalMeasure(
        rng.normal(size=(n, 1)), rng.normal(size=(n, 1)), np.full(n, 1.0 / n)
    )


def second_mean_functional():
    return MeasureFunctional(
        eval=lambda nu: nu.second_mean(),
        label="mean of second coordinate",
        lderiv=lambda nu, pts: pts[:, 1],
    )


def mixed_quadratic_functional():
    def evaluate(nu):
        a = nu.seconds[:, 0]
        x = nu.states[:, 0]
        w = nu.weights
        return float(w @ (a**2) + 0.5 * (w @ a) ** 2 + w @ (x * a))

    def lderiv(nu, pts):
        mean_a = nu.second_mean()
        return pts[:, 1] ** 2 + mean_a * pts[:, 1] + pts[:, 0] * pts[:, 1]

    return MeasureFunctional(eval=evaluate, label="mixed quadratic", lderiv=lderiv)


class TestChainRule:
    def test_identity_map_matches_direct_pairing(self):
        rng = np.random.default_rng(8)
        u = mixed_quadratic_functional()
        phi = identity_map()
        rho = joint_cloud(rng, 8)
        rho_p = joint_cloud(rng, 8)
        out = chain_rule_check(u, phi, rho, rho_p)
        direct = float(np.mean(u.lderiv(rho, np.column_stack([rho_p.x, rho_p.a])))
                       - np.mean(u.lderiv(rho, np.column_stack([rho.x, rho.a]))))
        assert out["chain_value"] == pytest.approx(direct, abs=1e-12)
        assert out["abs_error"] <= 1e-6

    def test_mean_shift_map_closed_value(self):
        # U = E[second], Phi shifts by c E[eta]: both sides equal
        # (1 + c)(E_rho'[eta] - E_rho[eta]); with c = 0.5 and difference 1 -> 1.5.
        c = 0.5
        u = second_mean_functional()
        phi = mean_shift_map(c)
        rho = JointEmpiricalMeasure(
            np.array([[0.0], [1.0]]), np.array([[-0.5], [0.5]]), np.array([0.5, 0.5])
        )
        rho_p = JointEmpiricalMeasure(
            np.array([[0.2], [0.8]]), np.array([[0.5], [1.5]]), np.array([0.5, 0.5])
        )
        assert rho_p.second_mean() - rho.second_mean() == pytest.approx(1.0)
        out = chain_rule_check(u, phi, rho, rho_p)
        assert out["chain_value"] == pytest.approx(1.5, abs=1e-9)
        assert out["fd_value"] == pytest.approx(1.5, abs=1e-7)

    def test_constant_functional_gives_zero(self):
        u = MeasureFunctional(eval=lambda nu: 3.25, lderiv=lambda nu, pts: np.zeros(len(pts)))
        rng = np.random.default_rng(10)
        out = chain_rule_check(u, mean_shift_map(0.7), joint_cloud(rng, 5), joint_cloud(rng, 5))
        assert out["fd_value"] == pytest.approx(0.0, abs=1e-10)
        assert out["chain_value"] == 0.0

    @pytest.mark.parametrize("make_map", [identity_map, lambda: mean_shift_map(0.5)])
    def test_agreement_over_seeded_pairs(self, make_map):
        rng = np.random.default_rng(2718)
        u = mixed_quadratic_functional()
        phi = make_map()
        for _ in range(20):
            rho = joint_cloud(rng, 16)
            rho_p = joint_cloud(rng, 16)
            out = chain_rule_check(u, phi, rho, rho_p, richardson=True)
            assert out["abs_error"] <= 1e-6

    def test_missing_closed_form_raises(self):
        plain = mean_shift_map(0.5)
        stripped = type(plain)(eval=plain.eval, label=plain.label, closed_form_lderiv=None)
        rng = np.random.default_rng(1)
        with pytest.raises(CalculusError):
            chain_rule_check(second_mean_functional(), stripped,
                             joint_cloud(rng, 4), joint_cloud(rng, 4))


class AnalyticAccess:
    """Access object whose field is the one-level grid of an analytic V(x, mu).

    Central differences are exact for quadratics in x, so the field's gradient
    at the atoms is the analytic dV/dx.
    """

    def __init__(self, value):
        self.value = value
        self.xs = np.linspace(-4.0, 4.0, 161)

    def field(self, t, mu):
        return ValueField(self.value(self.xs, mu)[None, :], self.xs, np.array([t]))


class TestValueMeasureGradient:
    def test_linear_mean_field(self):
        # V(t, x, mu) = x * E[xi]: the gradient derivative along eta is mean(eta).
        access = AnalyticAccess(lambda xs, mu: xs * mu.mean())
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
        access = AnalyticAccess(lambda xs, mu: xs * mu.mean() ** 2)
        mu = cloud([0.5, 1.5, -1.0, 3.0])
        eta = np.array([0.2, -0.4, 1.0, 0.6])
        got = value_measure_gradient(access, 0.0, mu, eta)
        assert np.allclose(got, 2 * mu.mean() * np.mean(eta), atol=1e-7)

    def test_linearity_in_direction(self):
        # V = x E[xi]^2 + x^2 E[xi^2] / 2, so dV/dx = E[xi]^2 + x E[xi^2].
        def value(xs, mu):
            return xs * mu.mean() ** 2 + 0.5 * xs**2 * float(mu.weights @ mu.x**2)

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
            def field(self, t, mu):  # pragma: no cover - must not be called
                raise AssertionError("no field should be asked for a zero direction")

        mu = cloud([0.0, 1.0])
        got = value_measure_gradient(NoAccess(), 0.0, mu, np.zeros(2))
        assert np.array_equal(got, np.zeros(2))
