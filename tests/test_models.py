import numpy as np
import pytest

from mfgclab.config import preset_model
from mfgclab.measures import JointEmpiricalMeasure
from mfgclab.models import (
    CONTRACTION_EPS,
    MeanPoly2,
    Model,
    ModelError,
    QuadraticTerminalCost,
    fixed_point_phi,
    hamiltonian,
    hat_derivative_table,
    verify_envelope_identities,
)
from mfgclab.solver import _quantile_dist, terminal_field

# ---------------------------------------------------------------------------
# Finite-difference oracle for the reduced Hamiltonian Hhat(x, p, rho) =
# H(x, p, Phi(rho)).  Relative steps for point variables; single-particle
# perturbations carry an extra factor N and amplify round-off, hence the
# larger step.  Second-order point derivatives divide by h^2, so they need the
# quarter-power step to stay above round-off.
# ---------------------------------------------------------------------------

FD_STEP_POINT = 1e-5
FD_STEP_SECOND = 1e-4
FD_STEP_PARTICLE = 1e-4


def hat_hamiltonian(model, x, p, xs, ps):
    m2 = float(np.mean(fixed_point_phi(model, xs, ps)))
    return float(hamiltonian(model, x, p, float(np.mean(xs)), m2))


def _perturbed(xs, ps, j, delta, component):
    xs, ps = xs.copy(), ps.copy()
    (xs if component == 0 else ps)[j] += delta
    return xs, ps


def _support_index(xs, ps, x_t, p_t):
    match = np.flatnonzero(
        (np.abs(xs - x_t) <= 1e-9 * max(1.0, abs(x_t)))
        & (np.abs(ps - p_t) <= 1e-9 * max(1.0, abs(p_t)))
    )
    if match.size == 0:
        raise ValueError("measure-derivative evaluation point is not a support atom of rho")
    return int(match[0])


def hat_derivatives_fd(model, x, p, xs, ps, x_t, p_t) -> dict:
    """Central differences of Hhat at (x, p, rho), measure entries at the
    support atom (x_t, p_t) of the uniform law of the atoms (xs, ps)."""
    j = _support_index(xs, ps, x_t, p_t)
    n = xs.size

    def hh(xx, pp, law=(xs, ps)):
        return hat_hamiltonian(model, xx, pp, *law)

    hx = FD_STEP_SECOND * max(1.0, abs(x))
    hp = FD_STEP_SECOND * max(1.0, abs(p))
    h1 = FD_STEP_POINT * max(1.0, abs(p))
    e = FD_STEP_PARTICLE
    base = hh(x, p)
    out = {
        "h_p": (hh(x, p + h1) - hh(x, p - h1)) / (2 * h1),
        "h_pp": (hh(x, p + hp) - 2 * base + hh(x, p - hp)) / hp**2,
        "h_xx": (hh(x + hx, p) - 2 * base + hh(x - hx, p)) / hx**2,
        "h_xp": (hh(x + hx, p + hp) - hh(x + hx, p - hp)
                 - hh(x - hx, p + hp) + hh(x - hx, p - hp)) / (4 * hx * hp),
    }
    for name, step, comp in (("h_xrho1", hx, 0), ("h_xrho2", hx, 1),
                             ("h_prho1", hp, 0), ("h_prho2", hp, 1)):
        plus = _perturbed(xs, ps, j, +e, comp)
        minus = _perturbed(xs, ps, j, -e, comp)
        dx, dp = (0.0, step) if name.startswith("h_p") else (step, 0.0)
        cross = (hh(x + dx, p + dp, plus) - hh(x - dx, p - dp, plus)
                 - hh(x + dx, p + dp, minus) + hh(x - dx, p - dp, minus))
        out[name] = n * cross / (4 * step * e)
    return out


def random_law(rng, n=8, scale=1.0):
    return rng.normal(0, scale, n), rng.normal(0, scale, n)


def ll_model(c1, c2, c3, b1=None, b2_x=(0.0,), f1_x=(0.0,)):
    return Model(b0=(1, 0, 0), f0=(0, 0, 0, c1), b1_x=b2_x,
                 B=b1 if b1 is not None else MeanPoly2.zero(), f1_x=f1_x, q1=c2, q2=c3)


FULL_MEANFIELD = {
    "family": "meanfield_1d", "b0": "0.8 0.3 -0.2", "f0": "0.1 0.2 -0.3 0.4",
    "b1_x": "0.1 -0.2 0.05", "b1_mean": "0.1 0.2 -0.3 0.05 0.1 -0.05",
    "f1_x": "0 0.1 0.3 0.02", "q1": "0.2", "q2": "-0.1",
}
PRESETS = {
    "separable": {"family": "separable", "f1_x": "0 0.1 0.3", "q1": "0.4"},
    "ll_example": {"family": "ll_example", "c1": "0.5", "c2": "0.05", "c3": "0.1",
                   "b1_mean": "0 0.1 0.75", "b2_x": "0 0.2", "f1_x": "0 0 0.25"},
    "disp_example": {"family": "disp_example", "c": "0.4", "b1_mean": "0 0 0.6",
                     "f1_x": "0 0 0.25", "q1": "0.1", "q2": "0.05"},
    "anti_example": {"family": "anti_example", "c": "0.3", "gamma": "1.0", "l0": "1.5",
                     "f1_x": "0 0 0.1", "q1": "0.05", "q2": "0.02"},
    "meanfield_1d": FULL_MEANFIELD,
}
# The four original families first, then meanfield_1d with every coefficient nonzero.
PRESET_FACTORIES = [
    lambda: preset_model(PRESETS["separable"]),
    lambda: preset_model(PRESETS["ll_example"]),
    lambda: preset_model(PRESETS["disp_example"]),
    lambda: preset_model(PRESETS["anti_example"]),
    lambda: preset_model(PRESETS["meanfield_1d"]),
]


class TestHamiltonian:
    def test_ll_example_closed_form_value(self):
        # c1=0.5, all couplings evaluated at zero means, x = p = 1.
        model = ll_model(c1=0.5, c2=1.0, c3=0.5)
        assert hamiltonian(model, 1.0, 1.0, 0.0, 0.0) == pytest.approx(-0.5, abs=1e-14)

    def test_envelope_reduction_with_fixed_minimiser(self):
        # H is the pre-Hamiltonian p b + f evaluated at the control map's a*.
        rng = np.random.default_rng(3)
        for family in sorted(PRESETS):
            model = preset_model(PRESETS[family])
            x, p = rng.normal(size=(2, 50))
            m1, m2 = rng.normal(size=2)
            a_star = model.control(x, p, m1, m2)
            pre = p * model.drift(x, a_star, m1, m2) + model.cost(x, a_star, m1, m2)
            assert np.allclose(hamiltonian(model, x, p, m1, m2), pre, atol=1e-12), family

    def test_infimum_against_control_grid_oracle(self):
        rng = np.random.default_rng(7)
        grid = np.linspace(-12.0, 12.0, 100)
        for _ in range(20):
            model = preset_model(PRESETS[rng.choice(["separable", "meanfield_1d"])])
            x, p, m1, m2 = (float(v) for v in rng.normal(size=4))
            h_val = float(hamiltonian(model, x, p, m1, m2))
            brute = np.min(p * model.drift(x, grid, m1, m2) + model.cost(x, grid, m1, m2))
            assert h_val <= brute + 1e-8
            # grid resolution bound: (spacing/2)^2 / 2 * (d^2/da^2 = 1)
            spacing = grid[1] - grid[0]
            assert h_val == pytest.approx(float(brute), abs=spacing**2 / 8 + 1e-9)

    def test_hamiltonian_concave_in_p(self):
        rng = np.random.default_rng(21)
        for model in (
            Model(b0=(-1, 0, 0)),
            ll_model(c1=0.4, c2=0.1, c3=0.2, b1=MeanPoly2.linear(m2=0.5)),
            preset_model(PRESETS["disp_example"]),
            preset_model(FULL_MEANFIELD),
        ):
            for _ in range(40):
                x, p1, p2, m1, m2 = rng.normal(size=5)
                mid = hamiltonian(model, x, 0.5 * (p1 + p2), m1, m2)
                avg = 0.5 * (hamiltonian(model, x, p1, m1, m2) + hamiltonian(model, x, p2, m1, m2))
                assert mid >= avg - 1e-10


class TestMinimizer:
    def test_quadratic_control(self):
        model = Model(b0=(-1, 0, 0))
        ps = np.array([-2.0, 0.0, 1.5])
        assert np.allclose(model.control(0.0, ps, 0.3, -0.7), -ps)

    def test_meanfield_constant_feedback(self):
        # b0 = 1, f0 = m0 constant: a* = m0 + p.
        m0 = 0.7
        model = Model(b0=(1, 0, 0), f0=(m0, 0, 0, 0))
        for p in (-1.0, 0.0, 2.0):
            assert model.control(0.3, p, 0.1, 0.2) == pytest.approx(m0 + p)

    def test_grid_search_oracle_agreement(self):
        rng = np.random.default_rng(5)
        model = ll_model(c1=0.5, c2=0.05, c3=0.1, b1=MeanPoly2.linear(m2=0.75))
        for _ in range(50):
            x, p, m1, m2 = (float(v) for v in rng.normal(size=4))
            closed = float(model.control(x, p, m1, m2))
            grid = np.linspace(closed - 1.0, closed + 1.0, 4001)
            values = p * model.drift(x, grid, m1, m2) + model.cost(x, grid, m1, m2)
            assert abs(grid[np.argmin(values)] - closed) <= 1e-6 + 5e-4
            # refine with a parabola fit around the brute-force argmin
            k = int(np.argmin(values))
            if 0 < k < len(grid) - 1:
                num = values[k - 1] - values[k + 1]
                den = 2 * (values[k - 1] - 2 * values[k] + values[k + 1])
                refined = grid[k] + (grid[k + 1] - grid[k]) * num / den
                assert refined == pytest.approx(closed, abs=1e-6)


class TestFixedPoint:
    def test_separable_fixed_point_is_atomwise_map(self):
        model = preset_model({"family": "separable", "f1_x": "0 0.2", "q1": "0.3"})
        xs, ps = random_law(np.random.default_rng(9), n=6)
        assert np.allclose(fixed_point_phi(model, xs, ps), -ps)

    def test_meanfield_constant_f0(self):
        # E[alpha] = m0 + E[eta], independent of the control mean.
        m0 = 0.4
        model = Model(b0=(1, 0, 0), f0=(m0, 0, 0, 0))
        controls = fixed_point_phi(model, np.array([0.0, 2.0]), np.array([1.0, 3.0]))
        assert np.mean(controls) == pytest.approx(m0 + 2.0, abs=1e-12)

    def test_meanfield_contraction_against_bisection_oracle(self):
        # f0(x, mu, m) = E[xi] - m/2, b0 = 1, E[xi] = 1, E[eta] = 0.5 -> m* = 1.
        model = Model(b0=(1, 0, 0), f0=(0.0, 0.0, 1.0, -0.5))
        xs, ps = np.array([0.5, 1.5]), np.array([0.25, 0.75])
        controls = fixed_point_phi(model, xs, ps)

        def psi(m):
            return np.mean(xs) - 0.5 * m + np.mean(ps)

        lo, hi = -10.0, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (psi(lo) - lo) * (psi(mid) - mid) <= 0:
                hi = mid
            else:
                lo = mid
        m_oracle = 0.5 * (lo + hi)
        assert m_oracle == pytest.approx(1.0, abs=1e-12)
        assert np.mean(controls) == pytest.approx(m_oracle, abs=1e-10)

    def test_fixed_point_residual_small_for_families(self):
        # Phi(rho) is a fixed point: every control is the minimiser against
        # the law's own means.
        rng = np.random.default_rng(13)
        for factory in PRESET_FACTORIES:
            model = factory()
            for _ in range(5):
                xs, ps = random_law(rng, n=10)
                controls = fixed_point_phi(model, xs, ps)
                again = model.control(xs, ps, np.mean(xs), np.mean(controls))
                assert np.max(np.abs(again - controls)) <= 1e-12

    def test_control_mean_amplification(self):
        # E[alpha] = E[eta] / (1 - c) at the fixed point.
        model = preset_model({"family": "disp_example", "c": "0.5"})
        controls = fixed_point_phi(model, np.array([0.0, 1.0]), np.array([0.2, 0.8]))
        assert np.mean(controls) == pytest.approx(0.5 / 0.5, abs=1e-14)

    def test_contraction_violation_raises(self):
        with pytest.raises(ModelError):
            Model(f0=(0, 0, 0, 1.0))
        Model(f0=(0, 0, 0, 1.0 - CONTRACTION_EPS))  # the bound itself is admitted

    def test_marginal_of_fixed_point_matches_marginal_of_input(self):
        model = ll_model(c1=0.3, c2=0.1, c3=0.1)
        xs, ps = random_law(np.random.default_rng(17), n=12)
        rho = JointEmpiricalMeasure(xs[:, None], ps[:, None], None)
        nu = JointEmpiricalMeasure(xs[:, None], fixed_point_phi(model, xs, ps)[:, None], None)
        assert _quantile_dist(nu.x, rho.x) == 0.0
        assert np.array_equal(nu.weights, rho.weights)

    def test_leading_axes_are_independent_laws(self):
        model = preset_model(FULL_MEANFIELD)
        rng = np.random.default_rng(17)
        xs, ps = rng.normal(size=(2, 4, 12))
        stacked = fixed_point_phi(model, xs, ps)
        for k in range(4):
            assert np.allclose(stacked[k], fixed_point_phi(model, xs[k], ps[k]), atol=1e-14)


class TestHatDerivatives:
    def test_ll_example_constants(self):
        c1, c2, c3 = 0.5, 0.05, 0.1
        db1_dm1, db1_dm2 = 0.2, 0.75
        model = ll_model(c1=c1, c2=c2, c3=c3, b1=MeanPoly2.linear(m1=db1_dm1, m2=db1_dm2))
        table = hat_derivative_table(model, *random_law(np.random.default_rng(23), n=6))
        chat, cbar = c1 / (1 - c1), 1 / (1 - c1)
        assert np.allclose(table.h_pp, -1.0)
        assert np.allclose(table.h_xrho1, c2)
        assert np.allclose(table.h_xrho2, c3 / (1 - c1))
        assert np.allclose(table.h_prho1, db1_dm1)
        assert np.allclose(table.h_prho2, cbar * db1_dm2 - chat)

    def test_disp_example_constants(self):
        kappa = 0.5
        model = preset_model({"family": "disp_example", "c": "0.5", "b1_mean": "0 0 0.6",
                              "f1_x": f"0 0 {kappa / 2}"})
        table = hat_derivative_table(model, *random_law(np.random.default_rng(29), n=6))
        assert np.allclose(table.h_pp, -1.0)
        assert np.allclose(table.h_xx, kappa)
        assert np.allclose(table.h_prho2, 2 * 0.6 - 1.0)

    def test_anti_example_constants(self):
        gamma, l0 = 1.0, 2.0
        model = preset_model({"family": "anti_example", "c": "0.5", "gamma": str(gamma),
                              "l0": str(l0), "f1_x": "0 0 0.05"})
        table = hat_derivative_table(model, *random_law(np.random.default_rng(31), n=6))
        assert np.allclose(table.h_xp, -l0)
        assert np.allclose(table.h_xx, -gamma * l0 + 0.1)

    @pytest.mark.parametrize("factory", PRESET_FACTORIES)
    def test_closed_form_agrees_with_finite_differences(self, factory):
        model = factory()
        rng = np.random.default_rng(41)
        for _ in range(40):
            xs, ps = random_law(rng, n=5)
            table = hat_derivative_table(model, xs, ps)
            i, j = (int(v) for v in rng.integers(xs.size, size=2))
            fd = hat_derivatives_fd(model, xs[i], ps[i], xs, ps, xs[j], ps[j])
            for name in ("h_p", "h_pp", "h_xx", "h_xp"):
                assert getattr(table, name)[i] == pytest.approx(fd[name], abs=1e-5), name
            for name in ("h_xrho1", "h_xrho2", "h_prho1", "h_prho2"):
                assert getattr(table, name)[i, j] == pytest.approx(fd[name], abs=1e-5), name

    def test_support_atom_enters_only_through_b0x(self):
        xs, ps = random_law(np.random.default_rng(43), n=6)
        flat = hat_derivative_table(preset_model(PRESETS["ll_example"]), xs, ps)
        assert np.ptp(flat.h_prho2, axis=1).max() == 0.0
        varying = hat_derivative_table(preset_model(FULL_MEANFIELD), xs, ps)
        for name in ("h_xrho1", "h_xrho2", "h_prho1", "h_prho2"):
            assert np.ptp(getattr(varying, name), axis=1).min() > 1e-3, name

    def test_off_support_point_rejected(self):
        model = ll_model(c1=0.5, c2=0.05, c3=0.1)
        xs, ps = random_law(np.random.default_rng(3), n=4)
        with pytest.raises(ValueError):
            hat_derivatives_fd(model, 0.0, 0.0, xs, ps, 123.0, 456.0)


class TestEnvelopeIdentities:
    def test_quadratic_control_is_exact(self):
        report = verify_envelope_identities(Model(b0=(-1, 0, 0)), sample_count=50, seed=1)
        assert report.passed
        assert report.details["max_residual"] <= 1e-9

    def test_ll_example_within_tolerance(self):
        model = ll_model(c1=0.5, c2=0.05, c3=0.1, b1=MeanPoly2.linear(m2=0.75),
                         b2_x=(0.0, 0.1), f1_x=(0.0, 0.0, 0.2))
        report = verify_envelope_identities(model, sample_count=50, seed=2)
        assert report.passed
        assert report.details["max_residual"] <= 1e-6

    def test_wrong_minimiser_fails(self, monkeypatch):
        control = Model.control
        monkeypatch.setattr(Model, "control",
                            lambda self, x, p, m1, m2: control(self, x, p, m1, m2) + 0.1)
        report = verify_envelope_identities(Model(b0=(-1, 0, 0)), sample_count=50, seed=3)
        assert not report.passed
        assert report.witness is not None


class TestTerminalCost:
    def test_quadratic_terminal_derivatives(self):
        # The terminal slice's grid derivatives are exact for a quadratic in x:
        # g_x = xx x + xm E[xi] + x_lin and g_xx = xx.
        g = QuadraticTerminalCost(xx=0.8, xm=0.3, x_lin=-0.2, m2=0.5)
        mu = np.array([0.0, 2.0])
        xs = np.array([-1.0, 0.5])
        field = terminal_field(Model(g=g), mu, np.linspace(-4.0, 4.0, 81), 1.0)
        h = 1e-6
        fd_dx = (g(xs + h, mu) - g(xs - h, mu)) / (2 * h)
        assert np.allclose(field.ux_at(0, xs), fd_dx, atol=1e-8)
        assert np.allclose(field.ux_at(0, xs), 0.8 * xs + 0.3 * np.mean(mu) - 0.2, atol=1e-12)
        assert np.allclose(field.uxx_at(0, xs), 0.8, atol=1e-12)
