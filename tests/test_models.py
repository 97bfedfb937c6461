from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_envelope import envelope_loop
from reference_resolve import ux_at
from test_calculus import random_models

from mfgclab.calculus import chain_rule_check
from mfgclab.config import ExperimentConfig, preset_model
from mfgclab.models import (
    CONTRACTION_EPS,
    HatTable,
    MeanPoly2,
    Model,
    ModelError,
    QuadraticTerminalCost,
    control_mean_tangent,
    fixed_point_phi,
    hamiltonian,
    hamiltonian_dp,
    hamiltonian_partials,
    hat_derivative_table,
    mean_terms,
    verify_envelope_identities,
)
from mfgclab.solver import solve_mfgc, terminal_field

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
            ll_model(c1=0.4, c2=0.1, c3=0.2, b1=MeanPoly2((0, 0, 0.5))),
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
        model = ll_model(c1=0.5, c2=0.05, c3=0.1, b1=MeanPoly2((0, 0, 0.75)))
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
        # Phi keeps every atom's state: the controls are aligned with the
        # input atoms, and relabelling the atoms relabels the controls.
        model = ll_model(c1=0.3, c2=0.1, c3=0.1)
        xs, ps = random_law(np.random.default_rng(17), n=12)
        controls = fixed_point_phi(model, xs, ps)
        assert controls.shape == xs.shape
        perm = np.random.default_rng(18).permutation(12)
        assert np.allclose(fixed_point_phi(model, xs[perm], ps[perm]), controls[perm],
                           atol=1e-14)

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
        model = ll_model(c1=c1, c2=c2, c3=c3, b1=MeanPoly2((0, db1_dm1, db1_dm2)))
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
        # Every entry, measure entries at every (base atom, support atom) pair.
        model = factory()
        rng = np.random.default_rng(41)
        for _ in range(40):
            errors, _ = chain_rule_check(model, *random_law(rng, n=5))
            assert max(errors.values()) <= 1e-6, errors

    def test_support_atom_enters_only_through_b0x(self):
        xs, ps = random_law(np.random.default_rng(43), n=6)
        flat = hat_derivative_table(preset_model(PRESETS["ll_example"]), xs, ps)
        assert np.ptp(flat.h_prho2, axis=1).max() == 0.0
        varying = hat_derivative_table(preset_model(FULL_MEANFIELD), xs, ps)
        for name in ("h_xrho1", "h_xrho2", "h_prho1", "h_prho2"):
            assert np.ptp(getattr(varying, name), axis=1).min() > 1e-3, name

    @pytest.mark.parametrize("name", ["ll_propagation", "anti_propagation"])
    def test_all_levels_in_one_call_equal_each_level(self, name):
        # One call over a solved flow's levels, as the variational run makes
        # it: every entry of every level is bit-identical to that level's own
        # table.  On anti_propagation a matrix-vector product over the levels
        # rounds the mean of x p differently, but that mean enters only
        # through b0x = 0; the stack below, with b0x != 0, tells them apart.
        cfg = ExperimentConfig.from_ini(CONFIGS / f"{name}.ini")
        model = cfg.model()
        flow = solve_mfgc(model, cfg.initial_cloud(), cfg.grid(), cfg.picard(), seed=cfg.seed)
        stacked = hat_derivative_table(model, flow.states, flow.momenta)
        for k in range(flow.grid.n_t + 1):
            own = hat_derivative_table(model, flow.states[k], flow.momenta[k])
            for f in fields(HatTable):
                assert np.array_equal(getattr(stacked[k], f.name), getattr(own, f.name)), (k, f)

    def test_stacked_laws_with_every_coefficient(self):
        # b0x != 0, so the mean of x p enters the entries; with the means as
        # one matrix-vector product over the laws this test fails.
        model = preset_model(FULL_MEANFIELD)
        xs, ps = np.random.default_rng(47).normal(size=(2, 3, 5, 7))
        stacked = hat_derivative_table(model, xs, ps)
        for index in np.ndindex(3, 5):
            own = hat_derivative_table(model, xs[index], ps[index])
            for f in fields(HatTable):
                assert np.array_equal(getattr(stacked[index], f.name), getattr(own, f.name))


def partials_gap(model, rng, n=6):
    """Largest |closed form - central difference| of every hamiltonian_partials
    entry at n random points, relative to max(1, |H|, |H_p|)."""
    x, p, m1, m2 = rng.normal(size=(4, n))
    h = 1e-4

    def ham(x=x, p=p, m1=m1, m2=m2):
        return hamiltonian(model, x, p, m1, m2)

    def drift(x=x, p=p, m1=m1, m2=m2):
        return hamiltonian_dp(model, x, p, mean_terms(model, m1, m2))

    def diff(f, var, base):
        return (f(**{var: base + h}) - f(**{var: base - h})) / (2.0 * h)

    got = hamiltonian_partials(model, x, p, m1, m2)
    want = {
        "h_p": diff(ham, "p", p), "h_m1": diff(ham, "m1", m1), "h_m2": diff(ham, "m2", m2),
        "hp_x": diff(drift, "x", x), "hp_p": diff(drift, "p", p),
        "hp_m1": diff(drift, "m1", m1), "hp_m2": diff(drift, "m2", m2),
    }
    scale = max(1.0, float(np.max(np.abs(ham()))), float(np.max(np.abs(drift()))))
    return {name: float(np.max(np.abs(getattr(got, name) - value))) / scale
            for name, value in want.items()}


class TestHamiltonianPartials:
    # H and H_p are polynomials of degree <= 3 in each variable, so the step
    # error is at most ~h^2 times a coefficient; the presets measure 2.7e-12.
    @pytest.mark.parametrize("factory", PRESET_FACTORIES)
    def test_presets_against_central_differences(self, factory):
        gaps = partials_gap(factory(), np.random.default_rng(51))
        assert max(gaps.values()) <= 1e-7, gaps

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(model=random_models(), seed=st.integers(0, 2**32 - 1))
    def test_random_models_against_central_differences(self, model, seed):
        gaps = partials_gap(model, np.random.default_rng(seed))
        assert max(gaps.values()) <= 1e-7, gaps

    @pytest.mark.parametrize("factory", PRESET_FACTORIES)
    def test_control_mean_tangent_against_fixed_point(self, factory):
        # m2* is bilinear in the atoms, so the central difference is exact
        # up to round-off.
        model = factory()
        rng = np.random.default_rng(53)
        x, p, dx, dp = rng.normal(size=(4, 8))
        h = 1e-3

        def m2(eps):
            return float(np.mean(fixed_point_phi(model, x + eps * dx, p + eps * dp)))

        got = control_mean_tangent(model, x.mean(), p.mean(), dx.mean(), dp.mean(),
                                   np.mean(dx * p + x * dp))
        assert got == pytest.approx((m2(h) - m2(-h)) / (2.0 * h), rel=1e-8, abs=1e-10)


class TestEnvelopeIdentities:
    def test_quadratic_control_is_exact(self):
        report = verify_envelope_identities(Model(b0=(-1, 0, 0)), sample_count=50, seed=1)
        assert report.passed
        assert report.details["max_residual"] <= 1e-9

    def test_ll_example_within_tolerance(self):
        model = ll_model(c1=0.5, c2=0.05, c3=0.1, b1=MeanPoly2((0, 0, 0.75)),
                         b2_x=(0.0, 0.1), f1_x=(0.0, 0.0, 0.2))
        report = verify_envelope_identities(model, sample_count=50, seed=2)
        assert report.passed
        assert report.details["max_residual"] <= 1e-6

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(model=random_models(), seed=st.integers(0, 2**32 - 1), samples=st.integers(1, 60),
           cloud_size=st.integers(1, 12), tol=st.sampled_from([1e-6, 1e-12, 0.0]))
    def test_matches_the_sample_loop(self, model, seed, samples, cloud_size, tol):
        # A tolerance of 0 fails most samples, so the witness is compared too.
        kwargs = dict(sample_count=samples, seed=seed, cloud_size=cloud_size, tol=tol)
        assert verify_envelope_identities(model, **kwargs) == envelope_loop(model, **kwargs)

    def test_wrong_minimiser_fails(self, monkeypatch):
        control = Model.control
        monkeypatch.setattr(Model, "control",
                            lambda self, x, p, m1, m2: control(self, x, p, m1, m2) + 0.1)
        report = verify_envelope_identities(Model(b0=(-1, 0, 0)), sample_count=50, seed=3)
        assert not report.passed
        assert report.witness is not None


class TestTerminalCost:
    def test_mean_derivative(self):
        g = QuadraticTerminalCost(xx=0.8, xm=0.3, x_lin=-0.2, m2=0.5)
        xs, m1, h = np.array([-1.0, 0.5, 2.0]), 0.4, 1e-4
        fd = (g(xs, np.array([m1 + h])) - g(xs, np.array([m1 - h]))) / (2.0 * h)
        assert np.allclose(g.d_m1(xs, m1), fd, rtol=0.0, atol=1e-10)

    def test_quadratic_terminal_derivatives(self):
        # The terminal slice's grid derivatives are exact for a quadratic in x:
        # g_x = xx x + xm E[xi] + x_lin and g_xx = xx.
        g = QuadraticTerminalCost(xx=0.8, xm=0.3, x_lin=-0.2, m2=0.5)
        mu = np.array([0.0, 2.0])
        xs = np.array([-1.0, 0.5])
        field = terminal_field(Model(g=g), mu, np.linspace(-4.0, 4.0, 81), 1.0)
        h = 1e-6
        fd_dx = (g(xs + h, mu) - g(xs - h, mu)) / (2 * h)
        assert np.allclose(ux_at(field, 0, xs), fd_dx, atol=1e-8)
        assert np.allclose(ux_at(field, 0, xs), 0.8 * xs + 0.3 * np.mean(mu) - 0.2, atol=1e-12)
        assert np.allclose(np.interp(xs, field.xs, field.u_xx[0]), 0.8, atol=1e-12)
