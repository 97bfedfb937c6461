import numpy as np
import pytest
from scipy.integrate import solve_ivp

from mfgclab.measures import gaussian_quantile_cloud
from mfgclab.config import preset_model
from mfgclab.models import MeanPoly2, Model, QuadraticTerminalCost
from mfgclab.monotonicity import LambdaVec, direction_battery
from mfgclab.propagation import (
    GateError,
    PropagationConfig,
    build_trace,
    evaluate_rhs_formulas,
    formula_match_violations,
    model_gate,
    propagation_experiment,
    simulate_variational,
    traces_to_csv,
)
from mfgclab.solver import Grid, PicardSettings, ValueAccess, solve_mfgc

N = 16
MU0 = gaussian_quantile_cloud(N, 0.0, 1.0)


def disp_example_model():
    return Model(b0=(1, 0, 0), f0=(0, 0, 0, 0.5), B=MeanPoly2.linear(m2=0.6),
                 f1_x=(0, 0, 0.25), g=QuadraticTerminalCost(xx=1.0))


def anti_example_model():
    return preset_model({"family": "anti_example", "c": "0.3", "gamma": "1.0", "l0": "10.5"},
                        QuadraticTerminalCost(xx=-0.5))


def run_experiment(model, flow, access, config):
    return propagation_experiment(model, flow, access, config, model_gate(model, config))


@pytest.fixture(scope="module")
def lq_setup():
    """Uncoupled LQ flow; shared, so its tests reuse one access cache."""
    model = Model(b0=(1, 0, 0), g=QuadraticTerminalCost(xx=1.0))
    grid = Grid.with_cfl_steps(-6.0, 6.0, 121, 0.0, 0.5)
    pic = PicardSettings(max_iter=40, tol=1e-10, damping=1.0)
    flow = solve_mfgc(model, MU0, grid, pic, seed=42)
    return model, grid, flow, ValueAccess(model, flow)


def ll_setup(t_end=0.25, n_x=81, c2=0.05, terminal=None, seed=7):
    terminal = terminal or QuadraticTerminalCost(xx=0.25, xm=0.1)
    model = Model(b0=(1, 0, 0), f0=(0, 0, 0, 0.5), B=MeanPoly2.linear(m2=0.75),
                  f1_x=(0.0, 0.0, 0.125), q1=c2, q2=0.1, g=terminal)
    grid = Grid.with_cfl_steps(-6.0, 6.0, n_x, 0.0, t_end)
    pic = PicardSettings(max_iter=200, tol=1e-10, damping=0.6)
    flow = solve_mfgc(model, MU0, grid, pic, seed=seed)
    return model, grid, flow, ValueAccess(model, flow)


class TestSimulateVariational:
    def test_zero_direction_gives_zero_everything(self):
        model, grid, flow, access = ll_setup()
        states = simulate_variational(model, flow, np.zeros(N), access)
        for s in states:
            assert np.all(s.delta_x == 0.0)
            assert np.all(s.gamma == 0.0)
            assert np.all(s.upsilon == 0.0)
            assert np.all(s.forcing == 0.0)

    def test_uncoupled_lq_matches_ode_oracle(self, lq_setup):
        # dX' = Hpp * Vxx * dX = -2 P(t) dX with the backward Riccati P.
        model, grid, flow, access = lq_setup
        eta = np.ones(N)
        states = simulate_variational(model, flow, eta, access)
        t_end = grid.t_end
        sol = solve_ivp(lambda s, y: [-2.0 * y[0] ** 2, 2.0 * y[0] * y[1]],
                        (0.0, t_end), [0.5, 1.0], rtol=1e-12, atol=1e-14,
                        dense_output=True)
        # y[1] integrates d(delta)/ds = +2 P delta in reversed time s = T - t,
        # i.e. delta(t) = delta(T) * exp(+int); use the closed form instead:
        worst = 0.0
        for s in states:
            oracle = eta * (1.0 + t_end - s.t) / (1.0 + t_end)
            worst = max(worst, float(np.max(np.abs(s.delta_x - oracle))))
        assert worst <= grid.dt  # first-order-in-time trace

    def test_pathwise_linearity_exact(self):
        model, grid, flow, access = ll_setup()
        eta = np.linspace(-1.0, 1.0, N)
        s1 = simulate_variational(model, flow, eta, access)
        s2 = simulate_variational(model, flow, 2.0 * eta, access)
        for a, b in zip(s1, s2):
            assert np.allclose(2.0 * a.delta_x, b.delta_x, atol=1e-9)

    def test_negated_direction_reuses_every_field(self):
        # The -eta trace displaces each cloud by exactly the offsets of the
        # +eta trace, in the other order, so it needs no new re-solve.
        model, grid, flow, access = ll_setup()
        eta = direction_battery(flow.states[0], 1)[0]
        simulate_variational(model, flow, eta, access)
        cached = len(access._cache)
        assert cached > 0
        simulate_variational(model, flow, -eta, access)
        assert len(access._cache) == cached

    def test_direction_of_another_size_rejected(self):
        model, grid, flow, access = ll_setup()
        with pytest.raises(GateError, match="particles"):
            simulate_variational(model, flow, np.ones(N + 1), access)


class TestRhsFormulas:
    def test_zero_direction_rhs_all_zero(self):
        model, grid, flow, access = ll_setup()
        states = simulate_variational(model, flow, np.zeros(N), access)
        out = evaluate_rhs_formulas(model, states[0], lam=1.0)
        assert out["dtI_rhs"] == 0.0
        assert out["dtIbar_rhs"] == 0.0
        assert out["d_deltaX2_rhs"] == 0.0
        assert out["cd_disp_rhs"] == 0.0

    def test_uncoupled_reduction_of_curvature_pairing(self, lq_setup):
        # No measure coupling: Upsilon = 0 and the curvature-pairing derivative
        # collapses to -E[gamma^2] - Hxx E[dX^2] with Hpp = -1, Hxx = 0.
        model, grid, flow, access = lq_setup
        states = simulate_variational(model, flow, np.ones(N), access)
        for s in states[:: max(1, len(states) // 6)]:
            assert np.max(np.abs(s.upsilon)) <= 1e-10
            out = evaluate_rhs_formulas(model, s)
            assert out["dtIbar_rhs"] == pytest.approx(-float(np.mean(s.gamma**2)), abs=1e-12)

    def test_formula_equality_along_coupled_trace(self):
        model, grid, flow, access = ll_setup()
        trace = build_trace(model, flow, np.ones(N), access)
        assert formula_match_violations(trace) == []
        slope = trace.slope(trace.i_vals)
        gap = np.abs(slope[1:-1] - trace.dt_i_rhs[1:-1])
        assert gap.max() <= 1e-3

    def test_combined_displacement_formula_matches(self):
        model = disp_example_model()
        grid = Grid.with_cfl_steps(-6.0, 6.0, 81, 0.0, 0.25)
        pic = PicardSettings(max_iter=200, tol=1e-10, damping=0.6)
        flow = solve_mfgc(model, MU0, grid, pic, seed=11)
        access = ValueAccess(model, flow)
        trace = build_trace(model, flow, np.ones(N), access, lam=0.0)
        slope = trace.slope(trace.i_vals + trace.ibar_vals)
        gap = np.abs(slope[1:-1] - trace.cd_disp_rhs[1:-1])
        ref = np.maximum(np.abs(slope[1:-1]), np.abs(trace.cd_disp_rhs[1:-1]))
        assert np.all(gap <= np.maximum(0.10 * ref, 1e-3))

    def test_xi_bookkeeping_identity(self):
        model, grid, flow, access = ll_setup()
        lv = LambdaVec(0.5, 1.0, 2.0, 3.0)
        trace = build_trace(model, flow, np.ones(N), access, lvec=lv)
        states = simulate_variational(model, flow, np.ones(N), access)
        for k, s in enumerate(states):
            expected = (lv.l0 * np.mean(s.gamma * s.delta_x)
                        + lv.l1 * np.mean(s.upsilon * s.delta_x)
                        + np.mean(s.gamma**2) + lv.l2 * np.mean(s.upsilon**2)
                        - lv.l3 * np.mean(s.delta_x**2))
            assert trace.xi_vals[k] == pytest.approx(expected, abs=1e-14)


class TestPropagationExperiment:
    def test_ll_experiment_passes_and_i_decreases(self):
        model, grid, flow, access = ll_setup()
        config = PropagationConfig(kind="ll", n_directions=4, tol_c=0.05, seed=0)
        result = run_experiment(model, flow, access, config)
        assert result.verdict
        assert result.slope_violations == []
        assert result.formula_violations == []
        assert min(result.endpoint_values) >= -result.tolerance
        # terminal values carry the monotonicity exactly at t = T
        assert min(result.details["terminal_values"]) >= -1e-8

    def test_gate_failing_model_raises_before_anything_else(self):
        model, grid, flow, access = ll_setup(c2=-0.2)
        config = PropagationConfig(kind="ll", n_directions=4, tol_c=0.05, seed=0)
        report = model_gate(model, config)
        assert not report.passed
        with pytest.raises(GateError):
            propagation_experiment(model, flow, access, config, report)

    def test_negative_control_produces_slope_violation(self):
        model, grid, flow, access = ll_setup(c2=-0.2)
        config = PropagationConfig(kind="ll", n_directions=12, tol_c=0.05, seed=0,
                                   enforce_gate=False)
        result = run_experiment(model, flow, access, config)
        assert not result.verdict
        assert len(result.slope_violations) >= 1
        worst = max(v["value"] for v in result.slope_violations if "endpoint" not in v)
        assert worst > result.tolerance

    def test_disp_experiment_passes(self):
        model = disp_example_model()
        grid = Grid.with_cfl_steps(-6.0, 6.0, 81, 0.0, 0.25)
        pic = PicardSettings(max_iter=200, tol=1e-10, damping=0.6)
        flow = solve_mfgc(model, MU0, grid, pic, seed=11)
        access = ValueAccess(model, flow)
        config = PropagationConfig(kind="disp", lam=0.0, n_directions=4, tol_c=0.05, seed=0)
        result = run_experiment(model, flow, access, config)
        assert result.verdict
        # displacement monotone value function: curvature floor is nonnegative
        window = np.abs(flow.value_field.xs) <= 3.0
        assert np.min(flow.value_field.u_xx[:, window]) >= -result.tolerance

    def test_anti_experiment_passes_with_vxx_bound(self):
        model = anti_example_model()
        grid = Grid.with_cfl_steps(-1.5, 1.5, 61, 0.0, 0.1)
        pic = PicardSettings(max_iter=200, tol=1e-10, damping=0.6)
        mu0 = gaussian_quantile_cloud(N, 0.0, 0.35)
        flow = solve_mfgc(model, mu0, grid, pic, seed=13)
        access = ValueAccess(model, flow)
        lv = LambdaVec(0.5, 0.5, 4.0, 8.0)
        config = PropagationConfig(kind="anti", lvec=lv, n_directions=4, tol_c=0.05,
                                   seed=0, anti_l0=10.5, anti_gamma_lo=0.5,
                                   anti_gamma_hi=2.0, anti_l_bar=1.0, anti_lu_xx=1.0)
        result = run_experiment(model, flow, access, config)
        assert result.verdict
        assert result.details["vxx_max"] <= 1.0
        trace = result.traces[0]
        assert trace.xi_vals[0] <= trace.xi_vals[-1] + result.tolerance
        assert trace.xi_vals[0] <= result.tolerance

    def test_anti_vxx_violation_is_gate_error(self):
        model = anti_example_model()
        grid = Grid.with_cfl_steps(-1.5, 1.5, 61, 0.0, 0.1)
        pic = PicardSettings(max_iter=200, tol=1e-10, damping=0.6)
        flow = solve_mfgc(model, gaussian_quantile_cloud(N, 0.0, 0.35), grid, pic, seed=13)
        access = ValueAccess(model, flow)
        lv = LambdaVec(0.5, 0.5, 4.0, 8.0)
        config = PropagationConfig(kind="anti", lvec=lv, n_directions=2, tol_c=0.05,
                                   seed=0, anti_l0=10.5, anti_gamma_lo=0.5,
                                   anti_gamma_hi=2.0, anti_l_bar=1.0,
                                   anti_lu_xx=0.25)  # below the realised curvature
        with pytest.raises(GateError, match="curvature"):
            run_experiment(model, flow, access, config)

    def test_trace_csv_export(self, tmp_path):
        model, grid, flow, access = ll_setup()
        config = PropagationConfig(kind="ll", n_directions=2, tol_c=0.05, seed=0)
        result = run_experiment(model, flow, access, config)
        path = tmp_path / "trace.csv"
        traces_to_csv(path, result.traces)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("direction,t,I,Ibar,dX2")
        assert len(lines) == 1 + 2 * (grid.n_t + 1)
