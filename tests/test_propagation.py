from dataclasses import fields

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from mfgclab.measures import gaussian_quantile_cloud
from mfgclab.config import preset_model
from mfgclab.models import MeanPoly2, Model, QuadraticTerminalCost
from mfgclab.monotonicity import (
    LambdaVec,
    MonotonicityError,
    direction_battery,
    monotonicity_sweep,
)
from mfgclab.propagation import (
    AntiMonotone,
    Displacement,
    GateError,
    LasryLions,
    PropagationConfig,
    PropagationTrace,
    build_traces,
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
LL = LasryLions()


def anti(lvec, lu_xx=1.0):
    """The anti kind with the weights lvec and the [anti] constants of
    anti_propagation.ini."""
    return AntiMonotone(lvec, l0=10.5, gamma_lo=0.5, gamma_hi=2.0, l_bar=1.0, lu_xx=lu_xx)


def disp_example_model():
    return Model(b0=(1, 0, 0), f0=(0, 0, 0, 0.5), B=MeanPoly2.linear(m2=0.6),
                 f1_x=(0, 0, 0.25), g=QuadraticTerminalCost(xx=1.0))


def anti_example_model():
    return preset_model({"family": "anti_example", "c": "0.3", "gamma": "1.0", "l0": "10.5"},
                        QuadraticTerminalCost(xx=-0.5))


def run_experiment(access, config):
    return propagation_experiment(access, config, model_gate(access.model, config))


@pytest.fixture(scope="module")
def lq_setup():
    """Uncoupled LQ flow and its access, shared by the module's tests."""
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
        dx, gamma, upsilon, _ = simulate_variational(access, np.zeros((1, N)))
        assert dx.shape == gamma.shape == upsilon.shape == (1, grid.n_t + 1, N)
        for stack in (dx, gamma, upsilon):
            assert np.all(stack == 0.0)

    def test_uncoupled_lq_matches_ode_oracle(self, lq_setup):
        # dX' = Hpp * Vxx * dX = -2 P(t) dX with the backward Riccati P.
        model, grid, flow, access = lq_setup
        eta = np.ones(N)
        (dx,), _, _, _ = simulate_variational(access, eta[None, :])
        t_end = grid.t_end
        sol = solve_ivp(lambda s, y: [-2.0 * y[0] ** 2, 2.0 * y[0] * y[1]],
                        (0.0, t_end), [0.5, 1.0], rtol=1e-12, atol=1e-14,
                        dense_output=True)
        # y[1] integrates d(delta)/ds = +2 P delta in reversed time s = T - t,
        # i.e. delta(t) = delta(T) * exp(+int); use the closed form instead:
        worst = 0.0
        for t, dx_t in zip(grid.ts, dx):
            oracle = eta * (1.0 + t_end - t) / (1.0 + t_end)
            worst = max(worst, float(np.max(np.abs(dx_t - oracle))))
        assert worst <= grid.dt  # first-order-in-time trace

    def test_pathwise_linearity_exact(self):
        model, grid, flow, access = ll_setup()
        eta = np.linspace(-1.0, 1.0, N)
        dx1 = simulate_variational(access, eta[None, :])[0]
        dx2 = simulate_variational(access, 2.0 * eta[None, :])[0]
        assert np.allclose(2.0 * dx1, dx2, atol=1e-9)

    def test_negated_direction_negates_every_field(self):
        # The trace is linear in eta: the -eta run is the +eta run negated,
        # bit for bit.
        model, grid, flow, access = ll_setup()
        eta = direction_battery(flow.states[0], 1)[0]
        plus = simulate_variational(access, eta[None, :])
        minus = simulate_variational(access, -eta[None, :])
        for name, a, b in zip(("dX", "G", "U"), plus, minus):
            assert np.array_equal(a, -b), name

    def test_battery_equals_one_direction_runs(self):
        # Rows of a batched run are independent: each equals its own run on a
        # fresh access, bit for bit, traces included.
        model, grid, flow, access = ll_setup()
        etas = np.array(direction_battery(flow.states[0], 3))
        batched = simulate_variational(access, etas)[:3]
        traces = build_traces(access, etas, anti(LambdaVec(0.5, 1.0, 2.0, 3.0)))
        for b, eta in enumerate(etas):
            fresh = ValueAccess(model, flow)
            single = simulate_variational(fresh, eta[None, :])[:3]
            for name, s_all, s_one in zip(("dX", "G", "U"), batched, single):
                assert np.array_equal(s_all[b], s_one[0]), name
            (trace,) = build_traces(fresh, eta[None, :], anti(LambdaVec(0.5, 1.0, 2.0, 3.0)))
            assert traces[b].direction == b
            for f in fields(PropagationTrace):
                if f.name not in ("direction", "kind"):
                    assert np.array_equal(getattr(traces[b], f.name), getattr(trace, f.name)), f

    def test_direction_of_another_size_rejected(self):
        model, grid, flow, access = ll_setup()
        with pytest.raises(GateError, match="particles"):
            simulate_variational(access, np.ones((1, N + 1)))
        with pytest.raises(GateError, match="particles"):
            simulate_variational(access, np.ones(N))


class TestRhsFormulas:
    def test_zero_direction_rhs_all_zero(self):
        model, grid, flow, access = ll_setup()
        dx, gamma, upsilon, tables = simulate_variational(access, np.zeros((1, N)))
        out = evaluate_rhs_formulas(tables[0], dx[:, 0], gamma[:, 0], upsilon[:, 0], lam=1.0)
        assert out["dtI_rhs"].tolist() == [0.0]
        assert out["dtIbar_rhs"].tolist() == [0.0]
        assert out["d_deltaX2_rhs"].tolist() == [0.0]
        assert out["cd_disp_rhs"].tolist() == [0.0]

    def test_uncoupled_reduction_of_curvature_pairing(self, lq_setup):
        # No measure coupling: Upsilon = 0 and the curvature-pairing derivative
        # collapses to -E[gamma^2] - Hxx E[dX^2] with Hpp = -1, Hxx = 0.
        model, grid, flow, access = lq_setup
        dx, gamma, upsilon, tables = simulate_variational(access, np.ones((1, N)))
        for k in range(0, grid.n_t + 1, max(1, (grid.n_t + 1) // 6)):
            assert np.max(np.abs(upsilon[:, k])) <= 1e-10
            (dt_ibar,) = evaluate_rhs_formulas(tables[k], dx[:, k], gamma[:, k],
                                               upsilon[:, k])["dtIbar_rhs"]
            assert dt_ibar == pytest.approx(-float(np.mean(gamma[:, k]**2)), abs=1e-12)

    def test_formula_equality_along_coupled_trace(self):
        model, grid, flow, access = ll_setup()
        (trace,) = build_traces(access, np.ones((1, N)), LL)
        assert formula_match_violations(trace) == []
        slope = trace.slope(trace.i_vals)
        gap = np.abs(slope[1:-1] - trace.dt_i_rhs[1:-1])
        assert gap.max() <= 1e-3

    def test_combined_displacement_formula_matches(self):
        # The disp model has h_xrho2 = 0; ll_setup's q2 = 0.1 makes it nonzero.
        model = disp_example_model()
        grid = Grid.with_cfl_steps(-6.0, 6.0, 81, 0.0, 0.25)
        pic = PicardSettings(max_iter=200, tol=1e-10, damping=0.6)
        flow = solve_mfgc(model, MU0, grid, pic, seed=11)
        for access in (ValueAccess(model, flow), ll_setup()[3]):
            (trace,) = build_traces(access, np.ones((1, N)), Displacement(0.0))
            slope = trace.slope(trace.i_vals + trace.ibar_vals)
            gap = np.abs(slope[1:-1] - trace.cd_disp_rhs[1:-1])
            ref = np.maximum(np.abs(slope[1:-1]), np.abs(trace.cd_disp_rhs[1:-1]))
            assert np.all(gap <= np.maximum(0.10 * ref, 1e-3))
            assert formula_match_violations(trace) == []

    def test_xi_bookkeeping_identity(self):
        model, grid, flow, access = ll_setup()
        lv = LambdaVec(0.5, 1.0, 2.0, 3.0)
        (trace,) = build_traces(access, np.ones((1, N)), anti(lv))
        (dxs,), (gammas,), (upsilons,), _ = simulate_variational(access, np.ones((1, N)))
        for k, (dx, gamma, upsilon) in enumerate(zip(dxs, gammas, upsilons)):
            expected = (lv.l0 * np.mean(gamma * dx) + lv.l1 * np.mean(upsilon * dx)
                        + np.mean(gamma**2) + lv.l2 * np.mean(upsilon**2)
                        - lv.l3 * np.mean(dx**2))
            assert trace.series[k] == pytest.approx(expected, abs=1e-14)


class TestPropagationExperiment:
    def test_ll_experiment_passes_and_i_decreases(self):
        model, grid, flow, access = ll_setup()
        config = PropagationConfig(kind=LL, n_directions=4, tol_c=0.05, seed=0)
        result = run_experiment(access, config)
        assert result.verdict
        assert result.slope_violations == []
        assert result.formula_violations == []
        assert min(result.endpoint_values) >= -result.tolerance
        # terminal values carry the monotonicity exactly at t = T
        assert min(result.details["terminal_values"]) >= -1e-8

    def test_gate_failing_model_raises_before_anything_else(self):
        model, grid, flow, access = ll_setup(c2=-0.2)
        config = PropagationConfig(kind=LL, n_directions=4, tol_c=0.05, seed=0)
        report = model_gate(model, config)
        assert not report.passed
        with pytest.raises(GateError):
            propagation_experiment(access, config, report)

    def test_negative_control_produces_slope_violation(self):
        model, grid, flow, access = ll_setup(c2=-0.2)
        config = PropagationConfig(kind=LL, n_directions=12, tol_c=0.05, seed=0,
                                   enforce_gate=False)
        result = run_experiment(access, config)
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
        config = PropagationConfig(kind=Displacement(0.0), n_directions=4, tol_c=0.05, seed=0)
        result = run_experiment(access, config)
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
        config = PropagationConfig(kind=anti(lv), n_directions=4, tol_c=0.05, seed=0)
        result = run_experiment(access, config)
        assert result.verdict
        assert result.details["vxx_max"] <= 1.0
        trace = result.traces[0]
        assert trace.series[0] <= trace.series[-1] + result.tolerance
        assert trace.series[0] <= result.tolerance

    def test_anti_vxx_violation_is_gate_error(self):
        model = anti_example_model()
        grid = Grid.with_cfl_steps(-1.5, 1.5, 61, 0.0, 0.1)
        pic = PicardSettings(max_iter=200, tol=1e-10, damping=0.6)
        flow = solve_mfgc(model, gaussian_quantile_cloud(N, 0.0, 0.35), grid, pic, seed=13)
        access = ValueAccess(model, flow)
        lv = LambdaVec(0.5, 0.5, 4.0, 8.0)
        config = PropagationConfig(kind=anti(lv, lu_xx=0.25),  # below the realised curvature
                                   n_directions=2, tol_c=0.05, seed=0)
        with pytest.raises(GateError, match="curvature"):
            run_experiment(access, config)

    def test_trace_csv_export(self, tmp_path):
        model, grid, flow, access = ll_setup()
        config = PropagationConfig(kind=LL, n_directions=2, tol_c=0.05, seed=0)
        result = run_experiment(access, config)
        path = tmp_path / "trace.csv"
        traces_to_csv(path, result.traces)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("direction,t,I,Ibar,dX2")
        assert len(lines) == 1 + 2 * (grid.n_t + 1)


def kind_setup(name):
    """(access, kind) of a small passing experiment of each kind; the disp
    kind runs at lambda = 0.5 so that every term of its series counts."""
    if name == "ll":
        return ll_setup()[3], LL
    if name == "disp":
        model, grid, kind = disp_example_model(), Grid.with_cfl_steps(-6.0, 6.0, 81, 0.0, 0.25), \
            Displacement(0.5)
        mu0, seed = MU0, 11
    else:
        model, grid, kind = anti_example_model(), Grid.with_cfl_steps(-1.5, 1.5, 61, 0.0, 0.1), \
            anti(LambdaVec(0.5, 0.5, 4.0, 8.0))
        mu0, seed = gaussian_quantile_cloud(N, 0.0, 0.35), 13
    flow = solve_mfgc(model, mu0, grid, PicardSettings(max_iter=200, tol=1e-10, damping=0.6),
                      seed=seed)
    return ValueAccess(model, flow), kind


class TestKinds:
    @pytest.mark.parametrize("name", ["ll", "disp", "anti"])
    def test_level_zero_series_equals_mono_functional(self, name):
        # The trace and the mono sweep take the functional from the same kind
        # object; at t0 both see the same cloud and battery.
        access, kind = kind_setup(name)
        etas = np.array(direction_battery(access.flow.states[0], 4))
        traces = build_traces(access, etas, kind)
        mono = kind.value(access, 0, etas)
        series0 = np.array([trace.series[0] for trace in traces])
        assert np.array_equal(series0, mono)
        assert np.max(np.abs(mono)) > 1e-3  # the comparison is not between zeros

    @pytest.mark.parametrize("name", ["ll", "disp"])
    def test_terminal_gate_values_equal_mono_sweep_terminal_samples(self, name):
        # The terminal gate and the mono sweep read V_xx and the tangent at
        # level n_t through one access path: same battery, same seed, same bits.
        access, kind = kind_setup(name)
        config = PropagationConfig(kind=kind, n_directions=12, tol_c=0.05, seed=3)
        result = run_experiment(access, config)
        report = monotonicity_sweep(access, kind, slices=2, battery_size=12, seed=3)
        n_t = access.flow.grid.n_t
        swept = [s["value"] for s in report.samples if s["level"] == n_t]
        assert len(swept) == 12
        assert result.details["terminal_values"] == swept
        assert max(abs(v) for v in swept) > 1e-3  # the comparison is not between zeros

    def test_anti_kind_rejects_a_missing_vector_and_bad_gamma_bounds(self):
        with pytest.raises(MonotonicityError, match="lambda_vec"):
            anti(None)
        with pytest.raises(MonotonicityError, match="gamma_hi > gamma_lo > 0"):
            AntiMonotone(LambdaVec(0.5, 0.5, 4.0, 8.0), l0=10.5, gamma_lo=0.0,
                         gamma_hi=2.0, l_bar=1.0, lu_xx=1.0)

    def test_verdict_sign(self):
        values = np.array([-0.5, 0.25])
        assert not LL.holds(values, 0.1) and LL.holds(values, 0.5)
        assert not anti(LambdaVec(1, 0, 1, 0)).holds(values, 0.1)
        assert anti(LambdaVec(1, 0, 1, 0)).holds(values, 0.25)
