import functools
import json
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import reference_variational
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_csv import trace_csv
from reference_forms import disp_form, dx2_form, ibar_form, ll_form
from reference_traces import slope_rule, split, verdict_lists
from scipy.integrate import solve_ivp
from test_calculus import random_models

from mfgclab import propagation
from mfgclab.measures import gaussian_quantile_cloud
from mfgclab.config import ExperimentConfig, preset_model
from mfgclab.models import (
    HatTable,
    MeanPoly2,
    Model,
    QuadraticTerminalCost,
    hat_derivative_table,
)
from mfgclab.monotonicity import (
    LambdaVec,
    MonotonicityError,
    direction_battery,
    mon_disp,
    monotonicity_sweep,
)
from mfgclab.propagation import (
    TRACE_COLUMNS,
    AntiMonotone,
    Displacement,
    GateError,
    LasryLions,
    PropagationConfig,
    PropagationTraces,
    build_traces,
    evaluate_rhs_formulas,
    formula_match_violations,
    propagation_experiment,
    simulate_variational,
    traces_to_csv,
)
from mfgclab.solver import Grid, PicardSettings, SolverError, ValueAccess, solve_mfgc

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
N = 16
MU0 = gaussian_quantile_cloud(N, 0.0, 1.0)
LL = LasryLions()


RHS_COLUMNS = ("dtI_rhs", "dtIbar_rhs", "d_deltaX2_rhs", "cd_disp_rhs")


def reference_rhs(table, dx, gamma, upsilon, lam):
    """The ``evaluate_rhs_formulas`` columns from the reference forms, one
    (direction, level) at a time."""
    forms = (ll_form, ibar_form, dx2_form, functools.partial(disp_form, lam=lam))
    out = {name: np.empty(dx.shape[:2]) for name in RHS_COLUMNS}
    for b, k in np.ndindex(dx.shape[:2]):
        for name, form in zip(RHS_COLUMNS, forms):
            out[name][b, k] = form(table[k], dx[b, k], gamma[b, k], upsilon[b, k])
    return out


def assert_matches_reference_forms(table, dx, gamma, upsilon, lam):
    got = evaluate_rhs_formulas(table, dx, gamma, upsilon, lam=lam)
    for name, want in reference_rhs(table, dx, gamma, upsilon, lam).items():
        gap = np.abs(got[name] - want) / np.maximum(1.0, np.abs(want))
        assert gap.max() <= 1e-12, name


def random_table(rng, levels, n):
    """A hat table of (levels, N) standard normal entries, (levels, N, N) for
    the measure derivatives."""
    return HatTable(*(rng.normal(size=(levels, n) if f.name in ("h_p", "h_pp", "h_xx", "h_xp")
                                 else (levels, n, n)) for f in fields(HatTable)))


def anti(lvec, lu_xx=1.0):
    """The anti kind with the weights lvec and the [anti] constants of
    anti_propagation.ini."""
    return AntiMonotone(lvec, l0=10.5, gamma_lo=0.5, gamma_hi=2.0, l_bar=1.0, lu_xx=lu_xx)


def disp_example_model():
    return Model(b0=(1, 0, 0), f0=(0, 0, 0, 0.5), B=MeanPoly2((0, 0, 0.6)),
                 f1_x=(0, 0, 0.25), g=QuadraticTerminalCost(xx=1.0))


def anti_example_model():
    return preset_model({"family": "anti_example", "c": "0.3", "gamma": "1.0", "l0": "10.5"},
                        QuadraticTerminalCost(xx=-0.5))


def prop_config(kind, n_directions, seed=0, enforce_gate=True):
    """The settings of a propagation experiment at tol_c = 0.05 and the
    config's default gate samples."""
    return PropagationConfig(kind=kind, n_directions=n_directions, tol_c=0.05,
                             gate_samples=40, gate_atoms=16, seed=seed,
                             enforce_gate=enforce_gate)


@pytest.fixture(scope="module")
def lq_setup():
    """Uncoupled LQ flow and its access, shared by the module's tests."""
    model = Model(b0=(1, 0, 0), g=QuadraticTerminalCost(xx=1.0))
    grid = Grid.with_cfl_steps(-6.0, 6.0, 121, 0.0, 0.5)
    pic = PicardSettings(max_iter=40, tol=1e-10, damping=1.0)
    flow = solve_mfgc(model, MU0, grid, pic, seed=42)
    return model, grid, flow, ValueAccess(model, flow)


@pytest.fixture(scope="module")
def shipped_ll_batch():
    """simulate_variational of the ll_propagation.ini flow (113 levels) at 12
    directions: (dX, G, U, table)."""
    cfg = ExperimentConfig.from_ini(CONFIGS / "ll_propagation.ini")
    model = cfg.model()
    flow = solve_mfgc(model, cfg.initial_cloud(), cfg.grid(), cfg.picard(), seed=cfg.seed)
    etas = np.array(direction_battery(flow.states[0], 12, cfg.seed))
    return simulate_variational(ValueAccess(model, flow), etas)


def ll_setup(t_end=0.25, n_x=81, c2=0.05, terminal=None, seed=7):
    terminal = terminal or QuadraticTerminalCost(xx=0.25, xm=0.1)
    model = Model(b0=(1, 0, 0), f0=(0, 0, 0, 0.5), B=MeanPoly2((0, 0, 0.75)),
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
        # fresh access, bit for bit, every row of the traces included.
        model, grid, flow, access = ll_setup()
        etas = np.array(direction_battery(flow.states[0], 3))
        batched = simulate_variational(access, etas)[:3]
        traces = build_traces(access, etas, anti(LambdaVec(0.5, 1.0, 2.0, 3.0)))
        for b, eta in enumerate(etas):
            fresh = ValueAccess(model, flow)
            single = simulate_variational(fresh, eta[None, :])[:3]
            for name, s_all, s_one in zip(("dX", "G", "U"), batched, single):
                assert np.array_equal(s_all[b], s_one[0]), name
            one = build_traces(fresh, eta[None, :], anti(LambdaVec(0.5, 1.0, 2.0, 3.0)))
            for f in fields(PropagationTraces):
                if f.name not in ("kind", "ts"):
                    assert np.array_equal(getattr(traces, f.name)[b],
                                          getattr(one, f.name)[0]), f

    def test_direction_of_another_size_rejected(self):
        model, grid, flow, access = ll_setup()
        with pytest.raises(GateError, match="particles"):
            simulate_variational(access, np.ones((1, N + 1)))
        with pytest.raises(GateError, match="particles"):
            simulate_variational(access, np.ones(N))


class TestVariationalOracle:
    """The stacked pass of simulate_variational against the level-by-level
    loop of ``reference_variational``: (dX, G, U) within 1e-12 of each
    field's largest entry."""

    @staticmethod
    def assert_matches_reference(access, etas):
        got = simulate_variational(access, etas)
        want = reference_variational.simulate_variational(access, etas)
        for name, a, b in zip(("dX", "G", "U"), got, want):
            gap = np.max(np.abs(a - b)) / np.max(np.abs(b))
            assert gap <= 1e-12, (name, gap)

    @pytest.mark.parametrize("name", ["ll_propagation", "disp_propagation",
                                      "anti_propagation"])
    def test_shipped_flows(self, name):
        cfg, model, flow = shipped_flow(name)
        etas = np.array(direction_battery(flow.states[0], 12, cfg.seed))
        self.assert_matches_reference(ValueAccess(model, flow), etas)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(model=random_models(), seed=st.integers(0, 2**32 - 1))
    def test_random_models(self, model, seed):
        # A coupled terminal cost, and every hat entry nonzero along the
        # flow: h_prho1 and M are not symmetric, and every term of T counts.
        model = replace(model, g=QuadraticTerminalCost(xx=0.5, xm=0.2, x_lin=0.1, m2=0.3))
        grid = Grid.with_cfl_steps(-3.0, 3.0, 41, 0.0, 0.1)
        try:
            flow = solve_mfgc(model, gaussian_quantile_cloud(8, 0.0, 0.5), grid,
                              PicardSettings(max_iter=200, tol=1e-10, damping=0.6), seed=seed)
            access = ValueAccess(model, flow)
        except SolverError:
            assume(False)
        table = hat_derivative_table(model, flow.states, flow.momenta)
        assume(all(np.all(getattr(table, f.name) != 0.0) for f in fields(HatTable)))
        etas = np.random.default_rng(seed).normal(size=(3, 8))
        self.assert_matches_reference(access, etas)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_non_finite_update_names_its_level(self, monkeypatch, where):
        # An infinite h_xp at one level makes that level's update infinite:
        # the error names the level, with no floating-point warning on the way.
        model, grid, flow, access = ll_setup()
        level = {"first": 0, "middle": grid.n_t // 2, "last": grid.n_t - 1}[where]

        def broken(model, x, p):
            table = hat_derivative_table(model, x, p)
            table.h_xp[level] = np.inf
            return table

        monkeypatch.setattr(propagation, "hat_derivative_table", broken)
        with pytest.raises(GateError, match=f"blew up at level {level}$") as err:
            simulate_variational(access, np.ones((2, N)))
        assert err.value.details == {"level": level}


class TestRhsFormulas:
    def test_zero_direction_rhs_all_zero(self):
        model, grid, flow, access = ll_setup()
        dx, gamma, upsilon, table = simulate_variational(access, np.zeros((1, N)))
        out = evaluate_rhs_formulas(table, dx, gamma, upsilon, lam=1.0)
        for name in ("dtI_rhs", "dtIbar_rhs", "d_deltaX2_rhs", "cd_disp_rhs"):
            assert out[name].shape == (1, grid.n_t + 1)
            assert np.all(out[name] == 0.0), name

    def test_uncoupled_reduction_of_curvature_pairing(self, lq_setup):
        # No measure coupling: Upsilon = 0 and the curvature-pairing derivative
        # collapses to -E[gamma^2] - Hxx E[dX^2] with Hpp = -1, Hxx = 0.
        model, grid, flow, access = lq_setup
        dx, gamma, upsilon, table = simulate_variational(access, np.ones((1, N)))
        (dt_ibars,) = evaluate_rhs_formulas(table, dx, gamma, upsilon)["dtIbar_rhs"]
        for k in range(0, grid.n_t + 1, max(1, (grid.n_t + 1) // 6)):
            assert np.max(np.abs(upsilon[:, k])) <= 1e-10
            dt_ibar = dt_ibars[k]
            assert dt_ibar == pytest.approx(-float(np.mean(gamma[:, k]**2)), abs=1e-12)

    def test_stacked_levels_equal_one_level_calls(self, shipped_ll_batch):
        # 12 directions on 113 levels in one call: each entry is
        # bit-identical to a call on that direction and level alone.
        dx, gamma, upsilon, table = shipped_ll_batch
        assert dx.shape == (12, 113, N)
        out = evaluate_rhs_formulas(table, dx, gamma, upsilon, lam=0.5)
        for b, k in np.ndindex(12, 113):
            at = (slice(b, b + 1), slice(k, k + 1))
            one = evaluate_rhs_formulas(table[at[1]], dx[at], gamma[at], upsilon[at], lam=0.5)
            for name, column in out.items():
                assert column.shape == (12, 113)
                assert np.array_equal(column[at], one[name]), (name, b, k)

    def test_peak_memory_at_12_directions_on_113_levels(self, shipped_ll_batch):
        # No form matrix: a few (12, 113, 16) stacks of 174 KB each.  The
        # call peaks at 1.23 MB (numpy 2.4; 1.12 MB with the forms' atom sums
        # written out by hand); the bound leaves 14 % headroom, below the
        # 2.11 MB of building the forms in 1 MB chunks of levels,
        # and one call's forms over all 113 levels would hold 10 MB.
        dx, gamma, upsilon, table = shipped_ll_batch
        evaluate_rhs_formulas(table, dx, gamma, upsilon)
        tracemalloc.start()
        try:
            evaluate_rhs_formulas(table, dx, gamma, upsilon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_400_000

    def test_agree_with_reference_forms_on_shipped_batch(self, shipped_ll_batch):
        # Every (direction, level) of the ll_propagation.ini trace.
        dx, gamma, upsilon, table = shipped_ll_batch
        assert_matches_reference_forms(table, dx, gamma, upsilon, lam=0.5)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(model=random_models(), b0x=st.floats(0.1, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_agree_with_reference_forms_on_random_models(self, model, b0x, seed):
        # b0x != 0 makes the measure tables depend on the support atom,
        # once the model has a mean coupling.
        model = replace(model, b0=(model.b0[0], b0x, model.b0[2]))
        rng = np.random.default_rng(seed)
        table = hat_derivative_table(model, *rng.normal(size=(2, 3, 9)))
        assume(np.ptp(table.h_prho2, axis=-1).min() > 0)
        dx, gamma, upsilon = rng.normal(size=(3, 2, 3, 9))
        assert_matches_reference_forms(table, dx, gamma, upsilon, lam=0.7)

    @pytest.mark.parametrize("entry, reach", [
        ("h_p", ()),
        ("h_pp", ("dtI_rhs", "dtIbar_rhs", "d_deltaX2_rhs")),
        ("h_xx", ("dtIbar_rhs",)),
        ("h_xp", ("d_deltaX2_rhs",)),
        ("h_xrho1", ("dtI_rhs",)),
        ("h_xrho2", ("dtI_rhs",)),
        ("h_prho1", ("dtI_rhs", "dtIbar_rhs", "d_deltaX2_rhs")),
        ("h_prho2", ("dtI_rhs", "dtIbar_rhs", "d_deltaX2_rhs")),
    ])
    def test_each_table_entry_moves_exactly_its_columns(self, entry, reach):
        # Zeroing one hat entry changes the columns whose formula reads it,
        # and the combined column with them (lam > 0), and leaves every
        # other column bit-identical.
        model = ExperimentConfig.from_ini(CONFIGS / "chain.ini").model()
        rng = np.random.default_rng(6)
        table = hat_derivative_table(model, *rng.normal(size=(2, 4, 12)))
        assert all(np.all(getattr(table, f.name) != 0.0) for f in fields(HatTable))
        state = rng.normal(size=(3, 2, 4, 12))
        base = evaluate_rhs_formulas(table, *state, lam=0.5)
        zeroed = replace(table, **{entry: np.zeros_like(getattr(table, entry))})
        moved = evaluate_rhs_formulas(zeroed, *state, lam=0.5)
        reach = set(reach) | ({"cd_disp_rhs"} if reach else set())
        for name in RHS_COLUMNS:
            assert np.array_equal(moved[name], base[name]) != (name in reach), name

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.tuples(*(st.integers(1, 4),) * 2),
           n=st.integers(1, 10), c=st.floats(0.01, 100.0), lam=st.floats(0.0, 2.0))
    def test_quadratic_and_exchangeable(self, seed, shape, n, c, lam):
        # Each column is a quadratic form in (dX, G, U) per (direction,
        # level): scaling by c scales it by c^2, and a sign flip leaves it
        # bit-identical.  Relabelling the atoms (the state by P, the tables
        # as P h P^T) leaves it unchanged up to round-off.
        rng = np.random.default_rng(seed)
        directions, levels = shape
        table = random_table(rng, levels, n)
        state = rng.normal(size=(3, directions, levels, n))
        base = evaluate_rhs_formulas(table, *state, lam=lam)
        flipped = evaluate_rhs_formulas(table, *-state, lam=lam)
        scaled = evaluate_rhs_formulas(table, *(c * state), lam=lam)
        perm = rng.permutation(n)
        relabelled = HatTable(*(getattr(table, f.name)[:, perm][..., perm]
                                if getattr(table, f.name).ndim == 3
                                else getattr(table, f.name)[:, perm] for f in fields(HatTable)))
        permuted = evaluate_rhs_formulas(relabelled, *state[..., perm], lam=lam)
        for name in RHS_COLUMNS:
            scale = max(1.0, np.abs(base[name]).max())
            assert np.array_equal(flipped[name], base[name]), name
            assert np.allclose(scaled[name], c**2 * base[name], rtol=0,
                               atol=1e-12 * c**2 * scale), name
            assert np.allclose(permuted[name], base[name], rtol=0, atol=1e-12 * scale), name

    def test_formula_equality_along_coupled_trace(self):
        model, grid, flow, access = ll_setup()
        traces = build_traces(access, np.ones((1, N)), LL)
        assert formula_match_violations(traces) == []
        (slope,) = traces.slope(traces.i)
        gap = np.abs(slope[1:-1] - traces.dt_i_rhs[0, 1:-1])
        assert gap.max() <= 1e-3

    def test_combined_displacement_formula_matches(self):
        # The disp model has h_xrho2 = 0; ll_setup's q2 = 0.1 makes it nonzero.
        model = disp_example_model()
        grid = Grid.with_cfl_steps(-6.0, 6.0, 81, 0.0, 0.25)
        pic = PicardSettings(max_iter=200, tol=1e-10, damping=0.6)
        flow = solve_mfgc(model, MU0, grid, pic, seed=11)
        for access in (ValueAccess(model, flow), ll_setup()[3]):
            traces = build_traces(access, np.ones((1, N)), Displacement(0.0))
            (slope,) = traces.slope(traces.i + traces.ibar)
            (exact,) = traces.cd_disp_rhs
            gap = np.abs(slope[1:-1] - exact[1:-1])
            ref = np.maximum(np.abs(slope[1:-1]), np.abs(exact[1:-1]))
            assert np.all(gap <= np.maximum(0.10 * ref, 1e-3))
            assert formula_match_violations(traces) == []

    def test_xi_bookkeeping_identity(self):
        model, grid, flow, access = ll_setup()
        lv = LambdaVec(0.5, 1.0, 2.0, 3.0)
        (series,) = build_traces(access, np.ones((1, N)), anti(lv)).series
        (dxs,), (gammas,), (upsilons,), _ = simulate_variational(access, np.ones((1, N)))
        for k, (dx, gamma, upsilon) in enumerate(zip(dxs, gammas, upsilons)):
            expected = (lv.l0 * np.mean(gamma * dx) + lv.l1 * np.mean(upsilon * dx)
                        + np.mean(gamma**2) + lv.l2 * np.mean(upsilon**2)
                        - lv.l3 * np.mean(dx**2))
            assert series[k] == pytest.approx(expected, abs=1e-14)


class TestPropagationExperiment:
    def test_ll_experiment_passes_and_i_decreases(self):
        model, grid, flow, access = ll_setup()
        config = prop_config(LL, 4)
        result = propagation_experiment(access, config)
        assert result.verdict
        assert result.slope_violations == []
        assert result.formula_violations == []
        assert min(result.endpoint_values) >= -result.tolerance
        # terminal values carry the monotonicity exactly at t = T
        assert min(result.details["terminal_values"]) >= -1e-8

    def test_negative_control_produces_slope_violation(self):
        model, grid, flow, access = ll_setup(c2=-0.2)
        config = prop_config(LL, 12, enforce_gate=False)
        result = propagation_experiment(access, config)
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
        config = prop_config(Displacement(0.0), 4)
        result = propagation_experiment(access, config)
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
        config = prop_config(anti(lv), 4)
        result = propagation_experiment(access, config)
        assert result.verdict
        assert result.details["vxx_max"] <= 1.0
        series = result.traces.series[0]
        assert series[0] <= series[-1] + result.tolerance
        assert series[0] <= result.tolerance

    def test_anti_vxx_violation_is_gate_error(self):
        model = anti_example_model()
        grid = Grid.with_cfl_steps(-1.5, 1.5, 61, 0.0, 0.1)
        pic = PicardSettings(max_iter=200, tol=1e-10, damping=0.6)
        flow = solve_mfgc(model, gaussian_quantile_cloud(N, 0.0, 0.35), grid, pic, seed=13)
        access = ValueAccess(model, flow)
        lv = LambdaVec(0.5, 0.5, 4.0, 8.0)
        config = prop_config(anti(lv, lu_xx=0.25), 2)  # below the realised curvature
        with pytest.raises(GateError, match="curvature") as err:
            propagation_experiment(access, config)
        assert err.value.details["vxx_max"] > err.value.details["vxx_bound"] == 0.25

    def test_trace_csv_export(self, tmp_path):
        model, grid, flow, access = ll_setup()
        config = prop_config(LL, 2)
        result = propagation_experiment(access, config)
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
        mono = mon_disp(access, [0], etas[:, None], kind)[:, 0]
        assert np.array_equal(build_traces(access, etas, kind).series[:, 0], mono)
        assert np.max(np.abs(mono)) > 1e-3  # the comparison is not between zeros

    @pytest.mark.parametrize("name", ["ll", "disp", "anti"])
    def test_terminal_gate_values_equal_mono_sweep_terminal_samples(self, name):
        # The terminal gate and the mono sweep read V_xx and M eta at level
        # n_t through one access path, and judge them within one tolerance:
        # same battery, same seed, same bits.
        access, kind = kind_setup(name)
        config = prop_config(kind, 12, 3)
        result = propagation_experiment(access, config)
        report = monotonicity_sweep(access, config, slices=2)
        n_t = access.flow.grid.n_t
        swept = [s["value"] for s in report.samples if s["level"] == n_t]
        assert len(swept) == 12
        assert result.details["terminal_values"] == swept
        assert max(abs(v) for v in swept) > 1e-3  # the comparison is not between zeros
        assert report.tolerance == result.tolerance

    @pytest.mark.parametrize("name", ["ll", "disp", "anti"])
    def test_one_call_sweep_equals_one_level_calls(self, name):
        # The sweep evaluates every slice in one mon_disp call; each value is
        # that of its level and direction asked alone, bit for bit.
        access, kind = kind_setup(name)
        report = monotonicity_sweep(access, prop_config(kind, 12, 3), slices=5)
        levels = sorted({s["level"] for s in report.samples})
        assert len(levels) == 5
        want = []
        for k in levels:
            for eta in direction_battery(access.flow.states[k], 12, 3):
                (value,) = mon_disp(access, [k], eta[None, None, :], kind)[0]
                want.append(float(value))
        assert [s["value"] for s in report.samples] == want
        assert len(set(want)) > len(levels)  # the values differ across directions

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


@functools.cache
def shipped_flow(name):
    """(config, model, solved flow) of one shipped propagate config."""
    cfg = ExperimentConfig.from_ini(CONFIGS / f"{name}.ini")
    model = cfg.model()
    return cfg, model, solve_mfgc(model, cfg.initial_cloud(), cfg.grid(), cfg.picard(),
                                  seed=cfg.seed)


# Anti weights without the -l3 dX2 term that keeps Xi decreasing.
ANTI_NO_L3 = LambdaVec(0.5, 0.5, 4.0, 0.0)

# (config, tol_c, anti weights, whether the battery fails its slope rule):
# every shipped propagate config as shipped, and failing batteries of each
# slope rule, among them directions with both level and endpoint violations
# (ll_negative_control at tol_c = 0 and under the anti kind).
ORACLE_CASES = {
    "ll": ("ll_propagation", None, None, False),
    "ll_tol_0": ("ll_propagation", 0.0, None, True),
    "ll_negative_control": ("ll_negative_control", None, None, True),
    "ll_negative_control_tol_0": ("ll_negative_control", 0.0, None, True),
    "disp": ("disp_propagation", None, None, False),
    "disp_semi": ("disp_semi_propagation", None, None, False),
    "disp_semi_negative_control": ("disp_semi_negative_control", None, None, True),
    "anti": ("anti_propagation", None, None, False),
    "anti_no_l3": ("anti_propagation", None, ANTI_NO_L3, True),
    "anti_on_ll_negative_control": ("ll_negative_control", None, ANTI_NO_L3, True),
}


def oracle_result(case):
    """The experiment of one ORACLE_CASES entry; a changed tolerance or kind
    runs ungated."""
    name, tol_c, lvec, _ = ORACLE_CASES[case]
    cfg, model, flow = shipped_flow(name)
    config = cfg.propagation()
    if tol_c is not None:
        config = replace(config, tol_c=tol_c, enforce_gate=False)
    if lvec is not None:
        config = replace(config, kind=anti(lvec), enforce_gate=False)
    return propagation_experiment(ValueAccess(model, flow), config)


def assert_same_entries(got, want):
    """The two lists hold the same entries, in order, each with the same keys
    in the same order and values of the same JSON type; a mismatch names its
    first index instead of diffing whole lists."""
    got, want = [json.dumps(v) for v in got], [json.dumps(v) for v in want]
    first = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert first is None and len(got) == len(want), (first, len(got), len(want))


class TestBatchedVerdictOracle:
    """The verdict and trace.csv of the batched record against the
    per-direction code of ``reference_traces``: the same lists, in the same
    order with the same keys, and the same bytes."""

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_verdict_and_trace_csv_equal_per_direction_loop(self, case, tmp_path):
        result = oracle_result(case)
        per_direction = split(result.traces)
        slope, formula, endpoint = verdict_lists(per_direction, result.tolerance)
        assert_same_entries(result.slope_violations, slope)
        assert_same_entries(result.formula_violations, formula)
        assert_same_entries(result.endpoint_values.tolist(), endpoint)
        assert bool(slope) == ORACLE_CASES[case][3]
        assert result.verdict == (not slope and not formula)
        traces_to_csv(tmp_path / "got.csv", result.traces)
        trace_csv(tmp_path / "want.csv", per_direction, TRACE_COLUMNS)
        same = (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert same

    @pytest.mark.parametrize("case", ["ll", "ll_negative_control", "disp", "disp_semi",
                                      "anti"])
    def test_formula_violations_equal_per_direction_loop(self, case):
        # Tolerances far below the discretisation error force violations of
        # every pair, the displacement series included.
        result = oracle_result(case)
        got = formula_match_violations(result.traces, rel=1e-4, abs_tol=1e-9)
        want = verdict_lists(split(result.traces), result.tolerance, 1e-4, 1e-9)[1]
        assert want
        assert_same_entries(got, want)
        if result.kind == "disp":
            assert any(v.get("series") == "disp" for v in got)

    @pytest.mark.parametrize("kind", [LL, Displacement(0.5), anti(LambdaVec(0.5, 0.5, 4.0, 8.0))],
                             ids=["ll", "disp", "anti"])
    def test_slope_rule_equals_per_direction_rule_on_a_random_record(self, kind):
        # Unequal time steps and series on the scale of tol, so that every
        # clause of each rule decides some of the 200 directions.
        rng = np.random.default_rng(11)
        levels, tol = 7, 0.5
        ts = np.cumsum(rng.uniform(0.5, 1.5, levels))
        columns = rng.normal(size=(8, 200, levels))
        traces = PropagationTraces(kind, ts, *columns)
        rates, bad, endpoint_ok = kind.slope_rule(traces, tol)
        assert 0 < np.count_nonzero(endpoint_ok) < 200
        for b, trace in enumerate(split(traces)):
            want_bad, want_ok = slope_rule(trace, tol)
            got_bad = [(int(k), float(rates[b, k])) for k in np.flatnonzero(bad[b])]
            assert got_bad == want_bad and bool(endpoint_ok[b]) == want_ok, b
