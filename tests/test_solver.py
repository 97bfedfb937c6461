import numpy as np
import pytest
from scipy.integrate import solve_ivp

from mfgclab.measures import gaussian_quantile_cloud
from mfgclab.models import MeanPoly2, Model, QuadraticTerminalCost, fixed_point_phi
from mfgclab.solver import (
    Grid,
    PicardError,
    PicardSettings,
    SolverError,
    ValueAccess,
    best_response_gap,
    solve_mfgc,
    terminal_field,
)

T = 0.5


def lq_model(gxx=1.0):
    """Uncoupled linear-quadratic instance: b = -a, f = a^2/2, H = -p^2/2."""
    return Model(b0=(1, 0, 0), g=QuadraticTerminalCost(xx=gxx))


def coupled_model():
    """The ll_example preset with c1 = 0.5, c2 = 0.05, c3 = 0.1."""
    return Model(b0=(1, 0, 0), f0=(0, 0, 0, 0.5), B=MeanPoly2.linear(m2=0.75),
                 q1=0.05, q2=0.1, g=QuadraticTerminalCost(xx=0.5, xm=0.1))


def riccati_oracle():
    """High-accuracy integration of P' = 2P^2, r' = -P backward from P(T) = 1/2.

    Parameterised by s = T - t: dP/ds = -2P^2, dr/ds = P.
    """
    return solve_ivp(lambda s, y: [-2.0 * y[0] ** 2, y[0]], (0.0, T), [0.5, 0.0],
                     rtol=1e-12, atol=1e-14, dense_output=True)


def oracle_error(flow, grid, sol, half_window=3.0):
    """Max |u - oracle| over the interior window (the linear-extrapolation
    boundary is wrong for a globally quadratic solution and pollutes a
    diffusive layer near the edges)."""
    window = np.abs(grid.xs) <= half_window
    worst = 0.0
    for k, t in enumerate(grid.ts):
        p_val, r_val = sol.sol(T - t)
        u_oracle = p_val * grid.xs**2 + r_val
        worst = max(worst, float(np.max(np.abs(flow.value_field.u[k][window] - u_oracle[window]))))
    return worst


class TestGrid:
    def test_cfl_violation_rejected(self):
        with pytest.raises(SolverError):
            Grid(-6.0, 6.0, 201, 0.0, 1.0, 100)  # dt = 0.01 >> 0.45 dx^2

    def test_with_cfl_steps_is_valid(self):
        grid = Grid.with_cfl_steps(-6.0, 6.0, 201, 0.0, 1.0)
        assert grid.dt <= 0.45 * grid.dx**2 * (1 + 1e-12)

    def test_size_floors(self):
        with pytest.raises(SolverError):
            Grid(-1.0, 1.0, 8, 0.0, 1.0, 100000)
        with pytest.raises(SolverError):
            Grid(-1.0, 1.0, 16, 0.0, 0.00001, 4)


class TestZeroCouplingHeatFlow:
    def setup_method(self):
        self.model = Model(b0=(-1, 0, 0))  # separable: b = a, f = a^2/2, g = 0
        self.grid = Grid.with_cfl_steps(-6.0, 6.0, 61, 0.0, T)
        self.mu0 = gaussian_quantile_cloud(16, 0.0, 1.0)
        self.flow = solve_mfgc(self.model, self.mu0, self.grid,
                               PicardSettings(max_iter=10, tol=1e-12, damping=1.0), seed=3)

    def test_value_identically_zero(self):
        assert np.max(np.abs(self.flow.value_field.u)) == 0.0

    def test_controls_identically_zero(self):
        assert np.max(np.abs(self.flow.controls)) == 0.0

    def test_particle_mean_preserved_within_mc_error(self):
        drift = abs(self.flow.states[-1].mean() - self.flow.states[0].mean())
        assert drift <= 3.0 / np.sqrt(self.mu0.size)


class TestRiccatiOracle:
    def test_matches_oracle_at_reference_resolution(self):
        grid = Grid.with_cfl_steps(-6.0, 6.0, 201, 0.0, T)
        flow = solve_mfgc(lq_model(), gaussian_quantile_cloud(16, 0.0, 1.0), grid,
                          PicardSettings(max_iter=40, tol=1e-10, damping=1.0), seed=42)
        err = oracle_error(flow, grid, riccati_oracle())
        assert err <= 5.0 * (grid.dx**2 + grid.dt)

    def test_halving_dt_halves_error(self):
        sol = riccati_oracle()
        pic = PicardSettings(max_iter=40, tol=1e-10, damping=1.0)
        mu0 = gaussian_quantile_cloud(16, 0.0, 1.0)
        g1 = Grid.with_cfl_steps(-6.0, 6.0, 201, 0.0, T)
        g2 = Grid(-6.0, 6.0, 201, 0.0, T, 2 * g1.n_t)
        e1 = oracle_error(solve_mfgc(lq_model(), mu0, g1, pic, seed=42), g1, sol)
        e2 = oracle_error(solve_mfgc(lq_model(), mu0, g2, pic, seed=42), g2, sol)
        assert 1.5 <= e1 / e2 <= 2.5

    def test_halving_dx_reduces_error_at_least_twofold(self):
        # CFL ties dt to dx^2, so halving dx quarters dt; first order in time
        # gives a factor >= 2 (here ~4).
        sol = riccati_oracle()
        pic = PicardSettings(max_iter=40, tol=1e-10, damping=1.0)
        mu0 = gaussian_quantile_cloud(16, 0.0, 1.0)
        g1 = Grid.with_cfl_steps(-6.0, 6.0, 101, 0.0, T)
        g2 = Grid.with_cfl_steps(-6.0, 6.0, 201, 0.0, T)
        e1 = oracle_error(solve_mfgc(lq_model(), mu0, g1, pic, seed=42), g1, sol)
        e2 = oracle_error(solve_mfgc(lq_model(), mu0, g2, pic, seed=42), g2, sol)
        assert e1 / e2 >= 2.0


class TestFlowStructure:
    def setup_method(self):
        self.model = coupled_model()
        self.grid = Grid.with_cfl_steps(-6.0, 6.0, 61, 0.0, T)
        self.pic = PicardSettings(max_iter=120, tol=1e-9, damping=0.6)
        self.mu0 = gaussian_quantile_cloud(16, 0.0, 1.0)
        self.flow = solve_mfgc(self.model, self.mu0, self.grid, self.pic, seed=7)

    def test_terminal_condition_exact(self):
        g_row = self.model.g(self.grid.xs, self.flow.states[self.grid.n_t])
        assert np.array_equal(self.flow.value_field.u[-1], g_row)

    def test_determinism_bit_identical(self):
        again = solve_mfgc(self.model, self.mu0, self.grid, self.pic, seed=7)
        assert np.array_equal(again.states, self.flow.states)
        assert np.array_equal(again.momenta, self.flow.momenta)
        assert np.array_equal(again.value_field.u, self.flow.value_field.u)
        assert again.residual_history == self.flow.residual_history

    def test_fixed_point_consistency_each_step(self):
        for k in range(self.grid.n_t + 1):
            again = fixed_point_phi(self.model, self.flow.states[k], self.flow.momenta[k])
            assert np.max(np.abs(self.flow.controls[k] - again)) <= 1e-10

    def test_momenta_are_value_gradient_at_states(self):
        vf = self.flow.value_field
        for k in range(0, self.grid.n_t + 1, 7):
            assert np.allclose(self.flow.momenta[k], vf.ux_at(k, self.flow.states[k]),
                               atol=1e-12)

    def test_residual_history_monotone_after_burn_in(self):
        # Reported (not asserted elsewhere): the damped iteration contracts
        # monotonically after the first sweeps for the mild coupling used here.
        hist = self.flow.residual_history
        assert all(b <= a * 1.001 for a, b in zip(hist[3:], hist[4:]))


class TestValueAt:
    """V(t, ., mu): the terminal slice, a fresh solve on [t_k, T] and the
    warm-started re-solves of ValueAccess."""

    def test_terminal_slice_is_terminal_cost(self):
        model = coupled_model()
        grid = Grid.with_cfl_steps(-6.0, 6.0, 61, 0.0, T)
        mu = gaussian_quantile_cloud(16, 0.2, 0.8)
        vf = terminal_field(model, mu, grid.xs, T)
        assert vf.u.shape == (1, grid.n_x)
        assert np.array_equal(vf.u[0], model.g(grid.xs, mu))

    def test_time_consistency_against_fresh_resolve(self):
        model = coupled_model()
        grid = Grid.with_cfl_steps(-6.0, 6.0, 121, 0.0, T)
        pic = PicardSettings(max_iter=120, tol=1e-9, damping=0.6)
        flow = solve_mfgc(model, gaussian_quantile_cloud(16, 0.0, 1.0), grid, pic, seed=7)
        k = grid.n_t // 2
        sub = Grid(grid.x_min, grid.x_max, grid.n_x, grid.ts[k], T, grid.n_t - k)
        vf = solve_mfgc(model, flow.states[k], sub, pic, seed=123).value_field
        window = np.abs(grid.xs) <= 3.0
        gap = np.max(np.abs(vf.u[0][window] - flow.value_field.u[k][window]))
        assert gap <= 2.0 * 5.0 * (grid.dx**2 + grid.dt)

    def test_time_consistency_with_common_random_numbers(self):
        model = coupled_model()
        grid = Grid.with_cfl_steps(-6.0, 6.0, 121, 0.0, T)
        pic = PicardSettings(max_iter=120, tol=1e-9, damping=0.6)
        flow = solve_mfgc(model, gaussian_quantile_cloud(16, 0.0, 1.0), grid, pic, seed=7)
        access = ValueAccess(model, flow)
        k = grid.n_t // 2
        vf = access.field(grid.ts[k], flow.states[k])
        window = np.abs(grid.xs) <= 3.0
        gap = np.max(np.abs(vf.u[0][window] - flow.value_field.u[k][window]))
        assert gap <= 1e-6

    def test_translation_equivariance(self):
        # separable: b = a, f = a^2/2, g = (x - E[xi])^2 / 2
        model = Model(b0=(-1, 0, 0), g=QuadraticTerminalCost(xx=1.0, xm=-1.0, m2=0.5))
        shift = 1.0
        mu0 = gaussian_quantile_cloud(16, 0.0, 1.0)
        pic = PicardSettings(max_iter=60, tol=1e-10, damping=1.0)
        g1 = Grid.with_cfl_steps(-6.0, 6.0, 101, 0.0, T)
        g2 = Grid(-6.0 + shift, 6.0 + shift, 101, 0.0, T, g1.n_t)
        f1 = solve_mfgc(model, mu0, g1, pic, seed=5)
        f2 = solve_mfgc(model, mu0 + shift, g2, pic, seed=5)
        assert np.max(np.abs(f1.value_field.u - f2.value_field.u)) <= 1e-10
        assert np.max(np.abs(f1.states + shift - f2.states)) <= 1e-10


class TestValueAccess:
    def setup_method(self):
        self.model = coupled_model()
        self.grid = Grid.with_cfl_steps(-6.0, 6.0, 61, 0.0, T)
        self.flow = solve_mfgc(self.model, gaussian_quantile_cloud(16, 0.0, 1.0), self.grid,
                               PicardSettings(max_iter=120, tol=1e-9, damping=0.6), seed=7)
        self.access = ValueAccess(self.model, self.flow)

    def test_cached_field_is_one_owned_row(self):
        # A view of the re-solve's grid would keep every full grid alive.
        k = self.grid.n_t // 3
        mu = self.flow.states[k] + 1e-3
        vf = self.access.field(self.grid.ts[k], mu)
        assert vf.u.shape == (1, self.grid.n_x)
        assert vf.u.base is None
        assert self.access.field(self.grid.ts[k], mu) is vf

    def test_cloud_of_another_size_rejected(self):
        with pytest.raises(SolverError, match="particles"):
            self.access.field(0.0, gaussian_quantile_cloud(8, 0.0, 1.0))

    def test_time_outside_horizon_rejected(self):
        with pytest.raises(SolverError, match="horizon"):
            self.access.field(2 * T, self.flow.states[0])


class TestBestResponseGap:
    def test_converged_flow_has_small_gap(self):
        model = coupled_model()
        grid = Grid.with_cfl_steps(-6.0, 6.0, 61, 0.0, T)
        flow = solve_mfgc(model, gaussian_quantile_cloud(16, 0.0, 1.0), grid,
                          PicardSettings(max_iter=150, tol=1e-10, damping=0.6), seed=7)
        assert best_response_gap(model, flow) <= 5.0 * (grid.dx**2 + grid.dt)

    def test_perturbed_flow_has_larger_gap(self):
        model = coupled_model()
        grid = Grid.with_cfl_steps(-6.0, 6.0, 61, 0.0, T)
        flow = solve_mfgc(model, gaussian_quantile_cloud(16, 0.0, 1.0), grid,
                          PicardSettings(max_iter=150, tol=1e-10, damping=0.6), seed=7)
        base_gap = best_response_gap(model, flow)
        flow.controls = flow.controls + 0.1
        assert best_response_gap(model, flow) > max(10.0 * base_gap, 1e-4)

    def test_zero_coupling_gap_is_exactly_zero(self):
        model = lq_model()
        grid = Grid.with_cfl_steps(-6.0, 6.0, 61, 0.0, T)
        flow = solve_mfgc(model, gaussian_quantile_cloud(16, 0.0, 1.0), grid,
                          PicardSettings(max_iter=20, tol=1e-10, damping=1.0), seed=11)
        assert best_response_gap(model, flow) == 0.0


class TestErrorPaths:
    def test_picard_non_convergence_carries_history(self):
        model = coupled_model()
        grid = Grid.with_cfl_steps(-6.0, 6.0, 61, 0.0, T)
        with pytest.raises(PicardError) as err:
            solve_mfgc(model, gaussian_quantile_cloud(16, 0.0, 1.0), grid,
                       PicardSettings(max_iter=3, tol=1e-14, damping=0.5), seed=7)
        assert len(err.value.residual_history) == 3

    def test_initial_cloud_outside_margin_rejected(self):
        model = lq_model()
        grid = Grid.with_cfl_steps(-6.0, 6.0, 61, 0.0, T)
        with pytest.raises(SolverError):
            solve_mfgc(model, gaussian_quantile_cloud(16, 5.95, 0.01), grid)
        with pytest.raises(SolverError):
            solve_mfgc(model, np.array([0.0, np.nan]), grid)

    def test_initial_cloud_must_be_one_dimensional(self):
        model = lq_model()
        grid = Grid.with_cfl_steps(-6.0, 6.0, 61, 0.0, T)
        with pytest.raises(SolverError, match="1-D"):
            solve_mfgc(model, gaussian_quantile_cloud(16)[:, None], grid)

    def test_escaping_particles_reported(self):
        # A steep terminal slope drives the optimal drift far beyond the box.
        model = Model(b0=(1, 0, 0), g=QuadraticTerminalCost(x_lin=40.0))
        grid = Grid.with_cfl_steps(-6.0, 6.0, 61, 0.0, T)
        with pytest.raises(SolverError, match="escaped"):
            solve_mfgc(model, gaussian_quantile_cloud(16, 0.0, 1.0), grid,
                       PicardSettings(max_iter=10, tol=1e-9, damping=1.0), seed=1)


class TestCsvExport:
    def test_flow_csv_roundtrip_shape(self, tmp_path):
        model = lq_model()
        grid = Grid.with_cfl_steps(-6.0, 6.0, 61, 0.0, T)
        flow = solve_mfgc(model, gaussian_quantile_cloud(8, 0.0, 1.0), grid,
                          PicardSettings(max_iter=20, tol=1e-10, damping=1.0), seed=2)
        path = tmp_path / "flow.csv"
        flow.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,particle,state,control,u_x"
        assert len(lines) == 1 + (grid.n_t + 1) * 8
        meta = flow.run_metadata()
        assert meta["grid"]["n_t"] == grid.n_t
