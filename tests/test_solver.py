import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_picard import anderson_picard, backward_value, forward_push, plain_picard
from reference_resolve import resolve_field, ux_at
from scipy.integrate import solve_ivp
from test_calculus import at_level, ll_flow, random_models
from test_models import PRESET_FACTORIES

from mfgclab import solver
from mfgclab.calculus import value_measure_gradient
from mfgclab.config import ExperimentConfig
from mfgclab.measures import gaussian_quantile_cloud
from mfgclab.models import (
    MeanPoly2,
    Model,
    QuadraticTerminalCost,
    control_mean_tangent,
    fixed_point_phi,
    hamiltonian_partials,
)
from mfgclab.monotonicity import direction_battery
from mfgclab.solver import (
    ANDERSON_DEPTH,
    Grid,
    PicardError,
    PicardSettings,
    SolverError,
    ValueAccess,
    _backward_value,
    _d1_rows,
    _moments,
    _sweep,
    solve_mfgc,
    terminal_field,
)

T = 0.5
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def lq_model(gxx=1.0):
    """Uncoupled linear-quadratic instance: b = -a, f = a^2/2, H = -p^2/2."""
    return Model(b0=(1, 0, 0), g=QuadraticTerminalCost(xx=gxx))


def coupled_model():
    """The ll_example preset with c1 = 0.5, c2 = 0.05, c3 = 0.1."""
    return Model(b0=(1, 0, 0), f0=(0, 0, 0, 0.5), B=MeanPoly2((0, 0, 0.75)),
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

    def test_non_finite_bound_rejected(self):
        # Through n_t = auto, and through the CFL message of a given n_t:
        # neither may reach int(inf).
        with pytest.raises(SolverError, match="finite"):
            Grid.with_cfl_steps(-6.0, 6.0, 61, 0.0, np.inf)
        with pytest.raises(SolverError, match="finite"):
            Grid(-6.0, 6.0, 61, -np.inf, 0.5, 100)


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
            assert np.allclose(self.flow.momenta[k], ux_at(vf, k, self.flow.states[k]),
                               atol=1e-12)

    def test_residual_history_monotone_after_burn_in(self):
        # The Anderson-mixed iteration need not shrink the residual at every
        # sweep, yet for the mild coupling used here it falls monotonically
        # after the first few sweeps.
        hist = self.flow.residual_history
        assert all(b <= a * 1.001 for a, b in zip(hist[3:], hist[4:]))


def config_case(name, n_x):
    """Model, initial cloud, Picard settings and a coarser grid of a shipped config."""
    cfg = ExperimentConfig.from_ini(CONFIGS / f"{name}.ini")
    g = cfg.grid()
    grid = Grid.with_cfl_steps(g.x_min, g.x_max, n_x, g.t0, g.t_end)
    return cfg.model(), cfg.initial_cloud(), grid, cfg.picard(), cfg.seed


class TestAndersonMixing:
    """The mixed solve against the plain damped Picard iteration it accelerates."""

    CASES = {
        "coupled": lambda: (coupled_model(), gaussian_quantile_cloud(16, 0.0, 1.0),
                            Grid.with_cfl_steps(-6.0, 6.0, 61, 0.0, T),
                            PicardSettings(max_iter=200, tol=1e-10, damping=0.6), 7),
        "ll_propagation": lambda: config_case("ll_propagation", 61),
        "anti_propagation": lambda: config_case("anti_propagation", 31),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_flow_in_at_most_half_the_sweeps(self, case):
        model, x0, grid, pic, seed = self.CASES[case]()
        states, momenta, history = plain_picard(model, x0, grid, pic, seed)
        flow = solve_mfgc(model, x0, grid, pic, seed=seed)
        assert np.max(np.abs(flow.states - states)) <= 1e-9
        assert np.max(np.abs(flow.momenta - momenta)) <= 1e-9
        assert 2 * flow.picard_iterations <= len(history)

    @staticmethod
    def outcome(solve, *args):
        """(states, momenta, residual history) of a solve, or the type and
        the residual history of the error that ended it."""
        try:
            return solve(*args)
        except SolverError as err:
            return type(err), getattr(err, "residual_history", None)

    def assert_mixing_is_the_list_reference(self, model, x0, grid, pic, seed):
        # The solver keeps its mixing history as arrays of differences; the
        # reference rebuilds them from lists of iterates at every sweep.  The
        # least-squares problem is the same, column for column, so the two
        # iterations agree bit for bit.
        def solve(*args):
            flow = solve_mfgc(*args[:-1], seed=args[-1])
            return flow.states, flow.momenta, flow.residual_history

        got = self.outcome(solve, model, x0, grid, pic, seed)
        want = self.outcome(anderson_picard, model, x0, grid, pic, seed)
        assert len(got) == len(want)  # both solved, or both failed
        for got_part, want_part in zip(got, want):
            assert np.array_equal(got_part, want_part)
        return got

    def test_mixing_is_the_list_reference_on_a_preset(self):
        # A tolerance out of reach runs every sweep: the history fills at
        # sweep ANDERSON_DEPTH + 1 and rolls over at each of the last three,
        # and both solves end in the same PicardError.
        model, x0, grid, pic, seed = self.CASES["ll_propagation"]()
        pic = PicardSettings(max_iter=ANDERSON_DEPTH + 4, tol=1e-300, damping=pic.damping)
        error, history = self.assert_mixing_is_the_list_reference(model, x0, grid, pic, seed)
        assert error is PicardError
        assert len(history) == ANDERSON_DEPTH + 4

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(model=random_models(), seed=st.integers(0, 2**16))
    def test_mixing_is_the_list_reference_on_random_models(self, model, seed):
        # A tolerance out of reach runs every sweep, so a converging model
        # rolls its history over too; a failing one fails alike.
        grid = Grid.with_cfl_steps(-4.0, 4.0, 31, 0.0, 0.2)
        self.assert_mixing_is_the_list_reference(
            model, gaussian_quantile_cloud(8, 0.0, 0.5), grid,
            PicardSettings(max_iter=ANDERSON_DEPTH + 4, tol=1e-300, damping=0.5), seed)

    def test_stiff_control_coupling_solves_in_fewer_sweeps_than_depth_five(self, monkeypatch):
        # At c1 = 0.99, the stiff end of the control-coupling axis, the solve
        # uses more than five differences: depth 5 drops the oldest of them
        # and takes four sweeps more to the same tolerance.
        model = replace(coupled_model(), f0=(0, 0, 0, 0.99))
        flow = ll_flow(model)[1]
        monkeypatch.setattr(solver, "ANDERSON_DEPTH", 5)
        shallow = ll_flow(model)[1]
        assert flow.picard_iterations < shallow.picard_iterations
        assert flow.picard_iterations == 20
        assert np.max(np.abs(flow.states - shallow.states)) <= 1e-9

    def test_uncoupled_solve_is_the_plain_step_bit_for_bit(self):
        # The uncoupled map is constant, so one undamped step lands on its
        # fixed point exactly and no mixing is ever computed.
        model, grid = lq_model(), Grid.with_cfl_steps(-6.0, 6.0, 61, 0.0, T)
        x0 = gaussian_quantile_cloud(16, 0.0, 1.0)
        pic = PicardSettings(max_iter=40, tol=1e-10, damping=1.0)
        states, momenta, history = plain_picard(model, x0, grid, pic, seed=3)
        flow = solve_mfgc(model, x0, grid, pic, seed=3)
        assert flow.picard_iterations == len(history) == 2
        assert flow.final_residual == history[-1] == 0.0
        assert np.array_equal(flow.states, states)
        assert np.array_equal(flow.momenta, momenta)


class TestValueAt:
    """V(t, ., mu): the terminal slice, a fresh solve on [t_k, T] and the
    re-solve whose fixed point ValueAccess.matrices differentiates."""

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
        k = grid.n_t // 2
        vf = resolve_field(model, flow, k, flow.states[k])
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

    def test_terminal_request_is_the_terminal_slice(self):
        # V_xx at level n_t is the curvature of g(., mu_T) at the atoms of mu_T.
        x = self.flow.states[-1]
        vf = terminal_field(self.model, x, self.grid.xs, T)
        want = np.interp(x, vf.xs, vf.u_xx[0])
        assert np.array_equal(self.access.field([self.grid.n_t]), want[None, :])

    def test_measure_derivative_runs_no_backward_sweep(self, monkeypatch):
        # M linearises around the value grid that the solve returned, the
        # grid that field reads, not around a sweep of its own.
        def no_sweep(*args):
            raise AssertionError("a backward sweep ran")

        monkeypatch.setattr(solver, "_backward_value", no_sweep)
        access = ValueAccess(self.model, self.flow)
        assert np.array_equal(access.matrices, self.access.matrices)

    def test_level_outside_the_flow_rejected(self):
        # A negative level is no alias from the end, and one past n_t no bare
        # IndexError, for the V_xx reader and the M eta reader alike, also
        # behind a valid level.
        etas = np.ones((1, 2, self.flow.n_particles))
        for k in (-1, self.grid.n_t + 1):
            with pytest.raises(SolverError, match=f"level {k} is outside"):
                self.access.field([0, k])
            with pytest.raises(SolverError, match=f"level {k} is outside"):
                value_measure_gradient(self.access, [0, k], etas)


def reference_linearisation(model, flow):
    """The tangent coefficients of the re-solve map, one row per level: the
    three-band backward step on the grid and the forward step at the atoms,
    as the value access stepped them level by level before it held the
    measure-derivative matrices, linearised around the flow's value grid."""
    grid = flow.grid
    xs, dx, dt = grid.xs, grid.dx, grid.dt
    states, momenta = flow.states, flow.momenta
    m1, m2 = _moments(states, fixed_point_phi(model, states, momenta))
    u = flow.value_field.u
    ux = _d1_rows(u, dx)
    m1, m2 = m1[:, None], m2[:, None]
    on_grid = hamiltonian_partials(model, xs, ux, m1, m2)
    at_atoms = hamiltonian_partials(model, states, momenta, m1, m2)
    hp = np.broadcast_to(on_grid.h_p, u.shape)
    lower = dt * (0.5 / dx**2 - hp / (2.0 * dx))
    upper = dt * (0.5 / dx**2 + hp / (2.0 * dx))
    diag = np.full(u.shape, 1.0 - dt / dx**2)
    lower[:, 0] = upper[:, -1] = 0.0
    upper[:, 0] = dt * hp[:, 0] / dx
    diag[:, 0] = 1.0 - upper[:, 0]
    lower[:, -1] = -dt * hp[:, -1] / dx
    diag[:, -1] = 1.0 - lower[:, -1]
    cell = np.clip(np.searchsorted(xs, states, side="right") - 1, 0, xs.size - 2)
    width = xs[cell + 1] - xs[cell]
    slope = (np.take_along_axis(ux, cell + 1, -1) - np.take_along_axis(ux, cell, -1)) / width
    grid_shape, atom_shape = u.shape, states.shape
    return SimpleNamespace(
        lower=lower, diag=diag, upper=upper,
        h_m1=np.broadcast_to(dt * on_grid.h_m1, grid_shape),
        h_m2=np.broadcast_to(dt * on_grid.h_m2, grid_shape),
        terminal=model.g.d_m1(xs, m1[-1, 0]),
        cell=cell, weight=(states - xs[cell]) / width, slope=slope,
        alpha=np.broadcast_to(1.0 + dt * (at_atoms.hp_x + at_atoms.hp_p * slope), atom_shape),
        hp_p=np.broadcast_to(dt * at_atoms.hp_p, atom_shape),
        hp_m1=np.broadcast_to(dt * at_atoms.hp_m1, atom_shape),
        hp_m2=np.broadcast_to(dt * at_atoms.hp_m2, atom_shape),
        m1=m1, e=momenta.mean(axis=-1, keepdims=True),
    )


def _cell_interp(fp, cell, weight):
    lo = np.take_along_axis(fp, cell, -1)
    return lo + weight * (np.take_along_axis(fp, cell + 1, -1) - lo)


def _tangent_backward(lin, k, dm1, dm2):
    """The tangent value grids of levels k..n_t, (levels, B, n_x), for the
    (levels, B) tangents of the moments: the terminal response, then one
    three-band step per level."""
    forcing = lin.h_m1[k:, None, :] * dm1[..., None] + lin.h_m2[k:, None, :] * dm2[..., None]
    du = np.empty(forcing.shape)
    du[-1] = lin.terminal * dm1[-1][:, None]
    for level in range(du.shape[0] - 2, -1, -1):
        src, row, out = k + level + 1, du[level + 1], du[level]
        np.multiply(lin.diag[src], row, out=out)
        out[:, 1:] += lin.lower[src, 1:] * row[:, :-1]
        out[:, :-1] += lin.upper[src, :-1] * row[:, 1:]
        out += forcing[level + 1]
    return du


# The linear sweeps of reference_tangent stop once a sweep moves du_x at
# the atoms by at most TANGENT_TOL relative to its largest entry.  Each
# contracts the distance to the fixed point by at most about 0.2 on the
# tests' flows, down to a round-off floor of about 2e-15.
TANGENT_TOL = 1e-13
MAX_TANGENT_SWEEPS = 100


def reference_tangent(model, flow, lin, k, etas):
    """The tangent of the equilibrium from level k: the tangents of undamped
    re-solve sweeps, each stepped level by level through the backward
    recurrence of the value grid and the forward recurrence of the states,
    iterated to their fixed point."""
    dx = flow.grid.dx
    states, momenta = flow.states[k:, None, :], flow.momenta[k:, None, :]
    cell, weight = lin.cell[k:, None, :], lin.weight[k:, None, :]
    levels = states.shape[0]
    d_states = np.broadcast_to(etas, (levels,) + etas.shape)
    d_momenta = np.zeros(d_states.shape)
    d_interp = None
    for _ in range(MAX_TANGENT_SWEEPS):
        dm1 = d_states.mean(axis=-1)
        dm2 = control_mean_tangent(
            model, lin.m1[k:], lin.e[k:], dm1, d_momenta.mean(axis=-1),
            (d_states * momenta + states * d_momenta).mean(axis=-1))
        du = _tangent_backward(lin, k, dm1, dm2)
        previous, d_interp = d_interp, _cell_interp(_d1_rows(du, dx), cell, weight)
        if previous is not None and (np.max(np.abs(d_interp - previous))
                                     <= TANGENT_TOL * np.max(np.abs(d_interp))):
            return d_interp[0]
        forcing = (lin.hp_p[k:, None, :] * d_interp
                   + lin.hp_m1[k:, None, :] * dm1[..., None]
                   + lin.hp_m2[k:, None, :] * dm2[..., None])
        d_x = np.empty(d_states.shape)
        d_x[0] = etas
        for level in range(levels - 1):
            np.multiply(lin.alpha[k + level], d_x[level], out=d_x[level + 1])
            d_x[level + 1] += forcing[level]
        d_states = d_x
        d_momenta = lin.slope[k:, None, :] * d_x + d_interp
    raise AssertionError(f"the tangent from level {k} did not settle in "
                         f"{MAX_TANGENT_SWEEPS} sweeps")


# Every coefficient nonzero, as in test_calculus's test_quadratic_mean_field.
GENERAL_MODEL = Model(b0=(1.0, 0.2, 0.1), f0=(0.1, 0.15, 0.1, 0.3), b1_x=(0.05, -0.1, 0.0, -0.01),
                      B=MeanPoly2((0.05, 0.1, 0.2, 0.1, -0.1, 0.05)),
                      f1_x=(0.0, 0.05, 0.2, 0.0, 0.01), q1=0.1, q2=-0.05,
                      g=QuadraticTerminalCost(xx=0.5, xm=0.2, x_lin=0.1, m2=0.3))


def held_bytes(access):
    """Bytes of the arrays an access holds apart from its model and flow,
    each buffer counted once at the array that owns it: a broadcast view
    costs the size of what it broadcasts."""
    held, todo = {}, [v for name, v in vars(access).items() if name not in ("model", "flow")]
    while todo:
        value = todo.pop()
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            held[id(value)] = value.nbytes
        elif isinstance(value, (list, tuple)):
            todo.extend(value)
        elif hasattr(value, "__dict__"):
            todo.extend(vars(value).values())
    return sum(held.values())


class TestTangentKernels:
    """The measure-derivative matrices of ValueAccess against the fixed point
    of the level-by-level tangent recurrences."""

    MODELS = pytest.mark.parametrize("model", [coupled_model(), GENERAL_MODEL],
                                     ids=["lq_coupled", "general"])

    @staticmethod
    def solved(model):
        grid = Grid.with_cfl_steps(-6.0, 6.0, 61, 0.0, T)
        return solve_mfgc(model, gaussian_quantile_cloud(16, 0.0, 1.0), grid,
                          PicardSettings(max_iter=200, tol=1e-10, damping=0.6), seed=7)

    @MODELS
    def test_matches_level_by_level_recurrence(self, model):
        # Every column of M[k]: the unit displacement of each atom.
        flow = self.solved(model)
        access = ValueAccess(model, flow)
        lin = reference_linearisation(model, flow)
        eye = np.eye(flow.n_particles)
        for k in range(flow.grid.n_t + 1):
            got = at_level(access, k, eye)
            want = reference_tangent(model, flow, lin, k, eye)
            gap = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert gap <= 1e-12, (k, gap)

    @MODELS
    def test_answer_does_not_depend_on_request_history(self, model):
        # The terminal level first, as the propagate gate asks, then every
        # level upward, a descending pass and a repeated level: each answer
        # equals a fresh access's bit for bit, each row the row asked alone,
        # and each level its slice of one request for every level.
        # GENERAL_MODEL's b0x != 0 weights the m2 channels by the base atoms.
        flow = self.solved(model)
        n_t = flow.grid.n_t
        access = ValueAccess(model, flow)
        lin = reference_linearisation(model, flow)
        batteries = np.stack([direction_battery(flow.states[k], 4, seed=k)[1:]
                              for k in range(n_t + 1)], axis=1)
        stacked = value_measure_gradient(access, range(n_t + 1), batteries)
        fresh = {}
        for k in [n_t, *range(n_t + 1), *range(n_t, -1, -1), 7, 7]:
            etas = batteries[:, k]
            got = at_level(access, k, etas)
            for row, eta in zip(got, etas):
                assert np.array_equal(row, at_level(access, k, eta[None, :])[0]), k
            if k not in fresh:
                fresh[k] = at_level(ValueAccess(model, flow), k, etas)
                want = reference_tangent(model, flow, lin, k, etas)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), k
            assert np.array_equal(got, fresh[k]), k
            assert np.array_equal(got, stacked[:, k]), k

    def test_access_holds_no_more_than_the_kernel_and_propagator(self):
        # The access holds the (levels, N, N) stack of its matrices and no
        # other array beside its model and flow.
        flow = self.solved(GENERAL_MODEL)
        access = ValueAccess(GENERAL_MODEL, flow)
        levels, n = flow.states.shape
        value_measure_gradient(access, [flow.grid.n_t, 0, 5], np.ones((1, 3, n)))
        access.field([flow.grid.n_t, 0, 5])
        assert held_bytes(access) <= 8 * levels * n * n

    @pytest.mark.parametrize("failure", ["singular", "non_finite"])
    def test_broken_level_is_a_solver_error_naming_it(self, monkeypatch, failure):
        # The third solve of the backward pass, at level n_t - 3, fails: as a
        # singular system, or with a non-finite solution that spreads to
        # every level below it.
        flow = self.solved(GENERAL_MODEL)
        solve, calls = np.linalg.solve, []

        def failing_solve(a, b):
            calls.append(None)
            if len(calls) != 3:
                return solve(a, b)
            if failure == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return np.full(b.shape, np.nan)

        monkeypatch.setattr(np.linalg, "solve", failing_solve)
        level = flow.grid.n_t - 3
        message = "singular" if failure == "singular" else "not finite"
        with pytest.raises(SolverError, match=f"{message} at level {level}$"):
            ValueAccess(GENERAL_MODEL, flow)

    def test_peak_memory_on_shipped_flow(self):
        # The ll_propagation.ini flow, 113 levels of 16 atoms on 121 grid
        # points: the dense 1.75 MB reader, the band and coefficient stacks
        # and the 231 KB of M, with one row's buffers for the pass.  It
        # peaks at 4.05 MB (numpy 2.4); the bound leaves 15 % headroom, less
        # than the 1.7 MB that one (N, n_x) buffer per level would hold.
        cfg = ExperimentConfig.from_ini(CONFIGS / "ll_propagation.ini")
        model = cfg.model()
        flow = solve_mfgc(model, cfg.initial_cloud(), cfg.grid(), cfg.picard(), seed=cfg.seed)
        solver._measure_derivative(model, flow)
        tracemalloc.start()
        try:
            solver._measure_derivative(model, flow)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4_650_000


def sweep_inputs(seed):
    """A small grid, per-level moments and a terminal cloud of 8 atoms for
    one backward sweep."""
    grid = Grid.with_cfl_steps(-3.0, 3.0, 41, 0.0, 0.25)
    rng = np.random.default_rng(seed)
    m1, m2 = rng.normal(0.0, 0.5, size=(2, grid.n_t + 1))
    return grid, m1, m2, rng.normal(0.0, 1.0, 8)


class TestLeanSweep:
    """The backward sweep and the forward push of ``_sweep`` against the
    level-by-level recurrences of ``reference_picard``."""

    @staticmethod
    def assert_sweeps_agree(model, seed, stable_only=False):
        # The folded constants and the difference form of the stencils
        # reorder the arithmetic: the grids agree up to round-off, and an
        # unstable sweep breaks down at the same level.
        grid, m1, m2, atoms = sweep_inputs(seed)
        args = (model, grid.xs, grid.dx, grid.dt, m1, m2, atoms)
        try:
            want = backward_value(*args)
        except SolverError as err:
            with pytest.raises(SolverError, match=str(err)):
                _backward_value(*args)
            return
        if stable_only:
            # Past the explicit scheme's stable range the round-off of any
            # order of the arithmetic grows with the values; a hundredfold
            # growth over the quarter time unit marks such a sweep.
            assume(np.max(np.abs(want)) <= 100.0 * max(1.0, np.max(np.abs(want[-1]))))
        got = _backward_value(*args)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("factory", PRESET_FACTORIES)
    def test_backward_sweep_matches_level_recurrence_on_presets(self, factory):
        self.assert_sweeps_agree(factory(), seed=3)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(model=random_models(), seed=st.integers(0, 2**32 - 1))
    def test_backward_sweep_matches_level_recurrence_on_random_models(self, model, seed):
        self.assert_sweeps_agree(model, seed, stable_only=True)

    @staticmethod
    def assert_pushes_agree(got, want):
        # The push writes the drift as affine in the momentum and adds its
        # mean part to the noise, which reorders the arithmetic of
        # ``hamiltonian_dp``: the states agree up to round-off, within the
        # bound of the backward sweep's recurrence test, and so do the
        # momenta, u_x read at those states.
        for got_rows, want_rows in zip(got, want):
            assert np.max(np.abs(got_rows - want_rows)) <= 1e-13 * np.max(np.abs(want_rows))

    @pytest.mark.parametrize("factory", PRESET_FACTORIES)
    def test_push_matches_level_recurrence_on_presets(self, factory):
        model, grid = factory(), Grid.with_cfl_steps(-6.0, 6.0, 61, 0.0, T)
        xs, dx, dt = grid.xs, grid.dx, grid.dt
        x0 = gaussian_quantile_cloud(16, 0.0, 1.0)
        brownian = np.random.default_rng(5).standard_normal((grid.n_t, x0.size))
        states = x0 + np.sqrt(dt) * np.vstack((np.zeros(x0.size), np.cumsum(brownian, axis=0)))
        momenta = 0.1 * states
        got_states, got_momenta, u = _sweep(model, x0, xs, dx, dt, brownian, states, momenta)
        m1, m2 = _moments(states, fixed_point_phi(model, states, momenta))
        want = forward_push(model, x0, xs, dx, dt, brownian, m1, m2, u)
        self.assert_pushes_agree((got_states, got_momenta), want)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(model=random_models(), seed=st.integers(0, 2**32 - 1))
    def test_push_matches_level_recurrence_on_random_models(self, model, seed):
        # Random models have nonzero f0x and b0x and a polynomial b1_x, so
        # the push forms every x-part of the drift that the presets skip.
        grid = Grid.with_cfl_steps(-6.0, 6.0, 61, 0.0, 0.1)
        xs, dx, dt = grid.xs, grid.dx, grid.dt
        x0 = gaussian_quantile_cloud(16, 0.0, 1.0)
        brownian = np.random.default_rng(seed).standard_normal((grid.n_t, x0.size))
        states = x0 + np.sqrt(dt) * np.vstack((np.zeros(x0.size), np.cumsum(brownian, axis=0)))
        momenta = 0.1 * states
        m1, m2 = _moments(states, fixed_point_phi(model, states, momenta))
        u = _backward_value(model, xs, dx, dt, m1, m2, states[-1])
        want = forward_push(model, x0, xs, dx, dt, brownian, m1, m2, u)
        # Over a tenth of a time unit no particle reaches the grid's edge.
        got_states, got_momenta, got_u = _sweep(model, x0, xs, dx, dt, brownian, states, momenta)
        assert np.array_equal(got_u, u)
        self.assert_pushes_agree((got_states, got_momenta), want)

    @pytest.mark.parametrize("name", ["ll_propagation", "lq_solve"])
    def test_backward_sweep_allocates_little_beside_the_value_grid(self, name):
        # The Hamiltonian terms of these models do not depend on both x and
        # the level, so nothing of the grid's size is allocated but u.
        cfg = ExperimentConfig.from_ini(CONFIGS / f"{name}.ini")
        grid, atoms = cfg.grid(), cfg.initial_cloud()
        m1 = np.full(grid.n_t + 1, atoms.mean())
        args = (cfg.model(), grid.xs, grid.dx, grid.dt, m1, 0.5 * m1, atoms)
        _backward_value(*args)
        tracemalloc.start()
        try:
            u = _backward_value(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= u.nbytes + 64 * 1024

    def test_solve_after_a_solve_on_another_grid_equals_a_fresh_solve(self):
        # Scratch buffers live in each call, so no solve or access sees
        # what a solve on another grid left behind.
        model, x0 = coupled_model(), gaussian_quantile_cloud(16, 0.0, 1.0)
        pic = PicardSettings(max_iter=120, tol=1e-9, damping=0.6)
        small = Grid.with_cfl_steps(-6.0, 6.0, 41, 0.0, T)
        etas = np.ones((1, x0.size))
        fresh = solve_mfgc(model, x0, small, pic, seed=7)
        fresh_tangent = at_level(ValueAccess(model, fresh), 3, etas)
        other = solve_mfgc(model, x0, Grid.with_cfl_steps(-5.0, 5.0, 61, 0.0, T), pic, seed=7)
        at_level(ValueAccess(model, other), 3, etas)
        again = solve_mfgc(model, x0, small, pic, seed=7)
        for name in ("states", "momenta", "controls"):
            assert np.array_equal(getattr(again, name), getattr(fresh, name)), name
        assert np.array_equal(again.value_field.u, fresh.value_field.u)
        assert np.array_equal(at_level(ValueAccess(model, again), 3, etas), fresh_tangent)


def best_response_gap(model, flow):
    """Sup-norm gap between the stored value grid and a re-solve against the
    frozen converged control laws; certifies the equilibrium property."""
    grid = flow.grid
    m1, m2 = _moments(flow.states, flow.controls)
    u2 = _backward_value(model, grid.xs, grid.dx, grid.dt, m1, m2, flow.states[-1])
    return float(np.max(np.abs(u2 - flow.value_field.u)))


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
        pic = PicardSettings(max_iter=80, tol=1e-9, damping=0.5)
        with pytest.raises(SolverError):
            solve_mfgc(model, gaussian_quantile_cloud(16, 5.95, 0.01), grid, pic, seed=0)
        with pytest.raises(SolverError):
            solve_mfgc(model, np.array([0.0, np.nan]), grid, pic, seed=0)

    def test_initial_cloud_must_be_one_dimensional(self):
        model = lq_model()
        grid = Grid.with_cfl_steps(-6.0, 6.0, 61, 0.0, T)
        with pytest.raises(SolverError, match="1-D"):
            solve_mfgc(model, gaussian_quantile_cloud(16)[:, None], grid,
                       PicardSettings(max_iter=80, tol=1e-9, damping=0.5), seed=0)

    def test_unstable_value_sweep_is_a_solver_error(self):
        # A steep drift and curvature overflow the explicit sweep: the typed
        # error names the level, with no floating-point warning on the way.
        model = Model(b1_x=(0, 40), f1_x=(0, 0, 30), g=QuadraticTerminalCost(xx=50))
        grid = Grid.with_cfl_steps(-3.0, 3.0, 31, 0.0, 0.5)
        with pytest.raises(SolverError, match="non-finite values at level 16"):
            solve_mfgc(model, np.linspace(-0.5, 0.5, 8), grid,
                       PicardSettings(max_iter=3, tol=1e-9, damping=0.5), seed=0)

    def test_escaping_particles_reported(self):
        # A steep terminal slope drives the optimal drift far beyond the box.
        model = Model(b0=(1, 0, 0), g=QuadraticTerminalCost(x_lin=40.0))
        grid = Grid.with_cfl_steps(-6.0, 6.0, 61, 0.0, T)
        with pytest.raises(SolverError, match="escaped"):
            solve_mfgc(model, gaussian_quantile_cloud(16, 0.0, 1.0), grid,
                       PicardSettings(max_iter=10, tol=1e-9, damping=1.0), seed=1)


    def test_non_finite_push_is_an_escape(self, monkeypatch):
        # Against a flat value the momenta vanish, and B0^2 = inf makes the
        # drift's slope times the momentum -inf * 0 = nan: a nan state is
        # outside the grid, not a state that passes the escape check.
        grid = Grid.with_cfl_steps(-3.0, 3.0, 31, 0.0, 0.2)
        flat = lambda model, xs, dx, dt, m1, m2, atoms: np.zeros((m1.size, xs.size))
        monkeypatch.setattr(solver, "_backward_value", flat)
        x0 = np.linspace(-0.5, 0.5, 8)
        states = np.tile(x0, (grid.n_t + 1, 1))
        with pytest.raises(SolverError, match="escaped the grid at level 1;"):
            _sweep(Model(b0=(1e160, 0, 0)), x0, grid.xs, grid.dx, grid.dt,
                   np.zeros((grid.n_t, x0.size)), states, np.zeros_like(states))


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
