import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_resolve import resolve_field, ux_at

from mfgclab.calculus import CalculusError, chain_rule_check, value_measure_gradient
from mfgclab.measures import gaussian_quantile_cloud
from mfgclab.models import MeanPoly2, Model, QuadraticTerminalCost
from mfgclab.monotonicity import direction_battery
from mfgclab.solver import Grid, PicardSettings, ValueAccess, solve_mfgc

# Relative gap of the eps = 1e-4 central difference to the tangent on the
# general model of test_quadratic_mean_field: measured 1.1e-10, and 2.3e-11
# to 1.8e-10 at other levels.  Smaller steps lose to round-off (1.3e-9 at
# eps = 1e-6), larger ones to atoms that cross a grid node of the
# interpolation (6.8e-6 at eps = 1e-3).
GENERAL_MODEL_GAP = 1e-9


def ll_flow(model):
    """A converged flow of the model on a small grid, and its value access."""
    grid = Grid.with_cfl_steps(-6.0, 6.0, 61, 0.0, 0.5)
    flow = solve_mfgc(model, gaussian_quantile_cloud(16, 0.0, 1.0), grid,
                      PicardSettings(max_iter=200, tol=1e-10, damping=0.6), seed=7)
    return grid, flow, ValueAccess(model, flow)


# The ll_example preset with c1 = 0.5, c2 = 0.05, c3 = 0.1: linear-quadratic.
LQ_COUPLED = Model(b0=(1, 0, 0), f0=(0, 0, 0, 0.5), B=MeanPoly2((0, 0, 0.75)),
                   q1=0.05, q2=0.1, g=QuadraticTerminalCost(xx=0.5, xm=0.1))


@pytest.fixture(scope="module")
def lq_coupled():
    return ll_flow(LQ_COUPLED)


def central_difference(model, flow, k, etas, eps):
    """The oracle: central difference of the re-solved u_x at the base atoms
    x of level k between the clouds x +/- eps eta, one row per direction."""
    x = flow.states[k]

    def ux(cloud):
        return ux_at(resolve_field(model, flow, k, cloud), 0, x)

    return np.array([(ux(x + eps * eta) - ux(x - eps * eta)) / (2.0 * eps) for eta in etas])


def at_level(access, k, etas):
    """The measure derivatives of the (B, N) stack etas at level k alone."""
    return value_measure_gradient(access, [k], etas[:, None])[:, 0]


def relative_gap(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestValueMeasureGradient:
    def test_matches_central_difference_at_every_level(self, lq_coupled):
        # Every level in one request, each with its own battery.
        grid, flow, access = lq_coupled
        levels = range(grid.n_t + 1)
        etas = np.stack([direction_battery(flow.states[k], 4, seed=k) for k in levels], axis=1)
        got = value_measure_gradient(access, levels, etas)
        assert got.shape == etas.shape
        for k in levels:
            want = central_difference(LQ_COUPLED, flow, k, etas[:, k], 1e-3)
            assert relative_gap(got[:, k], want) <= 1e-8, k

    def test_linear_mean_field(self, lq_coupled):
        # V(T, x, mu) = g has the term xm x E[xi], so D = xm mean(eta) at T.
        grid, flow, access = lq_coupled
        etas = np.random.default_rng(3).normal(size=(3, flow.n_particles))
        got = at_level(access, grid.n_t, etas)
        assert got.shape == (3, flow.n_particles)
        want = LQ_COUPLED.g.xm * etas.mean(axis=1, keepdims=True)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    def test_no_measure_dependence(self):
        # Uncoupled LQ: nothing depends on the law, so D vanishes exactly.
        grid, flow, access = ll_flow(Model(b0=(1, 0, 0), g=QuadraticTerminalCost(xx=1.0)))
        etas = np.random.default_rng(4).normal(size=(2, 3, 16))
        got = value_measure_gradient(access, [0, grid.n_t // 2, grid.n_t], etas)
        assert np.array_equal(got, np.zeros((2, 3, 16)))

    def test_quadratic_mean_field(self):
        # Every coefficient nonzero: a mean drift B quadratic in (m1, m2),
        # b0x, f0x, a cubic b1_x and a quartic f1_x.  The central difference
        # of the converged re-solve converges onto the tangent as eps
        # shrinks, down to its round-off.
        model = Model(b0=(1.0, 0.2, 0.1), f0=(0.1, 0.15, 0.1, 0.3), b1_x=(0.05, -0.1, 0.0, -0.01),
                      B=MeanPoly2((0.05, 0.1, 0.2, 0.1, -0.1, 0.05)),
                      f1_x=(0.0, 0.05, 0.2, 0.0, 0.01), q1=0.1, q2=-0.05,
                      g=QuadraticTerminalCost(xx=0.5, xm=0.2, x_lin=0.1, m2=0.3))
        grid, flow, access = ll_flow(model)
        k = grid.n_t // 3
        etas = np.array(direction_battery(flow.states[k], 4))
        got = at_level(access, k, etas)
        gaps = [relative_gap(got, central_difference(model, flow, k, etas, eps))
                for eps in (1e-2, 1e-3, 1e-4)]
        assert gaps[0] > gaps[1] > gaps[2], gaps
        assert gaps[2] <= GENERAL_MODEL_GAP, gaps

    def test_linearity_in_direction(self, lq_coupled):
        grid, flow, access = lq_coupled
        k = grid.n_t // 2
        e1, e2 = np.random.default_rng(12).normal(size=(2, flow.n_particles))
        g1, g2, g12 = at_level(access, k, np.array([e1, e2, 0.5 * e1 - 2.0 * e2]))
        assert np.allclose(g12, 0.5 * g1 - 2.0 * g2, rtol=0.0, atol=1e-12)

    def test_sign_pair_and_zero_row_in_one_request(self, lq_coupled):
        grid, flow, access = lq_coupled
        k = grid.n_t // 4
        eta = np.random.default_rng(5).normal(size=flow.n_particles)
        got = at_level(access, k, np.array([eta, -eta, 0.0 * eta]))
        (single,) = at_level(access, k, eta[None, :])
        assert np.array_equal(got[0], single)
        assert np.array_equal(got[1], -single)
        assert np.array_equal(got[2], np.zeros(flow.n_particles))

    def test_direction_stack_must_match_cloud(self, lq_coupled):
        grid, flow, access = lq_coupled
        n = flow.n_particles
        # One level asked: no level axis, too many atoms, two levels' rows.
        for bad in (np.ones((1, n)), np.ones((1, 1, n + 1)), np.ones((1, 2, n))):
            with pytest.raises(CalculusError, match="direction"):
                value_measure_gradient(access, [0], bad)


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

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(model=random_models(), seed=st.integers(0, 2**32 - 1), laws=st.integers(1, 5),
           atoms=st.integers(1, 12))
    def test_stacked_laws_match_one_law_at_a_time(self, model, seed, laws, atoms):
        x, p = np.random.default_rng(seed).normal(size=(2, laws, atoms))
        errors, scale = chain_rule_check(model, x, p)
        assert scale.shape == (laws,)
        for k in range(laws):
            one, one_scale = chain_rule_check(model, x[k], p[k])
            assert scale[k] == one_scale
            assert {name: error[k] for name, error in errors.items()} == one

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
