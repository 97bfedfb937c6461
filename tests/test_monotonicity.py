import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgclab.calculus import CalculusError
from mfgclab.measures import gaussian_quantile_cloud
from mfgclab.models import MeanPoly2, Model, QuadraticTerminalCost
from mfgclab.monotonicity import (
    LambdaVec,
    MonotonicityError,
    direction_battery,
    mon_disp,
    monotonicity_sweep,
    tolerance_scale,
)
from mfgclab.propagation import AntiMonotone, Displacement, LasryLions, PropagationConfig
from mfgclab.solver import Grid, PicardSettings, ValueAccess, solve_mfgc, terminal_field


LL = LasryLions()


def cloud(xs):
    return np.asarray(xs, dtype=float)


def anti(lvec):
    """The anti kind with the weights lvec and the shipped [anti] constants."""
    return AntiMonotone(lvec, l0=10.5, gamma_lo=0.5, gamma_hi=2.0, l_bar=1.0, lu_xx=1.0)


class TerminalAccess:
    """Access object of one level, 0, at the cloud x, with the terminal cost
    itself as its value slice: its field is g_xx on the grid xs read at the
    atoms, and its (1, N, N) stack of matrices the exact derivative
    D_i = xm mean(eta) of g_x, every entry xm / N."""

    def __init__(self, terminal: QuadraticTerminalCost, x, xs=None):
        self.terminal = terminal
        self.model = Model(g=terminal)
        self.x = cloud(x)
        self.xs = np.linspace(-8.0, 8.0, 321) if xs is None else xs
        n = self.x.size
        self.matrices = np.full((1, n, n), terminal.xm / n)

    def field(self, levels):
        vf = terminal_field(self.model, self.x, self.xs, 1.0)
        return np.tile(np.interp(self.x, vf.xs, vf.u_xx[0]), (len(levels), 1))


def terminal(access, etas, kind):
    """The kind's functional of the (B, N) stack etas at the access's one
    level: one value per direction."""
    return mon_disp(access, [0], np.asarray(etas)[:, None], kind)[:, 0]


class TestMonLLTerminal:
    def test_bilinear_terminal_cost(self):
        # g = a x^2 / 2 + b x E[xi]: the form equals b * mean(eta)^2.
        mu = cloud([0.4, -0.3, 1.1, 0.2])
        access = TerminalAccess(QuadraticTerminalCost(xx=1.0, xm=1.0), mu)
        assert terminal(access, np.ones((1, 4)), LL) == pytest.approx([1.0], abs=1e-6)

    def test_mean_free_direction_vanishes(self):
        mu = cloud([0.4, -0.3, 1.1, 0.2])
        access = TerminalAccess(QuadraticTerminalCost(xx=1.0, xm=1.0), mu)
        eta = np.array([1.0, -1.0, 0.5, -0.5])
        value = terminal(access, (eta - eta.mean())[None, :], LL)
        assert value == pytest.approx([0.0], abs=1e-8)

    def test_quadratic_scaling_in_eta(self):
        mu = cloud([0.0, 0.5, -0.5, 1.0])
        access = TerminalAccess(QuadraticTerminalCost(xm=0.7), mu)
        eta = np.array([1.0, 0.4, -0.2, 0.8])
        base, scaled = terminal(access, np.array([eta, 3.0 * eta]), LL)
        assert scaled == pytest.approx(9.0 * base, rel=2e-4, abs=2e-6)

    def test_direction_mismatch_rejected(self):
        mu = cloud([0.0, 1.0])
        access = TerminalAccess(QuadraticTerminalCost(xm=1.0), mu)
        with pytest.raises(CalculusError, match="direction"):
            mon_disp(access, [0], np.ones((1, 1, 3)), LL)


class TestMonDispTerminal:
    def test_exact_cancellation(self):
        # a = -1, b = 0, lambda = 1: the two quadratic terms cancel.
        mu = cloud([0.3, -0.2, 0.9, 0.0])
        access = TerminalAccess(QuadraticTerminalCost(xx=-1.0), mu)
        eta = np.array([0.5, -1.0, 0.25, 0.75])
        (value,) = terminal(access, eta[None, :], Displacement(1.0))
        assert value == pytest.approx(0.0, abs=1e-7)

    def test_marginal_displacement_monotone(self):
        # a = 1, b = -1, eta = 1, lambda = 0: b mean(eta)^2 + a mean(eta^2) = 0.
        mu = cloud([0.1, 0.6, -0.4, 0.2])
        access = TerminalAccess(QuadraticTerminalCost(xx=1.0, xm=-1.0), mu)
        (value,) = terminal(access, np.ones((1, 4)), Displacement(0.0))
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_additive_in_lambda_exactly(self):
        mu = cloud([0.0, 1.0, -1.0, 0.5])
        access = TerminalAccess(QuadraticTerminalCost(xx=0.5, xm=0.2), mu)
        eta = np.array([1.0, -0.5, 0.25, 0.0])
        (v0,) = terminal(access, eta[None, :], Displacement(0.0))
        for lam in (0.5, 1.0, 2.0):
            expected = v0 + lam * np.mean(eta**2)
            (value,) = terminal(access, eta[None, :], Displacement(lam))
            assert value == pytest.approx(expected, abs=1e-12)

    def test_nonnegative_lambda_required(self):
        with pytest.raises(MonotonicityError):
            Displacement(lam=-0.1)


class TestMonAntiTerminal:
    def test_pure_concave_terminal(self):
        # g = a x^2 / 2 with a = -1/2 and weights (1, 0, 1, 0):
        # value = (a + a^2) mean(eta^2) = -mean(eta^2)/4.
        mu = cloud([0.2, -0.7, 0.5, 1.0])
        access = TerminalAccess(QuadraticTerminalCost(xx=-0.5), mu)
        eta = np.array([1.0, 0.5, -0.5, 2.0])
        (value,) = terminal(access, eta[None, :], anti(LambdaVec(1, 0, 1, 0)))
        assert value == pytest.approx(-0.25 * np.mean(eta**2), abs=1e-6)

    def test_zero_direction(self):
        mu = cloud([0.0, 1.0, 2.0])
        access = TerminalAccess(QuadraticTerminalCost(xx=-0.5, xm=0.3), mu)
        (value,) = terminal(access, np.zeros((1, 3)), anti(LambdaVec(1, 1, 1, 0)))
        assert value == 0.0

    def test_large_l3_dominates(self):
        mu = cloud([0.3, -0.3, 0.8])
        access = TerminalAccess(QuadraticTerminalCost(xx=1.0, xm=0.5), mu)
        eta = np.array([1.0, 1.0, -0.5])
        (value,) = terminal(access, eta[None, :], anti(LambdaVec(1, 1, 1, 50)))
        assert value < 0.0

    def test_lambda_vec_validation(self):
        with pytest.raises(MonotonicityError):
            LambdaVec(0.0, 0.0, 1.0, 0.0)
        with pytest.raises(MonotonicityError):
            LambdaVec(1.0, 0.0, 1.0, -1.0)


class MatrixAccess:
    """Access double of a stack of levels that holds a given (levels, N, N)
    stack of measure-derivative matrices and the (levels, N) rows of V_xx at
    each level's atoms."""

    def __init__(self, matrices, vxx):
        self.matrices, self.vxx = matrices, vxx

    def field(self, levels):
        return self.vxx[levels]


class TestMonDispProperties:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.tuples(*(st.integers(1, 4),) * 2),
           n=st.integers(1, 10), c=st.floats(0.01, 100.0), lam=st.floats(0.0, 2.0))
    def test_quadratic_even_and_exchangeable(self, seed, shape, n, c, lam):
        # Each kind's functional is a quadratic form in eta per (direction,
        # level) for any M and V_xx: scaling eta by c scales it by c^2, and a
        # sign flip leaves it bit-identical.  Relabelling the atoms (eta by
        # P, M as P M P^T, V_xx by P) leaves it unchanged up to round-off.
        rng = np.random.default_rng(seed)
        directions, levels = shape
        access = MatrixAccess(rng.normal(size=(levels, n, n)), rng.normal(size=(levels, n)))
        order = rng.permutation(levels)
        etas = rng.normal(size=(directions, levels, n))
        perm = rng.permutation(n)
        relabelled = MatrixAccess(access.matrices[:, perm][..., perm], access.vxx[:, perm])
        for kind in (LL, Displacement(lam), anti(LambdaVec(1.0, -0.5, 2.0, 0.5))):
            base = mon_disp(access, order, etas, kind)
            scale = max(1.0, np.abs(base).max())
            assert base.shape == shape
            assert np.array_equal(mon_disp(access, order, -etas, kind), base), kind.name
            assert np.allclose(mon_disp(access, order, c * etas, kind), c**2 * base,
                               rtol=0, atol=1e-12 * c**2 * scale), kind.name
            assert np.allclose(mon_disp(relabelled, order, etas[..., perm], kind), base,
                               rtol=0, atol=1e-12 * scale), kind.name


def mon_ll_difference_form(access, cloud2):
    """Four-value cross difference between the access's cloud and cloud2.

    The clouds are coupled by index (same index = same sample); the value is
    the empirical mean of
    V(T, x1_i, mu1) + V(T, x2_i, mu2) - V(T, x1_i, mu2) - V(T, x2_i, mu1),
    a cross-check of the Lasry-Lions functional that needs no measure
    differencing.
    """
    x1, x2 = access.x, cloud2
    f1, f2 = (terminal_field(access.model, x, access.xs, 1.0) for x in (x1, x2))

    def v(fld, x):
        return np.interp(x, fld.xs, fld.u[0])

    return float(np.mean(v(f1, x1) + v(f2, x2) - v(f2, x1) - v(f1, x2)))


class TestDifferenceForm:
    def test_identical_clouds_give_zero(self):
        mu = cloud([0.3, -0.2, 0.7])
        access = TerminalAccess(QuadraticTerminalCost(xx=1.0, xm=0.5), mu)
        assert mon_ll_difference_form(access, mu) == 0.0

    def test_bilinear_terminal_closed_form(self):
        # g = b x E[xi]: the cross difference equals b (mean(x1) - mean(x2))^2.
        b = 0.8
        mu1 = cloud([0.5, -0.1, 0.9, 0.3])
        mu2 = cloud([0.1, 0.2, -0.4, 0.0])
        value = mon_ll_difference_form(TerminalAccess(QuadraticTerminalCost(xm=b), mu1), mu2)
        expected = b * (np.mean(mu1) - np.mean(mu2)) ** 2
        assert value == pytest.approx(expected, abs=1e-12)

    def test_second_order_taylor_matches_mon_ll(self):
        mu1 = cloud([0.4, -0.3, 1.0, 0.1])
        access = TerminalAccess(QuadraticTerminalCost(xx=0.5, xm=0.6), mu1)
        eta = np.array([1.0, 0.5, -0.25, 0.75])
        eps = 0.05
        diff = mon_ll_difference_form(access, mu1 + eps * eta)
        (perturbative,) = terminal(access, eta[None, :], LL)
        assert diff == pytest.approx(eps**2 * perturbative, rel=0.2, abs=1e-9)


class TestBattery:
    def test_battery_is_normalised_and_deterministic(self):
        mu = cloud(np.linspace(-1.0, 2.0, 8))
        batt1 = direction_battery(mu, 12, seed=3)
        batt2 = direction_battery(mu, 12, seed=3)
        assert len(batt1) == 12
        for d1, d2 in zip(batt1, batt2):
            assert d1.shape == (8,)
            assert np.array_equal(d1, d2)
            assert np.sqrt(np.mean(d1**2)) == pytest.approx(1.0)

    def test_battery_contains_sign_pairs_and_mean_free(self):
        mu = cloud(np.linspace(-1.0, 2.0, 8))
        batt = direction_battery(mu, 12, seed=0)
        assert np.array_equal(batt[0], -batt[1])
        assert abs(batt[2].mean()) <= 1e-12  # noise direction is mean-free

    def test_degenerate_cloud_still_fills_battery(self):
        mu = cloud(np.zeros(6))  # powers of x all vanish
        batt = direction_battery(mu, 12, seed=1)
        assert len(batt) == 12

    def test_fresh_noise_pairs_fill_any_count(self):
        # 16 atoms give 8 shape pairs; 12 fresh mean-free pairs from the same
        # generator fill 40 rows, and the first 32 are those of a 32-row battery.
        mu = gaussian_quantile_cloud(16, 0.0, 1.0)
        batt = np.array(direction_battery(mu, 40, seed=7))
        rng = np.random.default_rng(7)
        noise = rng.standard_normal(16)
        shapes = [np.ones(16), noise - noise.mean()]
        for degree in (1, 2, 3):
            shapes += [mu**degree, mu**degree - np.mean(mu**degree)]
        for _ in range(12):
            fresh = rng.standard_normal(16)
            shapes.append(fresh - fresh.mean())
        want = [sign * s / np.sqrt(np.mean(s**2)) for s in shapes for sign in (1.0, -1.0)]
        assert batt.shape == (40, 16)
        assert np.array_equal(batt, np.array(want))
        assert np.allclose(np.sqrt(np.mean(batt**2, axis=1)), 1.0, rtol=0.0, atol=1e-14)
        assert np.array_equal(batt[:32], np.array(direction_battery(mu, 32, seed=7)))


class TestSweepWithSolver:
    def test_ll_sweep_on_monotone_terminal(self):
        model = Model(  # the ll_example preset with c1 = 0.5, c2 = 0.05, c3 = 0.1
            b0=(1, 0, 0), f0=(0, 0, 0, 0.5), B=MeanPoly2((0, 0, 0.75)),
            f1_x=(0.0, 0.0, 0.125), q1=0.05, q2=0.1,
            g=QuadraticTerminalCost(xx=0.25, xm=0.1),
        )
        grid = Grid.with_cfl_steps(-6.0, 6.0, 61, 0.0, 0.25)
        pic = PicardSettings(max_iter=150, tol=1e-9, damping=0.6)
        flow = solve_mfgc(model, gaussian_quantile_cloud(16, 0.0, 1.0), grid, pic, seed=7)
        access = ValueAccess(model, flow)
        config = PropagationConfig(kind=LL, n_directions=6, tol_c=0.2, gate_samples=0,
                                   gate_atoms=0, seed=0, enforce_gate=False)
        report = monotonicity_sweep(access, config, slices=3)
        tol = tolerance_scale(grid.dt, grid.dx, 16, c=0.2)
        assert report.tolerance == tol
        assert report.verdict, (report.minimum, tol)
        assert report.minimum >= -tol
        terminal_vals = [s["value"] for s in report.samples if s["level"] == grid.n_t]
        assert min(terminal_vals) >= -1e-8  # exact nonnegativity at t = T
