"""Equilibrium solver for the coupled mean-field system.

Picard iteration on the particle flow: given a flow of (state, momentum)
laws, apply the control-law fixed point at every step, solve the value
function backward on a grid (explicit Euler, central differences,
linear-extrapolation boundary), push particles forward through the
Euler-Maruyama scheme with the optimal drift, and mix the proposal with the
last iterates (Anderson acceleration).  Brownian increments are drawn once
per solve and reused across sweeps, which turns each sweep into a
deterministic map of the flow and makes the Picard residual meaningful.  The
model sees each level's control law through its two means, so a sweep passes
the per-level moments (m1, m2).  A state law is a uniform cloud given by its
1-D array of atoms.

One sweep is the Picard map ``_sweep`` of one flow.  A sweep computes the
parts of the Hamiltonian that depend on each level's moments once, for all
levels (``models.mean_terms``), and the backward sweep also their
x-dependent parts on the grid (``models.hamiltonian_terms``) before it
starts.  ``solve_mfgc`` iterates the map, Anderson-mixed, to tolerance.
The mixing keeps ANDERSON_DEPTH = 8 differences, which holds every
difference a shipped ll solve forms (they converge within nine sweeps, so
they store at most seven).  At depth 5 the iterate of sweep 8 is the first
mixed without the oldest difference, and its residual stalls (2.4e-9, then
9.7e-10 on ``ll_propagation.ini``) where depth 8 converges at that sweep.
That cost every shipped ll solve one sweep, and the stiff c1 -> 1 solves of
``ll_example`` up to a third of theirs (67 sweeps at c1 = 0.998, against 46).

The per-level loops (the backward sweep, the forward push and the pass
that builds M) are bound by numpy's per-call cost, not by arithmetic, so a
level costs a fixed handful of calls and nothing else: the ufuncs are
bound to local names before the loop and write positionally into buffers
allocated once per call, and each level's rows, stencils and shifted rows
are views that the loop iterates together, built once rather than indexed
at each level.  A per-level coefficient with no x-part enters as a Python
float, which a ufunc takes at less cost than a one-entry row.  None of
this changes an operation or its order.  The time step and the stencils'
scales are folded into the Hamiltonian's terms before the loop.  No buffer
outlives its call.  Both Picard loops write the Hamiltonian in the form
that needs the fewest calls per level, which rounds differently from the
closed forms of ``models``.  The backward sweep expands the square of the
control, so that its p-free part joins the terms filled in before the loop
(eleven ufunc calls a level).  The push writes the optimal drift as affine
in the momentum, with the level's slope a Python float and its offset
added to the noise of all levels at once, and forms x-parts only for a
model that has them, so a level costs the interpolation of u_x at the
particles and three in-place updates.  ``np.interp`` is its floor, about
half of it the Python wrapper around the compiled kernel: a level
interpolates at the states the level before it produced, so the levels
cannot share one call.

``ValueAccess`` reads V_xx of the solved flow at the clouds of a stack of
levels, and holds the measure derivative of the value gradient along
displacements of each level's cloud: the (levels, N, N) stack M, M[k] the
exact derivative of the discrete equilibrium's u_x at level k's atoms with
respect to those atoms, built once in one backward pass over the levels
(``_measure_derivative``), with every coefficient the pass does not carry
built before it as a stack over the levels.  ``field`` and the pass read
the one value grid that the solve returned: the pass linearises around it
and runs no backward sweep of its own.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .models import (
    Model,
    _coeffs,
    _poly,
    control_mean_tangent,
    fixed_point_phi,
    hamiltonian_partials,
    hamiltonian_terms,
    mean_terms,
)
from .reports import write_csv

CFL_SAFETY = 0.45
ANDERSON_DEPTH = 8


class SolverError(RuntimeError):
    pass


class PicardError(SolverError):
    """Picard iteration failed to reach tolerance; carries the residual history."""

    def __init__(self, message: str, residual_history: list):
        super().__init__(message)
        self.residual_history = list(residual_history)


def _check_bounds(x_min: float, x_max: float, t0: float, t_end: float) -> None:
    if not np.all(np.isfinite((x_min, x_max, t0, t_end))):
        raise SolverError(f"grid bounds must be finite, got x in [{x_min}, {x_max}] "
                          f"and t in [{t0}, {t_end}]")
    if not x_min < x_max:
        raise SolverError(f"need x_min < x_max, got [{x_min}, {x_max}]")
    if not t0 < t_end:
        raise SolverError(f"need t0 < t_end, got [{t0}, {t_end}]")


@dataclass(frozen=True)
class Grid:
    """Space-time grid for one solve; time step limited by diffusion stability."""

    x_min: float
    x_max: float
    n_x: int
    t0: float
    t_end: float
    n_t: int

    def __post_init__(self):
        _check_bounds(self.x_min, self.x_max, self.t0, self.t_end)
        if self.n_x < 16:
            raise SolverError(f"n_x must be at least 16, got {self.n_x}")
        if self.n_t < 8:
            raise SolverError(f"n_t must be at least 8, got {self.n_t}")
        limit = CFL_SAFETY * self.dx**2
        if self.dt > limit * (1 + 1e-12):
            raise SolverError(
                f"CFL violation: dt = {self.dt:.3e} exceeds {CFL_SAFETY} dx^2 = "
                f"{limit:.3e}; increase n_t to at least "
                f"{self.cfl_steps(self.x_min, self.x_max, self.n_x, self.t0, self.t_end)}"
            )

    @staticmethod
    def cfl_steps(x_min: float, x_max: float, n_x: int, t0: float, t_end: float) -> int:
        _check_bounds(x_min, x_max, t0, t_end)
        dx = (x_max - x_min) / (n_x - 1)
        return max(8, int(np.ceil((t_end - t0) / (CFL_SAFETY * dx**2))))

    @classmethod
    def with_cfl_steps(cls, x_min: float, x_max: float, n_x: int, t0: float,
                       t_end: float) -> "Grid":
        return cls(x_min, x_max, n_x, t0, t_end,
                   cls.cfl_steps(x_min, x_max, n_x, t0, t_end))

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def dt(self) -> float:
        return (self.t_end - self.t0) / self.n_t

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    @property
    def ts(self) -> np.ndarray:
        return np.linspace(self.t0, self.t_end, self.n_t + 1)


def _d1_rows(u: np.ndarray, dx: float) -> np.ndarray:
    """Central first differences along the space axis, one-sided at the edges."""
    ux = np.empty_like(u)
    ux[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * dx)
    ux[..., 0] = (u[..., 1] - u[..., 0]) / dx
    ux[..., -1] = (u[..., -1] - u[..., -2]) / dx
    return ux


def _d2_rows(u: np.ndarray, dx: float) -> np.ndarray:
    """Central second differences; zero at the edges (linear-extrapolation
    ghost)."""
    uxx = np.empty_like(u)
    uxx[..., 1:-1] = (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) / dx**2
    uxx[..., 0] = uxx[..., -1] = 0.0
    return uxx


@dataclass
class ValueField:
    """Grid values of V(t, x, mu_t) along one solve and their second differences."""

    u: np.ndarray   # (levels, n_x)
    xs: np.ndarray
    ts: np.ndarray

    def __post_init__(self):
        self.u = np.atleast_2d(np.asarray(self.u, dtype=float))
        self.xs = np.asarray(self.xs, dtype=float)
        self.ts = np.atleast_1d(np.asarray(self.ts, dtype=float))
        if self.u.shape != (self.ts.size, self.xs.size):
            raise SolverError(f"value array shape {self.u.shape} does not match grid")

    @cached_property
    def u_xx(self) -> np.ndarray:
        """Second differences of u along x, computed on first read: a solve
        alone never reads them."""
        return _d2_rows(self.u, self.xs[1] - self.xs[0])


@dataclass
class PicardSettings:
    """Stopping rule and mixing weight of ``solve_mfgc``.

    ``damping`` is the weight omega of each new proposal in the Anderson
    step (with one sweep stored, the plain damped step omega prop + (1 -
    omega) x); the mixing depth is the module constant ANDERSON_DEPTH.  No
    field has a default: ``ExperimentConfig.picard`` holds them.
    """

    max_iter: int
    damping: float
    tol: float

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise SolverError(f"damping must lie in (0, 1], got {self.damping}")
        if not 0.0 < self.tol < np.inf:
            raise SolverError(f"tol must be finite and positive, got {self.tol}")
        if self.max_iter < 1:
            raise SolverError("max_iter must be positive")


@dataclass
class EquilibriumFlow:
    """Converged equilibrium flow and its value field."""

    grid: Grid
    states: np.ndarray    # (levels, n)
    momenta: np.ndarray   # (levels, n): dV/dx(t_k, X_k)
    controls: np.ndarray  # (levels, n): controls of Phi(rho_k), the fixed point
    value_field: ValueField
    residual_history: list  # the W2 residual of each Picard sweep
    brownian: np.ndarray  # (levels - 1, n) unit normal increments
    seed: int

    @property
    def n_particles(self) -> int:
        return self.states.shape[1]

    @property
    def picard_iterations(self) -> int:
        return len(self.residual_history)

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1]

    def to_csv(self, path) -> None:
        """One row per (time step, particle): t, index, state, control, u_x.
        Each level's t and each particle index is formatted once."""
        n = self.n_particles
        times = [text for t in self.value_field.ts.tolist() for text in [str(t)] * n]
        write_csv(path, ("t", "particle", "state", "control", "u_x"),
                  (times, [str(i) for i in range(n)] * self.states.shape[0],
                   self.states.ravel().tolist(), self.controls.ravel().tolist(),
                   self.momenta.ravel().tolist()))

    def run_metadata(self) -> dict:
        return {
            "picard_iterations": self.picard_iterations,
            "final_residual": self.final_residual,
            "residual_history": [float(r) for r in self.residual_history],
            "seed": self.seed,
            "n_particles": self.n_particles,
            "grid": {
                "x_min": self.grid.x_min, "x_max": self.grid.x_max,
                "n_x": self.grid.n_x, "t0": self.grid.t0,
                "t_end": self.grid.t_end, "n_t": self.grid.n_t,
            },
        }


def _quantile_dist(a: np.ndarray, b: np.ndarray):
    """2-Wasserstein distance of equal-size uniform d=1 clouds, row by row
    along the last axis.

    The sorted-quantile coupling is optimal on the line, so this is the RMS
    difference of the order statistics; the Picard residual is its maximum
    over levels, for states and for momenta.
    """
    d = np.sort(a, axis=-1)
    d -= np.sort(b, axis=-1)
    np.multiply(d, d, d)
    return np.sqrt(np.add.reduce(d, axis=-1) / d.shape[-1])


def _moments(states: np.ndarray, controls: np.ndarray) -> tuple:
    """Per-level means (m1, m2) of the uniform (state, control) laws."""
    w = np.full(states.shape[-1], 1.0 / states.shape[-1])
    return states @ w, controls @ w


def _backward_value(model: Model, xs: np.ndarray, dx: float, dt: float,
                    m1: np.ndarray, m2: np.ndarray, terminal_atoms: np.ndarray) -> np.ndarray:
    """Explicit Euler backward sweep of the value grid against frozen control laws.

    m1 and m2 are per level and the result u is (levels, n_x).  The step to
    level k is u_k = u_{k+1} + dt (u_xx / 2 + H(x, u_x)), with u_x and u_xx
    the stencils of ``_d1_rows`` and ``_d2_rows`` on u_{k+1} and H at the
    terms of level k + 1.  It is evaluated from w = 2 dx u_x, the undivided
    central difference (twice the one-sided one at the edges), with the
    constants folded once per call into the un-broadcast
    ``hamiltonian_terms``: sqrt(dt / 2) into A, sqrt(dt / 2) / (2 dx) into B0
    and dt / (2 dx) into C.  The square is expanded, -(A' + w B0')^2 + w C'
    = -A'^2 + w (F - G w) with F = C' - 2 A' B0' and G = B0'^2, so that

        u_k = u_{k+1} + dt / (2 dx^2) (undivided u_xx) + w (F - G w)
              + dt (D1 + x Q) - A'^2.

    The last two terms fill the rows of u before the sweep, in one
    contraction when A' has no x-part.  A term with an x-part (f0x, b0x or
    a non-constant b1_x) is a (levels, n_x) array; otherwise u is the only
    array of the grid's size.  Each level writes its stencils and products
    into a few buffers of one row, allocated once per call.
    """
    n_x = xs.size
    # The step to level k reads the terms of level k + 1.
    a, b, c, d1, q = hamiltonian_terms(model, xs, mean_terms(model, m1[1:, None], m2[1:, None]))
    kappa = dt / (2.0 * dx**2)
    u = np.empty((m1.size, n_x))
    u[-1] = model.g(xs, terminal_atoms)
    diff, lap = np.empty(n_x - 1), np.empty(n_x - 2)
    w, term = np.empty(n_x), np.empty(n_x)
    diff_hi, diff_lo, diff_ends = diff[1:], diff[:-1], diff[::n_x - 2]
    w_inner, w_ends = w[1:-1], w[::n_x - 1]
    # An unstable sweep, or a B0 whose square overflows, runs into inf/nan;
    # the check below reports it, with its level, instead of numpy's
    # floating-point warning.
    with np.errstate(over="ignore", invalid="ignore"):
        # The terms are fresh arrays of this call, scaled in place.
        a *= np.sqrt(0.5 * dt)
        b *= np.sqrt(0.5 * dt) / (2.0 * dx)
        c *= dt / (2.0 * dx)
        f, g = c - 2.0 * a * b, b * b
        # dt (x Q + D1) - A'^2 as one contraction: numpy would buffer an
        # operand that a ufunc broadcasts over the rows.  An A' with an
        # x-part is already an array of the grid's size, squared in place.
        columns = [dt * q[:, 0], np.ones(q.shape[0])]
        rows = [xs, np.broadcast_to(dt * d1, xs.shape)]
        a_on_grid = a.shape[1] > 1
        if not a_on_grid:
            columns.append(-(a[:, 0] * a[:, 0]))
            rows.append(np.ones(n_x))
        np.einsum("kt,tj->kj", np.column_stack(columns), np.stack(rows), out=u[:-1])
        if a_on_grid:
            u[:-1] -= np.square(a, out=a)
        # A term with no x-part enters each level as a Python float.
        f_rows, g_rows = (t[::-1, 0].tolist() if t.shape[1] == 1 else t[::-1] for t in (f, g))
        subtract, add, multiply = np.subtract, np.add, np.multiply
        for row, row_hi, row_lo, out, out_inner, f_k, g_k in zip(
                u[:0:-1], u[:0:-1, 1:], u[:0:-1, :-1], u[-2::-1], u[-2::-1, 1:-1],
                f_rows, g_rows):
            subtract(row_hi, row_lo, diff)
            add(diff_hi, diff_lo, w_inner)
            multiply(diff_ends, 2.0, w_ends)
            multiply(w, g_k, term)
            subtract(f_k, term, term)
            multiply(term, w, term)
            subtract(diff_hi, diff_lo, lap)
            multiply(lap, kappa, lap)
            add(out, term, out)
            add(out_inner, lap, out_inner)
            add(out, row, out)
    # A non-finite value stays non-finite down the sweep, so the largest
    # level holding one is where the sweep first broke down.  A row holds a
    # nan or an infinity exactly when its maximum or its minimum is not
    # finite; the two reductions allocate one value per level.
    finite = np.isfinite(u[:-1].max(axis=1)) & np.isfinite(u[:-1].min(axis=1))
    if not finite.all():
        k = int(np.flatnonzero(~finite)[-1])
        raise SolverError(
            f"value sweep produced non-finite values at level {k}; the "
            "advection speed likely exceeds the explicit scheme's stability range"
        )
    return u


def _sweep(model: Model, x0: np.ndarray, xs: np.ndarray, dx: float, dt: float,
           brownian: np.ndarray, states: np.ndarray, momenta: np.ndarray) -> tuple:
    """One Picard map: control-law moments, backward value sweep, forward
    particle push from x0 and the escape check.

    states and momenta are (levels, n) and x0 is (n,).  Returns the proposed
    (states, momenta) and the value grid solved against the entering flow.
    The proposed momenta are u_x interpolated at the proposed states; the
    push reads them at every level but the last.  The push steps X_{k+1} =
    X_k + dt H_p(X_k, P_k) + sqrt(dt) dW_k with the optimal drift written as
    affine in the momentum, H_p = -B0 (A + p B0) + C = -B0^2 p + (C - A B0).
    The per-level slope -dt B0^2 of the means is a Python float, and dt (C -
    A B0) of the means is added to the noise for all levels at once, so a
    level makes the interpolation of u_x and three in-place updates.  The
    x-parts (f0x x, b0x x and a non-constant b1_x) join the same formula,
    formed only for a model that has them: B0 = b + b0x x in the slope, and
    dt (C - A B0) gains x (lin_k + x R(x)), whose linear coefficient lin_k
    varies with the level and whose polynomial R does not.  A non-finite
    state counts as an escaped one.
    """
    m1, m2 = _moments(states, fixed_point_phi(model, states, momenta))
    u = _backward_value(model, xs, dx, dt, m1, m2, states[-1])
    ux = _d1_rows(u, dx)

    # The push reads the terms of every level but the last.
    a_m, b_m, c_m, _ = mean_terms(model, m1[:-1], m2[:-1])
    f0x, b0x, b1_x = model.f0[1], model.b0[1], model.b1_x
    # With b1_x = p0 + p1 x + p2 x^2 + ..., C - A B0 = (C - A B0 of the
    # means, p0 included) + x (lin_k + x R(x)), where lin_k = p1 - a_k b0x -
    # f0x b_k and R has the coefficients (p2 - f0x b0x, p3, ...).
    p1, p2, *rest = b1_x[1:] + (0.0, 0.0)
    x_parts = bool(f0x or b0x or len(b1_x) > 1)
    prop_states = np.empty_like(states)
    prop_momenta = np.empty_like(momenta)
    prop_states[0] = x0
    # A B0 whose square overflows makes the push's states non-finite; the
    # escape check below reports them instead of numpy's warning.
    with np.errstate(over="ignore", invalid="ignore"):
        slope = -dt * b_m * b_m
        noise = np.sqrt(dt) * brownian
        noise += (dt * (c_m + b1_x[0] - a_m * b_m))[:, None]
        lin = dt * (p1 - a_m * b0x - f0x * b_m)
        higher = tuple(dt * h for h in _coeffs((p2 - f0x * b0x, *rest)))
        interp, add, multiply = np.interp, np.add, np.multiply
        # Row k + 1 of the states is written as step before it is read as xk.
        for xk, step, pk, ux_k, noise_k, slope_k, b_k, lin_k in zip(
                prop_states, prop_states[1:], prop_momenta, ux, noise,
                slope.tolist(), b_m.tolist(), lin.tolist()):
            pk[...] = interp(xk, xs, ux_k)
            if b0x:
                slope_k = b_k + b0x * xk
                slope_k *= -dt * slope_k
            multiply(pk, slope_k, step)
            add(step, xk, step)
            add(step, noise_k, step)
            if x_parts:
                add(step, xk * _poly((lin_k, *higher), xk), step)
    # Written as "all inside" so that a non-finite state is caught too.
    inside = (prop_states >= xs[0]) & (prop_states <= xs[-1])
    if not inside.all():
        bad = int(np.argmin(inside.all(axis=-1)))
        raise SolverError(
            f"particles escaped the grid at level {bad}; enlarge the domain "
            "or shrink the horizon"
        )
    prop_momenta[-1] = np.interp(prop_states[-1], xs, ux[-1])
    return prop_states, prop_momenta, u


def solve_mfgc(model: Model, x0: np.ndarray, grid: Grid,
               picard: PicardSettings, seed: int) -> EquilibriumFlow:
    """Solve the coupled equilibrium system from the initial cloud of atoms x0.

    Picard iteration of ``_sweep`` from the uncontrolled flow until the
    residual reaches ``picard.tol``, accelerated by type-II Anderson mixing
    (Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011) of the stacked iterate x
    = (states, momenta).  With the update f = prop - x and the differences
    dX, dF of the last ANDERSON_DEPTH + 1 stored iterates and updates, the
    next iterate is omega prop + (1 - omega) x - (dX + omega dF) gamma, where
    gamma is the least-squares solution of dF gamma = f and omega is
    ``picard.damping``.  With one sweep stored it is the plain damped step,
    so depth 0 would be damped Picard.  The depth is 8 so that the ll solves
    keep every difference they form: depth 5 dropped the first one at sweep
    8 and cost them a sweep (see the module docstring).  The differences are
    kept, oldest first, in two arrays that each sweep shifts by one row; a
    residual that is not finite ends the solve with a ``SolverError``.  The
    returned flow is the accepted Picard proposal: its momenta equal the
    value gradient interpolated at its own states, and its per-step control
    laws are the exact fixed point of its (state, momentum) laws.  The
    stored value grid is the one the final sweep solved against the previous
    flow; at tolerance the two coincide up to the Picard residual.
    """
    x0 = np.array(x0, dtype=float)
    if x0.ndim != 1 or x0.size == 0:
        raise SolverError(f"the initial cloud must be a non-empty 1-D array of atoms, "
                          f"got shape {x0.shape}")
    margin = max(4.0 * grid.dx, 0.02 * (grid.x_max - grid.x_min))
    # Written as "all inside" so that a non-finite atom is rejected too.
    if not np.all((x0 >= grid.x_min + margin) & (x0 <= grid.x_max - margin)):
        raise SolverError(
            f"initial particles must lie inside [{grid.x_min + margin}, "
            f"{grid.x_max - margin}]"
        )

    rng = np.random.default_rng(seed)
    brownian = rng.standard_normal((grid.n_t, x0.size))
    xs, dx, dt = grid.xs, grid.dx, grid.dt
    # The uncontrolled walk X_{k+1} = X_k + sqrt(dt) dW_k, summed in order.
    states = np.empty((grid.n_t + 1, x0.size))
    states[0] = x0
    np.multiply(np.sqrt(dt), brownian, states[1:])
    np.add.accumulate(states, axis=0, out=states)
    momenta = np.zeros_like(states)

    history: list[float] = []
    omega = picard.damping
    # The differences of the last ANDERSON_DEPTH + 1 stacked iterates x =
    # (states, momenta), flattened, and of their updates f = prop - x: row
    # j of the first ``stored`` rows is x_{j+1} - x_j, oldest first.  They
    # are allocated with the first difference, which a solve that converges
    # in two sweeps never takes.
    stored = 0
    last_x = last_f = None
    for sweep in range(picard.max_iter):
        prop_states, prop_momenta, u = _sweep(model, x0, xs, dx, dt, brownian,
                                              states, momenta)
        # A residual that overflows is reported below, not by numpy.
        with np.errstate(over="ignore", invalid="ignore"):
            residual = float(max(np.max(_quantile_dist(states, prop_states)),
                                 np.max(_quantile_dist(momenta, prop_momenta))))
        history.append(residual)
        if residual <= picard.tol:
            states, momenta = prop_states, prop_momenta
            break
        if not np.isfinite(residual):
            raise SolverError(f"the Picard residual is not finite at sweep {sweep + 1}")
        x, prop = np.stack((states, momenta)), np.stack((prop_states, prop_momenta))
        step = omega * prop + (1.0 - omega) * x
        x, f = x.ravel(), (prop - x).ravel()
        if last_x is not None:
            if not stored:
                d_x, d_f = np.empty((2, ANDERSON_DEPTH, x.size))
            if stored == ANDERSON_DEPTH:
                d_x[:-1], d_f[:-1] = d_x[1:], d_f[1:]
            else:
                stored += 1
            np.subtract(x, last_x, out=d_x[stored - 1])
            np.subtract(f, last_f, out=d_f[stored - 1])
            gamma = np.linalg.lstsq(d_f[:stored].T, f, rcond=None)[0]
            step -= ((d_x[:stored].T + omega * d_f[:stored].T) @ gamma).reshape(step.shape)
        last_x, last_f = x, f
        states, momenta = step
    else:
        raise PicardError(
            f"Picard iteration did not reach tol={picard.tol} within "
            f"{picard.max_iter} sweeps (last residual {history[-1]:.3e})",
            history,
        )

    # The accepted flow is the final Picard proposal; its interior value rows
    # were solved against the entering flow (one sweep behind), but the
    # terminal condition is refreshed so that u(T, .) = g(., mu_T) holds
    # exactly for the stored flow.
    u[-1] = model.g(xs, states[-1])
    momenta[-1] = np.interp(states[-1], xs, _d1_rows(u[-1], dx))
    return EquilibriumFlow(
        grid=grid, states=states, momenta=momenta,
        controls=fixed_point_phi(model, states, momenta),
        value_field=ValueField(u, xs, grid.ts),
        residual_history=history, brownian=brownian, seed=seed,
    )


def terminal_field(model: Model, atoms: np.ndarray, xs: np.ndarray,
                   t_end: float) -> ValueField:
    """The exact terminal slice V(T, ., mu) = g(., mu) as a one-level field,
    for the uniform cloud mu of the given atoms."""
    return ValueField(model.g(xs, atoms)[None, :], xs, np.array([t_end]))


def _cell(xs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The grid cell [xs[c], xs[c + 1]] of each point x, as the index c:
    the last grid point at or left of x, clipped to the interior cells."""
    return np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)


def _interp_rows(x: np.ndarray, xs: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp of each row of the grid values fp at the same row of the
    points x, which lie in [xs[0], xs[-1]]; a 1-D x and fp are one row.  It
    is np.interp's arithmetic, slope (x - xs[c]) + fp[c], so it rounds as
    np.interp does everywhere but at x = xs[-1]."""
    cell = _cell(xs, x)
    lo = np.take_along_axis(fp, cell, -1)
    slope = (np.take_along_axis(fp, cell + 1, -1) - lo) / (xs[cell + 1] - xs[cell])
    return slope * (x - xs[cell]) + lo


def _reader(n_x: int, dx: float, cell: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """(levels, n_x, N): column i of slice k reads u_x at atom i of level k
    off a row u of n_x grid values, u @ reader[k], with ``_d1_rows``' stencil
    interpolated across the atom's cell by its weight.  A stencil row c
    reads (u[c + 1] - u[c - 1]) / (2 dx), one-sided at the edges, so each
    column has four nonzeros; they are scattered, the edges' coinciding
    ones summed."""
    levels, n = cell.shape
    cols = np.stack((cell, cell + 1))
    lo, hi = np.maximum(cols - 1, 0), np.minimum(cols + 1, n_x - 1)
    coef = np.stack((1.0 - weight, weight)) / ((hi - lo) * dx)
    base = np.arange(levels)[:, None] * n_x
    flat = np.concatenate([((base + rows) * n + np.arange(n)).ravel() for rows in (hi, lo)])
    values = np.concatenate((coef.ravel(), -coef.ravel()))
    return np.bincount(flat, values, minlength=levels * n_x * n).reshape(levels, n_x, n)


def _measure_derivative(model: Model, flow: EquilibriumFlow) -> np.ndarray:
    """M, (levels, N, N): M[k] is the derivative of the discrete
    equilibrium's u_x at the atoms of level k with respect to those atoms.

    The equilibrium from level k is the fixed point of ``_sweep`` started
    from a cloud x at level k with the base flow's Brownian increments; M[k]
    differentiates that fixed point at x = base.states[k], not a truncation
    of its iteration.  The coefficients are those of a sweep linearised
    around the base flow: the moments of its fixed point (the flow's
    controls), the flow's value grid (``flow.value_field.u``, the grid that
    ``ValueAccess.field`` reads), the partials of H on the grid and at the
    atoms, and the slope of u_x across each atom's cell.  The stored grid
    was solved against the flow one sweep before the accepted one, so it
    differs from a backward sweep against the flow's own moments by the
    order of the Picard residual.  The time step is folded into every
    coefficient, and the weight 1/N of a mean into the m1 partials.

    At the fixed point, the state tangent of level l + 1 is A_l dX_l + R_l
    du_l, where du_l reads the tangent value row of level l at the atoms
    (``_reader``: ``_d1_rows`` interpolated across the atom's cell), A_l =
    diag(alpha_l) + hp_m1 (x) 1/N + hp_m2 (x) W_D and R_l = diag(hp_p) +
    hp_m2 (x) W_U.  The control mean moves by dm2_l = W_D dX_l + W_U du_l,
    with W_D = (a + b slope + g (p + x slope)) / N and W_U = (b + g x) / N
    from ``control_mean_tangent``'s coefficients (a, b, g).  One backward
    pass over the levels carries U, the tangent value rows per unit
    displacement of the atoms of the level above, and r, that level's dm2
    per unit displacement: from U = dg/dm1 (x) 1/N at the terminal level,
    each level k steps V = Band U + h_m1 (x) 1/N + h_m2 (x) r, reads G =
    read_k(V) and solves Phi = (I - R_k G)^-1 A_k, so that M[k] = G Phi, U
    <- V Phi and r = W_D + W_U M[k].  U is kept as rows, one per atom.

    Everything the pass does not carry is built before it as a stack over
    the levels: the reader, R and A.  U lives inside zero ghost columns, so
    the band is three whole-row products, and a level's buffers are
    allocated once.  A non-finite or singular level is a ``SolverError``
    naming it.
    """
    grid = flow.grid
    xs, dx, dt = grid.xs, grid.dx, grid.dt
    states, momenta = flow.states, flow.momenta
    levels, n = states.shape
    m1, m2 = _moments(states, flow.controls)
    u = flow.value_field.u
    ux = _d1_rows(u, dx)
    on_grid = hamiltonian_partials(model, xs, ux, m1[:, None], m2[:, None])
    at_atoms = hamiltonian_partials(model, states, momenta, m1[:, None], m2[:, None])

    # d/du of u + dt (u_xx / 2 + H_p u_x) with the stencils of _d2_rows and
    # _d1_rows: central inside, u_xx = 0 and one-sided u_x at the edges.
    hp = np.broadcast_to(on_grid.h_p, u.shape)
    lower = dt * (0.5 / dx**2 - hp / (2.0 * dx))
    upper = dt * (0.5 / dx**2 + hp / (2.0 * dx))
    diag = np.full(u.shape, 1.0 - dt / dx**2)
    lower[:, 0] = upper[:, -1] = 0.0
    upper[:, 0] = dt * hp[:, 0] / dx
    diag[:, 0] = 1.0 - upper[:, 0]
    lower[:, -1] = -dt * hp[:, -1] / dx
    diag[:, -1] = 1.0 - lower[:, -1]
    # Partials that do not vary along an axis are broadcast views along it.
    h_m1 = np.broadcast_to(dt / n * on_grid.h_m1, u.shape)
    h_m2 = np.broadcast_to(dt * on_grid.h_m2, u.shape)

    cell = _cell(xs, states)
    width = xs[cell + 1] - xs[cell]
    slope = (np.take_along_axis(ux, cell + 1, -1) - np.take_along_axis(ux, cell, -1)) / width
    reader = _reader(xs.size, dx, cell, (states - xs[cell]) / width)

    a, b, g = (control_mean_tangent(model, m1, momenta.mean(axis=-1), *unit)[:, None]
               for unit in np.eye(3))
    w_d = (a + b * slope + g * (momenta + states * slope)) / n
    w_u = (b + g * states) / n
    alpha = np.broadcast_to(1.0 + dt * (at_atoms.hp_x + at_atoms.hp_p * slope), states.shape)
    hp_p, hp_m1, hp_m2 = (np.broadcast_to(dt * h, states.shape)
                          for h in (at_atoms.hp_p, at_atoms.hp_m1 / n, at_atoms.hp_m2))
    diagonal = np.arange(n)
    coupling = hp_m2[:, :, None] * w_u[:, None, :]   # R
    coupling[:, diagonal, diagonal] += hp_p
    forward = hp_m2[:, :, None] * w_d[:, None, :] + hp_m1[:, :, None]   # A
    forward[:, diagonal, diagonal] += alpha

    matrix = np.empty((levels, n, n))
    rows = np.zeros((n, xs.size + 2))
    inner, left, right = rows[:, 1:-1], rows[:, :-2], rows[:, 2:]
    step, term = np.empty((n, xs.size)), np.empty((n, xs.size))
    eye, read_t, product, system = np.eye(n), *np.empty((3, n, n))
    # r is a column, so that it scales the h_m2 row of every atom at once.
    r_column = np.empty((n, 1))
    r = r_column[:, 0]
    np.outer(np.full(n, 1.0 / n), model.g.d_m1(xs, m1[-1]), out=inner)
    matrix[-1] = (inner @ reader[-1]).T
    np.add(w_d[-1], w_u[-1] @ matrix[-1], r)
    # Looked up at each call, so that a substitute for np.linalg.solve is seen.
    solve, add, subtract, multiply, matmul = (np.linalg.solve, np.add, np.subtract,
                                              np.multiply, np.matmul)
    # G of a level is read_k, the transpose of the buffer step @ reader_k.
    read_k = read_t.T
    # Level k steps with the band and partials of level k + 1.
    levels_down = zip(range(levels - 2, -1, -1), diag[:0:-1], lower[:0:-1], upper[:0:-1],
                      h_m1[:0:-1], h_m2[:0:-1], reader[-2::-1], coupling[-2::-1],
                      forward[-2::-1], matrix[-2::-1], w_d[-2::-1], w_u[-2::-1])
    # A divergent pass overflows on its way to inf/nan; the check below
    # reports it, with its level, instead of numpy's floating-point warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for (k, diag_k, lower_k, upper_k, h_m1_k, h_m2_k, reader_k, coupling_k, forward_k,
             matrix_k, w_d_k, w_u_k) in levels_down:
            multiply(inner, diag_k, step)
            multiply(left, lower_k, term)
            add(step, term, step)
            multiply(right, upper_k, term)
            add(step, term, step)
            add(step, h_m1_k, step)
            multiply(r_column, h_m2_k, term)
            add(step, term, step)
            matmul(step, reader_k, read_t)
            matmul(coupling_k, read_k, product)
            subtract(eye, product, system)
            try:
                phi = solve(system, forward_k)
            except np.linalg.LinAlgError as err:
                raise SolverError(f"the measure derivative's linear system is singular "
                                  f"at level {k}") from err
            matmul(read_k, phi, matrix_k)
            matmul(phi.T, step, inner)
            matmul(w_u_k, matrix_k, r)
            add(w_d_k, r, r)
    # A non-finite entry spreads to every level below it through r, so the
    # largest level holding one is where the pass first broke down.
    finite = np.isfinite(matrix).all(axis=(1, 2))
    if not finite.all():
        k = int(np.flatnonzero(~finite)[-1])
        raise SolverError(f"the measure derivative of the value gradient is not finite "
                          f"at level {k}")
    return matrix


def level_indices(levels, count: int) -> np.ndarray:
    """The sequence ``levels`` as an index array into a stack of ``count``
    levels; a level outside 0..count - 1 is a ``SolverError``, so a negative
    level is no alias from the end."""
    levels = np.asarray(levels)
    outside = levels[(levels < 0) | (levels >= count)]
    if outside.size:
        raise SolverError(f"level {outside[0]} is outside the flow's levels 0..{count - 1}")
    return levels


class ValueAccess:
    """V(t_k, ., mu_k) of a converged base flow at the solved cloud mu_k of
    each level k, and the measure derivative of its gradient there.

    Levels are the only key: mu_k is the uniform cloud of the N atoms
    base.states[k], the only cloud the access answers at for level k.
    ``field(levels)`` returns V_xx(t_k, ., mu_k) at those atoms for each
    level k of a sequence, one row per level, interpolated from the base
    flow's value grid.  A level outside 0..n_t is a ``SolverError``
    (``level_indices``); a negative one is no alias from the end.

    The access builds M (``_measure_derivative``) once and holds it,
    read-only, as ``matrices``: M[k], (N, N), is the exact derivative of the
    discrete equilibrium's u_x at level k's atoms with respect to those
    atoms, where the equilibrium from level k is the fixed point of the
    Picard sweep from a displaced cloud with the base flow's Brownian
    increments.  ``calculus.value_measure_gradient`` reads M eta off it for
    a stack of levels and directions.  The access holds M and nothing else
    beside its model and flow.
    """

    def __init__(self, model: Model, flow: EquilibriumFlow):
        self.model = model
        self.flow = flow
        self.matrices = _measure_derivative(model, flow)
        self.matrices.flags.writeable = False

    def field(self, levels) -> np.ndarray:
        """(L, N): row l is V_xx(t_k, ., mu_k) at the atoms of level k =
        levels[l]."""
        levels = level_indices(levels, len(self.matrices))
        vf = self.flow.value_field
        return _interp_rows(self.flow.states[levels], vf.xs, vf.u_xx[levels])
