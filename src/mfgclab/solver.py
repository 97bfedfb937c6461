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
``ValueAccess`` reads V_xx of the solved flow at the cloud of a level k,
and gives the measure derivative of the value gradient along displacements
of that cloud: the forward-mode derivative of a fixed number of
undamped sweeps from the shifted base flow, linearised once around the base
flow into two response kernels, with no displaced cloud re-solved.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models import (
    Model,
    control_mean_tangent,
    fixed_point_phi,
    hamiltonian_dp,
    hamiltonian_partials,
    hamiltonian_terms,
    mean_terms,
)

CFL_SAFETY = 0.45
RESOLVE_SWEEPS = 6
ANDERSON_DEPTH = 5


class SolverError(RuntimeError):
    pass


class PicardError(SolverError):
    """Picard iteration failed to reach tolerance; carries the residual history."""

    def __init__(self, message: str, residual_history: list):
        super().__init__(message)
        self.residual_history = list(residual_history)


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
        if not self.x_min < self.x_max:
            raise SolverError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if not self.t0 < self.t_end:
            raise SolverError(f"need t0 < t_end, got [{self.t0}, {self.t_end}]")
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


def _d1_rows(u: np.ndarray, dx: float, out: np.ndarray | None = None) -> np.ndarray:
    """Central first differences along the space axis, one-sided at the edges;
    written into ``out`` when given."""
    ux = np.empty_like(u) if out is None else out
    ux[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * dx)
    ux[..., 0] = (u[..., 1] - u[..., 0]) / dx
    ux[..., -1] = (u[..., -1] - u[..., -2]) / dx
    return ux


def _d2_rows(u: np.ndarray, dx: float, out: np.ndarray | None = None) -> np.ndarray:
    """Central second differences; zero at the edges (linear-extrapolation
    ghost); written into ``out`` when given."""
    uxx = np.empty_like(u) if out is None else out
    uxx[..., 1:-1] = (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) / dx**2
    uxx[..., 0] = uxx[..., -1] = 0.0
    return uxx


@dataclass
class ValueField:
    """Grid values of V(t, x, mu_t) along one solve and their second differences."""

    u: np.ndarray   # (levels, n_x)
    xs: np.ndarray
    ts: np.ndarray
    u_xx: np.ndarray = field(init=False)

    def __post_init__(self):
        self.u = np.atleast_2d(np.asarray(self.u, dtype=float))
        self.xs = np.asarray(self.xs, dtype=float)
        self.ts = np.atleast_1d(np.asarray(self.ts, dtype=float))
        if self.u.shape != (self.ts.size, self.xs.size):
            raise SolverError(f"value array shape {self.u.shape} does not match grid")
        self.u_xx = _d2_rows(self.u, self.xs[1] - self.xs[0])


@dataclass
class PicardSettings:
    """Stopping rule and mixing weight of ``solve_mfgc``.

    ``damping`` is the weight omega of each new proposal in the Anderson
    step (with one sweep stored, the plain damped step omega prop + (1 -
    omega) x); the mixing depth is the module constant ANDERSON_DEPTH.
    """

    max_iter: int = 80
    damping: float = 0.5
    tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise SolverError(f"damping must lie in (0, 1], got {self.damping}")
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
    picard_iterations: int
    final_residual: float
    residual_history: list
    brownian: np.ndarray  # (levels - 1, n) unit normal increments
    seed: int

    @property
    def n_particles(self) -> int:
        return self.states.shape[1]

    def to_csv(self, path) -> None:
        """One row per (time step, particle): t, index, state, control, u_x."""
        import csv

        ts, n = self.value_field.ts, self.n_particles
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t", "particle", "state", "control", "u_x"])
            writer.writerows(zip(np.repeat(ts, n).tolist(),
                                 np.tile(np.arange(n), ts.size).tolist(),
                                 self.states.ravel().tolist(),
                                 self.controls.ravel().tolist(),
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
    return np.sqrt(np.mean((np.sort(a, axis=-1) - np.sort(b, axis=-1)) ** 2, axis=-1))


def _moments(states: np.ndarray, controls: np.ndarray) -> tuple:
    """Per-level means (m1, m2) of the uniform (state, control) laws."""
    w = np.full(states.shape[-1], 1.0 / states.shape[-1])
    return states @ w, controls @ w


def _level_means(model: Model, m1: np.ndarray, m2: np.ndarray) -> list:
    """``mean_terms`` of the per-level moments with a trailing axis for the
    points: entry [k] broadcasts against level k's points."""
    return [t[:, None] for t in mean_terms(model, m1, m2)]


def _backward_value(model: Model, xs: np.ndarray, dx: float, dt: float,
                    m1: np.ndarray, m2: np.ndarray, terminal_atoms: np.ndarray) -> np.ndarray:
    """Explicit Euler backward sweep of the value grid against frozen control laws.

    m1 and m2 are per level and the result is (levels, n_x).  The
    Hamiltonian's p-independent terms are computed for all levels before the
    loop, and each difference stencil writes into one buffer for all levels.
    """
    terms = hamiltonian_terms(model, xs, _level_means(model, m1, m2))
    a0, b0, c, d1, d2 = np.broadcast_arrays(*terms)
    u = np.empty(a0.shape)
    u[-1] = model.g(xs, terminal_atoms)
    ux = np.empty_like(u[0])
    uxx = np.empty_like(ux)
    # An unstable sweep overflows on its way to inf/nan; the check below
    # reports it, with its level, instead of numpy's floating-point warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(u.shape[0] - 2, -1, -1):
            row = u[k + 1]
            _d1_rows(row, dx, out=ux)
            _d2_rows(row, dx, out=uxx)
            a = a0[k + 1] + ux * b0[k + 1]
            ham = -0.5 * a**2 + ux * c[k + 1] + d1[k + 1] + d2[k + 1]
            u[k] = row + dt * (0.5 * uxx + ham)
    # A non-finite value stays non-finite down the sweep, so the largest
    # level holding one is where the sweep first broke down.
    finite = np.isfinite(u[:-1]).all(axis=1)
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
    push reads them at every level but the last.
    """
    n_steps = brownian.shape[0]
    sqrt_dt = np.sqrt(dt)
    m1, m2 = _moments(states, fixed_point_phi(model, states, momenta))
    u = _backward_value(model, xs, dx, dt, m1, m2, states[-1])
    ux = _d1_rows(u, dx)

    means = _level_means(model, m1, m2)
    prop_states = np.empty_like(states)
    prop_momenta = np.empty_like(momenta)
    prop_states[0] = x0
    for k in range(n_steps):
        xk = prop_states[k]
        prop_momenta[k] = np.interp(xk, xs, ux[k])
        drift = hamiltonian_dp(model, xk, prop_momenta[k], [t[k] for t in means])
        prop_states[k + 1] = xk + dt * drift + sqrt_dt * brownian[k]
    outside = (prop_states < xs[0]) | (prop_states > xs[-1])
    if np.any(outside):
        bad = int(np.argmax(np.any(outside, axis=-1)))
        raise SolverError(
            f"particles escaped the grid at level {bad}; enlarge the domain "
            "or shrink the horizon"
        )
    prop_momenta[-1] = np.interp(prop_states[-1], xs, ux[-1])
    return prop_states, prop_momenta, u


def solve_mfgc(model: Model, x0: np.ndarray, grid: Grid,
               picard: PicardSettings | None = None, seed: int = 0) -> EquilibriumFlow:
    """Solve the coupled equilibrium system from the initial cloud of atoms x0.

    Picard iteration of ``_sweep`` from the uncontrolled flow until the
    residual reaches ``picard.tol``, accelerated by type-II Anderson mixing
    (Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011) of the stacked iterate x
    = (states, momenta).  With the update f = prop - x and the differences
    dX, dF of the last ANDERSON_DEPTH + 1 stored iterates and updates, the
    next iterate is omega prop + (1 - omega) x - (dX + omega dF) gamma, where
    gamma is the least-squares solution of dF gamma = f and omega is
    ``picard.damping``.  With one sweep stored it is the plain damped step,
    so depth 0 would be damped Picard.  The returned flow is the accepted
    Picard proposal: its momenta equal the value gradient interpolated at its
    own states, and its per-step control laws are the exact fixed point of
    its (state, momentum) laws.  The stored value grid is the one the final
    sweep solved against the previous flow; at tolerance the two coincide up
    to the Picard residual.
    """
    picard = picard if picard is not None else PicardSettings()
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
    sqrt_dt = np.sqrt(dt)
    states = np.empty((grid.n_t + 1, x0.size))
    states[0] = x0
    for k in range(grid.n_t):
        states[k + 1] = states[k] + sqrt_dt * brownian[k]
    momenta = np.zeros_like(states)

    history: list[float] = []
    omega = picard.damping
    # The last ANDERSON_DEPTH + 1 stacked iterates x = (states, momenta) and
    # their updates f = prop - x, flattened.
    iterates: list = []
    updates: list = []
    for _ in range(picard.max_iter):
        prop_states, prop_momenta, u = _sweep(model, x0, xs, dx, dt, brownian,
                                              states, momenta)
        residual = float(max(np.max(_quantile_dist(states, prop_states)),
                             np.max(_quantile_dist(momenta, prop_momenta))))
        history.append(residual)
        if residual <= picard.tol:
            states, momenta = prop_states, prop_momenta
            break
        x, prop = np.stack((states, momenta)), np.stack((prop_states, prop_momenta))
        step = omega * prop + (1.0 - omega) * x
        iterates.append(x.ravel())
        updates.append((prop - x).ravel())
        del iterates[:-ANDERSON_DEPTH - 1], updates[:-ANDERSON_DEPTH - 1]
        if len(iterates) > 1:
            d_x, d_f = np.diff(iterates, axis=0).T, np.diff(updates, axis=0).T
            gamma = np.linalg.lstsq(d_f, updates[-1], rcond=None)[0]
            step -= ((d_x + omega * d_f) @ gamma).reshape(step.shape)
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
        picard_iterations=len(history), final_residual=history[-1],
        residual_history=history, brownian=brownian, seed=seed,
    )


def terminal_field(model: Model, atoms: np.ndarray, xs: np.ndarray,
                   t_end: float) -> ValueField:
    """The exact terminal slice V(T, ., mu) = g(., mu) as a one-level field,
    for the uniform cloud mu of the given atoms."""
    return ValueField(model.g(xs, atoms)[None, :], xs, np.array([t_end]))


@dataclass(frozen=True)
class _Linearisation:
    """The tangent of the fixed-sweep re-solve map at the converged base
    flow, as two linear response kernels over the levels of the base flow.

    A channel (j, c) is a unit tangent of the moment m1 (c = 0) or m2
    (c = 1) at level j.  ``kernel`` (K) has row l N + i and column 2 j + c:
    the response of du_x at base atom i of level l to channel (j, c)
    through the backward sweep of the value grid, with the terminal dg/dm1
    in channel (n_t, 0).  An entry is zero for j <= l except that terminal
    one, so the rows of levels >= k against the channels of levels >= k are
    the whole backward sweep of a re-solve from level k.

    At the atoms, the momentum tangent is slope[l] dX + du_x and the forward
    step maps dX_l to alpha[l] dX_l + r_l, with the forcing r_l = hp_p[l]
    du_x + hp_m1[l] dm1_l + hp_m2[l] dm2_l and alpha folding in the slope of
    the base u_x.  ``propagator`` (Q) holds, per atom i, Q[i, l, j] =
    alpha[j, i] ... alpha[l - 1, i] for j <= l and zero above the diagonal,
    so dX_l is the sum over j <= l of Q[i, l, j] times the level-j input.
    The time step is folded into every coefficient; m1 and e are the base
    state and momentum means that ``control_mean_tangent`` linearises at.
    """

    kernel: np.ndarray      # (levels * n, 2 * levels)
    propagator: np.ndarray  # (n, levels, levels)
    slope: np.ndarray       # (levels, n)
    hp_p: np.ndarray
    hp_m1: np.ndarray
    hp_m2: np.ndarray
    m1: np.ndarray          # (levels,)
    e: np.ndarray


def _linearise(model: Model, flow: EquilibriumFlow) -> _Linearisation:
    """The response kernels of the re-solve map around the base flow.

    The moments are those of the base flow's fixed point and the value grid
    is one backward sweep against them: a re-solve at zero displacement stays
    at this flow up to the Picard residual, so every sweep of it shares one
    linearisation.  K comes from one backward pass over the levels on the
    stack of channel responses, which keeps only the channels of the levels
    still ahead; Q from one cumulative product per starting level.
    """
    grid = flow.grid
    xs, dx, dt = grid.xs, grid.dx, grid.dt
    states, momenta = flow.states, flow.momenta
    levels, n = states.shape
    m1, m2 = _moments(states, fixed_point_phi(model, states, momenta))
    u = _backward_value(model, xs, dx, dt, m1, m2, states[-1])
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
    h_m1 = np.broadcast_to(dt * on_grid.h_m1, u.shape)
    h_m2 = np.broadcast_to(dt * on_grid.h_m2, u.shape)

    cell = np.clip(np.searchsorted(xs, states, side="right") - 1, 0, xs.size - 2)
    width = xs[cell + 1] - xs[cell]
    slope = (np.take_along_axis(ux, cell + 1, -1) - np.take_along_axis(ux, cell, -1)) / width
    weight = ((states - xs[cell]) / width)[..., None]
    # Row j: the _d1_rows stencil of u_x at grid node j.
    stencil = _d1_rows(np.eye(xs.size), dx).T
    alpha = np.broadcast_to(1.0 + dt * (at_atoms.hp_x + at_atoms.hp_p * slope), states.shape)

    kernel = np.zeros((levels * n, 2 * levels))
    propagator = np.zeros((n, levels, levels))
    # Row 2 j + c: the tangent value row of the current level for channel (j, c).
    response = np.zeros((2 * levels, xs.size))
    response[-2] = model.g.d_m1(xs, m1[-1])
    # A divergent linearisation overflows on its way to inf/nan, which
    # value_measure_gradient reports as a non-finite tangent.
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(levels - 1, -1, -1):
            # Only the channels of the levels after this one (and the
            # terminal channel) have reached it.
            first = 2 * min(level + 1, levels - 1)
            if level < levels - 1:
                src, row = level + 1, response[first:]
                out = diag[src] * row
                out[:, 1:] += lower[src, 1:] * row[:, :-1]
                out[:, :-1] += upper[src, :-1] * row[:, 1:]
                out[0] += h_m1[src]
                out[1] += h_m2[src]
                response[first:] = out
            # u_x at the level's atoms: the stencil interpolated over each cell.
            lo, hi = stencil[cell[level]], stencil[cell[level] + 1]
            readout = lo + weight[level] * (hi - lo)
            kernel[level * n:(level + 1) * n, first:] = readout @ response[first:].T
            propagator[:, level, level] = 1.0
            propagator[:, level + 1:, level] = np.cumprod(alpha[level:-1], axis=0).T
    return _Linearisation(
        kernel=kernel, propagator=propagator, slope=slope,
        hp_p=np.broadcast_to(dt * at_atoms.hp_p, states.shape),
        hp_m1=np.broadcast_to(dt * at_atoms.hp_m1, states.shape),
        hp_m2=np.broadcast_to(dt * at_atoms.hp_m2, states.shape),
        m1=m1, e=momenta.mean(axis=-1),
    )


class ValueAccess:
    """V(t_k, ., mu_k) of a converged base flow at the solved cloud mu_k of
    each level k, and the tangent of its gradient along displacements of
    that cloud.

    The level index k is the only key: mu_k is the uniform cloud of the
    atoms base.states[k], the only cloud the access answers at, and
    ``n_particles`` is its size.  ``field(k)`` returns V_xx(t_k, ., mu_k) at
    those atoms, interpolated from the base flow's value grid.

    ``tangent`` is the derivative, at mu_k, of the fixed-sweep re-solve map
    of a cloud x at level k: start from the base flow shifted atom by atom,
    states = base.states[k:] + (x - base.states[k]) with the momenta
    base.momenta[k:], reuse the base flow's Brownian increments and run
    RESOLVE_SWEEPS undamped Picard sweeps with no residual check.  The map
    itself is never run here; the tests realise it as the central-difference
    oracle of the tangent.  The derivative is taken in forward mode:
    RESOLVE_SWEEPS tangent-linear sweeps that mirror ``_sweep`` for a whole
    stack of directions at once.  The sweeps are linear with coefficients
    linearised once around the base flow, and a re-solve from level k sees
    only levels >= k, so the access builds their two response kernels once
    (``_linearise``) and every level and every direction reads a block of
    them.
    """

    def __init__(self, model: Model, flow: EquilibriumFlow):
        self.model = model
        self.flow = flow
        self.n_particles = flow.n_particles
        self._lin = _linearise(model, flow)

    def field(self, k: int) -> np.ndarray:
        """V_xx(t_k, ., mu_k) at the atoms of level k's cloud."""
        vf = self.flow.value_field
        return np.interp(self.flow.states[k], vf.xs, vf.u_xx[k])

    def tangent(self, k: int, etas: np.ndarray) -> np.ndarray:
        """d/de of the re-solved u_x(t_k, x_i) at the cloud x + e eta, at e = 0
        and x = base.states[k], one row per direction of the (B, N) stack etas.

        The entering tangent flow is eta at every level with zero momenta, as
        the re-solve's shifted start.  Each sweep takes the moment tangents
        of every level, maps them to du_x at the atoms of levels k..n_t
        through the block of K from level k, and, except the last sweep,
        maps the forcing of the forward step to the state tangents through
        the block of Q.  The directions are the stack axis of both products,
        so each row is computed as in a one-direction request.
        ``value_measure_gradient`` passes only the unique nonzero directions
        up to sign, and fills the other rows from these.
        """
        base, lin, n = self.flow, self._lin, self.n_particles
        states, momenta = base.states[k:], base.momenta[k:]
        kernel, propagator = lin.kernel[k * n:, 2 * k:], lin.propagator[:, k:, k:]
        slope, hp_p, hp_m1, hp_m2 = (a[k:] for a in (lin.slope, lin.hp_p, lin.hp_m1, lin.hp_m2))
        levels = states.shape[0]
        # The entering states broadcast eta over the levels.
        d_states = etas[:, None, :]
        d_momenta = np.zeros((len(etas), levels, n))
        inputs = np.empty((len(etas), n, levels))
        inputs[:, :, 0] = etas
        # (dm1, dm2) of each level side by side: the channel order of K.
        moments = np.empty((len(etas), levels, 2))
        dm1, dm2 = moments[..., 0], moments[..., 1]
        channels = moments.reshape(len(etas), 2 * levels, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            for sweep in range(RESOLVE_SWEEPS):
                # Row-wise means (np.add.reduce / n is ndarray.mean without
                # its wrapper): a matrix product's rounding could depend on
                # how many directions share the request.
                dm1[...] = np.add.reduce(d_states, axis=-1) / n
                dm2[...] = control_mean_tangent(
                    self.model, lin.m1[k:], lin.e[k:], dm1,
                    np.add.reduce(d_momenta, axis=-1) / n,
                    np.add.reduce(d_states * momenta + states * d_momenta, axis=-1) / n)
                if sweep == RESOLVE_SWEEPS - 1:
                    return np.matmul(kernel[:n], channels)[..., 0]
                du_x = np.matmul(kernel, channels).reshape(d_momenta.shape)
                forcing = hp_p * du_x + hp_m1 * dm1[..., None] + hp_m2 * dm2[..., None]
                inputs[:, :, 1:] = forcing[:, :-1].transpose(0, 2, 1)
                d_states = np.ascontiguousarray(
                    np.matmul(propagator, inputs[..., None])[..., 0].transpose(0, 2, 1))
                d_momenta = slope * d_states + du_x
