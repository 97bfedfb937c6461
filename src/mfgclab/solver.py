"""Equilibrium solver for the coupled mean-field system.

Picard iteration on the particle flow: given a flow of (state, momentum)
laws, apply the control-law fixed point at every step, solve the value
function backward on a grid (explicit Euler, central differences,
linear-extrapolation boundary), push particles forward through the
Euler-Maruyama scheme with the optimal drift, and damp.  Brownian increments
are drawn once per solve and reused across sweeps, which turns each sweep
into a deterministic map of the flow and makes the Picard residual
meaningful.  The model sees each level's control law through its two means,
so a sweep passes the per-level moments (m1, m2), not cloud objects.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import EmpiricalMeasure
from .models import Model, fixed_point_phi, hamiltonian, hamiltonian_dp

CFL_SAFETY = 0.45


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


def _d1_rows(u: np.ndarray, dx: float) -> np.ndarray:
    """Central first differences along the space axis, one-sided at the edges."""
    ux = np.empty_like(u)
    ux[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * dx)
    ux[..., 0] = (u[..., 1] - u[..., 0]) / dx
    ux[..., -1] = (u[..., -1] - u[..., -2]) / dx
    return ux


def _d2_rows(u: np.ndarray, dx: float) -> np.ndarray:
    """Central second differences; zero at the edges (linear-extrapolation ghost)."""
    uxx = np.zeros_like(u)
    uxx[..., 1:-1] = (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) / dx**2
    return uxx


@dataclass
class ValueField:
    """Grid values of V(t, x, mu_t) along one solve, with derivative accessors."""

    u: np.ndarray   # (levels, n_x)
    xs: np.ndarray
    ts: np.ndarray
    u_x: np.ndarray = field(init=False)
    u_xx: np.ndarray = field(init=False)

    def __post_init__(self):
        self.u = np.atleast_2d(np.asarray(self.u, dtype=float))
        self.xs = np.asarray(self.xs, dtype=float)
        self.ts = np.atleast_1d(np.asarray(self.ts, dtype=float))
        if self.u.shape != (self.ts.size, self.xs.size):
            raise SolverError(f"value array shape {self.u.shape} does not match grid")
        dx = self.xs[1] - self.xs[0]
        self.u_x = _d1_rows(self.u, dx)
        self.u_xx = _d2_rows(self.u, dx)

    @property
    def levels(self) -> int:
        return self.ts.size

    def value_at(self, level: int, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.xs, self.u[level])

    def ux_at(self, level: int, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.xs, self.u_x[level])

    def uxx_at(self, level: int, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.xs, self.u_xx[level])

    def max_abs_uxx(self, x_window: tuple | None = None) -> float:
        if x_window is None:
            return float(np.max(np.abs(self.u_xx)))
        lo, hi = x_window
        cols = (self.xs >= lo) & (self.xs <= hi)
        return float(np.max(np.abs(self.u_xx[:, cols])))


@dataclass
class PicardSettings:
    max_iter: int = 80
    damping: float = 0.5
    tol: float = 1e-9
    fixed_sweeps: int | None = None

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise SolverError(f"damping must lie in (0, 1], got {self.damping}")
        if self.max_iter < 1:
            raise SolverError("max_iter must be positive")


@dataclass
class EquilibriumFlow:
    """Converged (or fixed-sweep) equilibrium flow and its value field."""

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

    def mu(self, k: int) -> EmpiricalMeasure:
        n = self.n_particles
        return EmpiricalMeasure(self.states[k][:, None], np.full(n, 1.0 / n))

    def to_csv(self, path) -> None:
        """One row per (time step, particle): t, index, state, control, u_x."""
        import csv

        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t", "particle", "state", "control", "u_x"])
            for k, t in enumerate(self.value_field.ts):
                for i in range(self.n_particles):
                    writer.writerow([repr(float(t)), i,
                                     repr(float(self.states[k, i])),
                                     repr(float(self.controls[k, i])),
                                     repr(float(self.momenta[k, i]))])

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


def _quantile_dist(a: np.ndarray, b: np.ndarray) -> float:
    """flow_distance on raw equal-size uniform clouds (sorted RMS difference)."""
    return float(np.sqrt(np.mean((np.sort(a) - np.sort(b)) ** 2)))


def _moments(states: np.ndarray, controls: np.ndarray) -> tuple:
    """Per-level means (m1, m2) of the uniform (state, control) laws, as lists."""
    w = np.full(states.shape[1], 1.0 / states.shape[1])
    return (states @ w).tolist(), (controls @ w).tolist()


def _terminal_law(states: np.ndarray) -> EmpiricalMeasure:
    n = states.shape[1]
    return EmpiricalMeasure(states[-1][:, None], np.full(n, 1.0 / n))


def _backward_value(model: Model, xs: np.ndarray, dx: float, dt: float,
                    m1: list, m2: list, mu_terminal: EmpiricalMeasure) -> np.ndarray:
    """Explicit Euler backward sweep of the value grid against frozen control laws."""
    levels = len(m1)
    u = np.empty((levels, xs.size))
    u[-1] = model.g(xs, mu_terminal)
    for k in range(levels - 2, -1, -1):
        row = u[k + 1]
        ux = _d1_rows(row, dx)
        uxx = _d2_rows(row, dx)
        u[k] = row + dt * (0.5 * uxx + hamiltonian(model, xs, ux, m1[k + 1], m2[k + 1]))
        if not np.all(np.isfinite(u[k])):
            raise SolverError(
                f"value sweep produced non-finite values at level {k}; the "
                "advection speed likely exceeds the explicit scheme's stability range"
            )
    return u


def _solve_on_levels(model: Model, x0: np.ndarray, xs: np.ndarray, dx: float,
                     dt: float, n_steps: int, brownian: np.ndarray,
                     picard: PicardSettings,
                     init_states: np.ndarray | None = None,
                     init_momenta: np.ndarray | None = None):
    """Core Picard loop; returns (states, momenta, controls, u, iters, history)."""
    n = x0.shape[0]
    levels = n_steps + 1
    sqrt_dt = np.sqrt(dt)

    if init_states is not None:
        states = np.array(init_states, dtype=float)
        momenta = np.array(init_momenta, dtype=float)
        if states.shape != (levels, n) or momenta.shape != (levels, n):
            raise SolverError("warm-start arrays do not match the solve dimensions")
        states[0] = x0
    else:
        states = np.empty((levels, n))
        states[0] = x0
        for k in range(n_steps):
            states[k + 1] = states[k] + sqrt_dt * brownian[k]
        momenta = np.zeros((levels, n))

    history: list[float] = []
    target_sweeps = picard.fixed_sweeps if picard.fixed_sweeps is not None else picard.max_iter
    converged = False
    u = None
    prop_states = states
    prop_momenta = momenta

    for sweep in range(target_sweeps):
        m1, m2 = _moments(states, fixed_point_phi(model, states, momenta))
        u = _backward_value(model, xs, dx, dt, m1, m2, _terminal_law(states))
        ux_rows = _d1_rows(u, dx)

        prop_states = np.empty_like(states)
        prop_states[0] = x0
        for k in range(n_steps):
            xk = prop_states[k]
            p_at = np.interp(xk, xs, ux_rows[k])
            drift = hamiltonian_dp(model, xk, p_at, m1[k], m2[k])
            prop_states[k + 1] = xk + dt * drift + sqrt_dt * brownian[k]
        if np.any(prop_states < xs[0]) or np.any(prop_states > xs[-1]):
            bad = int(np.argmax(np.any((prop_states < xs[0]) | (prop_states > xs[-1]), axis=1)))
            raise SolverError(
                f"particles escaped the grid at level {bad}; enlarge the domain "
                "or shrink the horizon"
            )
        prop_momenta = np.empty_like(momenta)
        for k in range(levels):
            prop_momenta[k] = np.interp(prop_states[k], xs, ux_rows[k])

        residual = 0.0
        for k in range(levels):
            residual = max(residual, _quantile_dist(states[k], prop_states[k]),
                           _quantile_dist(momenta[k], prop_momenta[k]))
        history.append(residual)

        if picard.fixed_sweeps is None and residual <= picard.tol:
            converged = True
            states, momenta = prop_states, prop_momenta
            break
        omega = picard.damping
        states = omega * prop_states + (1.0 - omega) * states
        momenta = omega * prop_momenta + (1.0 - omega) * momenta

    if picard.fixed_sweeps is not None:
        states, momenta = prop_states, prop_momenta
    elif not converged:
        raise PicardError(
            f"Picard iteration did not reach tol={picard.tol} within "
            f"{picard.max_iter} sweeps (last residual {history[-1]:.3e})",
            history,
        )

    # The accepted flow is the final Picard proposal; its interior value rows
    # were solved against the entering flow (one sweep behind, which is what
    # best_response_gap measures), but the terminal condition is refreshed so
    # that u(T, .) = g(., mu_T) holds exactly for the stored flow.
    u[-1] = model.g(xs, _terminal_law(states))
    momenta[-1] = np.interp(states[-1], xs, _d1_rows(u[-1], dx))
    controls = fixed_point_phi(model, states, momenta)
    return states, momenta, controls, u, len(history), history


def solve_mfgc(model: Model, mu0: EmpiricalMeasure, grid: Grid,
               picard: PicardSettings | None = None, seed: int = 0,
               init: tuple | None = None) -> EquilibriumFlow:
    """Solve the coupled equilibrium system from the initial state law mu0.

    The returned flow is the accepted Picard proposal: its momenta equal the
    value gradient interpolated at its own states, and its per-step control
    laws are the exact fixed point of its (state, momentum) laws.  The stored
    value grid is the one the final sweep solved against the previous flow;
    at tolerance the two coincide up to the Picard residual, which is what
    ``best_response_gap`` measures.
    """
    picard = picard if picard is not None else PicardSettings()
    if mu0.dim != 1:
        raise SolverError("the solver is one-dimensional")
    margin = max(4.0 * grid.dx, 0.02 * (grid.x_max - grid.x_min))
    if np.any(mu0.x < grid.x_min + margin) or np.any(mu0.x > grid.x_max - margin):
        raise SolverError(
            f"initial particles must lie inside [{grid.x_min + margin}, "
            f"{grid.x_max - margin}]"
        )
    if not mu0.is_uniform():
        raise SolverError("the solver requires uniform particle weights")

    rng = np.random.default_rng(seed)
    brownian = rng.standard_normal((grid.n_t, mu0.n))
    init_states = init[0] if init is not None else None
    init_momenta = init[1] if init is not None else None
    states, momenta, controls, u, iters, history = _solve_on_levels(
        model, mu0.x.copy(), grid.xs, grid.dx, grid.dt, grid.n_t, brownian,
        picard, init_states, init_momenta,
    )
    return EquilibriumFlow(
        grid=grid, states=states, momenta=momenta, controls=controls,
        value_field=ValueField(u, grid.xs, grid.ts),
        picard_iterations=iters, final_residual=history[-1],
        residual_history=history, brownian=brownian, seed=seed,
    )


def terminal_field(model: Model, mu: EmpiricalMeasure, xs: np.ndarray,
                   t_end: float) -> ValueField:
    """The exact terminal slice V(T, ., mu) = g(., mu) as a one-level field."""
    return ValueField(model.g(xs, mu)[None, :], xs, np.array([t_end]))


def value_at(model: Model, mu: EmpiricalMeasure, t: float, grid: Grid,
             picard: PicardSettings | None = None, seed: int = 0) -> ValueField:
    """V(t, ., mu) as the first slice of a fresh solve on [t, t_end].

    This re-solve is the only access path to the value function as a function
    of the measure argument.
    """
    if t > grid.t_end + 1e-12 or t < grid.t0 - 1e-12:
        raise SolverError(f"time {t} outside the grid horizon")
    if t >= grid.t_end - 1e-12:
        return terminal_field(model, mu, grid.xs, grid.t_end)
    n_steps = max(8, int(round((grid.t_end - t) / grid.dt)))
    sub = Grid(grid.x_min, grid.x_max, grid.n_x, t, grid.t_end, n_steps)
    flow = solve_mfgc(model, mu, sub, picard, seed)
    return flow.value_field


def best_response_gap(model: Model, flow: EquilibriumFlow) -> float:
    """Sup-norm gap between the stored value grid and a re-solve against the
    frozen converged control laws; certifies the equilibrium property."""
    grid = flow.grid
    m1, m2 = _moments(flow.states, flow.controls)
    u2 = _backward_value(model, grid.xs, grid.dx, grid.dt, m1, m2, _terminal_law(flow.states))
    return float(np.max(np.abs(u2 - flow.value_field.u)))


class ValueAccess:
    """Cached access to V(t_k, ., mu) via warm-started fixed-sweep re-solves.

    Bound to a base grid and (optionally) a converged base flow.  Re-solves
    reuse the base flow's Brownian increments and run a fixed number of
    undamped sweeps so that paired perturbation solves share their iteration
    error and differences of their outputs stay smooth.
    """

    def __init__(self, model: Model, grid: Grid, picard: PicardSettings | None = None,
                 seed: int = 0, base_flow: EquilibriumFlow | None = None,
                 sweeps: int = 8, damping: float = 1.0, cache_size: int = 128):
        self.model = model
        self.grid = grid
        self.picard = picard if picard is not None else PicardSettings()
        self.seed = seed
        self.base_flow = base_flow
        self.sweeps = sweeps
        self.damping = damping
        self._cache: dict = {}
        self._cache_size = cache_size

    def level_of(self, t: float) -> int:
        k = int(round((t - self.grid.t0) / self.grid.dt))
        if not 0 <= k <= self.grid.n_t:
            raise SolverError(f"time {t} outside the grid horizon")
        return k

    def _brownian_tail(self, k: int, n: int) -> np.ndarray:
        if self.base_flow is not None and self.base_flow.n_particles == n:
            return self.base_flow.brownian[k:]
        rng = np.random.default_rng([self.seed, k])
        return rng.standard_normal((self.grid.n_t - k, n))

    def _warm_start(self, k: int, mu: EmpiricalMeasure):
        base = self.base_flow
        if base is None or base.n_particles != mu.n:
            return None, None
        shift = mu.x - base.states[k]
        return base.states[k:] + shift, base.momenta[k:].copy()

    def field(self, t: float, mu: EmpiricalMeasure) -> ValueField:
        """Value field on [t_k, t_end] from the state law mu at the level of t."""
        k = self.level_of(t)
        key = (k, mu.points.tobytes(), mu.weights.tobytes())
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if k == self.grid.n_t:
            out = terminal_field(self.model, mu, self.grid.xs, self.grid.t_end)
        else:
            init_states, init_momenta = self._warm_start(k, mu)
            settings = PicardSettings(
                max_iter=self.sweeps, damping=self.damping,
                tol=self.picard.tol, fixed_sweeps=self.sweeps,
            )
            _, _, _, u, _, _ = _solve_on_levels(
                self.model, mu.x.copy(), self.grid.xs, self.grid.dx, self.grid.dt,
                self.grid.n_t - k, self._brownian_tail(k, mu.n), settings,
                init_states, init_momenta,
            )
            out = ValueField(u, self.grid.xs, self.grid.ts[k:])
        if len(self._cache) >= self._cache_size:
            self._cache.pop(next(iter(self._cache)))
        self._cache[key] = out
        return out
