"""Equilibrium solver for the coupled mean-field system.

Picard iteration on the particle flow: given a flow of (state, momentum)
laws, apply the control-law fixed point at every step, solve the value
function backward on a grid (explicit Euler, central differences,
linear-extrapolation boundary), push particles forward through the
Euler-Maruyama scheme with the optimal drift, and damp.  Brownian increments
are drawn once per solve and reused across sweeps, which turns each sweep
into a deterministic map of the flow and makes the Picard residual
meaningful.  The model sees each level's control law through its two means,
so a sweep passes the per-level moments (m1, m2).  A state law is a uniform
cloud given by its 1-D array of atoms.

One sweep is the Picard map ``_sweep``.  ``solve_mfgc`` iterates it, damped,
to tolerance; ``ValueAccess`` re-solves V(t, ., mu) for displaced clouds by a
fixed number of undamped sweeps from the converged base flow.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models import Model, fixed_point_phi, hamiltonian, hamiltonian_dp

CFL_SAFETY = 0.45
RESOLVE_SWEEPS = 6


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

    def ux_at(self, level: int, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.xs, self.u_x[level])

    def uxx_at(self, level: int, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.xs, self.u_xx[level])


@dataclass
class PicardSettings:
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
    """2-Wasserstein distance of two equal-size uniform d=1 clouds.

    The sorted-quantile coupling is optimal on the line, so this is the RMS
    difference of the order statistics; the Picard residual is its maximum
    over levels, for states and for momenta.
    """
    return float(np.sqrt(np.mean((np.sort(a) - np.sort(b)) ** 2)))


def _moments(states: np.ndarray, controls: np.ndarray) -> tuple:
    """Per-level means (m1, m2) of the uniform (state, control) laws, as lists."""
    w = np.full(states.shape[1], 1.0 / states.shape[1])
    return (states @ w).tolist(), (controls @ w).tolist()


def _backward_value(model: Model, xs: np.ndarray, dx: float, dt: float,
                    m1: list, m2: list, terminal_atoms: np.ndarray) -> np.ndarray:
    """Explicit Euler backward sweep of the value grid against frozen control laws."""
    levels = len(m1)
    u = np.empty((levels, xs.size))
    u[-1] = model.g(xs, terminal_atoms)
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


def _sweep(model: Model, x0: np.ndarray, xs: np.ndarray, dx: float, dt: float,
           brownian: np.ndarray, states: np.ndarray, momenta: np.ndarray) -> tuple:
    """One Picard map: control-law moments, backward value sweep, forward
    particle push from x0 and the escape check.

    Returns the proposed (states, momenta) and the value grid solved against
    the entering flow.
    """
    n_steps = brownian.shape[0]
    sqrt_dt = np.sqrt(dt)
    m1, m2 = _moments(states, fixed_point_phi(model, states, momenta))
    u = _backward_value(model, xs, dx, dt, m1, m2, states[-1])
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
    for k in range(n_steps + 1):
        prop_momenta[k] = np.interp(prop_states[k], xs, ux_rows[k])
    return prop_states, prop_momenta, u


def solve_mfgc(model: Model, x0: np.ndarray, grid: Grid,
               picard: PicardSettings | None = None, seed: int = 0) -> EquilibriumFlow:
    """Solve the coupled equilibrium system from the initial cloud of atoms x0.

    Damped Picard iteration of ``_sweep`` from the uncontrolled flow until
    the residual reaches ``picard.tol``.  The returned flow is the accepted
    Picard proposal: its momenta equal the value gradient interpolated at its
    own states, and its per-step control laws are the exact fixed point of
    its (state, momentum) laws.  The stored value grid is the one the final
    sweep solved against the previous flow; at tolerance the two coincide up
    to the Picard residual, which is what ``best_response_gap`` measures.
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
    for _ in range(picard.max_iter):
        prop_states, prop_momenta, u = _sweep(model, x0, xs, dx, dt, brownian,
                                              states, momenta)
        residual = 0.0
        for k in range(grid.n_t + 1):
            residual = max(residual, _quantile_dist(states[k], prop_states[k]),
                           _quantile_dist(momenta[k], prop_momenta[k]))
        history.append(residual)
        if residual <= picard.tol:
            states, momenta = prop_states, prop_momenta
            break
        omega = picard.damping
        states = omega * prop_states + (1.0 - omega) * states
        momenta = omega * prop_momenta + (1.0 - omega) * momenta
    else:
        raise PicardError(
            f"Picard iteration did not reach tol={picard.tol} within "
            f"{picard.max_iter} sweeps (last residual {history[-1]:.3e})",
            history,
        )

    # The accepted flow is the final Picard proposal; its interior value rows
    # were solved against the entering flow (one sweep behind, which is what
    # best_response_gap measures), but the terminal condition is refreshed so
    # that u(T, .) = g(., mu_T) holds exactly for the stored flow.
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


def best_response_gap(model: Model, flow: EquilibriumFlow) -> float:
    """Sup-norm gap between the stored value grid and a re-solve against the
    frozen converged control laws; certifies the equilibrium property."""
    grid = flow.grid
    m1, m2 = _moments(flow.states, flow.controls)
    u2 = _backward_value(model, grid.xs, grid.dx, grid.dt, m1, m2, flow.states[-1])
    return float(np.max(np.abs(u2 - flow.value_field.u)))


class ValueAccess:
    """V(t_k, ., mu) for clouds mu near a converged base flow, by re-solves.

    A cloud is the 1-D array x of its atoms.  A re-solve at level k starts
    from the base flow shifted atom by atom, states = base.states[k:] +
    (x - base.states[k]) with the momenta base.momenta[k:], reuses the base
    flow's Brownian increments and runs RESOLVE_SWEEPS undamped Picard sweeps
    with no residual check.  Paired perturbation solves therefore share their
    iteration error, and differences of their outputs stay smooth.  Every
    cloud must be a displacement of the base cloud, so it has the base flow's
    particle count.

    Callers read only the first slice of a field, so the cache keeps a
    one-level copy per (level, atom bytes) for the life of the object; a -eta
    perturbation asks for exactly the clouds that +eta asked for.
    """

    def __init__(self, model: Model, flow: EquilibriumFlow):
        self.model = model
        self.flow = flow
        self._cache: dict = {}

    def level_of(self, t: float) -> int:
        grid = self.flow.grid
        k = int(round((t - grid.t0) / grid.dt))
        if not 0 <= k <= grid.n_t:
            raise SolverError(f"time {t} outside the grid horizon")
        return k

    def field(self, t: float, x: np.ndarray) -> ValueField:
        """The one-level field V(t_k, ., mu) at the level k of t, for the
        uniform cloud mu of the atoms x."""
        k = self.level_of(t)
        key = (k, x.tobytes())
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        base, grid = self.flow, self.flow.grid
        if x.shape != (base.n_particles,):
            raise SolverError(f"cloud of shape {x.shape} cannot be re-solved from a "
                              f"base flow of {base.n_particles} particles")
        if k == grid.n_t:
            out = terminal_field(self.model, x, grid.xs, grid.t_end)
        else:
            x0 = x.copy()
            states = base.states[k:] + (x0 - base.states[k])
            states[0] = x0
            momenta = base.momenta[k:]
            for _ in range(RESOLVE_SWEEPS):
                states, momenta, u = _sweep(self.model, x0, grid.xs, grid.dx, grid.dt,
                                            base.brownian[k:], states, momenta)
            out = ValueField(u[:1].copy(), grid.xs, grid.ts[k:k + 1])
        self._cache[key] = out
        return out
