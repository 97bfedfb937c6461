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

The per-level loops (the backward sweep, the forward push and the response
pass of ``_linearise``) are bound by numpy's per-call cost, not by
arithmetic, so each level makes a fixed handful of calls that write into
buffers allocated once per call: the time step and the stencils' scales
are folded into the Hamiltonian's terms before the loop, and stencils and
shifted rows are slices and views.  No buffer outlives its call.
``ValueAccess`` reads V_xx of the solved flow at the cloud of a level k,
and gives the measure derivative of the value gradient along displacements
of that cloud: the forward-mode derivative of a fixed number of undamped
sweeps from the shifted base flow, with no displaced cloud re-solved.  A
tangent sweep sees a displacement only through the per-level means of its
two moments, so the access linearises once around the base flow into one
channel map of those means, and a re-solve from level k reads it through a
rank-n downdate carried by a cursor over the levels.
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
    and dt / (2 dx) into C, so that

        u_k = u_{k+1} + dt / (2 dx^2) (undivided u_xx) - (A' + w B0')^2
              + w C' + dt (D1 + x Q).

    The last term fills the rows of u before the sweep.  A term with an
    x-part (f0x, b0x or a non-constant b1_x) is a (levels, n_x) array;
    otherwise u is the only array of the grid's size.  Each level writes its
    stencils and products into a few buffers of one row, allocated once per
    call.
    """
    n_x = xs.size
    # The step to level k reads the terms of level k + 1.
    a, b, c, d1, q = hamiltonian_terms(model, xs, mean_terms(model, m1[1:, None], m2[1:, None]))
    # The terms are fresh arrays of this call, scaled in place.
    root = np.sqrt(0.5 * dt)
    a *= root
    b *= root / (2.0 * dx)
    c *= dt / (2.0 * dx)
    kappa = dt / (2.0 * dx**2)
    u = np.empty((m1.size, n_x))
    # dt (x Q + D1) as one contraction: numpy would buffer an operand that a
    # ufunc broadcasts over the rows.
    np.einsum("kt,tj->kj", np.column_stack((dt * q[:, 0], np.ones(q.shape[0]))),
              np.stack((xs, np.broadcast_to(dt * d1, xs.shape))), out=u[:-1])
    u[-1] = model.g(xs, terminal_atoms)
    diff, lap = np.empty(n_x - 1), np.empty(n_x - 2)
    w, square, term = np.empty(n_x), np.empty(n_x), np.empty(n_x)
    diff_hi, diff_lo, diff_ends = diff[1:], diff[:-1], diff[::n_x - 2]
    w_inner, w_ends = w[1:-1], w[::n_x - 1]
    # An unstable sweep overflows on its way to inf/nan; the check below
    # reports it, with its level, instead of numpy's floating-point warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for row, out, a_k, b_k, c_k in zip(u[:0:-1], u[-2::-1], a[::-1], b[::-1], c[::-1]):
            np.subtract(row[1:], row[:-1], out=diff)
            np.add(diff_hi, diff_lo, out=w_inner)
            np.multiply(diff_ends, 2.0, out=w_ends)
            np.multiply(w, b_k, out=square)
            square += a_k
            np.square(square, out=square)
            np.multiply(w, c_k, out=term)
            term -= square
            np.subtract(diff_hi, diff_lo, out=lap)
            lap *= kappa
            out += term
            out[1:-1] += lap
            out += row
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
    push reads them at every level but the last.  The push builds the noise
    sqrt(dt) brownian and the per-level ``mean_terms`` tuples once per sweep,
    and scales the drift and adds to it in place.
    """
    m1, m2 = _moments(states, fixed_point_phi(model, states, momenta))
    u = _backward_value(model, xs, dx, dt, m1, m2, states[-1])
    ux = _d1_rows(u, dx)

    means = list(zip(*mean_terms(model, m1[:, None], m2[:, None])))
    noise = np.sqrt(dt) * brownian
    prop_states = np.empty_like(states)
    prop_momenta = np.empty_like(momenta)
    prop_states[0] = x0
    for k in range(brownian.shape[0]):
        xk, step = prop_states[k], prop_states[k + 1]
        prop_momenta[k] = np.interp(xk, xs, ux[k])
        drift = hamiltonian_dp(model, xk, prop_momenta[k], means[k])
        drift *= dt
        np.add(xk, drift, out=step)
        step += noise[k]
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
    flow, as one linear map of the per-level channel means.

    A channel (j, c) is a unit tangent of the moment m1 (c = 0) or m2
    (c = 1) at level j, with index 2 j + c.  K[l] is the response of du_x
    at the base atoms of level l to each channel through the backward sweep
    of the value grid, with the terminal dg/dm1 in channel (n_t, 0).  It is
    zero on the channels of levels < l, so ``kernel[l]`` (n, 2 (levels - l))
    keeps only the channels of levels >= l, the ones a re-solve from level l
    reads; its first two columns are zero but at the terminal level.

    At the atoms, the momentum tangent is dP = slope[l] dX + du_x and the
    forward step maps dX_l to alpha[l] dX_l + E_l c, with the forcing E_l c
    = hp_p[l] du_x + hp_m1[l] dm1_l + hp_m2[l] dm2_l.  The next channels are
    atom means, dm1_l = mean(dX_l) and, through ``control_mean_tangent``,
    dm2_l = mean(W_D[l, 1] dX_l) + mean(W_U[l] du_x) with weights of the
    base atoms of level l; ``weights`` holds W_D (W_D[l, 0] = 1/n) and
    ``first`` the channel weights of the entering sweep (state tangent eta
    at every level, zero momentum tangent).

    So one sweep of a re-solve from level k is affine in its channels:
    c <- S_k c + B_k eta on the channels of levels >= k, where the gain B_k
    has rows W_D[l] Q(l, k), with the propagator Q(l, k) = alpha[k] ...
    alpha[l - 1] (``gain``).  ``channel_map`` is S_0 = W_U K + the rows
    W_D[l] Y_l, where Y_l (n, 2 levels) is the state tangent of level l per
    unit channel with no level displaced: Y_0 = 0, Y_{l + 1} = alpha[l] Y_l
    + E_l.  A re-solve from k drops the forcing of every level m < k, a
    rank-n downdate of S_0 per level; as Q(l, m + 1) = Q(l, k) Q(k, m + 1),
    these sum to one rank-n term, S_k = S_0 - B_k Y_k.  On the channels of
    levels >= k, Y_k sees only the du_x part of each E_m, which ``advance``
    steps.  The time step is folded into every coefficient.
    """

    kernel: list             # K[l], (n, 2 (levels - l)) per level l
    channel_map: np.ndarray  # (2 levels, 2 levels): S_0
    first: np.ndarray        # (2 levels, n)
    weights: np.ndarray      # (levels, 2, n): W_D
    alpha: np.ndarray        # (levels, n)
    hp_p: np.ndarray         # (levels, n)

    def advance(self, response: np.ndarray, level: int, start: int = 0) -> None:
        """Step the channels >= start of the (n, 2 levels) state response Y
        across the forward step of ``level`` in place: Y <- alpha Y + hp_p
        du_x.  The forcing's moment terms hp_m1, hp_m2 enter the channels of
        ``level`` itself, which a re-solve from a later level never reads;
        the build adds them."""
        response[:, start:] *= self.alpha[level][:, None]
        reach = max(start, 2 * level)
        response[:, reach:] += self.hp_p[level][:, None] * self.kernel[level][:, reach - 2 * level:]

    def gain(self, k: int) -> np.ndarray:
        """B_k, (2 (levels - k), n): the channels of levels >= k per unit
        state tangent at the atoms of level k."""
        propagator = np.empty(self.alpha[k:].shape)
        propagator[0] = 1.0
        np.cumprod(self.alpha[k:-1], axis=0, out=propagator[1:])
        return (self.weights[k:] * propagator[:, None, :]).reshape(-1, propagator.shape[1])


def _linearise(model: Model, flow: EquilibriumFlow) -> _Linearisation:
    """The channel map of the re-solve map around the base flow.

    The moments are those of the base flow's fixed point and the value grid
    is one backward sweep against them: a re-solve at zero displacement stays
    at this flow up to the Picard residual, so every sweep of it shares one
    linearisation.  K comes from one backward pass over the levels on the
    stack of channel responses, which keeps only the channels of the levels
    still ahead; S_0 from one forward pass of the state response Y.

    The backward pass steps the response rows between two padded buffers
    (ping-pong), with the three-band step on whole rows shifted by one node,
    and reads du_x at the atoms from the four grid nodes that each atom's
    interpolated ``_d1_rows`` stencil touches.
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
    # u_x at an atom interpolates the _d1_rows stencils of its cell's two
    # nodes, which touch only the four nodes from cell - 1 on (moved inward
    # at the edges): the readout of each atom is a window of four nodes and
    # their weights.
    window = np.clip(cell - 1, 0, xs.size - 4)[..., None] + np.arange(4)
    stencil = _d1_rows(np.eye(xs.size), dx).T
    lo, hi = stencil[cell[..., None], window], stencil[cell[..., None] + 1, window]
    readout = lo + weight * (hi - lo)

    # The blocks of K share one buffer: one allocation, which goes back to
    # the system whole with the access instead of leaving holes in the heap.
    widths = 2 * np.arange(levels, 0, -1)
    kernel = [block.reshape(n, -1) for block in
              np.split(np.zeros(n * widths.sum()), n * np.cumsum(widths)[:-1])]
    # Row 2 j + c of a (2 levels, n_x) buffer: the tangent value row of the
    # current level for channel (j, c).  Each level steps the rows of the
    # channels that have reached it from one buffer into the other, with the
    # band products in a third; the rows of the other channels stay zero in
    # both.  A buffer is padded with one zero before and after its rows, so
    # that the rows shifted by one node are views of whole rows: the one
    # node a shift moves across a row's end meets the zero lower[:, 0] or
    # upper[:, -1].
    n_x, size = xs.size, 2 * levels * xs.size
    response, spare = np.zeros(size + 2), np.zeros(size + 2)
    band, at_nodes = np.empty(size), np.empty(2 * levels * n * 4)
    response[1 + size - 2 * n_x:1 + size - n_x] = model.g.d_m1(xs, m1[-1])
    # A divergent linearisation overflows on its way to inf/nan, which
    # value_measure_gradient reports as a non-finite tangent.
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(levels - 1, -1, -1):
            # Only the channels of the levels after this one (and the
            # terminal channel) have reached it.
            first = 2 * min(level + 1, levels - 1)
            start, shape = 1 + first * n_x, (2 * levels - first, n_x)
            if level < levels - 1:
                src = level + 1
                row = response[start:start + shape[0] * n_x].reshape(shape)
                left = response[start - 1:start - 1 + row.size].reshape(shape)    # row[:, j - 1]
                right = response[start + 1:start + 1 + row.size].reshape(shape)   # row[:, j + 1]
                out = spare[start:start + row.size].reshape(shape)
                prod = band[:row.size].reshape(shape)
                np.multiply(diag[src], row, out=out)
                np.multiply(lower[src], left, out=prod)
                out += prod
                np.multiply(upper[src], right, out=prod)
                out += prod
                out[0] += h_m1[src]
                out[1] += h_m2[src]
                response, spare = spare, response
            grids = response[start:start + shape[0] * n_x].reshape(shape)
            gathered = at_nodes[:shape[0] * n * 4].reshape(shape[0], n, 4)
            np.take(grids, window[level], axis=1, out=gathered, mode="clip")
            np.einsum("cit,it->ic", gathered, readout[level],
                      out=kernel[level][:, first - 2 * level:])

    # control_mean_tangent is linear in the tangents (dm1, de, ds) of the
    # means of x, p and x p; its coefficients per level.
    a, b, g = (control_mean_tangent(model, m1, momenta.mean(axis=-1), *unit)[:, None]
               for unit in np.eye(3))
    mean = np.full(states.shape, 1.0 / n)
    lin = _Linearisation(
        kernel=kernel,
        channel_map=np.zeros((2 * levels, 2 * levels)),
        first=np.stack((mean, (a + g * momenta) / n), axis=1).reshape(2 * levels, n),
        weights=np.stack((mean, (a + b * slope + g * (momenta + states * slope)) / n), axis=1),
        alpha=np.broadcast_to(1.0 + dt * (at_atoms.hp_x + at_atoms.hp_p * slope), states.shape),
        hp_p=np.broadcast_to(dt * at_atoms.hp_p, states.shape),
    )
    hp_m1, hp_m2 = (np.broadcast_to(dt * h, states.shape)
                    for h in (at_atoms.hp_m1, at_atoms.hp_m2))
    channel_map, state_response = lin.channel_map, np.zeros((n, 2 * levels))
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(levels - 1):
            lin.advance(state_response, level)
            state_response[:, 2 * level] += hp_m1[level]
            state_response[:, 2 * level + 1] += hp_m2[level]
            channel_map[2 * level + 2:2 * level + 4] = lin.weights[level + 1] @ state_response
        # The m2 channels also read du_x itself, with weights (b + g x) / n.
        for level, (v, block) in enumerate(zip((b + g * states) / n, kernel)):
            channel_map[2 * level + 1, 2 * level:] += v @ block
    return lin


class ValueAccess:
    """V(t_k, ., mu_k) of a converged base flow at the solved cloud mu_k of
    each level k, and the tangent of its gradient along displacements of
    that cloud.

    The level index k is the only key: mu_k is the uniform cloud of the
    atoms base.states[k], the only cloud the access answers at, and
    ``n_particles`` is its size.  ``field(k)`` returns V_xx(t_k, ., mu_k) at
    those atoms, interpolated from the base flow's value grid.  A level
    outside 0..n_t is a ``SolverError``; a negative k is no alias from the
    end.

    ``tangent`` is the derivative, at mu_k, of the fixed-sweep re-solve map
    of a cloud x at level k: start from the base flow shifted atom by atom,
    states = base.states[k:] + (x - base.states[k]) with the momenta
    base.momenta[k:], reuse the base flow's Brownian increments and run
    RESOLVE_SWEEPS undamped Picard sweeps with no residual check.  The map
    itself is never run here; the tests realise it as the central-difference
    oracle of the tangent.  The tangent sweeps are linear with coefficients
    linearised once around the base flow, and a tangent sweep reads a
    displacement only through the per-level means of its channels, so the
    access builds one channel map S_0 once (``_linearise``) and a re-solve
    from level k sweeps c <- S_k c + B_k eta on the channels of levels >= k.

    S_k is S_0 downdated by the forcing of every level below k, which sums
    to the rank-n term B_k Y_k.  The access keeps a cursor: the state
    response Y_k of its last level k, on the channels of levels >= k, the
    only ones a request at or above k reads.  Such a request steps those
    channels forward level by level (``_Linearisation.advance``); a request
    below the cursor restarts from Y_0 = 0.  A step is elementwise, so each
    entry of Y_k is the same sequence of operations from Y_0 whatever came
    before, and no history of requests can change a bit of an answer: a
    fresh access and a reused one agree exactly.
    """

    def __init__(self, model: Model, flow: EquilibriumFlow):
        self.model = model
        self.flow = flow
        self.n_particles = flow.n_particles
        self._lin = _linearise(model, flow)
        self._level = 0
        self._response = np.zeros((flow.n_particles, 2 * flow.states.shape[0]))

    def _checked(self, k: int) -> int:
        n_t = self.flow.grid.n_t
        if not 0 <= k <= n_t:
            raise SolverError(f"level {k} is outside the flow's levels 0..{n_t}")
        return k

    def field(self, k: int) -> np.ndarray:
        """V_xx(t_k, ., mu_k) at the atoms of level k's cloud."""
        vf = self.flow.value_field
        return np.interp(self.flow.states[self._checked(k)], vf.xs, vf.u_xx[k])

    def tangent(self, k: int, etas: np.ndarray) -> np.ndarray:
        """d/de of the re-solved u_x(t_k, x_i) at the cloud x + e eta, at e = 0
        and x = base.states[k], one row per direction of the (B, N) stack etas.

        The entering sweep's channels are ``first`` times eta, and each of
        the other RESOLVE_SWEEPS - 1 sweeps maps the channels c of levels >=
        k to S_0 c + B_k (eta - Y_k c): the rows of S_0 with the state
        tangent at level k reset from the undisplaced response Y_k c to eta.
        The last channels map to du_x at the atoms through K[k].  The
        directions are the stack axis of every product, so each row is
        computed as in a one-direction request.  ``value_measure_gradient``
        passes only the unique nonzero directions up to sign, and fills the
        other rows from these.
        """
        lin, start = self._lin, 2 * self._checked(k)
        if k < self._level:
            self._level = 0
            self._response[...] = 0.0
        eta = etas[..., None]
        with np.errstate(over="ignore", invalid="ignore"):
            while self._level < k:
                lin.advance(self._response, self._level, start)
                self._level += 1
            channel_map, response = lin.channel_map[start:, start:], self._response[:, start:]
            gain = lin.gain(k)
            channels = np.matmul(lin.first[start:], eta)
            for _ in range(RESOLVE_SWEEPS - 1):
                channels = (np.matmul(channel_map, channels)
                            + np.matmul(gain, eta - np.matmul(response, channels)))
            return np.matmul(lin.kernel[k], channels)[..., 0]
