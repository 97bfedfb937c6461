"""End-to-end verification that monotonicity propagates backward from the
terminal cost along the computed value function.

The first-variation particle system couples the equilibrium states X with
their initial-condition sensitivities dX, the curvature field G = Vxx dX,
and the measure-derivative field U_i = (1/N) sum_j d_x d_mu V(X_i, x_j) dX_j.
The time derivatives of the three monotonicity functionals have exact
quadratic expressions in (dX, G, U) and the reduced-Hamiltonian derivatives;
traces of both sides are recorded and the claimed signs checked step by step.

The three kinds are the one place where Lasry-Lions, displacement and
anti-monotone differ: ``LasryLions``, ``Displacement`` and ``AntiMonotone``
each hold their parameters, functional, verdict sign, Hamiltonian gate and
propagation rules, and ``MONOTONICITY_KINDS`` maps each INI name to its class.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .calculus import value_measure_gradient
from .conditions import (
    check_anti_assumption,
    check_disp_condition,
    check_ll_condition,
    dx2_form,
    dx_velocity,
    ibar_form,
    ll_form,
    make_condition_samples,
)
from .models import HatTable, Model, hat_derivative_table
from .monotonicity import (
    LambdaVec,
    MonotonicityError,
    Pairings,
    direction_battery,
    mon_anti,
    mon_disp,
    mon_ll,
    pairings,
    tolerance_scale,
)
from .reports import ConditionReport
from .solver import EquilibriumFlow, ValueAccess


class GateError(RuntimeError):
    """A propagation experiment's precondition failed."""


@dataclass
class VariationalState:
    """One time level of the first-variation system, for a (B, N) stack of
    directions: row b of each array belongs to direction b."""

    t: float
    delta_x: np.ndarray
    gamma: np.ndarray     # Vxx(t, X) * dX, recomputed from the value grid
    upsilon: np.ndarray   # measure-derivative field, recomputed each step
    table: HatTable = field(repr=False)


@dataclass
class PropagationTrace:
    """Scalar time series of one direction's variational run."""

    direction: int
    kind: Kind
    ts: np.ndarray
    i_vals: np.ndarray
    ibar_vals: np.ndarray
    dx2_vals: np.ndarray
    series: np.ndarray    # the kind's functional along the trace
    dt_i_rhs: np.ndarray
    dt_ibar_rhs: np.ndarray
    dt_dx2_rhs: np.ndarray
    cd_disp_rhs: np.ndarray

    def slope(self, series: np.ndarray) -> np.ndarray:
        """Per-step finite-difference slopes: centered inside, one-sided at the ends."""
        ts = self.ts
        out = np.empty_like(series)
        out[1:-1] = (series[2:] - series[:-2]) / (ts[2:] - ts[:-2])
        out[0] = (series[1] - series[0]) / (ts[1] - ts[0])
        out[-1] = (series[-1] - series[-2]) / (ts[-1] - ts[-2])
        return out

    def rows(self) -> list:
        slope_i = self.slope(self.i_vals)
        slope_comb = self.slope(self.i_vals + self.ibar_vals)
        out = []
        for k, t in enumerate(self.ts):
            row = {
                "direction": self.direction, "t": float(t),
                "I": float(self.i_vals[k]), "Ibar": float(self.ibar_vals[k]),
                "dX2": float(self.dx2_vals[k]),
                "Xi": float(self.series[k]) if self.kind.writes_xi else "",
                "slope_I": float(slope_i[k]),
                "dtI_rhs": float(self.dt_i_rhs[k]),
                "dtIbar_rhs": float(self.dt_ibar_rhs[k]),
                "d_dX2_rhs": float(self.dt_dx2_rhs[k]),
                "cd_disp_rhs": float(self.cd_disp_rhs[k]),
                "slope_I_plus_Ibar": float(slope_comb[k]),
            }
            out.append(row)
        return out


def traces_to_csv(path, traces: list) -> None:
    rows = [row for trace in traces for row in trace.rows()]
    if not rows:
        return
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def simulate_variational(model: Model, flow: EquilibriumFlow, etas: np.ndarray,
                         access: ValueAccess) -> list:
    """Euler trace of the first-variation system along the converged flow.

    The initial sensitivities dX(0) = eta are the rows of the (B, N) stack
    etas, each aligned with the initial particle states, and the whole
    battery steps as one (B, N) array.  The equilibrium states are reused as
    simulated (they already carry the flow's Brownian increments); dX follows
    its linear dynamics with the curvature field recomputed from the value
    grid and the measure-derivative field from the value gradient's tangent
    at every step, all directions of a level in one request to ``access``.
    """
    grid = flow.grid
    delta = np.array(etas, dtype=float)
    if delta.ndim != 2 or delta.shape[1] != flow.n_particles:
        raise GateError(f"directions of shape {delta.shape} do not match the "
                        f"flow's {flow.n_particles} particles")
    dt = grid.dt
    out = []
    for k in range(grid.n_t + 1):
        t_k = float(grid.ts[k])
        x_k = flow.states[k]
        vxx = flow.value_field.uxx_at(k, x_k)
        gamma = vxx * delta
        upsilon = value_measure_gradient(access, t_k, x_k, delta)
        table = hat_derivative_table(model, x_k, flow.momenta[k])
        out.append(VariationalState(t=t_k, delta_x=delta.copy(), gamma=gamma,
                                    upsilon=upsilon, table=table))
        if k < grid.n_t:
            delta = delta + dt * dx_velocity(table, delta, gamma + upsilon)
            if not np.all(np.isfinite(delta)):
                raise GateError(f"variational state blew up at level {k}")
    return out


def evaluate_rhs_formulas(model: Model, state: VariationalState,
                          lam: float = 0.0) -> dict:
    """Exact quadratic expressions for the time derivatives of the traces,
    one value per direction of the state.

    Returns the derivative of the Lasry-Lions pairing, of the curvature
    pairing, of the second moment of dX, and the combined displacement-form
    derivative at the given lambda: the forms ``ll_form``, ``ibar_form``,
    ``dx2_form`` and ``disp_form`` at (eta, gamma, zeta) = (dX, G, U), the
    last summed from the first three exactly as ``disp_form`` sums them.  The
    first and the last are the gates' forms: the Hamiltonian condition is the
    time derivative of the functional.
    """
    table = state.table
    values = np.array([
        (ll_form(table, *row), ibar_form(table, *row), dx2_form(table, *row))
        for row in zip(state.delta_x, state.gamma, state.upsilon)
    ])
    dt_i, dt_ibar, dt_dx2 = values.T
    return {"dtI_rhs": dt_i, "dtIbar_rhs": dt_ibar, "d_deltaX2_rhs": dt_dx2,
            "cd_disp_rhs": dt_i + dt_ibar + lam * dt_dx2}


def build_traces(model: Model, flow: EquilibriumFlow, etas: np.ndarray,
                 access: ValueAccess, kind: Kind) -> list:
    """One ``PropagationTrace`` per direction of the (B, N) stack etas, in
    row order, from one batched variational run; each trace's series is the
    kind's functional of its pairings."""
    states = simulate_variational(model, flow, etas, access)
    dx, gamma, upsilon = (np.stack([getattr(s, name) for s in states], axis=1)
                          for name in ("delta_x", "gamma", "upsilon"))  # (B, levels, N)
    p = pairings(dx, gamma, upsilon)
    series = kind.functional(p)
    rhs = [evaluate_rhs_formulas(model, s, lam=kind.lam) for s in states]
    exact = {name: np.stack([r[name] for r in rhs], axis=1) for name in rhs[0]}
    ts = np.array([s.t for s in states])
    return [
        PropagationTrace(
            direction=b, kind=kind, ts=ts, i_vals=p.i[b], ibar_vals=p.ibar[b],
            dx2_vals=p.dx2[b], series=series[b],
            dt_i_rhs=exact["dtI_rhs"][b], dt_ibar_rhs=exact["dtIbar_rhs"][b],
            dt_dx2_rhs=exact["d_deltaX2_rhs"][b], cd_disp_rhs=exact["cd_disp_rhs"][b],
        )
        for b in range(len(dx))
    ]


def formula_match_violations(trace: PropagationTrace, rel: float = 0.10,
                             abs_tol: float = 1e-3) -> list:
    """Interior steps where a finite-difference slope disagrees with its
    exact derivative expression.

    Every kind checks the Lasry-Lions pairing I against ``dt_i_rhs``, and
    adds the (series, exact derivative) pairs of ``Kind.formula_pairs``.
    """
    pairs = [(trace.i_vals, trace.dt_i_rhs, {})] + trace.kind.formula_pairs(trace)
    out = []
    for series, exact, label in pairs:
        slope = trace.slope(series)
        for k in range(1, len(trace.ts) - 1):
            lhs = slope[k]
            rhs = exact[k]
            tol = max(rel * max(abs(lhs), abs(rhs)), abs_tol)
            if abs(lhs - rhs) > tol:
                out.append({"level": k, "t": float(trace.ts[k]), "slope": float(lhs),
                            "rhs": float(rhs), "tol": float(tol), **label})
    return out


class Kind:
    """One monotonicity kind: its parameters, its functional of the
    ``Pairings``, its verdict sign, its Hamiltonian gate and its propagation
    rules.  A verdict reads sign * value >= -tol.  Each kind also sets
    ``name``, ``lam`` (of the ``cd_disp_rhs`` trace column) and ``lvec``.
    ``mon_*`` and ``check_*`` are looked up in this module at call time,
    never stored, so that perfbench's layer trace still counts them."""

    sign = 1
    writes_xi = False   # whether trace.csv records the functional as Xi

    def holds(self, values: np.ndarray, tol: float) -> bool:
        return bool(np.min(self.sign * np.asarray(values)) >= -tol)

    def terminal_check(self, flow: EquilibriumFlow) -> tuple:
        """(details, reason) of an extra check on the solved flow; reason is
        None when it holds."""
        return {}, None

    def formula_pairs(self, trace: PropagationTrace) -> list:
        """(series, exact derivative, label) pairs checked besides I."""
        return []

    def slope_rule(self, trace: PropagationTrace, tol: float) -> tuple:
        """((level, slope) where the centered slope runs against the sign by
        more than tol, whether the t0 endpoint holds)."""
        slopes = trace.slope(trace.series)
        bad = [(int(k), float(slopes[k])) for k in np.flatnonzero(self.sign * slopes > tol)]
        return bad, bool(self.sign * trace.series[0] >= -tol)


@dataclass(frozen=True)
class LasryLions(Kind):
    """Lasry-Lions monotonicity: I >= 0."""

    name = "ll"
    lam = 0.0
    lvec = None

    @classmethod
    def from_config(cls, cfg) -> LasryLions:
        return cls()

    def value(self, access, t: float, x: np.ndarray, etas: np.ndarray) -> np.ndarray:
        return mon_ll(access, t, x, etas, self)

    def functional(self, p: Pairings) -> np.ndarray:
        return p.i

    def gate(self, model: Model, samples: list, seed: int) -> ConditionReport:
        return check_ll_condition(model, samples)


@dataclass(frozen=True)
class Displacement(Kind):
    """Displacement lambda-monotonicity: I + Ibar + lam dX2 >= 0; lam > 0 is
    semi-monotonicity."""

    lam: float = 0.0
    name = "disp"
    lvec = None

    def __post_init__(self):
        if not self.lam >= 0:
            raise MonotonicityError("displacement parameter lambda must be nonnegative")

    @classmethod
    def from_config(cls, cfg) -> Displacement:
        return cls(cfg.lam())

    def value(self, access, t: float, x: np.ndarray, etas: np.ndarray) -> np.ndarray:
        return mon_disp(access, t, x, etas, self)

    def functional(self, p: Pairings) -> np.ndarray:
        return p.i + p.ibar + self.lam * p.dx2

    def gate(self, model: Model, samples: list, seed: int) -> ConditionReport:
        return check_disp_condition(model, self.lam, samples)

    def formula_pairs(self, trace: PropagationTrace) -> list:
        return [(trace.series, trace.cd_disp_rhs, {"series": "disp"})]


@dataclass(frozen=True)
class AntiMonotone(Kind):
    """Anti-monotonicity: Xi = l0 Ibar + l1 I + g2 + l2 u2 - l3 dX2 <= 0 for
    the weights lvec, under the assumption on the [anti] constants."""

    lvec: LambdaVec
    l0: float
    gamma_lo: float
    gamma_hi: float
    l_bar: float
    lu_xx: float
    name = "anti"
    lam = 0.0
    sign = -1
    writes_xi = True

    def __post_init__(self):
        if not isinstance(self.lvec, LambdaVec):
            raise MonotonicityError("the anti kind needs [monotonicity] lambda_vec")
        if not self.gamma_hi > self.gamma_lo > 0:
            raise MonotonicityError(
                "the anti kind needs [anti] gamma_hi > gamma_lo > 0, got "
                f"gamma_lo = {self.gamma_lo}, gamma_hi = {self.gamma_hi}")

    @classmethod
    def from_config(cls, cfg) -> AntiMonotone:
        return cls(cfg.lambda_vec(), *cfg.anti_constants())

    def value(self, access, t: float, x: np.ndarray, etas: np.ndarray) -> np.ndarray:
        return mon_anti(access, t, x, etas, self)

    def functional(self, p: Pairings) -> np.ndarray:
        lv = self.lvec
        return lv.l0 * p.ibar + lv.l1 * p.i + p.g2 + lv.l2 * p.u2 - lv.l3 * p.dx2

    def gate(self, model: Model, samples: list, seed: int) -> ConditionReport:
        return check_anti_assumption(model, self.lvec, self.l0, self.gamma_lo,
                                     self.gamma_hi, self.l_bar, self.lu_xx, seed=seed)

    def terminal_check(self, flow: EquilibriumFlow) -> tuple:
        """The curvature bound |Vxx| <= lu_xx on the whole solved field."""
        vxx_max = float(np.max(np.abs(flow.value_field.u_xx)))
        reason = None if vxx_max <= self.lu_xx else (
            f"curvature bound violated on the solved field: {vxx_max:.4f} > {self.lu_xx}")
        return {"vxx_max": vxx_max, "vxx_bound": self.lu_xx}, reason

    def slope_rule(self, trace: PropagationTrace, tol: float) -> tuple:
        """Forward increments, judged at their later level; the t0 endpoint
        must also stay within tol of the terminal value."""
        series = trace.series
        increments = np.diff(series) / np.diff(trace.ts)
        bad = [(int(k) + 1, float(increments[k]))
               for k in np.flatnonzero(self.sign * increments > tol)]
        return bad, bool(series[0] <= series[-1] + tol and self.sign * series[0] >= -tol)


MONOTONICITY_KINDS = {cls.name: cls for cls in (LasryLions, Displacement, AntiMonotone)}


@dataclass
class PropagationConfig:
    kind: Kind
    n_directions: int = 12
    fd_eps: float = 1e-3
    tol_c: float = 0.5
    gate_samples: int = 40
    gate_atoms: int = 16
    seed: int = 0
    enforce_gate: bool = True


@dataclass
class PropagationResult:
    kind: str
    tolerance: float
    gate_reports: list
    traces: list
    slope_violations: list
    formula_violations: list
    endpoint_values: list
    verdict: bool
    details: dict = field(default_factory=dict)


def model_gate(model: Model, config: PropagationConfig) -> ConditionReport:
    """The Hamiltonian-condition gate of the experiment's kind; runs before
    any solve so a failing configuration can be rejected cheaply."""
    samples = make_condition_samples(config.gate_samples, config.gate_atoms,
                                     config.seed)
    return config.kind.gate(model, samples, config.seed)


def propagation_experiment(model: Model, flow: EquilibriumFlow,
                           access: ValueAccess, config: PropagationConfig,
                           gate: ConditionReport) -> PropagationResult:
    """Gate, trace, and verdict for one propagation theorem at desk scale.

    Gating: ``gate``, the report of ``model_gate`` for this model and config,
    must pass, the terminal cost must carry the monotonicity of
    ``config.kind``, and the kind's ``terminal_check`` must hold on the
    solved flow (the anti-monotone curvature bound).  The verdict then
    requires the kind's ``slope_rule`` (the per-step sign of the series'
    derivative and the endpoint claim, both within the discretisation
    tolerance) and its formula matches on every direction.
    """
    kind = config.kind
    grid = flow.grid
    tol = tolerance_scale(grid.dt, grid.dx, flow.n_particles, config.fd_eps,
                          config.tol_c)
    if config.enforce_gate and not gate.passed:
        raise GateError(f"Hamiltonian condition gate failed for kind {kind.name!r}")

    x_end = flow.states[grid.n_t]
    terminal = kind.value(access, grid.t_end, x_end,
                          np.array(direction_battery(x_end, config.n_directions, config.seed)))
    details: dict = {"terminal_values": terminal.tolist()}
    if config.enforce_gate and not kind.holds(terminal, tol):
        raise GateError("terminal cost does not carry the required monotonicity")
    extra, reason = kind.terminal_check(flow)
    details.update(extra)
    if config.enforce_gate and reason is not None:
        raise GateError(reason)

    slope_violations = []
    formula_violations = []
    endpoint_values = []
    etas = np.array(direction_battery(flow.states[0], config.n_directions, config.seed))
    traces = build_traces(model, flow, etas, access, kind)
    for idx, trace in enumerate(traces):
        formula_violations.extend(dict(v, direction=idx)
                                  for v in formula_match_violations(trace))
        bad, endpoint_ok = kind.slope_rule(trace, tol)
        endpoint_values.append(float(trace.series[0]))
        slope_violations.extend({"direction": idx, "level": k, "t": float(trace.ts[k]),
                                 "value": value} for k, value in bad)
        if not endpoint_ok:
            slope_violations.append({"direction": idx, "level": 0,
                                     "t": float(trace.ts[0]),
                                     "value": float(trace.series[0]),
                                     "endpoint": True})
    verdict = (not slope_violations) and (not formula_violations)
    return PropagationResult(
        kind=kind.name, tolerance=tol, gate_reports=[gate],
        traces=traces, slope_violations=slope_violations,
        formula_violations=formula_violations,
        endpoint_values=endpoint_values, verdict=bool(verdict), details=details,
    )
