"""End-to-end verification that monotonicity propagates backward from the
terminal cost along the computed value function.

The first-variation particle system couples the equilibrium states X with
their initial-condition sensitivities dX, the curvature field G = Vxx dX,
and the measure-derivative field U_i = (1/N) sum_j d_x d_mu V(X_i, x_j) dX_j.
The time derivatives of the three monotonicity functionals have exact
quadratic expressions in (dX, G, U) and the reduced-Hamiltonian derivatives;
traces of both sides are recorded and the claimed signs checked step by step.
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
    disp_form,
    dx2_form,
    dx_velocity,
    ibar_form,
    ll_form,
    make_condition_samples,
)
from .models import HatTable, Model, hat_derivative_table
from .monotonicity import (
    LambdaVec,
    direction_battery,
    mon_value,
    tolerance_scale,
)
from .reports import ConditionReport
from .solver import EquilibriumFlow, ValueAccess


class GateError(RuntimeError):
    """A propagation experiment's precondition failed; carries the report."""

    def __init__(self, message: str, report: ConditionReport | None = None):
        super().__init__(message)
        self.report = report


@dataclass
class VariationalState:
    """One time level of the first-variation system, for a (B, N) stack of
    directions: row b of each array belongs to direction b."""

    t: float
    level: int
    x: np.ndarray
    p: np.ndarray
    delta_x: np.ndarray
    gamma: np.ndarray     # Vxx(t, X) * dX, recomputed from the value grid
    upsilon: np.ndarray   # measure-derivative field, recomputed each step
    table: HatTable = field(repr=False)


@dataclass
class PropagationTrace:
    """Scalar time series of one direction's variational run."""

    direction: int
    ts: np.ndarray
    i_vals: np.ndarray
    ibar_vals: np.ndarray
    dx2_vals: np.ndarray
    xi_vals: np.ndarray | None
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
                "Xi": float(self.xi_vals[k]) if self.xi_vals is not None else "",
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
        out.append(VariationalState(
            t=t_k, level=k, x=x_k, p=flow.momenta[k], delta_x=delta.copy(),
            gamma=gamma, upsilon=upsilon, table=table,
        ))
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
    ``dx2_form`` and ``disp_form`` at (eta, gamma, zeta) = (dX, G, U).  The
    first and the last are the gates' forms: the Hamiltonian condition is the
    time derivative of the functional.
    """
    table = state.table
    values = np.array([
        (ll_form(table, *row), ibar_form(table, *row), dx2_form(table, *row),
         disp_form(table, *row, lam))
        for row in zip(state.delta_x, state.gamma, state.upsilon)
    ])
    return dict(zip(("dtI_rhs", "dtIbar_rhs", "d_deltaX2_rhs", "cd_disp_rhs"), values.T))


def build_traces(model: Model, flow: EquilibriumFlow, etas: np.ndarray,
                 access: ValueAccess, lam: float = 0.0,
                 lvec: LambdaVec | None = None) -> list:
    """One ``PropagationTrace`` per direction of the (B, N) stack etas, in
    row order, from one batched variational run."""
    states = simulate_variational(model, flow, etas, access)
    dx = np.stack([s.delta_x for s in states], axis=1)      # (B, levels, N)
    gamma = np.stack([s.gamma for s in states], axis=1)
    upsilon = np.stack([s.upsilon for s in states], axis=1)
    i_vals = np.mean(upsilon * dx, axis=-1)
    ibar_vals = np.mean(gamma * dx, axis=-1)
    dx2_vals = np.mean(dx**2, axis=-1)
    xi_vals = [None] * len(dx)
    if lvec is not None:
        xi_vals = (lvec.l0 * ibar_vals + lvec.l1 * i_vals + np.mean(gamma**2, axis=-1)
                   + lvec.l2 * np.mean(upsilon**2, axis=-1) - lvec.l3 * dx2_vals)
    rhs = [evaluate_rhs_formulas(model, s, lam=lam) for s in states]
    series = {name: np.stack([r[name] for r in rhs], axis=1) for name in rhs[0]}
    ts = np.array([s.t for s in states])
    return [
        PropagationTrace(
            direction=b, ts=ts, i_vals=i_vals[b], ibar_vals=ibar_vals[b],
            dx2_vals=dx2_vals[b], xi_vals=xi_vals[b],
            dt_i_rhs=series["dtI_rhs"][b], dt_ibar_rhs=series["dtIbar_rhs"][b],
            dt_dx2_rhs=series["d_deltaX2_rhs"][b], cd_disp_rhs=series["cd_disp_rhs"][b],
        )
        for b in range(len(dx))
    ]


def formula_match_violations(trace: PropagationTrace, kind: str = "ll", lam: float = 0.0,
                             rel: float = 0.10, abs_tol: float = 1e-3) -> list:
    """Interior steps where a finite-difference slope disagrees with its
    exact derivative expression.

    Every kind checks the Lasry-Lions pairing I against ``dt_i_rhs``; the
    disp kind also checks its own series I + Ibar + lam dX2 against
    ``cd_disp_rhs``.  The anti kind's Xi has no closed-form derivative, so
    only I is checked for it.
    """
    pairs = [(trace.i_vals, trace.dt_i_rhs, {})]
    if kind == "disp":
        pairs.append((trace.i_vals + trace.ibar_vals + lam * trace.dx2_vals,
                      trace.cd_disp_rhs, {"series": "disp"}))
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


@dataclass
class PropagationConfig:
    kind: str                      # "ll" | "disp" | "anti"
    lam: float = 0.0
    lvec: LambdaVec | None = None
    n_directions: int = 12
    fd_eps: float = 1e-3
    tol_c: float = 0.5
    gate_samples: int = 40
    gate_atoms: int = 16
    seed: int = 0
    enforce_gate: bool = True
    # anti-specific constants of the assumption checker
    anti_l0: float = 0.0
    anti_gamma_lo: float = 0.0
    anti_gamma_hi: float = 0.0
    anti_l_bar: float = 0.0
    anti_lu_xx: float = 0.0

    def __post_init__(self):
        if self.kind not in ("ll", "disp", "anti"):
            raise GateError(f"unknown propagation kind {self.kind!r}")
        if self.kind == "anti" and self.lvec is None:
            raise GateError("anti experiments need a lambda vector")


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
    """The Hamiltonian-condition gate of one experiment kind; runs before any
    solve so a failing configuration can be rejected cheaply."""
    samples = make_condition_samples(config.gate_samples, config.gate_atoms,
                                     config.seed)
    if config.kind == "ll":
        return check_ll_condition(model, samples)
    if config.kind == "disp":
        return check_disp_condition(model, config.lam, samples)
    return check_anti_assumption(
        model, config.lvec, config.anti_l0, config.anti_gamma_lo,
        config.anti_gamma_hi, config.anti_l_bar, config.anti_lu_xx,
        seed=config.seed,
    )


def _terminal_gate(flow, access, config: PropagationConfig, tol: float) -> tuple:
    """Monotonicity of the terminal cost over the direction battery at t = T."""
    grid = flow.grid
    t_end = grid.t_end
    x_t = flow.states[grid.n_t]
    etas = np.array(direction_battery(x_t, config.n_directions, config.seed))
    values = mon_value(config.kind, access, t_end, x_t, etas, config.lam, config.lvec)
    if config.kind == "anti":
        ok = bool(values.max() <= tol)
    else:
        ok = bool(values.min() >= -tol)
    return ok, values


def propagation_experiment(model: Model, flow: EquilibriumFlow,
                           access: ValueAccess, config: PropagationConfig,
                           gate: ConditionReport) -> PropagationResult:
    """Gate, trace, and verdict for one propagation theorem at desk scale.

    Gating: ``gate``, the report of ``model_gate`` for this model and config,
    must pass, and the terminal cost must carry the monotonicity being
    propagated (for the anti-monotone kind, additionally the curvature bound
    on the solved field).  The verdict then requires the per-step sign of the
    trace derivative and the endpoint claim, both within the discretisation
    tolerance.
    """
    grid = flow.grid
    tol = tolerance_scale(grid.dt, grid.dx, flow.n_particles, config.fd_eps,
                          config.tol_c)
    gate_reports = [gate]
    if config.enforce_gate and not gate.passed:
        raise GateError(f"Hamiltonian condition gate failed for kind "
                        f"{config.kind!r}", gate)

    terminal_ok, terminal_values = _terminal_gate(flow, access, config, tol)
    details: dict = {"terminal_values": terminal_values.tolist()}
    if config.enforce_gate and not terminal_ok:
        raise GateError("terminal cost does not carry the required monotonicity")

    if config.kind == "anti":
        vxx_max = float(np.max(np.abs(flow.value_field.u_xx)))
        details["vxx_max"] = vxx_max
        details["vxx_bound"] = config.anti_lu_xx
        if config.enforce_gate and vxx_max > config.anti_lu_xx:
            raise GateError(
                f"curvature bound violated on the solved field: "
                f"{vxx_max:.4f} > {config.anti_lu_xx}"
            )

    slope_violations = []
    formula_violations = []
    endpoint_values = []
    etas = np.array(direction_battery(flow.states[0], config.n_directions, config.seed))
    traces = build_traces(model, flow, etas, access, lam=config.lam, lvec=config.lvec)
    for idx, trace in enumerate(traces):
        formula_violations.extend(
            dict(v, direction=idx)
            for v in formula_match_violations(trace, config.kind, config.lam)
        )
        if config.kind == "ll":
            series = trace.i_vals
            slopes = trace.slope(series)
            bad = np.flatnonzero(slopes > tol)
            endpoint_ok = series[0] >= -tol
        elif config.kind == "disp":
            series = trace.i_vals + trace.ibar_vals + config.lam * trace.dx2_vals
            slopes = trace.slope(series)
            bad = np.flatnonzero(slopes > tol)
            endpoint_ok = series[0] >= -tol
        else:
            series = trace.xi_vals
            increments = np.diff(series) / np.diff(trace.ts)
            bad = np.flatnonzero(increments < -tol) + 1
            endpoint_ok = (series[0] <= series[-1] + tol) and (series[0] <= tol)
        endpoint_values.append(float(series[0]))
        for k in bad:
            slope_violations.append({
                "direction": idx, "level": int(k), "t": float(trace.ts[int(k)]),
                "value": float(slopes[int(k)] if config.kind != "anti"
                               else increments[int(k) - 1]),
            })
        if not endpoint_ok:
            slope_violations.append({"direction": idx, "level": 0,
                                     "t": float(trace.ts[0]),
                                     "value": float(series[0]),
                                     "endpoint": True})
    verdict = (not slope_violations) and (not formula_violations)
    return PropagationResult(
        kind=config.kind, tolerance=tol, gate_reports=gate_reports,
        traces=traces, slope_violations=slope_violations,
        formula_violations=formula_violations,
        endpoint_values=endpoint_values, verdict=bool(verdict), details=details,
    )
