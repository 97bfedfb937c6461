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
    """One time level of the first-variation system."""

    t: float
    level: int
    x: np.ndarray
    p: np.ndarray
    delta_x: np.ndarray
    gamma: np.ndarray     # Vxx(t, X) * dX, recomputed from the value grid
    upsilon: np.ndarray   # measure-derivative field, recomputed each step
    forcing: np.ndarray   # mean-field forcing of the dX dynamics
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


def simulate_variational(model: Model, flow: EquilibriumFlow, eta: np.ndarray,
                         access: ValueAccess, fd_eps: float = 1e-3) -> list:
    """Euler trace of the first-variation system along the converged flow.

    The initial sensitivity dX(0) = eta is a 1-D array aligned with the
    initial particle states.  The equilibrium states are reused as simulated
    (they already carry the flow's Brownian increments); dX follows its
    linear dynamics with the curvature and measure-derivative fields
    recomputed from the value grid and directional re-solves at every step.
    """
    grid = flow.grid
    delta = np.array(eta, dtype=float)
    if delta.shape != (flow.n_particles,):
        raise GateError(f"direction of shape {delta.shape} does not match the "
                        f"flow's {flow.n_particles} particles")
    dt = grid.dt
    out = []
    n = flow.n_particles
    w = np.full(n, 1.0 / n)
    for k in range(grid.n_t + 1):
        t_k = float(grid.ts[k])
        x_k = flow.states[k]
        vxx = flow.value_field.uxx_at(k, x_k)
        gamma = vxx * delta
        if np.sqrt(np.mean(delta**2)) < 1e-14:
            upsilon = np.zeros(n)
        else:
            upsilon = value_measure_gradient(access, t_k, x_k, delta, fd_eps)
        table = hat_derivative_table(model, x_k, flow.momenta[k])
        forcing = (table.h_prho1 * delta[None, :]
                   + table.h_prho2 * (gamma + upsilon)[None, :]) @ w
        out.append(VariationalState(
            t=t_k, level=k, x=x_k, p=flow.momenta[k], delta_x=delta.copy(),
            gamma=gamma, upsilon=upsilon, forcing=forcing, table=table,
        ))
        if k < grid.n_t:
            delta = delta + dt * (table.h_xp * delta + table.h_pp * (gamma + upsilon)
                                  + forcing)
            if not np.all(np.isfinite(delta)):
                raise GateError(f"variational state blew up at level {k}")
    return out


def evaluate_rhs_formulas(model: Model, state: VariationalState,
                          lam: float = 0.0) -> dict:
    """Exact quadratic expressions for the time derivatives of the traces.

    Returns the derivative of the Lasry-Lions pairing, of the curvature
    pairing, of the second moment of dX, and the combined displacement-form
    derivative at the given lambda.  The first and the last are the gate's
    forms ``ll_form``/``disp_form`` at (eta, gamma, zeta) = (dX, G, U): the
    Hamiltonian condition is the time derivative of the functional.
    """
    tbl = state.table
    n = state.x.shape[0]
    w = np.full(n, 1.0 / n)
    d = state.delta_x
    g = state.gamma
    u = state.upsilon
    gu = g + u

    dt_ibar = (float(np.mean(tbl.h_pp * g * g))
               + 2.0 * float(np.mean(tbl.h_pp * g * u))
               + 2.0 * float((w * g) @ (tbl.h_prho1 * d[None, :]
                                        + tbl.h_prho2 * gu[None, :]) @ w)
               - float(np.mean(tbl.h_xx * d * d)))

    dt_dx2 = 2.0 * float(np.mean((tbl.h_xp * d + tbl.h_pp * gu + state.forcing) * d))

    return {"dtI_rhs": ll_form(tbl, d, g, u), "dtIbar_rhs": dt_ibar,
            "d_deltaX2_rhs": dt_dx2, "cd_disp_rhs": disp_form(tbl, d, g, u, lam)}


def build_trace(model: Model, flow: EquilibriumFlow, eta: np.ndarray,
                access: ValueAccess, index: int = 0, fd_eps: float = 1e-3,
                lam: float = 0.0, lvec: LambdaVec | None = None) -> PropagationTrace:
    states = simulate_variational(model, flow, eta, access, fd_eps)
    i_vals = np.array([np.mean(s.upsilon * s.delta_x) for s in states])
    ibar_vals = np.array([np.mean(s.gamma * s.delta_x) for s in states])
    dx2_vals = np.array([np.mean(s.delta_x**2) for s in states])
    xi_vals = None
    if lvec is not None:
        xi_vals = np.array([
            lvec.l0 * np.mean(s.gamma * s.delta_x) + lvec.l1 * np.mean(s.upsilon * s.delta_x)
            + np.mean(s.gamma**2) + lvec.l2 * np.mean(s.upsilon**2)
            - lvec.l3 * np.mean(s.delta_x**2)
            for s in states
        ])
    rhs = [evaluate_rhs_formulas(model, s, lam=lam) for s in states]
    return PropagationTrace(
        direction=index,
        ts=np.array([s.t for s in states]),
        i_vals=i_vals, ibar_vals=ibar_vals, dx2_vals=dx2_vals, xi_vals=xi_vals,
        dt_i_rhs=np.array([r["dtI_rhs"] for r in rhs]),
        dt_ibar_rhs=np.array([r["dtIbar_rhs"] for r in rhs]),
        dt_dx2_rhs=np.array([r["d_deltaX2_rhs"] for r in rhs]),
        cd_disp_rhs=np.array([r["cd_disp_rhs"] for r in rhs]),
    )


def formula_match_violations(trace: PropagationTrace, rel: float = 0.10,
                             abs_tol: float = 1e-3) -> list:
    """Interior steps where the finite-difference slope of the Lasry-Lions
    pairing disagrees with its exact derivative expression."""
    slope = trace.slope(trace.i_vals)
    out = []
    for k in range(1, len(trace.ts) - 1):
        lhs = slope[k]
        rhs = trace.dt_i_rhs[k]
        tol = max(rel * max(abs(lhs), abs(rhs)), abs_tol)
        if abs(lhs - rhs) > tol:
            out.append({"level": k, "t": float(trace.ts[k]), "slope": float(lhs),
                        "rhs": float(rhs), "tol": float(tol)})
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
    values = np.array([
        mon_value(config.kind, access, t_end, x_t, eta, config.fd_eps,
                  config.lam, config.lvec)
        for eta in direction_battery(x_t, config.n_directions, config.seed)
    ])
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

    traces = []
    slope_violations = []
    formula_violations = []
    endpoint_values = []
    for idx, eta in enumerate(direction_battery(flow.states[0], config.n_directions,
                                                config.seed)):
        trace = build_trace(model, flow, eta, access, index=idx,
                            fd_eps=config.fd_eps, lam=config.lam, lvec=config.lvec)
        traces.append(trace)
        formula_violations.extend(
            dict(v, direction=idx) for v in formula_match_violations(trace)
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
