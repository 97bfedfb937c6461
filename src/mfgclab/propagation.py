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
    dx_velocity,
    form_matrices,
    make_condition_samples,
)
from .models import HatTable, Model, hat_derivative_table
from .monotonicity import (
    LambdaVec,
    MonotonicityError,
    Pairings,
    direction_battery,
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


# The columns of trace.csv, one row per (direction, level).
TRACE_COLUMNS = ("direction", "t", "I", "Ibar", "dX2", "Xi", "slope_I", "dtI_rhs",
                 "dtIbar_rhs", "d_dX2_rhs", "cd_disp_rhs", "slope_I_plus_Ibar")


def traces_to_csv(path, traces: list) -> None:
    """Write the traces' ``TRACE_COLUMNS`` to path, direction by direction;
    Xi is empty for a kind that does not write it.  Each column goes to the
    writer as one list of Python floats."""
    if not traces:
        return
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_COLUMNS)
        for trace in traces:
            levels = trace.ts.size
            xi = trace.series.tolist() if trace.kind.writes_xi else [""] * levels
            writer.writerows(zip(
                [trace.direction] * levels, trace.ts.tolist(), trace.i_vals.tolist(),
                trace.ibar_vals.tolist(), trace.dx2_vals.tolist(), xi,
                trace.slope(trace.i_vals).tolist(), trace.dt_i_rhs.tolist(),
                trace.dt_ibar_rhs.tolist(), trace.dt_dx2_rhs.tolist(),
                trace.cd_disp_rhs.tolist(),
                trace.slope(trace.i_vals + trace.ibar_vals).tolist()))


def simulate_variational(access: ValueAccess, etas: np.ndarray) -> tuple:
    """Euler trace of the first-variation system along the access's
    converged flow: (dX, G, U, tables).

    The initial sensitivities dX(0) = eta are the rows of the (B, N) stack
    etas, each aligned with the initial particle states, and the whole
    battery steps as one (B, N) array.  The equilibrium states are reused as
    simulated (they already carry the flow's Brownian increments); dX follows
    its linear dynamics with the curvature field G = Vxx dX from
    ``access.field(k)`` and the measure-derivative field U from the value
    gradient's tangent at every level k, all directions of a level in one
    request to ``access``.  dX, G and U are (B, levels, N) stacks, row b
    belonging to direction b; ``tables`` lists the hat table of each level,
    all from one ``hat_derivative_table`` call on the whole flow.
    """
    flow = access.flow
    delta = np.array(etas, dtype=float)
    if delta.ndim != 2 or delta.shape[1] != flow.n_particles:
        raise GateError(f"directions of shape {delta.shape} do not match the "
                        f"flow's {flow.n_particles} particles")
    n_t, dt = flow.grid.n_t, flow.grid.dt
    stack = hat_derivative_table(access.model, flow.states, flow.momenta)
    tables = [stack[k] for k in range(n_t + 1)]
    dx, gamma, upsilon = (np.empty((len(delta), n_t + 1, flow.n_particles))
                          for _ in range(3))
    for k in range(n_t + 1):
        g_k = access.field(k) * delta
        u_k = value_measure_gradient(access, k, delta)
        dx[:, k], gamma[:, k], upsilon[:, k] = delta, g_k, u_k
        if k < n_t:
            delta = delta + dt * dx_velocity(tables[k], delta, g_k + u_k)
            if not np.all(np.isfinite(delta)):
                raise GateError(f"variational state blew up at level {k}")
    return dx, gamma, upsilon, tables


def evaluate_rhs_formulas(table: HatTable, delta_x: np.ndarray, gamma: np.ndarray,
                          upsilon: np.ndarray, lam: float = 0.0) -> dict:
    """Exact quadratic expressions for the time derivatives of the traces at
    one level, one value per direction of the (B, N) first-variation state
    (dX, G, U).

    Returns the derivative of the Lasry-Lions pairing, of the curvature
    pairing, of the second moment of dX, and the combined displacement-form
    derivative at the given lambda: v . M v for the ``form_matrices`` L, Ibar
    and DX2 of the level's table at v = (dX, G, U), and their sum
    L + Ibar + lam DX2.  L and the sum are the gates' forms: the Hamiltonian
    condition is the time derivative of the functional.
    """
    # Directions on the stack axis of the product: each row is bit-identical
    # to a one-direction request.
    v = np.concatenate([delta_x, gamma, upsilon], axis=-1)
    v = v[:, None, None, :]    # (B, 1, 1, 3N) against the (3, 3N, 3N) stack
    dt_i, dt_ibar, dt_dx2 = np.sum((v @ form_matrices(table)) * v, axis=-1)[..., 0].T
    return {"dtI_rhs": dt_i, "dtIbar_rhs": dt_ibar, "d_deltaX2_rhs": dt_dx2,
            "cd_disp_rhs": dt_i + dt_ibar + lam * dt_dx2}


def build_traces(access: ValueAccess, etas: np.ndarray, kind: Kind) -> list:
    """One ``PropagationTrace`` per direction of the (B, N) stack etas, in
    row order, from one batched variational run; each trace's series is the
    kind's functional of its pairings."""
    dx, gamma, upsilon, tables = simulate_variational(access, etas)
    p = pairings(dx, gamma, upsilon)
    series = kind.functional(p)
    rhs = [evaluate_rhs_formulas(tables[k], dx[:, k], gamma[:, k], upsilon[:, k], lam=kind.lam)
           for k in range(dx.shape[1])]
    exact = {name: np.stack([r[name] for r in rhs], axis=1) for name in rhs[0]}
    ts = access.flow.grid.ts
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

    def value(self, access, k: int, etas: np.ndarray) -> np.ndarray:
        return mon_ll(access, k, etas, self)

    def functional(self, p: Pairings) -> np.ndarray:
        return p.i

    def gate(self, model: Model, samples: list) -> ConditionReport:
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

    def value(self, access, k: int, etas: np.ndarray) -> np.ndarray:
        return mon_disp(access, k, etas, self)

    def functional(self, p: Pairings) -> np.ndarray:
        return p.i + p.ibar + self.lam * p.dx2

    def gate(self, model: Model, samples: list) -> ConditionReport:
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

    def value(self, access, k: int, etas: np.ndarray) -> np.ndarray:
        return mon_disp(access, k, etas, self)

    def functional(self, p: Pairings) -> np.ndarray:
        lv = self.lvec
        return lv.l0 * p.ibar + lv.l1 * p.i + p.g2 + lv.l2 * p.u2 - lv.l3 * p.dx2

    def gate(self, model: Model, samples: list) -> ConditionReport:
        return check_anti_assumption(model, self.lvec, self.l0, self.gamma_lo,
                                     self.gamma_hi, self.l_bar, self.lu_xx, samples)

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
    return config.kind.gate(model, samples)


def propagation_experiment(access: ValueAccess, config: PropagationConfig,
                           gate: ConditionReport) -> PropagationResult:
    """Gate, trace, and verdict for one propagation theorem at desk scale,
    on the access's converged flow.

    Gating: ``gate``, the report of ``model_gate`` for this model and config,
    must pass, the terminal cost must carry the monotonicity of
    ``config.kind``, and the kind's ``terminal_check`` must hold on the
    solved flow (the anti-monotone curvature bound).  The verdict then
    requires the kind's ``slope_rule`` (the per-step sign of the series'
    derivative and the endpoint claim, both within the discretisation
    tolerance) and its formula matches on every direction.
    """
    kind, flow = config.kind, access.flow
    grid = flow.grid
    tol = tolerance_scale(grid.dt, grid.dx, flow.n_particles, config.fd_eps,
                          config.tol_c)
    if config.enforce_gate and not gate.passed:
        raise GateError(f"Hamiltonian condition gate failed for kind {kind.name!r}")

    terminal = kind.value(access, grid.n_t, np.array(
        direction_battery(flow.states[grid.n_t], config.n_directions, config.seed)))
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
    traces = build_traces(access, etas, kind)
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
