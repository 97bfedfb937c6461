"""End-to-end verification that monotonicity propagates backward from the
terminal cost along the computed value function.

The first-variation particle system couples the equilibrium states X with
their initial-condition sensitivities dX, the curvature field G = Vxx dX,
and the measure-derivative field U_i = (1/N) sum_j d_x d_mu V(X_i, x_j) dX_j.
The time derivatives of the three monotonicity functionals have exact
quadratic expressions in (dX, G, U) and the reduced-Hamiltonian derivatives.
A direction battery steps as one system, and both sides of its traces are one
``PropagationTraces`` record of (B, levels) arrays, judged with array masks.

The three kinds are the one place where Lasry-Lions, displacement and
anti-monotone differ: ``LasryLions``, ``Displacement`` and ``AntiMonotone``
each hold their parameters, functional, verdict sign, Hamiltonian gate and
propagation rules, and ``MONOTONICITY_KINDS`` maps each INI name to its class.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import value_measure_gradient
from .conditions import (
    check_anti_assumption,
    check_disp_condition,
    check_ll_condition,
    forcings,
    form_rows,
    make_condition_samples,
)
from .models import HatTable, Model, hat_derivative_table
from .monotonicity import (
    LambdaVec,
    MonotonicityError,
    Pairings,
    direction_battery,
    mon_disp,
    pairings,
    tolerance_scale,
)
from .reports import ConditionReport, write_csv
from .solver import EquilibriumFlow, ValueAccess


class GateError(RuntimeError):
    """A propagation experiment's precondition failed; carries what the
    failing stage measured, for the run's report."""

    def __init__(self, message: str, details: dict):
        super().__init__(message)
        self.details = details


@dataclass(frozen=True)
class PropagationTraces:
    """Scalar time series of a battery's variational run: row b of every
    (B, levels) array is direction b, column k is level k at time ts[k]."""

    kind: Kind
    ts: np.ndarray
    i: np.ndarray
    ibar: np.ndarray
    dx2: np.ndarray
    series: np.ndarray    # the kind's functional along the trace
    dt_i_rhs: np.ndarray
    dt_ibar_rhs: np.ndarray
    dt_dx2_rhs: np.ndarray
    cd_disp_rhs: np.ndarray

    def slope(self, series: np.ndarray) -> np.ndarray:
        """Per-step finite-difference slopes along the last axis: centered
        inside, one-sided at the ends."""
        ts = self.ts
        out = np.empty_like(series)
        out[..., 1:-1] = (series[..., 2:] - series[..., :-2]) / (ts[2:] - ts[:-2])
        out[..., 0] = (series[..., 1] - series[..., 0]) / (ts[1] - ts[0])
        out[..., -1] = (series[..., -1] - series[..., -2]) / (ts[-1] - ts[-2])
        return out


# The columns of trace.csv, one row per (direction, level).
TRACE_COLUMNS = ("direction", "t", "I", "Ibar", "dX2", "Xi", "slope_I", "dtI_rhs",
                 "dtIbar_rhs", "d_dX2_rhs", "cd_disp_rhs", "slope_I_plus_Ibar")


def traces_to_csv(path, traces: PropagationTraces) -> None:
    """Write the traces' ``TRACE_COLUMNS`` to path, direction by direction;
    Xi is empty for a kind that does not write it."""
    directions, levels = traces.i.shape
    xi = traces.series if traces.kind.writes_xi else np.full(traces.i.shape, "")
    columns = [np.repeat(np.arange(directions), levels), np.tile(traces.ts, directions),
               traces.i, traces.ibar, traces.dx2, xi, traces.slope(traces.i),
               traces.dt_i_rhs, traces.dt_ibar_rhs, traces.dt_dx2_rhs, traces.cd_disp_rhs,
               traces.slope(traces.i + traces.ibar)]
    write_csv(path, TRACE_COLUMNS, [column.ravel().tolist() for column in columns])


def simulate_variational(access: ValueAccess, etas: np.ndarray) -> tuple:
    """Euler trace of the first-variation system along the access's
    converged flow: (dX, G, U, table).

    The initial sensitivities dX(0) = eta are the rows of the (B, N) stack
    etas, each aligned with the initial particle states.  The equilibrium
    states are reused as simulated (they already carry the flow's Brownian
    increments); dX follows its linear dynamics with the curvature field G =
    V_xx dX and the measure-derivative field U = M dX, where V_xx at each
    level's atoms is ``access.field`` of every level and M is
    ``access.matrices``.  The Euler step is linear in dX, dX_{k+1} = T_k
    dX_k with

        T_k = I + dt [diag(h_xp) + h_prho1 / N
                      + (diag(h_pp) + h_prho2 / N)(diag(V_xx) + M[k])]

    at level k, so the (levels - 1, N, N) stack T is built in a few batched
    operations before the pass, and a level is one matrix-vector product
    per direction: each row is bit-identical to its one-direction run, and a
    negated direction gives the negated trace.  G and U are read for all
    levels at once, through the readers ``mon_disp`` uses (``access.field``
    and ``value_measure_gradient``).  dX, G and U are (B, levels, N) stacks,
    row b belonging to direction b; ``table`` is the flow's stacked hat table,
    level k at index k, from one ``hat_derivative_table`` call on the whole
    flow.  A non-finite update is a ``GateError`` naming the first level
    that produced one.
    """
    flow = access.flow
    delta = np.array(etas, dtype=float)
    if delta.ndim != 2 or delta.shape[1] != flow.n_particles:
        raise GateError(f"directions of shape {delta.shape} do not match the "
                        f"flow's {flow.n_particles} particles", {})
    n_t, dt, n = flow.grid.n_t, flow.grid.dt, flow.n_particles
    table = hat_derivative_table(access.model, flow.states, flow.momenta)
    levels = np.arange(n_t + 1)
    vxx = access.field(levels)
    diagonal = np.arange(n)
    dx = np.empty((len(delta), n_t + 1, n))
    dx[:, 0] = delta
    # A diverging trace overflows on its way to inf/nan; the check below
    # names its level instead of numpy's floating-point warning.
    with np.errstate(over="ignore", invalid="ignore"):
        curvature = access.matrices[:-1].copy()   # G + U = (diag(V_xx) + M) dX
        curvature[:, diagonal, diagonal] += vxx[:-1]
        feedback = table.h_prho2[:-1] / n
        feedback[:, diagonal, diagonal] += table.h_pp[:-1]
        transition = table.h_prho1[:-1] / n
        transition[:, diagonal, diagonal] += table.h_xp[:-1]
        transition += feedback @ curvature
        transition *= dt
        transition[:, diagonal, diagonal] += 1.0
        for k, t_k in enumerate(transition):
            np.matmul(t_k, dx[:, k, :, None], out=dx[:, k + 1, :, None])
    # A non-finite state stays non-finite at every later level.
    finite = np.isfinite(dx[:, 1:]).all(axis=(0, 2))
    if not finite.all():
        level = int(np.argmin(finite))
        raise GateError(f"variational state blew up at level {level}", {"level": level})
    return dx, vxx * dx, value_measure_gradient(access, levels, dx), table


def evaluate_rhs_formulas(table: HatTable, delta_x: np.ndarray, gamma: np.ndarray,
                          upsilon: np.ndarray, lam: float = 0.0) -> dict:
    """Exact quadratic expressions for the time derivatives of the traces,
    one (B, levels) column per expression: direction b at level k reads the
    (B, levels, N) first-variation state (eta, gamma, zeta) = (dX, G, U) at
    [b, k] and level k of the stacked hat table.

    Returns the derivative of the Lasry-Lions pairing, of the curvature
    pairing, of the second moment of dX, and the combined displacement-form
    derivative at the given lambda: the forms L, Ibar and DX2 of the level's
    table at v = (dX, G, U), each the atom sum of v times the
    ``conditions.form_rows`` rows at its unit weights, and
    L + Ibar + lam DX2.  L and the sum are the gates' forms: the Hamiltonian
    condition is the time derivative of the functional.  The
    ``conditions.forcings`` pi and chi are one matrix-vector product per
    (direction, level), so every column entry is bit-identical to a
    one-level, one-direction request.
    """
    v = (delta_x, gamma, upsilon)
    pi, chi = forcings(table, delta_x, gamma + upsilon)
    # One atom sum per row; a row of 0.0 has no term at these weights.
    dt_i, dt_ibar, dt_dx2 = (
        sum(np.sum(part * row, axis=-1)
            for part, row in zip(v, form_rows(table, weights, *v, pi, chi))
            if isinstance(row, np.ndarray))
        for weights in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    return {"dtI_rhs": dt_i, "dtIbar_rhs": dt_ibar, "d_deltaX2_rhs": dt_dx2,
            "cd_disp_rhs": dt_i + dt_ibar + lam * dt_dx2}


def build_traces(access: ValueAccess, etas: np.ndarray, kind: Kind) -> PropagationTraces:
    """The traces of the (B, N) stack etas, direction b in row b, from one
    batched variational run; the series is the kind's functional of the
    pairings."""
    dx, gamma, upsilon, table = simulate_variational(access, etas)
    p = pairings(dx, gamma, upsilon)
    exact = evaluate_rhs_formulas(table, dx, gamma, upsilon, lam=kind.lam)
    return PropagationTraces(
        kind=kind, ts=access.flow.grid.ts, i=p.i, ibar=p.ibar, dx2=p.dx2,
        series=kind.functional(p), dt_i_rhs=exact["dtI_rhs"],
        dt_ibar_rhs=exact["dtIbar_rhs"], dt_dx2_rhs=exact["d_deltaX2_rhs"],
        cd_disp_rhs=exact["cd_disp_rhs"])


def formula_match_violations(traces: PropagationTraces, rel: float = 0.10,
                             abs_tol: float = 1e-3) -> list:
    """Interior steps where a finite-difference slope disagrees with its
    exact derivative expression, by direction, then pair, then level.

    Every kind checks the Lasry-Lions pairing I against ``dt_i_rhs``, and
    adds the (series, exact derivative) pairs of ``Kind.formula_pairs``.
    """
    pairs = [(traces.i, traces.dt_i_rhs, {})] + traces.kind.formula_pairs(traces)
    # (B, pairs, interior levels) stacks of both sides and their tolerances.
    lhs = np.stack([traces.slope(series) for series, _, _ in pairs], axis=1)[..., 1:-1]
    rhs = np.stack([exact for _, exact, _ in pairs], axis=1)[..., 1:-1]
    tol = np.maximum(rel * np.maximum(np.abs(lhs), np.abs(rhs)), abs_tol)
    ts = traces.ts
    return [{"level": int(k) + 1, "t": float(ts[k + 1]), "slope": float(lhs[b, j, k]),
             "rhs": float(rhs[b, j, k]), "tol": float(tol[b, j, k]), **pairs[j][2],
             "direction": int(b)}
            for b, j, k in zip(*np.nonzero(np.abs(lhs - rhs) > tol))]


class Kind:
    """One monotonicity kind: its parameters, its functional of the
    ``Pairings``, its verdict sign, its Hamiltonian gate and its propagation
    rules.  A verdict reads sign * value >= -tol.  Each kind also sets
    ``name``, ``lam`` (of the ``cd_disp_rhs`` trace column) and ``lvec``.
    The propagation hooks ``formula_pairs`` and ``slope_rule`` read a
    battery's ``PropagationTraces`` record whole, one row per direction.
    ``monotonicity.mon_disp`` evaluates the functional at fixed levels.  The
    gates look ``check_*`` up in this module at call time, never stored, so
    that perfbench's layer trace still counts them."""

    sign = 1
    writes_xi = False   # whether trace.csv records the functional as Xi

    def holds(self, values: np.ndarray, tol: float) -> bool:
        return bool(np.min(self.sign * np.asarray(values)) >= -tol)

    def terminal_check(self, flow: EquilibriumFlow) -> tuple:
        """(details, reason) of an extra check on the solved flow; reason is
        None when it holds."""
        return {}, None

    def formula_pairs(self, traces: PropagationTraces) -> list:
        """(series, exact derivative, label) pairs of (B, levels) arrays
        checked besides I."""
        return []

    def slope_rule(self, traces: PropagationTraces, tol: float) -> tuple:
        """(rates, bad, endpoint_ok): the (B, levels) centered slopes of the
        series, the mask of those that run against the sign by more than
        tol, and whether each direction's t0 endpoint holds."""
        rates = traces.slope(traces.series)
        return rates, self.sign * rates > tol, self.sign * traces.series[:, 0] >= -tol


@dataclass(frozen=True)
class LasryLions(Kind):
    """Lasry-Lions monotonicity: I >= 0."""

    name = "ll"
    lam = 0.0
    lvec = None

    @classmethod
    def from_config(cls, cfg) -> LasryLions:
        return cls()

    def functional(self, p: Pairings) -> np.ndarray:
        return p.i

    def gate(self, model: Model, xi: np.ndarray, p: np.ndarray) -> ConditionReport:
        return check_ll_condition(model, xi, p)


@dataclass(frozen=True)
class Displacement(Kind):
    """Displacement lambda-monotonicity: I + Ibar + lam dX2 >= 0; lam > 0 is
    semi-monotonicity."""

    lam: float
    name = "disp"
    lvec = None

    def __post_init__(self):
        if not self.lam >= 0:
            raise MonotonicityError("displacement parameter lambda must be nonnegative")

    @classmethod
    def from_config(cls, cfg) -> Displacement:
        return cls(cfg.lam())

    def functional(self, p: Pairings) -> np.ndarray:
        return p.i + p.ibar + self.lam * p.dx2

    def gate(self, model: Model, xi: np.ndarray, p: np.ndarray) -> ConditionReport:
        return check_disp_condition(model, self.lam, xi, p)

    def formula_pairs(self, traces: PropagationTraces) -> list:
        return [(traces.series, traces.cd_disp_rhs, {"series": "disp"})]


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

    def functional(self, p: Pairings) -> np.ndarray:
        lv = self.lvec
        return lv.l0 * p.ibar + lv.l1 * p.i + p.g2 + lv.l2 * p.u2 - lv.l3 * p.dx2

    def gate(self, model: Model, xi: np.ndarray, p: np.ndarray) -> ConditionReport:
        return check_anti_assumption(model, self.lvec, self.l0, self.gamma_lo,
                                     self.gamma_hi, self.l_bar, self.lu_xx, xi, p)

    def terminal_check(self, flow: EquilibriumFlow) -> tuple:
        """The curvature bound |Vxx| <= lu_xx on the whole solved field."""
        vxx_max = float(np.max(np.abs(flow.value_field.u_xx)))
        reason = None if vxx_max <= self.lu_xx else (
            f"curvature bound violated on the solved field: {vxx_max:.4f} > {self.lu_xx}")
        return {"vxx_max": vxx_max, "vxx_bound": self.lu_xx}, reason

    def slope_rule(self, traces: PropagationTraces, tol: float) -> tuple:
        """Forward increments, judged at their later level (level 0 has none:
        its rate is 0, within any tol >= 0); the t0 endpoint must also stay
        within tol of the terminal value."""
        series = traces.series
        rates = np.zeros_like(series)
        rates[:, 1:] = np.diff(series) / np.diff(traces.ts)
        return rates, self.sign * rates > tol, ((series[:, 0] <= series[:, -1] + tol)
                                                & (self.sign * series[:, 0] >= -tol))


MONOTONICITY_KINDS = {cls.name: cls for cls in (LasryLions, Displacement, AntiMonotone)}


@dataclass
class PropagationConfig:
    """Settings of a mono or propagate run; ``ExperimentConfig.propagation``
    holds every default.  Only a propagate run has a gate: a mono run's
    settings hold 0 gate samples of 0 atoms and do not enforce it."""

    kind: Kind
    n_directions: int
    tol_c: float
    gate_samples: int
    gate_atoms: int
    seed: int
    enforce_gate: bool

    def tolerance(self, flow: EquilibriumFlow) -> float:
        """The run's discretisation tolerance on the flow's grid and cloud."""
        grid = flow.grid
        return tolerance_scale(grid.dt, grid.dx, flow.n_particles, self.tol_c)


@dataclass
class PropagationResult:
    """``traces`` is the battery's one record and ``endpoint_values`` its
    series at t0; each violation list runs direction by direction."""

    kind: str
    tolerance: float
    traces: PropagationTraces
    slope_violations: list
    formula_violations: list
    endpoint_values: np.ndarray
    verdict: bool
    details: dict


def model_gate(model: Model, config: PropagationConfig) -> ConditionReport:
    """The Hamiltonian-condition gate of the experiment's kind; runs before
    any solve so a failing configuration can be rejected cheaply."""
    xi, p = make_condition_samples(config.gate_samples, config.gate_atoms, config.seed)
    return config.kind.gate(model, xi, p)


def propagation_experiment(access: ValueAccess,
                           config: PropagationConfig) -> PropagationResult:
    """Terminal gate, trace, and verdict for one propagation theorem at desk
    scale, on the access's converged flow; the Hamiltonian gate
    (``model_gate``) is the caller's, before the solve.

    Gating: the terminal cost must carry the monotonicity of ``config.kind``,
    and the kind's ``terminal_check`` must hold on the solved flow (the
    anti-monotone curvature bound); with ``config.enforce_gate`` a failure is
    a ``GateError`` whose details are the stage's measurements.  The verdict
    then requires the kind's ``slope_rule`` (the per-step sign of the series'
    derivative and the endpoint claim, both within the discretisation
    tolerance) and its formula matches on every direction.
    """
    kind, flow = config.kind, access.flow
    n_t, tol = flow.grid.n_t, config.tolerance(flow)
    battery = np.array(direction_battery(flow.states[n_t], config.n_directions, config.seed))
    terminal = mon_disp(access, [n_t], battery[:, None], kind)[:, 0]
    details: dict = {"terminal_values": terminal.tolist()}
    if config.enforce_gate and not kind.holds(terminal, tol):
        raise GateError("terminal cost does not carry the required monotonicity", details)
    extra, reason = kind.terminal_check(flow)
    details.update(extra)
    if config.enforce_gate and reason is not None:
        raise GateError(reason, details)

    etas = np.array(direction_battery(flow.states[0], config.n_directions, config.seed))
    traces = build_traces(access, etas, kind)
    formula_violations = formula_match_violations(traces)
    rates, bad, endpoint_ok = kind.slope_rule(traces, tol)
    ts, endpoint_values = traces.ts, traces.series[:, 0]
    slope_violations = [{"direction": int(b), "level": int(k), "t": float(ts[k]),
                         "value": float(rates[b, k])} for b, k in zip(*np.nonzero(bad))]
    slope_violations += [{"direction": int(b), "level": 0, "t": float(ts[0]),
                          "value": float(endpoint_values[b]), "endpoint": True}
                         for b in np.flatnonzero(~endpoint_ok)]
    # A stable sort: each direction's levels, then its endpoint.
    slope_violations.sort(key=lambda v: v["direction"])
    verdict = (not slope_violations) and (not formula_violations)
    return PropagationResult(
        kind=kind.name, tolerance=tol, traces=traces, slope_violations=slope_violations,
        formula_violations=formula_violations,
        endpoint_values=endpoint_values, verdict=bool(verdict), details=details,
    )
