"""The propagation verdict one direction at a time.

``propagation.build_traces`` returns one ``PropagationTraces`` record of
(B, levels) arrays, and the slope rules, the formula matches and the verdict
read it with array masks.  This is the per-direction code they replaced: one
``PropagationTrace`` per direction, and loops over directions and levels,
kept as the oracle that the batched verdict is compared against.
"""
from dataclasses import dataclass

import numpy as np


@dataclass
class PropagationTrace:
    """Scalar time series of one direction's variational run."""

    direction: int
    kind: object
    ts: np.ndarray
    i_vals: np.ndarray
    ibar_vals: np.ndarray
    dx2_vals: np.ndarray
    series: np.ndarray
    dt_i_rhs: np.ndarray
    dt_ibar_rhs: np.ndarray
    dt_dx2_rhs: np.ndarray
    cd_disp_rhs: np.ndarray

    def slope(self, series):
        """Per-step finite-difference slopes: centered inside, one-sided at the ends."""
        ts = self.ts
        out = np.empty_like(series)
        out[1:-1] = (series[2:] - series[:-2]) / (ts[2:] - ts[:-2])
        out[0] = (series[1] - series[0]) / (ts[1] - ts[0])
        out[-1] = (series[-1] - series[-2]) / (ts[-1] - ts[-2])
        return out


def split(traces):
    """One ``PropagationTrace`` per row of a ``PropagationTraces`` record."""
    return [PropagationTrace(b, traces.kind, traces.ts, traces.i[b], traces.ibar[b],
                             traces.dx2[b], traces.series[b], traces.dt_i_rhs[b],
                             traces.dt_ibar_rhs[b], traces.dt_dx2_rhs[b],
                             traces.cd_disp_rhs[b])
            for b in range(len(traces.i))]


def formula_pairs(trace):
    """The (series, exact derivative, label) pairs checked besides I: the
    displacement series for the disp kind, none for the others."""
    if trace.kind.name == "disp":
        return [(trace.series, trace.cd_disp_rhs, {"series": "disp"})]
    return []


def formula_match_violations(trace, rel=0.10, abs_tol=1e-3):
    """Interior steps where a finite-difference slope disagrees with its
    exact derivative expression."""
    pairs = [(trace.i_vals, trace.dt_i_rhs, {})] + formula_pairs(trace)
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


def slope_rule(trace, tol):
    """((level, slope) where the series runs against the kind's sign by more
    than tol, whether the t0 endpoint holds).  The anti kind judges forward
    increments at their later level, and its t0 endpoint must also stay
    within tol of the terminal value; the others judge centered slopes."""
    sign, series = trace.kind.sign, trace.series
    if trace.kind.name == "anti":
        increments = np.diff(series) / np.diff(trace.ts)
        bad = [(int(k) + 1, float(increments[k]))
               for k in np.flatnonzero(sign * increments > tol)]
        return bad, bool(series[0] <= series[-1] + tol and sign * series[0] >= -tol)
    slopes = trace.slope(series)
    bad = [(int(k), float(slopes[k])) for k in np.flatnonzero(sign * slopes > tol)]
    return bad, bool(sign * series[0] >= -tol)


def verdict_lists(traces, tol, rel=0.10, abs_tol=1e-3):
    """(slope_violations, formula_violations, endpoint_values) of the
    per-direction verdict loop."""
    slope_violations = []
    formula_violations = []
    endpoint_values = []
    for idx, trace in enumerate(traces):
        formula_violations.extend(dict(v, direction=idx)
                                  for v in formula_match_violations(trace, rel, abs_tol))
        bad, endpoint_ok = slope_rule(trace, tol)
        endpoint_values.append(float(trace.series[0]))
        slope_violations.extend({"direction": idx, "level": k, "t": float(trace.ts[k]),
                                 "value": value} for k, value in bad)
        if not endpoint_ok:
            slope_violations.append({"direction": idx, "level": 0,
                                     "t": float(trace.ts[0]),
                                     "value": float(trace.series[0]),
                                     "endpoint": True})
    return slope_violations, formula_violations, endpoint_values
