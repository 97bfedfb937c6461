"""Layer trace of mfgclab, recorded from outside the package.

The tracer rebinds the public functions at each module boundary: the module
attribute where the caller looks the function up (``mfgclab.solver.hamiltonian``,
``mfgclab.propagation.hat_derivative_table``, ...) or the class attribute of a
method (``ValueAccess.field``).  The package source is not edited.  A boundary
whose function no longer exists is recorded as absent, so the benchmark keeps
running after a refactor deletes or renames it.

Every wrapped call adds to its group's call count, summed time and self time
(its duration minus the wrapped calls inside it), and its self time is also
credited to its layer.  Calls nested inside a call of the same group count
once.  Boundaries with ``span=True`` also keep a span (id, parent id, name,
start, end) in memory; the hot model functions below ``ValueAccess.field``
keep only counters.
"""
from __future__ import annotations

import fnmatch
import functools
import importlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

LAYERS = ("config", "solver", "models", "calculus", "monotonicity", "conditions",
          "propagation", "cli")


@dataclass(frozen=True)
class Boundary:
    """One traced entry point.

    ``name`` is an attribute path in the defining module and may be a glob
    (``check_*``).  The wrapper replaces the function wherever another
    mfgclab module holds it; ``internal`` also replaces it in the defining
    module, for functions whose boundary callers live there.
    """

    group: str
    layer: str
    module: str
    name: str
    span: bool = True
    internal: bool = False


BOUNDARIES = (
    Boundary("config.from_ini", "config", "mfgclab.config", "ExperimentConfig.from_ini"),
    Boundary("solver.solve_mfgc", "solver", "mfgclab.solver", "solve_mfgc"),
    Boundary("solver.field", "solver", "mfgclab.solver", "ValueAccess.field"),
    Boundary("solver.terminal_field", "solver", "mfgclab.solver", "terminal_field",
             span=False, internal=True),
    Boundary("models.fixed_point_phi", "models", "mfgclab.models", "fixed_point_phi",
             span=False),
    Boundary("models.hamiltonian", "models", "mfgclab.models", "hamiltonian", span=False),
    Boundary("models.hamiltonian_dp", "models", "mfgclab.models", "hamiltonian_dp",
             span=False),
    Boundary("models.hat_derivative_table", "models", "mfgclab.models",
             "hat_derivative_table"),
    Boundary("models.verify_envelope_identities", "models", "mfgclab.models",
             "verify_envelope_identities"),
    Boundary("calculus.value_measure_gradient", "calculus", "mfgclab.calculus",
             "value_measure_gradient"),
    Boundary("calculus.chain_rule_check", "calculus", "mfgclab.calculus",
             "chain_rule_check"),
    Boundary("monotonicity.evals", "monotonicity", "mfgclab.monotonicity", "mon_ll",
             internal=True),
    Boundary("monotonicity.evals", "monotonicity", "mfgclab.monotonicity", "mon_disp",
             internal=True),
    Boundary("monotonicity.evals", "monotonicity", "mfgclab.monotonicity", "mon_anti",
             internal=True),
    Boundary("monotonicity.sweep", "monotonicity", "mfgclab.monotonicity",
             "monotonicity_sweep"),
    Boundary("conditions.checks", "conditions", "mfgclab.conditions", "check_*"),
    Boundary("propagation.model_gate", "propagation", "mfgclab.propagation", "model_gate",
             internal=True),
    Boundary("propagation.simulate_variational", "propagation", "mfgclab.propagation",
             "simulate_variational", internal=True),
    Boundary("propagation.evaluate_rhs_formulas", "propagation", "mfgclab.propagation",
             "evaluate_rhs_formulas", internal=True),
    Boundary("cli.artifacts", "cli", "mfgclab.propagation", "traces_to_csv"),
    Boundary("cli.artifacts", "cli", "mfgclab.solver", "EquilibriumFlow.to_csv"),
)

# The benchmark's call into the CLI; its self time is the cli layer's own work.
OPERATION = Boundary("cli.main", "cli", "mfgclab.cli", "main")


def _resolve(boundary: Boundary) -> list:
    """(owner, attribute, function) for each existing target of the boundary."""
    try:
        module = importlib.import_module(boundary.module)
    except ImportError:
        return []
    *owner_path, pattern = boundary.name.split(".")
    owner = module
    for part in owner_path:
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    names = sorted(n for n in vars(owner) if fnmatch.fnmatchcase(n, pattern))
    out = []
    for name in names:
        value = vars(owner)[name]
        if isinstance(value, type) or not callable(getattr(value, "__func__", value)):
            continue
        if owner is module and getattr(value, "__module__", None) != module.__name__:
            continue  # a name the defining module imported from elsewhere
        out.append((owner, name, value))
    return out


class Tracer:
    """In-memory counters, timers and spans for one benchmark run."""

    def __init__(self):
        self.stats: dict = {}             # group -> [calls, seconds, self seconds]
        self.layer_self = Counter()
        self.counts = Counter()           # derived counters: re-solves, hits, sweeps
        self.entered = Counter()          # every entry, nested or not
        self.active = Counter()
        self.spans: list = []             # (id, parent id, group, start, end)
        self.present: set = set()
        self._stack: list = []            # frames: [child seconds, span id for children]

    def install(self) -> None:
        """Rebind every boundary that still exists."""
        package = [m for name, m in list(sys.modules.items())
                   if name == "mfgclab" or name.startswith("mfgclab.")]
        for boundary in BOUNDARIES:
            for owner, name, value in _resolve(boundary):
                self.present.add(boundary.group)
                self.stats.setdefault(boundary.group, [0, 0.0, 0.0])
                if isinstance(owner, type):
                    if isinstance(value, classmethod):
                        setattr(owner, name, classmethod(self.wrap(boundary, value.__func__)))
                    else:
                        setattr(owner, name, self.wrap(boundary, value))
                    continue
                wrapper = self.wrap(boundary, value)
                for module in package:
                    if module is owner and not boundary.internal:
                        continue
                    for attr, held in list(vars(module).items()):
                        if held is value:
                            setattr(module, attr, wrapper)

    def wrap(self, boundary: Boundary, fn):
        group, layer, span = boundary.group, boundary.layer, boundary.span
        stats = self.stats.setdefault(group, [0, 0.0, 0.0])
        stack, spans, entered, active = self._stack, self.spans, self.entered, self.active
        layer_self = self.layer_self
        clock = time.perf_counter
        after = {"solver.field": self._classify_field,
                 "solver.solve_mfgc": self._count_sweeps}.get(group)

        def wrapper(*args, **kwargs):
            entered[group] += 1
            outer = active[group] == 0
            active[group] += 1
            parent = stack[-1] if stack else None
            sid = None
            if span:
                sid = len(spans)
                spans.append(None)
            frame = [0.0, sid if span else (parent[1] if parent else None)]
            before = None if after is None else (entered["models.fixed_point_phi"],
                                                 entered["solver.terminal_field"])
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[group] -= 1
                duration = end - start
                own = duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if outer:
                    stats[0] += 1
                    stats[1] += duration
                stats[2] += own
                layer_self[layer] += own
                if span:
                    spans[sid] = (sid, parent[1] if parent else None, group, start, end)
            if after is not None:
                after(result, before)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _classify_field(self, result, before) -> None:
        if self.entered["models.fixed_point_phi"] > before[0]:
            self.counts["solver.field.resolves"] += 1
        elif self.entered["solver.terminal_field"] > before[1]:
            self.counts["solver.field.terminal"] += 1
        else:
            self.counts["solver.field.hits"] += 1

    def _count_sweeps(self, result, before) -> None:
        self.counts["solver.solve_mfgc.sweeps"] += getattr(result, "picard_iterations", 0)

    def metrics(self, ops: int) -> dict:
        """Per-operation metrics of the groups and layers that exist."""
        out = {}
        for group, (calls, seconds, own) in self.stats.items():
            out[f"{group}.calls"] = calls / ops
            out[f"{group}.s"] = seconds / ops
            out[f"{group}.self_s"] = own / ops
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self[layer] / ops
        if "monotonicity.evals" in self.present:
            out["monotonicity.evals"] = out["monotonicity.evals.calls"]
        if "solver.solve_mfgc" in self.present:
            out["solver.solve_mfgc.sweeps"] = self.counts["solver.solve_mfgc.sweeps"] / ops
        if {"solver.field", "models.fixed_point_phi", "solver.terminal_field"} <= self.present:
            calls = self.stats["solver.field"][0]
            for kind in ("resolves", "terminal", "hits"):
                out[f"solver.field.{kind}"] = self.counts[f"solver.field.{kind}"] / ops
            out["solver.field.hit_ratio"] = (self.counts["solver.field.hits"] / calls
                                             if calls else 0.0)
        return out

    def write(self, path: Path, header: dict) -> None:
        """Write the spans and counters kept in memory during the run."""
        payload = {**header, "stats": self.stats, "counts": dict(self.counts),
                   "layer_self_s": dict(self.layer_self),
                   "spans": ["id parent name start end".split()] + self.spans}
        path.write_text(json.dumps(payload))
