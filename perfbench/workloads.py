"""Benchmark inputs: INI templates, the seed-to-input map and per-operation checks.

The parameter values copy the shipped configs in ``configs/`` so that the
benchmark's work stays fixed when a later change edits those files.  The
workload seed only chooses the ``[experiment] seed`` of each input (Brownian
increments, noise directions and condition samples); grids, models and the
direction battery are the same for every seed.  The correctness checks do not
depend on the seed.
"""
from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

LL_MODEL = {"family": "ll_example", "c1": "0.5", "c2": "0.05", "c3": "0.1",
            "b1_mean": "0 0 0.75", "b2_x": "0", "f1_x": "0 0 0.125"}
LL_TERMINAL = {"gxx": "0.25", "gxm": "0.1"}
WIDE_GRID = {"x_min": "-6", "x_max": "6", "n_x": "121", "t0": "0", "t_end": "0.5",
             "n_t": "auto"}
GAUSS16 = {"n": "16", "kind": "gaussian", "mean": "0", "sd": "1"}
PICARD = {"max_iter": "200", "damping": "0.6", "tol": "1e-10"}
GATE = {"samples": "40", "atoms": "16"}

# Model/grid/particle/Picard sections of the three shipped propagate configs.
LL_FLOW = {"model": LL_MODEL, "terminal": LL_TERMINAL, "grid": WIDE_GRID,
           "particles": GAUSS16, "picard": PICARD}
DISP_FLOW = {
    "model": {"family": "disp_example", "c": "0.5", "b1_mean": "0 0 0.6",
              "f1_x": "0 0 0.25"},
    "terminal": {"gxx": "1.0"},
    "grid": WIDE_GRID, "particles": GAUSS16, "picard": PICARD,
}
ANTI_FLOW = {
    "model": {"family": "anti_example", "c": "0.3", "gamma": "1.0", "l0": "10.5"},
    "terminal": {"gxx": "-0.5"},
    "grid": {"x_min": "-1.5", "x_max": "1.5", "n_x": "61", "t0": "0", "t_end": "0.1",
             "n_t": "auto"},
    "particles": {"n": "16", "kind": "gaussian", "mean": "0", "sd": "0.35"},
    "picard": PICARD,
}
LQ_GXX = 1.0
LQ_FLOW = {
    "model": {"family": "ll_example", "c1": "0", "c2": "0", "c3": "0"},
    "terminal": {"gxx": repr(LQ_GXX)},
    "grid": {"x_min": "-6", "x_max": "6", "n_x": "201", "t0": "0", "t_end": "0.5",
             "n_t": "auto"},
    "particles": GAUSS16,
    "picard": {"max_iter": "40", "damping": "1.0", "tol": "1e-10"},
}
# Two directions are the +/- constant sign pair of the battery.
PROPAGATE_LL = {"kind": "ll", "directions": "2", "slices": "5", "fd_eps": "1e-3",
                "tol_c": "0.05"}


@dataclass(frozen=True)
class Op:
    """One experiment: a CLI command on one generated INI file."""

    name: str
    command: str
    sections: dict
    expect_exit: int
    check: Callable[[Path], str | None]

    def ini_text(self, seed: int) -> str:
        sections = {"experiment": {"kind": self.command, "seed": str(seed)},
                    **self.sections}
        lines = []
        for section, entries in sections.items():
            lines.append(f"[{section}]")
            lines += [f"{key} = {value}" for key, value in entries.items()]
            lines.append("")
        return "\n".join(lines)


def _report(out_dir: Path) -> dict:
    return json.loads((out_dir / "report.json").read_text())


def _no_check(out_dir: Path) -> str | None:
    return None


def _check_propagate_pass(out_dir: Path) -> str | None:
    report = _report(out_dir)
    if report["formula_violations"]:
        return f"{len(report['formula_violations'])} formula violations"
    return None


def _check_propagate_control(out_dir: Path) -> str | None:
    report = _report(out_dir)
    if report["formula_violations"]:
        return f"{len(report['formula_violations'])} formula violations"
    if not report["slope_violations"]:
        return "negative control raised no slope violation"
    return None


def _check_mono(out_dir: Path) -> str | None:
    report = _report(out_dir)
    if report["minimum"] < -report["tolerance"]:
        return f"minimum {report['minimum']:.4e} below -tolerance {report['tolerance']:.4e}"
    return None


def riccati_error(flow_csv: Path, gxx: float = LQ_GXX) -> tuple:
    """(max |u_x - 2 P(t) X| over all particle rows, tier-1 bound 5 (dx^2 + dt)).

    P solves the backward Riccati equation P' = 2 P^2, P(T) = gxx / 2, of the
    uncoupled linear-quadratic family, integrated by scipy as in the solver
    tests.  dt is read from the CSV's time column; dx from the LQ grid.
    """
    with open(flow_csv, newline="") as handle:
        rows = list(csv.DictReader(handle))
    ts = np.array([float(r["t"]) for r in rows])
    xs = np.array([float(r["state"]) for r in rows])
    ux = np.array([float(r["u_x"]) for r in rows])
    t_end = float(ts.max())
    sol = solve_ivp(lambda s, y: [-2.0 * y[0] ** 2], (0.0, t_end), [0.5 * gxx],
                    rtol=1e-12, atol=1e-14, dense_output=True)
    p = sol.sol(t_end - ts)[0]
    err = float(np.max(np.abs(ux - 2.0 * p * xs)))
    grid = LQ_FLOW["grid"]
    dx = (float(grid["x_max"]) - float(grid["x_min"])) / (int(grid["n_x"]) - 1)
    levels = np.unique(ts)
    dt = float(levels[1] - levels[0])
    return err, 5.0 * (dx * dx + dt)


def _check_lq(out_dir: Path) -> str | None:
    err, bound = riccati_error(out_dir / "flow.csv")
    if err > bound:
        return f"riccati_err {err:.3e} exceeds 5(dx^2+dt) = {bound:.3e}"
    return None


LQ_SOLVE = Op("lq_solve", "solve", LQ_FLOW, 0, _check_lq)


@dataclass(frozen=True)
class Workload:
    """A round of operations, repeated until the run's time is up.

    ``per_round`` makes one timed sample (and one attempted operation) per
    round instead of one per experiment.
    """

    name: str
    round: tuple
    per_round: bool = False

    def seeds(self, seed: int) -> list:
        """Experiment seeds of the round's inputs, a pure function of the workload seed."""
        rng = random.Random(f"{self.name}:{seed}")
        return [rng.randrange(1, 2**31 - 1) for _ in self.round]


WORKLOADS = {
    # The hot path: fixed-sweep re-solves inside ValueAccess.field.
    "propagate": Workload("propagate", (
        Op("ll_propagation", "propagate",
           {**LL_FLOW, "monotonicity": PROPAGATE_LL, "check": GATE},
           0, _check_propagate_pass),
        Op("ll_negative_control", "propagate",
           {**LL_FLOW, "model": {**LL_MODEL, "c2": "-0.2"},
            "monotonicity": {**PROPAGATE_LL, "force_gate": "false"}, "check": GATE},
           2, _check_propagate_control),
    )),
    # The same field layer, with more than half of its requests served by the cache.
    "mono": Workload("mono", (
        Op("ll_mono", "mono",
           {**LL_FLOW, "monotonicity": {"kind": "ll", "directions": "12", "slices": "5",
                                        "fd_eps": "1e-3", "tol_c": "0.05"}},
           0, _check_mono),
    )),
    # Converged Picard solves, condition checkers, chain rule and CSV output.
    "solve_check": Workload("solve_check", (
        Op("ll_solve", "solve", LL_FLOW, 0, _no_check),
        Op("disp_solve", "solve", DISP_FLOW, 0, _no_check),
        Op("anti_solve", "solve", ANTI_FLOW, 0, _no_check),
        LQ_SOLVE,
        Op("ll_check", "check",
           {"model": {k: v for k, v in LL_MODEL.items() if k not in ("b2_x", "f1_x")},
            "check": {"which": "envelope matrix1 ll", **GATE}},
           0, _no_check),
        Op("chain", "chain",
           {"chain": {"shift_c": "0.5", "pairs": "20", "atoms": "16", "tol": "1e-6"}},
           0, _no_check),
    ), per_round=True),
}


def accuracy_seeds(seed: int, count: int) -> list:
    """Experiment seeds of the linear-quadratic solves behind ``riccati_err``."""
    rng = random.Random(f"riccati:{seed}")
    return [rng.randrange(1, 2**31 - 1) for _ in range(count)]
