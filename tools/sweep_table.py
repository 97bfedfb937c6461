"""Picard sweeps of the benchmark's solves, the shipped configs and the stiff
variants, at several Anderson depths.

Usage: python tools/sweep_table.py DEPTH [DEPTH ...] [--set all|bench|stiff] [--time R]

Each row is one equilibrium solve: the solve inputs that ``perfbench/run.py``
builds for workload seeds 1 to 6, each shipped config that solves, and nine
stiff variants of shipped configs (ll c1 = 0.9, 0.99, 0.998; anti c = 0.9,
0.95; the quartic model; gxm = -2 at T = 1 on [-24, 24]; the semi model;
disp c = 0.99).  For each depth the row gives the sweeps of ``solve_mfgc``
with ``solver.ANDERSON_DEPTH`` set to it, or the name of the error that
ended the solve.  With ``--time R`` it also gives the best of R solve times
in ms, the depths interleaved within each repetition.  BLAS runs on one
thread.
"""
from __future__ import annotations

import argparse
import configparser
import os
import sys
import tempfile
import time
from pathlib import Path

os.environ.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (perfbench's input templates)

from mfgclab import solver  # noqa: E402
from mfgclab.config import ExperimentConfig  # noqa: E402

SOLVING = ("solve", "propagate", "mono")


def shipped_text(name: str, edits: dict | None = None) -> str:
    """The INI text of a shipped config with some (section, key) values replaced."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(ROOT / "configs" / f"{name}.ini")
    for (section, key), value in (edits or {}).items():
        parser[section][key] = value
    return "\n".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in parser[section].items())
                     for section in parser.sections())


def bench_cases() -> list:
    cases = []
    for load in workloads.WORKLOADS.values():
        for index, op in enumerate(load.round):
            if op.command in SOLVING:
                cases += [(f"bench {op.name} seed {seed}", op.ini_text(load.seeds(seed)[index]))
                          for seed in range(1, 7)]
    for path in sorted((ROOT / "configs").glob("*.ini")):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read(path)
        if parser["experiment"]["kind"].strip() in SOLVING:
            cases.append((f"shipped {path.stem}", path.read_text()))
    return cases


def stiff_cases() -> list:
    ll = "ll_propagation"
    return [
        ("ll c1 = 0.9", shipped_text(ll, {("model", "c1"): "0.9"})),
        ("ll c1 = 0.99", shipped_text(ll, {("model", "c1"): "0.99"})),
        ("ll c1 = 0.998", shipped_text(ll, {("model", "c1"): "0.998"})),
        ("anti c = 0.9", shipped_text("anti_propagation", {("model", "c"): "0.9"})),
        ("anti c = 0.95", shipped_text("anti_propagation", {("model", "c"): "0.95"})),
        ("quartic", shipped_text(ll, {("model", "f1_x"): "0 0 0.125 0 0.05"})),
        ("gxm = -2, T = 1, [-24, 24]", shipped_text(ll, {
            ("terminal", "gxm"): "-2", ("grid", "t_end"): "1", ("grid", "x_min"): "-24",
            ("grid", "x_max"): "24", ("grid", "n_x"): "481"})),
        ("semi", shipped_text("disp_semi_propagation")),
        ("disp c = 0.99", shipped_text("disp_propagation", {("model", "c"): "0.99"})),
    ]


def sweeps(inputs: tuple, seed: int):
    try:
        return solver.solve_mfgc(*inputs, seed=seed).picard_iterations
    except solver.SolverError as err:
        return type(err).__name__


def best_times(inputs: tuple, seed: int, depths: list, repeats: int) -> dict:
    best = dict.fromkeys(depths, float("inf"))
    for _ in range(repeats):
        for depth in depths:
            solver.ANDERSON_DEPTH = depth
            start = time.perf_counter()
            try:
                solver.solve_mfgc(*inputs, seed=seed)
            except solver.SolverError:
                pass
            best[depth] = min(best[depth], time.perf_counter() - start)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("depths", type=int, nargs="+")
    parser.add_argument("--set", choices=("all", "bench", "stiff"), default="all")
    parser.add_argument("--time", type=int, default=0, metavar="R")
    args = parser.parse_args()
    cases = ((bench_cases() if args.set != "stiff" else [])
             + (stiff_cases() if args.set != "bench" else []))
    print("solve", *(f"depth {d}" for d in args.depths),
          *(f"ms at {d}" for d in args.depths if args.time), sep="\t")
    totals = dict.fromkeys(args.depths, 0)
    with tempfile.TemporaryDirectory() as tmp:
        for index, (name, text) in enumerate(cases):
            path = Path(tmp) / f"case{index}.ini"
            path.write_text(text)
            cfg = ExperimentConfig.from_ini(path)
            inputs = (cfg.model(), cfg.initial_cloud(), cfg.grid(), cfg.picard())
            row = []
            for depth in args.depths:
                solver.ANDERSON_DEPTH = depth
                row.append(sweeps(inputs, cfg.seed))
                totals[depth] += row[-1] if isinstance(row[-1], int) else 0
            if args.time:
                best = best_times(inputs, cfg.seed, args.depths, args.time)
                row += [f"{1e3 * best[d]:.1f}" for d in args.depths]
            print(name, *row, sep="\t", flush=True)
    print(f"total of {len(cases)} solves", *totals.values(), sep="\t")
    return 0


if __name__ == "__main__":
    sys.exit(main())
