"""Batch experiment runner.

Subcommands: check (condition reports), solve (equilibrium flow export),
mono (monotonicity sweep), propagate (variational trace + verdict), chain
(the model's closed-form hat derivatives against central differences of
H(x, p, Phi(rho)) on random laws, all in one call, relative to the size of
H there).  Every run writes a manifest with the config echo, package
version, effective seed, wall time and the artifacts it wrote: a run first
removes every file name that a run writes (``ARTIFACTS``) from --out, and
leaves other files there alone and unlisted.  A solve, mono or propagate report
keeps the solver's record under ``solver``.  Exit codes: 0 pass, 1 config
error (an --out that names a file, too), 2 condition/verdict failure, 3
hypothesis or gate violation, 4 solver non-convergence.  Every exit 3 writes
a report; a propagate run's names the gate stage's reason and details.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .calculus import chain_rule_check
from .conditions import (
    check_disp_sufficient,
    check_f_monotone,
    control_coupling,
    make_condition_samples,
)
from .config import ConfigError, ExperimentConfig
from .models import verify_envelope_identities
from .monotonicity import MonotonicityError, monotonicity_sweep
from .propagation import (
    MONOTONICITY_KINDS,
    GateError,
    model_gate,
    propagation_experiment,
    traces_to_csv,
)
from .reports import _jsonable, write_csv
from .solver import PicardError, SolverError, ValueAccess, solve_mfgc

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FAIL = 2
EXIT_HYPOTHESIS = 3
EXIT_NO_CONVERGENCE = 4

# Every file a run writes to --out; a run first removes them all, so that
# the manifest, written last, lists only what this run wrote.
ARTIFACTS = ("chain.csv", "flow.csv", "manifest.json", "plot.gp", "report.json",
             "samples.csv", "trace.csv")

# The columns of samples.csv and chain.csv, keys of their row dicts.
SAMPLE_COLUMNS = ("t", "level", "direction", "value")
CHAIN_COLUMNS = ("law", "entry", "abs_error", "scale")


@functools.cache
def _git_describe(cwd: Path) -> str | None:
    """``git describe`` of the checkout at cwd, run once per directory and
    process: each run spawns git."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=cwd,
                             capture_output=True, text=True, timeout=5)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def _write_manifest(out_dir: Path, cfg: ExperimentConfig, wall_time: float) -> None:
    manifest = {
        "version": __version__,
        "revision": _git_describe(Path.cwd()),
        "kind": cfg.kind,
        "seed": cfg.seed,
        "wall_time_s": wall_time,
        "config": cfg.raw,
        "artifacts": sorted(p.name for p in out_dir.iterdir() if p.name in ARTIFACTS),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))


def _write_json(path: Path, payload) -> None:
    """Strict JSON: a non-finite number is written as null."""
    path.write_text(json.dumps(_jsonable(payload), indent=2, allow_nan=False))


# Per kind: the title, the x label and the commands of plot.gp, where {csv}
# stands for the data file.
PLOTS = {
    "solve": ("particle states", "t",
              ["plot '{csv}' using 1:3 every ::1 with points pt 7 ps 0.3 title 'X'"]),
    "mono": ("monotonicity functional samples", "t",
             ["plot '{csv}' using 1:4 every ::1 with points pt 7 title 'value'"]),
    "propagate": ("propagation trace", "t",
                  ["plot '{csv}' using 2:3 every ::1 with points pt 7 ps 0.3 title 'I', \\",
                   "     '{csv}' using 2:4 every ::1 with points pt 5 ps 0.3 title 'Ibar'"]),
    "chain": ("hat-derivative chain-rule check", "law",
              ["set logscale y",
               "plot '{csv}' using 1:3 every ::1 with points pt 7 title 'abs error'"]),
}


def _plot_script(out_dir: Path, kind: str, csv_name: str) -> None:
    title, xlabel, commands = PLOTS[kind]
    lines = ["set datafile separator ','", "set key outside", "set grid",
             f"set title '{title}'", f"set xlabel '{xlabel}'",
             *(command.format(csv=csv_name) for command in commands)]
    (out_dir / "plot.gp").write_text("\n".join(lines) + "\n")


def run_check(cfg: ExperimentConfig, out_dir: Path) -> int:
    model = cfg.model()
    n_samples, n_atoms = cfg.check_sizes()
    xi, p = make_condition_samples(n_samples, n_atoms, cfg.seed)
    reports = []
    for name in cfg.checkers():
        if name in MONOTONICITY_KINDS:
            reports.append(cfg.monotonicity_kind(name).gate(model, xi, p))
        elif name == "envelope":
            reports.append(verify_envelope_identities(model, sample_count=200, seed=cfg.seed))
        elif name == "disp_sufficient":
            c = control_coupling(model)
            if c is None:
                raise ConfigError("checker 'disp_sufficient' needs b0 = (1, 0, 0) and "
                                  "f0 = (0, 0, 0, c)")
            c0 = abs((model.B.coeffs[2] - c) / (1.0 - c))
            reports.append(check_disp_sufficient(model, cfg.lam(), c0, xi, p))
        else:  # fmon
            # Pair k is (xi1, a1, xi2, a2) = draws[k], one (4, n_atoms) draw per pair.
            draws = np.random.default_rng(cfg.seed).normal(size=(n_samples, 4, n_atoms))
            reports.append(check_f_monotone(model, *draws.transpose(1, 0, 2)))
    payload = {"reports": [r.to_dict() for r in reports],
               "worst_margin": np.min([r.worst_margin for r in reports]),
               "all_passed": all(r.passed for r in reports)}
    _write_json(out_dir / "report.json", payload)
    for report in reports:
        status = "pass" if report.passed else f"FAIL({report.failure_kind or 'condition'})"
        print(f"check {report.condition}: {status} worst margin {report.worst_margin:.3e}")
    if any(r.failure_kind for r in reports):
        return EXIT_HYPOTHESIS
    return EXIT_OK if payload["all_passed"] else EXIT_FAIL


def run_solve(cfg: ExperimentConfig, out_dir: Path) -> int:
    flow = solve_mfgc(cfg.model(), cfg.initial_cloud(), cfg.grid(), cfg.picard(), seed=cfg.seed)
    csv_path = out_dir / "flow.csv"
    flow.to_csv(csv_path)
    _write_json(out_dir / "report.json", {"solver": flow.run_metadata()})
    _plot_script(out_dir, "solve", csv_path.name)
    print(f"solve: {flow.picard_iterations} sweeps, residual {flow.final_residual:.3e}")
    return EXIT_OK


def run_mono(cfg: ExperimentConfig, out_dir: Path) -> int:
    model = cfg.model()
    flow = solve_mfgc(model, cfg.initial_cloud(), cfg.grid(), cfg.picard(), seed=cfg.seed)
    report = monotonicity_sweep(ValueAccess(model, flow), cfg.propagation(), cfg.slices())
    samples_path = out_dir / "samples.csv"
    write_csv(samples_path, SAMPLE_COLUMNS,
              [[s[name] for s in report.samples] for name in SAMPLE_COLUMNS])
    _write_json(out_dir / "report.json", {**report.to_dict(), "solver": flow.run_metadata()})
    _plot_script(out_dir, "mono", samples_path.name)
    print(f"mono {report.kind}: verdict {'pass' if report.verdict else 'FAIL'} "
          f"min {report.minimum:.4e} tol {report.tolerance:.4e}")
    return EXIT_OK if report.verdict else EXIT_FAIL


def run_propagate(cfg: ExperimentConfig, out_dir: Path) -> int:
    model = cfg.model()
    prop = cfg.propagation()
    gate = model_gate(model, prop)
    solver = {}   # the solver's record, once a solve has run
    try:
        if prop.enforce_gate and not gate.passed:
            raise GateError(f"Hamiltonian condition gate ({gate.condition}) failed "
                            "before the solve", {})
        flow = solve_mfgc(model, cfg.initial_cloud(), cfg.grid(), cfg.picard(), seed=cfg.seed)
        solver["solver"] = flow.run_metadata()
        result = propagation_experiment(ValueAccess(model, flow), prop)
    except GateError as err:
        _write_json(out_dir / "report.json",
                    {"kind": prop.kind.name, "verdict": False, "reason": str(err),
                     "gate": gate.to_dict(), "details": err.details, **solver})
        print(f"propagate {prop.kind.name}: gate violation: {err}")
        return EXIT_HYPOTHESIS
    csv_path = out_dir / "trace.csv"
    traces_to_csv(csv_path, result.traces)
    _write_json(out_dir / "report.json", {
        "kind": result.kind, "tolerance": result.tolerance, "verdict": result.verdict,
        "gate": gate.to_dict(), "slope_violations": result.slope_violations,
        "formula_violations": result.formula_violations,
        "endpoint_values": result.endpoint_values, "details": result.details, **solver})
    _plot_script(out_dir, "propagate", csv_path.name)
    print(f"propagate {result.kind}: verdict {'pass' if result.verdict else 'FAIL'} "
          f"({len(result.slope_violations)} slope / "
          f"{len(result.formula_violations)} formula violations, tol {result.tolerance:.3e})")
    return EXIT_OK if result.verdict else EXIT_FAIL


def run_chain(cfg: ExperimentConfig, out_dir: Path) -> int:
    model = cfg.model()
    n_laws, n_atoms, tol = cfg.chain_settings()
    # Law k is (x, p) = draws[k]: the stream of one (2, n_atoms) draw per law.
    x, p = np.random.default_rng(cfg.seed).normal(size=(n_laws, 2, n_atoms)).transpose(1, 0, 2)
    errors, scales = chain_rule_check(model, x, p)
    table = np.stack(list(errors.values()), axis=-1)
    csv_path = out_dir / "chain.csv"
    write_csv(csv_path, CHAIN_COLUMNS,
              [[k for k in range(n_laws) for _ in errors], list(errors) * n_laws,
               table.ravel().tolist(), np.repeat(scales, len(errors)).tolist()])
    worst = np.max(table / scales[:, None])
    payload = {"max_abs_error": np.max(table), "max_scale": np.max(scales),
               "max_scaled_error": worst, "tolerance": tol, "passed": worst <= tol}
    _write_json(out_dir / "report.json", payload)
    _plot_script(out_dir, "chain", csv_path.name)
    print(f"chain: max |closed form - fd| / scale = {worst:.3e} "
          f"({'pass' if worst <= tol else 'FAIL'})")
    return EXIT_OK if worst <= tol else EXIT_FAIL


RUNNERS = {
    "check": run_check,
    "solve": run_solve,
    "mono": run_mono,
    "propagate": run_propagate,
    "chain": run_chain,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfgclab",
        description="Mean field games of controls: solve, check, and verify "
                    "monotonicity propagation.",
    )
    parser.add_argument("command", choices=sorted(RUNNERS))
    parser.add_argument("--config", required=True, help="experiment INI file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--jobs", type=int, default=1,
                        help="ignored; evaluations run serially")
    args = parser.parse_args(argv)

    started = time.time()
    try:
        cfg = ExperimentConfig.from_ini(args.config)
        if cfg.kind != args.command:
            raise ConfigError(
                f"config declares kind {cfg.kind!r} but command is {args.command!r}")
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be at least 0, got {args.seed}")
            cfg = dataclasses.replace(cfg, seed=args.seed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for stale in out_dir.iterdir():
            if stale.name in ARTIFACTS:
                stale.unlink()
    except OSError as err:   # --out names a file, or a path through one
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        code = RUNNERS[args.command](cfg, out_dir)
    except (ConfigError, MonotonicityError) as err:
        # A runner's MonotonicityError is a direction battery that the
        # configured directions and particle count cannot fill.
        print(f"config error: {err}", file=sys.stderr)
        code = EXIT_CONFIG
    except PicardError as err:
        print(f"solver non-convergence: {err}", file=sys.stderr)
        code = EXIT_NO_CONVERGENCE
    except SolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        code = EXIT_NO_CONVERGENCE

    _write_manifest(out_dir, cfg, time.time() - started)
    return code


if __name__ == "__main__":
    sys.exit(main())
