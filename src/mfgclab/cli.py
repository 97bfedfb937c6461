"""Batch experiment runner.

Subcommands: check (condition reports), solve (equilibrium flow export),
mono (monotonicity sweep), propagate (variational trace + verdict), chain
(the model's closed-form hat derivatives against central differences of
H(x, p, Phi(rho)) on random laws, all in one call, relative to the size of
H there).  Every run writes a manifest with the config echo, package
version, effective seed and wall time.  Exit codes: 0 pass, 1 config error, 2 condition/verdict
failure, 3 hypothesis or gate violation, 4 solver non-convergence.
"""
from __future__ import annotations

import argparse
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
    ConditionError,
    check_disp_sufficient,
    check_f_monotone,
    check_matrix1,
    control_coupling,
    make_condition_samples,
)
from .config import ConfigError, ExperimentConfig
from .models import verify_envelope_identities
from .monotonicity import MonotonicityError, monotonicity_sweep, tolerance_scale
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


def _write_manifest(out_dir: Path, cfg: ExperimentConfig, seed: int,
                    wall_time: float, artifacts: list) -> None:
    manifest = {
        "version": __version__,
        "revision": _git_describe(Path.cwd()),
        "kind": cfg.kind,
        "seed": seed,
        "wall_time_s": wall_time,
        "config": cfg.raw,
        "artifacts": sorted(str(a.name) for a in artifacts),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))


def _write_json(path: Path, payload) -> Path:
    """Strict JSON: a non-finite number is written as null."""
    path.write_text(json.dumps(_jsonable(payload), indent=2, allow_nan=False))
    return path


def _plot_script(out_dir: Path, kind: str, csv_name: str) -> Path:
    lines = ["set datafile separator ','", "set key outside", "set grid"]
    if kind == "solve":
        lines += [
            f"set title 'particle states'",
            "set xlabel 't'",
            f"plot '{csv_name}' using 1:3 every ::1 with points pt 7 ps 0.3 title 'X'",
        ]
    elif kind == "mono":
        lines += [
            "set title 'monotonicity functional samples'",
            "set xlabel 't'",
            f"plot '{csv_name}' using 1:4 every ::1 with points pt 7 title 'value'",
        ]
    elif kind == "propagate":
        lines += [
            "set title 'propagation trace'",
            "set xlabel 't'",
            f"plot '{csv_name}' using 2:3 every ::1 with points pt 7 ps 0.3 title 'I', \\",
            f"     '{csv_name}' using 2:4 every ::1 with points pt 5 ps 0.3 title 'Ibar'",
        ]
    else:
        lines += [
            "set title 'hat-derivative chain-rule check'",
            "set xlabel 'law'",
            "set logscale y",
            f"plot '{csv_name}' using 1:3 every ::1 with points pt 7 title 'abs error'",
        ]
    path = out_dir / "plot.gp"
    path.write_text("\n".join(lines) + "\n")
    return path


def _coupling(model, checker: str) -> float:
    """c of a control-coupled model, which the matrix1 and disp_sufficient
    checkers need; any other model is a config error."""
    c = control_coupling(model)
    if c is None:
        raise ConfigError(f"checker {checker!r} needs b0 = (1, 0, 0) and f0 = (0, 0, 0, c)")
    return c


def run_check(cfg: ExperimentConfig, out_dir: Path, seed: int) -> int:
    model = cfg.model()
    n_samples, n_atoms = cfg.check_sizes()
    xi, p = make_condition_samples(n_samples, n_atoms, seed)
    reports = []
    for name in cfg.checkers():
        if name in MONOTONICITY_KINDS:
            reports.append(cfg.monotonicity_kind(name).gate(model, xi, p))
        elif name == "envelope":
            reports.append(verify_envelope_identities(model, sample_count=200, seed=seed))
        elif name == "matrix1":
            bmean = model.B.coeffs
            try:
                reports.append(check_matrix1(_coupling(model, name), model.q1, model.q2,
                                             bmean[1], bmean[2]))
            except ConditionError as err:
                raise ConfigError(f"checker {name!r}: {err}") from err
        elif name == "disp_sufficient":
            c = _coupling(model, name)
            c0 = abs((model.B.coeffs[2] - c) / (1.0 - c))
            reports.append(check_disp_sufficient(model, cfg.lam(), c0, xi, p))
        else:  # fmon
            # Pair k is (xi1, a1, xi2, a2) = draws[k], one (4, n_atoms) draw per pair.
            draws = np.random.default_rng(seed).normal(size=(n_samples, 4, n_atoms))
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


def run_solve(cfg: ExperimentConfig, out_dir: Path, seed: int) -> int:
    model = cfg.model()
    grid = cfg.grid()
    flow = solve_mfgc(model, cfg.initial_cloud(), grid, cfg.picard(), seed=seed)
    csv_path = out_dir / "flow.csv"
    flow.to_csv(csv_path)
    _write_json(out_dir / "report.json", flow.run_metadata())
    _plot_script(out_dir, "solve", csv_path.name)
    print(f"solve: {flow.picard_iterations} sweeps, residual {flow.final_residual:.3e}")
    return EXIT_OK


def run_mono(cfg: ExperimentConfig, out_dir: Path, seed: int) -> int:
    model = cfg.model()
    grid = cfg.grid()
    flow = solve_mfgc(model, cfg.initial_cloud(), grid, cfg.picard(), seed=seed)
    prop = cfg.propagation(seed)
    access = ValueAccess(model, flow)
    tol = tolerance_scale(grid.dt, grid.dx, flow.n_particles, prop.tol_c)
    report = monotonicity_sweep(access, prop.kind, slices=cfg.slices(),
                                battery_size=prop.n_directions, tolerance=tol,
                                seed=prop.seed)
    samples_path = out_dir / "samples.csv"
    write_csv(samples_path, SAMPLE_COLUMNS,
              [[s[name] for s in report.samples] for name in SAMPLE_COLUMNS])
    report.metadata["solver"] = flow.run_metadata()
    _write_json(out_dir / "report.json", report.to_dict())
    _plot_script(out_dir, "mono", samples_path.name)
    print(f"mono {report.kind}: verdict {'pass' if report.verdict else 'FAIL'} "
          f"min {report.minimum:.4e} tol {tol:.4e}")
    return EXIT_OK if report.verdict else EXIT_FAIL


def run_propagate(cfg: ExperimentConfig, out_dir: Path, seed: int) -> int:
    model = cfg.model()
    prop = cfg.propagation(seed)
    gate = model_gate(model, prop)
    if prop.enforce_gate and not gate.passed:
        _write_json(out_dir / "report.json",
                    {"gate": gate.to_dict(), "verdict": False,
                     "reason": "hamiltonian condition gate failed before solve"})
        print(f"propagate: gate failed ({gate.condition}), no solve attempted")
        return EXIT_HYPOTHESIS
    flow = solve_mfgc(model, cfg.initial_cloud(), cfg.grid(), cfg.picard(), seed=seed)
    result = propagation_experiment(ValueAccess(model, flow), prop, gate)
    csv_path = out_dir / "trace.csv"
    traces_to_csv(csv_path, result.traces)
    payload = {
        "kind": result.kind,
        "tolerance": result.tolerance,
        "verdict": result.verdict,
        "gate_reports": [g.to_dict() for g in result.gate_reports],
        "slope_violations": result.slope_violations,
        "formula_violations": result.formula_violations,
        "endpoint_values": result.endpoint_values,
        "details": result.details,
        "solver": flow.run_metadata(),
    }
    _write_json(out_dir / "report.json", payload)
    _plot_script(out_dir, "propagate", csv_path.name)
    print(f"propagate {result.kind}: verdict {'pass' if result.verdict else 'FAIL'} "
          f"({len(result.slope_violations)} slope / "
          f"{len(result.formula_violations)} formula violations, tol {result.tolerance:.3e})")
    return EXIT_OK if result.verdict else EXIT_FAIL


def run_chain(cfg: ExperimentConfig, out_dir: Path, seed: int) -> int:
    model = cfg.model()
    n_laws, n_atoms, tol = cfg.chain_settings()
    # Law k is (x, p) = draws[k]: the stream of one (2, n_atoms) draw per law.
    x, p = np.random.default_rng(seed).normal(size=(n_laws, 2, n_atoms)).transpose(1, 0, 2)
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
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be at least 0, got {args.seed}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else cfg.seed

    try:
        code = RUNNERS[args.command](cfg, out_dir, seed)
    except (ConfigError, MonotonicityError) as err:
        # A runner's MonotonicityError is a direction battery that the
        # configured directions and particle count cannot fill.
        print(f"config error: {err}", file=sys.stderr)
        code = EXIT_CONFIG
    except GateError as err:
        print(f"gate violation: {err}", file=sys.stderr)
        code = EXIT_HYPOTHESIS
    except PicardError as err:
        print(f"solver non-convergence: {err}", file=sys.stderr)
        code = EXIT_NO_CONVERGENCE
    except SolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        code = EXIT_NO_CONVERGENCE

    artifacts = [p for p in out_dir.iterdir() if p.name != "manifest.json"]
    _write_manifest(out_dir, cfg, seed, time.time() - started, artifacts)
    return code


if __name__ == "__main__":
    sys.exit(main())
