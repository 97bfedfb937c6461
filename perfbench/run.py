"""Benchmark of mfgclab, driven in-process through ``mfgclab.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload propagate --seed 1 --seconds 15 --trace 0

One process, one thread: every experiment runs with ``--jobs 1`` and the BLAS
and OpenMP pools pinned to one thread.  Every artifact goes to a temporary
directory under ``.perfbench/`` in the checkout.  Whole rounds of the
workload's operations repeat until ``--seconds`` have passed (at least one
round runs).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  See ``perfbench/README.md`` for the workloads and metrics.
"""
import os

PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402  (the thread pins must precede numpy's import)
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedProbe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
ACCURACY_SOLVES = 21

# Set-up as a user pays it: a fresh interpreter imports the CLI and returns a
# validated config for the workload's first input.
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import mfgclab.cli; "
              "from mfgclab.config import ExperimentConfig; "
              "ExperimentConfig.from_ini(sys.argv[2])")


class BenchmarkError(RuntimeError):
    pass


def import_program():
    """Import mfgclab from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "mfgclab" / "__init__.py").is_file():
        raise BenchmarkError(f"no mfgclab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mfgclab.cli

    if not Path(mfgclab.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"imported mfgclab from {mfgclab.cli.__file__}, not {SRC}")
    return mfgclab.cli.main


def environment() -> dict:
    import numpy
    import scipy

    try:
        revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                  capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        revision = None
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "revision": revision, "pinned_threads": PINNED_THREADS, "jobs": 1}


def run_experiment(main, op, ini: Path, tmp: Path) -> tuple:
    """(start, seconds, failure message or None) of one CLI call and its check."""
    out = Path(tempfile.mkdtemp(prefix=f"{op.name}-", dir=tmp))
    argv = [op.command, "--config", str(ini), "--out", str(out), "--jobs", "1"]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    except Exception:  # an operation that raises counts as failed; the run goes on
        traceback.print_exc()
        return start, time.perf_counter() - start, f"{op.name} raised"
    seconds = time.perf_counter() - start
    if code != op.expect_exit:
        return start, seconds, f"{op.name} exited {code}, expected {op.expect_exit}"
    try:
        problem = op.check(out)
    except (OSError, KeyError, ValueError) as err:
        problem = f"unreadable output ({err!r})"
    return start, seconds, None if problem is None else f"{op.name}: {problem}"


def run_rounds(main, workload, inis: list, seconds: float, tmp: Path) -> dict:
    """Whole rounds until ``seconds`` have passed; samples are (seconds, start, end)."""
    samples, failures = [], []
    attempted = failed = rounds = 0
    begin = time.perf_counter()
    while rounds == 0 or time.perf_counter() - begin < seconds:
        round_seconds, round_start, round_failures = 0.0, None, []
        for op, ini in zip(workload.round, inis):
            start, took, problem = run_experiment(main, op, ini, tmp)
            round_start = start if round_start is None else round_start
            round_seconds += took
            if not workload.per_round:
                samples.append((took, start, start + took))
                attempted += 1
                failed += problem is not None
            if problem is not None:
                round_failures.append(problem)
        if workload.per_round:
            samples.append((round_seconds, round_start, start + took))
            attempted += 1
            failed += bool(round_failures)
        failures += round_failures
        rounds += 1
    return {"samples": samples, "attempted": attempted, "failed": failed,
            "rounds": rounds, "failures": failures}


def measure_setup(ini: Path) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(ini)],
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_accuracy(main, seed: int, tmp: Path, workloads) -> tuple:
    """Median riccati_err over seeded linear-quadratic solves, and any failures."""
    errors, failures = [], []
    for k, lq_seed in enumerate(workloads.accuracy_seeds(seed, ACCURACY_SOLVES)):
        ini = tmp / f"accuracy-{k}.ini"
        ini.write_text(workloads.LQ_SOLVE.ini_text(lq_seed))
        out = tmp / f"accuracy-{k}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["solve", "--config", str(ini), "--out", str(out), "--jobs", "1"])
        if code != 0:
            failures.append(f"accuracy solve {k} exited {code}")
            continue
        err, bound = workloads.riccati_error(out / "flow.csv")
        if err > bound:
            failures.append(f"accuracy solve {k}: riccati_err {err:.3e} > {bound:.3e}")
        errors.append(err)
    return (statistics.median(errors) if errors else None), failures


def select(spec: list, values: dict) -> tuple:
    """The metrics named in BENCHMARK.json that were measured, and those absent."""
    metrics, absent = {}, []
    for entry in spec:
        if values.get(entry["name"]) is None:
            absent.append(entry["name"])
        else:
            metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    return metrics, absent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    program_main = import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchmarkError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    # The CLI asks git for a revision per run; keep git inside the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    env = environment()
    print("environment: " + json.dumps(env))

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp_name:
        tmp = Path(tmp_name)
        seeds = workload.seeds(args.seed)
        inis = []
        for op, op_seed in zip(workload.round, seeds):
            inis.append(tmp / f"{op.name}.ini")
            inis[-1].write_text(op.ini_text(op_seed))

        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            program_main = tracer.wrap(tracing.OPERATION, program_main)
            run = run_rounds(program_main, workload, inis, args.seconds, tmp)
            wall = [seconds for seconds, _, _ in run["samples"]]
            values = tracer.metrics(run["attempted"])
            values["trace.op_s"] = statistics.median(wall)
            metrics, absent = select(spec["per_layer"], values)
            tracer.write(WORK / f"trace-{workload.name}-seed{args.seed}.json",
                         {"workload": workload.name, "seed": args.seed,
                          "ops": run["attempted"], "op_seconds": wall, "environment": env})
            failures = list(run["failures"])
        else:
            with SpeedProbe() as probe:
                run = run_rounds(program_main, workload, inis, args.seconds, tmp)
            wall = [seconds for seconds, _, _ in run["samples"]]
            reference = [probe.reference_seconds(*sample) for sample in run["samples"]]
            riccati, accuracy_failures = measure_accuracy(program_main, args.seed, tmp,
                                                          workloads)
            failures = run["failures"] + accuracy_failures
            values = {"op_s": statistics.median(reference),
                      "setup_s": measure_setup(inis[0]),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                      "riccati_err": riccati}
            metrics, absent = select(spec["end_to_end"], values)

    detail = {"workload": workload.name, "seed": args.seed, "experiment_seeds": seeds,
              "traced": bool(args.trace), "samples": len(wall), "rounds": run["rounds"],
              "wall_op_s_median": statistics.median(wall),
              "wall_op_s": wall,
              "ops_failed_ratio": run["failed"] / run["attempted"],
              "absent": absent, "failures": failures}
    if not args.trace:
        detail["reference_op_s"] = reference
    print("detail: " + json.dumps(detail))
    print(json.dumps({"correct": not failures, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchmarkError, ImportError, OSError, subprocess.SubprocessError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        sys.exit(2)
