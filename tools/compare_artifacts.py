"""Compare what every shipped config writes under two checkouts.

Usage: python tools/compare_artifacts.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts of this repository.  Each
config in their ``configs`` directories runs through ``mfgclab.cli.main``
once per checkout, in a fresh interpreter that imports that checkout's
``src`` with BLAS pinned to one thread, from the same working directory.
For each config the script prints the two exit codes, whether stdout and
stderr match, and for each artifact either "identical" or the largest move
of a number relative to the largest magnitude in the PARENT file, with
where the move sits: the key path of that number in a JSON file (such as
``gate.details.max_value`` or ``reports[1].witness.eta[3]``), or its column
in a CSV file.  The manifest's wall time is left out of the comparison.

The exit status is 1 when an exit code, a stdout or stderr, or the set of
configs or artifacts differs between the checkouts, 2 on a usage error,
and 0 otherwise; a moved number is reported, not failed.
"""
from __future__ import annotations

import configparser
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

RUN = "import sys; from mfgclab.cli import main; sys.exit(main(sys.argv[1:]))"
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)\b")


def run_config(root: Path, config: Path, out: Path, cwd: Path):
    """(exit code, stdout, stderr) of one config run under the checkout root."""
    command = configparser.ConfigParser()
    command.read(config)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **dict.fromkeys(THREADS, "1"))
    done = subprocess.run(
        [sys.executable, "-c", RUN, command["experiment"]["kind"].strip(),
         "--config", str(config), "--out", str(out)],
        cwd=cwd, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def without_wall_time(text: str) -> str:
    manifest = json.loads(text)
    manifest.pop("wall_time_s", None)
    return json.dumps(manifest, sort_keys=True)


def json_numbers(value, path: str = ""):
    """(key path, number) of every number in a parsed JSON value, in order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from json_numbers(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from json_numbers(item, f"{path}[{k}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, float(value)


def csv_numbers(text: str):
    """("column NAME", number) of every numeric cell of a CSV text, by row."""
    header, *rows = csv.reader(io.StringIO(text))
    for row in rows:
        for name, cell in zip(header, row):
            try:
                yield f"column {name}", float(cell)
            except ValueError:
                pass


def largest_move_at(name: str, a: str, b: str) -> str | None:
    """Where the largest move between the texts a and b of a JSON or CSV
    file sits, or None for another kind of file or unmatched numbers."""
    suffix = Path(name).suffix
    if suffix == ".json":
        numbers = [list(json_numbers(json.loads(text))) for text in (a, b)]
    elif suffix == ".csv":
        numbers = [list(csv_numbers(text)) for text in (a, b)]
    else:
        return None
    labels = [[label for label, _ in side] for side in numbers]
    if labels[0] != labels[1] or not labels[0]:
        return None
    x, y = (np.array([value for _, value in side]) for side in numbers)
    with np.errstate(invalid="ignore"):
        moves = np.where((x == y) | (np.isnan(x) & np.isnan(y)), 0.0, np.abs(x - y))
    return labels[0][int(np.argmax(moves))]


def compare_file(old: Path, new: Path) -> str:
    """"identical", or the largest relative move of a number in the file."""
    a, b = old.read_text(), new.read_text()
    if old.name == "manifest.json":
        a, b = without_wall_time(a), without_wall_time(b)
    if a == b:
        return "identical"
    if NUMBER.split(a) != NUMBER.split(b):
        return "text differs"
    x = np.array(NUMBER.findall(a), dtype=float)
    y = np.array(NUMBER.findall(b), dtype=float)
    same = (x == y) | (np.isnan(x) & np.isnan(y))
    if same.all():
        return "identical numbers, formatted differently"
    finite = np.isfinite(x)
    if not (finite & np.isfinite(y) | same).all():
        return "a non-finite number differs"
    scale = np.max(np.abs(x[finite]), initial=0.0)
    move = np.max(np.abs(x - y)[~same])
    where = largest_move_at(old.name, a, b)
    return (f"moved by {move / scale if scale else np.inf:.3g} of its largest entry"
            + (f", most at {where}" if where else ""))


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    roots = [Path(arg).resolve() for arg in args]
    names = [sorted(p.name for p in (root / "configs").glob("*.ini")) for root in roots]
    failed = names[0] != names[1]
    if failed:
        print(f"config sets differ: {names[0]} against {names[1]}")
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for name in sorted(set(names[0]) & set(names[1])):
            outs = [work / side / name for side in ("parent", "change")]
            (code_a, out_a, err_a), (code_b, out_b, err_b) = (
                run_config(root, root / "configs" / name, out, work)
                for root, out in zip(roots, outs))
            same_output = out_a == out_b and err_a == err_b
            failed |= code_a != code_b or not same_output
            print(f"{name}: exit {code_a} / {code_b}, stdout and stderr "
                  f"{'identical' if same_output else 'DIFFER'}")
            files = [sorted(p.name for p in out.iterdir()) for out in outs]
            if files[0] != files[1]:
                failed = True
                print(f"  artifacts differ: {files[0]} against {files[1]}")
            for file in sorted(set(files[0]) & set(files[1])):
                print(f"  {file}: {compare_file(outs[0] / file, outs[1] / file)}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
