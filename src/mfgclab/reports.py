"""Report containers shared by the condition checkers and functional
evaluators, and the writer of the CSV artifacts."""
from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from itertools import chain
from typing import Any, Callable

import numpy as np


def _jsonable(value):
    """value with numpy arrays and scalars as Python lists, numbers and bools, and
    every non-finite float as None, so that it dumps as strict JSON."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    elif isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_csv(path, header, columns) -> None:
    """Write the header and then one row per entry of the equal-length
    columns to path: each field as its ``str``, separated by commas, each
    row ended by CR LF.

    For numbers and for strings that need no quoting this is the bytes
    ``csv.writer`` writes, formatted in one ``%`` operation.  A field whose
    text holds a comma, a double quote, a CR or an LF would need quoting,
    which this writer does not do: it raises ``ValueError`` instead.
    """
    rows = len(columns[0])
    values = (*header, *chain.from_iterable(zip(*columns)))
    width = len(header)
    text = ("%s," * (width - 1) + "%s\r\n") * (rows + 1) % values
    if ('"' in text or text.count(",") != (width - 1) * (rows + 1)
            or text.count("\n") != rows + 1 or text.count("\r") != rows + 1):
        bad = next(v for v in values if any(c in str(v) for c in ',"\r\n'))
        raise ValueError(f"CSV field {str(bad)!r} needs quoting")
    with open(path, "w", newline="") as handle:
        handle.write(text)


@dataclass
class ConditionReport:
    """Outcome of one sufficient-condition check.

    margin convention: distance to violation, nonnegative on a passing
    sample.  ``failure_kind`` separates an ordinary condition failure from a
    violated hypothesis (the latter maps to a distinct process exit code).

    Every checker's verdict on its per-sample margins is ``judge``'s one
    rule: the worst sample is the first minimum, a NaN margin before any
    number; ``worst_margin`` is its margin; the check passes when that is
    >= -slack; and only a failing report carries the witness of the worst
    sample.  For a quadratic-form gate that is the unit-RMS eigenvector of
    the worst law's form matrix, split into (eta, gamma, zeta), with its
    form value.
    """

    condition: str
    n_samples: int
    worst_margin: float
    passed: bool
    tolerance: float = 0.0
    witness: dict | None = None
    failure_kind: str | None = None
    details: dict = field(default_factory=dict)

    @classmethod
    def judge(cls, condition: str, margins: np.ndarray, tolerance: float,
              witness: Callable[[int], dict], slack: float = 0.0,
              details: dict | Callable[[int], dict] | None = None) -> ConditionReport:
        """The report of one margin per sample: the worst sample is the
        first minimum of margins, a NaN before any number, and the check
        passes when its margin is >= -slack.  ``witness(worst)`` is called
        only on failure; ``details`` is a dict, or a function of the worst
        sample's index that returns one."""
        worst = int(np.argmin(margins))
        passed = bool(margins[worst] >= -slack)
        return cls(
            condition=condition,
            n_samples=len(margins),
            worst_margin=float(margins[worst]),
            passed=passed,
            tolerance=tolerance,
            witness=None if passed else witness(worst),
            details=details(worst) if callable(details) else details or {},
        )

    def to_dict(self) -> dict[str, Any]:
        return _jsonable(asdict(self))


@dataclass
class MonotonicityReport:
    """Evaluated monotonicity functional over (time slice, direction) samples."""

    kind: str
    samples: list  # dicts: {"t", "direction", "value", ...}
    minimum: float
    tolerance: float
    verdict: bool
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return _jsonable(asdict(self))
