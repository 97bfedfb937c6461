"""Report containers shared by the condition checkers and functional evaluators."""
from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Any


def _jsonable(value):
    import numpy as np

    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass
class ConditionReport:
    """Outcome of one sufficient-condition check.

    margin convention: distance to violation, nonnegative on a passing
    sample.  ``worst_margin`` is the minimum over samples; a failing report
    carries the witness sample that achieved it.  ``failure_kind`` separates
    an ordinary condition failure from a violated hypothesis (the latter maps
    to a distinct process exit code).
    """

    condition: str
    n_samples: int
    worst_margin: float
    passed: bool
    tolerance: float = 0.0
    witness: dict | None = None
    failure_kind: str | None = None
    details: dict = field(default_factory=dict)

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
