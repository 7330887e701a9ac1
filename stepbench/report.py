"""Statistics and output format shared by every workload.

The benchmark prints a table for people (every metric with its unit and
sample count) and, as the last line, one JSON object for machines:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from dataclasses import dataclass
from typing import Iterable, List, Sequence

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: A percentile is reported only when this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile asked of too few samples to have a tail behind it."""


def percentile(samples: Sequence[float], q: float,
               min_beyond: int = MIN_SAMPLES_BEYOND) -> float:
    """Nearest-rank ``q``-th percentile, refused without enough tail.

    With ``n`` samples the percentile is the ``ceil(q/100 * n)``-th
    smallest; the ``n - rank`` samples above it must number at least
    ``min_beyond`` (so a p90 needs 100 samples).
    """
    n = len(samples)
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    rank = max(1, math.ceil(q / 100.0 * n))
    if n == 0 or n - rank < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {n} samples leaves {max(0, n - rank)} beyond it; "
            f"need {min_beyond}"
        )
    return sorted(samples)[rank - 1]


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise TooFewSamples("median of no samples")
    return statistics.median(samples)


@dataclass(frozen=True)
class Metric:
    name: str
    value: float
    unit: str
    #: How many observations the value summarizes.
    samples: int


def check_metrics(metrics: Iterable[Metric]) -> List[Metric]:
    """Validate names, units and values; names must be unique."""
    seen = set()
    checked = []
    for metric in metrics:
        if not NAME_RE.match(metric.name):
            raise ValueError(f"invalid metric name {metric.name!r}")
        if metric.name in seen:
            raise ValueError(f"metric {metric.name!r} reported twice")
        if not isinstance(metric.unit, str) or not UNIT_RE.match(metric.unit):
            raise ValueError(f"metric {metric.name!r} has invalid unit {metric.unit!r}")
        if not math.isfinite(metric.value):
            raise ValueError(f"metric {metric.name!r} is not finite: {metric.value}")
        seen.add(metric.name)
        checked.append(metric)
    return checked


def table(metrics: Sequence[Metric]) -> str:
    lines = [f"{'metric':<32} {'value':>16} {'unit':<10} {'samples':>8}"]
    for m in metrics:
        lines.append(f"{m.name:<32} {m.value:>16.6g} {m.unit:<10} {m.samples:>8}")
    return "\n".join(lines)


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Sequence[Metric]) -> str:
    """The final JSON line: every metric with its value and unit."""
    metrics = check_metrics(metrics)
    if attempted < 1:
        raise ValueError("a run must attempt at least one step")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m.name: {"value": m.value, "unit": m.unit} for m in metrics},
    })
