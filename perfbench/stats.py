"""Arithmetic of the benchmark: percentiles, process memory, digests, self time.

Pure functions with no dependency on the ``repro`` package, so the
benchmark's own tests (``test_perfbench.py``) exercise them on tiny inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: percentiles tried, highest first, by :func:`tail_percentile`
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: samples that must lie beyond a reported tail percentile
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    # Rounded before the ceiling so that 99.9% of 10 000 is rank 9990,
    # not 9991 from the binary error in 0.999 * 10000.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def nearest_rank(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank *p*-th percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    return sorted_values[_rank(len(sorted_values), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of *n* samples rank above the nearest-rank *p*-th percentile."""
    return n - _rank(n, p)


def tail_percentile(values: Iterable[float]) -> Optional[Tuple[float, float]]:
    """``(p, value)`` for the highest percentile with >= 10 samples beyond it.

    ``None`` when the sample is too small for any (fewer than 20 values).
    """
    ordered = sorted(values)
    for p in TAIL_LADDER:
        if samples_beyond(len(ordered), p) >= MIN_BEYOND:
            return p, nearest_rank(ordered, p)
    return None


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, sample count and tail percentile (if any) of one metric."""
    tail = tail_percentile(values)
    return {
        "median": statistics.median(values),
        "n": len(values),
        "tail": tail,
    }


def parse_status_kb(text: str, field: str) -> int:
    """A ``kB`` field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status`` text."""
    for line in text.splitlines():
        key, sep, rest = line.partition(":")
        if sep and key == field:
            value, _, unit = rest.strip().partition(" ")
            if unit.strip() != "kB":
                raise ValueError(f"{field} is not in kB: {line!r}")
            return int(value)
    raise KeyError(f"{field} not found in process status")


def _canonical(value: object) -> str:
    # float.hex is exact (repr would be too, but hex makes the intent and
    # NaN/inf spelling unambiguous); bool before int, since bool is an int.
    if isinstance(value, bool):
        return "b1" if value else "b0"
    if isinstance(value, float):
        return "f" + value.hex()
    if isinstance(value, int):
        return "i" + str(value)
    if isinstance(value, str):
        return "s" + repr(value)
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canonical(v) for v in value) + ")"
    raise TypeError(f"cannot digest a {type(value).__name__}")


def result_digest(result: object, batches: Sequence[Sequence[object]] = ()) -> str:
    """SHA-256 over a frozen result's fields, then any per-batch fields.

    *result* is a dataclass (``SimulationResult``); every field enters in
    declaration order, named, so a renamed or reordered field changes the
    digest rather than colliding.  *batches* are the
    ``BatchResult.deterministic_fields`` tuples of a serve session.
    """
    parts = [
        f"{field.name}={_canonical(getattr(result, field.name))}"
        for field in dataclasses.fields(result)
    ]
    parts.extend("batch=" + _canonical(tuple(batch)) for batch in batches)
    return hashlib.sha256(";".join(parts).encode("utf-8")).hexdigest()


def layer_times(
    names: Sequence[str],
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
) -> Dict[str, Tuple[int, float, float]]:
    """``name -> (calls, self_s, total_s)`` from a flat span table.

    Span *i* is ``names[i]`` over ``[starts[i], ends[i]]`` whose parent is
    span ``parents[i]`` (-1 for a root).  Self time is a span's duration
    minus the durations of its direct children: spans come from one
    thread's nested calls, so siblings never overlap and their durations
    add up to the time they cover.
    """
    child_time: List[float] = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += ends[i] - starts[i]
    out: Dict[str, Tuple[int, float, float]] = {}
    for i, name in enumerate(names):
        calls, self_s, total_s = out.get(name, (0, 0.0, 0.0))
        duration = ends[i] - starts[i]
        out[name] = (calls + 1, self_s + duration - child_time[i], total_s + duration)
    return out
