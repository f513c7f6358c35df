"""Sampling how fast the host is while a repetition runs.

The benchmark's timings are host time, and a shared virtual machine runs
the same code up to 3x slower for seconds or minutes at a time, whenever
a neighbour loads the physical core.  While a repetition runs,
:class:`HostSpeed` interrupts it every ``INTERVAL_S`` (``SIGALRM``, so
the probe runs in the program's own thread, between two bytecodes) and
times :func:`probe`, a fixed piece of interpreter work along a wide code
path: JSON, a regular expression, dataclasses, sorting with a key,
dicts, a ``Counter`` and exceptions.  A narrow loop that stays in the
core's caches follows a neighbour's load less closely than the
simulator does (NOTES.md has the measurements).

:meth:`HostSpeed.scale` is ``REFERENCE_S`` over the probe's trimmed mean
duration: the factor that brings the repetition's timings to a fixed
reference speed of the machine NOTES.md describes.  A slow spell
of the host thus cancels out while a slower program does not, because
the probe uses only the standard library, never the ``repro`` package.
The timings read :meth:`HostSpeed.clock`, which leaves out the time
spent in probes, and the garbage collector is off while a probe runs,
so that it neither triggers nor absorbs a collection of the program's
objects.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import json
import re
import signal
from time import perf_counter
from typing import List, Optional, Sequence

#: seconds between two probes
INTERVAL_S = 0.1
#: seconds :func:`probe` takes at the reference speed, a typical value on
#: the machine NOTES.md describes: the fixed point of the scale
REFERENCE_S = 0.0016
#: share of the probes dropped at each end before averaging
TRIM = 0.1
#: probes that time the host around a short span at the start (set-up):
#: the first half second follows it more closely than the whole run
FIRST_PROBES = 5

_DOC = {"nodes": [{"id": i, "rate": i / 7.0, "tags": ["a", "b", str(i)]} for i in range(40)]}
_PATTERN = re.compile(r"(\w+)=(\d+(?:\.\d+)?)")
_TEXT = " ".join(f"k{i}={i * 1.5}" for i in range(60))


@dataclasses.dataclass
class _Item:
    key: int
    value: float
    label: str


def _pass() -> float:
    total = 0.0
    doc = json.loads(json.dumps(_DOC))
    total += sum(node["rate"] for node in doc["nodes"])
    total += sum(float(v) for _, v in _PATTERN.findall(_TEXT))
    items = [_Item(i, (i * 37 % 101) / 3.0, f"n{i:03d}") for i in range(150)]
    items.sort(key=lambda item: (item.value, item.label))
    index = {item.label: item for item in items}
    total += sum(index[f"n{i:03d}"].value for i in range(0, 150, 3))
    counts = collections.Counter(item.key % 13 for item in items)
    total += max(counts.values())
    for item in items[:60]:
        try:
            total += item.value / (item.key % 5)
        except ZeroDivisionError:
            total -= 1.0
    return total


def probe() -> float:
    """A fixed piece of work; returns a value so none of it is skipped."""
    return _pass() + _pass() + _pass()


def trimmed_mean(values: Sequence[float], trim: float = TRIM) -> float:
    """Mean of *values* without the lowest and highest *trim* share."""
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    kept = ordered[cut:len(ordered) - cut] or ordered
    return sum(kept) / len(kept)


class HostSpeed:
    """Probes the host every ``INTERVAL_S`` between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        #: seconds each probe took
        self.probes: List[float] = []
        #: seconds spent in probes so far
        self.spent = 0.0
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        began = perf_counter()
        probe()
        ended = perf_counter()
        if collecting:
            gc.enable()
        self.probes.append(ended - began)
        self.spent += ended - began
        self._busy = False

    def start(self) -> None:
        probe()  # warm-up, untimed
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """``perf_counter`` seconds, less the time spent in probes so far."""
        return perf_counter() - self.spent

    def probe_s(self, first: Optional[int] = None) -> float:
        """The probe's trimmed mean duration over the run (or its *first* probes)."""
        if not self.probes:
            raise RuntimeError("no probe ran; the repetition was shorter than INTERVAL_S")
        return trimmed_mean(self.probes[:first])

    def scale(self, first: Optional[int] = None) -> float:
        """Factor from host time to time at the reference speed.

        *first* limits the probes to the first few, for a span that
        starts with the run and is short.
        """
        return REFERENCE_S / self.probe_s(first)
