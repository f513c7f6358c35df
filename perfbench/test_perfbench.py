"""Tests of the benchmark's own arithmetic, on inputs that finish in seconds.

    python -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from stats import (  # noqa: E402
    layer_times,
    nearest_rank,
    parse_status_kb,
    result_digest,
    samples_beyond,
    tail_percentile,
)
import hostspeed  # noqa: E402
from hostspeed import HostSpeed, trimmed_mean  # noqa: E402
from tracer import Tracer  # noqa: E402


# --- percentile rule -------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    tail = tail_percentile(float(i) for i in range(n))
    if expected is None:
        assert tail is None
    else:
        p, value = tail
        assert p == expected
        assert samples_beyond(n, p) >= 10
        assert value == nearest_rank(list(map(float, range(n))), p)


def test_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0]
    assert nearest_rank(values, 50) == 2.0
    assert nearest_rank(values, 75) == 3.0
    assert nearest_rank(values, 100) == 4.0
    assert nearest_rank(values, 0) == 1.0
    with pytest.raises(ValueError):
        nearest_rank([], 50)


# --- self time from nested spans -------------------------------------------


def test_self_time_subtracts_direct_children_only():
    #   root [0,10] -> a [1,4]
    #               -> b [5,9] -> c [6,8]
    names = ["root", "a", "b", "c"]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 8.0]
    parents = [-1, 0, 0, 2]
    out = layer_times(names, starts, ends, parents)
    assert out["root"] == (1, 3.0, 10.0)
    assert out["a"] == (1, 3.0, 3.0)
    assert out["b"] == (1, 2.0, 4.0)
    assert out["c"] == (1, 2.0, 2.0)
    # Self times of the whole tree add up to the root's span.
    assert sum(self_s for _, self_s, _ in out.values()) == 10.0


def test_repeated_spans_accumulate():
    out = layer_times(["f", "f", "g"], [0.0, 2.0, 2.5], [1.0, 4.0, 3.0], [-1, -1, 1])
    assert out["f"] == (2, 2.5, 3.0)
    assert out["g"] == (1, 0.5, 0.5)


def test_tracer_records_nesting_and_collapses_recursion():
    tracer = Tracer()

    def leaf():
        return 1

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer(depth):
        if depth:
            return traced_outer(depth - 1)
        return traced_leaf() + traced_leaf()

    traced_outer = tracer.wrap("outer", outer)
    assert traced_outer(3) == 2
    times = tracer.layer_times()
    # Direct recursion is one span; the two leaf calls are its children.
    assert times["outer"][0] == 1
    assert times["leaf"][0] == 2
    assert list(tracer.parents) == [-1, 0, 0]
    calls, self_s, total_s = times["outer"]
    assert self_s == pytest.approx(total_s - times["leaf"][2], abs=1e-12)


def test_tracer_closes_span_on_exception():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    traced = tracer.wrap("boom", boom)
    with pytest.raises(RuntimeError):
        traced()
    assert tracer.layer_times()["boom"][0] == 1
    assert tracer.ends[0] >= tracer.starts[0]


def test_tracer_reads_the_clock_it_is_given():
    ticks = iter([1.0, 4.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.wrap("f", lambda: None)()
    assert tracer.layer_times()["f"] == (1, 3.0, 3.0)


# --- host speed ----------------------------------------------------------------


def test_trimmed_mean_drops_both_tails():
    assert trimmed_mean([1.0, 2.0, 3.0, 4.0, 100.0], trim=0.2) == 3.0
    assert trimmed_mean([0.0] + [2.0] * 8 + [50.0]) == 2.0
    assert trimmed_mean([5.0]) == 5.0


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs setitimer")
def test_host_speed_probes_during_work_and_leaves_them_out_of_its_clock():
    host = HostSpeed()
    host.start()
    try:
        wall, clock = time.perf_counter(), host.clock()
        deadline = wall + 0.5
        while time.perf_counter() < deadline:
            sum(range(1000))
        wall, clock = time.perf_counter() - wall, host.clock() - clock
    finally:
        host.stop()
    assert len(host.probes) >= 3
    # A probe can land between the two readings at either end: one probe's slack.
    assert clock == pytest.approx(wall - sum(host.probes), abs=max(host.probes))
    assert clock < wall
    assert host.scale() == pytest.approx(hostspeed.REFERENCE_S / host.probe_s())
    assert host.scale(2) == pytest.approx(2 * hostspeed.REFERENCE_S / sum(host.probes[:2]))
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


# --- /proc status parsing --------------------------------------------------

STATUS = """Name:\tpython3
VmPeak:\t  500000 kB
VmHWM:\t  115120 kB
VmRSS:\t   90852 kB
Threads:\t1
"""


def test_parse_status_kb():
    assert parse_status_kb(STATUS, "VmHWM") == 115120
    assert parse_status_kb(STATUS, "VmRSS") == 90852
    with pytest.raises(KeyError):
        parse_status_kb(STATUS, "VmSwap")
    with pytest.raises(ValueError):
        parse_status_kb("VmHWM:\t 12 MB\n", "VmHWM")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_live_status_hwm_bounds_rss():
    with open("/proc/self/status", encoding="ascii") as handle:
        text = handle.read()
    assert parse_status_kb(text, "VmHWM") >= parse_status_kb(text, "VmRSS") > 0


# --- result digest -----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Result:
    name: str
    issued: int
    ratio: float
    delay: float


def test_digest_is_stable_and_exact():
    base = _Result("intentional", 10, 0.5, float("nan"))
    assert result_digest(base) == result_digest(_Result("intentional", 10, 0.5, float("nan")))
    nudged = dataclasses.replace(base, ratio=0.5 + 2 ** -53)
    assert result_digest(nudged) != result_digest(base)
    assert result_digest(base, [(0, 1.0, 2)]) != result_digest(base)
    assert result_digest(base, [(0, 1.0, 2)]) != result_digest(base, [(0, 1.0, 3)])
    assert result_digest(dataclasses.replace(base, issued=True)) != result_digest(
        dataclasses.replace(base, issued=1)
    )


def test_digest_of_a_tiny_simulation_repeats_per_seed():
    from repro.scenario import build
    from repro.scenario.spec import RunSpec, ScenarioSpec, SchemeSpec, TraceSpec
    from repro.sim.simulator import Simulator
    from repro.units import HOUR
    from repro.workload.config import WorkloadConfig

    def digest(seed):
        spec = ScenarioSpec(
            trace=TraceSpec(name="infocom05", seed=1, node_factor=0.3, time_factor=0.1),
            scheme=SchemeSpec(name="intentional", num_ncls=2),
            workload=WorkloadConfig(mean_data_lifetime=HOUR),
            run=RunSpec(seed=seed),
        )
        simulator = Simulator(
            build.build_trace(spec.trace),
            build.scheme_factory(spec)(),
            spec.workload,
            build.simulator_config(spec),
        )
        return result_digest(simulator.run())

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)
