"""One repetition of one workload, in the fresh process that runs this file.

    PYTHONPATH=src python perfbench/rep.py <workload> <seed> <traced 0|1>

prints one JSON object: host timings, the process's own peak RSS, the
simulated outcome and its digest, and (traced) the per-layer table.
``run.py`` starts one of these per repetition, so process-global memo
caches start cold in every repetition and ``VmHWM`` is this run's own.
"""

from __future__ import annotations

import json
import sys

import hostspeed
import tracer
from stats import parse_status_kb, result_digest

#: Workload parameters.  The trace is a fixed dataset (trace seed 1, like
#: the paper's recorded traces); the benchmark seed drives the simulated
#: data, queries and buffers.  NOTES.md says why each workload exists.
#: ``elasticity`` is how the workload's host time follows the host-speed
#: probe: the log-log slope of host time over probe time, measured on
#: repetitions of one input (NOTES.md, "Host speed").
WORKLOADS = {
    "sparse_weights": dict(
        kind="simulate", trace="sparse1e5", node_factor=0.021, time_factor=0.05,
        num_ncls=8, lifetime_hours=2.0, elasticity=1.0,
    ),
    "serve_replay": dict(
        kind="serve", trace="infocom05", node_factor=1.0, time_factor=1.0,
        num_ncls=5, lifetime_hours=1.0, batches=60, elasticity=1.3,
    ),
}
TRACE_SEED = 1


def proc_status_kb(field: str) -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        return parse_status_kb(handle.read(), field)


def _spec(params: dict, seed: int):
    from repro.scenario.spec import RunSpec, ScenarioSpec, SchemeSpec, TraceSpec
    from repro.units import HOUR
    from repro.workload.config import WorkloadConfig

    return ScenarioSpec(
        trace=TraceSpec(
            name=params["trace"],
            seed=TRACE_SEED,
            node_factor=params["node_factor"],
            time_factor=params["time_factor"],
        ),
        scheme=SchemeSpec(name="intentional", num_ncls=params["num_ncls"]),
        workload=WorkloadConfig(mean_data_lifetime=params["lifetime_hours"] * HOUR),
        # Serving runs the streaming collector, as `repro serve` does.
        run=RunSpec(seed=seed, streaming_metrics=params["kind"] == "serve"),
    )


def run_workload(name: str, seed: int, traced: bool) -> dict:
    from repro.experiments.serve import ServeSession
    from repro.scenario import build
    from repro.sim.engine import EventEngine
    from repro.sim.simulator import Simulator

    params = WORKLOADS[name]
    # The host's speed, probed all through the timed spans; run.py scales
    # the timings by it.  Every timing reads host.clock, which leaves the
    # probes' own time out (hostspeed.py).
    host = hostspeed.HostSpeed()
    clock = host.clock
    spans = tracer.install(clock) if traced else None

    # setup_s ends at the first EventEngine.run; this marker is the only
    # wrapper an untraced run carries (one call per run or per batch).
    first_run = []
    engine_run = EventEngine.run

    def marked_run(self, until=None):
        if not first_run:
            first_run.append(clock())
        return engine_run(self, until)

    EventEngine.run = marked_run

    host.start()
    began = clock()
    spec = _spec(params, seed)
    trace = build.build_trace(spec.trace)
    scheme = build.scheme_factory(spec)()
    config = build.simulator_config(spec)
    out: dict = {}
    batches = []
    if params["kind"] == "simulate":
        simulator = Simulator(trace, scheme, spec.workload, config)
        result = simulator.run()
    else:
        session = ServeSession(trace, scheme, spec.workload, config)
        simulator = session.simulator
        latencies = []
        count = params["batches"]
        for index in range(count):
            t0 = clock()
            batches.append(session.run_batch(1))
            latencies.append(clock() - t0)
            if index == count // 10 - 1:
                rss_early = proc_status_kb("VmRSS")
        rss_last = proc_status_kb("VmRSS")
        result = session.finalize()
        out.update(
            batch_s=latencies,
            serve_qps=sum(b.queries_issued for b in batches) / sum(latencies),
            serve_rss_growth_mb=(rss_last - rss_early) / 1024.0,
        )
    ended = clock()
    host.stop()

    out.update(
        setup_scale=host.scale(hostspeed.FIRST_PROBES) ** params["elasticity"],
        run_scale=host.scale() ** params["elasticity"],
        probe_s=host.probe_s(),
        setup_s=first_run[0] - began,
        run_s=ended - first_run[0],
        events=simulator.engine.processed,
        peak_rss_mb=proc_status_kb("VmHWM") / 1024.0,
        queries_issued=result.queries_issued,
        queries_satisfied=result.queries_satisfied,
        success_ratio=result.successful_ratio,
        digest=result_digest(result, [b.deterministic_fields for b in batches]),
        consistent=_consistent(result, batches),
    )
    if spans is not None:
        from repro.graph.weight_cache import shared_weight_cache

        cache = shared_weight_cache()
        out["layers"] = spans.layer_times()
        out["counts"] = dict(
            spans.counts,
            **{
                "graph.weight_cache.weights.hits": cache.hits,
                "graph.weight_cache.weights.misses": cache.misses,
                "sim.node.bytes": simulator.memory_breakdown()["nodes"],
            },
        )
    return out


def _consistent(result, batches) -> bool:
    """Internal agreement of the simulated outcome (independent of timing)."""
    ok = 0 <= result.queries_satisfied <= result.queries_issued
    if result.queries_issued:
        ok = ok and result.successful_ratio == result.queries_satisfied / result.queries_issued
    if batches:
        ok = ok and sum(b.queries_issued for b in batches) == result.queries_issued
        ok = ok and [b.index for b in batches] == list(range(len(batches)))
    return bool(ok)


def main(argv) -> int:
    name, seed, traced = argv[1], int(argv[2]), argv[3] == "1"
    print(json.dumps(run_workload(name, seed, traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
