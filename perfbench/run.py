"""The repository's benchmark: one workload, repeated in fresh processes.

    python3 perfbench/run.py --workload serve_replay --seed 1 --seconds 60 --trace 0

Run from the repository root (the program is imported from ``src/``).
Each repetition is its own process (``rep.py``) that simulates the
workload once; repetitions run one after another, never two at once,
and keep starting while another fits in ``--seconds`` (at least four).

``--trace 0`` prints the end-to-end metrics (medians over repetitions).
``--trace 1`` runs two untraced repetitions and one traced one, and
prints the per-layer metrics of the traced run plus the tracing
overhead.  Every run checks the simulated output: all repetitions of a
seed must give the same result digest (traced included), issue queries
and agree internally.  The last stdout line is the JSON result; the exit
code is 1 when a check failed, 2 when the program is not there.

See NOTES.md for the metrics, the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from rep import WORKLOADS
from stats import summarize
from tracer import RESULT_COUNTS, span_names

HERE = os.path.dirname(os.path.abspath(__file__))

MIN_REPS = 3
TRACE_UNTRACED_REPS = 2
#: the whole invocation must end well inside three minutes
DEADLINE_S = 170.0

#: gated end-to-end metrics (BENCHMARK.json), reported on every workload
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)


def per_layer_names() -> List[tuple]:
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for span in span_names():
        names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s"), (f"{span}.total_s", "s")]
        if span in RESULT_COUNTS:
            names.append((f"{span}.{RESULT_COUNTS[span][0]}", "count"))
    names += [
        ("graph.weight_cache.weights.hits", "count"),
        ("graph.weight_cache.weights.misses", "count"),
        ("graph.weight_cache.weights.hit_ratio", "ratio"),
        ("sim.node.bytes", "B"),
        ("trace.run_s", "s"),
        ("trace.overhead", "ratio"),
    ]
    return names


class Failure(Exception):
    """A repetition that crashed or produced no parseable result."""


def run_rep(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # String hashing, and so set and dict layout, is then the same in every
    # repetition: it moves host time (not results) by a few per cent.
    env["PYTHONHASHSEED"] = "0"
    # One BLAS thread: a second one spins on the other vCPU for no gain in
    # time (it doubled sparse_weights' CPU time) and slows whatever shares it.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "rep.py"), workload, str(seed), "1" if traced else "0"],
            env=env,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise Failure(f"repetition timed out after {exc.timeout:.0f}s") from None
    if proc.returncode != 0:
        raise Failure(f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise Failure(f"unparseable repetition output: {proc.stdout[-500:]!r}") from None


def check(reps: List[dict]) -> tuple:
    """``(failed repetitions, problems)`` of one seed's repetitions.

    The first repetition's digest is the reference; every other run of
    the seed, traced or not, must reproduce it bit for bit.
    """
    failed, problems = 0, []
    reference = reps[0]["digest"]
    for index, rep in enumerate(reps):
        wrong = []
        if rep["digest"] != reference:
            wrong.append(f"repetition {index}: result digest {rep['digest']} != {reference}")
        if rep["queries_issued"] == 0:
            wrong.append(f"repetition {index}: the run issued no queries")
        if not rep["consistent"]:
            wrong.append(f"repetition {index}: the simulated result is inconsistent")
        failed += bool(wrong)
        problems += wrong
    return failed, problems


#: the host-speed factor each host-time span of a repetition is scaled by
SCALE_OF = {"setup_s": "setup_scale", "run_s": "run_scale"}


def at_reference_speed(rep: dict, key: str) -> float:
    """A repetition's host time *key* at the reference host speed (hostspeed.py)."""
    return rep[key] * rep[SCALE_OF[key]]


def end_to_end(reps: List[dict]) -> Dict[str, List[float]]:
    """Per-repetition samples of every end-to-end metric."""
    run_s = [at_reference_speed(r, "run_s") for r in reps]
    return {
        "setup_s": [at_reference_speed(r, "setup_s") for r in reps],
        "run_s": run_s,
        "events_per_s": [r["events"] / t for r, t in zip(reps, run_s)],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }


def per_layer(traced: dict, untraced_run_s: float) -> Dict[str, float]:
    """Every per-layer metric of the traced repetition (0 for an entry never called)."""
    values: Dict[str, float] = {name: 0 for name, _ in per_layer_names()}
    for span, (calls, self_s, total_s) in traced["layers"].items():
        values.update({f"{span}.calls": calls, f"{span}.self_s": self_s, f"{span}.total_s": total_s})
    values.update(traced["counts"])
    hits = values["graph.weight_cache.weights.hits"]
    lookups = hits + values["graph.weight_cache.weights.misses"]
    values["graph.weight_cache.weights.hit_ratio"] = hits / lookups if lookups else 0.0
    values["trace.run_s"] = at_reference_speed(traced, "run_s")
    values["trace.overhead"] = values["trace.run_s"] / untraced_run_s
    return values


def _tail_text(summary: dict, samples) -> str:
    tail = summary["tail"]
    if tail is None:
        return f"n={summary['n']}: " + " ".join(f"{v:.4g}" for v in samples)
    return f"p{tail[0]:g}={tail[1]:.6g} n={summary['n']}"


def report_end_to_end(workload: str, reps: List[dict]) -> Dict[str, dict]:
    samples = end_to_end(reps)
    print(f"# {workload}: {len(reps)} repetitions, host time at reference speed, medians (gated)")
    metrics = {}
    for name, unit in END_TO_END:
        summary = summarize(samples[name])
        metrics[name] = {"value": summary["median"], "unit": unit}
        print(f"{name:24s} {summary['median']:14.6g} {unit:6s} {_tail_text(summary, samples[name])}")
    print("# reported, not gated")
    host = {
        "host_setup_s": ([r["setup_s"] for r in reps], "s"),
        "host_run_s": ([r["run_s"] for r in reps], "s"),
        "setup_scale": ([r["setup_scale"] for r in reps], "ratio"),
        "run_scale": ([r["run_scale"] for r in reps], "ratio"),
        "probe_ms": ([r["probe_s"] * 1000.0 for r in reps], "ms"),
    }
    for name, (values, unit) in host.items():
        summary = summarize(values)
        print(f"{name:24s} {summary['median']:14.6g} {unit:6s} {_tail_text(summary, values)}")
    print(f"{'success_ratio':24s} {reps[0]['success_ratio']:14.6g} {'ratio':6s} "
          f"(simulated, exact; {reps[0]['queries_satisfied']}/{reps[0]['queries_issued']} queries)")
    if "batch_s" in reps[0]:
        batch_ms = [s * 1000.0 for r in reps for s in r["batch_s"]]
        batches = summarize(batch_ms)
        print(f"{'batch_p50_ms':24s} {batches['median']:14.6g} {'ms':6s} {_tail_text(batches, batch_ms)}")
        for name, unit in (("serve_qps", "1/s"), ("serve_rss_growth_mb", "MiB")):
            values = [r[name] for r in reps]
            summary = summarize(values)
            print(f"{name:24s} {summary['median']:14.6g} {unit:6s} {_tail_text(summary, values)}")
    print(f"{'result_digest':24s} {reps[0]['digest']}")
    return metrics


def report_per_layer(workload: str, traced: dict, untraced: List[dict]) -> Dict[str, dict]:
    untraced_run_s = statistics.median(at_reference_speed(r, "run_s") for r in untraced)
    values = per_layer(traced, untraced_run_s)
    print(f"# {workload}: traced repetition, per layer (run_s at reference speed: traced "
          f"{values['trace.run_s']:.4g}s, untraced median {untraced_run_s:.4g}s, "
          f"overhead {values['trace.overhead']:.3f}x; layer times are host time)")
    metrics = {}
    for name, unit in per_layer_names():
        metrics[name] = {"value": values[name], "unit": unit}
        share = ""
        if unit == "s" and name != "trace.run_s":
            share = f"{values[name] / traced['run_s']:7.1%} of traced run_s"
        print(f"{name:48s} {values[name]:14.6g} {unit:6s} {share}")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2

    began = time.perf_counter()
    attempted, failed, problems = 0, 0, []
    reps: List[dict] = []
    traced: Optional[dict] = None

    def attempt(traced_run: bool) -> Optional[dict]:
        nonlocal attempted, failed
        attempted += 1
        try:
            return run_rep(args.workload, args.seed, traced_run,
                           DEADLINE_S - (time.perf_counter() - began))
        except Failure as exc:
            failed += 1
            problems.append(str(exc))
            return None

    if args.trace:
        for _ in range(TRACE_UNTRACED_REPS):
            rep = attempt(False)
            if rep is not None:
                reps.append(rep)
        traced = attempt(True)
    else:
        while True:
            rep = attempt(False)
            if rep is not None:
                reps.append(rep)
            elapsed = time.perf_counter() - began
            per_rep = elapsed / attempted
            if failed or (attempted >= MIN_REPS and elapsed + per_rep > args.seconds):
                break
            if elapsed + per_rep > DEADLINE_S:
                break

    checked = reps + ([traced] if traced is not None else [])
    if checked:
        bad, output_problems = check(checked)
        failed += bad
        problems += output_problems
    metrics: Dict[str, dict] = {}
    if reps and not args.trace:
        metrics = report_end_to_end(args.workload, reps)
    elif reps and traced is not None:
        metrics = report_per_layer(args.workload, traced, reps)
    correct = not problems and bool(metrics)
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
