"""Outside-in tracing: wrap each layer's public entry points with spans.

The wrappers live here, in the benchmark, not in the program: a traced
run swaps them in where each name is looked up, records one span per
call (name, start, end, parent) in memory, and :mod:`stats` turns the
span table into per-layer calls, self time and total time.  Wrappers
call straight through, so a traced run must produce the same digest as
an untraced one (``run.py`` checks this).
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from stats import layer_times

#: ``(span name, module, attribute)`` of every traced entry point.  An
#: attribute ``Class.method`` wraps the method on that class (a property
#: wraps its getter); a bare name wraps a module-level function in every
#: ``repro`` module that imported it by name.
LAYERS = (
    ("scenario.build_trace", "repro.scenario.build", "build_trace"),
    ("graph.estimator.record_contact", "repro.graph.estimator",
     "OnlineContactGraphEstimator.record_contact"),
    ("graph.estimator.snapshot", "repro.graph.estimator",
     "OnlineContactGraphEstimator.snapshot"),
    ("core.ncl.select_ncls", "repro.core.ncl", "select_ncls"),
    ("graph.weight_cache.knn_rows", "repro.graph.weight_cache", "PathWeightCache.knn_rows"),
    ("graph.weight_cache.weights", "repro.graph.weight_cache", "PathWeightCache.weights"),
    ("graph.paths.shortest_path_weights_from", "repro.graph.paths",
     "shortest_path_weights_from"),
    ("mathutils.hypoexponential_cdf_batch", "repro.mathutils.hypoexponential",
     "hypoexponential_cdf_batch"),
    ("sim.engine.run", "repro.sim.engine", "EventEngine.run"),
    ("caching.on_contact", "repro.caching.intentional", "IntentionalCaching.on_contact"),
    ("caching.on_query_generated", "repro.caching.intentional",
     "IntentionalCaching.on_query_generated"),
    ("workload.query_round", "repro.workload.generator", "WorkloadProcess.query_round"),
    ("core.replacement.exchange", "repro.core.replacement",
     "UtilityKnapsackPolicy.exchange"),
    ("core.knapsack.solve", "repro.core.knapsack", "KnapsackPool.solve"),
    ("routing.decide", "repro.routing.gradient", "GradientRouter.decide"),
    ("core.response.decide", "repro.core.response", "SigmoidResponse.decide"),
    ("core.response.decide", "repro.core.response", "PathAwareResponse.decide"),
    ("core.response.decide", "repro.core.response", "AlwaysRespond.decide"),
    ("sim.node.drop_expired_bundles", "repro.sim.node", "Node.drop_expired_bundles"),
    ("traces.contact.end_time", "repro.traces.contact", "ContactTrace.end_time"),
)

#: counts taken from a wrapped call's result: span -> (metric suffix, count)
RESULT_COUNTS: Dict[str, Tuple[str, Callable[[object], int]]] = {
    "sim.engine.run": ("events", int),
    "mathutils.hypoexponential_cdf_batch": ("rows", len),
}


class Tracer:
    """In-memory span table of one thread's nested calls."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.counts: Dict[str, int] = {}
        self._open: List[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* with a span around each call (direct recursion is one span)."""
        nid = self._intern(name)
        suffix, count = RESULT_COUNTS.get(name, (None, None))
        metric = f"{name}.{suffix}"
        open_spans, name_id = self._open, self.name_id
        starts, ends, parents = self.starts, self.ends, self.parents
        clock = self.clock

        def traced(*args, **kwargs):
            if open_spans and name_id[open_spans[-1]] == nid:
                return fn(*args, **kwargs)
            index = len(starts)
            name_id.append(nid)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()
            if count is not None:
                self.counts[metric] = self.counts.get(metric, 0) + count(result)
            return result

        return traced

    def layer_times(self):
        return layer_times(
            [self.names[i] for i in self.name_id], self.starts, self.ends, self.parents
        )


def _patch_function(tracer: Tracer, name: str, module: str, attr: str) -> None:
    original = getattr(importlib.import_module(module), attr)
    wrapped = tracer.wrap(name, original)
    # Rebind every by-name import too (``from repro.graph.paths import
    # shortest_path_weights_from`` binds the original in the importer).
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "repro" or mod_name.startswith("repro."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _patch_method(tracer: Tracer, name: str, module: str, attr: str) -> None:
    cls_name, method = attr.split(".")
    cls = getattr(importlib.import_module(module), cls_name)
    original = cls.__dict__[method]
    if isinstance(original, property):
        setattr(cls, method, property(tracer.wrap(name, original.fget)))
    else:
        setattr(cls, method, tracer.wrap(name, original))


def install(clock: Callable[[], float] = perf_counter) -> Tracer:
    """Wrap every entry in :data:`LAYERS`; import the workload modules first."""
    tracer = Tracer(clock)
    for module in ("repro.scenario.build", "repro.experiments.serve"):
        importlib.import_module(module)
    for name, module, attr in LAYERS:
        if "." in attr:
            _patch_method(tracer, name, module, attr)
        else:
            _patch_function(tracer, name, module, attr)
    return tracer


def span_names() -> List[str]:
    """Distinct span names, in :data:`LAYERS` order."""
    return list(dict.fromkeys(name for name, _, _ in LAYERS))
