"""Graph-versioned LRU cache of path-weight computations.

Every consumer of the contact graph — NCL selection (Eq. 3), the
push/pull gradient routers, response strategies, and time-budget
calibration — reduces to the same two sweeps: a single-source path-weight
vector at a time budget T, or the hop-rate tuples of the shortest
opportunistic paths from a source.  The simulator recomputes these
constantly: each GRAPH_REFRESH rebuilds router tables, warm-up runs K
central-node sweeps that the routers then recompute verbatim, and the
push and query routers each kept private per-destination tables for the
*same* graph and horizon.

This module gives all of them one shared, bounded cache.

Keying / invalidation contract
------------------------------
Entries are keyed on ``(graph.fingerprint(), source, time_budget, mode)``.
The fingerprint is a content digest of the rate matrix, lazily computed
and invalidated by the graph's monotone :attr:`ContactGraph.version`
bump on mutation.  Content keying (rather than instance keying) is what
lets two *different* snapshot instances with identical rates — the
common case for periodic GRAPH_REFRESH events over a quiet trace window —
share one computation.  A mutated graph gets a new fingerprint, so stale
reads are impossible by construction; eviction is plain LRU.  The graph
enforces its side of the contract by keeping the rate matrix
non-writable at rest: in-place ``numpy`` writes that would skip the
version bump (``graph.rates[i, j] = x``) raise instead of silently
poisoning this cache — all mutation goes through
``ContactGraph.set_rate``/``set_rates``.

Cached weight vectors are returned read-only (``ndarray.flags.writeable
= False``); callers that need to mutate must copy.

Demand-driven entries
---------------------
Routers read two scalars per contact — the carrier's and the peer's
path weight to one destination — so :meth:`PathWeightCache.weights_at`
never builds the full vector.  In expected-delay mode a miss stores a
:class:`LazyPathWeights` under the same key (and so the same LRU slot)
the eager vector would take: the Dijkstra predecessor row, the eager
batch's pad width and a per-node memo.  Each read evaluates its memo
misses in one Eq. (2) batch padded to that width, bitwise equal to the
eager vector's entries.  A full :meth:`PathWeightCache.weights` request
on a lazy entry materialises the eager vector and replaces the entry in
place; rows installed by :meth:`PathWeightCache.weight_matrix` replace
it likewise, and scalar reads of a vector just index it.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from time import perf_counter
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PathError
from repro.graph import incremental as _incremental
from repro.graph.contact_graph import ContactGraph
from repro.graph.paths import (
    PathMode,
    expected_delay_tree,
    hop_rate_tuples_from,
    shortest_path_weight_matrix,
    shortest_path_weights_from,
    tree_path_weights,
)
from repro.graph.sparse import KnnWeightRows, knn_weight_rows
from repro.obs.profile import active_profiler, maybe_span

__all__ = [
    "LazyPathWeights",
    "PathWeightCache",
    "shared_weight_cache",
    "cached_path_weights",
]

_FLOAT_BYTES = sys.getsizeof(0.0)

#: Reachable-row count below which a scalar read's miss still builds the
#: eager vector.  One Eq. (2) batch over 41 rows costs 0.17 ms, over 64
#: rows 0.34 ms, and a call for one or two rows 0.12 ms (2-vCPU VM); a
#: graph that small sees most of its rows read between refreshes, so one
#: batch beats a kernel call per contact.
_LAZY_MIN_ROWS = 64


class LazyPathWeights:
    """A single-source weight vector evaluated only where it is read.

    Holds the expected-delay shortest-path tree from *source* (int32
    predecessor row plus the eager batch's pad width, see
    :func:`repro.graph.paths.expected_delay_tree`) and a node → weight
    memo of the values read so far.
    """

    __slots__ = ("source", "pred_row", "width", "memo")

    def __init__(self, graph: ContactGraph, source: int):
        self.source = int(source)
        self.pred_row, self.width = expected_delay_tree(graph, self.source)
        self.memo: Dict[int, float] = {}

    @property
    def reachable_rows(self) -> int:
        """Rows of the eager batch: the source plus every reachable node."""
        return int(np.count_nonzero(self.pred_row >= 0)) + 1

    @property
    def nbytes(self) -> int:
        """Predecessor row plus memo (the dict and its float values)."""
        return (
            int(self.pred_row.nbytes)
            + sys.getsizeof(self.memo)
            + len(self.memo) * _FLOAT_BYTES
        )


def _entry_bytes(value: object) -> int:
    """Approximate heap footprint of a cached value (arrays and lazy
    weight vectors — the rate-tuple dicts are small and counted as
    entries, not bytes)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, LazyPathWeights):
        return value.nbytes
    if isinstance(value, KnnWeightRows):
        return int(value.indptr.nbytes + value.indices.nbytes + value.weights.nbytes)
    return 0


class PathWeightCache:
    """Bounded LRU over single-source path-weight sweeps.

    One instance is process-wide (:func:`shared_weight_cache`); worker
    processes of the parallel runner each build their own on first use,
    so no cross-process coherency is needed.
    """

    def __init__(self, maxsize: int = 256, maxbytes: int = 512 * 1024 * 1024):
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        if maxbytes < 1:
            raise ValueError("cache maxbytes must be >= 1")
        self._maxsize = int(maxsize)
        # At trace scale every entry is tiny and the entry-count LRU is
        # the binding limit; at 10⁵ nodes a single k-NN row set or weight
        # vector is megabytes, so a byte budget keeps the resident cache
        # bounded no matter the graph size.
        self._maxbytes = int(maxbytes)
        self._bytes = 0
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        # Incremental all-pairs tree state, keyed (num_nodes, budget).
        # Deliberately separate from the LRU: states are mutable masters,
        # never handed to callers.
        self._tree_states: "OrderedDict[Hashable, object]" = OrderedDict()
        self._max_tree_states = 4
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    # --- bookkeeping ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Tracked bytes of array payloads and lazy entries currently cached."""
        return self._bytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._tree_states.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0

    def _lookup(self, key: Hashable) -> Optional[object]:
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        return value

    def _store(self, key: Hashable, value: object) -> None:
        with self._lock:
            old = self._entries.get(key)
            if old is not None:
                self._bytes -= _entry_bytes(old)
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._bytes += _entry_bytes(value)
            self._evict_locked()

    def _evict_locked(self) -> None:
        while len(self._entries) > self._maxsize or (
            self._bytes > self._maxbytes and len(self._entries) > 1
        ):
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= _entry_bytes(evicted)

    # --- cached computations -------------------------------------------

    def weights(
        self,
        graph: ContactGraph,
        source: int,
        time_budget: float,
        mode: PathMode = PathMode.EXPECTED_DELAY,
    ) -> np.ndarray:
        """Cached :func:`shortest_path_weights_from` (read-only vector)."""
        # Hit latency is measured inline (a hit is too cheap for a span);
        # a miss wraps the recompute in a span so the kernel nests under it.
        prof = active_profiler()
        if prof.enabled:
            t0 = perf_counter()
        key = ("w", graph.fingerprint(), int(source), float(time_budget), mode)
        cached = self._lookup(key)
        if cached is None or isinstance(cached, LazyPathWeights):
            # A lazy entry is a hit that still lacks most of its values:
            # materialise the eager vector into the same slot.
            with maybe_span(prof, "weight_cache.weights.miss"):
                cached = shortest_path_weights_from(graph, source, time_budget, mode)
            cached.flags.writeable = False
            self._store(key, cached)
        elif prof.enabled:
            prof.add("weight_cache.weights.hit", perf_counter() - t0)
        return cached  # type: ignore[return-value]

    def weights_at(
        self,
        graph: ContactGraph,
        source: int,
        nodes: Sequence[int],
        time_budget: float,
        mode: PathMode = PathMode.EXPECTED_DELAY,
    ) -> List[float]:
        """``[weights(graph, source, T, mode)[n] for n in nodes]``, bitwise,
        evaluating Eq. (2) only for the requested nodes.

        Counts one hit or miss per call, like one :meth:`weights` call.
        In expected-delay mode a miss stores a :class:`LazyPathWeights`,
        unless the source reaches fewer than :data:`_LAZY_MIN_ROWS`
        nodes; max-probability mode stays eager.
        """
        prof = active_profiler()
        if prof.enabled:
            t0 = perf_counter()
        key = ("w", graph.fingerprint(), int(source), float(time_budget), mode)
        cached = self._lookup(key)
        if cached is None:
            with maybe_span(prof, "weight_cache.weights.miss"):
                cached = self._scalar_entry(graph, source, time_budget, mode)
            self._store(key, cached)
        elif prof.enabled:
            prof.add("weight_cache.weights.hit", perf_counter() - t0)
        if isinstance(cached, np.ndarray):
            return [float(cached[node]) for node in nodes]
        return self._read_lazy(key, cached, graph, nodes, time_budget)  # type: ignore[arg-type]

    def _scalar_entry(
        self, graph: ContactGraph, source: int, time_budget: float, mode: PathMode
    ) -> object:
        """Miss path of :meth:`weights_at`: a lazy entry, or the eager
        vector for a small reachable set or in max-probability mode."""
        if mode is PathMode.EXPECTED_DELAY:
            if time_budget <= 0:
                raise PathError("time budget must be positive")
            lazy = LazyPathWeights(graph, source)
            if lazy.reachable_rows >= _LAZY_MIN_ROWS:
                return lazy
        vector = shortest_path_weights_from(graph, source, time_budget, mode)
        vector.flags.writeable = False
        return vector

    def _read_lazy(
        self,
        key: Hashable,
        entry: LazyPathWeights,
        graph: ContactGraph,
        nodes: Sequence[int],
        time_budget: float,
    ) -> List[float]:
        memo = entry.memo
        missing = [node for node in dict.fromkeys(map(int, nodes)) if node not in memo]
        if missing:
            with maybe_span(active_profiler(), "kernel.weights_at"):
                values = tree_path_weights(
                    graph, entry.source, entry.pred_row, entry.width, missing, time_budget
                )
            with self._lock:
                before = entry.nbytes
                memo.update(zip(missing, values.tolist()))
                if self._entries.get(key) is entry:
                    self._bytes += entry.nbytes - before
                    self._evict_locked()
        return [memo[int(node)] for node in nodes]

    def weight_matrix(
        self,
        graph: ContactGraph,
        time_budget: float,
        mode: PathMode = PathMode.EXPECTED_DELAY,
    ) -> np.ndarray:
        """Cached all-pairs :func:`shortest_path_weight_matrix` (read-only).

        Rows are also installed as single-source entries, so a
        selection/refresh that computed the full matrix hands the routers
        their per-central vectors for free.

        In expected-delay mode on a dense graph the miss path maintains
        incremental Dijkstra-tree state (:mod:`repro.graph.incremental`):
        when only a few rates changed since the previous miss, only the
        affected source rows are recomputed.  The result is bitwise
        identical to a from-scratch build — ``REPRO_INCREMENTAL_NCL=0``
        forces scratch builds if that ever needs ruling out.
        """
        prof = active_profiler()
        if prof.enabled:
            t0 = perf_counter()
        key = ("W", graph.fingerprint(), float(time_budget), mode)
        cached = self._lookup(key)
        if cached is None:
            with maybe_span(prof, "weight_cache.matrix.miss"):
                cached = self._compute_weight_matrix(graph, time_budget, mode)
            cached.flags.writeable = False
            self._store(key, cached)
            for source in range(graph.num_nodes):
                row = cached[source]
                row.flags.writeable = False
                self._store(
                    ("w", graph.fingerprint(), source, float(time_budget), mode), row
                )
        elif prof.enabled:
            prof.add("weight_cache.matrix.hit", perf_counter() - t0)
        return cached  # type: ignore[return-value]

    def _compute_weight_matrix(
        self, graph: ContactGraph, time_budget: float, mode: PathMode
    ) -> np.ndarray:
        """Miss-path compute: incremental when eligible, else scratch."""
        if (
            mode is not PathMode.EXPECTED_DELAY
            or graph.is_sparse
            or not _incremental.incremental_enabled()
        ):
            return shortest_path_weight_matrix(graph, time_budget, mode)
        state_key = ("T", graph.num_nodes, float(time_budget))
        with self._lock:
            state = self._tree_states.get(state_key)
        weights = None
        if state is not None:
            with maybe_span(active_profiler(), "kernel.weight_matrix_update"):
                weights = _incremental.update_state(state, graph, time_budget)
        if weights is None:
            with maybe_span(active_profiler(), "kernel.weight_matrix"):
                weights, state = _incremental.build_state(graph, time_budget)
        with self._lock:
            self._tree_states[state_key] = state
            self._tree_states.move_to_end(state_key)
            while len(self._tree_states) > self._max_tree_states:
                self._tree_states.popitem(last=False)
        return weights

    def knn_rows(
        self,
        graph: ContactGraph,
        time_budget: float,
        k: int,
        mode: PathMode = PathMode.EXPECTED_DELAY,
    ) -> KnnWeightRows:
        """Cached :func:`repro.graph.sparse.knn_weight_rows` (frozen rows).

        The CSR arrays inside the returned :class:`KnnWeightRows` are the
        cached payload; treat them as read-only.
        """
        prof = active_profiler()
        if prof.enabled:
            t0 = perf_counter()
        key = ("k", graph.fingerprint(), float(time_budget), int(k), mode)
        cached = self._lookup(key)
        if cached is None:
            with maybe_span(prof, "weight_cache.knn_rows.miss"):
                cached = knn_weight_rows(graph, time_budget, k, mode)
            self._store(key, cached)
        elif prof.enabled:
            prof.add("weight_cache.knn_rows.hit", perf_counter() - t0)
        return cached  # type: ignore[return-value]

    def rate_tuples(
        self,
        graph: ContactGraph,
        source: int,
        time_budget: float,
        mode: PathMode = PathMode.EXPECTED_DELAY,
    ) -> Dict[int, Tuple[float, ...]]:
        """Cached hop-rate tuples of the shortest paths from *source*.

        In expected-delay mode the tuples are independent of the budget,
        so the key collapses it; calibration probes at many budgets then
        hit one entry.
        """
        prof = active_profiler()
        if prof.enabled:
            t0 = perf_counter()
        budget_key = 0.0 if mode is PathMode.EXPECTED_DELAY else float(time_budget)
        key = ("r", graph.fingerprint(), int(source), budget_key, mode)
        cached = self._lookup(key)
        if cached is None:
            with maybe_span(prof, "weight_cache.rate_tuples.miss"):
                cached = hop_rate_tuples_from(graph, source, time_budget, mode)
            self._store(key, cached)
        elif prof.enabled:
            prof.add("weight_cache.rate_tuples.hit", perf_counter() - t0)
        return cached  # type: ignore[return-value]


_SHARED = PathWeightCache()


def shared_weight_cache() -> PathWeightCache:
    """The process-wide cache shared by routers, NCL selection and calibration."""
    return _SHARED


def cached_path_weights(
    graph: ContactGraph,
    source: int,
    time_budget: float,
    mode: PathMode = PathMode.EXPECTED_DELAY,
) -> np.ndarray:
    """Convenience wrapper over ``shared_weight_cache().weights(...)``."""
    return _SHARED.weights(graph, source, time_budget, mode)
