"""Pure-Python oracles that pin the vectorized kernels.

Each oracle recomputes a kernel's output the slow, obviously-correct
way: scalar Eq. (2) per path, the label-setting search per source, a
full Dijkstra truncated afterwards, the knapsack DP one cell at a time.
They live only in test code; the property suites (``tests/properties``)
and the kernel benchmarks (``benchmarks/test_bench_kernels.py``) import
them from here.

* :func:`_reference_cdf_batch` pins ``hypoexponential_cdf_batch``;
* :func:`_reference_weight_matrix` pins ``shortest_path_weight_matrix``;
* :func:`_reference_ncl_metrics` pins ``ncl_metrics``;
* :func:`_reference_knn_weight_rows` pins ``knn_weight_rows``;
* :func:`_reference_sparse_ncl_metrics` pins ``sparse_ncl_metrics``;
* :func:`_reference_knapsack_keep` pins the Eq. (7) DP table fill
  ``repro.core.knapsack._knapsack_keep`` cell for cell.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.core.ncl import DEFAULT_KNN_K
from repro.errors import ConfigurationError
from repro.graph.contact_graph import ContactGraph
from repro.graph.paths import PathMode, _path_weights_by_search
from repro.mathutils.hypoexponential import (
    hypoexponential_cdf,
    pad_rate_rows,
    path_delivery_probability,
)


def _reference_cdf_batch(
    rate_rows: Union[np.ndarray, Sequence[Sequence[float]]],
    t: Union[float, np.ndarray],
) -> np.ndarray:
    """Scalar-loop oracle for ``hypoexponential_cdf_batch``.

    One :func:`hypoexponential_cdf` call per row (zero-hop rows are 1,
    non-positive times are 0); the batch kernel is pinned to this to
    1e-10.
    """
    padded = pad_rate_rows(rate_rows)
    times = np.broadcast_to(np.asarray(t, dtype=float), (len(padded),))
    out = np.zeros(len(padded))
    for i, row in enumerate(padded):
        rates = [float(r) for r in row if r > 0.0]
        if not rates:
            out[i] = 1.0
        elif times[i] > 0.0:
            out[i] = hypoexponential_cdf(rates, float(times[i]))
    return out


def _reference_weight_matrix(
    graph: ContactGraph,
    time_budget: float,
    mode: PathMode = PathMode.EXPECTED_DELAY,
) -> np.ndarray:
    """Oracle for ``shortest_path_weight_matrix``: one label-setting
    single-source sweep per row, pinned to 1e-9 on random graphs."""
    return np.vstack(
        [
            _path_weights_by_search(graph, s, time_budget, mode)
            for s in range(graph.num_nodes)
        ]
    )


def _reference_ncl_metrics(
    graph: ContactGraph,
    time_budget: float,
    mode: PathMode = PathMode.EXPECTED_DELAY,
) -> np.ndarray:
    """Oracle for ``ncl_metrics`` (N independent searches with per-path
    scalar Eq. 2 evaluation); property tests and the kernel benchmarks
    assert agreement with the vectorized path to 1e-9."""
    if graph.num_nodes < 2:
        raise ConfigurationError("NCL metric needs at least two nodes")
    metrics = np.zeros(graph.num_nodes)
    for node in range(graph.num_nodes):
        weights = _path_weights_by_search(graph, node, time_budget, mode)
        metrics[node] = (weights.sum() - weights[node]) / (graph.num_nodes - 1)
    return metrics


def _reference_knn_weight_rows(
    graph: ContactGraph,
    time_budget: float,
    k: int,
) -> np.ndarray:
    """Dense oracle for ``knn_weight_rows``.

    Runs the *full* reference expected-delay Dijkstra per source
    (no early stop, no CSR — the graph's neighbor lists directly),
    records the settle order, keeps the first k settled destinations,
    and scores each hop tuple with the scalar Eq. (2).  Returns the
    dense N×N matrix (diagonal 1, dropped pairs 0) that
    ``KnnWeightRows.to_dense`` must reproduce.  Equal distances
    cannot make oracle and kernel diverge: both heaps key on the
    distinct ``(dist, node)`` pairs.
    """
    n = graph.num_nodes
    k = min(int(k), max(n - 1, 1))
    dense = np.zeros((n, n))
    np.fill_diagonal(dense, 1.0)
    inf = float("inf")
    for s in range(n):
        dist: Dict[int, float] = {s: 0.0}
        pred: Dict[int, int] = {}
        settled: set = set()
        settle_order: List[int] = []
        heap: List[Tuple[float, int]] = [(0.0, s)]
        while heap:
            d, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            settle_order.append(node)
            for nb in graph.neighbors(node):
                if nb in settled:
                    continue
                candidate = d + 1.0 / graph.rate(node, nb)
                if candidate < dist.get(nb, inf):
                    dist[nb] = candidate
                    pred[nb] = node
                    heapq.heappush(heap, (candidate, nb))
        kept = [node for node in settle_order if node != s][:k]
        for node in kept:
            hops: List[float] = []
            cur = node
            while cur != s:
                hops.append(graph.rate(pred[cur], cur))
                cur = pred[cur]
            hops.reverse()
            dense[s, node] = path_delivery_probability(hops, time_budget)
    return dense


def _reference_sparse_ncl_metrics(
    graph: ContactGraph,
    time_budget: float,
    k: int = DEFAULT_KNN_K,
) -> np.ndarray:
    """Dense oracle for ``sparse_ncl_metrics``: row means of the dense
    :func:`_reference_knn_weight_rows` matrix (full reference Dijkstra
    per source, truncated afterwards), pinned at 1e-9."""
    if graph.num_nodes < 2:
        raise ConfigurationError("NCL metric needs at least two nodes")
    dense = _reference_knn_weight_rows(graph, time_budget, k)
    return (dense.sum(axis=1) - np.diag(dense)) / (graph.num_nodes - 1)


def _reference_knapsack_keep(
    values: Sequence[float], sizes: Sequence[int], cap_units: int
) -> List[List[bool]]:
    """Per-cell oracle for the Eq. (7) DP table fill ``_knapsack_keep``.

    Returns the keep table (``keep[i][w]`` = item *i* taken at capacity
    *w*); ties resolve toward earlier items via the strict ``>``.
    """
    width = cap_units + 1
    best = [0.0] * width
    keep: List[List[bool]] = []
    for value, size in zip(values, sizes):
        keep_row = [False] * width
        # Iterate capacity descending: classic 1-D 0/1 knapsack update.
        for w in range(cap_units, size - 1, -1):
            candidate = best[w - size] + value
            if candidate > best[w]:
                best[w] = candidate
                keep_row[w] = True
        keep.append(keep_row)
    return keep
