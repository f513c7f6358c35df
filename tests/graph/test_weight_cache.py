"""Unit tests for the graph-versioned path-weight cache."""

import numpy as np
import pytest

from repro.graph.contact_graph import DENSE_NODE_THRESHOLD, ContactGraph
from repro.graph.paths import (
    PathMode,
    hop_rate_tuples_from,
    shortest_path_weights_from,
)
from repro.graph.weight_cache import (
    LazyPathWeights,
    PathWeightCache,
    cached_path_weights,
    shared_weight_cache,
)
from repro.mathutils import hypoexponential as hypoexp_module


@pytest.fixture
def graph():
    g = ContactGraph(4)
    g.set_rate(0, 1, 1.0)
    g.set_rate(1, 2, 0.5)
    g.set_rate(2, 3, 0.25)
    return g


class TestPathWeightCache:
    def test_hit_returns_same_array(self, graph):
        cache = PathWeightCache()
        first = cache.weights(graph, 0, 10.0)
        second = cache.weights(graph, 0, 10.0)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_values_match_direct_computation(self, graph):
        cache = PathWeightCache()
        np.testing.assert_array_equal(
            cache.weights(graph, 0, 10.0), shortest_path_weights_from(graph, 0, 10.0)
        )

    def test_cached_arrays_are_read_only(self, graph):
        cache = PathWeightCache()
        weights = cache.weights(graph, 0, 10.0)
        with pytest.raises(ValueError):
            weights[0] = 99.0

    def test_mutation_invalidates(self, graph):
        cache = PathWeightCache()
        before = cache.weights(graph, 0, 10.0)
        graph.set_rate(0, 3, 2.0)
        after = cache.weights(graph, 0, 10.0)
        assert cache.misses == 2
        assert after[3] > before[3]

    def test_identical_content_shares_entries_across_instances(self):
        # The GRAPH_REFRESH scenario: distinct snapshot objects, same rates.
        a = ContactGraph(3)
        b = ContactGraph(3)
        for g in (a, b):
            g.set_rate(0, 1, 1.0)
            g.set_rate(1, 2, 0.5)
        cache = PathWeightCache()
        cache.weights(a, 0, 5.0)
        cache.weights(b, 0, 5.0)
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_budgets_and_sources_miss(self, graph):
        cache = PathWeightCache()
        cache.weights(graph, 0, 10.0)
        cache.weights(graph, 0, 20.0)
        cache.weights(graph, 1, 10.0)
        assert cache.misses == 3 and cache.hits == 0

    def test_lru_eviction_bounds_size(self, graph):
        cache = PathWeightCache(maxsize=2)
        for budget in (1.0, 2.0, 3.0, 4.0):
            cache.weights(graph, 0, budget)
        assert len(cache) == 2
        cache.weights(graph, 0, 4.0)  # newest entry survived
        assert cache.hits == 1

    def test_weight_matrix_seeds_single_source_rows(self, graph):
        cache = PathWeightCache()
        matrix = cache.weight_matrix(graph, 10.0)
        row = cache.weights(graph, 2, 10.0)
        assert cache.hits == 1  # served from the matrix row, not recomputed
        np.testing.assert_array_equal(row, matrix[2])

    def test_rate_tuples_budget_independent_in_expected_delay_mode(self, graph):
        cache = PathWeightCache()
        first = cache.rate_tuples(graph, 0, 10.0)
        second = cache.rate_tuples(graph, 0, 999.0)
        assert first is second
        assert first[3] == (1.0, 0.5, 0.25)
        assert first[0] == ()

    def test_rate_tuples_budget_keyed_in_max_probability_mode(self, graph):
        cache = PathWeightCache()
        cache.rate_tuples(graph, 0, 10.0, PathMode.MAX_PROBABILITY)
        cache.rate_tuples(graph, 0, 999.0, PathMode.MAX_PROBABILITY)
        assert cache.misses == 2

    def test_clear_resets_counters(self, graph):
        cache = PathWeightCache()
        cache.weights(graph, 0, 10.0)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            PathWeightCache(maxsize=0)


def _tree_graph(num_nodes, seed):
    """Connected but for an isolated pair and a singleton at the end.

    Mostly-chain attachment gives deep shortest-path trees (pad widths
    past 8), and rates from a small vocabulary repeat exactly along paths
    (rows that take the expm fallback).
    """
    rng = np.random.default_rng(seed)
    graph = ContactGraph(num_nodes)
    live = num_nodes - 3
    vocabulary = (0.05, 0.1, 0.25, 0.5, 1.0)
    for node in range(1, live):
        parent = node - 1 if rng.random() < 0.5 else int(rng.integers(0, node))
        graph.set_rate(parent, node, float(rng.choice(vocabulary)))
    for _ in range(live // 8):
        a, b = (int(x) for x in rng.integers(0, live, size=2))
        if a != b:
            graph.set_rate(a, b, float(rng.uniform(0.01, 1.0)))
    graph.set_rate(live, live + 1, 0.5)
    return graph


class TestDemandDrivenWeights:
    """``weights_at`` evaluates Eq. (2) only for the nodes it is asked
    for, and every value is bitwise the eager vector's."""

    @pytest.mark.parametrize(
        "num_nodes, source", [(150, 0), (150, 17), (DENSE_NODE_THRESHOLD + 52, 5)]
    )
    def test_every_node_equals_eager_vector_bitwise(self, num_nodes, source):
        graph = _tree_graph(num_nodes, seed=num_nodes + source)
        assert graph.is_sparse == (num_nodes >= DENSE_NODE_THRESHOLD)
        budget = 20.0
        eager = shortest_path_weights_from(graph, source, budget)
        # Evaluate the lazy values afresh, not from the per-row memo the
        # eager sweep just filled.
        hypoexp_module._ROW_CDF_CACHE.clear()
        cache = PathWeightCache()
        rng = np.random.default_rng(num_nodes)
        order = [int(node) for node in rng.permutation(num_nodes)]
        lazy = np.zeros(num_nodes)
        start = 0
        while start < num_nodes:
            chunk = order[start : start + int(rng.integers(1, 6))]
            lazy[chunk] = cache.weights_at(graph, source, chunk, budget)
            start += len(chunk)
        assert [float(x).hex() for x in lazy] == [float(x).hex() for x in eager]
        assert lazy[source] == 1.0
        assert (lazy[num_nodes - 3 :] == 0.0).all()  # unreachable
        assert cache.misses == 1
        (entry,) = cache._entries.values()
        assert isinstance(entry, LazyPathWeights)
        # The pad width is the eager batch's: its longest hop-rate tuple.
        tuples = hop_rate_tuples_from(graph, source, budget)
        assert entry.width == max(len(rates) for rates in tuples.values())
        if graph.is_sparse:
            assert entry.width > 8

    def test_full_request_after_lazy_reads_returns_eager_vector(self):
        graph = _tree_graph(80, seed=3)
        cache = PathWeightCache()
        cache.weights_at(graph, 0, (4, 9), 20.0)
        full = cache.weights(graph, 0, 20.0)
        assert isinstance(full, np.ndarray) and not full.flags.writeable
        np.testing.assert_array_equal(full, shortest_path_weights_from(graph, 0, 20.0))
        assert cache.weights(graph, 0, 20.0) is full  # replaced in place
        assert len(cache) == 1 and cache.misses == 1 and cache.hits == 2

    def test_weight_matrix_rows_take_precedence_over_lazy_values(self):
        graph = _tree_graph(80, seed=4)
        cache = PathWeightCache()
        nodes = list(range(80))
        cache.weights_at(graph, 2, nodes, 20.0)
        matrix = cache.weight_matrix(graph, 20.0)
        assert cache.weights_at(graph, 2, nodes, 20.0) == matrix[2].tolist()
        np.testing.assert_array_equal(cache.weights(graph, 2, 20.0), matrix[2])

    def test_hits_and_misses_match_eager_reads(self):
        graph = _tree_graph(80, seed=5)
        reads = [(0, (1, 2)), (3, (3,)), (0, (5, 6)), (7, (0, 1)), (3, (9, 8)),
                 (0, (1,)), (11, (2, 4)), (7, (7,)), (12, (1, 2)), (3, (4,))]
        for maxsize in (2, 256):
            lazy, eager = PathWeightCache(maxsize), PathWeightCache(maxsize)
            for source, nodes in reads:
                values = lazy.weights_at(graph, source, nodes, 20.0)
                vector = eager.weights(graph, source, 20.0)
                assert values == [float(vector[node]) for node in nodes]
            assert (lazy.hits, lazy.misses) == (eager.hits, eager.misses)
            assert list(lazy._entries) == list(eager._entries)

    def test_small_reachable_set_stays_eager(self, graph):
        cache = PathWeightCache()
        assert cache.weights_at(graph, 0, (3, 0), 10.0) == [
            float(shortest_path_weights_from(graph, 0, 10.0)[3]),
            1.0,
        ]
        (entry,) = cache._entries.values()
        assert isinstance(entry, np.ndarray) and not entry.flags.writeable

    def test_max_probability_mode_stays_eager(self, graph):
        cache = PathWeightCache()
        values = cache.weights_at(graph, 0, (3, 1), 10.0, PathMode.MAX_PROBABILITY)
        vector = cache.weights(graph, 0, 10.0, PathMode.MAX_PROBABILITY)
        assert values == [float(vector[3]), float(vector[1])]
        assert cache.hits == 1 and cache.misses == 1

    def test_rejects_non_positive_budget(self, graph):
        from repro.errors import PathError

        with pytest.raises(PathError):
            PathWeightCache().weights_at(graph, 0, (1,), 0.0)

    def test_nbytes_counts_predecessor_row_and_memo(self):
        graph = _tree_graph(80, seed=6)
        cache = PathWeightCache()
        cache.weights_at(graph, 0, (0,), 20.0)
        (entry,) = cache._entries.values()
        assert cache.nbytes == entry.nbytes > entry.pred_row.nbytes == 4 * 80
        before = cache.nbytes
        cache.weights_at(graph, 0, range(80), 20.0)
        assert cache.nbytes == entry.nbytes > before
        cache.weights(graph, 0, 20.0)  # materialised: the vector's bytes
        assert cache.nbytes == 8 * 80
        cache.clear()
        assert cache.nbytes == 0

    def test_byte_budget_evicts_lazy_entries(self):
        graph = _tree_graph(80, seed=7)
        cache = PathWeightCache(maxbytes=1)
        for source in range(4):
            cache.weights_at(graph, source, range(80), 20.0)
        assert len(cache) == 1
        (entry,) = cache._entries.values()
        assert cache.nbytes == entry.nbytes


class TestStaleCacheProtection:
    """Regression: the shared cache is content-keyed, so any rate-matrix
    mutation that skips the version bump would silently serve stale
    paths.  The graph closes that hole by keeping the matrix non-writable
    at rest — all mutation must flow through the version-bumping setters.
    """

    def test_in_place_write_on_rates_view_raises(self, graph):
        with pytest.raises(ValueError):
            graph.rates[0, 3] = 99.0

    def test_rates_view_cannot_be_made_writable(self, graph):
        view = graph.rates
        with pytest.raises(ValueError):
            view.flags.writeable = True  # base array is non-writable

    def test_internal_matrix_is_locked_between_mutations(self, graph):
        graph.set_rate(0, 3, 2.0)  # the setter re-locks on the way out
        with pytest.raises(ValueError):
            graph.rates[0, 3] = 0.0

    def test_set_rates_bumps_version_and_fingerprint(self, graph):
        version = graph.version
        fingerprint = graph.fingerprint()
        rates = graph.rate_matrix()
        rates[0, 3] = rates[3, 0] = 2.0
        graph.set_rates(rates)
        assert graph.version > version
        assert graph.fingerprint() != fingerprint

    def test_set_rates_invalidates_cached_weights(self, graph):
        """The stale-cache scenario end to end: bulk mutation through the
        setter must make the cache recompute, and the fresh weights must
        reflect the new rates."""
        cache = PathWeightCache()
        before = cache.weights(graph, 0, 10.0)
        rates = graph.rate_matrix()
        rates[0, 3] = rates[3, 0] = 5.0  # direct shortcut 0-3
        graph.set_rates(rates)
        after = cache.weights(graph, 0, 10.0)
        assert cache.misses == 2  # no stale hit
        assert after[3] > before[3]

    def test_set_rates_copies_the_input(self, graph):
        rates = graph.rate_matrix()
        graph.set_rates(rates)
        fingerprint = graph.fingerprint()
        rates[0, 3] = rates[3, 0] = 7.0  # caller's array stays theirs
        assert graph.fingerprint() == fingerprint
        assert graph.rate(0, 3) == 0.0

    def test_set_rates_validates(self, graph):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            graph.set_rates(np.zeros((2, 2)))  # wrong shape
        bad = np.zeros((4, 4))
        bad[0, 1] = -1.0
        with pytest.raises(ConfigurationError):
            graph.set_rates(bad)  # negative rate
        asym = np.zeros((4, 4))
        asym[0, 1] = 1.0
        with pytest.raises(ConfigurationError):
            graph.set_rates(asym)  # asymmetric


class TestSharedCache:
    def test_shared_singleton(self):
        assert shared_weight_cache() is shared_weight_cache()

    def test_convenience_wrapper_uses_shared_cache(self, graph):
        direct = shortest_path_weights_from(graph, 0, 7.0)
        np.testing.assert_array_equal(cached_path_weights(graph, 0, 7.0), direct)
