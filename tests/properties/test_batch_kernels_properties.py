"""Property tests pinning the vectorized kernels to their scalar oracles.

The batch hypoexponential CDF and the scipy-Dijkstra NCL metrics are
performance rewrites of pure-Python reference code; these tests assert
the rewrites are *numerically interchangeable* with the originals —
including on the adversarial inputs (near-duplicate rates, disconnected
graphs) that motivated the fallback machinery.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.ncl import ncl_metrics
from repro.graph.contact_graph import ContactGraph
from repro.graph.paths import (
    _path_weights_by_search,
    shortest_path_weight_matrix,
    shortest_path_weights_from,
)
from repro.mathutils import hypoexponential as hypoexp_module
from repro.mathutils.hypoexponential import (
    hypoexponential_cdf,
    hypoexponential_cdf_batch,
    pad_rate_rows,
)
from tests.oracles import _reference_ncl_metrics

rate_row = st.lists(
    st.floats(min_value=1e-5, max_value=10.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
)


@st.composite
def rate_rows_with_near_duplicates(draw):
    """Batches of rate tuples, a fraction perturbed into near-duplicates."""
    rows = draw(st.lists(rate_row, min_size=1, max_size=12))
    for row in rows:
        if len(row) >= 2 and draw(st.booleans()):
            jitter = draw(st.floats(min_value=-1e-9, max_value=1e-9))
            row[1] = row[0] * (1.0 + jitter)
    return rows


@settings(max_examples=150, deadline=None)
@given(rows=rate_rows_with_near_duplicates(), t=st.floats(min_value=0.0, max_value=1e4))
def test_batch_cdf_matches_scalar(rows, t):
    batch = hypoexponential_cdf_batch(rows, t)
    for row, value in zip(rows, batch):
        assert abs(value - hypoexponential_cdf(row, t)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    rows=rate_rows_with_near_duplicates(),
    ts=st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=1),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_batch_cdf_matches_scalar_with_per_row_times(rows, ts, seed):
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.0, 1e4, len(rows))
    batch = hypoexponential_cdf_batch(rows, times)
    for row, t, value in zip(rows, times, batch):
        assert abs(value - hypoexponential_cdf(row, float(t))) < 1e-10


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(rate_row, min_size=1, max_size=8), t=st.floats(min_value=0.0, max_value=1e4))
def test_batch_cdf_accepts_padded_matrix_form(rows, t):
    ragged = hypoexponential_cdf_batch(rows, t)
    padded = hypoexponential_cdf_batch(pad_rate_rows(rows), t)
    np.testing.assert_array_equal(ragged, padded)


# --- row independence --------------------------------------------------------
#
# Demand-driven path weights evaluate a few rows of a weight vector on
# their own and promise the values of the full batch bit for bit.  That
# holds because every stage of the batch kernel is row-independent at a
# fixed pad width: duplicate collapsing, the closed-form coefficients,
# the pairwise row sums (whose order depends on the width, not on the
# other rows) and the per-matrix expm fallback.

#: a small rate vocabulary, so rows repeat exactly (the dedup path) and
#: rates repeat within a row (the expm fallback)
quantised_rate = st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0, 2.0]) | st.floats(
    min_value=1e-3, max_value=5.0
)


@st.composite
def padded_batches(draw):
    """A zero-padded rate matrix whose rows repeat a few distinct tuples."""
    width = draw(st.integers(min_value=1, max_value=14))
    tuples = draw(
        st.lists(
            st.lists(quantised_rate, min_size=0, max_size=width), min_size=1, max_size=10
        )
    )
    picks = draw(
        st.lists(st.integers(min_value=0, max_value=len(tuples) - 1), min_size=1, max_size=90)
    )
    padded = np.zeros((len(picks), width))
    for row, pick in enumerate(picks):
        padded[row, : len(tuples[pick])] = tuples[pick]
    return padded


def _assert_rows_match_single_row_calls(padded, t):
    hypoexp_module._MATRIX_CDF_CACHE.clear()
    batch = hypoexponential_cdf_batch(padded, t)
    for row, value in zip(padded, batch):
        # Clear the expm memo so the single row is evaluated afresh.
        hypoexp_module._MATRIX_CDF_CACHE.clear()
        alone = hypoexponential_cdf_batch(row[None, :], t)[0]
        assert float(alone).hex() == float(value).hex()


@settings(max_examples=40, deadline=None)
@given(padded=padded_batches(), t=st.floats(min_value=0.0, max_value=100.0))
def test_batch_rows_equal_single_row_calls_bitwise(padded, t):
    _assert_rows_match_single_row_calls(padded, t)


def test_row_independence_covers_dedup_fallback_and_wide_rows():
    """A fixed batch on all three risky paths at once: >= _DEDUP_MIN_ROWS
    rows with duplicates, rows with exactly repeated rates (expm
    fallback), and a width past numpy's 8-wide pairwise-sum unrolling."""
    rng = np.random.default_rng(7)
    width = 12
    vocabulary = np.array([0.05, 0.1, 0.25, 0.5, 1.0, 2.0])
    tuples = []
    for _ in range(20):
        length = int(rng.integers(1, width + 1))
        tuples.append(rng.choice(vocabulary, size=length))
    tuples.append(np.full(width, 0.25))  # full width, all rates equal
    tuples.append(np.linspace(0.1, 2.0, width))  # full width, distinct
    picks = list(range(len(tuples))) + list(rng.integers(0, len(tuples), size=60))
    padded = np.zeros((len(picks), width))
    for row, pick in enumerate(picks):
        padded[row, : len(tuples[pick])] = tuples[pick]
    assert len(padded) >= hypoexp_module._DEDUP_MIN_ROWS
    assert len(np.unique(padded, axis=0)) < len(padded)
    hypoexp_module._MATRIX_CDF_CACHE.clear()
    hypoexponential_cdf_batch(padded, 3.0)
    assert hypoexp_module._MATRIX_CDF_CACHE  # some rows took the fallback
    _assert_rows_match_single_row_calls(padded, 3.0)


def _random_graph(num_nodes: int, edge_probability: float, seed: int) -> ContactGraph:
    rng = np.random.default_rng(seed)
    rates = np.zeros((num_nodes, num_nodes))
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if rng.random() < edge_probability:
                rates[i, j] = rates[j, i] = rng.uniform(1e-4, 1.0)
    return ContactGraph.from_rate_matrix(rates)


@settings(max_examples=40, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=14),
    edge_probability=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
    budget=st.floats(min_value=0.5, max_value=1e4),
)
def test_scipy_ncl_metrics_match_reference(num_nodes, edge_probability, seed, budget):
    """The acceptance oracle: vectorized Eq. (3) == pure-Python Eq. (3)
    on random graphs, including disconnected ones.

    Tolerance note: the vectorized matrix evaluates each unordered pair
    once (p_ij = p_ji) while the reference sweeps every source row, so
    half the pairs are compared across *reversed* hop orders.  Near the
    closed form's separation threshold (adjacent rates within ~1e-6
    relative) its coefficients are large and cancelling, and either
    evaluation order carries a genuine ~1e-8 absolute error against the
    matrix-exponential truth — 1e-7 is the honest agreement bound, not
    1e-9 (hypothesis found rates separated by 5.7e-6 that exceed it).
    """
    graph = _random_graph(num_nodes, edge_probability, seed)
    fast = ncl_metrics(graph, budget)
    reference = _reference_ncl_metrics(graph, budget)
    np.testing.assert_allclose(fast, reference, atol=1e-7, rtol=0)


@settings(max_examples=40, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=14),
    edge_probability=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
    budget=st.floats(min_value=0.5, max_value=1e4),
)
def test_scipy_weight_vector_matches_reference(num_nodes, edge_probability, seed, budget):
    graph = _random_graph(num_nodes, edge_probability, seed)
    source = seed % num_nodes
    fast = shortest_path_weights_from(graph, source, budget)
    reference = _path_weights_by_search(graph, source, budget)
    np.testing.assert_allclose(fast, reference, atol=1e-9, rtol=0)


@settings(max_examples=25, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=12),
    edge_probability=st.floats(min_value=0.1, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
    budget=st.floats(min_value=0.5, max_value=1e4),
)
def test_weight_matrix_rows_are_single_source_sweeps(num_nodes, edge_probability, seed, budget):
    graph = _random_graph(num_nodes, edge_probability, seed)
    matrix = shortest_path_weight_matrix(graph, budget)
    assert matrix.shape == (num_nodes, num_nodes)
    np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)
    for source in range(num_nodes):
        # 1e-7, not 1e-9: rows mix pairs evaluated in both hop orders
        # (see the tolerance note on the NCL oracle test above).
        np.testing.assert_allclose(
            matrix[source],
            _path_weights_by_search(graph, source, budget),
            atol=1e-7,
            rtol=0,
        )
