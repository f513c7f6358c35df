"""Property tests pinning the vectorized kernels to their scalar oracles.

The batch hypoexponential CDF and the scipy-Dijkstra NCL metrics are
performance rewrites of pure-Python reference code; these tests assert
the rewrites are *numerically interchangeable* with the originals —
including on the adversarial inputs (near-duplicate rates, disconnected
graphs) that motivated the fallback machinery.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.linalg import expm

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
from tests.oracles import _reference_cdf_batch, _reference_ncl_metrics

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


# --- exactly repeated rates --------------------------------------------------
#
# Trace estimation quantises rates to count/elapsed, so long paths repeat
# a handful of rates many times.  These rows take the closed form for rate
# multiplicities instead of the matrix exponential.

#: trace-like quantised rates (contacts per day) or arbitrary ones; two
#: arbitrary draws may land close together, which the rounding gate and
#: the clustering check must route to the matrix exponential
vocabulary_rate = st.integers(min_value=1, max_value=400).map(lambda count: count / 86400.0) | (
    st.floats(min_value=1e-4, max_value=5.0)
)


@st.composite
def repeated_rate_rows(draw):
    """Rows drawn from a vocabulary of 1-6 rates, each rate repeated up to
    15 times and at most 21 hops per row (the range trace-estimated
    13-18-hop trees reach), with one time per row."""
    vocabulary = draw(st.lists(vocabulary_rate, min_size=1, max_size=6, unique=True))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        counts = [draw(st.integers(min_value=0, max_value=15)) for _ in vocabulary]
        row = [rate for rate, count in zip(vocabulary, counts) for _ in range(count)]
        row = draw(st.permutations(row[:21] or vocabulary[:1]))
        rows.append(list(row))
    times = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=2e5), min_size=len(rows), max_size=len(rows)
        )
    )
    return rows, np.array(times)


@settings(max_examples=150, deadline=None)
@given(batch=repeated_rate_rows())
def test_repeated_rate_rows_match_reference(batch):
    rows, times = batch
    hypoexp_module._ROW_CDF_CACHE.clear()
    np.testing.assert_allclose(
        hypoexponential_cdf_batch(rows, times),
        _reference_cdf_batch(rows, times),
        atol=1e-10,
        rtol=0,
    )


@pytest.fixture
def expm_calls(monkeypatch):
    """Count the matrix exponentials the batch kernel evaluates."""
    calls = []

    def counting_expm(matrices):
        calls.append(len(matrices))
        return expm(matrices)

    monkeypatch.setattr(hypoexp_module, "expm", counting_expm)
    hypoexp_module._ROW_CDF_CACHE.clear()
    yield calls
    hypoexp_module._ROW_CDF_CACHE.clear()


@pytest.mark.parametrize(
    "row", [[0.25] * 12, [0.1] * 5 + [0.5] * 7, [0.5, 0.1] * 9 + [2.0] * 3]
)
def test_repeated_rates_take_the_closed_form(row, expm_calls):
    value = hypoexponential_cdf_batch([row], 30.0)[0]
    assert expm_calls == []
    assert abs(value - hypoexponential_cdf(row, 30.0)) < 1e-10


def test_near_duplicate_rates_still_take_the_matrix_exponential(expm_calls):
    row = [0.2, 0.2 + 1e-12, 0.2, 0.7]
    value = hypoexponential_cdf_batch([row], 30.0)[0]
    assert expm_calls == [1]
    assert abs(value - hypoexponential_cdf(row, 30.0)) < 1e-10


def test_rows_failing_the_rounding_gate_take_the_matrix_exponential(expm_calls):
    # Distinct rates 10 % apart, four of each: the partial-fraction
    # coefficients cancel, so the gate sends the row to the matrix
    # exponential rather than return the sum.
    row = [1.0] * 4 + [1.1] * 4
    value = hypoexponential_cdf_batch([row], 5.0)[0]
    assert expm_calls == [1]
    assert abs(value - hypoexponential_cdf(row, 5.0)) < 1e-10


# --- row independence --------------------------------------------------------
#
# Demand-driven path weights evaluate a few rows of a weight vector on
# their own and promise the values of the full batch bit for bit.  That
# holds because every stage of the batch kernel is row-independent at a
# fixed pad width: duplicate collapsing, the closed-form coefficients,
# the pairwise row sums (whose order depends on the width, not on the
# other rows) and the per-row repeated-rate closed form and expm fallback.

#: a small rate vocabulary, so rows repeat exactly (the dedup path) and
#: rates repeat within a row (the repeated-rate closed form)
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
    hypoexp_module._ROW_CDF_CACHE.clear()
    batch = hypoexponential_cdf_batch(padded, t)
    times = np.broadcast_to(np.asarray(t, dtype=float), (len(padded),))
    for row, row_t, value in zip(padded, times, batch):
        # Clear the per-row memo so the single row is evaluated afresh.
        hypoexp_module._ROW_CDF_CACHE.clear()
        alone = hypoexponential_cdf_batch(row[None, :], row_t)[0]
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
    hypoexp_module._ROW_CDF_CACHE.clear()
    hypoexponential_cdf_batch(padded, 3.0)
    # Some rows left the vectorised sweep for the per-row paths.
    assert hypoexp_module._ROW_CDF_CACHE
    _assert_rows_match_single_row_calls(padded, 3.0)


@st.composite
def mixed_route_batches(draw):
    """A padded batch mixing every route of the kernel: well-separated
    rows (vectorised sweep), exactly repeated rates (per-row closed form),
    close distinct rates (rejected by the rounding gate) and
    near-duplicates (clustered expm), with one time per row."""
    width = draw(st.integers(min_value=2, max_value=21))
    base = st.floats(min_value=1e-3, max_value=5.0)
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        length = draw(st.integers(min_value=1, max_value=width))
        kind = draw(st.sampled_from(["separated", "repeated", "gated", "clustered"]))
        if kind == "separated":
            row = draw(st.lists(base, min_size=length, max_size=length, unique=True))
        elif kind == "repeated":
            vocabulary = draw(st.lists(quantised_rate, min_size=1, max_size=4))
            row = [vocabulary[i % len(vocabulary)] for i in range(length)]
        elif kind == "gated":
            rate = draw(base)
            row = [rate if i % 2 else rate * (1.0 + 1e-4) for i in range(length)]
        else:
            rate = draw(base)
            row = [rate * (1.0 + 1e-12 * (i % 3)) for i in range(length)]
        rows.append(row)
    padded = np.zeros((len(rows), width))
    for index, row in enumerate(rows):
        padded[index, : len(row)] = row
    times = draw(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=len(rows), max_size=len(rows))
    )
    return padded, np.array(times)


@settings(max_examples=40, deadline=None)
@given(batch=mixed_route_batches())
def test_mixed_route_rows_equal_single_row_calls_bitwise(batch):
    padded, times = batch
    _assert_rows_match_single_row_calls(padded, times)


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
