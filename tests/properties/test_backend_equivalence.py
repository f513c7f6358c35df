"""Kernel equivalence: each vectorized kernel == its pure-Python oracle.

The oracles live in :mod:`tests.oracles`.  Agreement is to tight numeric
tolerance where the vectorized path reorders float reductions, and exact
where it does not.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import knapsack
from repro.core.knapsack import KnapsackItem, KnapsackPool, solve_knapsack
from repro.core.ncl import ncl_metrics
from repro.graph.contact_graph import ContactGraph
from repro.graph.paths import shortest_path_weight_matrix
from repro.graph.weight_cache import shared_weight_cache
from repro.mathutils.hypoexponential import hypoexponential_cdf_batch, pad_rate_rows
from repro.traces.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.units import DAY, MEGABIT, WEEK
from tests.oracles import (
    _reference_cdf_batch,
    _reference_knapsack_keep,
    _reference_ncl_metrics,
    _reference_weight_matrix,
)


def _graph(seed=2, num_nodes=16):
    return ContactGraph.from_trace(
        generate_synthetic_trace(
            SyntheticTraceConfig(
                name=f"equiv-{seed}",
                num_nodes=num_nodes,
                duration=4 * DAY,
                total_contacts=num_nodes * 60,
                granularity=60.0,
                seed=seed,
            )
        )
    )


rate_rows = st.lists(
    st.lists(
        st.floats(min_value=1e-6, max_value=1e-2, allow_nan=False),
        min_size=0,
        max_size=6,
    ),
    min_size=1,
    max_size=40,
)


# --- vectorized kernels vs oracles ----------------------------------------


@settings(max_examples=60, deadline=None)
@given(rows=rate_rows, t=st.floats(min_value=1.0, max_value=1e6))
def test_hypoexp_batch_matches_reference(rows, t):
    padded = pad_rate_rows(rows)
    fast = hypoexponential_cdf_batch(padded, t)
    slow = _reference_cdf_batch(rows, t)
    np.testing.assert_allclose(fast, slow, atol=1e-10, rtol=0)


@pytest.mark.parametrize("seed", [2, 5, 11])
def test_weight_matrix_matches_reference(seed):
    graph = _graph(seed)
    fast = shortest_path_weight_matrix(graph, 1 * WEEK)
    slow = _reference_weight_matrix(graph, 1 * WEEK)
    np.testing.assert_allclose(fast, slow, atol=1e-9, rtol=0)


@pytest.mark.parametrize("seed", [2, 5])
def test_ncl_metrics_match_reference(seed):
    graph = _graph(seed)
    shared_weight_cache().clear()
    fast = ncl_metrics(graph, 1 * WEEK)
    slow = _reference_ncl_metrics(graph, 1 * WEEK)
    np.testing.assert_allclose(fast, slow, atol=1e-9, rtol=0)


knapsack_instances = st.tuples(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.integers(min_value=1, max_value=600 * MEGABIT),
        ),
        min_size=0,
        max_size=24,
    ),
    st.integers(min_value=1, max_value=600 * MEGABIT),
)


@settings(max_examples=80, deadline=None)
@given(instance=knapsack_instances)
def test_knapsack_pool_matches_solve(instance):
    raw, capacity = instance
    items = [KnapsackItem(i, value, size) for i, (value, size) in enumerate(raw)]
    direct = solve_knapsack(items, capacity)
    pooled = KnapsackPool().solve(items, capacity)
    assert direct == pooled
    assert direct.total_size <= capacity


# Tie-heavy values: equal totals and 0.1 + 0.2 != 0.3 are common, so the
# strict-improvement tie-break toward earlier items is exercised.
tie_values = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@st.composite
def dp_instances(draw):
    cap_units = draw(
        st.one_of(st.just(1), st.integers(min_value=2, max_value=40), st.just(4095))
    )
    rows = draw(
        st.lists(
            st.tuples(tie_values, st.integers(min_value=1, max_value=cap_units)),
            min_size=0,
            max_size=16,
        )
    )
    return [v for v, _ in rows], [s for _, s in rows], cap_units


@settings(max_examples=150, deadline=None)
@given(instance=dp_instances())
def test_knapsack_keep_matches_reference(instance):
    values, sizes, cap_units = instance
    fast = knapsack._knapsack_keep(values, sizes, cap_units)
    slow = _reference_knapsack_keep(values, sizes, cap_units)
    assert fast.shape == (len(sizes), cap_units + 1)
    assert fast.tolist() == slow


@st.composite
def tie_instances(draw):
    # Raw capacities both below and far above the 4096-cell axis, and
    # sizes reaching a quarter past the capacity so the oversize
    # singleton repair is drawn as well.
    capacity = draw(
        st.one_of(
            st.integers(min_value=1, max_value=64),
            st.integers(min_value=1, max_value=600 * MEGABIT),
        )
    )
    rows = draw(
        st.lists(
            st.tuples(
                tie_values,
                st.integers(min_value=1, max_value=capacity + capacity // 4 + 1),
            ),
            min_size=0,
            max_size=16,
        )
    )
    items = [KnapsackItem(i, value, size) for i, (value, size) in enumerate(rows)]
    return items, capacity


@settings(max_examples=100, deadline=None)
@given(instance=tie_instances())
def test_knapsack_solution_matches_reference_dp(instance):
    items, capacity = instance
    fast = solve_knapsack(items, capacity)
    with mock.patch.object(knapsack, "_knapsack_keep", _reference_knapsack_keep):
        slow = solve_knapsack(items, capacity)
    assert fast == slow
