"""Property tests of the failure-threshold kernel behind every percolation path.

Failure sets are checked against the synchronous-sweep oracle on random
cyclic and acyclic graphs, under node and joint percolation, by replaying
the documented draw layout.  The resilience estimate is pinned by
re-running batches at it and one float above it, and memory is checked
to stay linear in K on a large sparse network.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from prodnet import (
    PercolationConfig,
    ProductionNetwork,
    resilience_curve,
    run_batch,
    run_coupled_pair,
    run_trial,
)

from oracles import _sync_propagate, supplier_maxima, trial_rng


@st.composite
def networks(draw, acyclic=None):
    """Small random networks, restricted to acyclic ones when `acyclic` (drawn if not given)."""
    if acyclic is None:
        acyclic = draw(st.booleans())
    k = draw(st.integers(1, 8))
    pairs = [
        (j, i)
        for j in range(1, k + 1)
        for i in range(1, k + 1)
        if j != i and (j < i or not acyclic)
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=16)) if pairs else []
    return ProductionNetwork(k, edges)


levels = st.floats(0.0, 1.0)
seeds = st.integers(0, 2**32)
shocks = dict(y=st.sampled_from([1.0, 0.5]), n=st.sampled_from([1, 2]), seed=seeds)


def replay(net, seed, n, y, t=0):
    """Supplier maxima and operational edges of trial t on seed, per the coupling contract."""
    rng = trial_rng(net, n, y, seed, t)
    maxima = supplier_maxima(rng, net.node_count, n)
    if y >= 1.0:
        return maxima, set(net.edges)
    live = rng.random(net.edge_count) < y
    return maxima, {e for e, ok in zip(net.edges, live) if ok}


def oracle_failures(net, maxima, op_edges, x) -> set[int]:
    spont = {i + 1 for i in np.flatnonzero(maxima < x)}
    return _sync_propagate(net, spont, op_edges)


def failed_set(z) -> set[int]:
    return {i + 1 for i in np.flatnonzero(np.asarray(z) == 0)}


@settings(max_examples=150, deadline=None)
@given(net=networks())
def test_strong_components_partition_in_topological_order(net):
    comps = net.strong_components()
    assert sorted(v for c in comps for v in c) == list(range(net.node_count))
    position = {v: p for p, c in enumerate(comps) for v in c}
    reach = net.reachability()
    for u in range(net.node_count):
        for v in range(net.node_count):
            assert (position[u] == position[v]) == (reach[u, v] and reach[v, u])
    assert all(position[j - 1] <= position[i - 1] for j, i in net.edges)


@settings(max_examples=150, deadline=None)
@given(net=networks(), x=levels, **shocks)
def test_batch_failures_match_oracle(net, x, y, n, seed):
    batch = run_batch(net, PercolationConfig(x=x, y=y, n=n, seed=seed), 4, keep_failures=True)
    for t in range(4):
        maxima, op_edges = replay(net, seed, n, y, t)
        expected = oracle_failures(net, maxima, op_edges, x)
        assert {i + 1 for i in np.flatnonzero(batch.failures[t])} == expected


@settings(max_examples=150, deadline=None)
@given(net=networks(), x=levels, **shocks)
def test_trial_failures_match_oracle(net, x, y, n, seed):
    out = run_trial(net, PercolationConfig(x=x, y=y, n=n, seed=seed))
    maxima, op_edges = replay(net, seed, n, y)
    assert failed_set(out.Z) == oracle_failures(net, maxima, op_edges, x)
    assert out.spontaneous_failures == {i + 1 for i in np.flatnonzero(maxima < x)}


@settings(max_examples=150, deadline=None)
@given(net=networks(), x1=levels, x2=levels, **shocks)
def test_coupled_pair_matches_oracle(net, x1, x2, y, n, seed):
    x1, x2 = min(x1, x2), max(x1, x2)
    low, high = run_coupled_pair(net, PercolationConfig(x=x2, y=y, n=n, seed=seed), x1, x2)
    maxima, op_edges = replay(net, seed, n, y)
    assert failed_set(low.Z) == oracle_failures(net, maxima, op_edges, x1)
    assert failed_set(high.Z) == oracle_failures(net, maxima, op_edges, x2)


@settings(max_examples=150, deadline=None)
@given(net=networks(acyclic=False), x1=levels, x2=levels, **shocks)
def test_coupled_pair_nested_on_cyclic_graphs(net, x1, x2, y, n, seed):
    x1, x2 = min(x1, x2), max(x1, x2)
    low, high = run_coupled_pair(net, PercolationConfig(x=x2, y=y, n=n, seed=seed), x1, x2)
    assert np.all(low.Z >= high.Z)
    assert low.S >= high.S


@settings(max_examples=40, deadline=None)
@given(
    net=networks(),
    n=st.sampled_from([1, 2]),
    seed=seeds,
)
def test_r_hat_is_the_exact_supremum(net, n, seed):
    # r_hat qualifies (share of trials with S >= s_min at least 1 - 1/K)
    # on the same trials, and the next float up does not
    trials, eps_grid = 30, [0.2, 0.5, 0.8]
    k = net.node_count
    curve = resilience_curve(net, eps_grid, n=n, trials=trials, seed=seed)

    def qualifies(x, s_min):
        batch = run_batch(net, PercolationConfig(x=x, n=n, seed=seed), trials)
        return (batch.S >= s_min).mean() >= 1.0 - 1.0 / k

    for eps, r in zip(eps_grid, curve.r_hat):
        s_min = math.ceil((1.0 - eps) * k - 1e-9)  # ceil((1-eps)K), guarded against float fuzz
        assert qualifies(r, s_min)
        if r < 1.0:
            assert not qualifies(np.nextafter(r, 2.0), s_min)


def test_long_chain_matches_oracle():
    # a chain has one level per product, and failures run its length
    k = 2000
    net = ProductionNetwork(k, [(i, i + 1) for i in range(1, k)])
    for y, seed in ((1.0, 3), (0.995, 4)):
        out = run_trial(net, PercolationConfig(x=0.01, y=y, seed=seed))
        maxima, op_edges = replay(net, seed, 1, y)
        assert failed_set(out.Z) == oracle_failures(net, maxima, op_edges, 0.01)
        assert 0 < out.F < k


def test_large_sparse_network_memory_is_linear():
    # K = 8000 with two inputs per product plus back edges that close
    # cycles; a dense K x K closure alone would take 64 MB as bool
    k = 8000
    rng = np.random.default_rng(0)
    edges = {(int(j), i) for i in range(2, k + 1) for j in rng.integers(1, i, size=2)}
    edges |= {(int(j), int(i)) for j, i in rng.integers(1, k + 1, size=(200, 2)) if j > i}
    net = ProductionNetwork(k, edges)
    assert not net.acyclic
    tracemalloc.start()
    try:
        run_batch(net, PercolationConfig(x=0.05, seed=1), 50)
        run_batch(net, PercolationConfig(x=0.05, y=0.5, seed=1), 50)
        resilience_curve(net, trials=50, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"
