"""The sparse Katz solver behind Katz centrality, beta and protection planning.

The strong-component solver is checked against a dense solve on random
cyclic and acyclic graphs in both orientations, on long directed cycles
at a y so close to 1 that Neumann sweeps alone would need millions of
steps, and for memory that stays linear in K on a large cyclic network.
On DAGs it, and the `dag_beta` pass that walks the same level plan, must
equal per-product substitution bit for bit.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodnet import (
    ProductionNetwork,
    dag_beta,
    evaluate_intervention,
    katz_centrality,
    optimal_protection,
)
from prodnet.contagion import _katz_solve

from oracles import dag_beta_pass, katz_substitution


@st.composite
def systems(draw, acyclic=None):
    """A random network with K <= 12, a y below 1/Delta and a nonnegative right-hand side.

    The network is acyclic when `acyclic`, which is drawn if not given.
    """
    if acyclic is None:
        acyclic = draw(st.booleans())
    k = draw(st.integers(1, 12))
    pairs = [
        (j, i)
        for j in range(1, k + 1)
        for i in range(1, k + 1)
        if j != i and (j < i or not acyclic)
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30)) if pairs else []
    net = ProductionNetwork(k, edges)
    delta = max(net.max_out_degree, 1)
    y = draw(st.floats(0.0, 1.0)) * (1.0 - 1e-6) / delta
    b = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=k, max_size=k)))
    return net, y, b


@settings(max_examples=300, deadline=None)
@given(systems(), st.booleans())
def test_solver_matches_dense_solve(system, reverse):
    net, y, b = system
    k = net.node_count
    a = np.zeros((k, k))
    for j, i in net.edges:
        a[j - 1, i - 1] = 1.0
    ref = np.linalg.solve(np.eye(k) - y * (a if reverse else a.T), b)
    got = _katz_solve(net, y, b, reverse=reverse)
    np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12 * max(1.0, np.abs(ref).max()))


@settings(max_examples=200, deadline=None)
@given(systems(acyclic=True), st.booleans())
def test_solver_is_substitution_on_dags(system, reverse):
    net, y, b = system
    np.testing.assert_array_equal(
        _katz_solve(net, y, b, reverse=reverse), katz_substitution(net, y, b, reverse)
    )


@settings(max_examples=200, deadline=None)
@given(
    systems(acyclic=True),
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1])),
    st.floats(0.0, 1.0),
    st.sampled_from([1, 3]),
)
def test_dag_beta_is_the_per_product_pass(system, x, y, n):
    net = system[0]
    np.testing.assert_array_equal(dag_beta(net, x, y, n).beta, dag_beta_pass(net, x, y, n))


@pytest.mark.parametrize("length", [2, 50, 400])
@pytest.mark.parametrize("reverse", [False, True])
def test_long_cycle_near_spectral_threshold(length, reverse):
    # y A has spectral radius 1 - 1e-5: the component's own block is solved
    y = 1.0 / (1.0 + 1e-5)
    net = ProductionNetwork(length, [(i, i % length + 1) for i in range(1, length + 1)])
    got = _katz_solve(net, y, np.ones(length), reverse=reverse)
    np.testing.assert_allclose(got, 1.0 / (1.0 - y), rtol=1e-9)
    if not reverse:
        np.testing.assert_allclose(katz_centrality(net, y), 1.0 / (1.0 - y), rtol=1e-9)


def test_large_cyclic_network_memory_is_linear():
    # K = 20000 with two inputs per product plus back edges that close
    # cycles; a dense K x K system would take 3.2 GB
    k = 20000
    rng = np.random.default_rng(0)
    edges = {(int(j), i) for i in range(2, k + 1) for j in rng.integers(1, i, size=2)}
    edges |= {(int(j), int(i)) for j, i in rng.integers(1, k + 1, size=(2000, 2)) if j > i}
    net = ProductionNetwork(k, edges)
    y = 0.5 / max(net.max_out_degree, net.max_in_degree)
    tracemalloc.start()
    try:
        gamma = katz_centrality(net, y)
        plan = optimal_protection(net, 100, y)
        damage, _ = evaluate_intervention(net, plan.protected, 0.01, y, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert max(len(c) for c in net.strong_components()) > 1000
    assert gamma.min() >= 1.0
    assert damage == pytest.approx(plan.objective(0.01, 1), rel=1e-9)
