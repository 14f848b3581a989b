import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodnet import generators, network

from prodnet import (
    BranchingDistribution,
    ParameterError,
    SizeError,
    generate_backward_tree,
    generate_gw_tree,
    generate_parallel,
    generate_rdag,
    generate_trellis,
)

from oracles import (
    backward_tree_reference,
    gw_tree_reference,
    parallel_reference,
    rdag_edges,
    trellis_reference,
)


def test_rdag_p_one_gives_all_order_edges():
    net = generate_rdag(3, 1.0, seed=0)
    assert set(net.edges) == {(1, 2), (1, 3), (2, 3)}


def test_rdag_single_node():
    net = generate_rdag(1, 0.5, seed=0)
    assert net.node_count == 1 and net.edges == ()


def test_rdag_mean_edge_count():
    # edges ~ Binomial(K(K-1)/2, p): mean 495, per-seed var 445.5
    counts = [generate_rdag(100, 0.1, seed=s).edge_count for s in range(1000)]
    se = math.sqrt(4950 * 0.1 * 0.9 / 1000)
    assert abs(np.mean(counts) - 495.0) < 3 * se


def test_rdag_validation():
    with pytest.raises(ParameterError):
        generate_rdag(0, 0.5, seed=0)
    with pytest.raises(ParameterError):
        generate_rdag(5, 1.5, seed=0)


def test_generators_deterministic_by_seed():
    assert generate_rdag(30, 0.2, seed=9) == generate_rdag(30, 0.2, seed=9)
    assert generate_parallel(10, 2, 3, seed=9) == generate_parallel(10, 2, 3, seed=9)
    assert generate_trellis(3, 4, 0.5, seed=9) == generate_trellis(3, 4, 0.5, seed=9)
    a = generate_gw_tree(BranchingDistribution.poisson(1.2), 30, seed=9)
    b = generate_gw_tree(BranchingDistribution.poisson(1.2), 30, seed=9)
    assert a.network == b.network and a.extinction_depth == b.extinction_depth


def test_parallel_minimal():
    net = generate_parallel(1, 1, 1, seed=0)
    assert net.node_count == 2
    assert net.edges == ((1, 2),)
    assert net.tiers == {1: 1, 2: 2}


def test_parallel_small_audit():
    net = generate_parallel(3, 2, 2, seed=3)
    raws = [v for v, t in net.tiers.items() if t == 1]
    complexes = [v for v, t in net.tiers.items() if t == 2]
    assert len(raws) == 3 and len(complexes) == 3
    for c in complexes:
        assert net.in_degree(c) == 2
    for r in raws:
        assert net.out_degree(r) <= 2


def test_parallel_counts_and_degrees():
    net = generate_parallel(50, 3, 5, seed=1)
    assert net.edge_count == 150
    rho = math.ceil(3 * 50 / 5)
    assert net.node_count == rho + 50
    for r in range(1, rho + 1):
        assert net.out_degree(r) <= 5
    for c in range(rho + 1, net.node_count + 1):
        assert net.in_degree(c) == 3


def test_parallel_degree_constraints_across_seeds():
    for seed in range(30):
        net = generate_parallel(7, 3, 2, seed=seed)
        rho = math.ceil(21 / 2)
        for r in range(1, rho + 1):
            assert net.out_degree(r) <= 2
        for c in range(rho + 1, net.node_count + 1):
            assert net.in_degree(c) == 3
            assert len(set(net.predecessors(c))) == 3


def test_parallel_infeasible_pool():
    # ceil(m*K/d) < m leaves too few distinct raws per product
    with pytest.raises(ParameterError):
        generate_parallel(2, 2, 5, seed=0)


def test_backward_tree_chain():
    net = generate_backward_tree(1, 4)
    assert net.node_count == 4
    assert set(net.edges) == {(2, 1), (3, 2), (4, 3)}
    assert net.tiers == {1: 1, 2: 2, 3: 3, 4: 4}


def test_backward_tree_binary():
    net = generate_backward_tree(2, 3)
    assert net.node_count == 7
    assert net.edge_count == 6
    assert net.in_degree(1) == 2
    raws = [v for v in range(1, 8) if net.in_degree(v) == 0]
    assert len(raws) == 4 and all(net.tiers[v] == 3 for v in raws)


def test_backward_tree_wide():
    net = generate_backward_tree(3, 2)
    assert net.node_count == 4
    assert sorted(net.predecessors(1)) == [2, 3, 4]
    assert all(net.tiers[v] == 2 for v in (2, 3, 4))


def test_backward_tree_size_limit():
    with pytest.raises(SizeError):
        generate_backward_tree(2, 40)
    # refused from D log m, with no size built or formatted
    for m, D in ((2, 100_000), (2, 10**400), (10**400, 2)):
        message = f"^a complete {m}-ary tree of depth {D} exceeds the limit of {network.MAX_NODES} products$"
        with pytest.raises(SizeError, match=message):
            generate_backward_tree(m, D)
    assert generate_backward_tree(10**400, 1).node_count == 1


def test_backward_tree_tier_direction():
    net = generate_backward_tree(2, 4)
    for j, i in net.edges:
        assert net.tiers[j] == net.tiers[i] + 1  # supply flows deep tier -> shallow


def test_gw_point_zero():
    res = generate_gw_tree(BranchingDistribution.point(0), 10, seed=0)
    assert res.network.node_count == 1
    assert res.extinction_depth == 1


def test_gw_point_two_truncated():
    res = generate_gw_tree(BranchingDistribution.point(2), 3, seed=0)
    assert res.network.node_count == 7
    assert res.extinction_depth is None
    assert res.network.out_degree(1) == 2
    for j, i in res.network.edges:
        assert res.network.tiers[i] == res.network.tiers[j] + 1


def test_gw_supercritical_growth_capped():
    with pytest.raises(SizeError):
        generate_gw_tree(BranchingDistribution.point(3), 50, seed=0)


def test_gw_tree_of_exactly_the_node_cap(monkeypatch):
    # 1 + 3 + 9 products reach the cap of 13 exactly, as the complete tree does
    monkeypatch.setattr(network, "MAX_NODES", 13)
    res = generate_gw_tree(BranchingDistribution.point(3), 3, 0)
    assert res.network.node_count == 13 and res.extinction_depth is None
    assert generate_backward_tree(3, 3).node_count == 13


def test_gw_tree_one_past_the_node_cap(monkeypatch):
    monkeypatch.setattr(network, "MAX_NODES", 13)
    assert generate_gw_tree(BranchingDistribution.point(12), 2, 0).network.node_count == 13
    with pytest.raises(SizeError):
        generate_gw_tree(BranchingDistribution.point(13), 2, 0)  # 14 products


def test_gw_subcritical_extinction_frequency():
    dist = BranchingDistribution.poisson(0.5)
    extinct = sum(
        1 for s in range(10_000) if generate_gw_tree(dist, 50, seed=s).extinction_depth is not None
    )
    assert extinct / 10_000 > 0.99


def test_gw_tier2_mean_matches_branching_mean():
    dist = BranchingDistribution.binomial(4, 0.35)
    sizes = []
    for s in range(10_000):
        net = generate_gw_tree(dist, 3, seed=s).network
        sizes.append(net.out_degree(1))
    se = math.sqrt(4 * 0.35 * 0.65 / 10_000)
    assert abs(np.mean(sizes) - dist.mean) < 4 * se


def test_branching_distribution_validation():
    with pytest.raises(ParameterError):
        BranchingDistribution.point(-1)
    with pytest.raises(ParameterError):
        BranchingDistribution.binomial(4, 1.2)
    with pytest.raises(ParameterError):
        BranchingDistribution.poisson(-0.5)
    assert BranchingDistribution.binomial(4, 0.25).mean == 1.0


def test_trellis_full():
    net = generate_trellis(2, 3, 1.0, seed=0)
    assert net.node_count == 6
    assert net.edge_count == 8
    for j, i in net.edges:
        assert net.tiers[i] == net.tiers[j] + 1


def test_trellis_width_one_path():
    net = generate_trellis(1, 5, 1.0, seed=0)
    assert set(net.edges) == {(d, d + 1) for d in range(1, 5)}


def test_trellis_mean_edges():
    # edges ~ Binomial((D-1) w^2, p): mean 13.5, per-seed var 6.75
    counts = [generate_trellis(3, 4, 0.5, seed=s).edge_count for s in range(1000)]
    se = math.sqrt(27 * 0.25 / 1000)
    assert abs(np.mean(counts) - 13.5) < 3 * se


def test_all_generators_acyclic():
    nets = [
        generate_rdag(20, 0.3, seed=2),
        generate_parallel(6, 2, 3, seed=2),
        generate_backward_tree(2, 4),
        generate_gw_tree(BranchingDistribution.poisson(1.5), 6, seed=2).network,
        generate_trellis(3, 3, 0.6, seed=2),
    ]
    assert all(net.acyclic for net in nets)


@settings(max_examples=150, deadline=None)
@given(
    K=st.integers(1, 14),
    block=st.integers(1, 12),
    p=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    seed=st.integers(0, 2**32),
)
def test_rdag_blocks_draw_the_one_call_stream(K, block, p, seed):
    # pair counts K(K-1)/2 fall on both sides of many block boundaries
    with mock.patch.object(generators, "RDAG_BLOCK", block):
        net = generate_rdag(K, p, seed)
    assert net.edges == rdag_edges(K, p, seed)
    assert net.acyclic


@pytest.mark.parametrize("K, blocks", [(1448, 1), (1449, 2), (1450, 2)])
def test_rdag_at_the_block_boundary(K, blocks):
    # 1448 products make 1 047 628 pairs, one block; 1449 make 1 049 076
    assert -(-K * (K - 1) // 2 // generators.RDAG_BLOCK) == blocks
    assert generate_rdag(K, 0.01, seed=K).edges == rdag_edges(K, 0.01, K)


def assert_same_network(net, ref):
    assert (net.node_count, net.supplier_count, net.acyclic) == (
        ref.node_count, ref.supplier_count, ref.acyclic
    )
    for got, want in zip(net.edge_arrays(), ref.edge_arrays(), strict=True):
        np.testing.assert_array_equal(got, want)
    assert net.tiers == ref.tiers


@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("D", [1, 2, 3, 6])
def test_backward_tree_matches_the_reference(m, D):
    assert_same_network(generate_backward_tree(m, D), backward_tree_reference(m, D))


def test_backward_tree_of_one_product_for_any_m():
    assert_same_network(generate_backward_tree(2**70, 1), backward_tree_reference(2**70, 1))


@pytest.mark.parametrize(
    "dist",
    [
        BranchingDistribution.point(0),
        BranchingDistribution.point(1),
        BranchingDistribution.point(2),
        BranchingDistribution.binomial(4, 0.3),
        BranchingDistribution.poisson(0.8),
        BranchingDistribution.poisson(1.6),
    ],
    ids=repr,
)
def test_gw_tree_matches_the_reference(dist):
    for max_depth in (1, 2, 5, 6, 12):
        for seed in range(15):
            res = generate_gw_tree(dist, max_depth, seed)
            ref, extinction_depth, truncated = gw_tree_reference(dist, max_depth, seed)
            assert_same_network(res.network, ref)
            assert (res.extinction_depth, res.extinction_depth is None) == (extinction_depth, truncated)


def test_gw_tree_dying_out_next_to_max_depth():
    # seed 5's last generation is its 5th: one before max_depth 6, and at max_depth 5
    dist = BranchingDistribution.binomial(4, 0.3)
    for max_depth, ending in [(6, (5, False)), (5, (None, True))]:
        res = generate_gw_tree(dist, max_depth, 5)
        ref, *ref_ending = gw_tree_reference(dist, max_depth, 5)
        assert (res.extinction_depth, res.extinction_depth is None) == ending == tuple(ref_ending)
        assert_same_network(res.network, ref)


@pytest.mark.parametrize("w, D, p", [(1, 5, 1.0), (3, 4, 0.5), (4, 1, 0.5), (6, 7, 0.3)])
def test_trellis_matches_the_reference(w, D, p):
    for seed in range(5):
        assert_same_network(generate_trellis(w, D, p, seed), trellis_reference(w, D, p, seed))


@settings(max_examples=150, deadline=None)
@given(
    w=st.integers(1, 7),
    D=st.integers(1, 5),
    block=st.integers(1, 12),
    p=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    seed=st.integers(0, 2**32),
)
def test_trellis_blocks_draw_the_per_tier_stream(w, D, block, p, seed):
    # blocks of 1-12 doubles cut tier pairs of w^2 cells, and their rows, mid-way
    with mock.patch.object(generators, "RDAG_BLOCK", block):
        net = generate_trellis(w, D, p, seed)
    assert_same_network(net, trellis_reference(w, D, p, seed))


@pytest.mark.parametrize(
    "K, m, d", [(1, 1, 1), (3, 2, 2), (6, 3, 3), (10, 4, 4), (7, 3, 2), (50, 3, 5)]
)
def test_parallel_matches_the_reference(K, m, d):
    for seed in range(5):
        assert_same_network(generate_parallel(K, m, d, seed), parallel_reference(K, m, d, seed))
