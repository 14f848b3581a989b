import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodnet import (
    CyclicGraphError,
    ParameterError,
    ProductionNetwork,
    ValidationError,
    generate_backward_tree,
    generate_rdag,
    load_network_json,
    reverse_graph,
    topological_order,
)
from prodnet.fileio import NETWORK_JSON_SCHEMA

from oracles import _kahn_order, canonical_edges


def test_basic_construction():
    net = ProductionNetwork(3, [(1, 2), (2, 3)], supplier_count=2)
    assert net.node_count == 3
    assert net.edges == ((1, 2), (2, 3))
    assert net.supplier_count == 2
    assert net.acyclic
    assert net.sources() == [1]
    assert net.predecessors(3) == (2,)
    assert net.successors(1) == (2,)
    assert net.max_out_degree == 1 and net.max_in_degree == 1


def test_rejects_self_loops_and_duplicates():
    with pytest.raises(ValidationError):
        ProductionNetwork(2, [(1, 1)])
    with pytest.raises(ValidationError):
        ProductionNetwork(2, [(1, 2), (1, 2)])
    with pytest.raises(ValidationError):
        ProductionNetwork(2, [(1, 3)])
    with pytest.raises(ParameterError):
        ProductionNetwork(0, [])


def test_acyclic_claim_verified(tmp_path):
    # a network JSON's "acyclic": true is the one outside claim, and the loader checks it
    doc = {"schema": NETWORK_JSON_SCHEMA, "k": 2, "n": 1, "edges": [[1, 2], [2, 1]], "acyclic": True}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValidationError, match="^network was declared acyclic but contains a cycle$"):
        load_network_json(path)
    doc["acyclic"] = False
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert not load_network_json(path).acyclic
    assert not ProductionNetwork(2, [(1, 2), (2, 1)]).acyclic


def test_tiers_must_cover_all_nodes():
    with pytest.raises(ValidationError):
        ProductionNetwork(3, [(1, 2)], tiers={1: 1, 2: 2})
    net = ProductionNetwork(3, [(1, 2)], tiers={1: 1, 2: 2, 3: 2})
    assert net.tiers == {1: 1, 2: 2, 3: 2}


def test_networks_immutable():
    net = ProductionNetwork(2, [(1, 2)])
    with pytest.raises(AttributeError):
        net.node_count = 5


def test_topological_order_id_ties():
    net = ProductionNetwork(3, [])
    assert topological_order(net) == [1, 2, 3]


def test_topological_order_respects_edges():
    net = ProductionNetwork(2, [(2, 1)])
    assert topological_order(net) == [2, 1]


def test_topological_order_random_dag_audit():
    net = generate_rdag(20, 0.3, seed=7)
    order = topological_order(net)
    pos = {v: i for i, v in enumerate(order)}
    assert sorted(order) == list(range(1, 21))
    for j, i in net.edges:
        assert pos[j] < pos[i]


def test_topological_order_cycle_error_names_edge():
    net = ProductionNetwork(4, [(1, 2), (2, 3), (3, 2), (3, 4)])
    with pytest.raises(CyclicGraphError) as err:
        topological_order(net)
    assert err.value.edge in {(2, 3), (3, 2)}


def test_reverse_graph_examples():
    net = ProductionNetwork(2, [(1, 2)])
    assert reverse_graph(net).edges == ((2, 1),)
    empty = ProductionNetwork(3, [])
    assert reverse_graph(empty).edges == ()


def test_reverse_graph_involution():
    net = generate_rdag(10, 0.4, seed=11)
    assert reverse_graph(reverse_graph(net)) == net


def test_reachability_closure():
    net = ProductionNetwork(4, [(1, 2), (2, 3)])
    reach = net.reachability()
    assert reach[0, 2] and reach[0, 0]
    assert not reach[0, 3] and not reach[2, 0]
    # cyclic graphs are fine
    cyc = ProductionNetwork(2, [(1, 2), (2, 1)])
    assert cyc.reachability().all()


@st.composite
def small_networks(draw):
    """Random cyclic or acyclic networks with K <= 10, acyclic ones with ids in any order."""
    acyclic = draw(st.booleans())
    k = draw(st.integers(1, 10))
    pairs = [
        (j, i)
        for j in range(1, k + 1)
        for i in range(1, k + 1)
        if j != i and (j < i or not acyclic)
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=25)) if pairs else []
    if acyclic and draw(st.booleans()):  # relabelled, so ids need not ascend along the edges
        label = draw(st.permutations(range(1, k + 1)))
        edges = [(label[j - 1], label[i - 1]) for j, i in edges]
    return ProductionNetwork(k, edges)


@settings(max_examples=200, deadline=None)
@given(net=small_networks(), reverse=st.booleans())
def test_level_plan_orders_inputs_before_consumers(net, reverse):
    plan = net.level_plan(reverse)
    assert net.level_plan(reverse) is plan
    src, dst = net.edge_arrays()
    source, consumer = (dst, src) if reverse else (src, dst)
    comps = set(net.strong_components())
    level_of, edges = {}, []
    for d, level in enumerate(plan):
        assert np.all(np.diff(level.products) > 0)
        assert not set(level.products.tolist()) & set(level_of)
        level_of.update((v, d) for v in level.products.tolist())
        members = [c.members.tolist() for c in level.cycles]
        alone = set(level.products.tolist()) - {v for m in members for v in m}
        groups = [[v] for v in sorted(alone)] + members
        assert all(tuple(group) in comps for group in groups)
        # inputs from other components, earlier in the plan
        consumers = level.products[level.segment]
        assert np.array_equal(source[level.edges], level.sources)
        assert np.array_equal(consumer[level.edges], consumers)
        assert all(level_of.get(j, d) < d for j in level.sources.tolist())
        edges += level.edges.tolist()
        # fed holds each consumer once, by (input count descending, id)
        fed = level.fed.tolist()
        assert sorted(fed) == sorted(set(consumers.tolist()))
        keys = [(-np.count_nonzero(consumers == v), v) for v in fed]
        assert keys == sorted(keys)
        # round r is fed[:m], and each consumer's inputs come by ascending source
        assert level.rounds[0] == 0 and level.rounds[-1] == len(level.sources)
        for lo, hi in zip(level.rounds, level.rounds[1:]):
            assert hi > lo and consumers[lo:hi].tolist() == fed[: hi - lo]
        for v in fed:
            assert np.all(np.diff(level.sources[consumers == v]) > 0)
        # internal edges join members of one component, by (tail, head)
        for c in level.cycles:
            assert np.array_equal(source[c.edges], c.members[c.tails])
            assert np.array_equal(consumer[c.edges], c.members[c.heads])
            pairs = list(zip(c.tails.tolist(), c.heads.tolist()))
            assert pairs == sorted(pairs)
            starts = np.searchsorted(c.tails, range(len(c.members) + 1))
            assert np.array_equal(c.tail_starts, starts)
            edges += c.edges.tolist()
        # the level is the longest-path depth: a component past level 0 has an input one level up
        for group in groups:
            inputs = [j for j, v in zip(source, consumer) if v in group and j not in group]
            assert max((level_of[j] + 1 for j in inputs), default=0) == d
    assert sorted(level_of) == list(range(net.node_count))
    assert sorted(edges) == list(range(net.edge_count))


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(1, 6),
    edges=st.lists(
        st.tuples(st.integers(-1, 8), st.integers(-1, 8)) | st.tuples(st.integers(1, 6), st.integers(1, 6)),
        max_size=14,
    ),
    huge=st.sampled_from([None, 2**63 - 1, 2**63, -(2**70)]),
    form=st.sampled_from(["tuples", "lists", "array", "generator"]),
)
def test_constructor_matches_per_edge_checks(k, edges, huge, form):
    # out-of-range ids, self-loops and repeats: the same first fault and
    # message as the per-edge loop, or the same sorted edges
    if huge is not None and edges:
        edges[len(edges) // 2] = (edges[len(edges) // 2][0], huge)
    if form == "array":
        if huge is not None and abs(huge) >= 2**63:
            return  # not an int64 array
        given = np.array(edges, dtype=np.int64).reshape(-1, 2)
    elif form == "lists":
        given = [list(e) for e in edges]
    elif form == "generator":
        given = (e for e in edges)
    else:
        given = edges
    expected = _outcome(lambda: canonical_edges(k, edges))
    assert _outcome(lambda: ProductionNetwork(k, given).edges) == expected


def test_constructor_takes_an_empty_integer_array_as_no_edges():
    assert ProductionNetwork(3, np.array([], dtype=np.int64)) == ProductionNetwork(3, [])


def test_constructor_refuses_what_is_not_pairs():
    for edges in ([(1, 2, 3)], [(1,)], [()], [("a", "b")], [(None, 1)], np.zeros((2, 3), dtype=int), 5):
        with pytest.raises(ValidationError, match="pairs"):
            ProductionNetwork(3, edges)


@settings(max_examples=100, deadline=None)
@given(net=small_networks())
def test_csr_accessors_match_the_edges(net):
    k = net.node_count
    for v in range(1, k + 1):
        assert net.successors(v) == tuple(i for j, i in net.edges if j == v)
        assert net.predecessors(v) == tuple(j for j, i in net.edges if i == v)
        assert net.in_degree(v) == len(net.predecessors(v))
        assert net.out_degree(v) == len(net.successors(v))
    assert net.sources() == [v for v in range(1, k + 1) if not net.predecessors(v)]
    assert net.max_in_degree == max(net.in_degree(v) for v in range(1, k + 1))
    rebuilt = ProductionNetwork(k, np.array(net.edges, dtype=np.int64).reshape(-1, 2))
    assert net == rebuilt and hash(net) == hash(rebuilt)
    assert reverse_graph(net).edges == tuple(sorted((i, j) for j, i in net.edges))
    src, dst = net.edge_arrays()
    with pytest.raises(ValueError):
        src[:1] = 0  # shared and read-only


@settings(max_examples=200, deadline=None)
@given(net=small_networks())
def test_strong_components_are_the_mutual_reachability_classes(net):
    reach = net.reachability()
    comps = net.strong_components()
    assert sorted(v for c in comps for v in c) == list(range(net.node_count))
    position = {v: n for n, c in enumerate(comps) for v in c}
    for c in comps:
        assert list(c) == sorted(c)
        assert all(reach[a, b] and reach[b, a] for a in c for b in c)
    for j, i in net.edges:
        assert position[j - 1] <= position[i - 1]
        if position[j - 1] < position[i - 1]:
            assert not reach[i - 1, j - 1]
    assert net.acyclic == all(len(c) == 1 for c in comps)


def test_hash_follows_equality_without_building_edge_tuples():
    edges = [(3, 1), (1, 2), (2, 4)]
    net = ProductionNetwork(4, edges)
    same = ProductionNetwork(4, np.array(edges[::-1]), tiers={1: 0, 2: 1, 3: 0, 4: 2})  # tiers stay out
    assert hash(net) == hash(same) and len({net, same, ProductionNetwork(4, edges)}) == 2
    assert "edges" not in net._cache


DESCENDING = {
    "backward-tree-2-5": generate_backward_tree(2, 5),
    "backward-tree-3-4": generate_backward_tree(3, 4),
    "descending-chain": ProductionNetwork(6, [(i + 1, i) for i in range(1, 6)]),
}


@pytest.mark.parametrize("net", DESCENDING.values(), ids=DESCENDING.keys())
def test_descending_ids_plan_as_kahns_order_does(net):
    # ids that descend along every edge are kept reversed as the order, without Kahn's pass;
    # a copy that keeps the oracle's Kahn order instead must plan the same levels
    assert net._cache["topological_order"].tolist() == list(range(net.node_count))[::-1]
    kahn = ProductionNetwork(net.node_count, np.column_stack(net.edge_arrays()) + 1)
    kahn._cache["topological_order"] = np.array(_kahn_order(kahn)) - 1
    for reverse in (False, True):
        plans = net.level_plan(reverse), kahn.level_plan(reverse)
        assert len(plans[0]) == len(plans[1])
        for level, expected in zip(*plans):
            for field, value in level._asdict().items():
                other = getattr(expected, field)
                assert (value == other if isinstance(value, tuple) else np.array_equal(value, other)), field
    assert topological_order(net) == topological_order(kahn)
