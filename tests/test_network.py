import numpy as np
import pytest

from prodnet import (
    CyclicGraphError,
    ParameterError,
    ProductionNetwork,
    ValidationError,
    generate_rdag,
    reverse_graph,
    topological_order,
)


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


def test_acyclic_claim_verified():
    with pytest.raises(ValidationError):
        ProductionNetwork(2, [(1, 2), (2, 1)], acyclic=True)
    net = ProductionNetwork(2, [(1, 2), (2, 1)])
    assert not net.acyclic


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


def test_input_csr_lists_inputs_per_product():
    net = ProductionNetwork(4, [(3, 1), (1, 2), (4, 2), (2, 3), (1, 4)])
    in_edges, in_src, starts = net.input_csr()
    src, dst = net.edge_arrays()
    for v in range(4):
        span = slice(starts[v], starts[v + 1])
        assert (in_src[span] + 1).tolist() == list(net.predecessors(v + 1))
        assert np.all(dst[in_edges[span]] == v) and np.all(src[in_edges[span]] == in_src[span])
    assert net.input_csr() is net.input_csr()
