import itertools
import warnings

import numpy as np
import pytest

from prodnet import (
    ParameterError,
    PreconditionError,
    ProductionNetwork,
    dag_beta,
    evaluate_intervention,
    fixed_point_beta,
    generate_rdag,
    katz_beta,
    katz_centrality,
    optimal_protection,
    post_intervention_resilience_lb,
    resilience_lb_katz,
    reverse_graph,
    supplier_allocation,
)
from prodnet.contagion import _dag_pass

from oracles import dag_beta_pass


def chain(k):
    return ProductionNetwork(k, [(i, i + 1) for i in range(1, k)])


def test_protection_zero_budget():
    net = chain(4)
    plan = optimal_protection(net, 0, 0.2)
    assert plan.protected_ids() == []
    assert plan.unprotected_mass == pytest.approx(plan.reverse_katz.sum())


def test_protection_full_budget_zero_objective():
    net = chain(4)
    plan = optimal_protection(net, 4, 0.2)
    assert plan.unprotected_mass == pytest.approx(0.0)
    assert plan.objective(0.5, 1) == pytest.approx(0.0)
    assert post_intervention_resilience_lb(net, plan, 0.3, 1) == 1.0


def test_protection_edge_case_two_node():
    # reverse Katz (1.25, 1.0): protect the supplying product first
    net = ProductionNetwork(2, [(1, 2)])
    plan = optimal_protection(net, 1, 0.25)
    assert plan.protected_ids() == [1]
    assert plan.reverse_katz.tolist() == pytest.approx([1.25, 1.0])
    # matches exhaustion over both single-protection choices
    objs = {}
    for pid in (1, 2):
        t = np.zeros(2, dtype=bool)
        t[pid - 1] = True
        objs[pid], _ = evaluate_intervention(net, t, 0.3, 0.25, 1)
    assert min(objs, key=objs.get) == 1
    assert plan.objective(0.3, 1) == pytest.approx(objs[1], abs=1e-12)


def test_protection_matches_exhaustive_search():
    for seed in range(12):
        net = generate_rdag(7, 0.3, seed=seed)
        delta = max(net.max_out_degree, net.max_in_degree, 1)
        y = 1.0 / (2 * delta)
        x = 0.4 * (1 - y * delta)
        for budget in (1, 2):
            plan = optimal_protection(net, budget, y)
            best = min(
                evaluate_intervention(net, _mask(7, subset), x, y, 1)[0]
                for subset in itertools.combinations(range(7), budget)
            )
            assert plan.objective(x, 1) == pytest.approx(best, abs=1e-9)


def _mask(k, subset):
    t = np.zeros(k, dtype=bool)
    for i in subset:
        t[i] = True
    return t


def test_budget_monotonicity():
    net = generate_rdag(9, 0.25, seed=4)
    delta = max(net.max_out_degree, net.max_in_degree, 1)
    y = 1.0 / (2 * delta)
    objs, lbs = [], []
    for budget in range(10):
        plan = optimal_protection(net, budget, y)
        objs.append(plan.objective(0.2, 1))
        lbs.append(post_intervention_resilience_lb(net, plan, 0.3, 1))
    assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(lbs, lbs[1:]))


def test_transpose_total_identity():
    for seed in range(10):
        net = generate_rdag(8, 0.35, seed=seed)
        delta = max(net.max_out_degree, net.max_in_degree, 1)
        y = 1.0 / (2 * delta)
        forward = katz_centrality(net, y).sum()
        backward = katz_centrality(reverse_graph(net), y).sum()
        assert forward == pytest.approx(backward, rel=1e-12)


def test_post_intervention_lb_at_zero_matches_katz_lb():
    net = generate_rdag(8, 0.3, seed=2)
    delta = max(net.max_out_degree, net.max_in_degree, 1)
    y = 1.0 / (2 * delta)
    plan = optimal_protection(net, 0, y)
    lb = post_intervention_resilience_lb(net, plan, 0.25, 1)
    assert lb == pytest.approx(resilience_lb_katz(net, y, 0.25, 1).value, rel=1e-12)


def test_evaluate_intervention_all_protected():
    net = chain(3)
    obj, beta = evaluate_intervention(net, np.ones(3, dtype=bool), 0.2, 0.25, 1)
    assert obj == pytest.approx(0.0)
    assert np.allclose(beta, 0.0)


def test_evaluate_intervention_none_equals_katz_beta():
    net = chain(3)
    obj, beta = evaluate_intervention(net, np.zeros(3, dtype=bool), 0.2, 0.25, 1)
    assert np.allclose(beta, katz_beta(net, 0.2, 0.25, 1).beta)


def test_evaluate_intervention_hand_solve():
    # chain of 3, middle protected: beta = (0.2, 0.05, 0.2125)
    net = chain(3)
    t = np.array([False, True, False])
    obj, beta = evaluate_intervention(net, t, 0.2, 0.25, 1)
    assert beta.tolist() == pytest.approx([0.2, 0.05, 0.2125])
    assert obj == pytest.approx(0.4625)


def test_evaluate_intervention_accepts_bools_and_zero_one_ints():
    net = chain(3)
    expected = evaluate_intervention(net, np.array([False, True, False]), 0.2, 0.25)[0]
    for t in ([0, 1, 0], [False, True, False], np.array([0, 1, 0]), [np.int64(0), np.True_, 0]):
        assert evaluate_intervention(net, t, 0.2, 0.25)[0] == expected


def test_evaluate_intervention_does_not_warn_at_one_over_delta():
    # y = 1/Delta on a DAG: no warning, the DAG pass's optimum
    net = ProductionNetwork(2, [(1, 2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        obj, beta = evaluate_intervention(net, np.zeros(2, dtype=bool), 0.9, 1.0, 1)
    assert beta.tolist() == dag_beta(net, 0.9, 1.0).beta.tolist() == [0.9, 1.0]


def test_evaluate_intervention_takes_a_dag_above_one_over_delta_and_refuses_a_cycle():
    # no route warns: a DAG takes y above 1/Delta, and a cyclic network above 1/Delta raises
    out_star = ProductionNetwork(3, [(1, 2), (1, 3)])  # Delta = 2
    cyclic = ProductionNetwork(3, [(1, 2), (2, 1), (1, 3)])  # Delta = 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        obj, beta = evaluate_intervention(out_star, [0, 1, 0], 0.1, 0.9)
        with pytest.raises(PreconditionError, match=r"needs y <= 1/Delta = 0\.5, got y = 0\.9"):
            evaluate_intervention(cyclic, [0, 1, 0], 0.1, 0.9)
    np.testing.assert_allclose(beta, dag_beta(out_star, 0.1, 0.9).beta - [0.0, 0.1, 0.0], rtol=1e-15)
    assert obj == float(beta.sum())


def test_evaluate_intervention_is_the_program_optimum():
    # random networks and protection sets: the betas are _dag_pass's on a DAG
    # and the fixed point's otherwise, each with the protected terms zeroed
    rng = np.random.default_rng(33)
    cyclic = 0
    for trial in range(120):
        k = int(rng.integers(2, 13))
        acyclic_draw = trial % 2 == 0
        pairs = rng.integers(1, k + 1, size=(2 * k, 2))
        net = ProductionNetwork(k, {(int(j), int(i)) for j, i in pairs if j < i or (j > i and not acyclic_draw)})
        x, n = float(rng.random()), int(rng.integers(1, 3))
        t = rng.random(k) < 0.3
        rhs = x**n * (~t).astype(np.float64)
        delta = max(net.max_out_degree, 1)
        cyclic += not net.acyclic
        for y in [0.5 / delta, 1.0 / delta] + ([0.9] if net.acyclic else []):
            total, beta = evaluate_intervention(net, t, x, y, n)
            if net.acyclic:
                ref = _dag_pass(net, y, rhs).beta
                if not t.any():
                    np.testing.assert_array_equal(beta, dag_beta_pass(net, x, y, n))
            else:
                ref = fixed_point_beta(net, x, y, n, spontaneous=rhs).beta
            np.testing.assert_array_equal(beta, ref)
            assert abs(total - float(ref.sum())) <= 1e-12 * k
    assert 40 < cyclic < 80


@pytest.mark.parametrize("y", [-0.5, 1.5, float("nan")])
def test_evaluate_intervention_rejects_y_outside_unit_interval(y):
    # y = -0.5 used to return a damage of 0.225, below the 0.3 of no propagation
    with pytest.raises(ParameterError):
        evaluate_intervention(chain(3), np.zeros(3, dtype=bool), 0.1, y)


def test_protection_spectral_precondition():
    net = ProductionNetwork(3, [(1, 2), (1, 3)])  # Delta = 2
    with pytest.raises(PreconditionError):
        optimal_protection(net, 1, 0.6)
    with pytest.raises(ParameterError):
        optimal_protection(net, 5, 0.1)


def test_allocation_zero_budget():
    net = chain(4)
    alloc = supplier_allocation(net, 0.2, 1, [2, 2, 2, 2], 0)
    assert alloc.extra.tolist() == [0, 0, 0, 0]


def test_allocation_slack_budget():
    net = chain(4)
    alloc = supplier_allocation(net, 0.2, 1, [2, 1, 0, 3], 99)
    assert alloc.extra.tolist() == [2, 1, 0, 3]


def test_allocation_takes_integer_arrays_whole():
    # integer arrays in [0, INT64_MAX] skip the per-entry check; everything
    # else still meets it and is refused by its index
    net = generate_rdag(30, 0.2, seed=3)
    caps = [int(c) for c in np.random.default_rng(2).integers(0, 4, 30)]
    want = supplier_allocation(net, 0.1, 1, caps, 25)
    for dtype in (np.int32, np.uint64, np.int8):
        got = supplier_allocation(net, 0.1, 1, np.array(caps, dtype=dtype), 25)
        assert got.extra.tolist() == want.extra.tolist() and got.order == want.order
        assert got.caps.dtype == np.int64 and got.caps.tolist() == caps
    huge = np.array([1, 2**63, 1], dtype=np.uint64)
    with pytest.raises(ParameterError, match=rf"^caps\[1\] must be at most {2**63 - 1}, got {2**63}$"):
        supplier_allocation(chain(3), 0.2, 1, huge, 2)
    with pytest.raises(ParameterError, match=r"^caps\[0\] must be "):
        supplier_allocation(chain(3), 0.2, 1, np.array([True, False, True]), 2)
    with pytest.raises(ParameterError, match=r"^caps\[2\] must be "):
        supplier_allocation(chain(3), 0.2, 1, np.array([1, 0, -1], dtype=np.int64), 2)


def test_allocation_greedy_prefix_trace():
    # reverse-Katz order on the chain is (1, 2, 3, 4); budget 3 fills 2+1
    net = chain(4)
    alloc = supplier_allocation(net, 0.2, 1, [2, 2, 2, 2], 3)
    assert alloc.order == [1, 2, 3, 4]
    assert alloc.extra.tolist() == [2, 1, 0, 0]


def test_allocation_prefix_structure():
    for seed in range(10):
        net = generate_rdag(6, 0.3, seed=seed)
        delta = max(net.max_out_degree, net.max_in_degree, 1)
        caps = np.array([2, 1, 3, 2, 1, 2])
        alloc = supplier_allocation(net, 1.0 / (2 * delta), 1, caps, 5)
        assert alloc.extra.sum() <= 5
        assert np.all(alloc.extra <= caps)
        # positive allocations form a prefix of the ordering, one partial fill
        extras_in_order = [alloc.extra[i - 1] for i in alloc.order]
        caps_in_order = [caps[i - 1] for i in alloc.order]
        seen_partial = False
        for give, cap in zip(extras_in_order, caps_in_order):
            if seen_partial:
                assert give == 0
            elif give < cap:
                seen_partial = True


def test_allocation_unit_caps_exhaustively_optimal():
    # with unit caps the prefix fill is the true optimum for any x
    for seed in range(8):
        net = generate_rdag(6, 0.3, seed=seed)
        delta = max(net.max_out_degree, net.max_in_degree, 1)
        y = 1.0 / (2 * delta)
        caps = np.ones(6, dtype=np.int64)
        alloc = supplier_allocation(net, y, 1, caps, 3)
        for x in (0.2, 0.5, 0.8):
            best = min(
                float(np.sum(alloc.reverse_katz * np.power(x, _mask(6, sub).astype(float))))
                for sub in itertools.combinations(range(6), 3)
            )
            assert alloc.objective(x) == pytest.approx(best, abs=1e-12)


def test_allocation_validation():
    net = chain(3)
    with pytest.raises(ParameterError):
        supplier_allocation(net, 0.2, 1, [1, 1], 2)
    with pytest.raises(ParameterError):
        supplier_allocation(net, 0.2, 1, [1, -1, 1], 2)
    with pytest.raises(ParameterError):
        supplier_allocation(net, 0.2, 0, [1, 1, 1], 2)
