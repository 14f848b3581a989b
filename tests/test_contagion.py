import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodnet import (
    BetaVector,
    ConvergenceError,
    CyclicGraphError,
    ParameterError,
    PreconditionError,
    ProductionNetwork,
    dag_beta,
    dag_resilience_lb,
    dag_sparse_bound,
    evaluate_intervention,
    fixed_point_beta,
    generate_backward_tree,
    generate_parallel,
    generate_rdag,
    katz_beta,
    katz_centrality,
    optimal_protection,
    resilience_lb_katz,
    vulnerability_ranking,
)
from prodnet import contagion
from prodnet.contagion import _contract, _ranking

from oracles import brute_force_stats, exact_cascade_stats


def chain(k):
    return ProductionNetwork(k, [(i, i + 1) for i in range(1, k)])


def test_dag_beta_single_node():
    net = ProductionNetwork(1, [])
    assert dag_beta(net, 0.3, 0.5, 2).beta[0] == pytest.approx(0.09)


def test_dag_beta_edge_recursion():
    net = ProductionNetwork(2, [(1, 2)])
    beta = dag_beta(net, 0.5, 0.5, 1).beta
    assert beta.tolist() == pytest.approx([0.5, 0.75])


def test_dag_beta_caps_at_one():
    net = chain(12)
    beta = dag_beta(net, 0.9, 1.0, 1).beta
    assert beta.max() == 1.0 and np.all(beta <= 1.0)


def test_dag_beta_rejects_cycles():
    net = ProductionNetwork(2, [(1, 2), (2, 1)])
    with pytest.raises(CyclicGraphError):
        dag_beta(net, 0.5, 0.5, 1)


def test_dag_beta_dominates_exact_probabilities():
    for seed in range(20):
        net = generate_rdag(6, 0.4, seed=seed)
        for x, y in [(0.2, 0.15), (0.5, 1.0 / max(net.max_out_degree, 1))]:
            stats = exact_cascade_stats(net, x, y, 1)
            bv = dag_beta(net, x, y, 1)
            assert np.all(bv.beta >= stats.node_fail - 1e-12)
            assert bv.total() >= stats.mean_f - 1e-12


def test_dag_beta_dominates_supplier_edge_enumeration():
    # same soundness claim against the full 2^(K+|E|) enumeration route
    net = generate_rdag(5, 0.4, seed=8)
    stats = brute_force_stats(net, 0.3, 0.5, 1)
    bv = dag_beta(net, 0.3, 0.5, 1)
    assert np.all(bv.beta >= stats.node_fail - 1e-12)
    assert bv.total() >= stats.mean_f - 1e-12


def test_fixed_point_empty_graph():
    net = ProductionNetwork(4, [])
    bv = fixed_point_beta(net, 0.4, 0.3, 2)
    assert np.allclose(bv.beta, 0.4**2)


def test_fixed_point_matches_dag_beta():
    for seed in range(25):
        net = generate_rdag(8, 0.35, seed=seed)
        delta = max(net.max_out_degree, 1)
        bv_fp = fixed_point_beta(net, 0.3, 1.0 / delta, 1)
        bv_dag = dag_beta(net, 0.3, 1.0 / delta, 1)
        assert np.max(np.abs(bv_fp.beta - bv_dag.beta)) < 1e-9


def test_fixed_point_two_cycle():
    net = ProductionNetwork(2, [(1, 2), (2, 1)])
    bv = fixed_point_beta(net, 0.2, 0.5, 1)
    assert np.allclose(bv.beta, 0.4, atol=1e-10)  # solves b = 0.5 b + x


def test_fixed_point_stops_at_max_iter(monkeypatch):
    net = ProductionNetwork(2, [(1, 2), (2, 1)])  # halves its distance to 0.4 per step
    monkeypatch.setattr(contagion, "FIXED_POINT_MAX_ITER", 2)
    with pytest.raises(ConvergenceError, match="within 2 iterations") as info:
        fixed_point_beta(net, 0.2, 0.5, 1)
    assert 0.0 < info.value.residual < math.inf


def test_fixed_point_threshold_enforced():
    net = ProductionNetwork(3, [(1, 2), (1, 3)])  # Delta = 2
    with pytest.raises(PreconditionError):
        fixed_point_beta(net, 0.2, 0.9, 1)


def test_fixed_point_iterates_monotone():
    net = generate_rdag(10, 0.4, seed=3)
    delta = max(net.max_out_degree, 1)
    beta = np.ones(10)
    for _ in range(30):
        nxt = _contract(net, beta, 1.0 / delta, np.full(10, 0.3))
        assert np.all(nxt <= beta + 1e-15)
        beta = nxt


def test_fixed_point_metadata():
    net = chain(5)
    bv = fixed_point_beta(net, 0.3, 0.4, 1)
    assert bv.iterations >= 1 and bv.residual < 1e-12


def test_katz_empty_graph():
    net = ProductionNetwork(3, [])
    assert np.allclose(katz_centrality(net, 0.5), 1.0)


def test_katz_edge():
    net = ProductionNetwork(2, [(1, 2)])
    assert katz_centrality(net, 0.5).tolist() == pytest.approx([1.0, 1.5])


def test_katz_chain_forward_substitution():
    net = chain(3)
    assert katz_centrality(net, 0.25).tolist() == pytest.approx([1.0, 1.25, 1.3125])


def test_katz_requires_spectral_condition():
    net = ProductionNetwork(3, [(1, 2), (1, 3)])
    with pytest.raises(PreconditionError):
        katz_centrality(net, 0.5)


def test_y_at_one_over_delta_exactly():
    # the fixed point takes y <= 1/Delta; Katz solves and planning need y < their limit
    out_star = ProductionNetwork(3, [(1, 2), (1, 3)])  # Delta = 2, Delta_R = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fixed_point_beta(out_star, 0.1, 0.5).method == "fixed-point"
    for refused in (
        lambda: katz_centrality(out_star, 0.5),
        lambda: katz_beta(out_star, 0.1, 0.5),
        lambda: resilience_lb_katz(out_star, 0.5, 0.2),
        lambda: optimal_protection(out_star, 1, 0.5),
    ):
        with pytest.raises(PreconditionError, match=r"needs? y < 1/"):
            refused()
    in_star = ProductionNetwork(3, [(2, 1), (3, 1)])  # Delta = 1, Delta_R = 2: planning's limit is 0.5
    assert katz_centrality(in_star, 0.6).tolist() == pytest.approx([2.2, 1.0, 1.0])
    with pytest.raises(PreconditionError, match=r"1/max\(Delta, Delta_R\) = 0\.5, got y = 0\.6"):
        optimal_protection(in_star, 1, 0.6)


OUT_STAR = ProductionNetwork(3, [(1, 2), (1, 3)])  # Delta = 2, Delta_R = 1

# each entry point at the first y its rule refuses on OUT_STAR, whose limits are all 0.5
Y_GATE_CASES = {
    "fixed_point_beta": (
        lambda: fixed_point_beta(OUT_STAR, 0.1, math.nextafter(0.5, 1.0)),
        r"fixed_point_beta needs y <= 1/Delta = 0\.5, got y = 0\.5 \(Delta = 2\)",
    ),
    "katz_centrality": (
        lambda: katz_centrality(OUT_STAR, 0.5),
        r"katz_centrality needs y < 1/Delta = 0\.5, got y = 0\.5 \(Delta = 2\)",
    ),
    "katz_beta": (
        lambda: katz_beta(OUT_STAR, 0.1, 0.5),
        r"katz_beta needs y < 1/Delta = 0\.5, got y = 0\.5 \(Delta = 2\)",
    ),
    "optimal_protection": (
        lambda: optimal_protection(OUT_STAR, 1, 0.5),
        r"protection planning needs y < 1/max\(Delta, Delta_R\) = 0\.5, got y = 0\.5 \(Delta = 2, Delta_R = 1\)",
    ),
}


@pytest.mark.parametrize("call, message", Y_GATE_CASES.values(), ids=Y_GATE_CASES.keys())
def test_one_y_gate_and_message(call, message):
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        call()


def test_katz_beta_agrees_with_fixed_point():
    for seed in range(25):
        net = generate_rdag(7, 0.3, seed=seed)
        delta = max(net.max_out_degree, 1)
        y = 1.0 / (2 * delta)
        x = 0.5 * (1 - y * net.max_out_degree)
        kb = katz_beta(net, x, y, 1)
        fp = fixed_point_beta(net, x, y, 1)
        assert np.max(np.abs(kb.beta - fp.beta)) < 1e-9


def test_katz_beta_x_precondition():
    net = ProductionNetwork(3, [(1, 2), (1, 3)])
    with pytest.raises(PreconditionError):
        katz_beta(net, 0.9, 0.4, 1)  # x above (1 - y Delta)^(1/n)


def sink_of_100_sources():
    # K = 101, Delta = 1, Delta_R = 100: y = 0.9 < 1/Delta and x = 0.09 < 1 - y Delta
    return ProductionNetwork(101, [(j, 101) for j in range(1, 101)]), 0.09, 0.9


def test_katz_beta_bounds_the_fixed_point_and_meets_it_below_one():
    # x^n Katz >= the fixed point entrywise, equal iff no entry exceeds 1
    net, x, y = sink_of_100_sources()
    kb, fp = katz_beta(net, x, y), fixed_point_beta(net, x, y)
    assert kb.beta[-1] == pytest.approx(8.19) and fp.beta[-1] == 1.0 == dag_beta(net, x, y).beta[-1]
    np.testing.assert_allclose(kb.beta[:-1], fp.beta[:-1], rtol=1e-12)
    # backward trees (Delta = 1) at the same x and y: the root's Katz entry
    # passes 1 from depth 4 at m = 2, and every entry stays below 1 on rdags
    nets = [generate_backward_tree(m, D) for m in (1, 2, 3) for D in range(1, 6)]
    nets += [generate_rdag(12, 0.4, seed=seed) for seed in range(10)]
    over = 0
    for net in nets:
        y = 0.9 / max(net.max_out_degree, 1)
        x = 0.9 * (1 - y * net.max_out_degree)
        kb, fp = katz_beta(net, x, y).beta, fixed_point_beta(net, x, y).beta
        assert np.all(kb >= fp - 1e-12)
        if kb.max() <= 1.0:
            np.testing.assert_allclose(kb, fp, rtol=1e-9)
        over += kb.max() > 1.0
    assert 0 < over < len(nets)


def test_evaluate_intervention_is_the_optimum_where_katz_exceeds_it():
    # katz_beta totals 17.19 here (the test above); the program optimum is 10.0
    net, x, y = sink_of_100_sources()
    total, beta = evaluate_intervention(net, np.zeros(101, dtype=bool), x, y)
    assert total == pytest.approx(10.0, rel=1e-15) and beta.tolist() == fixed_point_beta(net, x, y).beta.tolist()


def test_resilience_lb_katz_empty():
    net = ProductionNetwork(5, [])
    res = resilience_lb_katz(net, 0.3, 0.25, 1)
    assert res.value == pytest.approx(0.25 / 5)


def test_resilience_lb_katz_edge():
    net = ProductionNetwork(2, [(1, 2)])
    res = resilience_lb_katz(net, 0.5, 0.25, 1)
    assert res.value == pytest.approx(0.1)


def test_resilience_lb_katz_precondition_flag():
    # a large tolerance pushes the bound past the closed form's own x-cap;
    # the bound stays valid but the flag reports the excursion
    net = ProductionNetwork(3, [(1, 2), (1, 3)])
    res = resilience_lb_katz(net, 0.45, 0.9, 1)
    assert res.value > (1 - 0.45 * 2)
    assert not res.precondition_ok
    ok = resilience_lb_katz(net, 0.1, 0.2, 1)
    assert ok.precondition_ok


def test_resilience_lb_katz_markov_guarantee():
    # exact Pr[F >= eps K] at the returned x stays below 1/K
    for seed in range(10):
        net = generate_rdag(8, 0.3, seed=seed)
        delta = max(net.max_out_degree, 1)
        y = 1.0 / (2 * delta)
        eps = 0.4
        bound = resilience_lb_katz(net, y, eps, 1)
        stats = exact_cascade_stats(net, bound.value, y, 1)
        tail = 1.0 - stats.survival_prob(math.ceil(eps * 8))
        # Pr[F >= eps K] = Pr[S <= K - eps K]
        f_min = math.ceil(eps * 8)
        tail = stats.pmf[f_min:].sum()
        assert tail <= 1.0 / 8 + 1e-9


def test_dag_sparse_bound_values():
    assert dag_sparse_bound(10, 0.2, 0.1, 1) == pytest.approx(0.2 * math.exp(1) / 0.1)
    k = 50
    assert dag_sparse_bound(k, 0.3, 1.0 / k, 1) == pytest.approx(k * math.e * 0.3)


def test_dag_sparse_bound_beyond_float_range():
    # e^{Ky} overflows alone; the bound is taken in log space, inf only beyond float range
    assert dag_sparse_bound(700, 0.5, 1.0) == 0.5 * math.exp(700) / 1.0
    assert dag_sparse_bound(800, 1e-300, 1.0) == pytest.approx(math.exp(800 - 300 * math.log(10)))
    assert dag_sparse_bound(800, 0.5, 1.0) == math.inf


def test_dag_resilience_lb_value():
    assert dag_resilience_lb(100, 0.27, 1) == pytest.approx(0.27 / (math.e * 100))
    assert dag_resilience_lb(100, 0.27, 1) == pytest.approx(9.9327e-4, rel=1e-3)


def test_sparse_bound_dominates_lp_sum():
    for seed in range(40):
        net = generate_rdag(8, 0.5, seed=seed)
        for y in (1.0 / 8, 1.0 / 16):
            for x in (0.1, 0.5, 0.9):
                assert dag_beta(net, x, y, 1).total() <= dag_sparse_bound(8, x, y, 1) + 1e-12


def test_ranking_chain():
    net = chain(3)
    ranking = vulnerability_ranking(net, 0.2, 0.5, 1)
    assert [pid for pid, _ in ranking] == [3, 2, 1]


def test_ranking_empty_ties_by_id():
    net = ProductionNetwork(4, [])
    ranking = vulnerability_ranking(net, 0.3, 0.5, 1)
    assert [pid for pid, _ in ranking] == [1, 2, 3, 4]


def test_ranking_star_raw_last():
    net = ProductionNetwork(5, [(1, i) for i in range(2, 6)])
    ranking = vulnerability_ranking(net, 0.3, 0.2, 1)
    assert ranking[-1][0] == 1
    assert ranking[-1][1] == pytest.approx(0.3)


def test_ranking_sources_minimal():
    for seed in range(10):
        net = generate_parallel(5, 2, 3, seed=seed)
        ranking = dict(vulnerability_ranking(net, 0.25, 0.3, 1))
        source_beta = {v: ranking[v] for v in net.sources()}
        assert all(b == pytest.approx(0.25) for b in source_beta.values())
        assert min(ranking.values()) == pytest.approx(0.25)


def test_ranking_cyclic_uses_fixed_point():
    net = ProductionNetwork(3, [(1, 2), (2, 3), (3, 1)])
    ranking = vulnerability_ranking(net, 0.1, 0.5, 1)
    # symmetric cycle: all equal, ties broken by id
    assert [pid for pid, _ in ranking] == [1, 2, 3]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1.0), max_size=30))
def test_ranking_matches_sorted_reference(betas):
    # reference: Python's sorted by (-beta, id), which the stable argsort must reproduce
    bv = BetaVector(np.array(betas, dtype=np.float64), method="dag-linear")
    order = sorted(range(1, len(betas) + 1), key=lambda i: (-bv.beta[i - 1], i))
    assert _ranking(bv) == [(i, float(bv.beta[i - 1])) for i in order]


def test_parameter_validation():
    net = chain(3)
    with pytest.raises(ParameterError):
        dag_beta(net, 1.2, 0.5, 1)
    with pytest.raises(ParameterError):
        dag_beta(net, 0.5, 0.5, 0)
    with pytest.raises(ParameterError):
        dag_sparse_bound(10, 0.2, 0.0, 1)
