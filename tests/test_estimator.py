import math

import numpy as np
import pytest

from prodnet import (
    ParameterError,
    ProductionNetwork,
    estimate_resilience,
    estimate_resilience_ensemble,
    estimate_survival_prob,
    generate_rdag,
    resilience_curve,
)

from prodnet.estimator import _s_min, _survival_levels

from oracles import exact_resilience, exact_survival_prob


def chain(k):
    return ProductionNetwork(k, [(i, i + 1) for i in range(1, k)])


def test_survival_prob_trivial_levels():
    net = chain(5)
    p, se = estimate_survival_prob(net, 0.0, 1, 0.4, trials=500, seed=1)
    assert p == 1.0 and se == 0.0
    p, _ = estimate_survival_prob(net, 1.0, 1, 0.5, trials=500, seed=1)
    assert p == 0.0


def test_survival_prob_matches_exhaustive():
    net = chain(4)
    exact = exact_survival_prob(net, 0.3, 1, s_min=math.ceil(0.5 * 4))
    p, _ = estimate_survival_prob(net, 0.3, 1, 0.5, trials=40_000, seed=2)
    se = math.sqrt(exact * (1 - exact) / 40_000)
    assert abs(p - exact) < 3 * se


def test_survival_prob_nonincreasing_in_x_coupled():
    net = generate_rdag(9, 0.3, seed=3)
    estimates = [
        estimate_survival_prob(net, x, 1, 0.4, trials=2000, seed=9)[0]
        for x in np.linspace(0.0, 1.0, 21)
    ]
    assert all(a >= b for a, b in zip(estimates, estimates[1:]))


def test_single_node_resilience_near_one():
    net = ProductionNetwork(1, [])
    r = estimate_resilience(net, 0.5, n=1, trials=200, seed=4)
    assert r == 1.0  # threshold 1 - 1/K = 0 qualifies the whole grid


def test_resilience_matches_exact_on_chain():
    net = chain(8)
    exact = exact_resilience(net, 0.25, n=1)
    est = estimate_resilience(net, 0.25, n=1, trials=100_000, seed=5)
    # r_hat is exact on the draws, so only seeded Monte Carlo boundary noise remains
    assert abs(est - exact) <= 0.01 / 8


def test_resilience_nondecreasing_in_n():
    net = chain(5)
    r1 = estimate_resilience(net, 0.4, n=1, trials=4000, seed=6)
    r2 = estimate_resilience(net, 0.4, n=2, trials=4000, seed=6)
    assert r2 >= r1
    assert exact_resilience(net, 0.4, n=2) >= exact_resilience(net, 0.4, n=1)


def test_curve_monotone_in_eps_exact():
    net = generate_rdag(10, 0.25, seed=7)
    curve = resilience_curve(net, n=1, trials=1500, seed=7)
    assert np.all(np.diff(curve.r_hat) >= 0)


def test_curve_single_point_auc():
    net = chain(4)
    curve = resilience_curve(net, epsilon_grid=[0.3], n=1, trials=1000, seed=8)
    assert curve.auc == pytest.approx(curve.r_hat[0])


def test_curve_single_node_auc_near_one():
    net = ProductionNetwork(1, [])
    curve = resilience_curve(net, n=1, trials=300, seed=9)
    assert np.all(curve.r_hat == 1.0)
    assert curve.auc == pytest.approx(1.0)


def test_auc_matches_exhaustive_small_network():
    net = chain(6)
    eps_grid = [0.1, 0.25, 0.4, 0.55, 0.7, 0.85]
    curve = resilience_curve(net, epsilon_grid=eps_grid, n=1, trials=6000, seed=10)
    exact_vals = np.array([exact_resilience(net, e, n=1) for e in eps_grid])
    xs = np.concatenate(([0.0], eps_grid, [1.0]))
    ys = np.concatenate(([exact_vals[0]], exact_vals, [exact_vals[-1]]))
    exact_auc = np.trapezoid(ys, xs)
    assert abs(curve.auc - exact_auc) < 0.03


def test_grid_validation():
    net = chain(3)
    with pytest.raises(ParameterError):
        resilience_curve(net, epsilon_grid=[0.5, 0.4], trials=10)
    with pytest.raises(ParameterError):
        resilience_curve(net, epsilon_grid=[], trials=10)
    with pytest.raises(ParameterError):
        estimate_resilience(net, 1.5, trials=10)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_estimators_reject_bad_seeds(seed):
    # a negative seed used to escape as numpy's bare ValueError and 1.5 ran as seed 1
    net = chain(3)
    with pytest.raises(ParameterError):
        resilience_curve(net, trials=10, seed=seed)
    with pytest.raises(ParameterError):
        estimate_resilience(net, 0.5, trials=10, seed=seed)
    with pytest.raises(ParameterError):
        estimate_survival_prob(net, 0.3, 1, 0.5, trials=10, seed=seed)
    with pytest.raises(ParameterError):
        estimate_resilience_ensemble([net, net], 0.5, trials=10, seed=seed)


def test_curve_provenance_fields():
    net = chain(3)
    curve = resilience_curve(net, epsilon_grid=[0.2, 0.5], n=2, trials=50, seed=17)
    assert curve.trials == 50 and curve.seed == 17 and curve.n == 2
    assert len(curve.stderr) == 2 and np.all(curve.stderr >= 0)


def test_estimator_consistent_with_run_batch():
    # the estimator's trial bank replays exactly the batch draws at y=1
    from prodnet import PercolationConfig, run_batch

    net = generate_rdag(9, 0.3, seed=13)
    batch = run_batch(net, PercolationConfig(x=0.45, n=2, seed=21), 400)
    p_from_batch = float((batch.S >= 5).mean())
    p_hat, _ = estimate_survival_prob(net, 0.45, 2, 1.0 - 5.0 / 9.0 + 1e-12, trials=400, seed=21)
    assert p_hat == pytest.approx(p_from_batch, abs=1e-12)


@pytest.mark.parametrize(
    "net",
    [generate_rdag(12, 0.3, seed=5), ProductionNetwork(6, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6)])],
    ids=["acyclic", "cyclic"],
)
def test_survival_prob_equals_the_curves_order_statistics(net):
    # counting a batch's trials with s_min survivors at x gives the share of u_t >= x
    for n in (1, 2):
        for eps in (0.1, 0.4, 0.8):
            levels = _survival_levels(net, n, 300, 7, [_s_min(eps, net.node_count)])[0]
            for x in (0.0, 0.1, 0.35, 0.6, 1.0, *levels[::50].tolist()):
                p_hat, se = estimate_survival_prob(net, x, n, eps, trials=300, seed=7)
                assert p_hat == np.count_nonzero(levels >= x) / 300
                assert se == math.sqrt(p_hat * (1.0 - p_hat) / 300)


def test_curve_entries_match_single_estimates():
    net = generate_rdag(8, 0.3, seed=14)
    eps_grid = [0.2, 0.5, 0.8]
    curve = resilience_curve(net, epsilon_grid=eps_grid, n=1, trials=600, seed=3)
    for e, r in zip(eps_grid, curve.r_hat):
        assert estimate_resilience(net, e, n=1, trials=600, seed=3) == pytest.approx(
            r, abs=1e-15
        )


def test_curve_on_cyclic_network():
    # input-output-table networks can be cyclic; the threshold kernel takes
    # the minimum over each strongly connected component
    edges = [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)]
    net = ProductionNetwork(5, edges)
    assert not net.acyclic
    curve = resilience_curve(net, epsilon_grid=[0.2, 0.5, 0.8], n=1, trials=500, seed=4)
    assert np.all(np.diff(curve.r_hat) >= 0)
    assert 0.0 <= curve.auc <= 1.0


def test_ensemble_mode():
    nets = [generate_rdag(8, 0.2, seed=s) for s in range(5)]
    mean, se, values = estimate_resilience_ensemble(
        nets, 0.3, n=1, trials=800, seed=12
    )
    assert len(values) == 5
    assert mean == pytest.approx(values.mean())
    assert se >= 0
