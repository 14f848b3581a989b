"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 10 needs the external network datasets and is skipped
(not failed) when they are absent; every other criterion runs
self-contained.  Criterion 8's supplier-allocation half is a documented
expected failure: the prescribed prefix-fill policy is not optimal for
its own objective on general caps (see test docstring).
"""

import itertools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import prodnet as pn
from oracles import (
    brute_force_stats,
    exact_cascade_stats,
    exact_seeded_cascade_pmf,
    grid_gw_lower,
    grid_gw_upper,
    mc_seeded_cascade,
)

TRIALS = 100_000


def _report(criterion: str, status: str, detail: str):
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")


def _chain(k):
    return pn.ProductionNetwork(k, [(i, i + 1) for i in range(1, k)])


def _star(k):
    return pn.ProductionNetwork(k, [(1, i) for i in range(2, k + 1)])


def _test_networks():
    return {
        "chain6": _chain(6),
        "star7": _star(7),
        "binary_tree_D3": pn.generate_backward_tree(2, 3),
        "parallel_3_2_2": pn.generate_parallel(3, 2, 2, seed=0),
        "rdag8": pn.generate_rdag(8, 0.3, seed=5),
        "rdag10": pn.generate_rdag(10, 0.25, seed=17),
    }


def test_criterion_1_exact_oracle_simulator_equivalence():
    started = time.monotonic()
    checks = 0
    for name, net in _test_networks().items():
        k = net.node_count
        for n in (1, 2):
            x = 0.35
            stats = brute_force_stats(net, x, 1.0, n)
            batch = pn.run_batch(net, pn.PercolationConfig(x=x, n=n, seed=101), TRIALS)
            se_mean = math.sqrt(stats.var_f / TRIALS)
            assert abs(batch.F.mean() - stats.mean_f) < 3 * se_mean, (name, n)
            for s_min in (math.ceil(k / 2), k):
                p_exact = stats.survival_prob(s_min)
                p_hat = float((batch.S >= s_min).mean())
                se = math.sqrt(max(p_exact * (1 - p_exact), 1e-12) / TRIALS)
                assert abs(p_hat - p_exact) < 3 * se + 1e-9, (name, n, s_min)
                checks += 1
            checks += 1
    # joint percolation on networks with at most 8 edges
    for net, y in ((_chain(5), 0.6), (pn.generate_parallel(3, 2, 2, seed=0), 0.5)):
        assert net.edge_count <= 8
        stats = brute_force_stats(net, 0.3, y, 1)
        batch = pn.run_batch(net, pn.PercolationConfig(x=0.3, y=y, n=1, seed=202), TRIALS)
        se_mean = math.sqrt(stats.var_f / TRIALS)
        assert abs(batch.F.mean() - stats.mean_f) < 3 * se_mean
        s_min = math.ceil(net.node_count / 2)
        p_exact = stats.survival_prob(s_min)
        p_hat = float((batch.S >= s_min).mean())
        se = math.sqrt(p_exact * (1 - p_exact) / TRIALS)
        assert abs(p_hat - p_exact) < 3 * se
        checks += 2
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"runtime budget exceeded: {elapsed:.1f}s"
    _report("1", "PASS", f"{checks} MC-vs-exhaustive checks within 3 SE in {elapsed:.1f}s")


def _random_dags(count, max_k=8, p=0.4):
    nets = []
    for seed in range(count):
        k = 2 + seed % (max_k - 1)
        nets.append(pn.generate_rdag(k, p, seed=seed))
    return nets


def test_criterion_2_lp_soundness():
    violations = 0
    for net in _random_dags(500):
        delta = max(net.max_out_degree, 1)
        for x in (0.1, 0.3, 0.5):
            for y in (0.1, 1.0 / delta):
                stats = exact_cascade_stats(net, x, y, 1)
                bv = pn.dag_beta(net, x, y, 1)
                if not np.all(bv.beta >= stats.node_fail - 1e-12):
                    violations += 1
                if bv.total() < stats.mean_f - 1e-12:
                    violations += 1
    assert violations == 0
    _report("2", "PASS", "beta dominates exact failure probabilities on 500 DAGs x 6 grids")


def test_criterion_3_method_agreement():
    worst = 0.0
    for seed in range(1000):
        k = 2 + seed % 7
        net = pn.generate_rdag(k, 0.35, seed=seed)
        delta = max(net.max_out_degree, 1)
        y = 1.0 / (2 * delta)
        x = 0.5 * (1.0 - y * delta)
        if x <= 0.0:
            x = 0.25
        b1 = pn.dag_beta(net, x, y, 1).beta
        b2 = pn.fixed_point_beta(net, x, y, 1).beta
        b3 = pn.katz_beta(net, x, y, 1).beta
        worst = max(worst, float(np.max(np.abs(b1 - b2))), float(np.max(np.abs(b1 - b3))))
    assert worst < 1e-9
    _report("3", "PASS", f"three routes agree on 1000 DAGs, max deviation {worst:.2e}")


def test_criterion_4_power_law_reproduction():
    started = time.monotonic()
    big_k, p, x = 100, 0.05, 0.1
    sizes = mc_seeded_cascade(big_k, p, x, 1, TRIALS, seed=7)
    emp = np.bincount(sizes, minlength=big_k + 1) / TRIALS
    formula = np.array([0.0] + [pn.powerlaw_pmf(f, big_k, p, x, 1) for f in range(1, big_k + 1)])

    # the asymptotic pmf is compared on geometric bins (the standard form
    # for power-law histograms); bins qualify when the exact finite-K
    # recurrence expects at least 100 counts, which also marks where the
    # asymptotics are meaningful (unit bins at that count carry ~10%
    # Monte Carlo noise, more than the 15% band leaves room for)
    exact = exact_seeded_cascade_pmf(big_k, p, x, 1)
    f_max = max(f for f in range(1, big_k + 1) if TRIALS * exact[f] >= 100)
    edges = [1]
    while edges[-1] <= f_max:
        edges.append(edges[-1] * 2)
    worst = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        hi = min(hi - 1, f_max)
        if lo > f_max:
            break
        assert TRIALS * exact[lo : hi + 1].sum() >= 100
        rel = abs(emp[lo : hi + 1].sum() - formula[lo : hi + 1].sum()) / formula[lo : hi + 1].sum()
        worst = max(worst, rel)
        assert rel <= 0.15, f"bin [{lo},{hi}] off by {rel:.3f}"

    c = pn.powerlaw_tail_constant(big_k, p, x, 1)
    for f in range(1, 31):
        tail = float((sizes >= f).mean())
        assert tail >= 0.8 * c / f, f"tail at {f}: {tail:.5f} < {0.8 * c / f:.5f}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.1f}s"
    _report(
        "4",
        "PASS",
        f"pmf within 15% on geometric bins up to f={f_max} (worst {worst:.3f}), "
        f"tail above 0.8 C/f, in {elapsed:.1f}s",
    )


def test_criterion_5_tree_survival_law():
    m, depth, x = 2, 4, 0.2
    net = pn.generate_backward_tree(m, depth)
    q = pn.tree_tier_survival(m, depth, x, 1)
    batch = pn.run_batch(
        net, pn.PercolationConfig(x=x, n=1, seed=55), TRIALS, keep_failures=True
    )
    survived = ~batch.failures
    for d in range(1, depth + 1):
        tier_nodes = [v - 1 for v in range(1, net.node_count + 1) if net.tiers[v] == d]
        per_trial_mean = survived[:, tier_nodes].mean(axis=1)
        est = float(per_trial_mean.mean())
        se = float(per_trial_mean.std(ddof=1) / math.sqrt(TRIALS))
        assert abs(est - q[d - 1]) < 3 * se, (d, est, q[d - 1], se)
    _report("5", "PASS", f"all {depth} tier survival rates within 3 SE of the closed form")


def test_criterion_6_gw_extinction():
    dist = pn.BranchingDistribution.poisson(2.0)
    eta = pn.gw_extinction(dist)
    assert eta == pytest.approx(0.2032, abs=1e-3)
    taus = pn.simulate_extinction_depths(dist, max_tau=1000, samples=TRIALS, seed=66)
    frequency = float((taus > 0).mean())
    assert abs(frequency - eta) < 0.01
    assert pn.gw_extinction(pn.BranchingDistribution.point(2)) == 0.0
    for sub in (
        pn.BranchingDistribution.poisson(0.8),
        pn.BranchingDistribution.binomial(5, 0.1),
        pn.BranchingDistribution.point(1),
    ):
        assert pn.gw_extinction(sub) == 1.0
    _report("6", "PASS", f"MC extinction frequency {frequency:.4f} vs fixed point {eta:.4f}")


def test_criterion_7_gw_bound_solver():
    worst = 0.0
    for mu in (0.3, 0.7, 10.0):
        eps_values = (0.1, 0.3) if mu < 1 else (0.05, 0.1)
        for tau in (1, 2, 5, 20):
            for eps in eps_values:
                for n in (1, 2):
                    xu = pn.gw_bound_upper(mu, tau, eps, n)
                    xl = pn.gw_bound_lower(mu, tau, eps, n)
                    gu = grid_gw_upper(mu, tau, eps, n)
                    gl = grid_gw_lower(mu, tau, eps, n)
                    worst = max(worst, abs(xu - gu), abs(xl - gl))
    assert worst < 1e-5

    uppers, lowers = [], []
    for mu in (0.2, 0.4, 0.6, 0.8):
        dist = pn.BranchingDistribution.binomial(4, mu / 4)
        res = pn.gw_expected_bounds(dist, 0.3, 1, max_tau=1000)
        uppers.append(res.upper)
        lowers.append(res.lower)
    assert all(a >= b for a, b in zip(uppers, uppers[1:])), uppers
    assert all(a >= b for a, b in zip(lowers, lowers[1:])), lowers
    _report(
        "7",
        "PASS",
        f"bisection matches dense grid to {worst:.1e}; subcritical sweep nonincreasing",
    )


def test_criterion_8a_protection_optimality():
    checked = 0
    for seed in range(40):
        k = 4 + seed % 5
        net = pn.generate_rdag(k, 0.35, seed=seed)
        delta = max(net.max_out_degree, net.max_in_degree, 1)
        y = 1.0 / (2 * delta)
        x = 0.4 * (1.0 - y * delta) ** 1.0
        for budget in (1, 2, 3):
            plan = pn.optimal_protection(net, budget, y)
            best = min(
                pn.evaluate_intervention(net, _subset_mask(k, sub), x, y, 1)[0]
                for sub in itertools.combinations(range(k), budget)
            )
            assert plan.objective(x, 1) == pytest.approx(best, abs=1e-9), (seed, budget)
            checked += 1
    _report("8a", "PASS", f"protection plan matches exhaustive subset search in {checked} cases")


def _subset_mask(k, subset):
    t = np.zeros(k, dtype=bool)
    for i in subset:
        t[i] = True
    return t


def test_criterion_8b_allocation_unit_caps():
    # with unit caps the prefix fill equals the exhaustive optimum
    for seed in range(10):
        net = pn.generate_rdag(6, 0.3, seed=seed)
        delta = max(net.max_out_degree, net.max_in_degree, 1)
        y = 1.0 / (2 * delta)
        alloc = pn.supplier_allocation(net, y, 1, np.ones(6, dtype=np.int64), 3)
        for x in (0.2, 0.5, 0.8):
            best = min(
                float(np.sum(alloc.reverse_katz * np.power(x, _subset_mask(6, s).astype(float))))
                for s in itertools.combinations(range(6), 3)
            )
            assert alloc.objective(x) == pytest.approx(best, abs=1e-12)
    _report("8b", "PASS", "unit-cap allocations match exhaustive search")


@pytest.mark.xfail(
    strict=True,
    reason="the prescribed prefix-fill allocation is not optimal for its own "
    "objective once caps exceed 1: spreading one extra supplier across the top "
    "products beats stacking them (counterexample: 4-chain, caps 2, budget 3, "
    "x=0.5, y=0.2). Recorded as a formula defect; the operation implements the "
    "stated policy faithfully.",
)
def test_criterion_8c_allocation_general_caps():
    instances = [(_chain(4), np.array([2, 2, 2, 2]), 3, 0.5, 0.2)]
    for seed in range(6):
        net = pn.generate_rdag(5, 0.3, seed=seed)
        delta = max(net.max_out_degree, net.max_in_degree, 1)
        instances.append((net, np.array([2, 1, 2, 1, 2]), 4, 0.5, 1.0 / (2 * delta)))
    failed = []
    for net, caps, budget, x, y in instances:
        assert int(caps.sum()) <= 12
        alloc = pn.supplier_allocation(net, y, 1, caps, budget)
        best = None
        for combo in itertools.product(*[range(c + 1) for c in caps]):
            if sum(combo) > budget:
                continue
            val = float(np.sum(alloc.reverse_katz * np.power(x, np.array(combo, dtype=float))))
            best = val if best is None else min(best, val)
        if abs(alloc.objective(x) - best) > 1e-9:
            failed.append((net.node_count, alloc.objective(x), best))
    if failed:
        _report(
            "8c",
            "FAIL",
            f"prefix-fill allocation suboptimal on {len(failed)} general-cap instances "
            f"(expected: documented policy defect)",
        )
    assert not failed


def test_criterion_9_coupling_monotonicity():
    for name, net in _test_networks().items():
        cfg = pn.PercolationConfig(x=0.7, n=1, seed=99)
        for t in range(10_000):
            sub = pn.PercolationConfig(x=0.7, n=1, seed=pn.derive_subseed(99, t))
            low, high = pn.run_coupled_pair(net, sub, 0.2, 0.7)
            assert low.S >= high.S, (name, t)
    for net in (_chain(8), pn.generate_rdag(10, 0.3, seed=3)):
        curve = pn.resilience_curve(net, n=1, trials=1000, seed=77)
        assert np.all(np.diff(curve.r_hat) >= 0)
    _report("9", "PASS", "S(x1) >= S(x2) in every coupled trial; curves monotone in eps")


def _dataset_dir() -> Path:
    return Path(os.environ.get("PRODNET_DATA_DIR", Path(__file__).resolve().parent.parent / "data"))


def test_criterion_10_dataset_auc_reproduction():
    root = _dataset_dir()
    willems = {
        "willems_10.csv": 0.136,
        "willems_20.csv": 0.117,
        "willems_30.csv": 0.357,
    }
    world = {
        "india.csv": 0.095,
        "china.csv": 0.078,
        "indonesia.csv": 0.078,
        "japan.csv": 0.058,
        "usa.csv": 0.052,
        "gbr.csv": 0.052,
    }
    if not all((root / f).exists() for f in willems):
        _report("10", "SKIPPED", f"network datasets not present under {root}")
        pytest.skip(f"dataset files absent under {root}")
    for fname, target in willems.items():
        net = pn.parse_edge_csv(root / fname)
        curve = pn.resilience_curve(net, n=1, trials=1000, seed=1)
        assert abs(curve.auc - target) <= 0.03, (fname, curve.auc, target)
    if all((root / f).exists() for f in world):
        auc = {}
        for fname in world:
            net = pn.parse_io_table(root / fname)
            auc[fname] = pn.resilience_curve(net, n=1, trials=1000, seed=1).auc
        assert auc["india.csv"] > auc["china.csv"] - 0.005
        assert abs(auc["china.csv"] - auc["indonesia.csv"]) <= 0.01
        assert auc["china.csv"] > auc["japan.csv"] - 0.005
        assert auc["japan.csv"] > auc["usa.csv"] - 0.005
        assert abs(auc["usa.csv"] - auc["gbr.csv"]) <= 0.01
    _report("10", "PASS", "dataset AUC values reproduced within tolerance")


def test_criterion_11_sparse_envelope():
    violations = 0
    for net in _random_dags(500):
        k = net.node_count
        for y in (1.0 / k, 1.0 / (2 * k)):
            for x in (0.1, 0.5, 0.9):
                total = pn.dag_beta(net, x, y, 1).total()
                if total > pn.dag_sparse_bound(k, x, y, 1) + 1e-12:
                    violations += 1
    assert violations == 0
    _report("11", "PASS", "LP totals below the closed-form envelope on 500 DAGs x 6 grids")
