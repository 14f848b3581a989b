"""The closed-form bounds and beta against the package's own networks.

Each cell compares a bound with what the package computes on the
network the bound speaks of: the exact resilience from the 2^K oracle
where K is small, or from the tree oracle on backward trees with K in
the thousands; elsewhere a crude resilience curve at 30 * ceil(K ln 20)
trials, or per-product failure frequencies of a seeded batch.  A cell that fails is kept as a strict xfail naming
ROADMAP item 9, so that a corrected formula shows as an XPASS.
"""

import math

import numpy as np
import pytest

from prodnet import (
    PercolationConfig,
    dag_beta,
    generate_backward_tree,
    generate_parallel,
    generate_rdag,
    generate_trellis,
    parallel_bounds,
    resilience_curve,
    run_batch,
    tree_bounds,
)

from oracles import exact_resilience, tree_resilience


@pytest.mark.parametrize(
    "epsilon",
    [
        pytest.param(
            0.1,
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 9: tree_bounds(2, 4, 0.1).lower is 0.0050975, above the "
                "exact resilience 0.0049159 of the 15-product tree; the exponent (1 - eps) K "
                "is not a count of products that must escape spontaneous failure",
            ),
        ),
        0.5,
    ],
)
def test_tree_bounds_bracket_the_exact_resilience(epsilon):
    # binary backward tree of depth 4, K = 15; at eps = 0.5 the bracket is
    # 0.00916 <= 0.10440 <= 0.12798
    bound = tree_bounds(2, 4, epsilon)
    r = exact_resilience(generate_backward_tree(2, 4), epsilon)
    assert bound.lower <= r <= bound.upper


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("epsilon", [0.1, 0.3, 0.5])
@pytest.mark.parametrize("m, D", [(1, 3), (1, 8), (1, 12), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_tree_oracle_matches_the_enumeration(m, D, epsilon, n):
    exact = exact_resilience(generate_backward_tree(m, D), epsilon, n)
    assert tree_resilience(m, D, epsilon, n) == pytest.approx(exact, rel=0, abs=1e-9)


def _tree_upper_fails(D: int, epsilon: float, upper: float, r: float):
    k = 2**D - 1
    return pytest.param(
        D,
        epsilon,
        marks=pytest.mark.xfail(
            strict=True,
            reason=f"ROADMAP item 9: tree_bounds(2, {D}, {epsilon}).upper is {upper:.4f}, below the "
            f"exact resilience {r:.4f} of the {k}-product tree; the upper end falls with K while "
            "the leaves, half the products, fail on their own draws only",
        ),
        id=f"D{D}-eps{epsilon}",
    )


@pytest.mark.parametrize(
    "D, epsilon",
    [
        pytest.param(5, 0.1, id="D5-eps0.1"),
        _tree_upper_fails(5, 0.5, 0.1009, 0.1098),
        _tree_upper_fails(9, 0.5, 0.0556, 0.1838),
        _tree_upper_fails(11, 0.3, 0.0636, 0.0794),
        _tree_upper_fails(11, 0.5, 0.0455, 0.2100),
    ],
)
def test_tree_bounds_bracket_the_tree_oracle(D, epsilon):
    # binary backward trees up to K = 2047, refereed by the exact tree
    # oracle; at D = 5, eps = 0.1 the bracket is 0.00117 <= 0.00136 <= 0.1817
    bound = tree_bounds(2, D, epsilon)
    r = tree_resilience(2, D, epsilon)
    assert bound.lower <= r <= bound.upper


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 9: parallel_bounds(100, 2, 3, eps, scope='all-products').lower lies above "
    "the crude resilience of generate_parallel(100, 2, 3); its sqrt(ln K / (2 m K)) term is added, "
    "so the bound grows as K falls",
)
@pytest.mark.parametrize("epsilon", [0.1, 0.3])
def test_parallel_lower_bound_lies_below_the_crude_resilience(epsilon):
    # 167 products, so 30 * ceil(K ln 20) = 15,030 trials; the lower end is
    # 0.1051 at eps = 0.1 and 0.1176 at 0.3, and r_hat over seeds 0-2 is
    # 0.0118-0.0122 and 0.0813-0.0821
    bound = parallel_bounds(100, 2, 3, epsilon, scope="all-products")
    for seed in range(3):
        net = generate_parallel(100, 2, 3, seed=seed)
        trials = 30 * math.ceil(net.node_count * math.log(20))
        r_hat = resilience_curve(net, [epsilon], trials=trials, seed=7).r_hat[0]
        assert bound.lower <= r_hat, f"seed {seed}: lower end {bound.lower:.4f} above r_hat {r_hat:.4f}"


@pytest.mark.parametrize(
    "generate, args",
    [(generate_rdag, (1000, 0.006)), (generate_trellis, (30, 30, 0.1))],
    ids=["rdag-1000", "trellis-30x30"],
)
def test_dag_beta_bounds_failure_frequencies_at_scale(generate, args):
    # 4 settings of 1000 and of 900 products make 7600 cells; 5 one-sided
    # SE cap the chance that any cell of a true bound trips at 7600 *
    # 2.9e-7 < 0.3% (the worst cell measured 3.3 SE)
    net, trials = generate(*args, seed=1), 5000
    delta = net.max_out_degree
    for y in (0.5 / delta, 0.95 / delta):
        for x in (0.05, 0.3):
            beta = dag_beta(net, x, y).beta
            batch = run_batch(net, PercolationConfig(x=x, y=y, seed=7), trials, keep_failures=True)
            excess = batch.failures.mean(axis=0) - beta
            se = np.sqrt(beta * (1.0 - beta) / trials)
            worst = int(np.argmax(excess - 5.0 * se))
            assert excess[worst] <= 5.0 * se[worst], (
                f"y = {y:g}, x = {x:g}: product {worst + 1} fails with frequency "
                f"{beta[worst] + excess[worst]:g} against beta {beta[worst]:g}"
            )
