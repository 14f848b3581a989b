"""The closed-form bounds and beta against the package's own networks.

Each cell compares a bound with what the package computes on the
network the bound speaks of: the exact resilience from the 2^K oracle
where K is small, and per-product failure frequencies of a seeded batch
where it is not.  A cell that fails is kept as a strict xfail naming
ROADMAP item 9, so that a corrected formula shows as an XPASS.
"""

import numpy as np
import pytest

from prodnet import (
    PercolationConfig,
    dag_beta,
    generate_backward_tree,
    generate_rdag,
    generate_trellis,
    run_batch,
    tree_bounds,
)

from oracles import exact_resilience


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
