"""Memory regressions, traced with tracemalloc.

Reading a K x K input-output table, drawing a random DAG on K products
and drawing a width-w trellis used to hold O(K^2) objects (w^2 for the
trellis); all three now hold O(K + E) plus a fixed block, so their
traced peaks stay a small fraction of K^2.  A batch of many trials on a
small network steps its PCG64 states in uint64 arrays, with no Python
int per trial.  Batches and resilience curves walk their trials in
blocks that hold, with their draw piece, less than TRIAL_BLOCK_BYTES, so
a resolved curve (trials >= K ln 20) holds a block plus its u_t, not
trials x K, and a block counts the widest level's inputs that theta
gathers at once.
"""

import math
import tracemalloc

import numpy as np

from prodnet import (
    PercolationConfig,
    ProductionNetwork,
    generate_parallel,
    generate_rdag,
    generate_trellis,
    parse_io_table,
    resilience_curve,
    run_batch,
)
from prodnet.estimator import DEFAULT_EPSILON_GRID
from prodnet.percolation import TRIAL_BLOCK_BYTES


def _traced_peak(call) -> tuple[object, int]:
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_io_table_streams_its_rows(tmp_path):
    k = 2000
    rng = np.random.default_rng(3)
    path = tmp_path / "io.csv"
    with path.open("w", encoding="utf-8") as fh:
        fh.write("," + ",".join(f"s{i}" for i in range(k)) + "\n")
        for r in range(k):
            cells = np.where(rng.random(k) < 0.001, "0.5", "0")
            fh.write(f"s{r}," + ",".join(cells.tolist()) + "\n")
    net, peak = _traced_peak(lambda: parse_io_table(path))
    assert 3000 < net.edge_count < 5000
    # holding every row's cells took K^2 pointers (32 MB) on top of the text
    assert peak < k * k * 8 / 10


def test_rdag_draws_in_blocks():
    k = 10_000
    net, peak = _traced_peak(lambda: generate_rdag(k, 5e-5, seed=1004))
    assert 2000 < net.edge_count < 3000
    # one draw over all pairs took K^2/2 doubles (400 MB) and two index arrays
    assert peak < k * k / 2 * 8 / 20


def test_trellis_draws_in_blocks():
    w = 3000
    net, peak = _traced_peak(lambda: generate_trellis(w, 2, 1e-4, seed=1))
    assert 700 < net.edge_count < 1100
    # one draw per tier pair took w^2 doubles (72 MB) and a w x w mask
    assert peak < 20e6


def test_small_network_batch_steps_its_states_in_arrays():
    chain6 = ProductionNetwork(6, [(i, i + 1) for i in range(1, 6)])
    trials = 10**5
    cfg = PercolationConfig(x=0.35, y=0.5, n=2, seed=101)
    batch, peak = _traced_peak(lambda: run_batch(chain6, cfg, trials))
    assert batch.trials == trials
    # loading each trial's state into a generator held four Python ints
    # per trial and the (trials, K, n) uniforms, and peaked at 40.6 MB;
    # stepping peaks at 18.4 MB
    assert peak < 30e6


def test_resolved_resilience_curve_holds_a_block_not_the_trials():
    k = 1500
    net = generate_rdag(k, 0.002, seed=1000)
    trials = math.ceil(k * math.log(20))
    curve, peak = _traced_peak(lambda: resilience_curve(net, trials=trials, seed=3))
    assert curve.trials == trials and 0.0 < curve.auc < 1.0
    # (trials, K) doubles are 54 MB, and holding the maxima, theta and its
    # sorted copy for every trial peaked at 162 MB; a block and the u_t of
    # every eps peak at 7.5 MB
    levels = 8 * trials * len(DEFAULT_EPSILON_GRID)
    assert peak < 1.25 * TRIAL_BLOCK_BYTES + 2 * levels
    assert peak < trials * k * 8 / 4


def test_large_batch_holds_a_block_not_the_trials():
    k, trials = 10_000, 200
    net = generate_rdag(k, 5e-5, seed=1004)
    for y in (1.0, 0.5):
        batch, peak = _traced_peak(lambda: run_batch(net, PercolationConfig(x=0.05, y=y, seed=1), trials))
        assert batch.trials == trials
        # the (trials, K) uniforms, maxima and theta peaked at 38.6 MB; blocks at 7.4 MB
        assert peak < 1.25 * TRIAL_BLOCK_BYTES


def test_joint_batch_on_one_wide_level_holds_a_block():
    # 2000 products in one level with 20 inputs each: theta gathers the
    # level's 40,000 inputs per trial, 13 times the 3000 products' rows
    net = generate_parallel(2000, 20, 40, seed=1)
    assert max(len(level.sources) for level in net.level_plan()) == net.edge_count == 40_000
    batch, peak = _traced_peak(lambda: run_batch(net, PercolationConfig(x=0.3, y=0.5, seed=1), 200))
    assert batch.trials == 200
    assert peak < 1.25 * TRIAL_BLOCK_BYTES


def test_joint_batch_on_many_levels_holds_a_block():
    # 54 levels, 20,000 edges: a walk block of indicators and dead edges
    # filled from whole 5.8 MB draw blocks peaked at 1.26 x TRIAL_BLOCK_BYTES
    net = generate_rdag(2000, 0.01, seed=1)
    batch, peak = _traced_peak(lambda: run_batch(net, PercolationConfig(x=0.05, y=0.5, seed=1), 200))
    assert batch.trials == 200
    assert peak < TRIAL_BLOCK_BYTES
