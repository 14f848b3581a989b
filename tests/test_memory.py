"""Memory regressions, traced with tracemalloc.

Reading a K x K input-output table and drawing a random DAG on K
products used to hold O(K^2) objects; both now hold O(K + E) plus a
fixed block, so their traced peaks stay a small fraction of K^2.  A
batch of many trials on a small network steps its PCG64 states in uint64
arrays, with no Python int per trial.
"""

import tracemalloc

import numpy as np

from prodnet import PercolationConfig, ProductionNetwork, generate_rdag, parse_io_table, run_batch


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
