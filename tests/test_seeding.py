"""Batch draws against numpy itself.

Every trial of a batch reads one stream, that of `default_rng(seed)`:
trial t reads its U uniforms from t U on, where U is K n, plus E when
y < 1.  These properties hold a batch's draws, from its first trial or
from any later one, to slices of that stream bit for bit, and single
trials seeded with integers of any size to what `default_rng(cfg.seed)`
draws.  `derive_subseed` is held to `SeedSequence((seed, index))`; seeds
of 2**96 and more give entropy pools of more than four words, which
take the hash's tail-mixing loop.  Batches walk their trials in blocks;
split into blocks of any size, a batch or a resilience curve gives the
arrays of a single block.
"""

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prodnet import (
    ParameterError,
    PercolationConfig,
    ProductionNetwork,
    SizeError,
    derive_subseed,
    estimate_survival_prob,
    generate_rdag,
    resilience_curve,
    run_batch,
    run_coupled_pair,
    run_trial,
)
from prodnet import percolation
from prodnet.percolation import MAX_TRIALS, _draws, _failure_thresholds, _theta_blocks, _trial_bytes

EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 7, 2**130 + 5)
seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**140))
shocks = dict(y=st.sampled_from([1.0, 0.5]), n=st.sampled_from([1, 2]))


@st.composite
def networks(draw):
    """Random networks with K <= 12, cyclic or not."""
    k = draw(st.integers(1, 12))
    pairs = [(j, i) for j in range(1, k + 1) for i in range(1, k + 1) if j != i]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30)) if pairs else []
    return ProductionNetwork(k, edges)


def pin_edge_seeds(**others):
    """Adds every seed of EDGE_SEEDS as an explicit example of a property."""

    def pin(test):
        for seed in EDGE_SEEDS:
            test = example(seed=seed, **others)(test)
        return test

    return pin


def numpy_subseed(seed, t):
    return int(np.random.SeedSequence((seed, t)).generate_state(1, np.uint64)[0])


def numpy_draws(net, seed, n, y):
    """One trial's supplier maxima and operational mask, drawn by `default_rng(seed)`."""
    rng = np.random.default_rng(seed)
    maxima = rng.random((net.node_count, n)).max(axis=1)
    return maxima, (rng.random(net.edge_count) < y if y < 1.0 else None)


def numpy_outcome(net, seed, x, n, y):
    """Failed and spontaneously failed products at level x on `default_rng(seed)`'s draws."""
    maxima, live = numpy_draws(net, seed, n, y)
    theta = _failure_thresholds(net, maxima[None], None if live is None else live[None])[0]
    return theta < x, maxima < x


def numpy_stream(net, seed, trials, n, y):
    """Supplier maxima (trials, K) and operational masks (trials, E) of a batch.

    They are cut from one `default_rng(seed)` call that draws every
    trial's uniforms in order.
    """
    k, e = net.node_count, net.edge_count
    width = k * n + (e if y < 1.0 else 0)
    uniforms = np.random.default_rng(seed).random((trials, width))
    maxima = uniforms[:, : k * n].reshape(trials, k, n).max(axis=2)
    return maxima, (uniforms[:, k * n :] < y if y < 1.0 else None)


@settings(max_examples=200, deadline=None)
@given(seed=seeds, trials=st.integers(1, 50))
@pin_edge_seeds(trials=50)
def test_batch_subseeds_match_seed_sequence(seed, trials):
    expected = [numpy_subseed(seed, t) for t in range(trials)]
    assert [derive_subseed(seed, t) for t in range(trials)] == expected


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_subseed_of_large_index_matches_seed_sequence(seed):
    for index in (2**32 - 1, 2**32, 2**64 + 3, 2**100):
        assert derive_subseed(seed, index) == numpy_subseed(seed, index)
    assert derive_subseed(np.uint64(2**64 - 1), np.int8(7)) == numpy_subseed(2**64 - 1, 7)


def pin_every_shock(test):
    """Pins every edge seed at n = 1, 2, 3 and y = 1, 0.5 on a network with edges."""
    net = ProductionNetwork(4, [(1, 2), (2, 3), (4, 3)])
    for n in (1, 2, 3):
        for y in (1.0, 0.5):
            test = pin_edge_seeds(net=net, trials=9, n=n, y=y)(test)
    return test


@settings(max_examples=200, deadline=None)
@given(net=networks(), seed=seeds, trials=st.integers(1, 50), **shocks)
@pin_edge_seeds(net=ProductionNetwork(3, [(1, 2), (2, 3), (3, 1)]), trials=50, n=2, y=0.5)
@pin_edge_seeds(net=ProductionNetwork(1, []), trials=1, n=2, y=0.5)
@pin_every_shock
def test_batch_draws_match_default_rng(net, seed, trials, n, y):
    maxima, op_mask = _draws(net, n, y, seed, trials)
    expected_maxima, expected_mask = numpy_stream(net, seed, trials, n, y)
    assert np.array_equal(maxima, expected_maxima)
    if y < 1.0:
        assert np.array_equal(op_mask, expected_mask)
    else:
        assert op_mask is None


@settings(max_examples=100, deadline=None)
@given(net=networks(), seed=seeds, start=st.integers(0, 40), count=st.integers(1, 40), **shocks)
@example(net=ProductionNetwork(4, [(1, 2), (2, 3), (4, 3)]), seed=2**130 + 5, start=7, count=3, n=3, y=0.5)
def test_draws_from_an_offset_are_a_slice(net, seed, start, count, n, y):
    maxima, op_mask = _draws(net, n, y, seed, count, start)
    whole_maxima, whole_mask = _draws(net, n, y, seed, start + count)
    assert np.array_equal(maxima, whole_maxima[start:])
    if y < 1.0:
        assert np.array_equal(op_mask, whole_mask[start:])


@settings(max_examples=100, deadline=None)
@given(net=networks(), seed=seeds, trials=st.integers(1, 20), x=st.floats(0.0, 1.0), **shocks)
@pin_edge_seeds(net=ProductionNetwork(4, [(1, 2), (2, 3), (3, 1), (3, 4)]), trials=20, x=0.6, n=2, y=0.5)
@pin_edge_seeds(net=ProductionNetwork(1, []), trials=1, x=0.5, n=2, y=0.5)
def test_run_batch_matches_run_trial_per_subseed(net, seed, trials, x, n, y):
    # trial 0 is `run_trial` on the batch's own seed, and every trial fails
    # as its slice of the stream says
    cfg = PercolationConfig(x=x, y=y, n=n, seed=seed)
    batch = run_batch(net, cfg, trials, keep_failures=True)
    single = run_trial(net, cfg)
    assert batch.F[0] == single.F
    assert np.array_equal(batch.failures[0], single.Z == 0)
    maxima, live = numpy_stream(net, seed, trials, n, y)
    failed = _failure_thresholds(net, maxima, live) < x
    assert np.array_equal(batch.failures, failed)
    assert batch.F.tolist() == failed.sum(axis=1).tolist()


@settings(max_examples=200, deadline=None)
@given(
    net=networks(),
    seed=st.integers(2**64, 2**200),
    x1=st.floats(0.0, 1.0),
    x2=st.floats(0.0, 1.0),
    **shocks,
)
@example(net=ProductionNetwork(3, [(1, 2), (2, 3), (3, 1)]), seed=2**64, x1=0.3, x2=0.6, n=2, y=0.5)
@example(net=ProductionNetwork(4, [(1, 2), (2, 3)]), seed=2**130 + 5, x1=0.2, x2=0.7, n=1, y=1.0)
def test_single_trials_with_wide_seeds_match_default_rng(net, seed, x1, x2, n, y):
    x1, x2 = min(x1, x2), max(x1, x2)
    cfg = PercolationConfig(x=x2, y=y, n=n, seed=seed)
    outcomes = (run_trial(net, cfg), *run_coupled_pair(net, cfg, x1, x2))
    for out, x in zip(outcomes, (x2, x1, x2)):
        failed, spontaneous = numpy_outcome(net, seed, x, n, y)
        assert np.array_equal(out.Z == 0, failed)
        assert out.spontaneous_failures == frozenset((np.flatnonzero(spontaneous) + 1).tolist())


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.float64(2.0), "3"])
def test_seeding_rejects_non_integer_or_negative_seeds(seed):
    with pytest.raises(ParameterError):
        derive_subseed(seed, 0)
    with pytest.raises(ParameterError):
        _theta_blocks(ProductionNetwork(2, [(1, 2)]), 1, 1.0, seed, 3)
    with pytest.raises(ParameterError):
        PercolationConfig(x=0.5, seed=seed)


@contextmanager
def blocks_of(size, net, n, y):
    """Sets the block budget so that a batch on net goes `size` trials to a block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(percolation, "TRIAL_BLOCK_BYTES", size * _trial_bytes(net, n, y))
        yield


BLOCK_NETWORKS = {
    "rdag": generate_rdag(12, 0.3, seed=4),
    # two cyclic components, fed and feeding: joint percolation floods them
    "cyclic": ProductionNetwork(7, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6), (6, 4), (6, 7), (2, 7)]),
}
BLOCK_SPLITS = {1: [1] * 10, 3: [3, 3, 3, 1], 4: [4, 4, 2]}  # block size: the block counts of 10 trials


@pytest.mark.parametrize("size", BLOCK_SPLITS)
@pytest.mark.parametrize("name", BLOCK_NETWORKS)
def test_batches_split_into_blocks_give_the_same_arrays(name, size):
    net, trials = BLOCK_NETWORKS[name], 10
    for n, y in ((1, 1.0), (2, 0.5)):
        cfg = PercolationConfig(x=0.45, y=y, n=n, seed=2**64 + 9)
        whole = run_batch(net, cfg, trials, keep_failures=True)
        with blocks_of(size, net, n, y):
            assert [len(theta) for _, theta in _theta_blocks(net, n, y, cfg.seed, trials)] == BLOCK_SPLITS[size]
            split = run_batch(net, cfg, trials, keep_failures=True)
            for field in ("F", "S", "pmf", "failures"):
                assert np.array_equal(getattr(split, field), getattr(whole, field)), field
            assert split.F.dtype == whole.F.dtype and split.S.dtype == whole.S.dtype


@pytest.mark.parametrize("size", BLOCK_SPLITS)
@pytest.mark.parametrize("name", BLOCK_NETWORKS)
def test_estimates_split_into_blocks_give_the_same_arrays(name, size):
    net, trials, eps = BLOCK_NETWORKS[name], 10, (0.05, 0.3, 0.6, 0.95)
    whole = resilience_curve(net, eps, n=2, trials=trials, seed=33)
    p_whole = estimate_survival_prob(net, 0.4, 1, 0.3, trials, seed=33)
    with blocks_of(size, net, 2, 1.0):
        split = resilience_curve(net, eps, n=2, trials=trials, seed=33)
    with blocks_of(size, net, 1, 1.0):
        assert estimate_survival_prob(net, 0.4, 1, 0.3, trials, seed=33) == p_whole
    for field in ("r_hat", "stderr"):
        assert np.array_equal(getattr(split, field), getattr(whole, field)), field
    assert split.auc == whole.auc


LEVELS = (0.0, 1e-300, 0.35, 1.0)


def pin_split_batches(test):
    """Pins both block networks at every level and shock, 23 trials to a batch."""
    for net in BLOCK_NETWORKS.values():
        for x in LEVELS:
            for n, y in ((1, 1.0), (2, 0.5)):
                test = example(net=net, seed=2**64 + 9, trials=23, x=x, n=n, y=y)(test)
    return test


@settings(max_examples=100, deadline=None)
@given(net=networks(), seed=seeds, trials=st.integers(1, 40), x=st.sampled_from(LEVELS), **shocks)
@pin_split_batches
def test_batch_at_a_level_is_float_theta_below_it(net, seed, trials, x, n, y):
    # a batch walks the indicators theta >= x; with two trials to a draw
    # block, and a walk block of several of them, both split mid-batch
    maxima, live = numpy_stream(net, seed, trials, n, y)
    failed = _failure_thresholds(net, maxima, live) < x
    f = failed.sum(axis=1)
    with blocks_of(2, net, n, y):
        walks = [len(block) for _, block in _theta_blocks(net, n, y, seed, trials, x)]
        batch = run_batch(net, PercolationConfig(x=x, y=y, n=n, seed=seed), trials, keep_failures=True)
    # walk blocks of whole draw blocks, several to one, and the pinned
    # batches of 23 trials take more than one walk block
    assert sum(walks) == trials and all(w == walks[0] for w in walks[:-1])
    assert walks[0] == trials or (walks[0] % 2 == 0 and walks[0] >= 4)
    assert len(walks) > 1 or trials < 23
    assert np.array_equal(batch.failures, failed)
    assert np.array_equal(batch.F, f) and np.array_equal(batch.S, net.node_count - f)
    assert np.array_equal(batch.pmf, np.bincount(f, minlength=net.node_count + 1) / trials)


def test_batch_limits_are_refused_before_any_block():
    net = ProductionNetwork(2, [(1, 2)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(percolation, "TRIAL_BLOCK_BYTES", 1)  # one trial to a block
        # too many trials first, then the seed, then the size of the uniforms
        with pytest.raises(SizeError, match="trials exceed the limit"):
            _theta_blocks(net, 1, 1.0, -1, 2**70)
        with pytest.raises(ParameterError, match="^seed must be"):
            _theta_blocks(net, 2**62, 1.0, -1, 2**32)
        with pytest.raises(SizeError, match="supplier uniforms exceed"):
            _theta_blocks(net, 2**62, 1.0, 0, 2**32)
        with pytest.raises(SizeError, match="trials exceed the limit"):
            run_batch(net, PercolationConfig(x=0.5), 2**70)
        with pytest.raises(SizeError, match="trials exceed the limit"):
            resilience_curve(net, trials=MAX_TRIALS + 1)


def test_batch_limits_are_refused_before_any_per_trial_allocation():
    # _theta_blocks checks the limits when it is called, not at its first
    # block: by then run_batch would have sized 2**32 + 1 failure counts
    # (32 GB) and the curve a 19 x (MAX_TRIALS + 1) array of levels
    net = ProductionNetwork(2, [(1, 2)])
    for call in (
        lambda: run_batch(net, PercolationConfig(x=0.5), 2**32 + 1),
        lambda: resilience_curve(net, trials=MAX_TRIALS + 1),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(SizeError, match="trials exceed the limit"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
