"""Single trials and batches of the node / joint percolation process.

Every product has n suppliers that fail independently with probability x;
a product fails spontaneously when all n fail.  Under joint percolation
each edge additionally stays operational with probability y.  A product
fails iff it is spontaneous or reachable from a spontaneous product along
operational edges, which closes the failure-propagation rule on cyclic
graphs as well.

Randomness layout (the coupling contract): a trial reads U uniforms, first
a (K, n) supplier-uniform block (row i-1 belongs to product i), then,
when y < 1, one uniform per edge in canonical sorted edge order; so U is
K n, plus E when y < 1.  A supplier fails at level x iff its uniform is
< x, and an edge is operational iff its uniform is < y.  Evaluating two
levels x1 <= x2 on the same draws therefore yields nested failure sets.

Under that layout product i fails at level x iff theta[i] < x, where
theta[i] is the least supplier maximum over i and every product that
reaches i along operational edges.  theta is computed in one pass over
a block of trials that walks `net.level_plan()`: per level it gathers
the inputs from earlier levels and the rows of the products they feed,
takes one contiguous minimum per round of inputs, each round feeding a
prefix of those rows, and writes the rows back.  Draws and theta are
composed in two places only: `_theta_blocks` for batches and the
estimator's curves, and `_trial_zero` for `run_trial` and
`run_coupled_pair`.  `_theta_blocks` checks a batch's limits when it is
called.  For a curve it yields float theta in blocks of B trials, sized
so that a block's draws, theta and its gather of the widest level's
inputs take about TRIAL_BLOCK_BYTES.  A batch at one level x needs only
whether theta < x, so the same walk runs on the survival indicators
maxima >= x: on bools its minimum is a logical and, and a dead input
raised by 1 is a logical or.  That walk holds bytes, not doubles, per
product and edge, so its blocks are sized from TRIAL_BLOCK_BYTES on
their own and hold several draw blocks of B trials, each thresholded as
soon as it is drawn.  Curves and trial 0 walk float theta.  Each caller
keeps only each trial's reduction, so it holds O(B K + E) memory, not
O(trials K), and only keep_failures=True keeps a (trials, K) matrix.

Seeding contract, fixed because every seeded output depends on it: all
trials read one stream, that of `default_rng(seed)`, and trial t reads
its uniforms t U to (t + 1) U - 1.  A single trial is trial 0, so it
draws just what `default_rng(seed)` draws.  A block of trials that
starts at trial s advances a fresh PCG64(seed) by s U and fills its
uniforms in one call, so a batch's blocks are a partition by trial
index and give the arrays of a single block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeError, allocate, check_int, check_real, shown
from .network import Cycle, ProductionNetwork


@dataclass(frozen=True)
class PercolationConfig:
    """Shock parameters: supplier failure x, edge survival y, suppliers n."""

    x: float
    y: float = 1.0
    n: int = 1
    seed: int = 0

    def __post_init__(self):
        check_real(self.x, "x")
        check_real(self.y, "y")
        check_int(self.n, "n")
        check_int(self.seed, "seed", minimum=0)


@dataclass
class CascadeOutcome:
    """Result of one percolation trial.

    Z[i-1] is 1 iff product i is produced; F and S count failures and
    survivors; spontaneous_failures holds the products whose n suppliers
    all failed.
    """

    Z: np.ndarray
    F: int
    S: int
    spontaneous_failures: frozenset[int]


@dataclass
class BatchResult:
    """Aggregate of a trial batch: per-trial (F, S) and the histogram of F.

    failures holds the full (trials, K) failure-indicator matrix when the
    batch was run with keep_failures=True, else None.
    """

    F: np.ndarray
    S: np.ndarray
    pmf: np.ndarray  # pmf[f] = fraction of trials with exactly f failures
    failures: np.ndarray | None = None

    @property
    def trials(self) -> int:
        return len(self.F)


MAX_TRIALS = 2**32  # trials in one batch, a limit of the batch interface
_MAX_UNIFORMS = np.iinfo(np.intp).max // 8  # doubles in numpy's largest array
TRIAL_BLOCK_BYTES = 8 << 20  # draws and theta that a batch holds per block of trials


def derive_subseed(seed: int, index: int) -> int:
    """Stable 64-bit mix of (seed, index), for seeding independent runs.

    Equals `SeedSequence((seed, index)).generate_state(1, np.uint64)[0]`.
    """
    entropy = (check_int(seed, "seed", minimum=0), check_int(index, "index", minimum=0))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _check_uniforms(trials: int, k: int, n: int):
    if trials * k * n > _MAX_UNIFORMS:
        raise SizeError(f"{trials} trials of {k} x {shown(n)} supplier uniforms exceed numpy's array size")


def _draws(
    net: ProductionNetwork, n: int, y: float, seed: int, count: int = 1, start: int = 0
) -> tuple[np.ndarray, np.ndarray | None]:
    """Supplier maxima (count, K) and, when y < 1, the operational mask (count, E).

    Row t holds trial start + t of the stream of `default_rng(seed)`: its
    U uniforms begin at (start + t) U.  The generator is advanced to the
    block's first trial and fills all of the block's uniforms at once.
    """
    k, e = net.node_count, net.edge_count
    _check_uniforms(count, k, n)
    width = k * n + (e if y < 1.0 else 0)
    bits = np.random.PCG64(seed)
    bits.advance(start * width)
    uniforms = allocate(f"{count} trials of {width} uniforms", np.random.Generator(bits).random, (count, width))
    # a max over the short supplier axis is slow; n - 1 strided maxima into
    # the first supplier's uniforms, which nothing reads again, are not
    maxima = uniforms[:, : k * n : n]
    for j in range(1, n):
        np.maximum(maxima, uniforms[:, j : k * n : n], out=maxima)
    return maxima, uniforms[:, k * n :] < y if y < 1.0 else None


def _trial_bytes(net: ProductionNetwork, n: int, y: float) -> int:
    """Bytes that a batch holds per trial of a block.

    They are the trial's (K, n) supplier uniforms, two (K,) copies of its
    maxima or theta, theta's gather of the widest level's inputs and, when
    y < 1, its E edge uniforms, operational mask and the mask's transpose.
    """
    widest = max(len(level.sources) for level in net.level_plan())
    return 8 * (net.node_count * (n + 2) + widest) + (10 * net.edge_count if y < 1.0 else 0)


def _walk_bytes(net: ProductionNetwork, y: float) -> int:
    """Bytes that a batch at one level holds per trial of a walk block.

    They are the trial's survival indicators, the walk's copy of them and
    a level's rows of the products it feeds, (K,) each, two gathers of
    the widest level's inputs (theirs and their edges') and, when y < 1,
    its operational mask and the mask's complement, one byte each.
    """
    widest = max(len(level.sources) for level in net.level_plan())
    return 3 * net.node_count + 2 * widest + (2 * net.edge_count if y < 1.0 else 0)


def _theta_blocks(net: ProductionNetwork, n: int, y: float, seed: int, trials: int, x: float | None = None):
    """A batch's theta, or at level x its indicators theta >= x, as (start, (count, K) block) pairs.

    Each block is drawn and walked when it is asked for.  theta comes in
    draw blocks of B trials, about TRIAL_BLOCK_BYTES by `_trial_bytes`.
    The indicators come in walk blocks of about TRIAL_BLOCK_BYTES by
    `_walk_bytes`, each filled from whole draw blocks, so it holds one
    draw block more while it fills.  The batch's limits are checked at
    the call, before a caller sizes anything by trials, and nothing of a
    block is held once it is yielded.
    """
    if trials > MAX_TRIALS:
        raise SizeError(f"{shown(trials)} trials exceed the limit of {MAX_TRIALS} per batch")
    check_int(seed, "seed", minimum=0)
    _check_uniforms(trials, net.node_count, n)
    size = max(1, TRIAL_BLOCK_BYTES // _trial_bytes(net, n, y))
    if x is None:
        return (
            (start, _failure_thresholds(net, *_draws(net, n, y, seed, min(size, trials - start), start)))
            for start in range(0, trials, size)
        )

    def survivors(start: int, count: int) -> np.ndarray:
        # held in the walk's layout, a row of trials per product and per
        # edge; a byte copy transposes a block several times faster than a
        # bool one
        alive = np.empty((net.node_count, count), dtype=bool)
        live = np.empty((net.edge_count, count), dtype=bool) if y < 1.0 else None
        for at in range(0, count, size):
            maxima, op_mask = _draws(net, n, y, seed, min(size, count - at), start + at)
            cols = slice(at, at + len(maxima))
            alive.view(np.uint8)[:, cols] = (maxima >= x).view(np.uint8).T
            if live is not None:
                live.view(np.uint8)[:, cols] = op_mask.view(np.uint8).T
            del maxima, op_mask  # before the next block is drawn
        return _failure_thresholds(net, alive.T, None if live is None else live.T)

    walk = size * max(1, TRIAL_BLOCK_BYTES // (size * _walk_bytes(net, y)))
    return ((start, survivors(start, min(walk, trials - start))) for start in range(0, trials, walk))


def _failure_thresholds(
    net: ProductionNetwork, maxima: np.ndarray, op_mask: np.ndarray | None = None, stop: float = 1.0
) -> np.ndarray:
    """theta (trials, K): product i fails at level x in trial t iff theta[t, i] < x.

    The levels of `net.level_plan()` are visited in order, vectorised over
    trials.  A level gathers its inputs from earlier levels and the rows
    of the products they feed at once; each round then takes one
    contiguous minimum of a prefix of those rows with the round's inputs,
    and the rows are written back.  A cyclic component then shares its
    least value when every edge operates; otherwise `_flood` spreads
    values below `stop` along its operational edges.  Entries below
    `stop` are exact; an entry at or above `stop` is only known to be so.
    Given the bools maxima >= x, the walk returns theta >= x.
    """
    theta = np.array(maxima.T, order="C")  # a contiguous row of trials per product
    dead = None if op_mask is None else np.logical_not(op_mask.T, order="C")
    for level in net.level_plan():
        inputs = theta[level.sources]
        if dead is not None:  # theta < 1, so a dead input, raised by 1, never wins
            np.add(inputs, dead[level.edges], out=inputs)
        low = theta[level.fed]
        for lo, hi in zip(level.rounds, level.rounds[1:]):
            np.minimum(low[: hi - lo], inputs[lo:hi], out=low[: hi - lo])
        theta[level.fed] = low
        for cycle in level.cycles:
            if dead is None:
                theta[cycle.members] = theta[cycle.members].min(axis=0)
            else:
                _flood(theta, cycle, op_mask, stop)
    return theta.T


def _flood(theta: np.ndarray, cycle: Cycle, op_mask: np.ndarray, stop: float):
    # Per trial, spread the values of one cyclic component (rows of theta)
    # along its operational edges, lowest value first, so a member keeps
    # the first value that reaches it: the least one.
    rows, starts = cycle.members, cycle.tail_starts.tolist()
    out = list(zip(cycle.heads.tolist(), cycle.edges.tolist()))  # (member fed, edge id)
    succ = [out[lo:hi] for lo, hi in zip(starts, starts[1:])]
    for t in range(theta.shape[1]):
        value = theta[rows, t].tolist()
        operational = op_mask[t]
        seen = [False] * len(rows)
        for a in sorted((a for a in range(len(rows)) if value[a] < stop), key=value.__getitem__):
            if seen[a]:
                continue
            seen[a] = True
            stack = [a]
            while stack:
                for b, e in succ[stack.pop()]:
                    if not seen[b] and operational[e]:
                        seen[b] = True
                        value[b] = value[a]
                        stack.append(b)
        theta[rows, t] = value


def _trial_zero(net: ProductionNetwork, cfg: PercolationConfig, levels: tuple) -> list[CascadeOutcome]:
    """Trial 0 of cfg's stream, what `default_rng(cfg.seed)` draws, at each of the ascending levels.

    It is one trial, so no block is sized.
    """
    maxima, op_mask = _draws(net, cfg.n, cfg.y, cfg.seed)
    theta = _failure_thresholds(net, maxima, op_mask, stop=levels[-1])
    return [_outcome_from_failed(theta[0] < x, maxima[0] < x) for x in levels]


def _outcome_from_failed(failed: np.ndarray, spont: np.ndarray) -> CascadeOutcome:
    z = (~failed).astype(np.int8)
    f = int(failed.sum())
    return CascadeOutcome(
        Z=z,
        F=f,
        S=len(failed) - f,
        spontaneous_failures=frozenset((np.flatnonzero(spont) + 1).tolist()),
    )


def run_trial(net: ProductionNetwork, cfg: PercolationConfig) -> CascadeOutcome:
    """Execute one percolation trial, deterministic given cfg.seed."""
    return _trial_zero(net, cfg, (cfg.x,))[0]


def run_batch(
    net: ProductionNetwork, cfg: PercolationConfig, trials: int, keep_failures: bool = False
) -> BatchResult:
    """Run independent trials on one stream of uniforms.

    Trial t reads uniforms t U to (t + 1) U - 1 of `default_rng(cfg.seed)`,
    U per trial as the module describes; trial 0 is exactly `run_trial`
    with the same config, and a batch can be split by trial index.  Each
    block of survival indicators from `_theta_blocks` is reduced to its
    trials' failure counts before the next is drawn, so memory is
    O(B K + E) for B trials to a block.  With keep_failures=True the
    (trials, K) failure-indicator matrix is kept in the result for
    per-product statistics.
    """
    trials = check_int(trials, "trials")
    k = net.node_count
    blocks = _theta_blocks(net, cfg.n, cfg.y, cfg.seed, trials, cfg.x)
    f_counts = allocate(f"the failure counts of {trials} trials", np.empty, trials, dtype=np.int64)
    failures = None
    if keep_failures:
        failures = allocate(f"the {trials} x {k} failure matrix", np.empty, (trials, k), dtype=bool)
    for start, alive in blocks:
        f_counts[start : start + len(alive)] = k - np.count_nonzero(alive, axis=1)
        if keep_failures:
            np.logical_not(alive, out=failures[start : start + len(alive)])
        del alive  # before the next block is drawn
    pmf = np.bincount(f_counts, minlength=k + 1).astype(np.float64) / trials
    return BatchResult(F=f_counts, S=k - f_counts, pmf=pmf, failures=failures)


def run_coupled_pair(
    net: ProductionNetwork, cfg: PercolationConfig, x1: float, x2: float
) -> tuple[CascadeOutcome, CascadeOutcome]:
    """One trial evaluated at two failure levels on shared uniforms.

    Requires x1 <= x2; the shared draws make the failure sets nested, so
    S(x1) >= S(x2) holds trialwise and Z(x1) >= Z(x2) pointwise.
    """
    check_real(x1, "x1")
    check_real(x2, "x2")
    if x1 > x2:
        raise ParameterError(f"coupled pair requires x1 <= x2, got {x1} > {x2}")
    return tuple(_trial_zero(net, cfg, (x1, x2)))
