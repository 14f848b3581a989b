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
composed in one place, `_fill`.  It writes a block's draws straight
into the walk's layout, a row of trials per product: the supplier
maxima, for curves and trial 0, or at one level x the survival
indicators maxima >= x, for batches, and when y < 1 a row of trials per
edge of the dead mask u >= y.  The walk then runs in place on that
block.  On the indicators its minimum is a logical and, and a dead
input raised by 1 is a logical or, so a batch holds a byte per product
and edge where a curve holds a double.  `_block_sizes` is the one
sizing rule, in shares of TRIAL_BLOCK_BYTES: a block of B trials holds
its theta, its dead mask and the widest level's gathers in half of it,
one reused draw piece of P trials' uniforms takes about a quarter, and
the last quarter is left for what a batch holds beside them.
`_theta_blocks` checks a batch's limits when it is called and yields
the walked blocks.  Each caller keeps only each trial's reduction, so
it holds O(B K + E) memory, not O(trials K), and only
keep_failures=True keeps a (trials, K) matrix.

Seeding contract, fixed because every seeded output depends on it: all
trials read one stream, that of `default_rng(seed)`, and trial t reads
its uniforms t U to (t + 1) U - 1.  A single trial is trial 0, so it
draws just what `default_rng(seed)` draws.  A block of trials that
starts at trial s advances a fresh PCG64(seed) by s U and draws its
uniforms in order, a piece at a time, so a batch's blocks and pieces
are a partition by trial index and give the arrays of a single block.
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
TRIAL_BLOCK_BYTES = 8 << 20  # what a batch holds while it walks a block of trials, draw piece included


def derive_subseed(seed: int, index: int) -> int:
    """Stable 64-bit mix of (seed, index), for seeding independent runs.

    Equals `SeedSequence((seed, index)).generate_state(1, np.uint64)[0]`.
    """
    entropy = (check_int(seed, "seed", minimum=0), check_int(index, "index", minimum=0))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _width(net: ProductionNetwork, n: int, y: float) -> int:
    """U, the uniforms of one trial."""
    return net.node_count * n + (net.edge_count if y < 1.0 else 0)


def _check_uniforms(trials: int, net: ProductionNetwork, n: int, y: float):
    if trials * _width(net, n, y) > _MAX_UNIFORMS:
        edges = f" and {net.edge_count} edge uniforms" if y < 1.0 else ""
        raise SizeError(
            f"{trials} trials of {net.node_count} x {shown(n)} supplier uniforms{edges} exceed numpy's array size"
        )


def _draw_piece(net: ProductionNetwork, n: int, y: float, trials: int) -> np.ndarray:
    """The reused (trials, U) buffer of uniforms that `_fill` draws into."""
    _check_uniforms(trials, net, n, y)
    width = _width(net, n, y)
    return allocate(f"{trials} trials of {width} uniforms", np.empty, (trials, width))


def _block_sizes(net: ProductionNetwork, n: int, y: float, x: float | None) -> tuple[int, int]:
    """(B, P): the trials of a block and of its draw piece, sized by shares of TRIAL_BLOCK_BYTES.

    A block takes at most half of it.  Per trial it holds its theta, K
    doubles or, at a level x, K bools; when y < 1 its E bytes of dead
    mask; and the widest level's gathers: the inputs, the rows of the
    products they feed and, when y < 1, the inputs' edges' mask.  The
    piece takes about a quarter.  The last quarter is left for what a
    batch holds beside them: a piece's thresholds while they are written,
    the network's level plan and the caller's per-trial results.
    """
    width = _width(net, n, y)
    piece = max(1, TRIAL_BLOCK_BYTES // 4 // (8 * width))
    item, joint = (8 if x is None else 1), y < 1.0
    gathers = max(item * (len(lv.sources) + len(lv.fed)) + joint * len(lv.sources) for lv in net.level_plan())
    per_trial = item * net.node_count + joint * net.edge_count + gathers
    block = max(1, TRIAL_BLOCK_BYTES // 2 // per_trial)
    return block, min(piece, block)


def _fill(
    net: ProductionNetwork, n: int, y: float, seed: int, start: int, count: int, x: float | None, piece: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Trials start .. start + count - 1 in the walk's layout: theta (K, count) and dead (E, count) or None.

    theta[i, t] is the supplier maximum of product i + 1 in trial
    start + t or, at a level x, whether it is >= x; dead[e, t], drawn when
    y < 1, is whether edge e fails, its uniform >= y.  One PCG64(seed) is
    advanced to trial start and refills the (P, U) `piece` once per P
    trials.
    """
    k, (size, width) = net.node_count, piece.shape
    theta = allocate(f"the {k} x {count} block of theta", np.empty, (k, count), np.float64 if x is None else bool)
    dead = None
    if y < 1.0:
        dead = allocate(f"the {net.edge_count} x {count} block of dead edges", np.empty, (net.edge_count, count), bool)
    bits = np.random.PCG64(seed)
    bits.advance(start * width)
    draw = np.random.Generator(bits).random
    for at in range(0, count, size):
        m = min(size, count - at)
        uniforms = draw(out=piece[:m])
        # a max over the short supplier axis is slow; n - 1 strided maxima into
        # the first supplier's uniforms, which nothing reads again, are not
        maxima = uniforms[:, : k * n : n]
        for j in range(1, n):
            np.maximum(maxima, uniforms[:, j : k * n : n], out=maxima)
        # a byte copy transposes a piece several times faster than a bool one,
        # or than a comparison written through the transpose
        cols = slice(at, at + m)
        if x is None:
            theta[:, cols] = maxima.T
        else:
            theta.view(np.uint8)[:, cols] = (maxima >= x).view(np.uint8).T
        if dead is not None:
            dead.view(np.uint8)[:, cols] = (uniforms[:, k * n :] >= y).view(np.uint8).T
    return theta, dead


def _theta_blocks(net: ProductionNetwork, n: int, y: float, seed: int, trials: int, x: float | None = None):
    """A batch's theta, or at level x its indicators theta >= x, as (start, (count, K) block) pairs.

    Each block of `_block_sizes`' B trials is filled by `_fill` and walked
    by `_failure_thresholds` when it is asked for; every block refills
    one draw piece.  The batch's limits are checked at the call, before a
    caller sizes anything by trials, and nothing of a block is held once
    it is yielded.
    """
    if trials > MAX_TRIALS:
        raise SizeError(f"{shown(trials)} trials exceed the limit of {MAX_TRIALS} per batch")
    check_int(seed, "seed", minimum=0)
    _check_uniforms(trials, net, n, y)
    block, size = _block_sizes(net, n, y, x)
    piece = _draw_piece(net, n, y, min(size, trials))
    return (
        (start, _failure_thresholds(net, *_fill(net, n, y, seed, start, min(block, trials - start), x, piece)))
        for start in range(0, trials, block)
    )


def _failure_thresholds(
    net: ProductionNetwork, theta: np.ndarray, dead: np.ndarray | None = None, stop: float = 1.0
) -> np.ndarray:
    """theta (trials, K), walked in place: product i fails at level x in trial t iff theta[t, i] < x.

    theta comes in as `_fill` lays it out, the (K, trials) supplier maxima,
    and dead as its (E, trials) dead-edge mask.  The levels of
    `net.level_plan()` are visited in order, vectorised over trials.  A
    level gathers its inputs from earlier levels and the rows of the
    products they feed at once; each round then takes one contiguous
    minimum of a prefix of those rows with the round's inputs, and the
    rows are written back.  A cyclic component then shares its least
    value when every edge operates; otherwise `_flood` spreads values
    below `stop` along its operational edges.  Entries below `stop` are
    exact; an entry at or above `stop` is only known to be so.  Given the
    bools maxima >= x, the walk returns theta >= x.  The result is a view
    of the walked array.
    """
    for level in net.level_plan():
        inputs = theta[level.sources]
        if dead is not None:  # theta < 1, so a dead input, raised by 1, never wins
            np.add(inputs, dead[level.edges], out=inputs)
        low = theta[level.fed]
        for lo, hi in zip(level.rounds, level.rounds[1:]):
            np.minimum(low[: hi - lo], inputs[lo:hi], out=low[: hi - lo])
        theta[level.fed] = low
        del inputs, low  # before the next level gathers its own
        for cycle in level.cycles:
            if dead is None:
                theta[cycle.members] = theta[cycle.members].min(axis=0)
            else:
                _flood(theta, cycle, dead, stop)
    return theta.T


def _flood(theta: np.ndarray, cycle: Cycle, dead: np.ndarray, stop: float):
    # Per trial, spread the values of one cyclic component (rows of theta)
    # along its operational edges, lowest value first, so a member keeps
    # the first value that reaches it: the least one.
    rows, starts = cycle.members, cycle.tail_starts.tolist()
    out = list(enumerate(cycle.heads.tolist()))  # (place among the cycle's edges, member fed)
    succ = [out[lo:hi] for lo, hi in zip(starts, starts[1:])]
    for t in range(theta.shape[1]):
        value = theta[rows, t].tolist()
        cut = dead[cycle.edges, t].tolist()
        seen = [False] * len(rows)
        for a in sorted((a for a in range(len(rows)) if value[a] < stop), key=value.__getitem__):
            if seen[a]:
                continue
            seen[a] = True
            stack = [a]
            while stack:
                for e, b in succ[stack.pop()]:
                    if not seen[b] and not cut[e]:
                        seen[b] = True
                        value[b] = value[a]
                        stack.append(b)
        theta[rows, t] = value


def _trial_zero(net: ProductionNetwork, cfg: PercolationConfig, levels: tuple) -> list[CascadeOutcome]:
    """Trial 0 of cfg's stream, what `default_rng(cfg.seed)` draws, at each of the ascending levels.

    It is a fill of one trial, so no block is sized.
    """
    theta, dead = _fill(net, cfg.n, cfg.y, cfg.seed, 0, 1, None, _draw_piece(net, cfg.n, cfg.y, 1))
    spontaneous = [theta[:, 0] < x for x in levels]  # before the walk overwrites the maxima
    walked = _failure_thresholds(net, theta, dead, stop=levels[-1])[0]
    return [_outcome_from_failed(walked < x, spont) for x, spont in zip(levels, spontaneous)]


def _outcome_from_failed(failed: np.ndarray, spont: np.ndarray) -> CascadeOutcome:
    z = (~failed).astype(np.int8)
    f = int(np.count_nonzero(failed))
    return CascadeOutcome(
        Z=z,
        F=f,
        S=len(failed) - f,
        spontaneous_failures=frozenset((spont.nonzero()[0] + 1).tolist()),
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
    block of survival indicators from `_theta_blocks`, drawn straight into
    the walk's layout, is reduced to its trials' failure counts before the
    next is drawn, so memory is O(B K + E) for B trials to a block, within
    TRIAL_BLOCK_BYTES.  With keep_failures=True the (trials, K)
    failure-indicator matrix is kept in the result for per-product
    statistics.
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
