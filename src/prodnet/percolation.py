"""Single trials and batches of the node / joint percolation process.

Every product has n suppliers that fail independently with probability x;
a product fails spontaneously when all n fail.  Under joint percolation
each edge additionally stays operational with probability y.  A product
fails iff it is spontaneous or reachable from a spontaneous product along
operational edges, which closes the failure-propagation rule on cyclic
graphs as well.

Randomness layout (the coupling contract): each trial owns a generator
seeded from its own seed; it first draws a (K, n) supplier-uniform block
(row i-1 belongs to product i), then one uniform per edge in canonical
sorted edge order.  A supplier fails at level x iff its uniform is < x,
and an edge is operational iff its uniform is < y.  Evaluating two levels
x1 <= x2 on the same draws therefore yields nested failure sets.

Under that layout product i fails at level x iff theta[i] < x, where
theta[i] is the least supplier maximum over i and every product that
reaches i along operational edges.  Every entry point draws, computes
theta in one pass over a block of trials, and compares it with its
levels.  The pass walks `net.level_plan()`: per level it gathers the
inputs from earlier levels and the rows of the products they feed, takes
one contiguous minimum per round of inputs, each round feeding a prefix
of those rows, and writes the rows back.  A batch walks its trials in
blocks of B, sized so that a block's draws, theta and its gather of the
widest level's inputs take about TRIAL_BLOCK_BYTES, and keeps only each
trial's reduction; so it holds O(B K + E) memory, not O(trials K), and
only keep_failures=True keeps a (trials, K) matrix.

Seeding contract, fixed because every seeded output depends on it: a
single trial draws from `default_rng(seed)`, and trial t of a batch from
`default_rng(derive_subseed(seed, t))`, so batches are reproducible and
partitionable by trial index; a batch's blocks are such a partition.
A single trial does just that; a batch seeds no generator per trial.
`_subseeds` and `_pcg64_states` recompute numpy's SeedSequence hash and
PCG64 seeding bit for bit, for a whole block at once in array
arithmetic, and `_batch_draws` then takes numpy's doubles one of two
ways.  Stepping runs one round per uniform, advancing every trial's
128-bit LCG state together in uint64 words and taking PCG64's XSL-RR
output, so a round costs a fixed ~30 array operations however few
trials there are.  The generator route loads each trial's state into
one reused numpy generator, which costs a few microseconds per trial
and then fills the trial's uniforms in C; it stays because it wins once
a trial needs many uniforms (hundreds at a thousand trials).
`_stepping_is_cheaper` picks the cheaper route for each block from
measured per-call and per-uniform costs; both give the same bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeError, check_int, check_real
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

    def outcomes(self) -> list[tuple[int, int]]:
        return list(zip(self.F.tolist(), self.S.tolist()))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128) as uint64
# words, the low word also as 32-bit limbs.
_MULT_HI, _MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_MULT_LO1, _MULT_LO0 = _MULT_LO >> np.uint64(32), _MULT_LO & np.uint64(_MASK32)
MAX_TRIALS = 2**32  # a batch hashes each trial index as one 32-bit word
_MAX_UNIFORMS = np.iinfo(np.intp).max // 8  # doubles in numpy's largest array
# Draw-route costs in seconds: stepping pays per round and per trial-round,
# the generator per trial and per uniform (see `_stepping_is_cheaper`).
_STEP_ROUND_S, _STEP_DRAW_S = 30e-6, 17e-9
_LOAD_TRIAL_S, _FILL_DRAW_S = 4.2e-6, 7e-9
TRIAL_BLOCK_BYTES = 8 << 20  # draws and theta that a batch holds per block of trials


def _seed_words(value, name: str = "seed") -> list[int]:
    """SeedSequence's entropy words of a nonnegative int: 32 bits each, low first.

    The check refuses negative seeds, for which the split below would
    never end.
    """
    value = check_int(value, name, minimum=0)
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_words(entropy: list, count: int) -> list:
    """The first `count` uint32 words of `SeedSequence(entropy).generate_state`.

    Each entropy word is a Python int or a uint32 array holding that word
    for every trial of a batch; the result has the same form.  Every
    product is masked to 32 bits, which keeps Python ints in uint32 range
    and is a no-op on uint32 arrays, so one batch costs a fixed number of
    array operations and a single seed costs Python int arithmetic only.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const  # never in place: entropy arrays are hashed again
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
        return value ^ value >> 16

    # a missing pool word hashes as 0, so [w] and [w, 0] give one pool
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    const = _INIT_B
    out = []
    for i in range(count):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        out.append(value ^ value >> 16)
    return out


def derive_subseed(seed: int, index: int) -> int:
    """Stable 64-bit mix of (seed, trial index) used to seed trial draws.

    Equals `SeedSequence((seed, index)).generate_state(1, np.uint64)[0]`.
    """
    lo, hi = _hash_words(_seed_words(seed) + _seed_words(index, "index"), 2)
    return lo | hi << 32


def _check_trials(trials: int):
    if trials > MAX_TRIALS:
        raise SizeError(f"{trials} trials exceed the limit of {MAX_TRIALS} per batch")


def _subseeds(seed: int, count: int, start: int = 0) -> np.ndarray:
    """`derive_subseed(seed, t)` for t in range(start, start + count), as one uint64 array."""
    _check_trials(start + count)
    lo, hi = _hash_words(_seed_words(seed) + [np.arange(start, start + count, dtype=np.uint32)], 2)
    return lo.astype(np.uint64) | hi.astype(np.uint64) << 32


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * MULT + inc mod 2**128, on uint64 high and low words.

    The low words' 128-bit product is assembled from 32-bit limbs, whose
    products fit in uint64; every other product is wanted mod 2**64.
    """
    lo0, lo1 = lo & _MASK32, lo >> 32
    cross = lo0 * _MULT_LO1 + (lo0 * _MULT_LO0 >> 32)
    carry = lo1 * _MULT_LO0 + (cross & _MASK32)
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = lo1 * _MULT_LO1 + (cross >> 32) + (carry >> 32)
    new_hi += hi * _MULT_LO + lo * _MULT_HI + inc_hi
    new_hi += new_lo < inc_lo
    return new_hi, new_lo


def _pcg64_double(hi, lo, out):
    """numpy's `next_double` of PCG64 states: XSL-RR output, top 53 bits, into out."""
    bits = hi ^ lo
    rot = hi >> 58
    bits = bits >> rot | bits << (-rot & 63)
    return np.multiply(bits >> 11, 2.0**-53, out=out)


def _pcg64_states(seeds: np.ndarray) -> tuple[np.ndarray, ...]:
    """State and inc of `PCG64(s)` per uint64 seed, as (state_hi, state_lo, inc_hi, inc_lo).

    `generate_state(4, np.uint64)` gives initstate and initseq (high word
    first); PCG64's srandom sets inc = initseq << 1 | 1 and state = 0,
    steps, adds initstate and steps again.
    """
    # a 64-bit seed's entropy is [lo, hi]; [w] hashes as [w, 0]
    entropy = [(seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32)]
    w = _hash_words(entropy, 8)
    init_hi, init_lo, seq_hi, seq_lo = (
        w[i].astype(np.uint64) | w[i + 1].astype(np.uint64) << 32 for i in range(0, 8, 2)
    )
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    zero = np.zeros_like(seeds)
    hi, lo = _pcg64_step(zero, zero, inc_hi, inc_lo)
    lo = lo + init_lo
    hi = hi + init_hi + (lo < init_lo)
    return (*_pcg64_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)


def supplier_maxima(rng: np.random.Generator, node_count: int, n: int) -> np.ndarray:
    """Per-product max of the n supplier uniforms (the first trial draw).

    Product i is a spontaneous failure at level x iff this maximum is < x.
    """
    return rng.random((node_count, n)).max(axis=1)


@functools.cache
def _zero_seed():
    # seeds PCG64 without SeedSequence's hash of a state every trial then
    # overwrites; built on first use, as numpy.random loads only then
    class ZeroSeed(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype=dtype)

    return ZeroSeed()


def _stepping_is_cheaper(trials: int, rounds: int) -> bool:
    """Whether stepping `trials` states through `rounds` uniforms beats a generator per trial."""
    stepping = rounds * (_STEP_ROUND_S + _STEP_DRAW_S * trials)
    generator = trials * (_LOAD_TRIAL_S + _FILL_DRAW_S * rounds)
    return stepping < generator


def _check_uniforms(trials: int, k: int, n: int):
    if trials * k * n > _MAX_UNIFORMS:
        raise SizeError(f"{trials} trials of {k} x {n} supplier uniforms exceed numpy's array size")


def _trial_draws(
    net: ProductionNetwork, n: int, y: float, seed: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """One trial's draws from `default_rng(seed)`, as a batch of one."""
    _check_uniforms(1, net.node_count, n)
    rng = np.random.default_rng(seed)
    maxima = supplier_maxima(rng, net.node_count, n)[None]
    return maxima, None if y >= 1.0 else (rng.random(net.edge_count) < y)[None]


def _trial_bytes(net: ProductionNetwork, n: int, y: float) -> int:
    """Bytes that a batch holds per trial of a block.

    They are the trial's (K, n) supplier uniforms, two (K,) copies of its
    maxima or theta, theta's gather of the widest level's inputs and, when
    y < 1, its operational mask and the mask's transpose.
    """
    widest = max(len(level.sources) for level in net.level_plan())
    return 8 * (net.node_count * (n + 2) + widest) + (2 * net.edge_count if y < 1.0 else 0)


def _trial_blocks(net: ProductionNetwork, n: int, y: float, seed: int, trials: int):
    """A batch's trials as (start, count) blocks of about TRIAL_BLOCK_BYTES.

    The batch's limits are checked at once; the blocks are formed lazily.
    """
    _check_trials(trials)
    _seed_words(seed)
    _check_uniforms(trials, net.node_count, n)
    size = max(1, TRIAL_BLOCK_BYTES // _trial_bytes(net, n, y))
    return ((start, min(size, trials - start)) for start in range(0, trials, size))


def _batch_draws(
    net: ProductionNetwork, n: int, y: float, seed: int, trials: int, start: int = 0
) -> tuple[np.ndarray, np.ndarray | None]:
    """Supplier maxima (trials, K) and, when y < 1, the operational mask (trials, E).

    Row t holds what `default_rng(derive_subseed(seed, start + t))` draws;
    the route that `_stepping_is_cheaper` picks takes numpy's doubles from
    the trials' PCG64 states.
    """
    k, e = net.node_count, net.edge_count
    seeds = _subseeds(seed, trials, start)
    _check_uniforms(trials, k, n)
    states = _pcg64_states(seeds)
    edge_rounds = 0 if y >= 1.0 else e
    draws = _stepped_draws if _stepping_is_cheaper(trials, k * n + edge_rounds) else _generator_draws
    maxima, op_mask = draws(k, n, edge_rounds, y, *states)
    return maxima, op_mask if y < 1.0 else None


def _stepped_draws(k: int, n: int, edge_rounds: int, y: float, hi, lo, inc_hi, inc_lo):
    # round r advances every trial to its (r+1)-th uniform; supplier rounds
    # fold into the product's maxima, edge rounds fill one mask column
    maxima = np.empty((k, len(hi)))
    op_mask = np.empty((edge_rounds, len(hi)), dtype=bool)
    u = np.empty(len(hi))
    for r in range(k * n):
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        if r % n:
            np.maximum(maxima[r // n], _pcg64_double(hi, lo, u), out=maxima[r // n])
        else:
            _pcg64_double(hi, lo, maxima[r // n])
    for r in range(edge_rounds):
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        np.less(_pcg64_double(hi, lo, u), y, out=op_mask[r])
    return maxima.T, op_mask.T


def _generator_draws(k: int, n: int, edge_rounds: int, y: float, hi, lo, inc_hi, inc_lo):
    # one reused generator takes each trial's state and fills the trial's
    # (K, n) supplier block, then its edge uniforms
    uniforms = np.empty((len(hi), k, n))
    op_mask = np.empty((len(hi), edge_rounds), dtype=bool)
    edge_uniforms = np.empty(edge_rounds)
    bits = np.random.PCG64(_zero_seed())  # every trial overwrites this state
    rng = np.random.Generator(bits)
    states = zip(hi.tolist(), lo.tolist(), inc_hi.tolist(), inc_lo.tolist())
    for t, (s_hi, s_lo, i_hi, i_lo) in enumerate(states):
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        rng.random(out=uniforms[t])
        if edge_rounds:
            rng.random(out=edge_uniforms)
            np.less(edge_uniforms, y, out=op_mask[t])
    # a max over the short supplier axis is slow; n - 1 strided maxima into
    # the first supplier's uniforms, which nothing reads again, are not
    maxima = uniforms[:, :, 0]
    for j in range(1, n):
        np.maximum(maxima, uniforms[:, :, j], out=maxima)
    return maxima, op_mask


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
    maxima, op_mask = _trial_draws(net, cfg.n, cfg.y, cfg.seed)
    theta = _failure_thresholds(net, maxima, op_mask, stop=cfg.x)
    return _outcome_from_failed(theta[0] < cfg.x, maxima[0] < cfg.x)


def run_batch(
    net: ProductionNetwork, cfg: PercolationConfig, trials: int, keep_failures: bool = False
) -> BatchResult:
    """Run independent trials with per-trial derived seeds.

    Trial t is exactly `run_trial` with seed `derive_subseed(cfg.seed, t)`,
    so batches can be split and recombined by trial index.  The trials
    are drawn and reduced to their failure counts in blocks of about
    TRIAL_BLOCK_BYTES, so memory is O(B K + E) for B trials to a block.
    With keep_failures=True the (trials, K) failure-indicator matrix is
    kept in the result for per-product statistics.
    """
    trials = check_int(trials, "trials")
    k = net.node_count
    blocks = _trial_blocks(net, cfg.n, cfg.y, cfg.seed, trials)
    f_counts = np.empty(trials, dtype=np.int64)
    failures = np.empty((trials, k), dtype=bool) if keep_failures else None
    for start, count in blocks:
        maxima, op_mask = _batch_draws(net, cfg.n, cfg.y, cfg.seed, count, start)
        failed = _failure_thresholds(net, maxima, op_mask, stop=cfg.x) < cfg.x
        f_counts[start : start + count] = failed.sum(axis=1)
        if keep_failures:
            failures[start : start + count] = failed
        del maxima, op_mask, failed  # before the next block is drawn
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
    maxima, op_mask = _trial_draws(net, cfg.n, cfg.y, cfg.seed)
    theta = _failure_thresholds(net, maxima, op_mask, stop=x2)
    return tuple(_outcome_from_failed(theta[0] < x, maxima[0] < x) for x in (x1, x2))
