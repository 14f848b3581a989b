"""Independent oracles used by the test suite.

Everything here recomputes expected values by a different route than the
library: exhaustive enumeration, chain-rule dynamic programming, dense
grid scans, probability-generating-function iteration, and a standalone
cascade simulator.  Nothing imports the modules under test except for the
ProductionNetwork container itself and the exception types.  The input
layer's references at the end are the per-row, per-pair, per-edge and
per-node implementations that the streaming and array versions replaced.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from prodnet.errors import FormatError, SizeError, ValidationError
from prodnet.network import MAX_NODES, ProductionNetwork


@dataclass
class ExactStats:
    pmf: np.ndarray  # pmf[f] = Pr[F = f]
    node_fail: np.ndarray  # per-product failure probability
    mean_f: float
    var_f: float

    def survival_prob(self, s_min: int) -> float:
        k = len(self.pmf) - 1
        if s_min > k:
            return 0.0
        return float(self.pmf[: k - s_min + 1].sum())


class CascadeTables:
    """The x-independent tables of the 2^K enumeration on one DAG, built once.

    Enumerates all 2^K failure patterns; the probability of a pattern
    factorizes along any topological order because a product fails given
    its inputs' states with probability 1 - (1-x^n)(1-y)^(#failed inputs),
    driven by draws local to that product.  The order, each product's
    failed bit and failed-input count per pattern, and the failures per
    pattern depend on the network alone, so one build serves every x.
    """

    def __init__(self, net):
        k = net.node_count
        # a simple topological order computed here, independent of the library
        indeg = {i: net.in_degree(i) for i in range(1, k + 1)}
        order, ready = [], [i for i in range(1, k + 1) if indeg[i] == 0]
        while ready:
            u = ready.pop()
            order.append(u)
            for v in net.successors(u):
                indeg[v] -= 1
                if indeg[v] == 0:
                    ready.append(v)
        assert len(order) == k, "exact_cascade_stats needs a DAG"

        # one byte per entry: every table holds 0/1 bits or counts below K,
        # which numpy widens to the same float64 values where they meet floats
        masks = np.arange(2**k, dtype=np.int64)
        # column v-1 = product v failed
        self.failed_bits = ((masks[:, None] >> np.arange(k)) & 1).astype(np.uint8)
        self.factors = []  # per product in order: (failed in the pattern?, its failed inputs)
        for v in order:
            preds = [j - 1 for j in net.predecessors(v)]
            c = self.failed_bits[:, preds].sum(axis=1, dtype=np.uint8)
            self.factors.append((self.failed_bits[:, v - 1] == 1, c))
        self.f_of_mask = self.failed_bits.sum(axis=1, dtype=np.int64)

    def stats(self, x: float, y: float = 1.0, n: int = 1) -> ExactStats:
        """Exact joint-percolation statistics at (x, y, n) by chain-rule DP."""
        k = self.failed_bits.shape[1]
        xn = x**n
        prob = np.ones(2**k)
        for failed, c in self.factors:
            pf = 1.0 - (1.0 - xn) * (1.0 - y) ** c
            prob *= np.where(failed, pf, 1.0 - pf)
        pmf = np.bincount(self.f_of_mask, weights=prob, minlength=k + 1)
        node_fail = prob @ self.failed_bits
        fs = np.arange(k + 1)
        mean = float((pmf * fs).sum())
        var = float((pmf * fs**2).sum() - mean**2)
        return ExactStats(pmf=pmf, node_fail=node_fail, mean_f=mean, var_f=var)


def exact_cascade_stats(net, x: float, y: float = 1.0, n: int = 1) -> ExactStats:
    """Exact joint-percolation statistics on a DAG, enumerating its 2^K failure patterns."""
    return CascadeTables(net).stats(x, y, n)


def _sync_propagate(net, spont: set[int], op_edges: set[tuple[int, int]]) -> set[int]:
    # synchronous sweeps of the failure rule until a fixed point; an
    # algorithmic route distinct from the library's stack-based reachability
    failed = set(spont)
    while True:
        new = set(failed)
        for j, i in op_edges:
            if j in failed:
                new.add(i)
        if new == failed:
            return failed
        failed = new


def brute_force_stats(net, x: float, y: float = 1.0, n: int = 1) -> ExactStats:
    """Exact statistics by enumerating supplier and edge outcomes.

    Valid on cyclic graphs too; cost 2^K * 2^|E|, so keep K and |E| small.
    """
    k = net.node_count
    xn = x**n
    edges = list(net.edges)
    pmf = np.zeros(k + 1)
    node_fail = np.zeros(k)
    edge_pattern_count = 1 if y >= 1.0 else 2 ** len(edges)
    for spont_bits in range(2**k):
        spont = {i for i in range(1, k + 1) if (spont_bits >> (i - 1)) & 1}
        w_spont = xn ** len(spont) * (1.0 - xn) ** (k - len(spont))
        if w_spont == 0.0:
            continue
        for edge_bits in range(edge_pattern_count):
            if y >= 1.0:
                op = set(edges)
                w_edges = 1.0
            else:
                op = {e for idx, e in enumerate(edges) if (edge_bits >> idx) & 1}
                w_edges = y ** len(op) * (1.0 - y) ** (len(edges) - len(op))
            w = w_spont * w_edges
            if w == 0.0:
                continue
            failed = _sync_propagate(net, spont, op)
            pmf[len(failed)] += w
            for v in failed:
                node_fail[v - 1] += w
    fs = np.arange(k + 1)
    mean = float((pmf * fs).sum())
    var = float((pmf * fs**2).sum() - mean**2)
    return ExactStats(pmf=pmf, node_fail=node_fail, mean_f=mean, var_f=var)


def toposort_propagate(net, spont: np.ndarray, op_mask=None) -> np.ndarray:
    """Failure propagation by a single topological-order pass (DAGs only)."""
    k = net.node_count
    indeg = {i: net.in_degree(i) for i in range(1, k + 1)}
    order, ready = [], sorted(i for i in range(1, k + 1) if indeg[i] == 0)
    while ready:
        u = ready.pop(0)
        order.append(u)
        for v in net.successors(u):
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    assert len(order) == k
    operational = set(net.edges) if op_mask is None else {
        e for e, ok in zip(net.edges, op_mask) if ok
    }
    failed = np.array(spont, dtype=bool).copy()
    for v in order:
        if failed[v - 1]:
            continue
        for j in net.predecessors(v):
            if failed[j - 1] and (j, v) in operational:
                failed[v - 1] = True
                break
    return failed


def supplier_maxima(rng, node_count: int, n: int) -> np.ndarray:
    """Per-product max of the n supplier uniforms, a trial's first draw."""
    return rng.random((node_count, n)).max(axis=1)


def trial_rng(net, n: int, y: float, seed: int, t: int):
    """A generator at trial t of a batch: `default_rng(seed)` past t trials' uniforms.

    A trial reads K n supplier uniforms and, when y < 1, E edge uniforms.
    """
    bits = np.random.PCG64(seed)
    bits.advance(t * (net.node_count * n + (net.edge_count if y < 1.0 else 0)))
    return np.random.Generator(bits)


def _kahn_order(net) -> list[int]:
    # a topological order computed here, independent of the library's plan
    indeg = {i: net.in_degree(i) for i in range(1, net.node_count + 1)}
    order, ready = [], [i for i in indeg if indeg[i] == 0]
    while ready:
        u = ready.pop()
        order.append(u)
        for v in net.successors(u):
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    assert len(order) == net.node_count, "needs a DAG"
    return order


def katz_substitution(net, y: float, b, reverse: bool = False) -> np.ndarray:
    """(I - y A^T)^{-1} b, or (I - y A)^{-1} b when reverse, on a DAG.

    Per-product forward substitution: in topological order (reversed when
    reverse), g_i = b_i + y * (sum of g over the inputs of i, or over the
    products i feeds when reverse), the sum taken left to right in
    ascending id.
    """
    order = _kahn_order(net)
    g = [0.0] * net.node_count
    for v in order[::-1] if reverse else order:
        terms = net.successors(v) if reverse else net.predecessors(v)
        g[v - 1] = float(b[v - 1]) + y * sum(g[j - 1] for j in terms)
    return np.array(g)


def dag_beta_pass(net, x: float, y: float, n: int = 1) -> np.ndarray:
    """Union-bound program optimum on a DAG, one product at a time.

    beta_i = min(1, x^n + y * beta_j + ... over the inputs j of i in
    ascending id), accumulated left to right from x^n.
    """
    xn = x**n
    beta = np.zeros(net.node_count)
    for v in _kahn_order(net):
        acc = xn
        for j in net.predecessors(v):
            acc += y * beta[j - 1]
        beta[v - 1] = min(1.0, acc)
    return beta


def exact_survival_prob(net, x: float, n: int, s_min: int) -> float:
    """Exact Pr[S >= s_min] under pure node percolation."""
    return exact_cascade_stats(net, x, 1.0, n).survival_prob(s_min)


def exact_resilience(net, epsilon: float, n: int = 1, tol: float = 1e-12) -> float:
    """Exact resilience by bisection on the exact survival probability, one table build per call."""
    tables = CascadeTables(net)
    return _bisected_resilience(
        net.node_count, epsilon, lambda x, s_min: tables.stats(x, 1.0, n).survival_prob(s_min), tol
    )


def tree_survivor_pmf(m: int, D: int, x: float, n: int = 1) -> np.ndarray:
    """Exact pmf of the survivor count S of the complete backward m-ary tree of depth D at y = 1.

    Sibling subtrees share no draws, so a subtree's law of (root alive?,
    survivors) follows from one child's by m-fold convolution, a tier at a
    time from the leaves.  With q = x^n, a leaf lives with 1 survivor
    (1 - q) or dies with 0 (q).  A node lives iff all its inputs live and
    it escapes its own failure (1 - q), adding itself to its inputs'
    survivors; otherwise it dies with its inputs' survivors.  The cost is
    O(K^2) per x, where the 2^K enumeration costs O(K 2^K).
    """
    q = x**n
    alive, dead = np.array([0.0, 1.0 - q]), np.array([q, 0.0])  # indexed by survivors
    for _ in range(D - 1):
        inputs_alive, inputs_any = np.ones(1), np.ones(1)
        for _ in range(m):
            inputs_alive = np.convolve(inputs_alive, alive)
            inputs_any = np.convolve(inputs_any, alive + dead)
        alive = np.concatenate(([0.0], (1.0 - q) * inputs_alive))
        dead = np.concatenate((inputs_any - (1.0 - q) * inputs_alive, [0.0]))
    return alive + dead


def tree_resilience(m: int, D: int, epsilon: float, n: int = 1, tol: float = 1e-12) -> float:
    """Exact resilience of the complete backward m-ary tree, bisected on `tree_survivor_pmf`."""
    k = D if m == 1 else (m**D - 1) // (m - 1)
    return _bisected_resilience(k, epsilon, lambda x, s_min: float(tree_survivor_pmf(m, D, x, n)[s_min:].sum()), tol)


def _bisected_resilience(k: int, epsilon: float, survival, tol: float) -> float:
    """The x, to within tol, where survival(x, s_min) = Pr[S >= s_min] falls below 1 - 1/k; 1 if it never does."""
    theta = 1.0 - 1.0 / k
    s_min = math.ceil((1.0 - epsilon) * k - 1e-9)
    p = lambda x: survival(x, s_min)
    if p(1.0) >= theta:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if p(mid) >= theta:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# Single-seed cascades on the random DAG (power-law model)
# ---------------------------------------------------------------------------


def exact_seeded_cascade_pmf(K: int, p: float, x: float, n: int = 1) -> np.ndarray:
    """Exact finite-K cascade-size pmf from the two-case recurrence.

    P[k][f] is the probability of f distinct failures in a k-node random
    DAG conditioned on a spontaneous failure at its first node; the model
    averages over a uniformly chosen seed node that fails with
    probability x^n.
    """
    xn = x**n
    big_p = np.zeros((K + 1, K + 1))
    big_p[1, 1] = 1.0
    for k in range(2, K + 1):
        for f in range(1, k + 1):
            hit = (1.0 - (1.0 - p) ** (f - 1) * (1.0 - xn)) * big_p[k - 1, f - 1]
            miss = (1.0 - p) ** f * (1.0 - xn) * big_p[k - 1, f]
            big_p[k, f] = hit + miss
    pmf = xn / K * big_p[1 : K + 1].sum(axis=0)
    pmf[0] = 1.0 - pmf.sum()
    return pmf


def mc_seeded_cascade(K: int, p: float, x: float, n: int, trials: int, seed: int) -> np.ndarray:
    """Simulated cascade sizes for the single-seed random-DAG model.

    A uniformly chosen node fails spontaneously with probability x^n; each
    later node joins the cascade if an (independently present) edge from a
    failed node hits it or if it fails spontaneously itself.  Edges are
    sampled lazily, which is exact because edges out of surviving nodes
    are never queried.
    """
    rng = np.random.default_rng(seed)
    xn = x**n
    seed_pos = rng.integers(1, K + 1, size=trials)
    spont = rng.random(trials) < xn
    sizes = np.zeros(trials, dtype=np.int64)
    idx = np.flatnonzero(spont)
    c = np.ones(idx.size, dtype=np.int64)
    s = seed_pos[idx]
    for t in range(1, K + 1):
        after = t > s
        if not after.any():
            continue
        u = rng.random(idx.size)
        join = 1.0 - (1.0 - p) ** c * (1.0 - xn)
        c += after & (u < join)
    sizes[idx] = c
    return sizes


def naive_seeded_cascade(K: int, p: float, x: float, n: int, trials: int, seed: int) -> np.ndarray:
    """Reference implementation sampling the whole random DAG per trial."""
    rng = np.random.default_rng(seed)
    xn = x**n
    sizes = np.zeros(trials, dtype=np.int64)
    for t in range(trials):
        s = int(rng.integers(1, K + 1))
        if rng.random() >= xn:
            continue
        failed = [False] * (K + 1)
        failed[s] = True
        count = 1
        for node in range(s + 1, K + 1):
            hit = any(failed[l] and rng.random() < p for l in range(s, node))
            if hit or rng.random() < xn:
                failed[node] = True
                count += 1
        sizes[t] = count
    return sizes


# ---------------------------------------------------------------------------
# Branching-process oracles
# ---------------------------------------------------------------------------


def pgf_extinction_depth_pmf(dist, k_max: int) -> np.ndarray:
    """Exact Pr[deepest nonempty generation = k] by iterating the pgf.

    Entry k (1-based) is G^(k)(0) - G^(k-1)(0) with G^(0)(0) = 0.
    """
    out = np.zeros(k_max + 1)
    prev = 0.0
    for k in range(1, k_max + 1):
        cur = float(dist.pgf(prev))
        out[k] = cur - prev
        prev = cur
    return out


def grid_gw_upper(mu: float, tau: int, eps: float, n: int, points: int = 1_000_001):
    """Smallest x on a dense grid satisfying the expected-survivor condition."""
    hi = 1.0 if mu < 1 else (1.0 - 1.0 / mu) ** (1.0 / n)
    xs = np.linspace(0.0, hi, points)
    z = 1.0 - xs**n
    big_n = float(tau) if mu == 1 else (mu**tau - 1.0) / (mu - 1.0)
    r = mu * z
    near1 = np.abs(r - 1.0) < 1e-13
    s = np.where(near1, z * tau, z * (r**tau - 1.0) / np.where(near1, 1.0, r - 1.0))
    ok = s <= (1.0 - eps) / 2.0 * big_n
    return float(xs[int(np.argmax(ok))]) if ok.any() else None


def grid_gw_lower(mu: float, tau: int, eps: float, n: int, points: int = 1_000_001):
    """Largest x on a dense grid satisfying the expected-failure condition."""
    hi = 1.0 if mu < 1 else (1.0 - 1.0 / mu) ** (1.0 / n)
    xs = np.linspace(0.0, hi, points)
    z = 1.0 - xs**n
    big_n = float(tau) if mu == 1 else (mu**tau - 1.0) / (mu - 1.0)
    r = mu * z
    near1 = np.abs(r - 1.0) < 1e-13
    s = np.where(near1, z * tau, z * (r**tau - 1.0) / np.where(near1, 1.0, r - 1.0))
    ok = big_n - s <= eps
    idx = np.flatnonzero(ok)
    return float(xs[idx[-1]]) if idx.size else None


# ---------------------------------------------------------------------------
# Small-network helpers
# ---------------------------------------------------------------------------


def all_subsets(items, max_size=None):
    items = list(items)
    top = len(items) if max_size is None else max_size
    for r in range(top + 1):
        yield from itertools.combinations(items, r)


# -- the input layer, one row, pair or edge at a time ------------------------


def canonical_edges(k: int, edges) -> tuple:
    """Sorted (j, i) edges after the per-edge checks in input order.

    The first pair outside 1..k, self-loop or repeat of an earlier pair
    raises ValidationError.
    """
    edge_list, seen = [], set()
    for e in edges:
        j, i = int(e[0]), int(e[1])
        if not (1 <= j <= k and 1 <= i <= k):
            raise ValidationError(f"edge ({j}, {i}) references a node outside 1..{k}")
        if j == i:
            raise ValidationError(f"self-loop on node {j} is not allowed")
        if (j, i) in seen:
            raise ValidationError(f"duplicate edge ({j}, {i})")
        seen.add((j, i))
        edge_list.append((j, i))
    return tuple(sorted(edge_list))


def rdag_edges(K: int, p: float, seed: int) -> tuple:
    """Edges of the random DAG from one draw over all K(K-1)/2 pairs of `np.triu_indices`."""
    rng = np.random.default_rng(seed)
    if K < 2:
        return ()
    lo, hi = np.triu_indices(K, k=1)
    keep = rng.random(lo.shape[0]) < p
    return tuple(zip((lo[keep] + 1).tolist(), (hi[keep] + 1).tolist()))


def io_table_edges(path, threshold: float = 0.0) -> tuple[int, tuple]:
    """(K, sorted edges) of an input-output table read whole and converted row by row.

    Raises FormatError as the parser does: a missing matrix, then a
    non-square one, then the first ragged row or non-numeric
    off-diagonal cell in row order.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    if len(rows) < 2:
        raise FormatError(f"{path}: expected a labeled square matrix")
    k = len(rows[0]) - 1
    if len(rows) - 1 != k:
        raise FormatError(f"{path}: matrix is not square ({len(rows) - 1} rows, {k} columns)")
    edges = []
    for r, row in enumerate(rows[1:]):
        cells = row[1:]
        if len(cells) != k:
            raise FormatError(f"{path}: row {r + 1} has {len(cells)} cells, expected {k}")
        cells[r] = "0"
        try:
            values = np.array(cells, dtype=np.float64)
        except ValueError:
            c = next(c for c, cell in enumerate(cells) if not _parses_as_float(cell))
            raise FormatError(f"{path}: non-numeric cell at row {r + 1}, col {c + 1}") from None
        edges += [(r + 1, c + 1) for c in np.flatnonzero(values > threshold).tolist() if c != r]
    return k, tuple(edges)


def _parses_as_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def parallel_reference(K: int, m: int, d: int, seed: int) -> ProductionNetwork:
    """`generate_parallel` with its edges appended as tuples and its tiers set one by one."""
    rho = -(-m * K // d)  # ceil
    rng = np.random.default_rng(seed)
    capacity = np.full(rho, d, dtype=np.int64)
    edges = []
    tiers = {r: 1 for r in range(1, rho + 1)}
    for c in range(K):
        product = rho + c + 1
        tiers[product] = 2
        keys = rng.random(rho)
        # stable sort on (remaining capacity desc, random key) picks the m
        # least-loaded raws with seeded tie-breaking
        chosen = np.lexsort((keys, -capacity))[:m]
        if capacity[chosen[-1]] <= 0:
            raise AssertionError("parallel wiring ran out of raw capacity")
        capacity[chosen] -= 1
        for r in sorted(int(r) + 1 for r in chosen):
            edges.append((r, product))
    return ProductionNetwork(rho + K, edges, tiers=tiers)


def backward_tree_reference(m: int, D: int) -> ProductionNetwork:
    """The complete m-ary supply tree built tier by tier, one product and edge at a time."""
    total = D if m == 1 else (m**D - 1) // (m - 1)
    edges = []
    tiers = {}
    tier_start = 1
    width = 1
    for d in range(1, D + 1):
        for v in range(tier_start, tier_start + width):
            tiers[v] = d
        if d < D:
            child_start = tier_start + width
            for idx, parent in enumerate(range(tier_start, tier_start + width)):
                for c in range(m):
                    edges.append((child_start + idx * m + c, parent))
        tier_start += width
        width *= m
    return ProductionNetwork(total, edges, tiers=tiers)


def gw_tree_reference(dist, max_depth: int, seed: int):
    """(network, extinction_depth, truncated) of a branching tree grown one child at a time.

    Keeps the original size rule, which refuses a tree of exactly
    MAX_NODES products.
    """
    rng = np.random.default_rng(seed)
    edges = []
    tiers = {1: 1}
    level = [1]
    next_id = 2
    depth = 1
    truncated = False
    while level:
        if depth == max_depth:
            truncated = True
            break
        counts = dist.sample(rng, len(level))
        if next_id + int(counts.sum()) > MAX_NODES:
            raise SizeError(f"branching tree exceeded the limit of {MAX_NODES} nodes")
        nxt = []
        for parent, c in zip(level, counts):
            for _ in range(int(c)):
                edges.append((parent, next_id))
                tiers[next_id] = depth + 1
                nxt.append(next_id)
                next_id += 1
        if not nxt:
            break
        level = nxt
        depth += 1
    net = ProductionNetwork(next_id - 1, edges, tiers=tiers)
    return net, None if truncated else depth, truncated


def trellis_reference(w: int, D: int, p: float, seed: int) -> ProductionNetwork:
    """The random trellis with its tier labels set one product at a time."""
    rng = np.random.default_rng(seed)
    tiers = {}
    for d in range(1, D + 1):
        base = (d - 1) * w
        for v in range(base + 1, base + w + 1):
            tiers[v] = d
    edges = [np.zeros((0, 2), dtype=np.int64)]
    for d in range(1, D):
        a, b = np.nonzero(rng.random((w, w)) < p)
        edges.append(np.column_stack((a + (d - 1) * w, b + d * w)) + 1)
    return ProductionNetwork(w * D, np.concatenate(edges), tiers=tiers)
