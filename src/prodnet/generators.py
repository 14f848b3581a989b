"""Seeded generators for the production-network architectures under study.

All generators are pure functions of their parameters and seed and emit
acyclic networks with dense ids assigned in generation order.  Each tier
or generation is a range of consecutive ids, so a network is built from
id arrays in O(K + E) memory, and the random streams are unchanged: each
generator draws the same numbers in the same order as its per-node form.
The random DAG and the trellis keep their Bernoulli edges through one
sampler, `_bernoulli_positions`: it still draws one double per candidate
edge, but RDAG_BLOCK at a time, so the draws hold O(E + RDAG_BLOCK)
memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import INT64_MAX, ParameterError, allocate, check_count, check_int, check_real, shown
from .network import ProductionNetwork, check_node_count

RDAG_BLOCK = 1 << 20  # doubles per draw in _bernoulli_positions: 8 MB


class BranchingDistribution:
    """Offspring distribution for the branching-process generator.

    Supported kinds: ``point`` (a fixed integer number of children),
    ``binomial`` (k trials, success probability p), and ``poisson``
    (rate mu).  The mean is derived from the parameters.  A point mass
    is held as k = value trials that always succeed (p = 1).  Counts are
    drawn as int64, so k may be at most INT64_MAX and mu at most 9.2e18.
    """

    def __init__(self, kind: str, **params):
        self.kind = kind
        self.params = dict(params)
        try:
            if kind == "point":
                self._k, self._p = check_count(params["value"], "point-mass value", minimum=0), 1.0
                self._mean = float(self._k)
            elif kind == "binomial":
                self._k, self._p = check_count(params["k"], "k"), check_real(params["p"], "p")
                self._mean = self._k * self._p
            elif kind == "poisson":  # numpy draws int64 counts only up to rates near 9.22e18
                self._mu = check_real(params["mu"], "poisson rate", "[0, 9.2e18]")
                self._mean = self._mu
            else:
                raise ParameterError(f"unknown branching distribution kind {kind!r}")
        except KeyError as missing:
            raise ParameterError(f"{kind} distribution needs the parameter {missing}") from None

    @classmethod
    def point(cls, value: int) -> "BranchingDistribution":
        return cls("point", value=value)

    @classmethod
    def binomial(cls, k: int, p: float) -> "BranchingDistribution":
        return cls("binomial", k=k, p=p)

    @classmethod
    def poisson(cls, mu: float) -> "BranchingDistribution":
        return cls("poisson", mu=mu)

    @property
    def mean(self) -> float:
        return self._mean

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw `size` independent offspring counts."""
        if self.kind == "point":
            return np.full(size, self._k, dtype=np.int64)
        if self.kind == "binomial":
            return rng.binomial(self._k, self._p, size=size).astype(np.int64)
        return rng.poisson(self._mu, size=size).astype(np.int64)

    def level_total(self, rng: np.random.Generator, parents) -> np.ndarray:
        """Total offspring of `parents` independent nodes, elementwise.

        Uses additivity (sums of iid binomials/poissons stay in family) so
        a whole generation needs a single draw per population entry.  For
        point and binomial kinds, k times the largest entry must fit an int64.
        """
        parents = np.asarray(parents, dtype=np.int64)
        if self.kind == "poisson":
            return rng.poisson(self._mu * parents).astype(np.int64)
        most = int(parents.max()) if parents.size else 0
        if self._k * most > INT64_MAX:
            raise ParameterError(
                f"{most} parents of k = {self._k} trials each exceed the int64 limit {INT64_MAX}"
            )
        if self.kind == "point":
            return parents * self._k
        return rng.binomial(self._k * parents, self._p).astype(np.int64)

    def pgf(self, eta):
        """Probability generating function E[eta^xi].

        A scalar eta is evaluated as a 1-element array, so it gets the same
        bits as the same eta inside an array (numpy's scalar power is libm's
        pow, which can differ from its array loop in the last bit).
        """
        eta = np.asarray(eta, dtype=np.float64)
        flat = eta.reshape(-1)
        if self.kind == "poisson":
            out = np.exp(self._mu * (flat - 1.0))
        else:  # a point mass is held as binomial(k, p = 1), whose 1 - p + p eta is eta exactly
            out = (1.0 - self._p + self._p * flat) ** self._k
        return out.reshape(eta.shape) if eta.ndim else float(out[0])

    def pgf_complement(self, s: float) -> float:
        """1 - pgf(1 - s) for s in [0, 1], accurate where pgf(1 - s) rounds to 1.

        Iterated from s = 1 it gives the survival probabilities 1 - f_t(0)
        of the branching process, which shrink past 2**-53 when it dies out.
        """
        if self.kind == "poisson":
            return -math.expm1(-self._mu * s)
        if self._p * s == 1.0:  # every trial succeeds
            return float(self._k > 0)
        return -math.expm1(self._k * math.log1p(-self._p * s))  # 1 - (1 - p s)^k

    def prob_zero(self) -> float:
        """Probability of zero offspring."""
        return float(self.pgf(0.0))

    def __repr__(self):
        return f"BranchingDistribution({self.kind}, {self.params}, mean={self._mean:g})"


@dataclass
class GWTreeResult:
    """A realized branching tree plus how its growth ended.

    extinction_depth is the deepest nonempty tier when growth died out on
    its own, and None when it was cut off at max_depth.
    """

    network: ProductionNetwork
    extinction_depth: Optional[int]


def generate_rdag(K: int, p: float, seed: int) -> ProductionNetwork:
    """Random DAG on K ordered products: edge (l, k) for l < k w.p. p.

    Pair t of the upper triangle in row-major order keeps its edge iff the
    t-th double of the seeded stream is below p, so memory is
    O(K + E + RDAG_BLOCK) rather than O(K^2).
    """
    K = check_int(K, "K")
    check_node_count(K, f"a random DAG of K = {shown(K)} products")  # before its K(K - 1)/2 draws
    check_real(p, "p")
    rng = np.random.default_rng(check_int(seed, "seed", minimum=0))
    rows = np.arange(K)
    first = rows * (2 * K - rows - 1) // 2  # row l's pairs start at pair first[l]
    t = _bernoulli_positions(rng, K * (K - 1) // 2, p)
    src = np.searchsorted(first, t, side="right") - 1
    edges = np.column_stack((src, t - first[src] + src + 1)) + 1
    return ProductionNetwork(K, edges)


def generate_parallel(K: int, m: int, d: int, seed: int) -> ProductionNetwork:
    """Bipartite parallel-products network.

    ceil(m*K/d) raw materials supply K complex products; every complex
    product gets exactly m distinct raw inputs and no raw exceeds
    out-degree d.  Assignment draws each product's inputs from the raws
    with the most remaining capacity (seeded random tie-breaks), which
    keeps capacities balanced and never dead-ends.
    """
    K = check_int(K, "K")
    m = check_int(m, "m")
    d = check_int(d, "d")
    rho = -(-m * K // d)  # ceil
    if rho < m:
        raise ParameterError(
            f"supply dependency d={shown(d)} too large: raw pool ceil(m*K/d)={shown(rho)} "
            f"cannot provide m={shown(m)} distinct inputs per product"
        )
    # before the K draws of rho doubles each
    check_node_count(rho + K, f"a parallel network of K = {shown(K)} products on {shown(rho)} raw materials")
    rng = np.random.default_rng(check_int(seed, "seed", minimum=0))
    capacity = np.full(rho, d, dtype=np.int64)
    # row c: complex product c's raws, 0-based
    inputs = allocate(f"the {K} x {m} input table", np.empty, (K, m), dtype=np.int64)
    for c in range(K):
        keys = rng.random(rho)
        # stable sort on (remaining capacity desc, random key) picks the m
        # least-loaded raws with seeded tie-breaking
        chosen = np.lexsort((keys, -capacity))[:m]
        if capacity[chosen[-1]] <= 0:
            raise AssertionError("parallel wiring ran out of raw capacity")
        capacity[chosen] -= 1
        inputs[c] = chosen
    edges = np.column_stack((inputs.ravel() + 1, np.repeat(np.arange(rho + 1, rho + K + 1), m)))
    return ProductionNetwork(rho + K, edges, tiers=_tiers([rho, K]))


def generate_backward_tree(m: int, D: int) -> ProductionNetwork:
    """Complete m-ary supply tree of depth D, raw materials at tier D.

    Tier d holds m^(d-1) products; each product at tier d < D has exactly
    m inputs at tier d+1, and edges run tier d+1 -> d so cascades flow
    from the leaves toward the root.  Ids are in heap order: product v's
    inputs are m(v-1)+2 .. m(v-1)+m+1.  Deterministic (no seed).
    """
    m = check_int(m, "m")
    D = check_int(D, "D")
    # m^(D-1) leaves past int64 count as infinitely many, found from D log m before any size is built
    too_deep = m > 1 and D - 1 > math.log(INT64_MAX) / math.log(m)
    total = math.inf if too_deep else D if m == 1 else (m**D - 1) // (m - 1)
    check_node_count(total, f"a complete {shown(m)}-ary tree of depth {shown(D)}")
    m = min(m, total)  # equal unless D = 1, where a huge m would leave int64
    inputs = np.arange(2, total + 1)
    edges = np.column_stack((inputs, (inputs - 2) // m + 1))
    return ProductionNetwork(total, edges, tiers=_tiers(m ** np.arange(D)))


def generate_gw_tree(dist: BranchingDistribution, max_depth: int, seed: int) -> GWTreeResult:
    """Grow a supply tree by a branching process from one raw material.

    The root sits at depth 1; each node at depth d spawns an independent
    number of children, and edges run parent -> child so cascades flow
    root -> leaves.  Growth stops when a generation comes up empty
    (extinct) or at max_depth.  Each generation is one range
    of consecutive ids, its products' children the next range in order.
    """
    max_depth = check_int(max_depth, "max_depth")
    rng = np.random.default_rng(check_int(seed, "seed", minimum=0))
    widths = [1]  # products per generation
    parents = [np.zeros(0, dtype=np.int64)]  # each later product's parent, generation by generation
    total = 1
    while len(widths) < max_depth:
        counts = dist.sample(rng, widths[-1])
        born = int(counts.sum())
        check_node_count(total + born, f"a branching tree of max_depth {shown(max_depth)}")
        if not born:
            break
        parents.append(np.repeat(np.arange(total - widths[-1] + 1, total + 1), counts))
        widths.append(born)
        total += born
    edges = np.column_stack((np.concatenate(parents), np.arange(2, total + 1)))
    net = ProductionNetwork(total, edges, tiers=_tiers(widths))
    return GWTreeResult(net, None if len(widths) == max_depth else len(widths))


def generate_trellis(w: int, D: int, p: float, seed: int) -> ProductionNetwork:
    """Random width-w trellis: D tiers of w products, inter-tier edges w.p. p.

    Cell t = (d - 1) w^2 + a w + b, taken in row-major order over the D - 1
    tier pairs, keeps the edge from product a of tier d to product b of
    tier d + 1 (both counted from 0) iff the t-th double of the seeded
    stream is below p.
    """
    w = check_int(w, "w")
    D = check_int(D, "D")
    # before its (D - 1) w^2 draws
    check_node_count(w * D, f"a trellis of {shown(D)} tiers of {shown(w)} products")
    check_real(p, "p")
    rng = np.random.default_rng(check_int(seed, "seed", minimum=0))
    pair, cell = np.divmod(_bernoulli_positions(rng, (D - 1) * w * w, p), w * w)
    a, b = np.divmod(cell, w)
    edges = np.column_stack((pair * w + a, (pair + 1) * w + b)) + 1
    return ProductionNetwork(w * D, edges, tiers=_tiers(np.full(D, w)))


def _bernoulli_positions(rng: np.random.Generator, count: int, p: float) -> np.ndarray:
    """Ascending positions t < count whose t-th double of rng's stream is below p.

    The doubles are drawn RDAG_BLOCK at a time, which yields the stream
    of one call, so memory is O(kept + RDAG_BLOCK) for any count.
    """
    kept = [np.zeros(0, dtype=np.int64)]
    for lo in range(0, count, RDAG_BLOCK):
        kept.append(lo + np.flatnonzero(rng.random(min(RDAG_BLOCK, count - lo)) < p))
    return np.concatenate(kept)


def _tiers(widths) -> dict[int, int]:
    """Tier labels of id ranges: ids 1..widths[0] in tier 1, the next widths[1] in tier 2, ..."""
    labels = np.repeat(np.arange(1, len(widths) + 1), widths)
    return dict(enumerate(labels.tolist(), 1))
