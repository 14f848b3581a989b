"""Seeded generators for the production-network architectures under study.

All generators are pure functions of their parameters and seed and emit
acyclic networks with dense ids assigned in generation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, SizeError, check_int, check_real
from .network import MAX_NODES, ProductionNetwork

RDAG_BLOCK = 1 << 20  # node pairs per draw in generate_rdag: 8 MB of doubles


class BranchingDistribution:
    """Offspring distribution for the branching-process generator.

    Supported kinds: ``point`` (a fixed integer number of children),
    ``binomial`` (k trials, success probability p), and ``poisson``
    (rate mu).  The mean is derived from the parameters.
    """

    def __init__(self, kind: str, **params):
        self.kind = kind
        self.params = dict(params)
        try:
            if kind == "point":
                self._value = check_int(params["value"], "point-mass value", minimum=0)
                self._mean = float(self._value)
            elif kind == "binomial":
                self._k, self._p = check_int(params["k"], "k"), check_real(params["p"], "p")
                self._mean = self._k * self._p
            elif kind == "poisson":
                self._mu = check_real(params["mu"], "poisson rate", "[0, inf)")
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
            return np.full(size, self._value, dtype=np.int64)
        if self.kind == "binomial":
            return rng.binomial(self._k, self._p, size=size).astype(np.int64)
        return rng.poisson(self._mu, size=size).astype(np.int64)

    def level_total(self, rng: np.random.Generator, parents) -> np.ndarray:
        """Total offspring of `parents` independent nodes, elementwise.

        Uses additivity (sums of iid binomials/poissons stay in family) so
        a whole generation needs a single draw per population entry.
        """
        parents = np.asarray(parents, dtype=np.int64)
        if self.kind == "point":
            return parents * self._value
        if self.kind == "binomial":
            return rng.binomial(self._k * parents, self._p).astype(np.int64)
        return rng.poisson(self._mu * parents).astype(np.int64)

    def pgf(self, eta):
        """Probability generating function E[eta^xi]."""
        eta = np.asarray(eta, dtype=np.float64)
        if self.kind == "point":
            out = eta**self._value
        elif self.kind == "binomial":
            out = (1.0 - self._p + self._p * eta) ** self._k
        else:
            out = np.exp(self._mu * (eta - 1.0))
        return out if out.ndim else float(out)

    def prob_zero(self) -> float:
        """Probability of zero offspring."""
        return float(self.pgf(0.0))

    def __repr__(self):
        return f"BranchingDistribution({self.kind}, {self.params}, mean={self._mean:g})"


@dataclass
class GWTreeResult:
    """A realized branching tree plus how its growth ended.

    extinction_depth is the deepest nonempty tier when growth died out on
    its own, and None when it was cut off at max_depth (truncated=True).
    """

    network: ProductionNetwork
    extinction_depth: Optional[int]
    truncated: bool


def generate_rdag(K: int, p: float, seed: int) -> ProductionNetwork:
    """Random DAG on K ordered products: edge (l, k) for l < k w.p. p.

    Pair t of the upper triangle in row-major order keeps its edge iff the
    t-th double of the seeded stream is below p.  The doubles are drawn
    RDAG_BLOCK at a time, which yields the stream of one call, so memory
    is O(K + E + RDAG_BLOCK) rather than O(K^2).
    """
    K = check_int(K, "K")
    check_real(p, "p")
    rng = np.random.default_rng(check_int(seed, "seed", minimum=0))
    rows = np.arange(K)
    first = rows * (2 * K - rows - 1) // 2  # row l's pairs start at pair first[l]
    pairs = K * (K - 1) // 2
    kept = [np.zeros(0, dtype=np.int64)]
    for lo in range(0, pairs, RDAG_BLOCK):
        kept.append(lo + np.flatnonzero(rng.random(min(RDAG_BLOCK, pairs - lo)) < p))
    t = np.concatenate(kept)
    src = np.searchsorted(first, t, side="right") - 1
    edges = np.column_stack((src, t - first[src] + src + 1)) + 1
    return ProductionNetwork(K, edges, acyclic=True)


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
            f"supply dependency d={d} too large: raw pool ceil(m*K/d)={rho} "
            f"cannot provide m={m} distinct inputs per product"
        )
    rng = np.random.default_rng(check_int(seed, "seed", minimum=0))
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
    return ProductionNetwork(rho + K, edges, tiers=tiers, acyclic=True)


def generate_backward_tree(m: int, D: int) -> ProductionNetwork:
    """Complete m-ary supply tree of depth D, raw materials at tier D.

    Tier d holds m^(d-1) products; each product at tier d < D has exactly
    m inputs at tier d+1, and edges run tier d+1 -> d so cascades flow
    from the leaves toward the root.  Deterministic (no seed).
    """
    m = check_int(m, "m")
    D = check_int(D, "D")
    total = D if m == 1 else (m**D - 1) // (m - 1)
    if total > MAX_NODES:
        raise SizeError(f"tree would have {total} nodes, exceeding the limit of {MAX_NODES}")
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
    return ProductionNetwork(total, edges, tiers=tiers, acyclic=True)


def generate_gw_tree(dist: BranchingDistribution, max_depth: int, seed: int) -> GWTreeResult:
    """Grow a supply tree by a branching process from one raw material.

    The root sits at depth 1; each node at depth d spawns an independent
    number of children, and edges run parent -> child so cascades flow
    root -> leaves.  Growth stops when a generation comes up empty
    (extinct) or at max_depth (truncated).
    """
    max_depth = check_int(max_depth, "max_depth")
    rng = np.random.default_rng(check_int(seed, "seed", minimum=0))
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
            raise SizeError(
                f"branching tree exceeded the limit of {MAX_NODES} nodes; "
                f"lower max_depth for supercritical distributions"
            )
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
    net = ProductionNetwork(next_id - 1, edges, tiers=tiers, acyclic=True)
    return GWTreeResult(net, extinction_depth=None if truncated else depth, truncated=truncated)


def generate_trellis(w: int, D: int, p: float, seed: int) -> ProductionNetwork:
    """Random width-w trellis: D tiers of w products, inter-tier edges w.p. p."""
    w = check_int(w, "w")
    D = check_int(D, "D")
    check_real(p, "p")
    rng = np.random.default_rng(check_int(seed, "seed", minimum=0))
    tiers = {}
    for d in range(1, D + 1):
        base = (d - 1) * w
        for v in range(base + 1, base + w + 1):
            tiers[v] = d
    edges = [np.zeros((0, 2), dtype=np.int64)]
    for d in range(1, D):
        a, b = np.nonzero(rng.random((w, w)) < p)
        edges.append(np.column_stack((a + (d - 1) * w, b + d * w)) + 1)
    return ProductionNetwork(w * D, np.concatenate(edges), tiers=tiers, acyclic=True)
