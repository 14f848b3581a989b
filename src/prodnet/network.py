"""Production-network graph type and basic graph operations.

A production network is a directed graph on products 1..K where an edge
(j, i) means product j is a required input of product i.  Sources (raw
materials) are products with no inputs.  Networks are immutable after
construction and safe to share across workers; derived structures
(edge arrays, strongly connected components, level plans) are computed
lazily and cached, and none is dense in K except the reachability
closure, which only tests and `perfbench`'s tracer use.  A level plan is
the one walk over the strong components, in topological order, that the
failure thresholds, Katz solves and `dag_beta` share.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import CyclicGraphError, SizeError, ValidationError, check_int

MAX_NODES = 10_000_000  # products per network: construction builds lists of K entries


class Cycle(NamedTuple):
    """A strong component of several products and its internal edges.

    Edge edges[e] (an index into `edge_arrays()`) runs from input
    members[tails[e]] to consumer members[heads[e]]; edges are sorted by
    (tail, head), those leaving member a at tail_starts[a]:tail_starts[a + 1].
    """

    members: np.ndarray  # 0-based, ascending
    tails: np.ndarray
    heads: np.ndarray
    edges: np.ndarray
    tail_starts: np.ndarray


class Level(NamedTuple):
    """One depth of a level plan: its products and their inputs from earlier levels.

    Input e is edge edges[e] (an index into `edge_arrays()`) from
    sources[e] to consumers[e], which is products[segment[e]].  Inputs are
    sorted by (rank, consumer), rank being the input's place among its
    consumer's by ascending source, so round r, the span
    rounds[r]:rounds[r + 1], holds each consumer's r-th input.  cycles are
    the level's strong components of several products.
    """

    products: np.ndarray  # 0-based, ascending, cycles' members included
    consumers: np.ndarray
    segment: np.ndarray
    sources: np.ndarray
    edges: np.ndarray
    rounds: tuple[int, ...]
    cycles: tuple[Cycle, ...]


class ProductionNetwork:
    """Immutable directed graph of products with per-product supplier count.

    Parameters
    ----------
    node_count : number of products K; ids are the dense integers 1..K.
    edges : iterable of (j, i) pairs, j an input of i.
    supplier_count : number of independent suppliers per product (n).
    tiers : optional mapping product id -> tier index.
    acyclic : optional claim; verified when given, computed otherwise.
    """

    __slots__ = (
        "node_count",
        "edges",
        "supplier_count",
        "tiers",
        "acyclic",
        "_succ",
        "_pred",
        "_cache",
    )

    def __init__(
        self,
        node_count: int,
        edges: Iterable[tuple[int, int]],
        supplier_count: int = 1,
        tiers: Optional[Mapping[int, int]] = None,
        acyclic: Optional[bool] = None,
    ):
        k = check_int(node_count, "node_count")
        if k > MAX_NODES:
            raise SizeError(f"node_count {k} exceeds the limit of {MAX_NODES} products")
        n = check_int(supplier_count, "supplier_count")
        edge_list = []
        seen = set()
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
        edge_list.sort()

        succ = [[] for _ in range(k + 1)]
        pred = [[] for _ in range(k + 1)]
        for j, i in edge_list:
            succ[j].append(i)
            pred[i].append(j)

        tier_map = None
        if tiers is not None:
            tier_map = {int(v): int(t) for v, t in tiers.items()}
            missing = [v for v in range(1, k + 1) if v not in tier_map]
            if missing:
                raise ValidationError(f"tier labels missing for nodes {missing[:5]}")

        object.__setattr__(self, "node_count", k)
        object.__setattr__(self, "edges", tuple(edge_list))
        object.__setattr__(self, "supplier_count", n)
        object.__setattr__(self, "tiers", tier_map)
        object.__setattr__(self, "_succ", tuple(tuple(s) for s in succ))
        object.__setattr__(self, "_pred", tuple(tuple(p) for p in pred))
        object.__setattr__(self, "_cache", {})

        is_dag = self._check_acyclic()
        if acyclic is True and not is_dag:
            raise ValidationError("network was declared acyclic but contains a cycle")
        object.__setattr__(self, "acyclic", is_dag)

    def __setattr__(self, name, value):
        raise AttributeError("ProductionNetwork is immutable")

    # -- basic accessors -------------------------------------------------

    def successors(self, i: int) -> Sequence[int]:
        """Products that consume product i directly."""
        return self._succ[i]

    def predecessors(self, i: int) -> Sequence[int]:
        """Inputs of product i."""
        return self._pred[i]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def in_degree(self, i: int) -> int:
        return len(self._pred[i])

    def out_degree(self, i: int) -> int:
        return len(self._succ[i])

    @property
    def max_out_degree(self) -> int:
        return max((len(s) for s in self._succ[1:]), default=0)

    @property
    def max_in_degree(self) -> int:
        return max((len(p) for p in self._pred[1:]), default=0)

    def sources(self) -> list[int]:
        """Raw materials: products with no inputs."""
        return [i for i in range(1, self.node_count + 1) if not self._pred[i]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProductionNetwork):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and self.edges == other.edges
            and self.supplier_count == other.supplier_count
            and self.tiers == other.tiers
        )

    def __hash__(self):
        return hash((self.node_count, self.edges, self.supplier_count))

    def __repr__(self):
        return (
            f"ProductionNetwork(K={self.node_count}, edges={self.edge_count}, "
            f"n={self.supplier_count}, acyclic={self.acyclic})"
        )

    # -- derived structures (lazy, cached) --------------------------------

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) index arrays, 0-based, in canonical sorted edge order."""
        if "edge_arrays" not in self._cache:
            if self.edges:
                src = np.array([j - 1 for j, _ in self.edges], dtype=np.int64)
                dst = np.array([i - 1 for _, i in self.edges], dtype=np.int64)
            else:
                src = np.zeros(0, dtype=np.int64)
                dst = np.zeros(0, dtype=np.int64)
            self._cache["edge_arrays"] = (src, dst)
        return self._cache["edge_arrays"]

    def level_plan(self, reverse: bool = False) -> tuple[Level, ...]:
        """Products by the longest-path depth of their strong component, 0-based.

        A product's inputs are its predecessors, or its successors when
        reverse; every input from another component lies at an earlier
        level, so the levels in order are a topological order.
        """
        if ("level_plan", reverse) not in self._cache:
            self._cache["level_plan", reverse] = self._build_level_plan(reverse)
        return self._cache["level_plan", reverse]

    def reachability(self) -> np.ndarray:
        """Boolean closure R with R[j-1, i-1] True iff a path j -> i exists.

        Includes the trivial path, so the diagonal is True.  Valid for
        cyclic graphs as well.
        """
        if "reachability" not in self._cache:
            k = self.node_count
            reach = np.zeros((k, k), dtype=bool)
            for start in range(1, k + 1):
                row = reach[start - 1]
                row[start - 1] = True
                stack = [start]
                while stack:
                    u = stack.pop()
                    for v in self._succ[u]:
                        if not row[v - 1]:
                            row[v - 1] = True
                            stack.append(v)
            self._cache["reachability"] = reach
        return self._cache["reachability"]

    def strong_components(self) -> tuple[tuple[int, ...], ...]:
        """Strongly connected components in topological order, 0-based ids.

        Iterative Tarjan.  Every edge joining two components runs from the
        earlier one to the later one; members are listed in ascending order.
        """
        if "strong_components" not in self._cache:
            index, low, stack, comps = {}, {}, [], []
            for root in range(1, self.node_count + 1):
                work = [] if root in index else [(root, None)]
                while work:
                    u, it = work.pop()
                    if it is None:  # first visit
                        index[u] = low[u] = len(index)
                        stack.append(u)
                        it = iter(self._succ[u])
                    for w in it:
                        if w not in index:
                            work += [(u, it), (w, None)]
                            break
                        low[u] = min(low[u], index[w])  # inf once w's component is out
                    else:
                        if work:
                            parent = work[-1][0]
                            low[parent] = min(low[parent], low[u])
                        if low[u] == index[u]:
                            comp = [stack.pop()]
                            while comp[-1] != u:
                                comp.append(stack.pop())
                            for w in comp:
                                index[w] = math.inf
                            comps.append(tuple(sorted(w - 1 for w in comp)))
            comps.reverse()  # Tarjan emits sinks first
            self._cache["strong_components"] = tuple(comps)
        return self._cache["strong_components"]

    # -- internal ----------------------------------------------------------

    def _build_level_plan(self, reverse: bool) -> tuple[Level, ...]:
        source, consumer = self.edge_arrays()
        comps, inputs = self.strong_components(), self._pred
        if reverse:
            source, consumer, comps, inputs = consumer, source, comps[::-1], self._succ
        # comps run in topological order along inputs, so the depths of a
        # component's inputs are known when it is reached
        comp, depth = [0] * self.node_count, []
        for c, members in enumerate(comps):
            d = 0
            for v in members:
                comp[v] = c
            for v in members:
                for j in inputs[v + 1]:
                    if comp[j - 1] != c and depth[comp[j - 1]] >= d:
                        d = depth[comp[j - 1]] + 1
            depth.append(d)
        comp, levels = np.array(comp), max(depth) + 1
        level = np.array(depth)[comp]
        internal = comp[source] == comp[consumer]
        # rank each consumer's inputs by source, the order canonical edge order keeps
        by_consumer = np.lexsort((consumer, internal))
        first = np.flatnonzero(np.diff(consumer[by_consumer], prepend=-1))
        rank = np.empty_like(by_consumer)
        runs = np.diff(first, append=len(rank))
        rank[by_consumer] = np.arange(len(rank)) - np.repeat(first, runs)
        # per level, its inputs from other components by (rank, consumer), then
        # its cyclic components' internal edges by (component, tail, head)
        order = np.lexsort((
            consumer,
            np.where(internal, source, rank),
            np.where(internal, comp[consumer], -1),
            level[consumer],
        ))
        internal_count = np.bincount(comp[consumer[internal]], minlength=len(comps))
        cuts = np.searchsorted(2 * level[consumer[order]] + internal[order], range(2 * levels + 1))
        source, consumer, rank, cuts = source[order], consumer[order], rank[order], cuts.tolist()
        products = np.argsort(level, kind="stable")
        product_cuts = np.searchsorted(level[products], range(levels + 1)).tolist()
        plan = []
        for d in range(levels):
            at_level = products[product_cuts[d] : product_cuts[d + 1]]
            lo, mid, hi = cuts[2 * d : 2 * d + 3]
            cycles, at = [], mid
            while at < hi:  # one span of internal edges per cyclic component
                c = comp[consumer[at]]
                members, span = np.array(comps[c]), slice(at, at + internal_count[c])
                tails = np.searchsorted(members, source[span])
                heads = np.searchsorted(members, consumer[span])
                starts = np.searchsorted(tails, range(len(members) + 1))
                cycles.append(Cycle(members, tails, heads, order[span], starts))
                at = span.stop
            plan.append(Level(
                at_level,
                consumer[lo:mid],
                np.searchsorted(at_level, consumer[lo:mid]),
                source[lo:mid],
                order[lo:mid],
                (0, *np.bincount(rank[lo:mid]).cumsum().tolist()),
                tuple(cycles),
            ))
        return tuple(plan)

    def _check_acyclic(self) -> bool:
        indeg = [len(self._pred[i]) for i in range(self.node_count + 1)]
        ready = [i for i in range(1, self.node_count + 1) if indeg[i] == 0]
        done = 0
        while ready:
            u = ready.pop()
            done += 1
            for v in self._succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    ready.append(v)
        return done == self.node_count


def topological_order(net: ProductionNetwork) -> list[int]:
    """Topological order of an acyclic network: `net.level_plan()`, level by level.

    Ids ascend within a level, and every edge (j, i) has j earlier than i.
    Raises CyclicGraphError naming one cycle edge if the network is cyclic.
    """
    if not net.acyclic:
        comp = next(c for c in net.strong_components() if len(c) > 1)
        u = comp[0] + 1
        edge = (u, next(v for v in net.successors(u) if v - 1 in comp))
        raise CyclicGraphError(
            f"network is not acyclic; edge {edge} lies on a cycle", edge=edge
        )
    return [v + 1 for level in net.level_plan() for v in level.products.tolist()]


def reverse_graph(net: ProductionNetwork) -> ProductionNetwork:
    """The source-relations view: same nodes, every edge (j, i) flipped."""
    return ProductionNetwork(
        net.node_count,
        [(i, j) for j, i in net.edges],
        supplier_count=net.supplier_count,
        tiers=dict(net.tiers) if net.tiers is not None else None,
    )
