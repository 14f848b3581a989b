"""Production-network graph type and basic graph operations.

A production network is a directed graph on products 1..K where an edge
(j, i) means product j is a required input of product i.  Sources (raw
materials) are products with no inputs.  Networks are immutable after
construction and safe to share across workers; derived structures
(edge arrays, the input CSR, strongly connected components) are computed
lazily and cached, and none is dense in K except the reachability
closure, which only tests and `perfbench`'s tracer use.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import CyclicGraphError, ValidationError, check_int


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

    def input_csr(self) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """Edges grouped by consuming product: (edge ids, their sources, starts).

        The inputs of product v+1 are in_src[starts[v]:starts[v+1]], 0-based
        and ascending, reached by the edges in_edges[starts[v]:starts[v+1]]
        (indices into `edge_arrays()`).  starts holds K+1 offsets.
        """
        if "input_csr" not in self._cache:
            src, dst = self.edge_arrays()
            in_edges = np.argsort(dst, kind="stable")
            starts = tuple(np.searchsorted(dst[in_edges], np.arange(self.node_count + 1)).tolist())
            self._cache["input_csr"] = (in_edges, src[in_edges], starts)
        return self._cache["input_csr"]

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
    """Topological order of an acyclic network, smallest-id-first ties.

    Every edge (j, i) has j earlier than i in the result.  Raises
    CyclicGraphError naming one cycle edge if the network is cyclic.
    """
    k = net.node_count
    indeg = [net.in_degree(i) for i in range(k + 1)]
    heap = [i for i in range(1, k + 1) if indeg[i] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for v in net.successors(u):
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, v)
    if len(order) < k:
        comp = next(c for c in net.strong_components() if len(c) > 1)
        u = comp[0] + 1
        edge = (u, next(v for v in net.successors(u) if v - 1 in comp))
        raise CyclicGraphError(
            f"network is not acyclic; edge {edge} lies on a cycle", edge=edge
        )
    return order


def reverse_graph(net: ProductionNetwork) -> ProductionNetwork:
    """The source-relations view: same nodes, every edge (j, i) flipped."""
    return ProductionNetwork(
        net.node_count,
        [(i, j) for j, i in net.edges],
        supplier_count=net.supplier_count,
        tiers=dict(net.tiers) if net.tiers is not None else None,
    )
