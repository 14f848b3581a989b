"""Production-network graph type and basic graph operations.

A production network is a directed graph on products 1..K where an edge
(j, i) means product j is a required input of product i.  Sources (raw
materials) are products with no inputs.  Networks are immutable after
construction and safe to share across workers.  Construction takes the
edges as pairs or as an (E, 2) array and checks, deduplicates and sorts
them with numpy; it keeps them as sorted edge arrays plus successor and
predecessor lists in CSR form (offsets of K + 1 entries), so a network
holds O(K + E) memory.  Construction checks acyclicity by finding a
topological order and keeps it.  Derived structures (the edge tuples,
strongly connected components, level plans) are computed lazily and
cached, and none is dense in K except the reachability closure, which
only tests and `perfbench`'s tracer use.  A level plan is the one walk
over the strong components, in topological order, that the failure
thresholds, Katz solves and `dag_beta` share.  On an acyclic network its
components are the products in the kept order, so only a cyclic network
runs Tarjan's algorithm.  A level's inputs are laid out in rounds that
each feed a prefix of the level's `fed` products, so a round of the
failure thresholds is one contiguous minimum.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import CyclicGraphError, SizeError, ValidationError, check_int, is_int, shown

MAX_NODES = 10_000_000  # products per network: construction allocates CSR offsets of K + 1 entries


def check_node_count(count, request: str):
    """Raise the one node-cap SizeError, naming `request`, when `count` products exceed MAX_NODES.

    The constructor and every generator call it before they allocate or
    draw; count may be math.inf for a size too large to compute.
    """
    if count > MAX_NODES:
        raise SizeError(f"{request} exceeds the limit of {MAX_NODES} products")


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

    fed lists the level's products that have such inputs, by (input
    count, largest first, then id).  Input e is edge edges[e] (an index
    into `edge_arrays()`) from sources[e] to products[segment[e]].  Inputs
    are sorted by (rank, consumer's place in fed), rank being the input's
    place among its consumer's by ascending source, so round r, the span
    rounds[r]:rounds[r + 1], holds the r-th input of each of fed[:m], m
    being the span's length.  cycles are the level's strong components of
    several products.
    """

    products: np.ndarray  # 0-based, ascending, cycles' members included
    fed: np.ndarray
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
    edges : (j, i) pairs, j an input of i: an iterable of pairs or an
        (E, 2) integer array.  Ids and tiers are integers by `check_int`'s
        rule, never bools, floats or strings.
    supplier_count : number of independent suppliers per product (n).
    tiers : optional mapping product id -> nonnegative tier, keyed by exactly 1..K.
    """

    __slots__ = (
        "node_count",
        "supplier_count",
        "tiers",
        "acyclic",
        "_src",
        "_dst",
        "_out_starts",
        "_in_starts",
        "_in_src",
        "_cache",
    )

    def __init__(
        self,
        node_count: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        supplier_count: int = 1,
        tiers: Optional[Mapping[int, int]] = None,
    ):
        k = check_int(node_count, "node_count")
        check_node_count(k, f"node_count {shown(k)}")
        n = check_int(supplier_count, "supplier_count")
        src, dst = _canonical_edges(k, edges)
        # inputs by consumer: a stable sort keeps each consumer's sources ascending
        by_consumer = np.argsort(dst, kind="stable")
        # CSR, 0-based: product v's successors are dst[out_starts[v]:out_starts[v + 1]]
        # and its inputs src[by_consumer][in_starts[v]:in_starts[v + 1]]
        ids = np.arange(k + 1)
        out_starts, in_starts = np.searchsorted(src, ids), np.searchsorted(dst[by_consumer], ids)

        object.__setattr__(self, "node_count", k)
        object.__setattr__(self, "supplier_count", n)
        object.__setattr__(self, "tiers", None if tiers is None else _tier_labels(k, tiers))
        object.__setattr__(self, "_src", _frozen(src))
        object.__setattr__(self, "_dst", _frozen(dst))
        object.__setattr__(self, "_out_starts", _frozen(out_starts))
        object.__setattr__(self, "_in_starts", _frozen(in_starts))
        object.__setattr__(self, "_in_src", _frozen(src[by_consumer]))
        object.__setattr__(self, "_cache", {})

        order = self._topological_order()
        object.__setattr__(self, "acyclic", order is not None)
        if order is not None:
            self._cache["topological_order"] = order

    def __setattr__(self, name, value):
        raise AttributeError("ProductionNetwork is immutable")

    # -- basic accessors -------------------------------------------------

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge (j, i), sorted; built on first use, `edge_arrays()` is the array form."""
        if "edges" not in self._cache:
            self._cache["edges"] = tuple(zip((self._src + 1).tolist(), (self._dst + 1).tolist()))
        return self._cache["edges"]

    def successors(self, i: int) -> Sequence[int]:
        """Products that consume product i directly."""
        return tuple((self._dst[self._out_starts[i - 1] : self._out_starts[i]] + 1).tolist())

    def predecessors(self, i: int) -> Sequence[int]:
        """Inputs of product i."""
        return tuple((self._in_src[self._in_starts[i - 1] : self._in_starts[i]] + 1).tolist())

    @property
    def edge_count(self) -> int:
        return len(self._src)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) index arrays, 0-based, in canonical sorted edge order (read-only)."""
        return self._src, self._dst

    def in_degree(self, i: int) -> int:
        return len(self.predecessors(i))

    def out_degree(self, i: int) -> int:
        return len(self.successors(i))

    @property
    def max_out_degree(self) -> int:
        return int(np.diff(self._out_starts).max())

    @property
    def max_in_degree(self) -> int:
        return int(np.diff(self._in_starts).max())

    def sources(self) -> list[int]:
        """Raw materials: products with no inputs."""
        return (np.flatnonzero(np.diff(self._in_starts) == 0) + 1).tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProductionNetwork):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and np.array_equal(self._src, other._src)
            and np.array_equal(self._dst, other._dst)
            and self.supplier_count == other.supplier_count
            and self.tiers == other.tiers
        )

    def __hash__(self):
        # the edge arrays' bytes, not `edges`, which would build and cache E tuples
        return hash((self.node_count, self._src.tobytes(), self._dst.tobytes(), self.supplier_count))

    def __repr__(self):
        return (
            f"ProductionNetwork(K={self.node_count}, edges={self.edge_count}, "
            f"n={self.supplier_count}, acyclic={self.acyclic})"
        )

    # -- derived structures (lazy, cached) --------------------------------

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
            starts, succ = self._out_starts.tolist(), self._dst.tolist()
            reach = np.zeros((k, k), dtype=bool)
            for start in range(k):
                row = reach[start]
                row[start] = True
                stack = [start]
                while stack:
                    u = stack.pop()
                    for v in succ[starts[u] : starts[u + 1]]:
                        if not row[v]:
                            row[v] = True
                            stack.append(v)
            self._cache["reachability"] = reach
        return self._cache["reachability"]

    def strong_components(self) -> tuple[tuple[int, ...], ...]:
        """Strongly connected components in topological order, 0-based ids.

        Iterative Tarjan over the successor lists.  Every edge joining two
        components runs from the earlier one to the later one; members are
        listed in ascending order.
        """
        if "strong_components" not in self._cache:
            k = self.node_count
            starts, succ = self._out_starts.tolist(), self._dst.tolist()
            index, low = [-1] * k, [0] * k  # index k marks a finished component
            stack, comps, count = [], [], 0
            for root in range(k):
                if index[root] >= 0:
                    continue
                index[root] = low[root] = count
                count += 1
                stack.append(root)
                work = [(root, starts[root])]  # (product, its next successor's position)
                while work:
                    u, at = work[-1]
                    for at in range(at, starts[u + 1]):
                        w = succ[at]
                        if index[w] < 0:  # descend; resume u after w
                            work[-1] = (u, at + 1)
                            index[w] = low[w] = count
                            count += 1
                            stack.append(w)
                            work.append((w, starts[w]))
                            break
                        if index[w] < low[u]:
                            low[u] = index[w]
                    else:
                        work.pop()
                        if work and low[u] < low[work[-1][0]]:
                            low[work[-1][0]] = low[u]
                        if low[u] == index[u]:
                            comp = [stack.pop()]
                            while comp[-1] != u:
                                comp.append(stack.pop())
                            for w in comp:
                                index[w] = k
                            comps.append(tuple(sorted(comp)))
            comps.reverse()  # Tarjan emits sinks first
            self._cache["strong_components"] = tuple(comps)
        return self._cache["strong_components"]

    # -- internal ----------------------------------------------------------

    def _components(self) -> tuple[np.ndarray, np.ndarray]:
        """Strong components as arrays: their members, one component after another, and sizes.

        The components come in topological order.  An acyclic network's
        are its products one by one, in the order `_topological_order`
        found at construction; only a cyclic network runs Tarjan.
        """
        if self.acyclic:
            return self._cache["topological_order"], np.ones(self.node_count, dtype=np.int64)
        comps = self.strong_components()
        members = np.fromiter(itertools.chain.from_iterable(comps), dtype=np.int64, count=self.node_count)
        return members, np.fromiter(map(len, comps), dtype=np.int64, count=len(comps))

    def _build_level_plan(self, reverse: bool) -> tuple[Level, ...]:
        k = self.node_count
        source, consumer = self.edge_arrays()
        in_order, sizes = self._components()
        comp = np.empty(k, dtype=np.int64)
        comp[in_order] = np.repeat(np.arange(len(sizes)), sizes)
        if reverse:
            source, consumer, comp = consumer, source, len(sizes) - 1 - comp
        internal = comp[source] == comp[consumer]
        cross, inner = np.flatnonzero(~internal), np.flatnonzero(internal)
        # comps run in topological order along inputs, so with the edges between
        # components taken by their consumer's component, an input's depth is
        # final when it is read
        by_comp = cross[np.argsort(comp[consumer[cross]])]
        depth = [0] * len(sizes)
        for c_in, c in zip(comp[source[by_comp]].tolist(), comp[consumer[by_comp]].tolist()):
            if depth[c_in] >= depth[c]:
                depth[c] = depth[c_in] + 1
        levels = max(depth) + 1
        level = np.array(depth)[comp]
        # rank each consumer's inputs from other components by ascending source
        cross = cross[np.argsort(consumer[cross] * k + source[cross])]
        first = np.flatnonzero(np.diff(consumer[cross], prepend=-1))
        fed, fed_in = consumer[cross[first]], np.diff(first, append=len(cross))
        rank = np.arange(len(cross)) - np.repeat(first, fed_in)
        # per level, the products so fed by (input count descending, id), so the
        # consumers of a round are a prefix of them; their inputs by (rank, place)
        fed = fed[np.argsort(level[fed] * (k + 1) - fed_in, kind="stable")]
        place = np.empty(k, dtype=np.int64)
        place[fed] = np.arange(len(fed))
        order = np.lexsort((place[consumer[cross]], level[consumer[cross]] * k + rank))
        cross, rank = cross[order], rank[order]
        # per level, its cyclic components' internal edges by (component, tail, head)
        inner_comp = comp[consumer[inner]]
        inner = inner[np.lexsort((consumer[inner], source[inner], level[consumer[inner]] * k + inner_comp))]
        internal_count = np.bincount(inner_comp, minlength=len(sizes))
        cuts, inner_cuts, fed_cuts = (
            np.searchsorted(level[v], range(levels + 1)).tolist()
            for v in (consumer[cross], consumer[inner], fed)
        )
        products = np.argsort(level, kind="stable")
        product_cuts = np.searchsorted(level[products], range(levels + 1)).tolist()
        plan = []
        for d in range(levels):
            at_level = products[product_cuts[d] : product_cuts[d + 1]]
            cycles, at = [], inner_cuts[d]
            while at < inner_cuts[d + 1]:  # one span of internal edges per cyclic component
                span = inner[at : at + internal_count[comp[consumer[inner[at]]]]]
                # every member has an internal edge leaving it
                members, tails = np.unique(source[span], return_inverse=True)
                heads = np.searchsorted(members, consumer[span])
                starts = np.searchsorted(tails, range(len(members) + 1))
                cycles.append(Cycle(members, tails, heads, span, starts))
                at += len(span)
            edges = cross[cuts[d] : cuts[d + 1]]
            plan.append(Level(
                at_level,
                fed[fed_cuts[d] : fed_cuts[d + 1]],
                np.searchsorted(at_level, consumer[edges]),
                source[edges],
                edges,
                (0, *np.bincount(rank[cuts[d] : cuts[d + 1]]).cumsum().tolist()),
                tuple(cycles),
            ))
        return tuple(plan)

    def _topological_order(self) -> Optional[np.ndarray]:
        """A topological order of the products, 0-based, or None if the network is cyclic.

        It is the ids in order when they ascend along every edge, the ids
        in reverse when they descend along every edge (as a backward tree's
        do), else Kahn's order.
        """
        if np.all(self._src < self._dst):
            return np.arange(self.node_count)
        if np.all(self._src > self._dst):
            return np.arange(self.node_count - 1, -1, -1)
        indeg = np.diff(self._in_starts).tolist()
        starts, succ = self._out_starts.tolist(), self._dst.tolist()
        ready = np.flatnonzero(np.diff(self._in_starts) == 0).tolist()
        order = []
        while ready:
            u = ready.pop()
            order.append(u)
            for v in succ[starts[u] : starts[u + 1]]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    ready.append(v)
        return np.array(order, dtype=np.int64) if len(order) == self.node_count else None


def _canonical_edges(k: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst) of (j, i) pairs, 0-based and sorted by (j, i).

    The first pair holding a non-integer id, then the first pair in input
    order that leaves 1..k, is a self-loop or repeats an earlier pair,
    raises ValidationError naming that pair.
    """
    given, quoted = edges, None  # quoted: the pairs error messages quote, when they differ from `pairs`
    try:
        try:
            # uint64 ids, which may lie past int64, take the list route, so a message quotes them as given
            if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu" and np.can_cast(edges.dtype, np.int64):
                pairs = np.asarray(edges, dtype=np.int64)
            else:
                given = edges.tolist() if isinstance(edges, np.ndarray) else list(edges)
                pairs = _int_pairs(given)
                if pairs is None:  # numpy integers pass, any other id is refused
                    if (bad := next((pair for pair in given if not all(map(is_int, pair))), None)) is not None:
                        raise TypeError(f"got {shown(bad)}")
                    pairs = np.asarray(given, dtype=np.int64)
        except OverflowError:  # an id beyond int64 lies outside 1..k, as 0 does
            quoted = given
            pairs = np.array([[v if abs(v) <= k else 0 for v in e] for e in given], dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"edges must be (j, i) pairs of integers: {exc}") from exc
    if pairs.shape == (0,):  # no edges; an empty pair, as in [()], is refused below
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValidationError(f"edges must be (j, i) pairs, got an array of shape {pairs.shape}")
    j, i = pairs.T
    keys = j * (k + 1) + i
    order = np.argsort(keys, kind="stable")  # equal keys stay in input order
    keys = keys[order]
    bad = (pairs < 1).any(axis=1) | (pairs > k).any(axis=1) | (j == i)
    bad[order[1:][keys[1:] == keys[:-1]]] = True  # repeats of an earlier pair
    if bad.any():
        e = int(np.argmax(bad))
        a, b = (int(v) for v in (pairs if quoted is None else quoted)[e])
        if not (1 <= a <= k and 1 <= b <= k):
            raise ValidationError(f"edge ({shown(a)}, {shown(b)}) references a node outside 1..{k}")
        if a == b:
            raise ValidationError(f"self-loop on node {a} is not allowed")
        raise ValidationError(f"duplicate edge ({a}, {b})")
    return keys // (k + 1) - 1, keys % (k + 1) - 1


def _int_pairs(given: list) -> Optional[np.ndarray]:
    """Pairs of Python ints as an (E, 2) int64 array (OverflowError past int64), else None."""
    ids = itertools.chain.from_iterable
    if set(map(type, ids(given))) <= {int} and set(map(len, given)) <= {2}:
        return np.fromiter(ids(given), np.int64, 2 * len(given)).reshape(-1, 2)
    return None


def _tier_labels(k: int, tiers) -> dict[int, int]:
    """tiers as a dict of ints, refused unless its keys are exactly 1..k and its tiers nonnegative."""
    if not isinstance(tiers, Mapping):
        raise ValidationError(f"tiers must be a mapping of product id to tier, got {shown(tiers)}")
    labels = dict(tiers)
    if not (set(map(type, labels)) | set(map(type, labels.values())) <= {int} and min(labels, default=1) >= 1
            and max(labels, default=0) <= k and min(labels.values(), default=0) >= 0):
        for v, t in labels.items():  # numpy integers pass; name the first bad entry
            if not (is_int(v) and 1 <= v <= k and is_int(t) and t >= 0):
                raise ValidationError(f"tier entry {shown(v)}: {shown(t)} needs a product id in 1..{k} and a nonnegative integer tier")
        labels = {int(v): int(t) for v, t in labels.items()}
    if len(labels) < k:
        raise ValidationError(f"tier labels missing for nodes {[v for v in range(1, k + 1) if v not in labels][:5]}")
    return labels


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
    src, dst = net.edge_arrays()
    return ProductionNetwork(
        net.node_count,
        np.column_stack((dst, src)) + 1,
        supplier_count=net.supplier_count,
        tiers=net.tiers,  # the constructor copies it
    )
