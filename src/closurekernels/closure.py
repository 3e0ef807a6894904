"""Closure parameters: per-vertex closure, closure number, weak closure.

The per-vertex closure of v is the largest number of common neighbors v
shares with a nonadjacent vertex; a universal vertex has closure 0 (the
maximum over an empty set). The closure number is 1 + max over vertices.
The weak closure number is the least g such that every induced subgraph has
a vertex with per-vertex closure < g; it is computed exactly by greedy
peeling and certified by the emitted ordering.

The engines read one count table per graph: the common-neighbor count of
every nonadjacent pair that shares a neighbor and each vertex's closure (the
row maximum). The table is walked wedge by wedge on sparse graphs and built
from `int` neighborhood masks, one popcount per pair, on dense ones.
closure_number reads its maxima. ClosureEngine peels from a copy, builds a
histogram of each row, and keeps counts up to date from the wedges through
the removed vertex and each closure from its row's histogram. The
independent references that recompute from scratch (per-vertex closure, the
suffix recount of an ordering, the subset-DP optimum) live with the
parameter-engines suite, their one user (`suites.parameter_engines`).

The pristine count table and the weak closure ordering are built once per
graph object and kept for the last graph each was asked about, so the callers
that look at one graph in turn share them: the kernel CLI's parameter report,
the im rules of one round, and the ds sunflower rule (whose good_ordering
reads only the weak closure and counts its own closures on neighborhood
masks) with the size report on the final graph. In the kernels the weak
closure peel is the one engine built per graph; it works on a copy of the
table.
"""
from __future__ import annotations

from heapq import heappop, heappush
from math import comb

from .graph import Graph, Record, last_graph_memo, maximal_cliques


class ClosureOrdering(Record):
    """A peeling order with its per-step closure certificate.

    order[i] is the i-th peeled vertex; step_closure[i] is its per-vertex
    closure inside the graph induced on order[i:]. weak_closure is
    1 + max(step_closure), or 1 for the empty graph.
    """

    __slots__ = ("order", "step_closure", "weak_closure")
    order: tuple[int, ...]
    step_closure: tuple[int, ...]
    weak_closure: int

    def position(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.order)}


class _MinBuckets:
    """Bucket queue over keys in 0..n-1 that only fall: pop() takes a least
    key, ties to the smallest id. A lowered vertex is pushed again and its
    old entry goes stale, as do those of a vertex whose key is set to -1."""

    __slots__ = ("key", "heaps", "lo")

    def __init__(self, key: list[int]):
        heaps = self.heaps = [[] for _ in key]
        for v, k in enumerate(key):
            heaps[k].append(v)  # ascending ids, so already a heap
        self.key, self.lo = key, 0

    def lowered(self, v: int) -> None:
        heappush(self.heaps[self.key[v]], v)
        self.lo = min(self.lo, self.key[v])

    def pop(self) -> int:
        key, heaps, lo = self.key, self.heaps, self.lo
        while True:
            heap = heaps[lo]
            while heap:
                v = heappop(heap)
                if key[v] == lo:
                    self.lo = lo
                    return v
            lo += 1


def _wedge_rows(g: Graph) -> list[dict[int, int]]:
    # one step per wedge u - c - w with u, w nonadjacent: O(sum of deg^2)
    adj = g.adjacency()
    rows = [{} for _ in adj]
    for nb in adj:
        for u in nb:
            row = rows[u]
            for w in nb - adj[u]:
                if w != u:
                    row[w] = row.get(w, 0) + 1
    return rows


def _mask_rows(g: Graph) -> list[dict[int, int]]:
    # v's partners are the bits of the OR of its neighbours' masks outside
    # N[v]; each count is one popcount: O(n^2) steps on n-bit ints
    masks = g.adjacency_masks()
    rows = []
    for v, nb in enumerate(g.adjacency()):
        mv = masks[v]
        reach = 0
        for u in nb:
            reach |= masks[u]
        bits = bin(reach & ~(mv | 1 << v))[:1:-1]  # bit w is character w
        rows.append({w: (mv & masks[w]).bit_count() for w, b in enumerate(bits) if b == "1"})
    return rows


def _dense(g: Graph) -> bool:
    """Whether the wedges (about sum of deg^2) outnumber the vertex pairs,
    plus a per-vertex allowance for the mask builder's fixed cost, which
    keeps all but the densest graphs on n <= 8 on the wedge walk."""
    return sum(len(nb) * len(nb) for nb in g.adjacency()) > g.n * (g.n + 16)


@last_graph_memo
def _count_table(g: Graph) -> tuple[list[dict[int, int]], list[int]]:
    """rows[v][w] = |N(v) & N(w)| for every nonadjacent w != v sharing a
    neighbor with v, and each row's maximum (0 for an empty row). Walked
    wedge by wedge on sparse graphs and built from bitmasks on dense ones.
    Shared by every engine on g: read only."""
    rows = _mask_rows(g) if _dense(g) else _wedge_rows(g)
    return rows, [max(row.values(), default=0) for row in rows]


def closure_number(g: Graph) -> int:
    """Smallest c with every per-vertex closure < c, i.e. 1 + max closure,
    read off the count table the closure engines share."""
    return 1 + max(_count_table(g)[1], default=0)


class ClosureEngine(_MinBuckets):
    """Closures of an induced subgraph losing one vertex at a time: rows[v][w]
    counts v's common neighbors with each nonadjacent alive w (a count may
    fall to 0 and stay); hist[v][c] is the number of v's entries equal to c;
    closure[v] is the row maximum, or 0, the top nonempty bucket of hist[v].
    A count only falls, so each removal moves entries one bucket down and
    lowers closure[v] past the buckets that emptied, without rescanning the
    row (Matula-Beck bucket peeling). Each engine starts from its own copy of
    g's count table and builds the histograms from it, so engines on one
    graph never share state and callers that never peel pay for none."""

    __slots__ = ("adj", "rows", "hist", "alive", "closure")

    def __init__(self, g: Graph):
        rows, closure = _count_table(g)
        self.adj = g.adjacency()
        self.rows = [row.copy() for row in rows]
        self.hist = []
        for row, top in zip(rows, closure):
            h = [0] * (top + 1)
            for c in row.values():
                h[c] += 1
            self.hist.append(h)
        self.alive = set(g.vertices())
        self.closure = closure.copy()
        super().__init__(self.closure)

    def remove(self, x: int) -> None:
        """Delete alive vertex x: only N(x) and x's partners change closure."""
        rows, hist, closure, adj = self.rows, self.hist, self.closure, self.adj
        self.alive.remove(x)
        closure[x] = -1
        nb = adj[x] & self.alive
        for u in nb:
            row, h = rows[u], hist[u]
            for w in nb - adj[u]:
                if w != u:
                    c = row[w]
                    row[w] = c - 1
                    h[c] -= 1
                    h[c - 1] += 1
        partners = rows[x]
        for w in partners:
            hist[w][rows[w].pop(x)] -= 1
        for v in (*nb, *partners):  # disjoint: partners are nonadjacent to x
            h = hist[v]
            c = top = closure[v]
            while top and not h[top]:
                top -= 1
            if top != c:
                closure[v] = top
                heappush(self.heaps[top], v)  # lowered(v), inlined: the hot path on tiny graphs
                if top < self.lo:
                    self.lo = top

    def peel(self) -> ClosureOrdering:
        """Remove every alive vertex by least closure, ties to the smallest
        id; record each one's closure just before removal."""
        closure, picked, steps = self.closure, [], []
        while self.alive:
            v = self.pop()
            picked.append(v)
            steps.append(closure[v])
            self.remove(v)
        return ClosureOrdering(tuple(picked), tuple(steps), 1 + max(steps, default=0))


@last_graph_memo
def weak_closure_ordering(g: Graph) -> ClosureOrdering:
    """Greedy peeling: repeatedly remove a vertex of minimum closure.

    Ties break to the smallest id. The greedy minimum is exact: the weak
    closure equals the max over induced subgraphs of the min per-vertex
    closure, and the peeling chain attains that max.
    """
    return ClosureEngine(g).peel()


def degeneracy(g: Graph) -> tuple[int, tuple[int, ...]]:
    """(degeneracy, peel order): Matula-Beck minimum-degree peeling, ties to the smallest id."""
    deg = [len(nb) for nb in g.adjacency()]
    queue, order, d = _MinBuckets(deg), [], 0
    for _ in range(g.n):
        v = queue.pop()
        order.append(v)
        d, deg[v] = max(d, deg[v]), -1
        for w in g.neighbors(v):
            if deg[w] >= 0:
                deg[w] -= 1
                queue.lowered(w)
    return d, tuple(order)


def moon_moser_bound(k: int) -> int:
    """3^ceil(k/3): generous cap on the number of maximal cliques on k vertices."""
    return 3 ** ((k + 2) // 3)


def count_maximal_cliques(g: Graph) -> int:
    return len(maximal_cliques(g))


def neighborhood_class_bound(k: int, weak_closure: int, t: int, clique_count: int | None = None) -> int:
    """Explicit bound on |I| for an independent set I whose neighborhoods all
    lie in a k-vertex cover, every N-class of I has at most t members, and the
    graph is weakly closed with the given value.

    clique_count, when given, is the exact number of maximal cliques of the
    graph induced on the cover; otherwise the 3^ceil(k/3) cap is used.
    """
    if k < 0 or weak_closure < 0 or t < 0:
        raise ValueError("bound arguments must be nonnegative")
    mk = clique_count if clique_count is not None else moon_moser_bound(k)
    s = sum(comb(k, i) for i in range(weak_closure))
    return t * mk * ((weak_closure - 1) * comb(k, 2) + mk * k * s) * s


def cover_class_report(g: Graph, k: int, t: int) -> dict:
    """Size check of a reduced cover instance on g: n against k plus the
    class-count bound, with the weak closure and the maximal-clique count
    measured on g itself."""
    wc = weak_closure_ordering(g).weak_closure
    mk = count_maximal_cliques(g)
    bound = k + neighborhood_class_bound(k, wc, t, clique_count=mk)
    return {"name": "cover-plus-class-count", "value": bound, "measured": g.n,
            "verdict": "within" if g.n <= bound else "exceeded"}
