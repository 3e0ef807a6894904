"""Dominating set on split graphs: structured orderings and three
reductions, plus the biclique-freeness report that the biclique-certificate
verify suite checks, with the biclique search it runs (there is no
bipartite ds kernel).

The split kernel works against the degree-sequence clique/independent
bipartition of the current graph, computed once per graph:

- a clique vertex whose closed neighborhood is contained in another's is
  deletable;
- an independent vertex whose neighborhood contains another independent
  vertex's is deletable;
- among independent vertices, trimmed neighborhoods (drop the longest
  all-adjacent clique prefix along a clique-first ordering) have size
  below the weak closure, so a large sunflower among them marks one
  vertex as deletable.

Isolated vertices are self-dominating and get charged to the budget first.
Deleting an independent vertex adjacent to the whole clique side
(`covers_clique_rule`) cannot fire under this partition, whose clique side
is a maximum clique, so the kernel does not try it.
"""
from __future__ import annotations

from . import _lazy
from .graph import Graph, Record, clique_number, is_clique, is_independent_set, last_graph_memo
from .reduction import Decided, Instance, exhaust

# used only by the kernel and the reports: `solve ds`, which needs no more
# than `DsInstance`, compiles neither
closure = _lazy("closure")
combinatorics = _lazy("combinatorics")


class DsInstance(Instance):
    file_kind = "ds"
    __slots__ = ("graph", "k")
    graph: Graph
    k: int


class SplitPartition(Record):
    __slots__ = ("clique", "independent")
    clique: tuple[int, ...]
    independent: tuple[int, ...]


class GoodOrderingError(RuntimeError):
    """The clique-first ordering construction ran out of moves; indicates a
    non-split input or an internal invariant violation."""


@last_graph_memo
def _split_partition_opt(g: Graph) -> SplitPartition | None:
    degs = sorted(((g.degree(v), v) for v in g.vertices()),
                  key=lambda t: (-t[0], t[1]))
    m = 0
    for i, (d, _) in enumerate(degs, start=1):
        if d >= i - 1:
            m = i
    head = sum(d for d, _ in degs[:m])
    tail = sum(d for d, _ in degs[m:])
    if head != m * (m - 1) + tail:
        return None
    clique = tuple(sorted(v for _, v in degs[:m]))
    independent = tuple(sorted(v for _, v in degs[m:]))
    if not is_clique(g, clique) or not is_independent_set(g, independent):
        raise AssertionError("degree test passed but the partition is invalid")
    return SplitPartition(clique, independent)


def split_partition(g: Graph) -> SplitPartition:
    """Degree-sequence split test; the top-degree prefix is the clique side
    and always a maximum clique. Raises ValueError for non-split graphs."""
    part = _split_partition_opt(g)
    if part is None:
        raise ValueError("graph is not split")
    return part


def is_split(g: Graph) -> bool:
    return _split_partition_opt(g) is not None


def _closure_among(masks: list[int], alive: int, v: int) -> int:
    """v's closure in G[alive], one popcount per alive non-neighbor."""
    nv = masks[v] & alive
    rest = bin(alive & ~nv & ~(1 << v))[:1:-1]  # bit w is character w
    return max([(nv & masks[w]).bit_count() for w, b in enumerate(rest) if b == "1"],
               default=0)


def good_ordering(g: Graph, part: SplitPartition) -> closure.ClosureOrdering:
    """An ordering certifying the weak closure in which every clique vertex
    comes before every independent vertex.

    Built front-and-back on an alive bitmask: a clique vertex of currently
    small closure can lead, an independent vertex of small degree can trail,
    and once the maximum degree drops below the weak closure the rest goes in
    sorted clique-then-independent order. Every closure, the certificate's
    recount in each suffix graph included, is a row of mask popcounts.
    """
    gamma = closure.weak_closure_ordering(g).weak_closure
    cset = set(part.clique)
    iset = set(part.independent)
    masks = g.adjacency_masks()
    alive = (1 << g.n) - 1
    deg = {v: g.degree(v) for v in g.vertices()}  # degrees among the alive
    front: list[int] = []
    back: list[int] = []
    while deg:
        if max(deg.values()) <= gamma - 1:
            front += sorted(cset & deg.keys()) + sorted(iset & deg.keys())
            break
        if min(deg.values()) >= gamma:
            v = next((v for v in sorted(cset & deg.keys())
                      if _closure_among(masks, alive, v) < gamma), None)
            if v is None:
                raise GoodOrderingError("no low-closure clique vertex available")
            front.append(v)
        else:
            v = min((v for v in iset & deg.keys() if deg[v] <= gamma - 1), default=None)
            if v is None:
                raise GoodOrderingError("no low-degree independent vertex available")
            back.append(v)
        alive ^= 1 << v
        del deg[v]
        for w in g.adj(v) & deg.keys():
            deg[w] -= 1
    order, steps = (*front, *back[::-1]), []
    alive = (1 << g.n) - 1
    for v in order:  # each step's closure in G[order[i:]], counted afresh
        steps.append(_closure_among(masks, alive, v))
        alive ^= 1 << v
    ordering = closure.ClosureOrdering(order, tuple(steps), 1 + max(steps, default=0))
    if ordering.weak_closure != gamma:
        raise GoodOrderingError("constructed ordering does not certify the weak closure")
    pos = ordering.position()
    if part.clique and part.independent:
        if max(pos[v] for v in part.clique) > min(pos[v] for v in part.independent):
            raise GoodOrderingError("clique vertices must all come first")
    return ordering


def trimmed_neighborhoods(g: Graph, part: SplitPartition, ordering: closure.ClosureOrdering
                          ) -> dict[int, tuple[int, frozenset[int]]]:
    """For each independent vertex u: the length s of the longest prefix of
    the ordered clique fully adjacent to u, and N(u) minus that prefix.

    The trimmed set has at most weak_closure - 1 vertices. Raises when some
    independent vertex is adjacent to the entire clique (reduce that first).
    """
    pos = ordering.position()
    cseq = sorted(part.clique, key=lambda v: pos[v])
    out: dict[int, tuple[int, frozenset[int]]] = {}
    for u in part.independent:
        nu = g.adj(u)
        s = None
        for i, cv in enumerate(cseq):
            if cv not in nu:
                s = i
                break
        if s is None:
            raise ValueError(f"vertex {u} is adjacent to the whole clique")
        out[u] = (s, nu - set(cseq[:s]))
    return out


def isolated_rule(inst: DsInstance) -> tuple[DsInstance | Decided, dict | None]:
    """Isolated vertices must dominate themselves: charge each to the
    budget, or decide No when they outnumber it."""
    g = inst.graph
    iso = [v for v in g.vertices() if g.degree(v) == 0]
    if not iso:
        return inst, None
    if len(iso) > inst.k:
        return Decided(False, "more isolated vertices than budget"), {
            "rule": "isolated", "decided": "no", "isolated": iso}
    entry = {"rule": "isolated", "removed": iso, "budget_spent": len(iso)}
    return inst.without(iso, k=inst.k - len(iso)), entry


def covers_clique_rule(inst: DsInstance) -> tuple[DsInstance, dict | None]:
    """Delete every independent vertex adjacent to the entire clique side.

    The degree-sequence partition's clique side is a maximum clique, so no
    independent vertex sees all of it and this never fires; the kernel does
    not try it. It stays because the traced benchmark (perfbench/tracing.py)
    wraps it by name, and rule-safety still checks it; deleting it waits on
    a change to that benchmark.
    """
    g = inst.graph
    part = split_partition(g)
    cfull = frozenset(part.clique)
    gone = [u for u in part.independent if g.adj(u) == cfull]
    if not gone:
        return inst, None
    return inst.without(gone), {"rule": "covers-clique", "removed": gone}


def dominated_clique_vertex_rule(inst: DsInstance) -> tuple[DsInstance, dict | None]:
    """Delete the first clique vertex whose closed neighborhood is contained
    in another clique vertex's closed neighborhood (ties keep the smaller id)."""
    g = inst.graph
    clique = split_partition(g).clique
    closed = [g.closed_adj(v) for v in clique]
    for v, nv in zip(clique, closed):
        for u, nu in zip(clique, closed):
            if u != v and nu >= nv and (nu != nv or u < v):
                entry = {"rule": "dominated-clique-vertex", "removed": v, "dominator": u}
                return inst.without([v]), entry
    return inst, None


def dominated_independent_vertex_rule(inst: DsInstance) -> tuple[DsInstance, dict | None]:
    """Delete the first independent vertex whose open neighborhood contains
    another independent vertex's open neighborhood (ties keep the smaller id).

    Safe because some optimal solution avoids the independent side entirely
    (each independent vertex in a solution can swap to a clique neighbor, as
    long as there are no isolated vertices): a clique-side solution hitting
    the smaller neighborhood also hits the larger one, so the vertex with
    the larger neighborhood is never the hard one to dominate. Exhausting
    this makes the independent-side neighborhoods an antichain, which keeps
    the trimmed neighborhoods pairwise distinct; without it, repeated
    trimmed sets can dodge the sunflower rule and break the kernel's
    independent-side size bound.
    """
    g = inst.graph
    part = split_partition(g)
    if any(g.degree(v) == 0 for v in g.vertices()):
        raise ValueError("remove isolated vertices first")
    for v in part.independent:
        nv = g.adj(v)
        for u in part.independent:
            if u == v:
                continue
            nu = g.adj(u)
            if nu <= nv and (nu != nv or u < v):
                entry = {"rule": "dominated-independent-vertex",
                         "removed": v, "witness": u}
                return inst.without([v]), entry
    return inst, None


def sunflower_rule(inst: DsInstance) -> tuple[DsInstance, dict | None]:
    """Find k+2 independent vertices whose trimmed neighborhoods form a
    sunflower; delete the one with the longest trimmed prefix (ties to the
    largest id).
    """
    g, k = inst.graph, inst.k
    part = split_partition(g)
    ivs = sorted(part.independent)
    if len(ivs) < k + 2:
        return inst, None
    ordering = good_ordering(g, part)
    trimmed = trimmed_neighborhoods(g, part, ordering)
    family = [trimmed[u][1] for u in ivs]
    sf = combinatorics.find_sunflower(family, k + 2)
    if sf is None:
        return inst, None
    chosen = sorted(sf.members)[:k + 2]
    group = [ivs[i] for i in chosen]
    victim = max(group, key=lambda u: (trimmed[u][0], u))
    entry = {
        "rule": "sunflower",
        "removed": victim,
        "group": group,
        "core": sorted(sf.core),
    }
    return inst.without([victim]), entry


def kernelize_ds_split(inst: DsInstance) -> tuple[DsInstance | Decided, list[dict]]:
    """The isolated-vertex charge and the three reductions to exhaustion,
    cheapest checks first. Every rule of a round reads the same graph, so
    the partition and the weak closure behind the sunflower rule's ordering
    are computed once per round (both are kept for the last graph asked
    about); a fire makes a new graph, and the next round computes them
    afresh. Raises ValueError for non-split graphs."""
    split_partition(inst.graph)
    return exhaust(inst, (isolated_rule, dominated_clique_vertex_rule,
                          dominated_independent_vertex_rule, sunflower_rule))


def decided_instance(decision: Decided) -> DsInstance:
    """The canonical trivially-yes or trivially-no instance."""
    if decision.answer:
        return DsInstance(Graph(0), 0)
    return DsInstance(Graph(1), 0)


def split_bound_report(inst: DsInstance) -> dict:
    """Size check of a reduced split instance: the independent side below
    (gamma-1)! * (k+2)^(gamma-1), the clique side at most gamma times that
    side plus one."""
    g, k = inst.graph, inst.k
    part = split_partition(g)
    wc = closure.weak_closure_ordering(g).weak_closure
    isize, csize = len(part.independent), len(part.clique)
    ibound = combinatorics.sunflower_guarantee(wc - 1, k + 2)
    cbound = wc * isize + 1
    return {"name": "split-side-counts", "independent": isize,
            "independent_bound": ibound, "clique": csize, "clique_bound": cbound,
            "verdict": "within" if isize < ibound and csize <= cbound else "exceeded"}


def contains_biclique(g: Graph, r: int, s: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Search for K_{r,s} as a (not necessarily induced) subgraph.

    Returns (side_r, side_s) as sorted vertex tuples, or None. Exhaustive with
    common-neighborhood pruning; smallest witness in lexicographic order.
    """
    if r < 1 or s < 1:
        raise ValueError("biclique sides must be positive")
    # enumerate the smaller side to cut the search space
    if r > s:
        hit = contains_biclique(g, s, r)
        if hit is None:
            return None
        return hit[1], hit[0]

    verts = list(g.vertices())

    def extend(chosen: list[int], common: frozenset[int], start: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        if len(chosen) == r:
            if len(common) >= s:
                return tuple(chosen), tuple(sorted(common)[:s])
            return None
        need = r - len(chosen)
        for i in range(start, g.n - need + 1):
            v = verts[i]
            new_common = common & g.adj(v) if chosen else g.adj(v)
            # remaining picks can only shrink the common side further
            if len(new_common) < s:
                continue
            hit = extend(chosen + [v], new_common, i + 1)
            if hit is not None:
                return hit
        return None

    return extend([], frozenset(), 0)


def biclique_freeness_report(g: Graph) -> dict:
    """Weak closure, clique number, and whether the graph stays free of the
    complete bipartite subgraph both sides of size closure + clique + 1."""
    wc = closure.weak_closure_ordering(g).weak_closure
    omega = clique_number(g)
    rho = wc + omega + 1
    found = contains_biclique(g, rho, rho)
    return {
        "weak_closure": wc,
        "clique_number": omega,
        "rho": rho,
        "biclique": None if found is None else [sorted(found[0]), sorted(found[1])],
        "consistent": found is None,
    }
