"""Connected vertex cover kernels, plain and annotated, plus the
component-order generalization (all components of G - S small, S connected).

Two routes:

- the twinset rule alone (parameterized by weak closure): remove one member
  of any false-twin class strictly larger than its neighborhood;
- the annotated route (parameterized by closure number): vertices are
  colored white/red, red meaning "must be in the cover"; trivial decisions
  and a simplicial-vertex rule shrink the instance, and red marks convert
  back to plain instances by attaching a pendant leaf.
"""
from __future__ import annotations

from itertools import permutations

from .closure import closure_number, cover_class_report
from .graph import Graph, connected_components, is_clique, twin_classes
from .reduction import Decided, Instance, exhaust


class ConVcInstance(Instance):
    file_kind = "convc"
    __slots__ = ("graph", "k")
    graph: Graph
    k: int


class AnnotatedConVcInstance(Instance):
    file_kind = "convc"
    vertex_fields = ("red",)
    __slots__ = ("graph", "red", "k")
    graph: Graph
    red: frozenset[int]
    k: int

    def __post_init__(self):
        super().__post_init__()
        for v in self.red:
            if not (0 <= v < self.graph.n):
                raise ValueError(f"red vertex {v} out of range")


# ---------------------------------------------------------------------------
# twinset route

def twinset_rule(inst: ConVcInstance) -> tuple[ConVcInstance, dict | None]:
    """Remove the largest-id member of the first false-twin class that has at
    least two members and more members than neighbors."""
    g = inst.graph
    for cls in twin_classes(g):
        if len(cls) < 2:
            continue
        shared = g.adj(cls[0])
        if len(cls) <= len(shared):
            continue
        victim = cls[-1]
        entry = {
            "rule": "twinset",
            "removed": victim,
            "class": list(cls),
            "neighborhood": sorted(shared),
        }
        return inst.without([victim]), entry
    return inst, None


def kernelize_convc(inst: ConVcInstance) -> tuple[ConVcInstance, list[dict]]:
    """Twinset rule to exhaustion."""
    return exhaust(inst, (twinset_rule,))


def twinset_bound_report(inst: ConVcInstance) -> dict:
    """Size check of a reduced instance: k plus the class-count bound with
    classes as large as the largest twin class left."""
    cap = max((len(c) for c in twin_classes(inst.graph)), default=1)
    return cover_class_report(inst.graph, inst.k, cap)


# ---------------------------------------------------------------------------
# annotated route

def trivial_rules(inst: AnnotatedConVcInstance) -> tuple[AnnotatedConVcInstance | Decided, dict | None]:
    """Isolated-white removal and outright decisions.

    - drop isolated white vertices;
    - No when two components contain edges, or two contain red vertices;
    - Yes when a single vertex carries every edge and all red marks, k >= 1.
    """
    g, red, k = inst.graph, inst.red, inst.k
    isolated_white = [v for v in g.vertices() if g.degree(v) == 0 and v not in red]
    if isolated_white:
        return inst.without(isolated_white), {"rule": "isolated-white", "removed": isolated_white}
    comps = connected_components(g)
    with_edges = [c for c in comps if any(g.degree(v) > 0 for v in c)]
    if len(with_edges) >= 2:
        return Decided(False, "two components contain edges"), {"rule": "split-edges", "decided": "no"}
    with_red = [c for c in comps if any(v in red for v in c)]
    if len(with_red) >= 2:
        return Decided(False, "two components contain red vertices"), {"rule": "split-red", "decided": "no"}
    if k >= 1:
        for v in g.vertices():
            if red <= {v} and g.degree(v) == g.m:
                return Decided(True, f"vertex {v} alone is a solution"), {"rule": "single-vertex", "decided": "yes"}
    return inst, None


def find_simplicial(g: Graph) -> int | None:
    """Smallest vertex whose neighborhood induces a clique."""
    for v in g.vertices():
        if is_clique(g, g.adj(v)):
            return v
    return None


def simplicial_rule(inst: AnnotatedConVcInstance) -> tuple[AnnotatedConVcInstance | Decided, dict | None]:
    """Remove the smallest simplicial vertex of a connected graph on >= 3
    vertices. A red vertex costs one unit of budget; a white or degree-one
    vertex turns its whole neighborhood red. Budget exhaustion decides No."""
    g, red, k = inst.graph, inst.red, inst.k
    if g.n < 3:
        raise ValueError("simplicial rule needs at least 3 vertices")
    if len(connected_components(g)) != 1:
        raise ValueError("simplicial rule needs a connected graph")
    v = find_simplicial(g)
    if v is None:
        return inst, None
    was_red = v in red
    spread = not was_red or g.degree(v) == 1
    new_k = k - 1 if was_red else k
    entry = {
        "rule": "simplicial",
        "removed": v,
        "was_red": was_red,
        "colored_red": sorted(g.adj(v) - red) if spread else [],
    }
    if new_k < 0:
        return Decided(False, "budget exhausted"), {"rule": "simplicial", "decided": "no"}
    return inst.without([v], red=red | g.adj(v) if spread else red, k=new_k), entry


def _simplicial_where_defined(inst: AnnotatedConVcInstance) -> tuple[AnnotatedConVcInstance | Decided, dict | None]:
    """The simplicial rule on connected graphs with at least 3 vertices;
    elsewhere it does not fire."""
    g = inst.graph
    if g.n < 3 or len(connected_components(g)) != 1:
        return inst, None
    return simplicial_rule(inst)


def attach_leaves(inst: AnnotatedConVcInstance) -> ConVcInstance:
    """Forget annotations: pendant leaves force red vertices into any
    connected cover of the resulting plain instance."""
    g, red = inst.graph, inst.red
    edges = list(g.edges())
    nxt = g.n
    for v in sorted(red):
        edges.append((v, nxt))
        nxt += 1
    return ConVcInstance(Graph(nxt, edges), inst.k)


def decided_instance(decision: Decided) -> AnnotatedConVcInstance:
    """The canonical trivially-yes or trivially-no instance (no red marks)."""
    if decision.answer:
        return AnnotatedConVcInstance(Graph(0), frozenset(), 0)
    return AnnotatedConVcInstance(Graph(2, [(0, 1)]), frozenset(), 0)


def kernelize_convc_annotated(inst: AnnotatedConVcInstance) -> tuple[AnnotatedConVcInstance | Decided, list[dict]]:
    """Trivial rules and the simplicial rule to exhaustion."""
    return exhaust(inst, (trivial_rules, _simplicial_where_defined))


def annotated_bound_report(inst: AnnotatedConVcInstance) -> dict:
    """Size check of a reduced annotated instance: n below k + c*k*(k-1)/2."""
    g, k = inst.graph, inst.k
    bound = k + closure_number(g) * k * (k - 1) // 2
    return {"name": "annotated-quadratic", "value": bound, "measured": g.n,
            "verdict": "within" if g.n < bound else "exceeded"}


def kernelize_convc_c(inst: ConVcInstance) -> tuple[AnnotatedConVcInstance | Decided, list[dict]]:
    """Closure-number route: the annotated kernel on the all-white lift. The
    result stays annotated, the form its size bound applies to;
    `attach_leaves` (or `decided_instance`) turns it back into a plain one."""
    return kernelize_convc_annotated(AnnotatedConVcInstance(inst.graph, frozenset(), inst.k))


# ---------------------------------------------------------------------------
# component order connectivity

MAX_ELL = 4


class CocInstance(Instance):
    file_kind = "coc"
    __slots__ = ("graph", "ell", "k")
    graph: Graph
    ell: int
    k: int

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("component bound must be positive")
        if self.ell > MAX_ELL:
            raise ValueError(f"component bound above the supported maximum {MAX_ELL}")
        super().__post_init__()


def small_component_rule(inst: CocInstance) -> tuple[CocInstance, dict | None]:
    """Delete every whole component with at most ell vertices."""
    g = inst.graph
    small = [c for c in connected_components(g) if len(c) <= inst.ell]
    if not small or g.n == 0:
        return inst, None
    gone = sorted(v for c in small for v in c)
    entry = {"rule": "small-component", "removed": gone, "components": [list(c) for c in small]}
    return inst.without(gone), entry


def _connected_sets(g: Graph, r: int) -> list[tuple[int, ...]]:
    """Connected r-vertex sets (r >= 1) as sorted tuples, in lexicographic
    order. Each set is grown from its smallest vertex through neighbours
    numbered above it, so only connected sets are ever built."""
    found: set[tuple[int, ...]] = set()
    for s in g.vertices():
        level = {frozenset((s,))}
        for _ in range(r - 1):
            level = {grown | {w} for grown in level for v in grown
                     for w in g.neighbors(v) if w > s and w not in grown}
        found.update(tuple(sorted(t)) for t in level)
    return sorted(found)


def _twin_signature(g: Graph, t: tuple[int, ...]):
    ts = set(t)
    best = None
    for order in permutations(t):
        bits = tuple(
            1 if g.has_edge(order[i], order[j]) else 0
            for i in range(len(order))
            for j in range(i + 1, len(order))
        )
        outside = tuple(tuple(sorted(g.adj(v) - ts)) for v in order)
        key = (bits, outside)
        if best is None or key < best:
            best = key
    return best


def connected_set_twin_classes(g: Graph, r: int) -> list[list[tuple[int, ...]]]:
    """Connected r-vertex sets grouped by twin equivalence.

    Two sets are twins when some bijection is simultaneously an isomorphism
    of the induced subgraphs and an exact match of each vertex's
    neighborhood outside its own set.
    """
    if r < 1 or r > MAX_ELL:
        raise ValueError(f"set size must be between 1 and {MAX_ELL}")
    groups: dict[object, list[tuple[int, ...]]] = {}
    for t in _connected_sets(g, r):
        groups.setdefault(_twin_signature(g, t), []).append(t)
    return sorted(groups.values(), key=lambda cls: cls[0])


def component_twin_rule(inst: CocInstance) -> tuple[CocInstance, dict | None]:
    """For each size r up to ell, find a twin class with at least k+ell+2
    pairwise disjoint members and delete the last member set.

    Disjoint members share one outside neighborhood, so at most k of them
    can meet a budget-k solution; the rest anchor the safety argument.
    """
    g, ell, k = inst.graph, inst.ell, inst.k
    need = k + ell + 2
    for r in range(1, ell + 1):
        for cls in connected_set_twin_classes(g, r):
            if len(cls) < need:
                continue
            chosen: list[tuple[int, ...]] = []
            occupied: set[int] = set()
            for t in cls:
                if not (set(t) & occupied):
                    chosen.append(t)
                    occupied |= set(t)
            if len(chosen) < need:
                continue
            victim = chosen[need - 1]
            entry = {
                "rule": "component-twin",
                "removed": list(victim),
                "size": r,
                "class_members": [list(t) for t in chosen[:need]],
            }
            return inst.without(victim), entry
    return inst, None


def kernelize_coc(inst: CocInstance) -> tuple[CocInstance, list[dict]]:
    """Small components out first, then twin deletions, until neither rule
    fires. Running the component sweep first keeps every surviving twin set
    attached to a nonempty outside neighborhood."""
    return exhaust(inst, (small_component_rule, component_twin_rule))
