"""Constructive clique-or-independent-set search in weakly closed graphs.

A graph whose order reaches ramsey_threshold(a, b, weak_closure) always
contains a clique of size a or an independent set of size b. The search
walks the closure ordering in blocks from the back, growing an independent
set; inside a block it either extends the set with a non-neighbor, finds
enough common neighbors of a small subset to report a clique, or swaps a
subset for a fresh independent chunk found recursively. Small graphs fall
back to exact subset search: `cliquesearch.first_clique`, the bitmask clique
search the oracles share, returns the first subset in lexicographic order.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

from .closure import weak_closure_ordering
from .cliquesearch import first_clique
from .graph import Graph, Record, induced_subgraph, is_clique, is_independent_set

# subset-search budget: combinations(n, size) above this are not enumerated
_BRUTE_CAP = 250_000


class RamseyWitness(Record):
    __slots__ = ("kind", "vertices")
    kind: str
    vertices: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("clique", "independent-set"):
            raise ValueError("kind must be 'clique' or 'independent-set'")


def validate_witness(g: Graph, w: RamseyWitness) -> bool:
    if len(set(w.vertices)) != len(w.vertices):
        return False
    if any(v not in range(g.n) for v in w.vertices):
        return False
    if w.kind == "clique":
        return is_clique(g, w.vertices)
    return is_independent_set(g, w.vertices)


def _paper_count(a: int, b: int, gamma: int) -> int:
    tail = sum(comb(bp - 1, gamma) for bp in range(1, b + 1))
    return a * comb(b, gamma) + b * comb(a, gamma) * tail


def _derived_count(a: int, b: int, gamma: int) -> int:
    # per block: all-but-clique vertices sort into "many tracked neighbors"
    # (at most (a-1) per gamma-subset) or an exact-neighborhood class; a
    # class of C(a+gamma, gamma) vertices yields the swap via the classical
    # two-color Ramsey bound, and one more vertex forces one of the cases
    classes = sum(comb(b - 1, j) for j in range(1, gamma))
    per_block = (a - 1) * comb(b - 1, gamma) \
        + (comb(a + gamma, gamma) - 1) * classes + 1
    return b * per_block


@lru_cache(maxsize=None)
def _threshold(a: int, b: int, gamma: int) -> int:
    if a == 1 or b == 1:
        raw = 1
    elif a <= gamma or b <= gamma:
        raw = comb(a + b, min(a, b, gamma + 1))
    else:
        raw = max(_paper_count(a, b, gamma) + 1, _derived_count(a, b, gamma))
    best = raw
    if a > 1:
        best = max(best, _threshold(a - 1, b, gamma))
    if b > 1:
        best = max(best, _threshold(a, b - 1, gamma))
    if gamma > 1:
        best = max(best, _threshold(a, b, gamma - 1))
    return best


def r_gamma_bound(a: int, b: int, gamma: int) -> int:
    """Vertex count from which a clique of size a or an independent set of
    size b is guaranteed at the given weak closure. Conservative (the true
    extremal numbers are smaller) and monotone in every argument."""
    if a < 1 or b < 1 or gamma < 1:
        raise ValueError("sizes and weak closure must be at least 1")
    return _threshold(a, b, gamma)


def _brute_subset(g: Graph, size: int, clique: bool) -> tuple[int, ...] | None:
    """The first `size`-subset of the vertices in `combinations` order that
    is a clique (or, with clique False, an independent set), found by
    `cliquesearch.first_clique`; None when there is none or when there are more
    than `_BRUTE_CAP` subsets."""
    n = g.n
    if size > n or comb(n, size) > _BRUTE_CAP:
        return None
    masks = g.adjacency_masks()
    if not clique:
        masks = [((1 << n) - 1) ^ mask for mask in masks]
    return first_clique(masks, size)[0]


def _blocks(order: tuple[int, ...], b: int) -> list[list[int]]:
    base, rem = divmod(len(order), b)
    out = [list(order[:base + rem])]
    for i in range(1, b):
        start = base + rem + (i - 1) * base
        out.append(list(order[start:start + base]))
    return out


def _constructive(g: Graph, a: int, b: int) -> RamseyWitness | None:
    ordering = weak_closure_ordering(g)
    gamma = ordering.weak_closure
    if a <= gamma or b <= gamma:
        return None
    chunks = _blocks(ordering.order, b)
    indep: set[int] = set()
    for block in reversed(chunks):
        extended = False
        for v in block:
            if not (g.adj(v) & indep):
                indep.add(v)
                extended = True
                break
        if extended:
            continue
        for x in combinations(sorted(indep), gamma):
            vx = [v for v in block if set(x) <= g.adj(v)]
            if len(vx) >= a and is_clique(g, vx[:a]):
                return RamseyWitness("clique", tuple(sorted(vx[:a])))
        by_class: dict[frozenset[int], list[int]] = {}
        for v in block:
            key = g.adj(v) & frozenset(indep)
            if 1 <= len(key) <= gamma - 1:
                by_class.setdefault(key, []).append(v)
        for key, members in sorted(
                by_class.items(), key=lambda kv: (-len(kv[1]), sorted(kv[0]))):
            sub, idmap = induced_subgraph(g, members)
            inner = clique_or_independent_set(sub, a, gamma)
            if inner is None:
                continue
            mapped = tuple(sorted(idmap[v] for v in inner.vertices))
            if inner.kind == "clique":
                return RamseyWitness("clique", mapped)
            indep = (indep - set(key)) | set(mapped)
            extended = True
            break
        if not extended:
            return None
    if len(indep) < b:
        return None
    chosen = tuple(sorted(indep)[:b])
    if not is_independent_set(g, chosen):
        return None
    return RamseyWitness("independent-set", chosen)


def clique_or_independent_set(g: Graph, a: int, b: int) -> RamseyWitness | None:
    """A clique of size a or an independent set of size b, if either can be
    found; None otherwise (only possible below the guarantee threshold, or
    past the exact-search budget on large graphs)."""
    if a < 1 or b < 1:
        raise ValueError("requested sizes must be at least 1")
    if g.n == 0:
        return None
    found = _constructive(g, a, b)
    if found is not None:
        return found
    cl = _brute_subset(g, a, True)
    if cl is not None:
        return RamseyWitness("clique", cl)
    ind = _brute_subset(g, b, False)
    if ind is not None:
        return RamseyWitness("independent-set", ind)
    return None
