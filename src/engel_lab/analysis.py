"""Structural graph recognition and combinatorial measurements.

Complete-multipartite certification works from non-adjacency classes: the
graph is K_{n_1,...,n_k} iff "equal or non-adjacent" is an equivalence
relation, in which case the classes are the parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import networkx as nx

from .graphs import SimpleGraph

CLIQUE_VERTEX_LIMIT = 64
ISO_VERTEX_LIMIT = 12


@dataclass(frozen=True)
class MultipartiteShape:
    """Certificate that a graph is complete multipartite.

    ``parts`` is the multiset of part sizes, sorted descending; ``a`` is the
    number of parts and ``b`` the common size when uniform.
    """

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(p < 1 for p in self.parts):
            raise ValueError("parts must be positive")
        if tuple(sorted(self.parts, reverse=True)) != self.parts:
            raise ValueError("parts must be sorted descending")

    @classmethod
    def uniform(cls, a: int, b: int) -> "MultipartiteShape":
        return cls(tuple([b] * a))

    @property
    def a(self) -> int:
        return len(self.parts)

    @property
    def is_uniform(self) -> bool:
        return self.parts[0] == self.parts[-1]

    @property
    def b(self) -> Optional[int]:
        return self.parts[0] if self.is_uniform else None

    @property
    def n_vertices(self) -> int:
        return sum(self.parts)


def recognize_complete_multipartite(g: SimpleGraph) -> Optional[MultipartiteShape]:
    """Some(shape) iff non-adjacency-or-equality is an equivalence relation
    with completely joined classes; the parts are the class sizes."""
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    full = (1 << g.n) - 1
    nonadj = [full ^ g.rows[i] for i in range(g.n)]  # includes the vertex itself
    classes = set()
    for i in range(g.n):
        cls = nonadj[i]
        rest = cls
        while rest:
            j = (rest & -rest).bit_length() - 1
            if nonadj[j] != cls:
                return None
            rest &= rest - 1
        classes.add(cls)
    # distinct classes are completely joined by construction once the
    # partition check passes (anything outside the class is adjacent)
    parts = tuple(sorted((c.bit_count() for c in classes), reverse=True))
    return MultipartiteShape(parts)


def clique_number(g: SimpleGraph, max_vertices: int = CLIQUE_VERTEX_LIMIT) -> int:
    """Exact clique number by branch and bound on bitmask candidate sets.

    Vertices are explored in descending-degree order (ties by index) for
    pruning strength and determinism.  Each node greedily colours its
    candidates and branches on them in reverse colour order, cutting a
    branch once its size plus the vertex's colour cannot beat the best clique
    (Tomita & Seki, DMTCS 2003).
    """
    if g.n > max_vertices:
        raise ValueError(
            f"clique search limited to {max_vertices} vertices (graph has {g.n})"
        )
    if g.n == 0:
        return 0
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    pos = {v: i for i, v in enumerate(order)}
    # adjacency re-indexed to the search order
    rows = [0] * g.n
    for v in range(g.n):
        row = g.rows[v]
        mask = 0
        while row:
            w = (row & -row).bit_length() - 1
            mask |= 1 << pos[w]
            row &= row - 1
        rows[pos[v]] = mask
    best = 0

    def expand(cand: int, size: int) -> None:
        nonlocal best
        # greedy sequential colouring: each colour class is an independent set
        coloured = []
        uncoloured = cand
        colour = 0
        while uncoloured:
            colour += 1
            free = uncoloured
            while free:
                v = (free & -free).bit_length() - 1
                free &= ~rows[v] & (free - 1)
                uncoloured &= ~(1 << v)
                coloured.append((v, colour))
        for v, colour in reversed(coloured):
            if size + colour <= best:
                return
            sub = cand & rows[v]
            if sub:
                expand(sub, size + 1)
            elif size + 1 > best:
                best = size + 1
            cand &= ~(1 << v)

    expand((1 << g.n) - 1, 0)
    return best


def is_planar(g: SimpleGraph) -> bool:
    """Exact planarity via the left-right test (networkx)."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    planar, _ = nx.check_planarity(nxg)
    return planar


def verify_biclique(
    g: SimpleGraph, left: Iterable[int], right: Iterable[int]
) -> bool:
    """True iff every left-right pair is an edge (a K_{|L|,|R|} subgraph)."""
    lset, rset = set(left), set(right)
    if lset & rset:
        raise ValueError(f"biclique sides overlap: {sorted(lset & rset)}")
    return all(g.has_edge(i, j) for i in lset for j in rset)


def _iso_backtrack(g1: SimpleGraph, g2: SimpleGraph) -> bool:
    n = g1.n
    deg1, deg2 = g1.degrees(), g2.degrees()
    if sorted(deg1) != sorted(deg2):
        return False
    order = sorted(range(n), key=lambda v: (-deg1[v], v))
    mapping = [-1] * n
    used = [False] * n

    def place(k: int) -> bool:
        if k == n:
            return True
        v = order[k]
        for w in range(n):
            if used[w] or deg2[w] != deg1[v]:
                continue
            ok = True
            for prev in order[:k]:
                if g1.has_edge(v, prev) != g2.has_edge(w, mapping[prev]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if place(k + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    return place(0)


def graphs_isomorphic_small(g1: SimpleGraph, g2: SimpleGraph) -> bool:
    """Isomorphism for graphs that are recognised complete multipartite (any
    size; compared by shape) or have at most 12 vertices (backtracking)."""
    if g1.n != g2.n:
        return False
    s1 = recognize_complete_multipartite(g1)
    s2 = recognize_complete_multipartite(g2)
    if s1 is not None and s2 is not None:
        return s1.parts == s2.parts
    if (s1 is None) != (s2 is None):
        return False
    if g1.n > ISO_VERTEX_LIMIT:
        raise ValueError(
            f"general isomorphism limited to {ISO_VERTEX_LIMIT} vertices"
        )
    return _iso_backtrack(g1, g2)
