"""Structural graph recognition and combinatorial measurements.

Complete-multipartite certification works from non-adjacency classes: the
graph is K_{n_1,...,n_k} iff "equal or non-adjacent" is an equivalence
relation, in which case the classes are the parts.  Recognition is one array
test on the adjacency matrix; only the clique search packs rows into bitsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .graphs import SimpleGraph

CLIQUE_VERTEX_LIMIT = 64


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
    nonadj = ~g.adj  # "equal or non-adjacent": a simple graph has no loops
    # rep[i] is the least vertex equal or non-adjacent to i; the relation is
    # an equivalence iff it is "same rep", and then rep names i's class
    rep = nonadj.argmax(axis=1)
    if not np.array_equal(nonadj, rep[:, None] == rep[None, :]):
        return None
    parts = np.unique(rep, return_counts=True)[1]
    return MultipartiteShape(tuple(sorted(parts.tolist(), reverse=True)))


def clique_number(g: SimpleGraph) -> int:
    """Exact clique number by branch and bound on bitmask candidate sets.

    Vertices are explored in descending-degree order (ties by index) for
    pruning strength and determinism.  Each node greedily colours its
    candidates and branches on them in reverse colour order, cutting a
    branch once its size plus the vertex's colour cannot beat the best clique
    (Tomita & Seki, DMTCS 2003).
    """
    if g.n > CLIQUE_VERTEX_LIMIT:
        raise ValueError(
            f"clique search limited to {CLIQUE_VERTEX_LIMIT} vertices (graph has {g.n})"
        )
    if g.n == 0:
        return 0
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    # adjacency re-indexed to the search order, row i as a bitset of columns
    packed = np.packbits(g.adj[order][:, order], axis=1, bitorder="little")
    rows = [int.from_bytes(row.tobytes(), "little") for row in packed]
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
    """Exact planarity via the left-right test (networkx), after Euler's
    bound: a planar graph on n >= 3 vertices has at most 3n - 6 edges."""
    if g.n >= 3 and g.n_edges() > 3 * g.n - 6:
        return False
    import networkx as nx  # a third of the package's import time; only needed here

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
    return bool(g.adj[list(lset)][:, list(rset)].all())
