"""Structural graph recognition and combinatorial measurements.

Both read the twin quotient, the adjacency of one vertex per false-twin class
(``SimpleGraph.twin_classes``, found once per graph).  The graph is
K_{n_1,...,n_k} iff the quotient is complete, the classes being the parts; a
clique meets each class at most once, so ω(G) is the quotient's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

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


def _quotient_adjacency(g: SimpleGraph) -> np.ndarray:
    rep = g.twin_classes[0]
    return g.adj.take(rep, axis=0).take(rep, axis=1)


def recognize_complete_multipartite(g: SimpleGraph) -> Optional[MultipartiteShape]:
    """Some(shape) iff the twin quotient is complete; the parts are the class sizes."""
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    k = g.twin_classes[0].size
    if np.count_nonzero(_quotient_adjacency(g)) != k * (k - 1):
        return None
    return MultipartiteShape(tuple(sorted(g.twin_classes[1].tolist(), reverse=True)))


def clique_number(g: SimpleGraph) -> int:
    """Exact clique number by branch and bound on bitmask candidate sets,
    run on the twin quotient; ``CLIQUE_VERTEX_LIMIT`` still bounds g.n.

    Quotient vertices are explored in descending degree order (ties by
    representative) for pruning strength and determinism.  Each node greedily
    colours its candidates and branches on them in reverse colour order,
    cutting a branch once its size plus the vertex's colour cannot beat the
    best clique (Tomita & Seki, DMTCS 2003).
    """
    if g.n > CLIQUE_VERTEX_LIMIT:
        raise ValueError(
            f"clique search limited to {CLIQUE_VERTEX_LIMIT} vertices (graph has {g.n})"
        )
    if g.n == 0:
        return 0
    quotient, rep = _quotient_adjacency(g), g.twin_classes[0]
    order = np.lexsort((rep, -np.count_nonzero(quotient, axis=1)))
    # quotient re-indexed to the search order, row i as a bitset of columns
    packed = np.packbits(quotient[order][:, order], axis=1, bitorder="little")
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

    expand((1 << len(order)) - 1, 0)
    return best


def _biclique_sides(parts: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """(|L|, |R|) for each split of the parts into two nonempty sides, each
    split once: merging the parts on each side exhibits a K_{|L|,|R|}."""
    total = sum(parts)
    for split in range(1, 1 << (len(parts) - 1)):
        left = sum(p for i, p in enumerate(parts) if split >> i & 1)
        yield left, total - left


def is_planar(g: SimpleGraph) -> bool:
    """Exact planarity.  A recognised K_{n_1,...,n_k} is planar iff it has no
    K_5 and no K_{3,3} (Kuratowski): k <= 4 and no split of its parts into two
    sides has both sides >= 3.  Any other graph goes to Euler's bound (at most
    3n - 6 edges on n >= 3 vertices), then to the left-right test (networkx)."""
    shape = recognize_complete_multipartite(g) if g.n else None
    if shape is not None:
        return shape.a <= 4 and all(min(s) < 3 for s in _biclique_sides(shape.parts))
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
