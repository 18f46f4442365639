"""Undirected and directed graphs on vertex indices, stored as one read-only
n x n bool adjacency matrix.

Both classes read their edges from one enumeration: ``np.nonzero`` of the
matrix lists its pairs in row-major, i.e. lexicographic, order (upper
triangle only for undirected graphs).  The DOT and JSON wire formats are
written from that list, so serialised output is byte-reproducible;
``to_json`` is the text of ``json.dumps`` of ``to_json_obj`` with
``sort_keys=True, indent=2``, plus a newline.  Both writers go through one
row writer: the text of a pair (i, j) is a head for i and a tail for j, each
formatted once per vertex, and each row i is its head joined between the
tails of its pairs.  Accessors return Python ints and bools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

def _matrix_from_pairs(n: int, pairs: Iterable[tuple[int, int]], symmetric: bool):
    adj = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"vertex pair ({i},{j}) out of range for n={n}")
        if i == j:
            raise ValueError(f"self-loop at vertex {i} not allowed")
        adj[i, j] = True
        if symmetric:
            adj[j, i] = True
    return adj


def pair_list(index: tuple[np.ndarray, np.ndarray]) -> list[tuple[int, int]]:
    """Index arrays (i, j), as from ``np.nonzero``, as a list of int pairs."""
    i, j = index
    return list(zip(i.tolist(), j.tolist()))


@dataclass(frozen=True, eq=False)
class _Graph:
    """The adjacency matrix, labels, and the DOT and JSON writers shared by
    both graph classes; a subclass provides ``pair_arrays()`` and ``_DOT``,
    its DOT keyword and edge operator.  The matrix is made read-only here."""

    adj: np.ndarray
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        self.adj.flags.writeable = False

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    def _pair_rows(self, head: str, tail: str) -> list[str]:
        """The lexicographic pair list as text, two strings per row i that
        has pairs: ``head % i``, then the ``tail % j`` of its pairs (i, j)
        joined by ``head % i``.  The tail strings are shared, one per
        vertex."""
        i, j = self.pair_arrays()
        tails = np.array([tail % v for v in range(self.n)], dtype=object)[j].tolist()
        out, start = [], 0
        for row, end in enumerate(np.cumsum(np.bincount(i, minlength=self.n)).tolist()):
            if end > start:
                text = head % row
                out += (text, text.join(tails[start:end]))
                start = end
        return out

    def label_of(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    def to_json_obj(self) -> dict:
        return {"n": self.n, "edges": np.column_stack(self.pair_arrays()).tolist()}

    def to_json(self) -> str:
        rows = self._pair_rows("    [\n      %d,\n      ", "%d\n    ],\n")
        if not rows:
            return '{\n  "edges": [],\n  "n": %d\n}\n' % self.n
        rows[-1] = rows[-1][:-2] + "\n"  # no comma after the last pair
        return "".join(['{\n  "edges": [\n', *rows, '  ],\n  "n": %d\n}\n' % self.n])

    def to_dot(self, name: str = "G") -> str:
        keyword, op = self._DOT
        vertices = "".join(f'  {i} [label="{self.label_of(i)}"];\n' for i in range(self.n))
        edges = self._pair_rows(f"  %d {op} ", "%d;\n")
        return "".join([f'{keyword} "{name}" {{\n', vertices, *edges, "}\n"])


class SimpleGraph(_Graph):
    """Loop-free undirected graph; ``adj`` is symmetric with a clear diagonal."""

    _DOT = ("graph", "--")

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]], labels=None
    ) -> "SimpleGraph":
        return cls(_matrix_from_pairs(n, edges, symmetric=True),
                   tuple(labels) if labels is not None else None)

    def validate(self) -> None:
        adj = self.adj
        if adj.dtype != bool or adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(
                f"adjacency must be a square bool matrix, got {adj.dtype} {adj.shape}"
            )
        loops = np.flatnonzero(adj.diagonal())
        if loops.size:
            raise ValueError(f"self-loop at vertex {loops[0]}")
        i, j = np.nonzero(adj != adj.T)
        if i.size:
            raise ValueError(f"adjacency not symmetric at ({i[0]},{j[0]})")

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i, j])

    def degree(self, i: int) -> int:
        return int(np.count_nonzero(self.adj[i]))

    def degrees(self) -> list[int]:
        return np.count_nonzero(self.adj, axis=1).tolist()

    def n_edges(self) -> int:
        return int(np.count_nonzero(self.adj)) // 2

    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (i, j), i < j, of the edges in lexicographic order."""
        return np.nonzero(np.triu(self.adj, 1))

    def edges(self) -> list[tuple[int, int]]:
        return pair_list(self.pair_arrays())

    def n_components(self) -> int:
        unseen, count = np.ones(self.n, dtype=bool), 0
        while unseen.any():
            count += 1
            comp = np.zeros(self.n, dtype=bool)
            comp[unseen.argmax()] = True
            while True:  # grow comp by all neighbours of its vertices
                grown = comp | self.adj[comp].any(axis=0)
                if np.array_equal(grown, comp):
                    break
                comp = grown
            unseen &= ~comp
        return count


class DirectedGraph(_Graph):
    """Loop-free directed graph; ``adj[i, j]`` is the arc i -> j."""

    _DOT = ("digraph", "->")

    @classmethod
    def from_arcs(
        cls, n: int, arcs: Iterable[tuple[int, int]], labels=None
    ) -> "DirectedGraph":
        return cls(_matrix_from_pairs(n, arcs, symmetric=False),
                   tuple(labels) if labels is not None else None)

    def has_arc(self, i: int, j: int) -> bool:
        return bool(self.adj[i, j])

    def n_arcs(self) -> int:
        return int(np.count_nonzero(self.adj))

    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (i, j) of the arcs in lexicographic order."""
        return np.nonzero(self.adj)

    def arcs(self) -> list[tuple[int, int]]:
        return pair_list(self.pair_arrays())

    def is_complete(self) -> bool:
        return np.array_equal(self.adj, ~np.eye(self.n, dtype=bool))


def complete_multipartite_graph(parts: Iterable[int]) -> SimpleGraph:
    """K_{n_1,...,n_k}: independent parts, all cross-part pairs joined."""
    sizes = list(parts)
    if any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    part_of = np.repeat(np.arange(len(sizes)), sizes)
    return SimpleGraph(part_of[:, None] != part_of[None, :])
