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
from functools import cached_property
from typing import Optional

import numpy as np


def pair_list(index: tuple[np.ndarray, np.ndarray]) -> list[tuple[int, int]]:
    """Index arrays (i, j), as from ``np.nonzero``, as a list of int pairs."""
    i, j = index
    return list(zip(i.tolist(), j.tolist()))


def row_classes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(least row, size) of each class of equal rows, each row one opaque byte string."""
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    return np.unique(keys, return_index=True, return_counts=True)[1:]


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

    @cached_property
    def twin_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """``row_classes`` of the packed rows; equal rows of a loop-free graph are false twins."""
        return row_classes(np.packbits(self.adj, axis=1))

    def n_edges(self) -> int:
        return int(np.count_nonzero(self.adj)) // 2

    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (i, j), i < j, of the edges in lexicographic order."""
        return np.nonzero(np.triu(self.adj, 1))

    def edges(self) -> list[tuple[int, int]]:
        return pair_list(self.pair_arrays())


class DirectedGraph(_Graph):
    """Loop-free directed graph; ``adj[i, j]`` is the arc i -> j."""

    _DOT = ("digraph", "->")

    def n_arcs(self) -> int:
        return int(np.count_nonzero(self.adj))

    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (i, j) of the arcs in lexicographic order."""
        return np.nonzero(self.adj)

    def is_complete(self) -> bool:
        return np.array_equal(self.adj, ~np.eye(self.n, dtype=bool))
