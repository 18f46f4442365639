"""Undirected and directed graphs on vertex indices, each one read-only n x n
bool adjacency matrix and nothing else.

Both classes read their edges from one enumeration: ``np.nonzero`` of the
matrix lists its pairs in row-major, i.e. lexicographic, order (upper
triangle only for undirected graphs).  The DOT and JSON writers stream that
list to a text file one row at a time, byte-reproducibly; ``write_json``
writes the text of ``json.dumps(to_json_obj(), sort_keys=True, indent=2)``
plus a newline, and ``write_dot`` takes vertex labels from its caller.  The
text of a pair (i, j) is a head for i and a tail for j, each formatted once
per vertex, and each row i is its head joined between the tails of its
pairs.  Accessors return Python ints and bools.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, TextIO

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
    """The adjacency matrix and the DOT and JSON writers shared by both graph
    classes; a subclass provides ``pair_arrays()`` and ``_DOT``, its DOT
    keyword and edge operator.  The matrix is made read-only here."""

    adj: np.ndarray

    def __post_init__(self):
        self.adj.flags.writeable = False

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    def _write_pairs(self, out: TextIO, head: str, tail: str, last: str) -> None:
        """Write the lexicographic pair list to ``out`` one row i at a time:
        ``head % i``, then the ``tail % j`` of its pairs (i, j) joined by
        ``head % i``, with ``last % j`` for the last pair of all.  The tail
        strings are shared, one per vertex."""
        i, j = self.pair_arrays()
        tails = np.array([tail % v for v in range(self.n)], dtype=object)[j].tolist()
        if tails:
            tails[-1] = last % j[-1]
        start = 0
        for row, end in enumerate(np.cumsum(np.bincount(i, minlength=self.n)).tolist()):
            if end > start:
                text = head % row
                out.write(text + text.join(tails[start:end]))
                start = end

    def to_json_obj(self) -> dict:
        return {"n": self.n, "edges": np.column_stack(self.pair_arrays()).tolist()}

    def write_json(self, out: TextIO) -> None:
        if not self.adj.any():
            out.write('{\n  "edges": [],\n  "n": %d\n}\n' % self.n)
            return
        out.write('{\n  "edges": [\n')
        self._write_pairs(out, "    [\n      %d,\n      ", "%d\n    ],\n", "%d\n    ]\n")
        out.write('  ],\n  "n": %d\n}\n' % self.n)

    def write_dot(self, out: TextIO, name: str, labels: Optional[Sequence[str]] = None) -> None:
        """Write the DOT text to ``out``, vertex i labelled ``labels[i]`` (default i)."""
        keyword, op = self._DOT
        labels = range(self.n) if labels is None else labels
        out.write(f'{keyword} "{name}" {{\n'
                  + "".join(f'  {i} [label="{label}"];\n' for i, label in enumerate(labels)))
        self._write_pairs(out, f"  %d {op} ", "%d;\n", "%d;\n")
        out.write("}\n")


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
