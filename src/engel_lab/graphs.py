"""Undirected and directed graphs on vertex indices, with bitmask adjacency rows.

Both classes read their edges from one enumeration: the bitmask rows are
unpacked into a bool matrix and ``np.nonzero`` lists its pairs in row-major,
i.e. lexicographic, order (upper triangle only for undirected graphs).  The
DOT and JSON wire formats are written from that list, so serialised output
is byte-reproducible; ``to_json`` is the text of ``json.dumps`` of
``to_json_obj`` with ``sort_keys=True, indent=2``, plus a newline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

_JSON_PAIR = "    [\n      %d,\n      %d\n    ]"


def _bitrows_from_pairs(n: int, pairs: Iterable[tuple[int, int]], symmetric: bool):
    rows = [0] * n
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"vertex pair ({i},{j}) out of range for n={n}")
        if i == j:
            raise ValueError(f"self-loop at vertex {i} not allowed")
        rows[i] |= 1 << j
        if symmetric:
            rows[j] |= 1 << i
    return tuple(rows)


def bit_rows(adj: np.ndarray) -> tuple[int, ...]:
    """Bitmask rows of a bool matrix, bit j = column j."""
    packed = np.packbits(adj, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def bool_matrix(rows: tuple[int, ...], n: int) -> np.ndarray:
    """The n x n bool matrix of bitmask rows (the inverse of ``bit_rows``)."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows), dtype=np.uint8)
    return np.unpackbits(
        packed.reshape(n, width), axis=1, count=n, bitorder="little"
    ).view(bool)


def pair_list(index: tuple[np.ndarray, np.ndarray]) -> list[tuple[int, int]]:
    """Index arrays (i, j), as from ``np.nonzero``, as a list of int pairs."""
    i, j = index
    return list(zip(i.tolist(), j.tolist()))


class _Exports:
    """Label lookup and the DOT and JSON writers shared by both graph classes;
    a subclass has ``n`` and ``labels`` and provides ``pair_arrays()`` and
    ``_DOT``, its DOT keyword and edge operator."""

    def _flat_pairs(self) -> list[int]:
        """i0, j0, i1, j1, ... over the lexicographic pair list; entries are
        shared, one int object per vertex."""
        vertex = np.arange(self.n).astype(object)
        return vertex[np.column_stack(self.pair_arrays()).ravel()].tolist()

    def label_of(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    def to_json_obj(self) -> dict:
        return {"n": self.n, "edges": np.column_stack(self.pair_arrays()).tolist()}

    def to_json(self) -> str:
        args = (*self._flat_pairs(), self.n)
        if len(args) == 1:
            return '{\n  "edges": [],\n  "n": %d\n}\n' % args
        # the template is built in one piece and the joined pairs freed before
        # the final format, so at most one copy of it is alive beside the text
        pairs = [_JSON_PAIR] * (len(args) // 2)
        return ('{\n  "edges": [\n%s\n  ],\n  "n": %%d\n}\n' % ",\n".join(pairs)) % args

    def to_dot(self, name: str = "G") -> str:
        keyword, op = self._DOT
        flat = self._flat_pairs()
        vertices = "".join(f'  {i} [label="{self.label_of(i)}"];\n' for i in range(self.n))
        edges = (f"  %d {op} %d;\n" * (len(flat) // 2)) % tuple(flat)
        return f'{keyword} "{name}" {{\n{vertices}{edges}}}\n'


@dataclass(frozen=True, eq=False)
class SimpleGraph(_Exports):
    """Loop-free undirected graph; ``rows[i]`` is the neighbour bitmask of i."""

    n: int
    rows: tuple[int, ...]
    labels: Optional[tuple[str, ...]] = None
    _DOT = ("graph", "--")

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]], labels=None
    ) -> "SimpleGraph":
        return cls(n, _bitrows_from_pairs(n, edges, symmetric=True),
                   tuple(labels) if labels is not None else None)

    def validate(self) -> None:
        for i, row in enumerate(self.rows):
            if row >> self.n:
                raise ValueError(f"row {i} addresses vertices >= n")
            if row & (1 << i):
                raise ValueError(f"self-loop at vertex {i}")
            for j in range(self.n):
                if bool(row & (1 << j)) != bool(self.rows[j] & (1 << i)):
                    raise ValueError(f"adjacency not symmetric at ({i},{j})")

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] & (1 << j))

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def n_edges(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def matrix(self) -> np.ndarray:
        return bool_matrix(self.rows, self.n)

    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (i, j), i < j, of the edges in lexicographic order."""
        return np.nonzero(np.triu(self.matrix(), 1))

    def edges(self) -> list[tuple[int, int]]:
        return pair_list(self.pair_arrays())

    def n_components(self) -> int:
        unseen, count = (1 << self.n) - 1, 0
        while unseen:
            count += 1
            comp = frontier = unseen & -unseen
            while frontier:  # grow comp one vertex of the frontier at a time
                v = frontier.bit_length() - 1
                new = self.rows[v] & ~comp
                comp |= new
                frontier = (frontier ^ (1 << v)) | new
            unseen &= ~comp
        return count


@dataclass(frozen=True, eq=False)
class DirectedGraph(_Exports):
    """Loop-free directed graph; ``out_rows[i]`` is the out-neighbour bitmask."""

    n: int
    out_rows: tuple[int, ...]
    labels: Optional[tuple[str, ...]] = None
    _DOT = ("digraph", "->")

    @classmethod
    def from_arcs(
        cls, n: int, arcs: Iterable[tuple[int, int]], labels=None
    ) -> "DirectedGraph":
        return cls(n, _bitrows_from_pairs(n, arcs, symmetric=False),
                   tuple(labels) if labels is not None else None)

    def has_arc(self, i: int, j: int) -> bool:
        return bool(self.out_rows[i] & (1 << j))

    def n_arcs(self) -> int:
        return sum(r.bit_count() for r in self.out_rows)

    def matrix(self) -> np.ndarray:
        return bool_matrix(self.out_rows, self.n)

    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (i, j) of the arcs in lexicographic order."""
        return np.nonzero(self.matrix())

    def arcs(self) -> list[tuple[int, int]]:
        return pair_list(self.pair_arrays())

    def is_complete(self) -> bool:
        full = (1 << self.n) - 1
        return all(
            self.out_rows[i] == full ^ (1 << i) for i in range(self.n)
        )


def complete_multipartite_graph(parts: Iterable[int]) -> SimpleGraph:
    """K_{n_1,...,n_k}: independent parts, all cross-part pairs joined."""
    sizes = list(parts)
    if any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    part_of = np.repeat(np.arange(len(sizes)), sizes)
    return SimpleGraph(len(part_of), bit_rows(part_of[:, None] != part_of[None, :]))
