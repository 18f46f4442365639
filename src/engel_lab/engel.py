"""Engel commutator machinery: the Engel relation, the left Engel set,
co-Engel and directed Engel graphs.

``engel_relation`` decides [x,_k y] = 1 for every pair at once by pointer
doubling on the rows of the group's commutator map ``c[y, a] = [a, y]``
(``groups.commutator_map``), each squaring one flat take, stopping once a
round adds no pair; L(G) and the full, reduced and directed graphs are views
of that one matrix.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .graphs import DirectedGraph, SimpleGraph
from .groups import (
    FiniteGroup,
    _blocks,
    _hits,
    commutator_map,
    is_nilpotent,
    is_normal,
    subgroup_generated,
)


def _square_rows(f: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each row of ``f`` composed with itself, ``out[r, a] = f[r, f[r, a]]``,
    as one take from ``f.ravel()``; ``starts[r, 0]`` is where row r begins
    there (an intp column, so ``f + starts`` cannot wrap in f's dtype)."""
    return f.ravel().take(f + starts)


@lru_cache(maxsize=128)
def engel_relation(g: FiniteGroup) -> np.ndarray:
    """n x n bool matrix: ``rel[x, y]`` iff [x, _k y] = 1 for some k >= 1.

    Row y of ``f`` is the map a -> [a, y]; squaring every row at once
    (pointer doubling) gives its 2^j-th iterate.  The identity is a fixed
    point of each map and any element that reaches it does so in fewer than
    n steps, so after 2^d >= n steps x maps to 1 iff it ever does: d =
    (n-1).bit_length() rounds bound the loop.

    A block of rows stops sooner, once a round adds no entry equal to 1.
    In row y, let the depth of a be the least k >= 1 with f^k(a) = 1.  If a
    has depth d > 1 then f(a) has depth d - 1, so the finite depths form a
    contiguous range 1..D.  After j rounds exactly the entries of depth
    <= 2^j are 1; if round j + 1 adds none, no depth lies in
    2^j + 1..2^(j+1), so D <= 2^j and the row is final.  Abelian groups
    (every entry 1 at the start) and groups of small Engel depth take no or
    a few rounds.
    """
    n = g.order
    c = commutator_map(g)
    reaches = np.empty((n, n), dtype=bool)  # reaches[y, x] = rel[x, y]
    for rows in _blocks(n, n):  # the commutator map's row blocks
        f = c[rows]
        starts = np.arange(0, f.size, n)[:, None]
        done = f == g.identity
        count = np.count_nonzero(done)
        for _ in range((n - 1).bit_length()):
            if count == done.size:
                break
            f = _square_rows(f, starts)
            done = f == g.identity
            count, before = np.count_nonzero(done), count
            if count == before:
                break
        reaches[rows] = done
    reaches.flags.writeable = False
    return reaches.T


@lru_cache(maxsize=256)
def left_engel_set(g: FiniteGroup) -> frozenset[int]:
    """L(G) = {x : every Engel sequence [a, _k x] reaches the identity}."""
    return frozenset(np.flatnonzero(engel_relation(g).all(axis=0)).tolist())


def non_engel_elements(g: FiniteGroup) -> tuple[int, ...]:
    """G \\ L(G) in ascending element order (the reduced graph's vertex map)."""
    lset = left_engel_set(g)
    return tuple(a for a in range(g.order) if a not in lset)


def validate_left_engel_baer(g: FiniteGroup) -> np.ndarray:
    """Check L(G) is the Fitting subgroup F(G) (Baer): a normal nilpotent
    subgroup with no strictly larger normal nilpotent subgroup; returns L's
    mask.

    L < F(G) iff some x outside L has a nilpotent normal closure
    N = <L, x^G>: such an N is normal and nilpotent, so L < N <= F(G); and
    for x in F(G) \\ L, N lies in the nilpotent F(G).  N is formed once
    per class x^G L, the same N for all of it.  Raises ValueError naming the
    least x whose N is nilpotent.
    L = G, normal in G with no element outside it, is decided by G's own
    cached series alone.
    """
    inside = np.zeros(g.order, dtype=bool)
    inside[list(left_engel_set(g))] = True
    members = np.flatnonzero(inside)
    whole = len(members) == g.order
    if not whole and (_hits(g.table, members, members) & ~inside).any():  # L holds e: closed?
        raise ValueError(f"L({g.label}) is not a subgroup")
    if not whole and not is_normal(g, inside):
        raise ValueError(f"L({g.label}) is not normal")
    if not is_nilpotent(g, None if whole else inside):
        raise ValueError(f"L({g.label}) is not nilpotent")
    if whole:
        return inside
    seen = inside.copy()
    c = commutator_map(g)
    for x in range(g.order):
        if seen[x]:
            continue
        conjugates = np.flatnonzero(_hits(g.table, np.array([x]), c[:, x]))  # x^a = x [x, a]
        seen |= _hits(g.table, conjugates, members)
        closure = subgroup_generated(g, np.concatenate((members, conjugates)))
        # N = G reads G's one cached series
        if is_nilpotent(g, None if closure.all() else closure):
            raise ValueError(
                f"L({g.label}) is not maximal: the normal closure of "
                f"<L, {g.make_names([x])[0]}> is nilpotent"
            )
    return inside


def _co_engel(rel: np.ndarray) -> np.ndarray:
    """Co-Engel adjacency on the vertices of an Engel relation matrix:
    ~(rel | rel.T), with one n x n temporary."""
    adj = rel | rel.T
    return np.logical_not(adj, out=adj)


@lru_cache(maxsize=128)
def co_engel_graph(g: FiniteGroup) -> SimpleGraph:
    """Full co-Engel graph on all of G: x ~ y iff neither Engel sequence
    ([x,_k y] or [y,_k x]) ever reaches the identity."""
    return SimpleGraph(_co_engel(engel_relation(g)))


@lru_cache(maxsize=128)
def reduced_co_engel_graph(g: FiniteGroup) -> SimpleGraph:
    """Induced subgraph on G \\ L(G), vertices in ascending element order."""
    kept = np.array(non_engel_elements(g), dtype=np.intp)
    if not kept.size:
        raise ValueError(
            f"{g.label} is an Engel group: reduced co-Engel graph has an "
            "empty vertex set"
        )
    # the co-Engel relation is symmetric, so it is read off the transpose,
    # whose rows are contiguous (engel_relation returns a transposed view)
    return SimpleGraph(_co_engel(engel_relation(g).T[kept][:, kept]))


@lru_cache(maxsize=128)
def directed_engel_graph(g: FiniteGroup) -> DirectedGraph:
    """Arc x -> y iff [y, _k x] = 1 for some k (x != y)."""
    arcs = engel_relation(g).T.copy()
    np.fill_diagonal(arcs, False)
    return DirectedGraph(arcs)


def single_arc_mask(g: FiniteGroup, outside_left_engel: bool = False) -> np.ndarray:
    """Mask of the single arcs x -> y (no arc y -> x) of the directed Engel
    graph, only those with both ends outside L(G) if ``outside_left_engel``."""
    m = directed_engel_graph(g).adj
    single = m & ~m.T
    if outside_left_engel:
        inside = list(left_engel_set(g))
        single[inside] = single[:, inside] = False
    return single
