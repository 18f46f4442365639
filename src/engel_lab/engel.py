"""Engel commutator machinery: verdicts, the Engel relation, the left Engel
set, co-Engel and directed Engel graphs.

The iterated commutator sequence a_{k+1} = [a_k, y] lives in a finite set, so
it is eventually periodic; a verdict reports either the minimal k with
[x,_k y] = 1 or the period of the non-terminating tail.

``engel_relation`` decides [x,_k y] = 1 for every pair at once by pointer
doubling on the rows of the group's commutator map ``c[y, a] = [a, y]``
(``groups.commutator_map``); L(G) and the full, reduced and directed graphs
are views of that one matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .graphs import DirectedGraph, SimpleGraph
from .groups import (
    FiniteGroup,
    Subgroup,
    commutator_map,
    cosets,
    is_nilpotent,
    is_normal,
    normal_cyclic_subgroups,
    quotient_group,
    subgroup_generated,
)
# the doubling steps gather on the same row blocks as the commutator map
from .groups import _BLOCK_ENTRIES as _RELATION_BLOCK_ENTRIES


@dataclass(frozen=True)
class EngelVerdict:
    """Outcome of iterating [x, _k y] over k = 1, 2, ...

    Exactly one of ``first_k`` (minimal k reaching the identity) and
    ``cycle_length`` (period of the recurring tail) is set.
    """

    terminates: bool
    first_k: Optional[int] = None
    cycle_length: Optional[int] = None

    def __post_init__(self):
        if self.terminates != (self.first_k is not None) or self.terminates == (
            self.cycle_length is not None
        ):
            raise ValueError("exactly one of first_k / cycle_length must be set")


def engel_verdict(g: FiniteGroup, x: int, y: int) -> EngelVerdict:
    """Iterate a_1 = [x,y], a_{k+1} = [a_k, y] until identity or first repeat.

    The identity, once reached, is absorbing ([1,y] = 1), so it can only occur
    before the first repeat; the |G| iteration bound is asserted, never used
    as the stop rule.
    """
    seen: dict[int, int] = {}
    a = g.commutator(x, y)
    k = 1
    while a not in seen:
        if a == g.identity:
            return EngelVerdict(terminates=True, first_k=k)
        seen[a] = k
        a = g.commutator(a, y)
        k += 1
        assert k <= g.order + 1, "engel sequence exceeded the hard |G| bound"
    return EngelVerdict(terminates=False, cycle_length=k - seen[a])


@lru_cache(maxsize=128)
def engel_relation(g: FiniteGroup) -> np.ndarray:
    """n x n bool matrix: ``rel[x, y]`` iff [x, _k y] = 1 for some k >= 1.

    Row y of ``f`` is the map a -> [a, y]; squaring every row at once
    (pointer doubling) gives its 2^j-th iterate.  The identity is a fixed
    point of each map and any element that reaches it does so in fewer than
    n steps, so after 2^d >= n steps x maps to 1 iff it ever does.
    """
    n = g.order
    c = commutator_map(g)
    reaches = np.empty((n, n), dtype=bool)  # reaches[y, x] = rel[x, y]
    block = max(1, _RELATION_BLOCK_ENTRIES // n)
    for lo in range(0, n, block):
        f = c[lo : lo + block]
        for _ in range((n - 1).bit_length()):
            f = np.take_along_axis(f, f, axis=1)
        reaches[lo : lo + block] = f == g.identity
    reaches.flags.writeable = False
    return reaches.T


def _bit_rows(adj: np.ndarray) -> tuple[int, ...]:
    """Bitmask rows of a bool matrix, bit j = column j."""
    packed = np.packbits(adj, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


@lru_cache(maxsize=256)
def left_engel_set(g: FiniteGroup) -> frozenset[int]:
    """L(G) = {x : every Engel sequence [a, _k x] reaches the identity}."""
    return frozenset(np.flatnonzero(engel_relation(g).all(axis=0)).tolist())


def non_engel_elements(g: FiniteGroup) -> tuple[int, ...]:
    """G \\ L(G) in ascending element order (the reduced graph's vertex map)."""
    lset = left_engel_set(g)
    return tuple(a for a in range(g.order) if a not in lset)


def left_engel_subgroup(g: FiniteGroup) -> Subgroup:
    """L(G) as a Subgroup; fails if the set is not closed (Baer guarantees it
    is for the finite groups handled here)."""
    sub = Subgroup(g, tuple(sorted(left_engel_set(g))))
    sub.validate()
    return sub


def validate_left_engel_baer(g: FiniteGroup) -> Subgroup:
    """Check L(G) is the Fitting subgroup: a normal nilpotent subgroup such
    that no strictly larger candidate <L(G), x> is normal and nilpotent.

    One candidate x per coset of L(G) suffices, since <L, x> = <L, xl>; and
    as L is normal, <L, x> / L = <xL>, so <L, x> is normal iff the cyclic
    subgroup <xL> of G/L is.  Raises ValueError with the offending witness
    on failure.
    """
    sub = left_engel_subgroup(g)
    if not is_normal(g, sub):
        raise ValueError(f"L({g.label}) is not normal")
    if not is_nilpotent(sub.as_group()):
        raise ValueError(f"L({g.label}) is not nilpotent")
    g_nilpotent = is_nilpotent(g)
    reps, _ = cosets(g, sub)  # element i of G/L is the coset of reps[i]
    q = quotient_group(g, sub)
    normal = normal_cyclic_subgroups(q)
    for i in np.flatnonzero(normal.any(axis=1)).tolist():
        if i == q.identity or (normal[i].all() and not g_nilpotent):
            continue
        x = int(reps[i])
        if is_nilpotent(subgroup_generated(g, [*sub.members, x]).as_group()):
            raise ValueError(
                f"L({g.label}) is not maximal: <L, {g.element_names[x]}> is "
                "normal nilpotent"
            )
    return sub


def _co_engel_matrix(g: FiniteGroup) -> np.ndarray:
    rel = engel_relation(g)
    return ~rel & ~rel.T


@lru_cache(maxsize=128)
def co_engel_graph(g: FiniteGroup) -> SimpleGraph:
    """Full co-Engel graph on all of G: x ~ y iff neither Engel sequence
    ([x,_k y] or [y,_k x]) ever reaches the identity."""
    return SimpleGraph(g.order, _bit_rows(_co_engel_matrix(g)), labels=g.element_names)


@lru_cache(maxsize=128)
def reduced_co_engel_graph(g: FiniteGroup) -> SimpleGraph:
    """Induced subgraph on G \\ L(G), vertices in ascending element order."""
    kept = non_engel_elements(g)
    if not kept:
        raise ValueError(
            f"{g.label} is an Engel group: reduced co-Engel graph has an "
            "empty vertex set"
        )
    adj = _co_engel_matrix(g)[np.ix_(kept, kept)]
    labels = tuple(g.element_names[e] for e in kept)
    return SimpleGraph(len(kept), _bit_rows(adj), labels=labels)


@lru_cache(maxsize=128)
def directed_engel_graph(g: FiniteGroup) -> DirectedGraph:
    """Arc x -> y iff [y, _k x] = 1 for some k (x != y)."""
    arcs = engel_relation(g).T.copy()
    np.fill_diagonal(arcs, False)
    return DirectedGraph(g.order, _bit_rows(arcs), labels=g.element_names)


def single_arc_pairs(d: DirectedGraph) -> list[tuple[int, int]]:
    """All (x, y) with x -> y but not y -> x, in lexicographic order."""
    out = []
    for x in range(d.n):
        row = d.out_rows[x]
        for y in range(d.n):
            if row & (1 << y) and not d.out_rows[y] & (1 << x):
                out.append((x, y))
    return out


def single_arcs_outside_left_engel(g: FiniteGroup) -> list[tuple[int, int]]:
    """Single arcs of the directed Engel graph with both ends outside L(G)."""
    lset = left_engel_set(g)
    d = directed_engel_graph(g)
    return [
        (x, y) for x, y in single_arc_pairs(d) if x not in lset and y not in lset
    ]
