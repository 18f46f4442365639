"""Closed-form genus and crosscap evaluation, surface classification, and
Zagreb indices.

Genus values come from the published formulas only; no embedding or general
genus search is attempted.  Crosscap numbers follow the convention that the
surfaces N_k start at k = 1, so planar graphs covered by the K_n / K_{m,n}
formulas report crosscap 1 (projective-planar).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .analysis import MultipartiteShape, _biclique_sides
from .graphs import SimpleGraph
from .spectra import fraction_text

CLASS_PLANAR = "planar"
CLASS_TOROIDAL = "toroidal"
CLASS_DOUBLE = "double-toroidal"
CLASS_TRIPLE = "triple-toroidal"
CLASS_GENUS_5_PLUS = "genus >= 5"
CLASS_UNKNOWN = "unknown"


def _ceil_div(num: int, den: int) -> int:
    return -(-num // den)


def genus_complete(n: int) -> int:
    """ceil((n-3)(n-4)/12) for n >= 3; K_1 and K_2 extend to 0 (planar)."""
    if n < 1:
        raise ValueError(f"K_n needs n >= 1, got {n}")
    if n < 3:
        return 0
    return _ceil_div((n - 3) * (n - 4), 12)


def genus_complete_bipartite(m: int, n: int) -> int:
    """ceil((m-2)(n-2)/4) for m, n >= 2."""
    if m < 2 or n < 2:
        raise ValueError(f"K_(m,n) genus formula needs m, n >= 2, got ({m},{n})")
    return _ceil_div((m - 2) * (n - 2), 4)


def crosscap_complete(n: int) -> int:
    """Crosscap of K_n: ceil((n-3)(n-4)/6) with the n = 7 exception (3).

    Values are floored at 1: N_k is defined for k >= 1, so planar complete
    graphs (n <= 4) are reported as projective-planar.
    """
    if n < 3:
        raise ValueError(f"K_n crosscap formula needs n >= 3, got {n}")
    if n == 7:
        return 3
    return max(1, _ceil_div((n - 3) * (n - 4), 6))


def crosscap_complete_bipartite(m: int, n: int) -> int:
    """Crosscap of K_{m,n}: ceil((m-2)(n-2)/2) for m, n >= 2, floored at 1."""
    if m < 2 or n < 2:
        raise ValueError(f"K_(m,n) crosscap formula needs m, n >= 2, got ({m},{n})")
    return max(1, _ceil_div((m - 2) * (n - 2), 2))


def genus_K_mnn(m: int, n: int) -> int:
    """gamma(K_{mn,n,n}) = (mn-2)(n-1)/2 for positive m, n (always integral)."""
    if m < 1 or n < 1:
        raise ValueError(f"K_(mn,n,n) genus needs positive m, n, got ({m},{n})")
    num = (m * n - 2) * (n - 1)
    if num % 2:
        raise AssertionError("(mn-2)(n-1) must be even")
    return num // 2


def genus_uniform_multipartite(a: int, b: int) -> int:
    """gamma(K_{a.b}) = a(a-1)/2 ceil((b-2)^2/4) + ceil((a-3)(a-4)/12) for
    a >= 3, b >= 2; b = 1 delegates to the K_a formula."""
    if a < 3:
        raise ValueError(f"uniform multipartite genus formula needs a >= 3, got {a}")
    if b < 1:
        raise ValueError(f"part size must be positive, got {b}")
    if b == 1:
        return genus_complete(a)
    return (a * (a - 1) // 2) * _ceil_div((b - 2) ** 2, 4) + genus_complete(a)


def classification_from_genus(genus: int) -> str:
    if genus == 0:
        return CLASS_PLANAR
    if genus == 1:
        return CLASS_TOROIDAL
    if genus == 2:
        return CLASS_DOUBLE
    if genus == 3:
        return CLASS_TRIPLE
    if genus >= 5:
        return CLASS_GENUS_5_PLUS
    # genus 4 never arises from the families in scope and has no label
    return CLASS_UNKNOWN


@dataclass(frozen=True)
class SurfaceClass:
    """Genus/crosscap summary of a recognised graph.

    ``crosscap`` is present only where a published formula applies (K_n and
    K_{m,n}); ``projective`` is True for a planar shape, else None unless
    decided, never guessed.  The classification follows from the genus alone.
    """

    genus: Optional[int]
    crosscap: Optional[int]
    projective: Optional[bool]

    @property
    def classification(self) -> str:
        return CLASS_UNKNOWN if self.genus is None else classification_from_genus(self.genus)


def _not_projective_by_biclique(parts: tuple[int, ...]) -> bool:
    """True when merging the parts into two sides exhibits a K_{m,n} subgraph
    of crosscap >= 2 (the paper's own obstruction style)."""
    return any(min(s) >= 3 and crosscap_complete_bipartite(*s) >= 2 for s in _biclique_sides(parts))


def surface_class(shape: Optional[MultipartiteShape]) -> SurfaceClass:
    """Surface classification of a complete multipartite graph of the given
    shape via the closed-form genus formulas; an unrecognised graph (shape
    None) and shapes no formula covers classify as unknown."""
    if shape is None:
        return SurfaceClass(None, None, None)
    parts = shape.parts
    # complete graph: every part a single vertex
    if parts[0] == 1:
        n = shape.a
        crosscap = crosscap_complete(n) if n >= 3 else None
        return SurfaceClass(genus_complete(n), crosscap, n < 3 or crosscap == 1)
    if shape.a == 2:
        m, n = parts
        if n < 2:
            return SurfaceClass(0, None, True)  # star K_{m,1}
        crosscap = crosscap_complete_bipartite(m, n)
        return SurfaceClass(genus_complete_bipartite(m, n), crosscap, crosscap == 1)
    k_mnn = shape.a == 3 and parts[1] == parts[2] and parts[0] % parts[1] == 0
    if not (k_mnn or shape.is_uniform):
        return SurfaceClass(None, None, None)
    if k_mnn:
        # tripartite K_{mn,n,n}: the paper evaluates these by the White
        # formula (e.g. K_{3,3,3} is toroidal), which takes precedence over
        # the uniform K_{a.b} expression
        genus = genus_K_mnn(parts[0] // parts[1], parts[1])
    else:
        # cocktail-party K_{4.2}: the uniform formula breaks down here (the
        # graph is toroidal; it is the reduced co-Engel graph of A_4)
        genus = 1 if parts == (2, 2, 2, 2) else genus_uniform_multipartite(shape.a, shape.b)
    projective = False if _not_projective_by_biclique(parts) else None
    return SurfaceClass(genus, None, True if genus == 0 else projective)


# ---------------------------------------------------------------------------
# Zagreb indices


@dataclass(frozen=True)
class ZagrebReport:
    """First/second Zagreb indices of a graph with ``v_count`` vertices and
    ``e_count`` edges; the exact-rational Hansen-Vukicevic comparison
    M2/e >= M1/v is derived from them (None on edgeless graphs)."""

    m1: int
    m2: int
    v_count: int
    e_count: int

    @cached_property
    def hv_lhs(self) -> Optional[Fraction]:
        return Fraction(self.m2, self.e_count) if self.e_count else None

    @cached_property
    def hv_rhs(self) -> Optional[Fraction]:
        return Fraction(self.m1, self.v_count) if self.e_count else None

    @cached_property
    def hv_holds(self) -> Optional[bool]:
        return self.hv_lhs >= self.hv_rhs if self.e_count else None

    def to_json_obj(self) -> dict:
        return {
            "M1": self.m1,
            "M2": self.m2,
            "vertices": self.v_count,
            "edges": self.e_count,
            "hv_lhs": fraction_text(self.hv_lhs),
            "hv_rhs": fraction_text(self.hv_rhs),
            "hv_holds": self.hv_holds,
        }


def zagreb_report(g: SimpleGraph) -> ZagrebReport:
    """M1 = sum deg^2 and M2 = sum over edges of deg*deg."""
    if g.n < 1:
        raise ValueError("Zagreb report needs at least one vertex")
    # exact in int64 since (n-1)^2 * edges < n^4 / 2 < 2^63 for any n < 2^16
    deg = g.adj.sum(axis=1, dtype=np.int64)
    m1 = int((deg * deg).sum())
    i, j = g.pair_arrays()
    m2 = int((deg[i] * deg[j]).sum())
    return ZagrebReport(m1, m2, g.n, len(i))


def zagreb_closed_form(a: int, b: int) -> tuple[int, int]:
    """(M1, M2) of K_{a.b}: a(a-1)^2 b^3 and a(a-1)^3 b^4 / 2."""
    if a < 1 or b < 1:
        raise ValueError(f"need positive part count and size, got ({a},{b})")
    m1 = a * (a - 1) ** 2 * b**3
    m2_twice = a * (a - 1) ** 3 * b**4
    if m2_twice % 2:
        raise AssertionError("a(a-1)^3 b^4 must be even")
    return m1, m2_twice // 2
