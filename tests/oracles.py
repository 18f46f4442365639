"""Independent brute-force oracles used to pin expected test values.

Everything here is deliberately naive: groups are modelled with explicit
element tuples (not index tables), graph searches are exhaustive, and
polynomials come from permanent-style determinant expansion or from a modular
Faddeev-LeVerrier kernel.  None of it shares code with the package under test,
except the sections at the end: the per-pair and axiom references, the
subgroup, quotient and isomorphism tests and the earlier kernels take the
package's groups and graphs and use its table finaliser, scalar accessors,
commutator map, cycle names, normality test, subgroup closure and
multipartite recognition.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from engel_lab.analysis import recognize_complete_multipartite
from engel_lab.graphs import DirectedGraph, SimpleGraph
from engel_lab.groups import (
    FiniteGroup,
    _cycle_name,
    _finalize,
    commutator_map,
    is_normal,
    subgroup_generated,
)


# ---------------------------------------------------------------------------
# tuple-based model groups


def dihedral_elements(n):
    """D_2n as (ref, rot) pairs, ref in {0,1}, rot mod n."""
    return [(r, a) for r in (0, 1) for a in range(n)]


def dihedral_mul(n, u, v):
    r1, a = u
    r2, b = v
    rot = (a + b) % n if r2 == 0 else (b - a) % n
    return (r1 ^ r2, rot)


def dihedral_inv(n, u):
    r, a = u
    return (r, a) if r else (0, (-a) % n)


def quaternion_elements(four_n):
    half = four_n // 2
    return [(r, a) for r in (0, 1) for a in range(half)]


def quaternion_mul(four_n, u, v):
    half, quarter = four_n // 2, four_n // 4
    r1, a = u
    r2, b = v
    if r2 == 0:
        rot = (a + b) % half
    else:
        rot = (b - a + (quarter if r1 else 0)) % half
    return (r1 ^ r2, rot)


def perm_compose(s, t):
    """(s*t)(i) = s(t(i))."""
    return tuple(s[t[i]] for i in range(len(s)))


def perm_inv(s):
    out = [0] * len(s)
    for i, v in enumerate(s):
        out[v] = i
    return tuple(out)


def sym_elements(n):
    return sorted(itertools.permutations(range(n)))


def alt_elements(n):
    def parity(p):
        inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
        return inv % 2

    return [p for p in sym_elements(n) if parity(p) == 0]


class ModelGroup:
    """Brute-force group over hashable element objects."""

    def __init__(self, elements, mul, inv=None):
        self.elements = list(elements)
        self.mul = mul
        if inv is None:
            def inv(x):
                for y in self.elements:
                    if self.mul(x, y) == self.identity:
                        return y
                raise AssertionError("no inverse")
        self.inv = inv
        self.identity = next(
            e for e in self.elements
            if all(mul(e, x) == x and mul(x, e) == x for x in self.elements)
        )

    def commutator(self, x, y):
        return self.mul(self.mul(self.inv(x), self.inv(y)), self.mul(x, y))

    def engel_sequence(self, x, y, steps):
        """[x,y], [x,2 y], ... up to the given number of entries."""
        out = []
        a = self.commutator(x, y)
        for _ in range(steps):
            out.append(a)
            a = self.commutator(a, y)
        return out

    def engel_terminates(self, x, y):
        """Return minimal k with [x,_k y] = 1, or None (first repeat wins)."""
        seen = set()
        a = self.commutator(x, y)
        k = 1
        while a not in seen:
            if a == self.identity:
                return k
            seen.add(a)
            a = self.commutator(a, y)
            k += 1
        return None

    def left_engel_set(self):
        return [
            x for x in self.elements
            if all(self.engel_terminates(a, x) is not None for a in self.elements)
        ]

    def element_order(self, x):
        k, a = 1, x
        while a != self.identity:
            a = self.mul(a, x)
            k += 1
        return k

    def order_census(self):
        census = {}
        for x in self.elements:
            census[self.element_order(x)] = census.get(self.element_order(x), 0) + 1
        return census

    def center(self):
        return [
            z for z in self.elements
            if all(self.mul(z, g) == self.mul(g, z) for g in self.elements)
        ]

    def upper_central_series(self):
        series = [{self.identity}]
        while True:
            prev = series[-1]
            nxt = {
                x for x in self.elements
                if all(self.commutator(x, g) in prev for g in self.elements)
            }
            if nxt == prev:
                return series
            series.append(nxt)

    def coengel_adjacent(self, x, y):
        return (
            x != y
            and self.engel_terminates(x, y) is None
            and self.engel_terminates(y, x) is None
        )


def model_dihedral(two_n):
    n = two_n // 2
    return ModelGroup(
        dihedral_elements(n),
        lambda u, v: dihedral_mul(n, u, v),
        lambda u: dihedral_inv(n, u),
    )


def model_quaternion(four_n):
    return ModelGroup(
        quaternion_elements(four_n), lambda u, v: quaternion_mul(four_n, u, v)
    )


def model_symmetric(n):
    return ModelGroup(sym_elements(n), perm_compose, perm_inv)


def model_alternating(n):
    return ModelGroup(alt_elements(n), perm_compose, perm_inv)


def model_product(g, h):
    return ModelGroup(
        [(a, b) for a in g.elements for b in h.elements],
        lambda u, v: (g.mul(u[0], v[0]), h.mul(u[1], v[1])),
        lambda u: (g.inv(u[0]), h.inv(u[1])),
    )


def model_cyclic(n):
    return ModelGroup(list(range(n)), lambda a, b: (a + b) % n, lambda a: (-a) % n)


def model_frobenius(p, q, r):
    # elements a^i b^j as (i, j); a^i b^t * a^j b^s = a^(i+j) b^(s + t r^j)
    def mul(u, v):
        i, t = u
        j, s = v
        return ((i + j) % p, (s + t * pow(r, j, q)) % q)

    return ModelGroup([(i, j) for i in range(p) for j in range(q)], mul)


# ---------------------------------------------------------------------------
# graph oracles (graphs given as (n, set of frozenset pairs))


def brute_clique_number(n, edges):
    adj = {(i, j) for i, j in edges} | {(j, i) for i, j in edges}
    for size in range(n, 0, -1):
        for combo in itertools.combinations(range(n), size):
            if all((a, b) in adj for a, b in itertools.combinations(combo, 2)):
                return size
    return 0


def is_complete_multipartite_oracle(n, edges):
    """Parts via complement components; None unless every component is a
    clique of the complement (i.e. an independent set fully joined to the
    rest)."""
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    comp_adj = [set(range(n)) - adj[i] - {i} for i in range(n)]
    seen, parts = set(), []
    for v in range(n):
        if v in seen:
            continue
        stack, comp = [v], {v}
        while stack:
            u = stack.pop()
            for w in comp_adj[u]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        parts.append(comp)
    for part in parts:
        for a, b in itertools.combinations(sorted(part), 2):
            if b in adj[a]:
                return None
    return sorted((len(p) for p in parts), reverse=True)


def _disjoint_paths_exist(adj, pairs, busy):
    """Connect every (s, t) pair by internally vertex-disjoint paths."""
    if not pairs:
        return True
    (s, t), rest = pairs[0], pairs[1:]

    def dfs(u, used):
        if t in adj[u]:
            return _disjoint_paths_exist(adj, rest, busy | used)
        for w in adj[u]:
            if w not in busy and w not in used and w != t:
                if dfs(w, used | {w}):
                    return True
        return False

    return dfs(s, frozenset())


def has_k5_subdivision(n, edges):
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    branch_candidates = [v for v in range(n) if len(adj[v]) >= 4]
    for branch in itertools.combinations(branch_candidates, 5):
        pairs = list(itertools.combinations(branch, 2))
        if _disjoint_paths_exist(adj, pairs, frozenset(branch)):
            return True
    return False


def has_k33_subdivision(n, edges):
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    cands = [v for v in range(n) if len(adj[v]) >= 3]
    for left in itertools.combinations(cands, 3):
        for right in itertools.combinations([v for v in cands if v not in left], 3):
            if right < left:
                continue
            pairs = [(a, b) for a in left for b in right]
            if _disjoint_paths_exist(adj, pairs, frozenset(left) | frozenset(right)):
                return True
    return False


def planar_by_kuratowski(n, edges):
    """Exact planarity for small graphs: Euler bound, then subdivision search."""
    if n > 14:
        raise ValueError("kuratowski oracle limited to 14 vertices")
    if n >= 3 and len(edges) > 3 * n - 6:
        return False
    return not (has_k5_subdivision(n, edges) or has_k33_subdivision(n, edges))


# ---------------------------------------------------------------------------
# polynomial oracle


def brute_charpoly(matrix):
    """det(xI - M) by permutation expansion; ascending coefficients."""
    n = len(matrix)

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out

    def parity(p):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
        return -1 if inv % 2 else 1

    acc = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        term = [parity(perm)]
        for i in range(n):
            j = perm[i]
            entry = [-matrix[i][j], 1] if i == j else [-matrix[i][j]]
            term = poly_mul(term, entry)
        for k, c in enumerate(term):
            acc[k] += c
    return acc


def faddeev_leverrier_charpoly(matrix):
    """det(xI - M) by modular Faddeev-LeVerrier; ascending coefficients.

    An O(n^4)-per-prime kernel independent of the package's: B_0 = I,
    T_k = M B_{k-1}, c_k = -tr(T_k) / k and B_k = T_k + c_k I, modulo the
    30-bit primes below 2^30 (found by trial division) whose product exceeds
    twice the Hadamard coefficient bound, then an iterative CRT lift.
    """
    n = len(matrix)
    if n == 0:
        return [1]
    max_entry = max(1, max(abs(int(v)) for row in matrix for v in row))
    if n * max_entry >= (1 << 32):
        raise ValueError("matrix too large for the int64 modular kernel")
    bound = max(hadamard_coefficient_terms(n, max_entry))
    primes, modulus = [], 1
    while modulus <= 2 * bound:
        primes.append(_prime_below_2_30(len(primes)))
        modulus *= primes[-1]
    m = np.array(matrix, dtype=np.int64)
    residues = []
    for p in primes:
        coeffs = [1]
        b = np.eye(n, dtype=np.int64)
        for k in range(1, n + 1):
            t = (m @ b) % p
            c = (-int(np.trace(t))) * pow(k, -1, p) % p
            coeffs.append(c)
            b = t
            np.fill_diagonal(b, (b.diagonal() + c) % p)
        residues.append(coeffs)
    coeffs_desc = []
    for idx in range(n + 1):
        value, mod = 0, 1
        for p, res in zip(primes, residues):
            t = (res[idx] - value) * pow(mod, -1, p) % p
            value += mod * t
            mod *= p
        if value > mod // 2:
            value -= mod
        coeffs_desc.append(value)
    return coeffs_desc[::-1]


def hadamard_coefficient_terms(n, max_entry):
    """[C(n,k) (ceil(sqrt(k)) B)^k for k = 0..n]: term k bounds |e_k(λ)|, the
    sum of the k x k principal minors of an n x n matrix with entries of
    absolute value at most B (Hadamard's inequality on each minor)."""
    return [
        math.comb(n, k) * ((math.isqrt(k - 1) + 1 if k else 1) * max_entry) ** k
        for k in range(n + 1)
    ]


_PRIMES_BELOW_2_30 = []


def _prime_below_2_30(index):
    """The index-th prime below 2^30, counting down from the top."""
    candidate = _PRIMES_BELOW_2_30[-1] - 2 if _PRIMES_BELOW_2_30 else (1 << 30) - 1
    while len(_PRIMES_BELOW_2_30) <= index:
        if all(candidate % d for d in range(3, math.isqrt(candidate) + 1, 2)):
            _PRIMES_BELOW_2_30.append(candidate)
        candidate -= 2
    return _PRIMES_BELOW_2_30[index]


def brute_zagreb(n, edges):
    deg = [0] * n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    m1 = sum(d * d for d in deg)
    m2 = sum(deg[i] * deg[j] for i, j in edges)
    return m1, m2


def brute_energies(adj_spec, lap_spec, q_spec, n_edges, n_vertices):
    mean = Fraction(2 * n_edges, n_vertices)
    e = sum(abs(v) * m for v, m in adj_spec)
    le = sum(abs(Fraction(v) - mean) * m for v, m in lap_spec)
    leq = sum(abs(Fraction(v) - mean) * m for v, m in q_spec)
    return e, le, leq


# ---------------------------------------------------------------------------
# references on the package's groups and graphs: the per-pair Engel verdict,
# the group axioms, scalar powers, table and pair-list wrappers


EXHAUSTIVE_ASSOCIATIVITY_LIMIT = 200
ASSOCIATIVITY_SAMPLES = 10_000


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

    The sequence lives in a finite set, so it is eventually periodic.  The
    identity, once reached, is absorbing ([1,y] = 1), so it can only occur
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


def validate_group(g: FiniteGroup, force_exhaustive: bool = False) -> None:
    """Check the group axioms on the table; raises ValueError on violation.

    Associativity is exhaustive up to order 200 (O(n^3), vectorised) and
    sampled with >= 10^4 random triples above that unless forced.
    """
    n = g.order
    t = g.table
    if t.shape != (n, n) or t.min() < 0 or t.max() >= n:
        raise ValueError(f"{g.label}: table is not an {n}x{n} index table")
    ref = np.arange(n)
    if not (np.array_equal(np.sort(t, axis=1), np.tile(ref, (n, 1)))
            and np.array_equal(np.sort(t, axis=0), np.tile(ref[:, None], (1, n)))):
        raise ValueError(f"{g.label}: table is not a Latin square")
    e = g.identity
    if not (np.array_equal(t[e], ref) and np.array_equal(t[:, e], ref)):
        raise ValueError(f"{g.label}: identity axiom fails")
    inv = g.inverse
    if not (np.all(t[ref, inv] == e) and np.all(t[inv, ref] == e)):
        raise ValueError(f"{g.label}: inverse axiom fails")
    if n <= EXHAUSTIVE_ASSOCIATIVITY_LIMIT or force_exhaustive:
        left = t[t, :]          # left[i,j,k] = t[t[i,j], k]
        right = t[:, t]         # right[i,j,k] = t[i, t[j,k]]
        if not np.array_equal(left, right):
            raise ValueError(f"{g.label}: associativity fails")
    else:
        rng = random.Random(0)
        i, j, k = np.array(
            [[rng.randrange(n) for _ in range(3)] for _ in range(ASSOCIATIVITY_SAMPLES)]
        ).T
        if not np.array_equal(t[t[i, j], k], t[i, t[j, k]]):
            raise ValueError(f"{g.label}: associativity fails (sampled)")


def from_table(
    rows: Sequence[Sequence[int]],
    names: Optional[Sequence[str]] = None,
    generators: Sequence[tuple[str, int]] = (),
    label: str = "group",
) -> FiniteGroup:
    """Wrap a raw multiplication table of indices 0..n-1 (ValueError
    otherwise); identity and inverses are found from it by the package's
    ``_finalize``, and names default to the indices."""
    table = np.asarray(rows)
    order = len(table)
    if table.shape != (order, order) or not np.issubdtype(table.dtype, np.integer) or (
        order and (table.min() < 0 or table.max() >= order)
    ):
        raise ValueError(f"{label}: not an {order}x{order} table of indices below {order}")
    if names is None:
        names = tuple(str(i) for i in range(order))
    return _finalize(order, lambda u, v: table[u, v], names, generators, label)


def power(g: FiniteGroup, a: int, k: int) -> int:
    """a^k by scalar square-and-multiply: the reference for ``powers``."""
    if k < 0:
        return power(g, g.inv(a), -k)
    acc = g.identity
    base = a
    while k:
        if k & 1:
            acc = g.mul(acc, base)
        base = g.mul(base, base)
        k >>= 1
    return acc


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


def from_edges(n: int, edges: Iterable[tuple[int, int]], labels=None) -> SimpleGraph:
    return SimpleGraph(_matrix_from_pairs(n, edges, symmetric=True),
                       tuple(labels) if labels is not None else None)


def from_arcs(n: int, arcs: Iterable[tuple[int, int]], labels=None) -> DirectedGraph:
    return DirectedGraph(_matrix_from_pairs(n, arcs, symmetric=False),
                         tuple(labels) if labels is not None else None)


def validate(g: SimpleGraph) -> None:
    """Raise ValueError unless ``g.adj`` is a square bool matrix, symmetric
    with a clear diagonal."""
    adj = g.adj
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


def complete_multipartite_graph(parts: Iterable[int]) -> SimpleGraph:
    """K_{n_1,...,n_k}: independent parts, all cross-part pairs joined."""
    sizes = list(parts)
    if any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    part_of = np.repeat(np.arange(len(sizes)), sizes)
    return SimpleGraph(part_of[:, None] != part_of[None, :])


# ---------------------------------------------------------------------------
# subgroups, quotients, isomorphism tests and element lookup on the package's
# groups and graphs


def name_index(g, name):
    """Index of the element of ``g`` printed as ``name``."""
    try:
        return g.element_names.index(name)
    except ValueError:
        raise KeyError(f"group {g.label} has no element named {name!r}") from None


def _minimal_generating_sequence(g: FiniteGroup) -> list[int]:
    gens: list[int] = []
    closure = {g.identity}
    for a in range(g.order):
        if a not in closure:
            gens.append(a)
            closure = set(np.flatnonzero(subgroup_generated(g, gens)).tolist())
            if len(closure) == g.order:
                break
    return gens


def are_isomorphic_small(g: FiniteGroup, h: FiniteGroup, limit: int = 24) -> bool:
    """Isomorphism test by generator-image backtracking; intended for orders
    up to ``limit``."""
    if g.order != h.order:
        return False
    if g.order > limit:
        raise ValueError(f"isomorphism test limited to order {limit}")
    if g.order_census() != h.order_census():
        return False
    gens = _minimal_generating_sequence(g)
    orders = [g.element_order(a) for a in gens]
    by_order: dict[int, list[int]] = {}
    for b in range(h.order):
        by_order.setdefault(h.element_order(b), []).append(b)

    def try_images(images: list[int]) -> bool:
        # grow the hom from generator images by closing under products
        mapping = {g.identity: h.identity}
        frontier = [g.identity]
        while frontier:
            nxt = []
            for a in frontier:
                for gen, img in zip(gens, images):
                    prod = g.table[a][gen]
                    want = h.table[mapping[a]][img]
                    got = mapping.get(prod)
                    if got is None:
                        mapping[prod] = want
                        nxt.append(prod)
                    elif got != want:
                        return False
            frontier = nxt
        if len(mapping) != g.order or len(set(mapping.values())) != g.order:
            return False
        return all(
            mapping[g.table[a][b]] == h.table[mapping[a]][mapping[b]]
            for a in range(g.order)
            for b in range(g.order)
        )

    def backtrack(pos: int, images: list[int]) -> bool:
        if pos == len(gens):
            return try_images(images)
        for cand in by_order.get(orders[pos], []):
            if backtrack(pos + 1, images + [cand]):
                return True
        return False

    return backtrack(0, [])


def subgroup_as_group(g: FiniteGroup, inside: np.ndarray) -> FiniteGroup:
    """The subgroup with mask ``inside`` as a standalone group, re-tabled in
    ascending element order (ValueError unless it is closed under products):
    the reference for the structure functions' ``within`` masks."""
    members = np.flatnonzero(inside)
    pos = np.full(g.order, -1)
    pos[members] = np.arange(len(members))
    return from_table(
        pos[g.table[np.ix_(members, members)]],
        [g.element_names[e] for e in members],
        label=f"{g.label}|subgroup{len(members)}",
    )


def quotient_group(g: FiniteGroup, inside: np.ndarray) -> FiniteGroup:
    """G/S for the normal subgroup S with mask ``inside``; cosets are indexed
    by ascending least member."""
    if not is_normal(g, inside):
        raise ValueError("cannot form quotient by a non-normal subgroup")
    least = g.table[:, np.flatnonzero(inside)].min(axis=1)
    reps = np.unique(least)
    coset_of = np.searchsorted(reps, least)
    names = [f"[{g.element_names[a]}]" for a in reps]
    return from_table(
        coset_of[g.table[np.ix_(reps, reps)]], names,
        label=f"{g.label}/|{np.count_nonzero(inside)}|",
    )


def quotient_iso_check(g: FiniteGroup, inside: np.ndarray, target: FiniteGroup) -> bool:
    """True iff G/S is isomorphic to the (small) target group."""
    size = int(np.count_nonzero(inside))
    if g.order % size or g.order // size > 24:
        raise ValueError("quotient isomorphism check limited to |G/S| <= 24")
    return are_isomorphic_small(quotient_group(g, inside), target)


ISO_VERTEX_LIMIT = 12


def _iso_backtrack(g1: SimpleGraph, g2: SimpleGraph) -> bool:
    n = g1.n
    deg1 = np.count_nonzero(g1.adj, axis=1).tolist()
    deg2 = np.count_nonzero(g2.adj, axis=1).tolist()
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
                if g1.adj[v, prev] != g2.adj[w, mapping[prev]]:
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


# ---------------------------------------------------------------------------
# earlier kernels, kept as differential oracles for their replacements


def engel_relation_fixed_rounds(g: FiniteGroup) -> np.ndarray:
    """``rel[x, y]`` iff [x, _k y] = 1 for some k, by pointer doubling on the
    whole commutator map for all (n-1).bit_length() rounds, never stopping
    early."""
    f = commutator_map(g)
    for _ in range((g.order - 1).bit_length()):
        f = np.take_along_axis(f, f, axis=1)
    return (f == g.identity).T


def perm_group_by_search(perms: list[tuple[int, ...]], label: str) -> FiniteGroup:
    """The group of the sorted permutations ``perms``, tabled by composing
    s(t(i)) point by point and finding each product's base-k code with
    ``searchsorted``; names are the package's cycle notation."""
    p = np.array(perms, dtype=np.intp)
    k = p.shape[1]
    codes = p @ k ** np.arange(k - 1, -1, -1)
    u, v = np.arange(len(perms))[:, None], np.arange(len(perms))[None, :]
    code = 0
    for i in range(k):
        code = code * k + p[u, p[v, i]]
    return from_table(np.searchsorted(codes, code), [_cycle_name(s) for s in perms], label=label)


def identity_and_inverse_whole_table(table: np.ndarray, label: str) -> tuple[int, np.ndarray]:
    """The identity and inverses of a table as ``groups._finalize`` found
    them with whole-table comparisons: the first x whose row and column are
    both identity maps, and for each x the first y with xy = yx = 1; the
    same ValueError messages otherwise."""
    v = np.arange(len(table))
    is_identity = (table == v).all(axis=1) & (table == v[:, None]).all(axis=0)
    if not is_identity.any():
        raise ValueError(f"table for {label} has no identity element")
    identity = int(is_identity.argmax())
    both = (table == identity) & (table.T == identity)
    found = both.any(axis=1)
    if not found.all():
        raise ValueError(f"element {found.argmin()} of {label} has no inverse")
    return identity, both.argmax(axis=1)
