"""Finite groups as explicit multiplication tables with 0-based element indices.

Every group is a fully materialised Cayley table plus canonical element names,
so downstream computations reduce to exact table arithmetic.  Builders are
pure and enumerate elements in a documented, bit-reproducible order.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

EXHAUSTIVE_ASSOCIATIVITY_LIMIT = 200
ASSOCIATIVITY_SAMPLES = 10_000


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Immutable finite group on elements 0..order-1.

    ``table[i][j]`` is the index of the product (i first, then j).  Identity
    and inverses are precomputed; ``generators`` is a list of (name, index)
    pairs and ``element_names`` gives a word for every element.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]
    generators: tuple[tuple[str, int], ...]
    element_names: tuple[str, ...]
    label: str

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conjugate(self, x: int, y: int) -> int:
        """x conjugated by y, i.e. y^-1 x y."""
        t = self.table
        return t[t[self.inverse[y]][x]][y]

    def commutator(self, x: int, y: int) -> int:
        """[x, y] = x^-1 y^-1 x y."""
        t = self.table
        return t[t[t[self.inverse[x]][self.inverse[y]]][x]][y]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inverse[a], -k)
        acc = self.identity
        base = a
        while k:
            if k & 1:
                acc = self.table[acc][base]
            base = self.table[base][base]
            k >>= 1
        return acc

    def element_order(self, a: int) -> int:
        k, cur = 1, a
        while cur != self.identity:
            cur = self.table[cur][a]
            k += 1
        return k

    def generator_index(self, name: str) -> int:
        for gname, idx in self.generators:
            if gname == name:
                return idx
        raise KeyError(f"group {self.label} has no generator named {name!r}")

    def name_index(self, name: str) -> int:
        try:
            return self.element_names.index(name)
        except ValueError:
            raise KeyError(f"group {self.label} has no element named {name!r}") from None

    def order_census(self) -> dict[int, int]:
        census: dict[int, int] = {}
        for a in range(self.order):
            k = self.element_order(a)
            census[k] = census.get(k, 0) + 1
        return census

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label}, order={self.order})"


@dataclass(frozen=True, eq=False)
class Subgroup:
    """Subset of a parent group, stored as a sorted tuple of element indices."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        if tuple(sorted(set(self.members))) != self.members:
            raise ValueError("subgroup members must be sorted and duplicate-free")
        object.__setattr__(self, "_members_frozen", frozenset(self.members))

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, idx: int) -> bool:
        return idx in self._member_set()

    def _member_set(self) -> frozenset[int]:
        return self._members_frozen

    def validate(self) -> None:
        g = self.parent
        mem = self._member_set()
        if g.identity not in mem:
            raise ValueError("subgroup does not contain the identity")
        for a in self.members:
            if g.inverse[a] not in mem:
                raise ValueError(f"subgroup not closed under inverse at {a}")
            for b in self.members:
                if g.table[a][b] not in mem:
                    raise ValueError(f"subgroup not closed under product at ({a},{b})")

    def as_group(self, label: Optional[str] = None) -> FiniteGroup:
        """The subgroup as a standalone group with reindexed table."""
        g = self.parent
        pos = {e: i for i, e in enumerate(self.members)}
        mem = self._member_set()
        rows = []
        for a in self.members:
            row = []
            for b in self.members:
                p = g.table[a][b]
                if p not in mem:
                    raise ValueError("not closed under product; not a subgroup")
                row.append(pos[p])
            rows.append(tuple(row))
        return _finalize(
            len(self.members),
            rows,
            tuple(g.element_names[e] for e in self.members),
            (),
            label or f"{g.label}|subgroup{len(self.members)}",
        )


def _finalize(
    order: int,
    rows: Sequence[Sequence[int]],
    names: Sequence[str],
    generators: Sequence[tuple[str, int]],
    label: str,
) -> FiniteGroup:
    table = tuple(tuple(r) for r in rows)
    identity = None
    for e in range(order):
        if all(table[e][x] == x and table[x][e] == x for x in range(order)):
            identity = e
            break
    if identity is None:
        raise ValueError(f"table for {label} has no identity element")
    inverse = [None] * order
    for a in range(order):
        for b in range(order):
            if table[a][b] == identity and table[b][a] == identity:
                inverse[a] = b
                break
        if inverse[a] is None:
            raise ValueError(f"element {a} of {label} has no inverse")
    return FiniteGroup(
        order=order,
        table=table,
        identity=identity,
        inverse=tuple(inverse),
        generators=tuple(generators),
        element_names=tuple(names),
        label=label,
    )


def from_table(
    rows: Sequence[Sequence[int]],
    names: Optional[Sequence[str]] = None,
    generators: Sequence[tuple[str, int]] = (),
    label: str = "group",
) -> FiniteGroup:
    """Wrap a raw multiplication table; identity and inverses are found from
    it, and names default to the indices."""
    order = len(rows)
    if names is None:
        names = tuple(str(i) for i in range(order))
    return _finalize(order, rows, names, generators, label)


# ---------------------------------------------------------------------------
# builders


def build_cyclic(n: int) -> FiniteGroup:
    """Z/nZ written multiplicatively: elements e, g, g^2, ..."""
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    names = ["e"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    gens = [("g", 1 % n)] if n > 1 else []
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    return _finalize(n, rows, names, gens, f"C{n}")


def _power_name(base: str, i: int) -> str:
    if i == 0:
        return "e"
    if i == 1:
        return base
    return f"{base}^{i}"


def _rotation_reflection_names(half: int) -> list[str]:
    """y^0..y^(half-1), then x*y^0..x*y^(half-1)."""
    names = [_power_name("y", i) for i in range(half)]
    return names + ["x" if i == 0 else f"x*{_power_name('y', i)}" for i in range(half)]


def build_dihedral(two_n: int) -> FiniteGroup:
    """D_2n = <x, y : y^n = x^2 = 1, x y x^-1 = y^-1>.

    Elements are enumerated as y^0..y^(n-1), then x*y^0..x*y^(n-1).
    """
    if two_n < 4 or two_n % 2:
        raise ValueError(f"dihedral order must be even and >= 4, got {two_n}")
    n = two_n // 2

    def mul(u, v):
        r1, a = divmod(u, n)
        r2, b = divmod(v, n)
        rot = (a + b) % n if r2 == 0 else (b - a) % n
        return ((r1 ^ r2) * n + rot)

    rows = [[mul(u, v) for v in range(two_n)] for u in range(two_n)]
    return _finalize(
        two_n, rows, _rotation_reflection_names(n), [("x", n), ("y", 1)], f"D_{two_n}"
    )


def build_generalized_quaternion(four_n: int) -> FiniteGroup:
    """Q_4n = <x, y : y^2n = 1, x^2 = y^n, x y x^-1 = y^-1>.

    Elements are y^0..y^(2n-1), then x*y^0..x*y^(2n-1).
    """
    if four_n < 8 or four_n % 4:
        raise ValueError(
            f"generalized quaternion order must be a multiple of 4 and >= 8, got {four_n}"
        )
    half, quarter = four_n // 2, four_n // 4

    def mul(u, v):
        r1, a = divmod(u, half)
        r2, b = divmod(v, half)
        if r2 == 0:
            rot = (a + b) % half
        else:
            rot = (b - a + (quarter if r1 else 0)) % half
        return ((r1 ^ r2) * half + rot)

    rows = [[mul(u, v) for v in range(four_n)] for u in range(four_n)]
    return _finalize(
        four_n, rows, _rotation_reflection_names(half), [("x", half), ("y", 1)],
        f"Q_{four_n}",
    )


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, n):
        if d * d > n:
            break
        if n % d == 0:
            return False
    return True


def default_frobenius_residue(p: int, q: int) -> int:
    """Smallest r >= 2 with r^p = 1 mod q (all valid r give isomorphic groups)."""
    for r in range(2, q):
        if pow(r, p, q) == 1:
            return r
    raise ValueError(f"no residue of order {p} mod {q}")


def _resolve_frobenius_residue(p: int, q: int, r: Optional[int]) -> int:
    if not _is_prime(p) or not _is_prime(q):
        raise ValueError(f"p and q must be prime, got ({p}, {q})")
    if q % p != 1:
        raise ValueError(f"need q = 1 mod p, got q={q}, p={p}")
    if r is None:
        return default_frobenius_residue(p, q)
    if not (2 <= r < q) or pow(r, p, q) != 1:
        raise ValueError(f"invalid residue r={r}: need 2 <= r < q and r^p = 1 mod q")
    return r


def build_frobenius(p: int, q: int, r: Optional[int] = None) -> FiniteGroup:
    """F_{p,q} = <a, b : a^p = b^q = 1, a^-1 b a = b^r> of order pq.

    Elements are a^i b^j enumerated with index i*q + j.
    """
    r = _resolve_frobenius_residue(p, q, r)
    names = []
    for i in range(p):
        for j in range(q):
            if i == 0:
                names.append(_power_name("b", j))
            elif j == 0:
                names.append(_power_name("a", i))
            else:
                names.append(f"{_power_name('a', i)}*{_power_name('b', j)}")
    rpow = [pow(r, j, q) for j in range(p)]

    def mul(u, v):
        i, t = divmod(u, q)
        j, s = divmod(v, q)
        return ((i + j) % p) * q + (s + t * rpow[j]) % q

    order = p * q
    rows = [[mul(u, v) for v in range(order)] for u in range(order)]
    return _finalize(order, rows, names, [("a", q), ("b", 1)], f"F({p},{q})")


def _perm_parity(p: Sequence[int]) -> int:
    inv = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                inv += 1
    return inv % 2


def _cycle_name(p: Sequence[int]) -> str:
    seen = set()
    parts = []
    for s in range(len(p)):
        if s in seen or p[s] == s:
            continue
        cyc = [s]
        seen.add(s)
        t = p[s]
        while t != s:
            cyc.append(t)
            seen.add(t)
            t = p[t]
        parts.append("(" + ",".join(str(v + 1) for v in cyc) + ")")
    return "".join(parts) if parts else "e"


def _perm_group(perms: list[tuple[int, ...]], label: str) -> FiniteGroup:
    index = {perm: i for i, perm in enumerate(perms)}
    rows = []
    for s in perms:
        # product s*t acts as t-first composition: (s*t)(i) = s(t(i))
        rows.append(tuple(index[tuple(s[t[i]] for i in range(len(s)))] for t in perms))
    names = [_cycle_name(p) for p in perms]
    gens = []
    return _finalize(len(perms), rows, names, gens, label)


def _symmetric_perms(n: int) -> list[tuple[int, ...]]:
    if not 2 <= n <= 6:
        raise ValueError(f"symmetric group supported for 2 <= n <= 6, got {n}")
    return sorted(itertools.permutations(range(n)))


def _alternating_perms(n: int) -> list[tuple[int, ...]]:
    if not 2 <= n <= 6:
        raise ValueError(f"alternating group supported for 2 <= n <= 6, got {n}")
    return [p for p in sorted(itertools.permutations(range(n))) if _perm_parity(p) == 0]


def build_symmetric(n: int) -> FiniteGroup:
    """S_n on points 1..n; elements in lexicographic order, identity first."""
    return _perm_group(_symmetric_perms(n), f"S{n}")


def build_alternating(n: int) -> FiniteGroup:
    """A_n on points 1..n; even permutations in lexicographic order."""
    return _perm_group(_alternating_perms(n), f"A{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G x H with (a, b) stored at index a*|H| + b; componentwise product."""
    nh = h.order
    order = g.order * nh
    rows = []
    for a in range(g.order):
        ga = g.table[a]
        for b in range(nh):
            hb = h.table[b]
            rows.append(
                tuple(ga[c] * nh + hb[d] for c in range(g.order) for d in range(nh))
            )
    names = [
        f"({na},{nb})" for na in g.element_names for nb in h.element_names
    ]
    gens = [(name, idx * nh + h.identity) for name, idx in g.generators]
    taken = {name for name, _ in gens}
    for name, idx in h.generators:
        while name in taken:
            name += "'"
        taken.add(name)
        gens.append((name, g.identity * nh + idx))
    return _finalize(order, rows, names, gens, f"{g.label} x {h.label}")


# ---------------------------------------------------------------------------
# module-level operations (spec ops that are not plain table lookups)


def commutator(g: FiniteGroup, x: int, y: int) -> int:
    return g.commutator(x, y)


def conjugate(g: FiniteGroup, x: int, y: int) -> int:
    return g.conjugate(x, y)


def element_order(g: FiniteGroup, x: int) -> int:
    return g.element_order(x)


def subgroup_generated(g: FiniteGroup, seeds: Iterable[int]) -> Subgroup:
    """Closure of the seed set under products (inverses come free in a finite
    group)."""
    members = {g.identity}
    frontier = [g.identity]
    seeds = sorted(set(seeds))
    while frontier:
        nxt = []
        for w in frontier:
            for s in seeds:
                t = g.table[w][s]
                if t not in members:
                    members.add(t)
                    nxt.append(t)
        frontier = nxt
    return Subgroup(g, tuple(sorted(members)))


def center(g: FiniteGroup) -> Subgroup:
    t = g.table
    members = [
        z for z in range(g.order) if all(t[z][x] == t[x][z] for x in range(g.order))
    ]
    return Subgroup(g, tuple(members))


def upper_central_series(g: FiniteGroup) -> list[Subgroup]:
    """Z_0 = 1 <= Z_1 = Z(G) <= ... up to (and including) the stable term."""
    series = [Subgroup(g, (g.identity,))]
    current = {g.identity}
    while True:
        nxt = {
            x
            for x in range(g.order)
            if all(g.commutator(x, a) in current for a in range(g.order))
        }
        if nxt == current:
            return series
        current = nxt
        series.append(Subgroup(g, tuple(sorted(nxt))))


def hypercenter(g: FiniteGroup) -> Subgroup:
    return upper_central_series(g)[-1]


def is_nilpotent(g: FiniteGroup) -> bool:
    return hypercenter(g).size == g.order


def derived_series(g: FiniteGroup) -> list[Subgroup]:
    series = [Subgroup(g, tuple(range(g.order)))]
    while True:
        cur = series[-1].members
        comms = {g.commutator(a, b) for a in cur for b in cur}
        nxt = subgroup_generated(g, comms)
        if nxt.members == cur:
            return series
        series.append(nxt)


def is_soluble(g: FiniteGroup) -> bool:
    return derived_series(g)[-1].size == 1


def is_normal(g: FiniteGroup, s: Subgroup | Iterable[int]) -> bool:
    members = frozenset(s.members if isinstance(s, Subgroup) else s)
    return all(
        g.conjugate(x, a) in members for x in members for a in range(g.order)
    )


def quotient_group(g: FiniteGroup, s: Subgroup) -> FiniteGroup:
    """G/S for normal S; cosets are indexed by ascending minimal representative."""
    if not is_normal(g, s):
        raise ValueError("cannot form quotient by a non-normal subgroup")
    coset_of = [None] * g.order
    reps = []
    for a in range(g.order):
        if coset_of[a] is None:
            for m in s.members:
                coset_of[g.table[a][m]] = len(reps)
            reps.append(a)
    rows = [
        tuple(coset_of[g.table[a][b]] for b in reps) for a in reps
    ]
    names = [f"[{g.element_names[a]}]" for a in reps]
    return _finalize(len(reps), rows, names, (), f"{g.label}/|{s.size}|")


def _minimal_generating_sequence(g: FiniteGroup) -> list[int]:
    gens: list[int] = []
    closure = {g.identity}
    for a in range(g.order):
        if a not in closure:
            gens.append(a)
            closure = set(subgroup_generated(g, gens).members)
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


def quotient_iso_check(g: FiniteGroup, s: Subgroup, target: FiniteGroup) -> bool:
    """True iff G/S is isomorphic to the (small) target group."""
    if g.order % s.size or g.order // s.size > 24:
        raise ValueError("quotient isomorphism check limited to |G/S| <= 24")
    return are_isomorphic_small(quotient_group(g, s), target)


# ---------------------------------------------------------------------------
# validation


def validate_group(
    g: FiniteGroup, force_exhaustive: bool = False, seed: int = 0
) -> None:
    """Check the group axioms on the table; raises ValueError on violation.

    Associativity is exhaustive up to order 200 (O(n^3), vectorised) and
    sampled with >= 10^4 random triples above that unless forced.
    """
    n = g.order
    t = np.array(g.table, dtype=np.int64)
    if t.shape != (n, n) or t.min() < 0 or t.max() >= n:
        raise ValueError(f"{g.label}: table is not an {n}x{n} index table")
    ref = np.arange(n)
    if not (np.array_equal(np.sort(t, axis=1), np.tile(ref, (n, 1)))
            and np.array_equal(np.sort(t, axis=0), np.tile(ref[:, None], (1, n)))):
        raise ValueError(f"{g.label}: table is not a Latin square")
    e = g.identity
    if not (np.array_equal(t[e], ref) and np.array_equal(t[:, e], ref)):
        raise ValueError(f"{g.label}: identity axiom fails")
    inv = np.array(g.inverse, dtype=np.int64)
    if not (np.all(t[ref, inv] == e) and np.all(t[inv, ref] == e)):
        raise ValueError(f"{g.label}: inverse axiom fails")
    if n <= EXHAUSTIVE_ASSOCIATIVITY_LIMIT or force_exhaustive:
        left = t[t, :]          # left[i,j,k] = t[t[i,j], k]
        right = t[:, t]         # right[i,j,k] = t[i, t[j,k]]
        if not np.array_equal(left, right):
            raise ValueError(f"{g.label}: associativity fails")
    else:
        rng = random.Random(seed)
        idx = [
            (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            for _ in range(ASSOCIATIVITY_SAMPLES)
        ]
        i, j, k = (np.array(v, dtype=np.int64) for v in zip(*idx))
        if not np.array_equal(t[t[i, j], k], t[i, t[j, k]]):
            raise ValueError(f"{g.label}: associativity fails (sampled)")
