"""Finite groups as explicit multiplication tables with 0-based element indices.

Every group is a fully materialised Cayley table plus canonical element names,
so downstream computations reduce to exact table arithmetic.  ``table`` and
``inverse`` are read-only numpy arrays of dtype ``np.min_scalar_type(order)``.
Each builder gives its table as one broadcast expression of row and column
indices; the structure functions (centre, series, normality, closure, element
orders) are array expressions over the table and the commutator map
``c[y, a] = [a, y]``.  Builders are pure and enumerate elements in a
documented, bit-reproducible order.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

EXHAUSTIVE_ASSOCIATIVITY_LIMIT = 200
ASSOCIATIVITY_SAMPLES = 10_000

# Gathers through n x n index arrays run over blocks of rows of about this
# many entries: numpy copies each index array to 64-bit integers, and one
# n x n pass over S_6 raised the peak memory by about 4 MB more than blocks do.
_BLOCK_ENTRIES = 1 << 16


def _blocks(rows: int, cols: int) -> Iterator[slice]:
    """Slices of consecutive rows, about ``_BLOCK_ENTRIES`` entries each."""
    step = max(1, _BLOCK_ENTRIES // max(1, cols))
    return (slice(lo, lo + step) for lo in range(0, rows, step))


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Immutable finite group on elements 0..order-1.

    ``table[i, j]`` is the index of the product (i first, then j).  Identity
    and inverses are precomputed; ``generators`` is a list of (name, index)
    pairs and ``element_names`` gives a word for every element.  The scalar
    accessors return Python ints.
    """

    order: int
    table: np.ndarray
    identity: int
    inverse: np.ndarray
    generators: tuple[tuple[str, int], ...]
    element_names: tuple[str, ...]
    label: str

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def conjugate(self, x: int, y: int) -> int:
        """x conjugated by y, i.e. y^-1 x y = x [x, y]."""
        return int(self.table[x, commutator_map(self)[y, x]])

    def commutator(self, x: int, y: int) -> int:
        """[x, y] = x^-1 y^-1 x y."""
        return int(commutator_map(self)[y, x])

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(a), -k)
        acc = self.identity
        base = a
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def element_order(self, a: int) -> int:
        return int(element_orders(self)[a])

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
        orders, counts = np.unique(element_orders(self), return_counts=True)
        return dict(zip(orders.tolist(), counts.tolist()))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label}, order={self.order})"


@lru_cache(maxsize=128)
def commutator_map(g: FiniteGroup) -> np.ndarray:
    """Read-only n x n map ``c[y, a] = [a, y] = a^-1 y^-1 a y``: row y is the
    map a -> [a, y]."""
    t, inv = g.table, g.inverse
    a = np.arange(g.order)
    c = np.empty_like(t)
    for rows in _blocks(g.order, g.order):
        y = a[rows, None]
        c[rows] = t[t[t[inv[None, :], inv[y]], a[None, :]], y]
    c.flags.writeable = False
    return c


@lru_cache(maxsize=128)
def element_orders(g: FiniteGroup) -> np.ndarray:
    """Read-only order of every element: the least k >= 1 with x^k = 1."""
    x = np.arange(g.order)
    orders = np.zeros(g.order, dtype=np.intp)
    power, k = x, 1
    while True:
        orders[(orders == 0) & (power == g.identity)] = k
        if orders.all():
            orders.flags.writeable = False
            return orders
        power, k = g.table[power, x], k + 1


def _subgroup(g: FiniteGroup, inside: np.ndarray) -> "Subgroup":
    return Subgroup(g, tuple(np.flatnonzero(inside).tolist()))


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
        return idx in self._members_frozen

    def validate(self) -> None:
        """Identity and closure under products (which in a finite group
        brings the inverses)."""
        g = self.parent
        m = np.array(self.members, dtype=np.intp)
        inside = np.isin(np.arange(g.order), m)
        if not inside[g.identity]:
            raise ValueError("subgroup does not contain the identity")
        for rows in _blocks(len(m), len(m)):
            missing = ~inside[g.table[np.ix_(m[rows], m)]]
            if missing.any():
                i, j = np.unravel_index(missing.argmax(), missing.shape)
                raise ValueError(
                    f"subgroup not closed under product at ({m[rows][i]},{m[j]})"
                )

    def as_group(self, label: Optional[str] = None) -> FiniteGroup:
        """The subgroup as a standalone group with reindexed table."""
        self.validate()
        g = self.parent
        m = np.array(self.members, dtype=np.intp)
        pos = np.zeros(g.order, dtype=np.intp)
        pos[m] = np.arange(len(m))
        return _finalize(
            len(m),
            lambda u, v: pos[g.table[m[u], m[v]]],
            tuple(g.element_names[e] for e in self.members),
            (),
            label or f"{g.label}|subgroup{len(m)}",
        )


def _finalize(
    order: int,
    product: Callable[[np.ndarray, np.ndarray], np.ndarray],
    names: Sequence[str],
    generators: Sequence[tuple[str, int]],
    label: str,
) -> FiniteGroup:
    """The group whose table is ``product(u, v)`` for a column u of row indices
    and a row v of column indices (intp); rows are filled in blocks, narrowed
    to ``np.min_scalar_type(order)``."""
    table = np.empty((order, order), dtype=np.min_scalar_type(order))
    v = np.arange(order)
    for rows in _blocks(order, order):
        table[rows] = product(v[rows, None], v[None, :])
    is_identity = (table == v).all(axis=1) & (table == v[:, None]).all(axis=0)
    if not is_identity.any():
        raise ValueError(f"table for {label} has no identity element")
    identity = int(is_identity.argmax())
    both = (table == identity) & (table.T == identity)
    found = both.any(axis=1)
    if not found.all():
        raise ValueError(f"element {found.argmin()} of {label} has no inverse")
    inverse = both.argmax(axis=1).astype(table.dtype)
    table.flags.writeable = inverse.flags.writeable = False
    return FiniteGroup(
        order, table, identity, inverse, tuple(generators), tuple(names), label
    )


def from_table(
    rows: Sequence[Sequence[int]],
    names: Optional[Sequence[str]] = None,
    generators: Sequence[tuple[str, int]] = (),
    label: str = "group",
) -> FiniteGroup:
    """Wrap a raw multiplication table of indices 0..n-1 (ValueError
    otherwise); identity and inverses are found from it, and names default
    to the indices."""
    table = np.asarray(rows)
    order = len(table)
    if table.shape != (order, order) or not np.issubdtype(table.dtype, np.integer) or (
        order and (table.min() < 0 or table.max() >= order)
    ):
        raise ValueError(f"{label}: not an {order}x{order} table of indices below {order}")
    if names is None:
        names = tuple(str(i) for i in range(order))
    return _finalize(order, lambda u, v: table[u, v], names, generators, label)


# ---------------------------------------------------------------------------
# builders


def build_cyclic(n: int) -> FiniteGroup:
    """Z/nZ written multiplicatively: elements e, g, g^2, ..."""
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    names = ["e"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    gens = [("g", 1 % n)] if n > 1 else []
    return _finalize(n, lambda u, v: (u + v) % n, names, gens, f"C{n}")


def _power_name(base: str, i: int) -> str:
    return "e" if i == 0 else base if i == 1 else f"{base}^{i}"


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

    def product(u, v):
        (r1, a), (r2, b) = np.divmod(u, n), np.divmod(v, n)
        return (r1 ^ r2) * n + np.where(r2 == 0, a + b, b - a) % n

    return _finalize(
        two_n, product, _rotation_reflection_names(n), [("x", n), ("y", 1)], f"D_{two_n}"
    )


def build_generalized_quaternion(four_n: int) -> FiniteGroup:
    """Q_4n = <x, y : y^2n = 1, x^2 = y^n, x y x^-1 = y^-1>.

    Elements are y^0..y^(2n-1), then x*y^0..x*y^(2n-1).
    """
    if four_n < 8 or four_n % 4:
        raise ValueError(f"generalized quaternion order must be a multiple of 4 and >= 8, "
                         f"got {four_n}")
    half, quarter = four_n // 2, four_n // 4

    def product(u, v):
        (r1, a), (r2, b) = np.divmod(u, half), np.divmod(v, half)
        return (r1 ^ r2) * half + np.where(r2 == 0, a + b, b - a + quarter * r1) % half

    return _finalize(
        four_n, product, _rotation_reflection_names(half), [("x", half), ("y", 1)],
        f"Q_{four_n}",
    )


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


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
    names = [
        "*".join(w for w in (_power_name("a", i), _power_name("b", j)) if w != "e") or "e"
        for i in range(p)
        for j in range(q)
    ]
    rpow = np.array([pow(r, j, q) for j in range(p)])

    def product(u, v):
        # a^i b^t * a^j b^s = a^(i+j) b^(s + t r^j)
        (i, t), (j, s) = np.divmod(u, q), np.divmod(v, q)
        return (i + j) % p * q + (s + t * rpow[j]) % q

    return _finalize(p * q, product, names, [("a", q), ("b", 1)], f"F({p},{q})")


def _cycle_name(p: Sequence[int]) -> str:
    seen, parts = set(), []
    for s in range(len(p)):
        cyc, t = [], s
        while t not in seen:
            seen.add(t)
            cyc.append(str(t + 1))
            t = p[t]
        if len(cyc) > 1:
            parts.append("(" + ",".join(cyc) + ")")
    return "".join(parts) or "e"


def _perm_group(perms: list[tuple[int, ...]], label: str) -> FiniteGroup:
    """Group of lexicographically sorted permutations of 0..k-1."""
    p = np.array(perms, dtype=np.intp)
    k = p.shape[1]
    # base-k codes of the permutations, ascending because perms is sorted
    codes = p @ k ** np.arange(k - 1, -1, -1)

    def product(u, v):
        # s*t acts as t-first composition, (s*t)(i) = s(t(i)); its code is
        # built one point at a time
        code = 0
        for i in range(k):
            code = code * k + p[u, p[v, i]]
        return np.searchsorted(codes, code)

    return _finalize(len(perms), product, [_cycle_name(s) for s in perms], [], label)


def _perms(n: int, family: str, even: bool) -> list[tuple[int, ...]]:
    """Permutations of 0..n-1 in lexicographic order, optionally only the
    even ones (an even number of inversions)."""
    if not 2 <= n <= 6:
        raise ValueError(f"{family} group supported for 2 <= n <= 6, got {n}")
    perms = itertools.permutations(range(n))
    parity = lambda p: sum(a > b for a, b in itertools.combinations(p, 2)) % 2
    return [p for p in perms if not (even and parity(p))]


def build_symmetric(n: int) -> FiniteGroup:
    """S_n on points 1..n; elements in lexicographic order, identity first."""
    return _perm_group(_perms(n, "symmetric", even=False), f"S{n}")


def build_alternating(n: int) -> FiniteGroup:
    """A_n on points 1..n; even permutations in lexicographic order."""
    return _perm_group(_perms(n, "alternating", even=True), f"A{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G x H with (a, b) stored at index a*|H| + b; componentwise product."""
    nh = h.order
    names = [f"({na},{nb})" for na in g.element_names for nb in h.element_names]
    gens = [(name, idx * nh + h.identity) for name, idx in g.generators]
    taken = {name for name, _ in gens}
    for name, idx in h.generators:
        while name in taken:
            name += "'"
        taken.add(name)
        gens.append((name, g.identity * nh + idx))
    return _finalize(
        g.order * nh,
        lambda u, v: g.table[u // nh, v // nh].astype(np.intp) * nh + h.table[u % nh, v % nh],
        names, gens, f"{g.label} x {h.label}",
    )


# ---------------------------------------------------------------------------
# structure


def subgroup_generated(g: FiniteGroup, seeds: Iterable[int]) -> Subgroup:
    """Closure of the seed set under products (inverses come free in a finite
    group)."""
    seeds = np.unique(np.fromiter(seeds, dtype=np.intp))
    inside = np.arange(g.order) == g.identity
    frontier = np.array([g.identity])
    while frontier.size:
        reached = np.zeros_like(inside)
        for rows in _blocks(len(frontier), len(seeds)):
            reached[g.table[np.ix_(frontier[rows], seeds)]] = True
        frontier = np.flatnonzero(reached & ~inside)
        inside[frontier] = True
    return _subgroup(g, inside)


def center(g: FiniteGroup) -> Subgroup:
    return _subgroup(g, (commutator_map(g) == g.identity).all(axis=1))


def upper_central_series(g: FiniteGroup) -> list[Subgroup]:
    """Z_0 = 1 <= Z_1 = Z(G) <= ... up to (and including) the stable term.

    x lies in Z_{i+1} iff every [a, x] (row x of the commutator map) lies
    in Z_i."""
    c = commutator_map(g)
    inside = np.arange(g.order) == g.identity
    series = [_subgroup(g, inside)]
    while True:
        nxt = np.empty_like(inside)
        for rows in _blocks(g.order, g.order):
            nxt[rows] = inside[c[rows]].all(axis=1)
        if np.array_equal(nxt, inside):
            return series
        inside = nxt
        series.append(_subgroup(g, inside))


def hypercenter(g: FiniteGroup) -> Subgroup:
    return upper_central_series(g)[-1]


def is_nilpotent(g: FiniteGroup) -> bool:
    return hypercenter(g).size == g.order


def derived_series(g: FiniteGroup) -> list[Subgroup]:
    c = commutator_map(g)
    series = [Subgroup(g, tuple(range(g.order)))]
    while True:
        cur = np.array(series[-1].members, dtype=np.intp)
        comms = np.zeros(g.order, dtype=bool)
        for rows in _blocks(len(cur), len(cur)):
            comms[c[np.ix_(cur[rows], cur)]] = True
        nxt = subgroup_generated(g, np.flatnonzero(comms))
        if nxt.members == series[-1].members:
            return series
        series.append(nxt)


def is_soluble(g: FiniteGroup) -> bool:
    return derived_series(g)[-1].size == 1


def is_normal(g: FiniteGroup, s: Subgroup | Iterable[int]) -> bool:
    members = np.array(sorted(set(s.members if isinstance(s, Subgroup) else s)), dtype=np.intp)
    inside = np.isin(np.arange(g.order), members)
    t, a = g.table, np.arange(g.order)
    for rows in _blocks(len(members), g.order):
        x = members[rows, None]
        if not inside[t[t[g.inverse[None, :], x], a[None, :]]].all():
            return False
    return True


def normal_cyclic_subgroups(g: FiniteGroup) -> np.ndarray:
    """n x n bool: row x marks the members of <x> where <x> is normal and is
    all False where it is not."""
    x = np.arange(g.order)
    cyclic = np.zeros((g.order, g.order), dtype=bool)
    power = np.full(g.order, g.identity)
    for _ in range(int(element_orders(g).max())):
        cyclic[x, power] = True
        power = g.table[power, x]
    # <x> is normal iff every conjugate x^a = x [x, a] lies in <x>
    c = commutator_map(g)
    for rows in _blocks(g.order, g.order):
        xs = x[rows, None]
        cyclic[rows] &= cyclic[xs, g.table[xs, c[:, rows].T]].all(axis=1, keepdims=True)
    return cyclic


def cosets(g: FiniteGroup, s: Subgroup) -> tuple[np.ndarray, np.ndarray]:
    """(reps, coset_of): the least elements of the cosets aS, ascending, and
    for each element a the index in reps of its coset."""
    least = g.table[:, list(s.members)].min(axis=1)
    reps = np.unique(least)
    return reps, np.searchsorted(reps, least)


def quotient_group(g: FiniteGroup, s: Subgroup) -> FiniteGroup:
    """G/S for normal S; cosets are indexed by ascending minimal representative."""
    if not is_normal(g, s):
        raise ValueError("cannot form quotient by a non-normal subgroup")
    reps, coset_of = cosets(g, s)
    names = [f"[{g.element_names[a]}]" for a in reps]
    product = lambda u, v: coset_of[g.table[reps[u], reps[v]]]
    return _finalize(len(reps), product, names, (), f"{g.label}/|{s.size}|")


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
        rng = random.Random(seed)
        i, j, k = np.array(
            [[rng.randrange(n) for _ in range(3)] for _ in range(ASSOCIATIVITY_SAMPLES)]
        ).T
        if not np.array_equal(t[t[i, j], k], t[i, t[j, k]]):
            raise ValueError(f"{g.label}: associativity fails (sampled)")
