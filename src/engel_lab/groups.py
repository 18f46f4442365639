"""Finite groups as explicit multiplication tables with 0-based element indices.

Every group is a fully materialised Cayley table plus canonical element names,
so downstream computations reduce to exact table arithmetic.  ``table`` and
``inverse`` are read-only numpy arrays of dtype ``np.min_scalar_type(order)``.
Each builder gives its table as one broadcast expression of row and column
indices; the structure functions (centre, series, normality, closure, element
orders) are array expressions over the table and the commutator map
``c[y, a] = [a, y]``; a subgroup is a bool mask over its parent group, whose
commutator map also gives the subgroup's own series.  Builders are pure and
enumerate elements in a documented, bit-reproducible order.
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


def _mask(g: FiniteGroup, inside: np.ndarray) -> np.ndarray:
    """``inside`` as a subgroup mask of g; ValueError unless it is a bool
    array of shape (order,), so that an index list is never read as one."""
    inside = np.asarray(inside)
    if inside.dtype != bool or inside.shape != (g.order,):
        raise ValueError(f"{g.label}: a subgroup is a bool mask of shape ({g.order},)")
    return inside


def first_power_in(g: FiniteGroup, target: np.ndarray) -> np.ndarray:
    """For every x, the least k >= 1 with x^k in the mask ``target``, which
    must hold the identity (every x^|x| = 1 then bounds the walk): the
    element orders for target {1}, the coset orders in G/N for a normal N."""
    target = _mask(g, target)
    if not target[g.identity]:
        raise ValueError(f"{g.label}: the target of first_power_in lacks the identity")
    x = np.arange(g.order)
    first = np.zeros(g.order, dtype=np.intp)
    power, k = x, 1
    while True:
        first[(first == 0) & target[power]] = k
        if first.all():
            return first
        power, k = g.table[power, x], k + 1


@lru_cache(maxsize=128)
def element_orders(g: FiniteGroup) -> np.ndarray:
    """Read-only order of every element: the least k >= 1 with x^k = 1."""
    orders = first_power_in(g, np.arange(g.order) == g.identity)
    orders.flags.writeable = False
    return orders


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


def check_perm_degree(n: int, family: str) -> None:
    """Raise ``ValueError`` unless the symmetric and alternating builders
    table degree n (2 <= n <= 6)."""
    if not 2 <= n <= 6:
        raise ValueError(f"{family} group supported for 2 <= n <= 6, got {n}")


def _perms(n: int, family: str, even: bool) -> list[tuple[int, ...]]:
    """Permutations of 0..n-1 in lexicographic order, optionally only the
    even ones (an even number of inversions)."""
    check_perm_degree(n, family)
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


def subgroup_generated(g: FiniteGroup, seeds: Iterable[int]) -> np.ndarray:
    """Mask of the closure of the seed elements (indices, not a mask) under
    products (inverses come free in a finite group)."""
    if getattr(seeds, "dtype", None) == bool:
        raise ValueError("subgroup_generated takes element indices, not a mask")
    seeds = np.unique(np.fromiter(seeds, dtype=np.intp))
    inside = np.arange(g.order) == g.identity
    frontier = np.array([g.identity])
    while frontier.size:
        reached = np.zeros_like(inside)
        for rows in _blocks(len(frontier), len(seeds)):
            reached[g.table[np.ix_(frontier[rows], seeds)]] = True
        frontier = np.flatnonzero(reached & ~inside)
        inside[frontier] = True
    return inside


def center(g: FiniteGroup) -> np.ndarray:
    return (commutator_map(g) == g.identity).all(axis=1)


def upper_central_series(
    g: FiniteGroup, within: Optional[np.ndarray] = None
) -> list[np.ndarray]:
    """Z_0 = 1 <= Z_1 = Z(H) <= ... up to (and including) the stable term,
    for the subgroup H with mask ``within`` (default G).

    x in H lies in Z_{i+1}(H) iff every [a, x] with a in H (row x of the
    commutator map, restricted to H) lies in Z_i(H)."""
    c = commutator_map(g)
    members = np.arange(g.order)
    if within is not None:
        members = np.flatnonzero(_mask(g, within))
        c = c[np.ix_(members, members)]  # rows and columns over H
    inside = np.arange(g.order) == g.identity
    series = [inside]
    while True:
        nxt = np.zeros_like(inside)
        for rows in _blocks(len(members), len(members)):
            nxt[members[rows]] = inside[c[rows]].all(axis=1)
        if np.array_equal(nxt, inside):
            return series
        inside = nxt
        series.append(inside)


def hypercenter(g: FiniteGroup, within: Optional[np.ndarray] = None) -> np.ndarray:
    return upper_central_series(g, within)[-1]


def is_nilpotent(g: FiniteGroup, within: Optional[np.ndarray] = None) -> bool:
    """Whether the subgroup with mask ``within`` (default G) is nilpotent:
    its upper central series reaches all of it."""
    top = hypercenter(g, within)
    return bool(top.all() if within is None else np.array_equal(top, within))


def derived_series(g: FiniteGroup) -> list[np.ndarray]:
    c = commutator_map(g)
    series = [np.ones(g.order, dtype=bool)]
    while True:
        cur = np.flatnonzero(series[-1])
        comms = np.zeros(g.order, dtype=bool)
        for rows in _blocks(len(cur), len(cur)):
            comms[c[np.ix_(cur[rows], cur)]] = True
        nxt = subgroup_generated(g, np.flatnonzero(comms))
        if np.array_equal(nxt, series[-1]):
            return series
        series.append(nxt)


def is_soluble(g: FiniteGroup) -> bool:
    return int(np.count_nonzero(derived_series(g)[-1])) == 1


def is_normal(g: FiniteGroup, inside: np.ndarray) -> bool:
    """Whether the subgroup with mask ``inside`` is normal in g: each x^a =
    x [x, a] of a member x lies in it iff [a, x] = [x, a]^-1 = c[x, a] does."""
    inside = _mask(g, inside)
    c, members = commutator_map(g), np.flatnonzero(inside)
    return all(inside[c[members[rows]]].all() for rows in _blocks(len(members), g.order))


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
