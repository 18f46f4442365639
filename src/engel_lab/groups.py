"""Finite groups as explicit multiplication tables with 0-based element indices.

A group is its fully materialised Cayley table, identity, inverses and element
names (made on request), so computations reduce to exact table arithmetic;
``table`` and ``inverse`` are read-only arrays of ``np.min_scalar_type(order)``.
Each builder hands ``_finalize`` one row rule, a broadcast expression for the
table rows at an index array: C_n adds indices mod n; D_2h, Q_2h and F(p,q) go
through the metacyclic presentation <a, b : b^n = 1, a^m = b^s, a^-1 b a = b^r>
with (n, m, r, s) = (h, 2, h-1, 0), (h, 2, h-1, h/2) and (q, p, r, 0); a
permutation group takes one integer product of the rows' permutations with a
weight matrix (each product's base-k code) and a dense lookup from codes to
indices; a direct product combines its factors' rows.  The structure functions
(series, normality, closure) are array expressions over the table and the
commutator map ``c[y, a] = [a, y]``; a subgroup is a bool mask over its parent
group, whose commutator map also gives the subgroup's own series.  ``powers``
takes every element to the m-th power by repeated squaring, and element orders
come from a few such powers per prime dividing the order.  Builders are pure
and enumerate elements in a documented, bit-reproducible order.

Every gather is a 1-D take, never a broadcast fancy index (numpy's slow
path): a table over a subset is taken rows first, then columns, in row
blocks, and the set of elements such a block holds is one ``np.bincount``
(``_hits``), as is the order census (``np.unique`` would import ``numpy.ma``,
about 1 MB; ``graphs.row_classes`` is then the only ``np.unique`` call in
``src/``); a mask is read at an index array with ``mask.take(idx)``; and the
products ``t[x, y]`` of two index arrays are one take from ``t.ravel()`` at
x*n + y, formed in intp (``_products``): x*n wraps in a uint8 or uint16 dtype.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

# Gathers through n x n index arrays run over blocks of rows of about this
# many entries: a take copies its index array to 64-bit integers (256 KB a
# block), and one n x n pass over S_6 raised the peak memory by about 4 MB
# more than blocks do.
_BLOCK_ENTRIES = 1 << 15


def _blocks(rows: int, cols: int) -> Iterator[slice]:
    """Slices of consecutive rows, about ``_BLOCK_ENTRIES`` entries each."""
    step = max(1, _BLOCK_ENTRIES // max(1, cols))
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def _products(t: np.ndarray, x: np.ndarray, y) -> np.ndarray:
    """``t[x, y]`` entry by entry, for an index array x and indices y that
    broadcast to its shape, as one take from ``t.ravel()`` at x*n + y (in
    intp: x*n wraps in the dtype of a uint8 or uint16 x)."""
    flat = np.multiply(x, len(t), dtype=np.intp)
    flat += y
    return t.ravel().take(flat)


def _hits(x: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Mask of the elements that occur in ``x[rows][:, cols]``, for an n x n
    map x of elements: per block of rows (about ``_BLOCK_ENTRIES`` entries
    of x), the rows are taken, then the columns, then one ``np.bincount``."""
    n = x.shape[1]
    hit = np.zeros(n, dtype=bool)
    for b in _blocks(len(rows), n):
        hit |= np.bincount(x[rows[b]][:, cols].ravel(), minlength=n).astype(bool)
    return hit


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Immutable finite group on elements 0..order-1.

    ``table[i, j]`` is the index of the product (i first, then j).  Identity
    and inverses are precomputed; ``make_names(idx)`` names the elements at
    the indices idx, and the cached ``element_names`` names all.  The scalar
    accessors return Python ints.
    """

    order: int
    table: np.ndarray
    identity: int
    inverse: np.ndarray
    make_names: Callable[[Sequence[int]], Sequence[str]]
    label: str

    @cached_property
    def element_names(self) -> tuple[str, ...]:
        return tuple(self.make_names(range(self.order)))

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def commutator(self, x: int, y: int) -> int:
        """[x, y] = x^-1 y^-1 x y."""
        return int(commutator_map(self)[y, x])

    def element_order(self, a: int) -> int:
        return int(element_orders(self)[a])

    def order_census(self) -> dict[int, int]:
        counts = np.bincount(element_orders(self)).tolist()
        return {k: v for k, v in enumerate(counts) if v}

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label}, order={self.order})"


@lru_cache(maxsize=128)
def commutator_map(g: FiniteGroup) -> np.ndarray:
    """Read-only n x n map ``c[y, a] = [a, y] = a^-1 y^-1 a y``: row y is the
    map a -> [a, y]."""
    t, inv = g.table, g.inverse
    c = np.empty_like(t)
    for rows in _blocks(g.order, g.order):
        # (y a)^-1 (a y) = a^-1 y^-1 a y; column y of t is the row a -> a y
        c[rows] = _products(t, inv.take(t[rows]), t[:, rows].T)
    c.flags.writeable = False
    return c


def _mask(g: FiniteGroup, inside: np.ndarray) -> np.ndarray:
    """``inside`` as a subgroup mask of g; ValueError unless it is a bool
    array of shape (order,), so that an index list is never read as one."""
    inside = np.asarray(inside)
    if inside.dtype != bool or inside.shape != (g.order,):
        raise ValueError(f"{g.label}: a subgroup is a bool mask of shape ({g.order},)")
    return inside


def powers(g: FiniteGroup, m: int, x: Optional[np.ndarray] = None) -> np.ndarray:
    """x^m (m >= 0), a new array of the table's dtype, for every element x or
    for each entry of the index array ``x``: repeated squaring from the first
    factor on (no product by the identity), about 2 log2(m) table gathers."""
    if m < 0:
        raise ValueError(f"powers takes an exponent m >= 0, got {m}")
    base = np.arange(g.order) if x is None else np.asarray(x)
    acc = None if m else np.full(base.shape, g.identity, dtype=g.table.dtype)
    while m:
        if m & 1:
            acc = base.astype(g.table.dtype) if acc is None else _products(g.table, acc, base)
        m >>= 1
        if m:
            base = _products(g.table, base, base)
    return acc


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """The (p, a) with p^a exactly dividing n, p ascending."""
    out, p = [], 2
    while p * p <= n:
        a = 0
        while n % p == 0:
            n, a = n // p, a + 1
        if a:
            out.append((p, a))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=128)
def element_orders(g: FiniteGroup) -> np.ndarray:
    """Read-only order of every element: the least k >= 1 with x^k = 1.

    For each p^a exactly dividing |G|, z = x^(|G|/p^a) has order p^e where
    p^e exactly divides |x|; e is the number of p-th powers that take z to
    1, at most a.  |x| is the product of these p^e.
    """
    orders = np.ones(g.order, dtype=np.intp)
    for p, a in _prime_powers(g.order):
        z = powers(g, g.order // p**a)
        for _ in range(a):
            live = z != g.identity
            if not live.any():
                break
            orders[live] *= p
            z = powers(g, p, z)
    orders.flags.writeable = False
    return orders


def _finalize(
    order: int,
    rows_of: Callable[[np.ndarray], np.ndarray],
    names: Callable[[Sequence[int]], Sequence[str]],
    label: str,
) -> FiniteGroup:
    """The group whose table rows at an intp index array r are ``rows_of(r)``,
    each row with every column in order, 0..order-1; rows are filled in
    blocks, narrowed to ``np.min_scalar_type(order)``; ``names(idx)`` names
    the elements at the indices idx.  The identity is the first idempotent
    whose row and column are identity maps, and inverses are found one row
    block at a time."""
    table = np.empty((order, order), dtype=np.min_scalar_type(order))
    v = np.arange(order)
    for rows in _blocks(order, order):
        table[rows] = rows_of(v[rows])
    identity = next((int(x) for x in np.flatnonzero(table.diagonal() == v)
                     if np.array_equal(table[x], v) and np.array_equal(table[:, x], v)), None)
    if identity is None:
        raise ValueError(f"table for {label} has no identity element")
    inverse = np.empty(order, dtype=table.dtype)
    for rows in _blocks(order, order):
        both = (table[rows] == identity) & (table[:, rows].T == identity)
        found = both.any(axis=1)
        if not found.all():
            raise ValueError(f"element {rows.start + found.argmin()} of {label} has no inverse")
        inverse[rows] = both.argmax(axis=1)
    table.flags.writeable = inverse.flags.writeable = False
    return FiniteGroup(order, table, identity, inverse, names, label)


# ---------------------------------------------------------------------------
# builders


def build_cyclic(n: int) -> FiniteGroup:
    """Z/nZ written multiplicatively: elements e, g, g^2, ..."""
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    return _finalize(n, lambda r: (r[:, None] + np.arange(n)) % n,
                     lambda idx: [_power_name("g", i) for i in idx], f"C{n}")


def _power_name(base: str, i: int) -> str:
    return "e" if i == 0 else base if i == 1 else f"{base}^{i}"


def _metacyclic(n: int, m: int, r: int, s: int, top: str, bottom: str, label: str) -> FiniteGroup:
    """<a, b : b^n = 1, a^m = b^s, a^-1 b a = b^r> (of order nm when r^m = 1
    and s(r - 1) = 0 mod n), a named ``top`` and b ``bottom``; a^i b^j is at
    index i*n + j and named top^i*bottom^j, and a = b^s when m = 1."""
    rpow, coset, w = np.array([pow(r, j, n) for j in range(m)]), np.arange(m), np.arange(n)

    def rows_of(rows):
        # a^i b^t * a^j b^w = a^((i+j) mod m) b^((c + w) mod n), c = t r^j + s [i+j >= m]:
        # one shift per row and coset a^j, since a row holds every column in order
        k = rows[:, None] // n + coset
        c = rows[:, None] % n * rpow + s * (k >= m)
        return ((c[..., None] + w) % n + (k % m * n)[..., None]).reshape(len(rows), -1)

    def names(idx):
        tops = [_power_name(top, i) for i in range(m)]
        bottoms = [_power_name(bottom, j) for j in range(n)]
        return [f"{tops[i]}*{bottoms[j]}" if i and j else tops[i] if i else bottoms[j]
                for i, j in (divmod(k, n) for k in idx)]

    return _finalize(n * m, rows_of, names, label)


def build_dihedral(two_n: int) -> FiniteGroup:
    """D_2n = <x, y : y^n = x^2 = 1, x y x^-1 = y^-1>; elements y^0..y^(n-1),
    then x*y^0..x*y^(n-1)."""
    if two_n < 4 or two_n % 2:
        raise ValueError(f"dihedral order must be even and >= 4, got {two_n}")
    h = two_n // 2
    return _metacyclic(h, 2, h - 1, 0, "x", "y", f"D_{two_n}")


def build_generalized_quaternion(four_n: int) -> FiniteGroup:
    """Q_4n = <x, y : y^2n = 1, x^2 = y^n, x y x^-1 = y^-1>; elements
    y^0..y^(2n-1), then x*y^0..x*y^(2n-1)."""
    if four_n < 8 or four_n % 4:
        raise ValueError(f"generalized quaternion order must be a multiple of 4 and >= 8, "
                         f"got {four_n}")
    h = four_n // 2
    return _metacyclic(h, 2, h - 1, h // 2, "x", "y", f"Q_{four_n}")


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve primes as bases, deterministic for
    n < 3.18 * 10^23, so for every 64-bit n."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def default_frobenius_residue(p: int, q: int) -> int:
    """Smallest r >= 2 with r^p = 1 mod q (all valid r give isomorphic groups)."""
    for r in range(2, q):
        if pow(r, p, q) == 1:
            return r
    raise ValueError(f"no residue of order {p} mod {q}")


def build_frobenius(p: int, q: int, r: Optional[int] = None) -> FiniteGroup:
    """F_{p,q} = <a, b : a^p = b^q = 1, a^-1 b a = b^r> of order pq.

    Elements are a^i b^j enumerated with index i*q + j.
    """
    if not _is_prime(p) or not _is_prime(q):
        raise ValueError(f"p and q must be prime, got ({p}, {q})")
    if q % p != 1:
        raise ValueError(f"need q = 1 mod p, got q={q}, p={p}")
    if r is None:
        r = default_frobenius_residue(p, q)
    elif not (2 <= r < q) or pow(r, p, q) != 1:
        raise ValueError(f"invalid residue r={r}: need 2 <= r < q and r^p = 1 mod q")
    return _metacyclic(q, p, r, 0, "a", "b", f"F({p},{q})")


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


def _perm_group(perms: np.ndarray, label: str) -> FiniteGroup:
    """Group of lexicographically sorted permutations of 0..k-1, one a row."""
    p = np.asarray(perms, dtype=np.intp)
    n, k = p.shape
    # s*t acts as t-first composition, (s*t)(i) = s(t(i)), so its base-k code
    # sum_i s(t(i)) k^(k-1-i) is sum_j s(j) k^(k-1-t^-1(j)) = p[s] . weight[t]
    # with weight[t, t(i)] = k^(k-1-i); a dense lookup maps codes to indices
    place = k ** np.arange(k - 1, -1, -1)
    weight = np.zeros((n, k), dtype=np.intp)
    np.put_along_axis(weight, p, place, axis=1)
    index = np.zeros(k**k, dtype=np.min_scalar_type(n))
    index[p @ place] = np.arange(n)
    return _finalize(n, lambda r: index[p[r] @ weight.T],
                     lambda idx: [_cycle_name(p[i].tolist()) for i in idx], label)


def check_perm_degree(n: int, family: str) -> None:
    """Raise ``ValueError`` unless the symmetric and alternating builders
    table degree n (2 <= n <= 6)."""
    if not 2 <= n <= 6:
        raise ValueError(f"{family} group supported for 2 <= n <= 6, got {n}")


def _perms(n: int, family: str, even: bool) -> np.ndarray:
    """Permutations of 0..n-1 in lexicographic order, one a row, optionally
    only the even ones (inversions counted over column pairs, all rows at once)."""
    check_perm_degree(n, family)
    p = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    inversions = sum(p[:, i] > p[:, j] for i, j in itertools.combinations(range(n), 2))
    return p[inversions % 2 == 0] if even else p


def build_symmetric(n: int) -> FiniteGroup:
    """S_n on points 1..n; elements in lexicographic order, identity first."""
    return _perm_group(_perms(n, "symmetric", even=False), f"S{n}")


def build_alternating(n: int) -> FiniteGroup:
    """A_n on points 1..n; even permutations in lexicographic order."""
    return _perm_group(_perms(n, "alternating", even=True), f"A{n}")


def _names_by_index(g: FiniteGroup, idx: Sequence[int]) -> dict[int, str]:
    """The name of each distinct index in idx, made once each."""
    once = list(dict.fromkeys(idx))
    return dict(zip(once, g.make_names(once)))


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G x H with (a, b) stored at index a*|H| + b; componentwise product."""
    nh = h.order

    def rows_of(r):  # row (a, b) maps (a', b') to G[a, a'] |H| + H[b, b']
        a, b = np.divmod(r, nh)
        return (np.multiply(g.table[a], nh, dtype=np.intp)[:, :, None]
                + h.table[b][:, None, :]).reshape(len(a), -1)

    def names(idx):  # each distinct factor element is named once
        a, b = (k.tolist() for k in np.divmod(np.fromiter(idx, dtype=np.intp), nh))
        ga, hb = _names_by_index(g, a), _names_by_index(h, b)
        return [f"({ga[x]},{hb[y]})" for x, y in zip(a, b)]
    return _finalize(g.order * nh, rows_of, names, f"{g.label} x {h.label}")


# ---------------------------------------------------------------------------
# structure


def subgroup_generated(g: FiniteGroup, seeds: Iterable[int]) -> np.ndarray:
    """Mask of the closure of the seed elements (indices, not a mask) under
    products (inverses come free in a finite group)."""
    if getattr(seeds, "dtype", None) == bool:
        raise ValueError("subgroup_generated takes element indices, not a mask")
    seeds = np.flatnonzero(np.bincount(np.fromiter(seeds, dtype=np.intp), minlength=g.order))
    inside = np.arange(g.order) == g.identity
    frontier = np.array([g.identity])
    while frontier.size and not inside.all():
        reached = _hits(g.table, frontier, seeds)
        frontier = np.flatnonzero(reached & ~inside)
        inside[frontier] = True
    return inside


def upper_central_series(
    g: FiniteGroup, within: Optional[np.ndarray] = None
) -> list[np.ndarray]:
    """Z_0 = 1 <= Z_1 = Z(H) <= ... up to (and including) the stable term,
    for the subgroup H with mask ``within`` (default G).

    x in H lies in Z_{i+1}(H) iff every [a, x] with a in H (row x of the
    commutator map, restricted to H) lies in Z_i(H).  Each pass takes H's
    rows of the map block by block, then H's columns from them."""
    c = commutator_map(g)
    members = np.arange(g.order) if within is None else np.flatnonzero(_mask(g, within))
    inside = np.arange(g.order) == g.identity
    series = [inside]
    while True:
        nxt = np.zeros_like(inside)
        for rows in _blocks(len(members), g.order):
            block = c[rows] if within is None else c[members[rows]][:, members]
            nxt[members[rows]] = inside.take(block).all(axis=1)
        if np.array_equal(nxt, inside):
            return series
        inside = nxt
        series.append(inside)


@lru_cache(maxsize=128)
def _group_hypercenter(g: FiniteGroup) -> np.ndarray:
    top = upper_central_series(g)[-1]
    top.flags.writeable = False  # shared by every caller
    return top


def hypercenter(g: FiniteGroup, within: Optional[np.ndarray] = None) -> np.ndarray:
    """Mask of the stable term of the upper central series of the subgroup
    with mask ``within``; for all of G (the default) it is computed once per
    group and read-only."""
    if within is None:
        return _group_hypercenter(g)
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
        comms = _hits(c, cur, cur)
        nxt = subgroup_generated(g, np.flatnonzero(comms))
        if np.array_equal(nxt, series[-1]):
            return series
        series.append(nxt)


def is_soluble(g: FiniteGroup) -> bool:
    """Whether G is soluble: nilpotent (a central series to G), else by its derived series."""
    return bool(hypercenter(g).all()) or int(np.count_nonzero(derived_series(g)[-1])) == 1


def is_normal(g: FiniteGroup, inside: np.ndarray) -> bool:
    """Whether the subgroup with mask ``inside`` is normal in g: each x^a =
    x [x, a] of a member x lies in it iff [a, x] = [x, a]^-1 = c[x, a] does."""
    inside = _mask(g, inside)
    c, members = commutator_map(g), np.flatnonzero(inside)
    return all(inside.take(c[members[rows]]).all() for rows in _blocks(len(members), g.order))
