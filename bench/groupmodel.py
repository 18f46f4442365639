"""Group arithmetic and closed forms written apart from ``engel_lab``.

The output checks compare the program against this module, so nothing here
imports the package under test.  Elements are numbered as the program's
builders document it (dihedral and quaternion ``x^r y^a`` at ``r*h + a``,
Frobenius ``a^i b^j`` at ``i*q + j``, permutations in lexicographic order,
products at ``a*|H| + b``), but every product is computed from the group's
presentation or by composing permutations, never read from a table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional


# ---------------------------------------------------------------------------
# spec strings


@dataclass(frozen=True)
class Spec:
    family: str
    params: tuple[int, ...] = ()
    factors: tuple["Spec", ...] = ()


def parse_spec(text: str) -> Spec:
    """Parse ``C:6``, ``F:3:7`` or ``P:(C:3)x(D:6)`` (products of any depth)."""
    family, _, body = text.partition(":")
    if family != "P":
        return Spec(family, tuple(int(p) for p in body.split(":")))
    factors, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch == "(":
            if depth == 0:
                start = i + 1
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                factors.append(parse_spec(body[start:i]))
    return Spec("P", (), tuple(factors))


def _is_pow2(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def order(spec: Spec) -> int:
    f, p = spec.family, spec.params
    if f == "P":
        return math.prod(order(s) for s in spec.factors)
    if f in ("C", "D", "Q"):
        return p[0]
    if f == "F":
        return p[0] * p[1]
    if f == "S":
        return math.factorial(p[0])
    return math.factorial(p[0]) // 2


def is_nilpotent(spec: Spec) -> bool:
    """Family rules: p-groups and abelian groups are nilpotent; non-abelian
    Frobenius groups, S_n (n >= 3) and A_n (n >= 4) are not."""
    f, p = spec.family, spec.params
    if f == "P":
        return all(is_nilpotent(s) for s in spec.factors)
    if f == "C":
        return True
    if f in ("D", "Q"):
        return _is_pow2(p[0])
    if f == "F":
        return False
    if f == "S":
        return p[0] <= 2
    return p[0] <= 3


def is_soluble(spec: Spec) -> bool:
    f, p = spec.family, spec.params
    if f == "P":
        return all(is_soluble(s) for s in spec.factors)
    if f in ("S", "A"):
        return p[0] <= 4
    return True


# |Fitting(S_n)| and |Fitting(A_n)|: S_3 has A_3, S_4 and A_4 have the Klein
# four-group, and the simple or almost simple cases n >= 5 have 1.
_PERM_FITTING = {("S", 2): 2, ("S", 3): 3, ("S", 4): 4, ("S", 5): 1, ("S", 6): 1,
                 ("A", 3): 3, ("A", 4): 4, ("A", 5): 1, ("A", 6): 1}


def fitting_order(spec: Spec) -> int:
    """|L(G)|: by Baer's theorem the left Engel elements of a finite group
    form its Fitting subgroup, the cyclic part <y> or <b> in the metacyclic
    families and the product of the factors' Fitting subgroups in products."""
    f, p = spec.family, spec.params
    if f == "P":
        return math.prod(fitting_order(s) for s in spec.factors)
    if is_nilpotent(spec):
        return order(spec)
    if f in ("D", "Q"):
        return p[0] // 2
    if f == "F":
        return p[1]
    return _PERM_FITTING[(f, p[0])]


def theorem_parts(spec: Spec) -> Optional[list[int]]:
    """Part sizes of the reduced co-Engel graph by the paper's theorems:
    ``[2^t]*m`` for D and Q of order ``2^(t+1) m`` (m odd, m > 1),
    ``[p-1]*q`` for F(p,q) and ``[l*n]*m`` for a nilpotent group of order l
    times one realising ``[n]*m``.  None where no theorem applies."""
    f, p = spec.family, spec.params
    if f in ("D", "Q") and not is_nilpotent(spec):
        half = p[0] // 2
        t = (half & -half).bit_length() - 1
        return [1 << t] * (half >> t)
    if f == "F":
        return [p[0] - 1] * p[1]
    if f == "P":
        rest = [s for s in spec.factors if not is_nilpotent(s)]
        if len(rest) != 1:
            return None
        inner = theorem_parts(rest[0])
        if inner is None:
            return None
        l = order(spec) // order(rest[0])
        return [l * inner[0]] * len(inner)
    return None


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


# ---------------------------------------------------------------------------
# closed forms for the complete multipartite graph K_{a.b}


def _merged(entries: list[tuple[int, int]]) -> list[list[int]]:
    acc: dict[int, int] = {}
    for value, mult in entries:
        if mult:
            acc[value] = acc.get(value, 0) + mult
    return [[v, m] for v, m in sorted(acc.items())]


def multipartite_forms(a: int, b: int) -> dict:
    """Spectra, energies and Zagreb indices of K_{a.b} (a parts of size b).

    The graph is (a-1)b-regular, so L = dI - A and Q = dI + A shift the
    adjacency spectrum {(a-1)b, 0^(a(b-1)), (-b)^(a-1)}; all three energies
    equal 2d, M1 = n d^2 and M2 = e d^2.
    """
    n, d = a * b, (a - 1) * b
    e = n * d // 2
    return {
        "n": n,
        "edges": e,
        "adjacency": _merged([(d, 1), (0, a * (b - 1)), (-b, a - 1)]),
        "laplacian": _merged([(0, 1), (d, a * (b - 1)), (n, a - 1)]),
        "signless": _merged([(2 * d, 1), (d, a * (b - 1)), (d - b, a - 1)]),
        "energy": f"{2 * d}/1",
        "M1": n * d * d,
        "M2": e * d * d,
        "degree": d,
    }


# ---------------------------------------------------------------------------
# group arithmetic


@dataclass(frozen=True)
class ModelGroup:
    """Elements 0..order-1 with a computed product; ``mul(a, b)`` is the
    product with ``a`` first, as in the program's tables."""

    order: int
    identity: int
    mul: Callable[[int, int], int]
    inv: Callable[[int], int]

    def commutator(self, x: int, y: int) -> int:
        """[x, y] = x^-1 y^-1 x y."""
        m = self.mul
        return m(m(m(self.inv(x), self.inv(y)), x), y)

    def engel_terminates(self, x: int, y: int) -> bool:
        """True iff [x, _k y] = 1 for some k >= 1."""
        seen = set()
        a = self.commutator(x, y)
        while a not in seen:
            if a == self.identity:
                return True
            seen.add(a)
            a = self.commutator(a, y)
        return False

    def element_order(self, x: int) -> int:
        k, cur = 1, x
        while cur != self.identity:
            cur = self.mul(cur, x)
            k += 1
        return k


def _cyclic(n: int) -> ModelGroup:
    return ModelGroup(n, 0, lambda u, v: (u + v) % n, lambda u: -u % n)


def _metacyclic_2(h: int, square: int) -> ModelGroup:
    """<x, y : y^h = 1, x^2 = y^square, y^a x = x y^-a>; x^r y^a at r*h + a.
    square = 0 gives the dihedral group, square = h/2 the quaternion one."""

    def mul(u: int, v: int) -> int:
        r1, a = divmod(u, h)
        r2, b = divmod(v, h)
        rot = b - a if r2 else a + b
        if r1 and r2:
            rot += square
        return (r1 ^ r2) * h + rot % h

    def inv(u: int) -> int:
        r, a = divmod(u, h)
        return h + (a + square) % h if r else -a % h

    return ModelGroup(2 * h, 0, mul, inv)


def _frobenius(p: int, q: int, r: Optional[int]) -> ModelGroup:
    """<a, b : a^p = b^q = 1, a^-1 b a = b^r>, so b^t a^j = a^j b^(t r^j);
    r defaults to the least r >= 2 with r^p = 1 mod q."""
    if r is None:
        r = next(c for c in range(2, q) if pow(c, p, q) == 1)
    rpow = [pow(r, j, q) for j in range(p)]

    def mul(u: int, v: int) -> int:
        i, t = divmod(u, q)
        j, s = divmod(v, q)
        return ((i + j) % p) * q + (t * rpow[j] + s) % q

    def inv(u: int) -> int:
        i, t = divmod(u, q)
        j = -i % p
        return j * q + (-t * rpow[j]) % q

    return ModelGroup(p * q, 0, mul, inv)


def _permutations(n: int, even_only: bool) -> ModelGroup:
    """S_n or A_n in lexicographic order; (s t)(i) = s(t(i))."""

    def even(perm: tuple[int, ...]) -> bool:
        return sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2 == 0

    perms = [s for s in itertools.permutations(range(n)) if not even_only or even(s)]
    index = {s: i for i, s in enumerate(perms)}

    def mul(u: int, v: int) -> int:
        s, t = perms[u], perms[v]
        return index[tuple(s[t[i]] for i in range(n))]

    def inv(u: int) -> int:
        s = perms[u]
        out = [0] * n
        for i, si in enumerate(s):
            out[si] = i
        return index[tuple(out)]

    return ModelGroup(len(perms), 0, mul, inv)


def _product(g: ModelGroup, h: ModelGroup) -> ModelGroup:
    nh = h.order

    def mul(u: int, v: int) -> int:
        a, b = divmod(u, nh)
        c, d = divmod(v, nh)
        return g.mul(a, c) * nh + h.mul(b, d)

    def inv(u: int) -> int:
        a, b = divmod(u, nh)
        return g.inv(a) * nh + h.inv(b)

    return ModelGroup(g.order * nh, g.identity * nh + h.identity, mul, inv)


def model_group(spec: Spec) -> ModelGroup:
    f, p = spec.family, spec.params
    if f == "P":
        groups = [model_group(s) for s in spec.factors]
        out = groups[0]
        for nxt in groups[1:]:
            out = _product(out, nxt)
        return out
    if f == "C":
        return _cyclic(p[0])
    if f == "D":
        return _metacyclic_2(p[0] // 2, 0)
    if f == "Q":
        return _metacyclic_2(p[0] // 2, p[0] // 4)
    if f == "F":
        return _frobenius(p[0], p[1], p[2] if len(p) > 2 else None)
    return _permutations(p[0], even_only=f == "A")


def left_engel_members(g: ModelGroup) -> list[int]:
    """L(G) by brute force, in ascending element order (``all`` stops at the
    first witness, so only members of L(G) cost a full scan)."""
    return [
        y for y in range(g.order)
        if all(g.engel_terminates(x, y) for x in range(g.order))
    ]
