"""Canonical group specifications: parseable strings naming the builders.

Grammar (canonical forms):
    C:<n>          cyclic          D:<2n>      dihedral
    Q:<4n>         quaternion      F:<p>:<q>[:<r>]  Frobenius
    S:<n>          symmetric       A:<n>       alternating
    P:(<spec>)x(<spec>)[x(<spec>)...]          direct product
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce

from . import groups
from .groups import FiniteGroup

FAMILIES = ("C", "D", "Q", "F", "S", "A", "P")

FAMILY_NAMES = {
    "C": "cyclic",
    "D": "dihedral",
    "Q": "quaternion",
    "F": "frobenius",
    "S": "symmetric",
    "A": "alternating",
    "P": "product",
}

_BUILDERS = {
    "C": groups.build_cyclic,
    "D": groups.build_dihedral,
    "Q": groups.build_generalized_quaternion,
    "F": groups.build_frobenius,
    "S": groups.build_symmetric,
    "A": groups.build_alternating,
}

_PARAM_COUNT = {"C": (1, 1), "D": (1, 1), "Q": (1, 1), "F": (2, 3), "S": (1, 1), "A": (1, 1)}


class GroupSpecError(ValueError):
    """Raised for malformed spec strings or invalid family parameters."""


@dataclass(frozen=True)
class GroupSpec:
    family: str
    params: tuple[int, ...] = ()
    factors: tuple["GroupSpec", ...] = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise GroupSpecError(f"unknown family {self.family!r}")
        if self.family == "P":
            if self.params or len(self.factors) < 2:
                raise GroupSpecError("product spec needs >= 2 factors and no params")
        else:
            lo, hi = _PARAM_COUNT[self.family]
            if self.factors or not lo <= len(self.params) <= hi:
                raise GroupSpecError(
                    f"family {self.family} takes {lo}..{hi} integer parameters, "
                    f"got {self.params!r}"
                )

    def canonical(self) -> str:
        if self.family == "P":
            return "P:" + "x".join(f"({f.canonical()})" for f in self.factors)
        return ":".join([self.family, *map(str, self.params)])

    def order(self) -> int:
        """Group order from the parameters alone (no table construction).

        A symmetric or alternating degree the builders refuse raises
        ``GroupSpecError`` before n!, which costs without bound (12 s for
        n = 10^6 on a 2-core x86 host)."""
        import math

        if self.family == "P":
            return math.prod(f.order() for f in self.factors)
        if self.family in ("C", "D", "Q"):
            return self.params[0]
        if self.family == "F":
            return self.params[0] * self.params[1]
        n = self.params[0]
        try:
            groups.check_perm_degree(n, self.family_name)
        except ValueError as exc:
            raise GroupSpecError(f"invalid parameters in {self}: {exc}") from exc
        return math.factorial(n) if self.family == "S" else math.factorial(n) // 2

    @property
    def family_name(self) -> str:
        return FAMILY_NAMES[self.family]

    def __str__(self) -> str:
        return self.canonical()


def _split_product_body(body: str) -> list[str]:
    """Split '(...)x(...)x(...)' into the parenthesised chunks."""
    chunks = []
    depth = 0
    start = None
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "(":
            if depth == 0:
                start = i + 1
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise GroupSpecError(f"unbalanced ')' in product spec {body!r}")
            if depth == 0:
                chunks.append(body[start:i])
                if i + 1 < len(body) and body[i + 1] != "x":
                    raise GroupSpecError(
                        f"expected 'x' between product factors in {body!r}"
                    )
                i += 1  # skip the joining 'x' if present
        elif depth == 0:
            raise GroupSpecError(f"unexpected character {ch!r} in product spec {body!r}")
        i += 1
    if depth != 0:
        raise GroupSpecError(f"unbalanced '(' in product spec {body!r}")
    if len(chunks) < 2:
        raise GroupSpecError(f"product spec needs at least two factors: {body!r}")
    return chunks


def parse_group_spec(text: str) -> GroupSpec:
    text = text.strip()
    if not text or ":" not in text:
        raise GroupSpecError(f"malformed group spec {text!r}")
    family, _, body = text.partition(":")
    if family == "P":
        return GroupSpec("P", (), tuple(parse_group_spec(c) for c in _split_product_body(body)))
    if family not in _BUILDERS:
        raise GroupSpecError(f"unknown family {family!r} in spec {text!r}")
    try:
        params = tuple(int(p) for p in body.split(":"))
    except ValueError:
        raise GroupSpecError(f"non-integer parameter in spec {text!r}") from None
    return GroupSpec(family, params)


@lru_cache(maxsize=256)
def _build_cached(canonical: str) -> FiniteGroup:
    spec = parse_group_spec(canonical)
    if spec.family == "P":
        return reduce(groups.direct_product, map(build_group, spec.factors))
    return _BUILDERS[spec.family](*spec.params)


def build_group(spec: GroupSpec | str) -> FiniteGroup:
    """Build the group named by a spec (memoised on its canonical string)."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    try:
        return _build_cached(spec.canonical())
    except GroupSpecError:
        raise
    except ValueError as exc:
        raise GroupSpecError(f"invalid parameters in {spec.canonical()}: {exc}") from exc
