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

_ORDER_LIMIT = 5040  # S_7's uint16 table is 51 MB; S_8's would be 3.3 GB
_PARAM_COUNT = {"C": (1, 1), "D": (1, 1), "Q": (1, 1), "F": (2, 3), "S": (1, 1), "A": (1, 1)}


class GroupSpecError(ValueError):
    """Raised for malformed spec strings or invalid family parameters."""


@dataclass(frozen=True)
class GroupSpec:
    family: str
    params: tuple[int, ...] = ()
    factors: tuple["GroupSpec", ...] = ()

    def __post_init__(self):
        if self.family not in FAMILY_NAMES:
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
    """The top-level '(...)' chunks of a product body; ``parse_group_spec``
    refuses a body that is not those chunks joined by 'x'."""
    chunks, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
            if depth == 1:
                start = i + 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                chunks.append(body[start:i])
    return chunks


def parse_group_spec(text: str) -> GroupSpec:
    """The spec that ``text`` names; apart from surrounding whitespace, the
    text must be exactly the spec's canonical form."""
    text = text.strip()
    if not text or ":" not in text:
        raise GroupSpecError(f"malformed group spec {text!r}")
    family, _, body = text.partition(":")
    if family == "P":
        spec = GroupSpec("P", (), tuple(map(parse_group_spec, _split_product_body(body))))
    else:
        try:
            params = tuple(int(p) for p in body.split(":"))
        except ValueError:
            raise GroupSpecError(f"non-integer parameter in spec {text!r}") from None
        spec = GroupSpec(family, params)
    if spec.canonical() != text:
        raise GroupSpecError(f"group spec {text!r} is not in canonical form {spec.canonical()!r}")
    return spec


@lru_cache(maxsize=256)
def _build_cached(canonical: str) -> FiniteGroup:
    spec = parse_group_spec(canonical)
    if spec.family == "P":
        return reduce(groups.direct_product, map(build_group, spec.factors))
    return _BUILDERS[spec.family](*spec.params)


def build_group(spec: GroupSpec | str) -> FiniteGroup:
    """Build the group named by a spec (memoised on its canonical string); an
    order above ``_ORDER_LIMIT`` is refused before any table is allocated."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    if spec.order() > _ORDER_LIMIT:
        raise GroupSpecError(f"{spec} has order {spec.order()}, above the limit {_ORDER_LIMIT}")
    try:
        return _build_cached(spec.canonical())
    except GroupSpecError:
        raise
    except ValueError as exc:
        raise GroupSpecError(f"invalid parameters in {spec.canonical()}: {exc}") from exc
