"""One-shot verification sweep: every closed-form claim in scope is checked
against brute-force computation on the actual groups.

A claim is its ``expected`` side on one group, assembled purely from the
published formulas (parameter arithmetic).  Its computed side is by default
``{key: FACTS[key](g) for key in expected}``, each key one fact of the built
group measured through the group -> graph -> measurement pipeline, so the
two sides have the same keys; claims that need more keep a measure built on
that table, which ``cli.cmd_group`` and the single-arc survey read too.
Most claims concern the families the paper shows have reduced co-Engel graph
K_{a.b} (a parts of size b); those are listed once, by ``_realised``, and
their expected sides are functions of (a, b).  Records are JSON-typed
throughout so comparisons are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from . import engel, topology
from .analysis import (
    MultipartiteShape, clique_number, is_planar, recognize_complete_multipartite, verify_biclique
)
from .groups import (
    FiniteGroup,
    _is_prime,
    commutator_map,
    element_orders,
    is_nilpotent,
    is_soluble,
    subgroup_generated,
)
from .spectra import SpectrumReport, closed_form_spectra, fraction_text, spectrum_report
from .specs import FAMILY_NAMES, GroupSpecError, build_group, parse_group_spec

SWEEP_TM = tuple((t, m) for t in (1, 2, 3) for m in (3, 5, 7, 9))
SWEEP_M = (3, 5, 7, 9)
SWEEP_M_CLASS = (3, 5, 7, 9, 11)
SWEEP_PQ = ((2, 3), (2, 5), (2, 7), (3, 7), (3, 13), (5, 11))
SWEEP_H = ("C:2", "C:3", "C:4", "Q:8")
BIPAR_G = ("D:12", "Q:12", "F:3:7")

ALL_CLAIM_IDS = (
    "thm-dihed",
    "thm-pq",
    "thm-bipar",
    "left-engel",
    "genus-formula-D",
    "genus-formula-F",
    "genus-class-D",
    "genus-class-F",
    "genus-class-gen",
    "projective",
    "energy-d2m",
    "energy-dq",
    "energy-fpq",
    "zagreb-dq",
    "zagreb-fpq",
    "directed-single-arcs",
    "a4-structure",
)


@dataclass(frozen=True)
class VerificationRecord:
    claim_id: str
    group: str
    expected: object
    computed: object
    status: str  # pass | fail | skipped

    def to_json_obj(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class Claim:
    claim_id: str
    group: str
    expected: object
    compute: Callable[[], object]


def _claim(claim_id: str, spec: str, expected: dict, measure: Optional[Callable] = None) -> Claim:
    """The claim that ``measure`` of the group ``spec``, built when the claim
    is computed, equals ``expected``.  The default measure reads each key of
    ``expected`` from ``FACTS``, so the two sides have the same keys."""
    measure = measure or (lambda g: _facts(g, expected))
    return Claim(claim_id, spec, expected, lambda: measure(build_group(spec)))


# ---------------------------------------------------------------------------
# the realised families and their expected sides, as functions of (a, b)


def _realised(d2m_sweep: Iterable[int] = SWEEP_M) -> Iterator[tuple[str, str, int, int]]:
    """(family, spec, a, b) for every swept group whose reduced co-Engel graph
    the paper shows is K_{a.b}: D/Q of order 2^(t+1)m give K_{m.2^t}, D_2m gives
    K_m and F(p,q) gives K_{q.(p-1)}."""
    for t, m in SWEEP_TM:
        for fam in ("D", "Q"):
            yield "dq", f"{fam}:{2 ** (t + 1) * m}", m, 2**t
    for m in d2m_sweep:
        yield "d2m", f"D:{2 * m}", m, 1
    for p, q in SWEEP_PQ:
        yield "fpq", f"F:{p}:{q}", q, p - 1


# claim ids per family: shape theorem, genus formula, surface class, energy, Zagreb
_FAMILY_IDS = {
    "dq": ("thm-dihed", "genus-formula-D", "genus-class-D", "energy-dq", "zagreb-dq"),
    "d2m": ("thm-dihed", "genus-formula-D", "genus-class-D", "energy-d2m", None),
    "fpq": ("thm-pq", "genus-formula-F", "genus-class-F", "energy-fpq", "zagreb-fpq"),
}

# The paper's surface tables, keyed by (a, b); every other swept group has
# genus >= 5.  D/Q: (t, m) = (1, 3) planar, (1, 5) and (1, 7) toroidal, (1, 9)
# and (2, 3) triple-toroidal.  D_2m: m = 3 planar, 5 and 7 toroidal, 9
# triple-toroidal.  F(p,q): (2, 3) planar, (2, 5), (2, 7) and (3, 7) toroidal.
_PLANAR, _TORUS, _TRIPLE = topology.CLASS_PLANAR, topology.CLASS_TOROIDAL, topology.CLASS_TRIPLE
_CLASSES = {
    "dq": {(3, 2): _PLANAR, (5, 2): _TORUS, (7, 2): _TORUS, (9, 2): _TRIPLE, (3, 4): _TRIPLE},
    "d2m": {(3, 1): _PLANAR, (5, 1): _TORUS, (7, 1): _TORUS, (9, 1): _TRIPLE},
    "fpq": {(3, 1): _PLANAR, (5, 1): _TORUS, (7, 1): _TORUS, (7, 2): _TORUS},
}

# L(G) of the realised families: <y> of order ab in D/Q, <b> = C_q in F(p,q)
_LEFT_ENGEL = {"dq": ("y", lambda a, b: a * b), "fpq": ("b", lambda a, b: a)}


def _zagreb_record(zr: topology.ZagrebReport) -> dict:
    """M1, M2 and the Hansen-Vukicevic comparison of ``zr``."""
    return {
        "M1": zr.m1,
        "M2": zr.m2,
        "ratios_equal": zr.hv_lhs == zr.hv_rhs,
        "ratio": fraction_text(zr.hv_lhs),
        "hv_holds": zr.hv_holds,
    }


def _energy_record(rep: SpectrumReport, closed: Optional[SpectrumReport]) -> dict:
    """The spectra, energies and flags of ``rep``, and whether its three
    polynomials are those of the closed-form report ``closed`` (never, when
    there is none)."""
    spectra = {
        "spectrum": rep.adjacency_spectrum,
        "laplacian_spectrum": rep.laplacian_spectrum,
        "signless_spectrum": rep.signless_spectrum,
    }
    energies = {"E": rep.energy, "LE": rep.laplacian_energy, "LE+": rep.signless_energy}
    return {
        **{k: s.to_json_obj() if s else None for k, s in spectra.items()},
        **{k: fraction_text(e) for k, e in energies.items()},
        "super_integral": rep.super_integral,
        "hyperenergetic": rep.hyperenergetic,
        "hypoenergetic": rep.hypoenergetic,
        "e_le_holds": rep.e_le_holds,
        "polys_match_closed_form": closed is not None
        and rep.adjacency_poly == closed.adjacency_poly
        and rep.laplacian_poly == closed.laplacian_poly
        and rep.signless_poly == closed.signless_poly,
    }


# ---------------------------------------------------------------------------
# the group facts a claim can name, and the measures of claims that need more


def _shape(g: FiniteGroup):
    return recognize_complete_multipartite(engel.reduced_co_engel_graph(g))


def _uniform_shape(g: FiniteGroup) -> Optional[MultipartiteShape]:
    """The reduced graph's shape if it is some K_{a.b}, else None: the genus
    and energy measures then give a computed side that fails."""
    shape = _shape(g)
    return shape if shape is not None and shape.is_uniform else None


def _genus(g: FiniteGroup) -> Optional[int]:
    shape = _uniform_shape(g)
    return None if shape is None else topology.genus_uniform_multipartite(shape.a, shape.b)


def _baer_valid(g: FiniteGroup) -> bool:
    try:
        engel.validate_left_engel_baer(g)
    except ValueError:
        return False
    return True


# One measure of the group for each key a claim can name; entries call the
# module's globals at run time, so a patched or traced name is the one used.
FACTS: dict[str, Callable[[FiniteGroup], object]] = {
    "parts": lambda g: None if (shape := _shape(g)) is None else list(shape.parts),
    "genus": _genus,
    "classification": lambda g: topology.surface_class(_shape(g)).classification,
    "projective": lambda g: topology.surface_class(_shape(g)).projective,
    "crosscap": lambda g: topology.surface_class(_shape(g)).crosscap,
    "planar": lambda g: is_planar(engel.reduced_co_engel_graph(g)),
    "clique_at_most_4": lambda g: clique_number(engel.reduced_co_engel_graph(g)) <= 4,
    "vertices": lambda g: engel.reduced_co_engel_graph(g).n,
    "size": lambda g: len(engel.left_engel_set(g)),
    "baer_valid": _baer_valid,
    "nilpotent": lambda g: is_nilpotent(g),
    "soluble": lambda g: is_soluble(g),
    "complete_digraph": lambda g: engel.directed_engel_graph(g).is_complete(),
    "single_arcs": lambda g: int(np.count_nonzero(engel.single_arc_mask(g))),
    "has_single_arc": lambda g: bool(engel.single_arc_mask(g).any()),
    "single_arcs_outside_L": lambda g: int(np.count_nonzero(engel.single_arc_mask(g, True))),
}


def _facts(g: FiniteGroup, keys: Iterable[str]) -> dict:
    return {key: FACTS[key](g) for key in keys}


def _measure_isomorphic(partner: str) -> Callable[[FiniteGroup], dict]:
    """Measure of whether the reduced graph has the parts of the group ``partner``'s."""
    def measure(g: FiniteGroup) -> dict:
        pg = FACTS["parts"](g)
        return {"isomorphic": pg is not None and pg == FACTS["parts"](build_group(partner))}
    return measure


def _measure_energy(g: FiniteGroup) -> dict:
    shape = _uniform_shape(g)
    closed = None if shape is None else closed_form_spectra(shape)
    return _energy_record(spectrum_report(engel.reduced_co_engel_graph(g)), closed)


def _measure_zagreb(g: FiniteGroup) -> dict:
    return _zagreb_record(topology.zagreb_report(engel.reduced_co_engel_graph(g)))


def _measure_left_engel(members_of: Callable[[FiniteGroup], list[int]]):
    """Measure of L(G) against the members the paper names for it."""

    def measure(g: FiniteGroup) -> dict:
        matches = sorted(engel.left_engel_set(g)) == members_of(g)
        return {"matches": matches, **_facts(g, ("baer_valid", "size"))}

    return measure


def _generated_by(name: str) -> Callable[[FiniteGroup], list[int]]:
    def members(g: FiniteGroup) -> list[int]:
        return np.flatnonzero(subgroup_generated(g, [g.generator_index(name)])).tolist()
    return members


def _s4_klein_four(g: FiniteGroup) -> list[int]:
    names = {"e", "(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"}
    return sorted(i for i, nm in enumerate(g.element_names) if nm in names)


def _measure_dihedral_proposition(g: FiniteGroup) -> dict:
    """The three directed-graph bullets for D_2n, checked over all pairs:
    rotations a, b have arcs both ways; from a rotation a to a reflection b
    there is an arc, and one back iff |[b, a]| is a power of 2; between
    reflections there are arcs both ways iff |ab| is a power of 2, and
    otherwise none; the table counts the single arcs outside L(G)."""
    arc = engel.engel_relation(g).T  # arc[a, b]: a -> b, off the diagonal
    orders = element_orders(g)
    pow2 = (orders & (orders - 1)) == 0
    rot = np.arange(g.order) < g.order // 2
    off = ~np.eye(g.order, dtype=bool)
    both = arc & arc.T
    rot_ref = rot[:, None] & ~rot[None, :]
    ref_ref = ~rot[:, None] & ~rot[None, :] & off
    holds = (
        both[rot[:, None] & rot[None, :] & off].all()
        and arc[rot_ref].all()
        and (arc.T == pow2[commutator_map(g)])[rot_ref].all()  # [b, a] = c[a, b]
        and (both == pow2[g.table])[ref_ref].all()
        and (arc == arc.T)[ref_ref].all()
    )
    return {"proposition_holds": bool(holds),
            "single_arcs_outside_L": FACTS["single_arcs_outside_L"](g)}


def _measure_s4_singles(g: FiniteGroup) -> dict:
    arcs = np.transpose(np.nonzero(engel.single_arc_mask(g, outside_left_engel=True)))
    pattern = (element_orders(g)[arcs] == (3, 2)).all()  # each row (tail, head)
    return {"nonempty": len(arcs) > 0, "order_3_to_2": bool(pattern)}


A4_BICLIQUE_H = ("(2,3,4)", "(1,2,4)", "(2,4,3)", "(1,4,2)")
A4_BICLIQUE_K = ("(1,2,3)", "(1,3,4)", "(1,3,2)", "(1,4,3)")


def _measure_a4(g: FiniteGroup) -> dict:
    graph = engel.reduced_co_engel_graph(g)
    pos = {g.element_names[e]: i for i, e in enumerate(engel.non_engel_elements(g))}
    return {
        **_facts(g, ("vertices", "clique_at_most_4", "planar")),
        "biclique_K44": verify_biclique(
            graph, [pos[n] for n in A4_BICLIQUE_H], [pos[n] for n in A4_BICLIQUE_K]
        ),
    }


# ---------------------------------------------------------------------------
# the claim table


def _claims_realised() -> Iterator[Claim]:
    for family, spec, a, b in _realised():
        shape_id, genus_id, _, energy_id, zagreb_id = _FAMILY_IDS[family]
        yield _claim(shape_id, spec, {"parts": [b] * a})
        if family == "dq" and spec.startswith("D:"):
            q_spec = "Q" + spec[1:]
            yield _claim(shape_id, spec, {"isomorphic": True}, _measure_isomorphic(q_spec))
        genus = topology.genus_uniform_multipartite(a, b)
        yield _claim(genus_id, spec, {"genus": genus})
        closed = closed_form_spectra(MultipartiteShape.uniform(a, b))
        yield _claim(energy_id, spec, _energy_record(closed, closed), _measure_energy)
        if zagreb_id:
            zr = topology.ZagrebReport(*topology.zagreb_closed_form(a, b), a * b, closed.n_edges)
            yield _claim(zagreb_id, spec, _zagreb_record(zr), _measure_zagreb)
        if family in _LEFT_ENGEL:
            name, size = _LEFT_ENGEL[family]
            expected = {"matches": True, "baer_valid": True, "size": size(a, b)}
            yield _claim("left-engel", spec, expected, _measure_left_engel(_generated_by(name)))
    for family, spec, a, b in _realised(SWEEP_M_CLASS):
        classification = _CLASSES[family].get((a, b), topology.CLASS_GENUS_5_PLUS)
        yield _claim(_FAMILY_IDS[family][2], spec, {"classification": classification})


def _claims_other() -> Iterator[Claim]:
    # The direct-product theorem's proof exhibits the partite sets H x G_i:
    # m parts of size l*n (the statement's subscript "lm.n" is a slip; the
    # same paper computes C3 x D_6 as K_{3,3,3}, which settles the reading).
    shapes = {spec: (a, b) for _, spec, a, b in _realised()}
    for h in SWEEP_H:
        l = parse_group_spec(h).order()
        for gname in BIPAR_G:
            m, n = shapes[gname]
            yield _claim("thm-bipar", f"P:({h})x({gname})", {"parts": [l * n] * m})
    yield _claim(
        "left-engel",
        "S:4",
        {"matches": True, "baer_valid": True, "size": 4},
        _measure_left_engel(_s4_klein_four),
    )
    for spec in ("A:4", "P:(C:3)x(D:6)"):
        expected = {"classification": topology.CLASS_TOROIDAL, "clique_at_most_4": True}
        yield _claim("genus-class-gen", spec, expected)

    # the three projective groups, via the surface pipeline
    for spec in ("D:6", "D:12", "Q:12"):
        yield _claim("projective", spec, {"projective": True, "planar": True})
    # D_6 -> K_3 carries the crosscap-1 formula value
    yield _claim("projective", "D:6", {"crosscap": 1})
    # the proof's obstructions: a K_{m,n} subgraph of crosscap 2
    for spec, (m, n) in (("A:4", (4, 4)), ("P:(C:3)x(D:6)", (6, 3))):
        yield _claim(
            "projective",
            spec,
            {f"crosscap_K{m}{n}": 2, "projective": False},
            lambda g, m=m, n=n: {
                f"crosscap_K{m}{n}": topology.crosscap_complete_bipartite(m, n),
                "projective": FACTS["projective"](g),
            },
        )

    for spec in ("Q:8", "C:6", "D:8"):
        expected = {"nilpotent": True, "complete_digraph": True, "single_arcs": 0}
        yield _claim("directed-single-arcs", spec, expected)
    for spec in ["S:3", "S:4"] + [s for fam, s, _, _ in _realised() if fam != "d2m"]:
        expected = {"soluble": True, "nilpotent": False, "has_single_arc": True}
        yield _claim("directed-single-arcs", spec, expected)
    for t, m in SWEEP_TM:
        yield _claim(
            "directed-single-arcs",
            f"D:{2 ** (t + 1) * m}",
            {"proposition_holds": True, "single_arcs_outside_L": 0},
            _measure_dihedral_proposition,
        )
    yield _claim(
        "directed-single-arcs", "S:4", {"nonempty": True, "order_3_to_2": True}, _measure_s4_singles
    )

    yield _claim(
        "a4-structure",
        "A:4",
        {"vertices": 8, "biclique_K44": True, "clique_at_most_4": True, "planar": False},
        _measure_a4,
    )


def all_claims() -> list[Claim]:
    # Records are sorted stably by (claim_id, group), so only the order of
    # claims sharing that key shows in the output: parts before isomorphic
    # (thm-dihed D:n), projective/planar before crosscap (D:6), soluble before
    # the dihedral proposition (D sweep) and before order_3_to_2 (S:4).
    return [*_claims_realised(), *_claims_other()]


def run_paper_verification(
    families: Optional[Iterable[str]] = None,
    max_order: Optional[int] = None,
) -> list[VerificationRecord]:
    """Evaluate every claim; returns records sorted by (claim_id, group).

    Groups filtered out by ``families`` are omitted; groups larger than
    ``max_order`` produce explicit "skipped" records.  A family name not in
    ``specs.FAMILY_NAMES``, or a filter naming no family, raises
    ``GroupSpecError`` (a ``ValueError``).
    """
    family_filter = None if families is None else set(families)
    known = ", ".join(FAMILY_NAMES.values())
    if family_filter is not None and not family_filter:
        raise GroupSpecError(f"the family filter names no family; known: {known}")
    unknown = sorted((family_filter or set()) - set(FAMILY_NAMES.values()))
    if unknown:
        raise GroupSpecError(f"unknown families {', '.join(unknown)}; known: {known}")
    records = []
    for claim in all_claims():
        spec = parse_group_spec(claim.group)
        if family_filter is not None and spec.family_name not in family_filter:
            continue
        if max_order is not None and spec.order() > max_order:
            computed = {"skipped": f"order {spec.order()} exceeds --max-order {max_order}"}
            status = "skipped"
        else:
            computed = claim.compute()
            status = "pass" if computed == claim.expected else "fail"
        records.append(
            VerificationRecord(claim.claim_id, claim.group, claim.expected, computed, status)
        )
    records.sort(key=lambda r: (r.claim_id, r.group))
    return records


# ---------------------------------------------------------------------------
# search harness for the open problem on single arcs outside L(G)


def _soluble_catalog(max_order: int) -> list[str]:
    specs = [f"C:{n}" for n in range(2, max_order + 1)]
    specs += [f"D:{n}" for n in range(4, max_order + 1, 2)]
    specs += [f"Q:{n}" for n in range(8, max_order + 1, 4)]
    primes = [p for p in range(2, max_order + 1) if _is_prime(p)]
    specs += [
        f"F:{p}:{q}"
        for p in primes
        for q in primes
        if p < q and q % p == 1 and p * q <= max_order
    ]
    specs += [f"S:{n}" for n in (2, 3, 4) if math.factorial(n) <= max_order]
    specs += [f"A:{n}" for n in (3, 4) if math.factorial(n) // 2 <= max_order]
    return specs


def sweep_single_arcs(max_order: int) -> list[dict]:
    """Per-group report of single arcs outside L(G) for the built-in soluble
    groups up to the order bound, in catalog order."""
    rows = []
    for spec_str in _soluble_catalog(max_order):
        g = build_group(spec_str)
        facts = _facts(g, ("nilpotent", "single_arcs_outside_L"))
        rows.append({"group": spec_str, "label": g.label, "order": g.order, **facts,
                     "empty": not facts["single_arcs_outside_L"]})
    return rows
