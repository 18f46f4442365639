"""One-shot verification sweep: every closed-form claim in scope is checked
against brute-force computation on the actual groups.

Each claim produces VerificationRecords whose ``expected`` side is assembled
purely from the published formulas (parameter arithmetic) and whose
``computed`` side comes from the group -> graph -> measurement pipeline.
Records are JSON-typed throughout so comparisons are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

import numpy as np

from . import engel, topology
from .analysis import clique_number, recognize_complete_multipartite, is_planar, verify_biclique
from .groups import (
    FiniteGroup,
    commutator_map,
    element_orders,
    is_nilpotent,
    is_soluble,
    subgroup_generated,
)
from .spectra import IntegerSpectrum, closed_form_spectra, spectrum_report
from .specs import GroupSpec, build_group, parse_group_spec

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
        return {
            "claim_id": self.claim_id,
            "group": self.group,
            "expected": self.expected,
            "computed": self.computed,
            "status": self.status,
        }


@dataclass(frozen=True)
class Claim:
    claim_id: str
    group: str
    expected: object
    compute: Callable[[], object]


def _frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _shape_parts(g: FiniteGroup) -> Optional[list[int]]:
    shape = recognize_complete_multipartite(engel.reduced_co_engel_graph(g))
    return None if shape is None else list(shape.parts)


# ---------------------------------------------------------------------------
# claim builders, one group of claims per acceptance criterion


def _claims_thm_dihed() -> Iterable[Claim]:
    for t, m in SWEEP_TM:
        order = 2 ** (t + 1) * m
        parts = [2**t] * m
        for fam in ("D", "Q"):
            spec = f"{fam}:{order}"
            yield Claim(
                "thm-dihed",
                spec,
                {"parts": parts},
                lambda s=spec: {"parts": _shape_parts(build_group(s))},
            )

        def iso(d=f"D:{order}", q=f"Q:{order}"):
            pd = _shape_parts(build_group(d))
            pq = _shape_parts(build_group(q))
            return {"isomorphic": pd is not None and pd == pq}

        yield Claim("thm-dihed", f"D:{order}", {"isomorphic": True}, iso)
    for m in SWEEP_M:
        spec = f"D:{2 * m}"
        yield Claim(
            "thm-dihed",
            spec,
            {"parts": [1] * m},
            lambda s=spec: {"parts": _shape_parts(build_group(s))},
        )


def _claims_thm_pq() -> Iterable[Claim]:
    for p, q in SWEEP_PQ:
        spec = f"F:{p}:{q}"
        yield Claim(
            "thm-pq",
            spec,
            {"parts": [p - 1] * q},
            lambda s=spec: {"parts": _shape_parts(build_group(s))},
        )


def _claims_thm_bipar() -> Iterable[Claim]:
    # The direct-product theorem's proof exhibits the partite sets H x G_i:
    # m parts of size l*n (the statement's subscript "lm.n" is a slip; the
    # same paper computes C3 x D_6 as K_{3,3,3}, which settles the reading).
    base_shape = {"D:12": (3, 2), "Q:12": (3, 2), "F:3:7": (7, 2)}
    for h in SWEEP_H:
        l = parse_group_spec(h).order()
        for gname in BIPAR_G:
            m, n = base_shape[gname]
            spec = f"P:({h})x({gname})"
            yield Claim(
                "thm-bipar",
                spec,
                {"parts": [l * n] * m},
                lambda s=spec: {"parts": _shape_parts(build_group(s))},
            )


def _left_engel_computed(spec: str, expected_members_of) -> dict:
    g = build_group(spec)
    lset = engel.left_engel_set(g)
    try:
        engel.validate_left_engel_baer(g)
        baer = True
    except ValueError:
        baer = False
    return {
        "matches": sorted(lset) == expected_members_of(g),
        "baer_valid": baer,
        "size": len(lset),
    }


def _claims_left_engel() -> Iterable[Claim]:
    def gen_subgroup(name):
        def members(g: FiniteGroup) -> list[int]:
            return sorted(subgroup_generated(g, [g.generator_index(name)]).members)

        return members

    for t, m in SWEEP_TM:
        order = 2 ** (t + 1) * m
        for fam in ("D", "Q"):
            spec = f"{fam}:{order}"
            yield Claim(
                "left-engel",
                spec,
                {"matches": True, "baer_valid": True, "size": order // 2},
                lambda s=spec: _left_engel_computed(s, gen_subgroup("y")),
            )
    for p, q in SWEEP_PQ:
        spec = f"F:{p}:{q}"
        yield Claim(
            "left-engel",
            spec,
            {"matches": True, "baer_valid": True, "size": q},
            lambda s=spec: _left_engel_computed(s, gen_subgroup("b")),
        )

    def s4_expected_members(g: FiniteGroup) -> list[int]:
        names = {"e", "(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"}
        return sorted(i for i, nm in enumerate(g.element_names) if nm in names)

    yield Claim(
        "left-engel",
        "S:4",
        {"matches": True, "baer_valid": True, "size": 4},
        lambda: _left_engel_computed("S:4", s4_expected_members),
    )


def _claims_genus_formula() -> Iterable[Claim]:
    for t, m in SWEEP_TM:
        order = 2 ** (t + 1) * m
        theorem = m * (m - 1) * (2 ** (t - 1) - 1) ** 2 // 2 + _ceil_div(
            (m - 3) * (m - 4), 12
        )
        for fam in ("D", "Q"):
            spec = f"{fam}:{order}"

            def genus_of(s=spec):
                shape = recognize_complete_multipartite(
                    engel.reduced_co_engel_graph(build_group(s))
                )
                return {
                    "genus": topology.genus_uniform_multipartite(shape.a, shape.b)
                }

            yield Claim("genus-formula-D", spec, {"genus": theorem}, genus_of)
    for m in SWEEP_M:
        spec = f"D:{2 * m}"
        theorem = _ceil_div((m - 3) * (m - 4), 12)

        def genus_dm(s=spec):
            shape = recognize_complete_multipartite(
                engel.reduced_co_engel_graph(build_group(s))
            )
            return {"genus": topology.genus_complete(shape.a)}

        yield Claim("genus-formula-D", spec, {"genus": theorem}, genus_dm)
    for p, q in SWEEP_PQ:
        spec = f"F:{p}:{q}"
        if p == 2:
            theorem = _ceil_div((q - 3) * (q - 4), 12)
        else:
            theorem = (q * (q - 1) // 2) * _ceil_div((p - 3) ** 2, 4) + _ceil_div(
                (q - 3) * (q - 4), 12
            )

        def genus_f(s=spec, p=p):
            shape = recognize_complete_multipartite(
                engel.reduced_co_engel_graph(build_group(s))
            )
            if p == 2:
                return {"genus": topology.genus_complete(shape.a)}
            return {"genus": topology.genus_uniform_multipartite(shape.a, shape.b)}

        yield Claim("genus-formula-F", spec, {"genus": theorem}, genus_f)


def _dq_classification(t: int, m: int) -> str:
    if t == 1 and m == 3:
        return topology.CLASS_PLANAR
    if t == 1 and m in (5, 7):
        return topology.CLASS_TOROIDAL
    if (t, m) in ((1, 9), (2, 3)):
        return topology.CLASS_TRIPLE
    return topology.CLASS_GENUS_5_PLUS


def _d2m_classification(m: int) -> str:
    if m == 3:
        return topology.CLASS_PLANAR
    if m in (5, 7):
        return topology.CLASS_TOROIDAL
    if m == 9:
        return topology.CLASS_TRIPLE
    return topology.CLASS_GENUS_5_PLUS


def _f_classification(p: int, q: int) -> str:
    if (p, q) == (2, 3):
        return topology.CLASS_PLANAR
    if (p, q) in ((2, 5), (2, 7), (3, 7)):
        return topology.CLASS_TOROIDAL
    return topology.CLASS_GENUS_5_PLUS


def _classification_of(spec: str) -> dict:
    sc = topology.surface_class_of_reduced(build_group(spec))
    return {"classification": sc.classification}


def _claims_genus_class() -> Iterable[Claim]:
    for t, m in SWEEP_TM:
        order = 2 ** (t + 1) * m
        expected = {"classification": _dq_classification(t, m)}
        for fam in ("D", "Q"):
            spec = f"{fam}:{order}"
            yield Claim(
                "genus-class-D", spec, expected, lambda s=spec: _classification_of(s)
            )
    for m in SWEEP_M_CLASS:
        spec = f"D:{2 * m}"
        yield Claim(
            "genus-class-D",
            spec,
            {"classification": _d2m_classification(m)},
            lambda s=spec: _classification_of(s),
        )
    for p, q in SWEEP_PQ:
        spec = f"F:{p}:{q}"
        yield Claim(
            "genus-class-F",
            spec,
            {"classification": _f_classification(p, q)},
            lambda s=spec: _classification_of(s),
        )
    for spec in ("A:4", "P:(C:3)x(D:6)"):
        yield Claim(
            "genus-class-gen",
            spec,
            {"classification": topology.CLASS_TOROIDAL, "clique_at_most_4": True},
            lambda s=spec: {
                **_classification_of(s),
                "clique_at_most_4": clique_number(
                    engel.reduced_co_engel_graph(build_group(s))
                )
                <= 4,
            },
        )


def _claims_projective() -> Iterable[Claim]:
    # the three projective groups, via the surface pipeline
    for spec in ("D:6", "D:12", "Q:12"):
        yield Claim(
            "projective",
            spec,
            {"projective": True, "planar": True},
            lambda s=spec: {
                "projective": topology.surface_class_of_reduced(build_group(s)).projective,
                "planar": topology.surface_class_of_reduced(build_group(s)).classification
                == topology.CLASS_PLANAR,
            },
        )
    # D_6 -> K_3 carries the crosscap-1 formula value
    yield Claim(
        "projective",
        "D:6",
        {"crosscap": 1},
        lambda: {"crosscap": topology.surface_class_of_reduced(build_group("D:6")).crosscap},
    )
    # the proof's obstructions
    yield Claim(
        "projective",
        "A:4",
        {"crosscap_K44": 2, "projective": False},
        lambda: {
            "crosscap_K44": topology.crosscap_complete_bipartite(4, 4),
            "projective": topology.surface_class_of_reduced(build_group("A:4")).projective,
        },
    )
    yield Claim(
        "projective",
        "P:(C:3)x(D:6)",
        {"crosscap_K63": 2, "projective": False},
        lambda: {
            "crosscap_K63": topology.crosscap_complete_bipartite(6, 3),
            "projective": topology.surface_class_of_reduced(
                build_group("P:(C:3)x(D:6)")
            ).projective,
        },
    )


def _energy_computed(spec: str) -> dict:
    g = build_group(spec)
    graph = engel.reduced_co_engel_graph(g)
    rep = spectrum_report(graph)
    shape = recognize_complete_multipartite(graph)
    cf = closed_form_spectra(shape)
    polys_match = (
        rep.adjacency_poly == cf.adjacency_poly
        and rep.laplacian_poly == cf.laplacian_poly
        and rep.signless_poly == cf.signless_poly
    )
    return {
        "spectrum": rep.adjacency_spectrum.to_json_obj()
        if rep.adjacency_spectrum
        else None,
        "laplacian_spectrum": rep.laplacian_spectrum.to_json_obj()
        if rep.laplacian_spectrum
        else None,
        "signless_spectrum": rep.signless_spectrum.to_json_obj()
        if rep.signless_spectrum
        else None,
        "E": _frac_str(rep.energy) if rep.energy is not None else None,
        "LE": _frac_str(rep.laplacian_energy)
        if rep.laplacian_energy is not None
        else None,
        "LE+": _frac_str(rep.signless_energy)
        if rep.signless_energy is not None
        else None,
        "super_integral": rep.super_integral,
        "hyperenergetic": rep.hyperenergetic,
        "hypoenergetic": rep.hypoenergetic,
        "e_le_holds": rep.e_le_holds,
        "polys_match_closed_form": polys_match,
    }


def _energy_expected(spec_rows, lap_rows, sig_rows, energy: int) -> dict:
    return {
        "spectrum": IntegerSpectrum.merged(spec_rows).to_json_obj(),
        "laplacian_spectrum": IntegerSpectrum.merged(lap_rows).to_json_obj(),
        "signless_spectrum": IntegerSpectrum.merged(sig_rows).to_json_obj(),
        "E": f"{energy}/1",
        "LE": f"{energy}/1",
        "LE+": f"{energy}/1",
        "super_integral": True,
        "hyperenergetic": False,
        "hypoenergetic": False,
        "e_le_holds": True,
        "polys_match_closed_form": True,
    }


def _claims_energy() -> Iterable[Claim]:
    for m in SWEEP_M:
        spec = f"D:{2 * m}"
        expected = _energy_expected(
            [(-1, m - 1), (m - 1, 1)],
            [(0, 1), (m, m - 1)],
            [(m - 2, m - 1), (2 * (m - 1), 1)],
            2 * (m - 1),
        )
        yield Claim("energy-d2m", spec, expected, lambda s=spec: _energy_computed(s))
    for t, m in SWEEP_TM:
        order = 2 ** (t + 1) * m
        b = 2**t
        expected = _energy_expected(
            [(0, m * (b - 1)), (-b, m - 1), (b * (m - 1), 1)],
            [(0, 1), (b * (m - 1), m * (b - 1)), (b * m, m - 1)],
            [(b * (m - 1), m * (b - 1)), (b * (m - 2), m - 1), (2 * b * (m - 1), 1)],
            2 ** (t + 1) * (m - 1),
        )
        for fam in ("D", "Q"):
            spec = f"{fam}:{order}"
            yield Claim("energy-dq", spec, expected, lambda s=spec: _energy_computed(s))
    for p, q in SWEEP_PQ:
        spec = f"F:{p}:{q}"
        expected = _energy_expected(
            [(0, q * (p - 2)), (-(p - 1), q - 1), ((p - 1) * (q - 1), 1)],
            [(0, 1), ((p - 1) * (q - 1), q * (p - 2)), (q * (p - 1), q - 1)],
            [
                ((p - 1) * (q - 1), q * (p - 2)),
                ((p - 1) * (q - 2), q - 1),
                (2 * (p - 1) * (q - 1), 1),
            ],
            2 * (p - 1) * (q - 1),
        )
        yield Claim("energy-fpq", spec, expected, lambda s=spec: _energy_computed(s))


def _zagreb_computed(spec: str) -> dict:
    zr = topology.zagreb_report(engel.reduced_co_engel_graph(build_group(spec)))
    return {
        "M1": zr.m1,
        "M2": zr.m2,
        "ratios_equal": zr.hv_lhs == zr.hv_rhs,
        "ratio": _frac_str(zr.hv_lhs),
        "hv_holds": zr.hv_holds,
    }


def _claims_zagreb() -> Iterable[Claim]:
    for t, m in SWEEP_TM:
        order = 2 ** (t + 1) * m
        expected = {
            "M1": 2 ** (3 * t) * m * (m - 1) ** 2,
            "M2": 2 ** (4 * t - 1) * m * (m - 1) ** 3,
            "ratios_equal": True,
            "ratio": f"{2 ** (2 * t) * (m - 1) ** 2}/1",
            "hv_holds": True,
        }
        for fam in ("D", "Q"):
            spec = f"{fam}:{order}"
            yield Claim("zagreb-dq", spec, expected, lambda s=spec: _zagreb_computed(s))
    for p, q in SWEEP_PQ:
        spec = f"F:{p}:{q}"
        expected = {
            "M1": q * (q - 1) ** 2 * (p - 1) ** 3,
            "M2": q * (q - 1) ** 3 * (p - 1) ** 4 // 2,
            "ratios_equal": True,
            "ratio": f"{(q - 1) ** 2 * (p - 1) ** 2}/1",
            "hv_holds": True,
        }
        yield Claim("zagreb-fpq", spec, expected, lambda s=spec: _zagreb_computed(s))


def _dihedral_proposition_holds(g: FiniteGroup) -> bool:
    """The three directed-graph bullets for D_2n, checked over all pairs:
    rotations a, b have arcs both ways; from a rotation a to a reflection b
    there is an arc, and one back iff |[b, a]| is a power of 2; between
    reflections there are arcs both ways iff |ab| is a power of 2, and
    otherwise none."""
    arc = engel.engel_relation(g).T  # arc[a, b]: a -> b, off the diagonal
    orders = element_orders(g)
    pow2 = (orders & (orders - 1)) == 0
    rot = np.arange(g.order) < g.order // 2
    off = ~np.eye(g.order, dtype=bool)
    both = arc & arc.T
    rot_ref = rot[:, None] & ~rot[None, :]
    ref_ref = ~rot[:, None] & ~rot[None, :] & off
    return bool(
        both[rot[:, None] & rot[None, :] & off].all()
        and arc[rot_ref].all()
        and (arc.T == pow2[commutator_map(g)])[rot_ref].all()  # [b, a] = c[a, b]
        and (both == pow2[g.table])[ref_ref].all()
        and (arc == arc.T)[ref_ref].all()
    )


def _claims_directed() -> Iterable[Claim]:
    for spec in ("Q:8", "C:6", "D:8"):
        yield Claim(
            "directed-single-arcs",
            spec,
            {"nilpotent": True, "complete_digraph": True, "single_arcs": 0},
            lambda s=spec: {
                "nilpotent": is_nilpotent(build_group(s)),
                "complete_digraph": engel.directed_engel_graph(
                    build_group(s)
                ).is_complete(),
                "single_arcs": len(
                    engel.single_arc_pairs(engel.directed_engel_graph(build_group(s)))
                ),
            },
        )
    soluble_specs = ["S:3", "S:4", "D:12", "Q:12"]
    soluble_specs += [f"F:{p}:{q}" for p, q in SWEEP_PQ]
    soluble_specs += [
        f"{fam}:{2 ** (t + 1) * m}" for t, m in SWEEP_TM for fam in ("D", "Q")
    ]
    for spec in soluble_specs:
        yield Claim(
            "directed-single-arcs",
            spec,
            {"soluble": True, "nilpotent": False, "has_single_arc": True},
            lambda s=spec: {
                "soluble": is_soluble(build_group(s)),
                "nilpotent": is_nilpotent(build_group(s)),
                "has_single_arc": len(
                    engel.single_arc_pairs(engel.directed_engel_graph(build_group(s)))
                )
                > 0,
            },
        )
    for t, m in SWEEP_TM:
        spec = f"D:{2 ** (t + 1) * m}"
        yield Claim(
            "directed-single-arcs",
            spec,
            {"proposition_holds": True, "single_arcs_outside_L": 0},
            lambda s=spec: {
                "proposition_holds": _dihedral_proposition_holds(build_group(s)),
                "single_arcs_outside_L": len(
                    engel.single_arcs_outside_left_engel(build_group(s))
                ),
            },
        )

    def s4_singles() -> dict:
        g = build_group("S:4")
        arcs = np.array(engel.single_arcs_outside_left_engel(g), dtype=np.intp)
        pattern = (element_orders(g)[arcs.reshape(-1, 2)] == (3, 2)).all()
        return {"nonempty": len(arcs) > 0, "order_3_to_2": bool(pattern)}

    yield Claim(
        "directed-single-arcs",
        "S:4",
        {"nonempty": True, "order_3_to_2": True},
        s4_singles,
    )


A4_BICLIQUE_H = ("(2,3,4)", "(1,2,4)", "(2,4,3)", "(1,4,2)")
A4_BICLIQUE_K = ("(1,2,3)", "(1,3,4)", "(1,3,2)", "(1,4,3)")


def _claims_a4() -> Iterable[Claim]:
    def compute() -> dict:
        g = build_group("A:4")
        graph = engel.reduced_co_engel_graph(g)
        pos = {name: i for i, name in enumerate(graph.labels)}
        left = [pos[n] for n in A4_BICLIQUE_H]
        right = [pos[n] for n in A4_BICLIQUE_K]
        return {
            "vertices": graph.n,
            "biclique_K44": verify_biclique(graph, left, right),
            "clique_at_most_4": clique_number(graph) <= 4,
            "planar": is_planar(graph),
        }

    yield Claim(
        "a4-structure",
        "A:4",
        {"vertices": 8, "biclique_K44": True, "clique_at_most_4": True, "planar": False},
        compute,
    )


def all_claims() -> list[Claim]:
    claims: list[Claim] = []
    for gen in (
        _claims_thm_dihed,
        _claims_thm_pq,
        _claims_thm_bipar,
        _claims_left_engel,
        _claims_genus_formula,
        _claims_genus_class,
        _claims_projective,
        _claims_energy,
        _claims_zagreb,
        _claims_directed,
        _claims_a4,
    ):
        claims.extend(gen())
    return claims


def run_paper_verification(
    families: Optional[Iterable[str]] = None,
    max_order: Optional[int] = None,
) -> list[VerificationRecord]:
    """Evaluate every claim; returns records sorted by (claim_id, group).

    Groups filtered out by ``families`` are omitted; groups larger than
    ``max_order`` produce explicit "skipped" records.
    """
    family_filter = set(families) if families else None
    records = []
    for claim in all_claims():
        spec = parse_group_spec(claim.group)
        if family_filter is not None and spec.family_name not in family_filter:
            continue
        if max_order is not None and spec.order() > max_order:
            records.append(
                VerificationRecord(
                    claim.claim_id,
                    claim.group,
                    claim.expected,
                    {"skipped": f"order {spec.order()} exceeds --max-order {max_order}"},
                    "skipped",
                )
            )
            continue
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
    primes = [p for p in range(2, max_order + 1) if all(p % d for d in range(2, p))]
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
        arcs = engel.single_arcs_outside_left_engel(g)
        rows.append(
            {
                "group": spec_str,
                "label": g.label,
                "order": g.order,
                "nilpotent": is_nilpotent(g),
                "single_arcs_outside_L": len(arcs),
                "empty": not arcs,
            }
        )
    return rows
