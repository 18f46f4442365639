"""Genus-index: closed-form genus/crosscap, surface classes, Zagreb indices."""

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engel_lab as el
from engel_lab.analysis import MultipartiteShape
from engel_lab.topology import (
    CLASS_GENUS_5_PLUS,
    CLASS_PLANAR,
    CLASS_TOROIDAL,
    CLASS_TRIPLE,
    CLASS_UNKNOWN,
    classification_from_genus,
    surface_class,
)

import oracles
from oracles import complete_multipartite_graph, from_edges


def _shape(spec):
    return el.recognize_complete_multipartite(el.reduced_co_engel_graph(el.build_group(spec)))


# --- genus formulas (paper-stated values)


def test_genus_complete_values():
    assert el.genus_complete(3) == 0
    assert el.genus_complete(7) == 1
    assert el.genus_complete(9) == 3
    assert el.genus_complete(11) == 5
    # extension below the formula's range: K_1, K_2 planar
    assert el.genus_complete(1) == 0 and el.genus_complete(2) == 0
    with pytest.raises(ValueError):
        el.genus_complete(0)


def test_genus_complete_bipartite_values():
    assert el.genus_complete_bipartite(4, 4) == 1
    assert el.genus_complete_bipartite(8, 8) == 9
    assert el.genus_complete_bipartite(2, 99) == 0
    with pytest.raises(ValueError):
        el.genus_complete_bipartite(1, 5)


def test_crosscap_complete_values():
    assert el.crosscap_complete(3) == 1  # floored at 1 (projective-planar)
    assert el.crosscap_complete(5) == 1
    assert el.crosscap_complete(6) == 1
    assert el.crosscap_complete(7) == 3  # the exceptional case
    assert el.crosscap_complete(8) == 4
    with pytest.raises(ValueError):
        el.crosscap_complete(2)


def test_crosscap_complete_bipartite_values():
    assert el.crosscap_complete_bipartite(4, 4) == 2
    assert el.crosscap_complete_bipartite(6, 3) == 2
    assert el.crosscap_complete_bipartite(3, 3) == 1
    assert el.crosscap_complete_bipartite(2, 9) == 1  # planar, floored
    with pytest.raises(ValueError):
        el.crosscap_complete_bipartite(1, 3)


def test_genus_k_mnn_values():
    assert el.genus_K_mnn(1, 3) == 1  # K_{3,3,3} toroidal
    assert el.genus_K_mnn(1, 1) == 0
    assert el.genus_K_mnn(5, 1) == 0
    assert el.genus_K_mnn(2, 2) == 1  # K_{4,2,2}
    with pytest.raises(ValueError):
        el.genus_K_mnn(0, 3)


def test_genus_uniform_multipartite_values():
    assert el.genus_uniform_multipartite(3, 4) == 3  # D_24 / Q_24
    assert el.genus_uniform_multipartite(3, 2) == 0  # D_12 / Q_12
    assert el.genus_uniform_multipartite(5, 2) == 1
    assert el.genus_uniform_multipartite(9, 2) == 3
    with pytest.raises(ValueError):
        el.genus_uniform_multipartite(2, 3)


def test_genus_uniform_b1_delegates_to_complete():
    for a in range(3, 12):
        assert el.genus_uniform_multipartite(a, 1) == el.genus_complete(a)


def test_genus_uniform_b2_equals_direct_evaluation():
    # at b = 2 the ceil term vanishes: formula reduces to the K_a genus
    for a in range(3, 12):
        direct = (a * (a - 1) // 2) * 0 + -(-((a - 3) * (a - 4)) // 12)
        assert el.genus_uniform_multipartite(a, 2) == direct


def test_dihedral_family_genus_expression():
    # m(m-1)(2^(t-1)-1)^2/2 + ceil((m-3)(m-4)/12) equals the K_{m.2^t} formula
    for t in (1, 2, 3):
        for m in (3, 5, 7, 9):
            expr = m * (m - 1) * (2 ** (t - 1) - 1) ** 2 // 2 + -(
                -((m - 3) * (m - 4)) // 12
            )
            assert el.genus_uniform_multipartite(m, 2**t) == expr


@pytest.mark.parametrize(
    "n",
    [
        2,
        pytest.param(
            3,
            marks=pytest.mark.xfail(
                strict=True,
                reason="published K_{a.b} genus theorem disagrees with the "
                "K_{mn,n,n} formula at three odd parts (3 vs 1 for K_{3,3,3}); "
                "the paper itself uses the latter; see decisions ledger",
            ),
        ),
        4,
        pytest.param(
            5,
            marks=pytest.mark.xfail(
                strict=True,
                reason="published K_{a.b} genus theorem disagrees with the "
                "K_{mn,n,n} formula at three odd parts (9 vs 6 for K_{5,5,5}); "
                "see decisions ledger",
            ),
        ),
        *(
            pytest.param(
                n,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="published K_{a.b} genus theorem disagrees with the "
                    f"K_{{mn,n,n}} formula ({uniform} vs {white} for K_{{{n},{n},{n}}}); "
                    "verify-paper's genus-formula-D reads the former for D:48 "
                    "and Q:48 (K_{8,8,8}), analyze the latter",
                ),
            )
            for n, uniform, white in ((6, 12, 10), (7, 21, 15), (8, 27, 21))
        ),
    ],
)
def test_k_nnn_consistency_between_formulas(n):
    assert el.genus_K_mnn(1, n) == el.genus_uniform_multipartite(3, n)


# --- classification


def test_classification_from_genus_labels():
    assert classification_from_genus(0) == CLASS_PLANAR
    assert classification_from_genus(1) == CLASS_TOROIDAL
    assert classification_from_genus(2) == "double-toroidal"
    assert classification_from_genus(3) == CLASS_TRIPLE
    assert classification_from_genus(5) == CLASS_GENUS_5_PLUS
    assert classification_from_genus(4) == CLASS_UNKNOWN  # no bucket in scope


def test_surface_class_dihedral_2m():
    expect = {3: CLASS_PLANAR, 5: CLASS_TOROIDAL, 7: CLASS_TOROIDAL, 9: CLASS_TRIPLE, 11: CLASS_GENUS_5_PLUS}
    for m, what in expect.items():
        sc = surface_class(_shape(f"D:{2 * m}"))
        assert sc.classification == what, m


def test_surface_class_dq_family():
    cases = {
        (1, 3): CLASS_PLANAR,
        (1, 5): CLASS_TOROIDAL,
        (1, 7): CLASS_TOROIDAL,
        (1, 9): CLASS_TRIPLE,
        (2, 3): CLASS_TRIPLE,
        (2, 5): CLASS_GENUS_5_PLUS,
        (3, 3): CLASS_GENUS_5_PLUS,
        (3, 9): CLASS_GENUS_5_PLUS,
    }
    for (t, m), what in cases.items():
        order = 2 ** (t + 1) * m
        for fam in ("D", "Q"):
            sc = surface_class(_shape(f"{fam}:{order}"))
            assert sc.classification == what, (fam, t, m)


def test_surface_class_frobenius_family():
    cases = {
        (2, 3): CLASS_PLANAR,
        (2, 5): CLASS_TOROIDAL,
        (2, 7): CLASS_TOROIDAL,
        (3, 7): CLASS_TOROIDAL,
        (3, 13): CLASS_GENUS_5_PLUS,
        (5, 11): CLASS_GENUS_5_PLUS,
    }
    for (p, q), what in cases.items():
        sc = surface_class(_shape(f"F:{p}:{q}"))
        assert sc.classification == what, (p, q)


def test_surface_class_a4_curated_toroidal():
    sc = surface_class(_shape("A:4"))
    assert sc.genus == 1 and sc.classification == CLASS_TOROIDAL
    assert sc.projective is False
    # independent confirmation that the curated genus is >= 1
    assert not el.is_planar(el.reduced_co_engel_graph(el.build_group("A:4")))


def test_surface_class_c3xd6_toroidal():
    sc = surface_class(_shape("P:(C:3)x(D:6)"))
    assert sc.genus == 1 and sc.classification == CLASS_TOROIDAL
    assert sc.projective is False


def test_surface_class_d14_toroidal():
    sc = surface_class(_shape("D:14"))
    assert sc.classification == CLASS_TOROIDAL
    assert sc.crosscap == 3  # K_7 exceptional crosscap


def test_no_double_toroidal_in_families():
    specs = [f"D:{2 * m}" for m in (3, 5, 7, 9, 11)]
    specs += [
        f"{fam}:{2 ** (t + 1) * m}"
        for t in (1, 2, 3)
        for m in (3, 5, 7, 9)
        for fam in ("D", "Q")
    ]
    specs += [f"F:{p}:{q}" for p, q in ((2, 3), (2, 5), (2, 7), (3, 7), (3, 13), (5, 11))]
    for spec in specs:
        sc = surface_class(_shape(spec))
        assert sc.classification != "double-toroidal", spec


def test_projective_classification():
    assert surface_class(_shape("D:6")).projective is True
    assert surface_class(_shape("D:12")).projective is True
    assert surface_class(_shape("Q:12")).projective is True
    assert surface_class(_shape("A:4")).projective is False
    assert surface_class(_shape("P:(C:3)x(D:6)")).projective is False


def test_surface_class_unknown_for_unrecognized():
    sc = surface_class(_shape("S:4"))
    assert sc.classification == CLASS_UNKNOWN and sc.genus is None


def test_surface_from_shape_matches_golden_on_every_small_partition():
    # Every branch: K_n (K_1 and K_2 included), the star K_{m,1}, K_{m,n},
    # K_{mn,n,n} (uniform or not, the octahedron), K_{4.2}, other uniform
    # shapes and the unknown rest.  One-part shapes with a part of size >= 2
    # are edgeless graphs on which the rule raises; no group in scope has one.
    golden = json.loads((Path(__file__).parent / "data" / "surface_shapes.json").read_text())
    shapes = [p for p in oracles.part_multisets(12) if len(p) > 1 or p == (1,)]
    assert [tuple(row["parts"]) for row in golden] == shapes
    for row in golden:
        sc = surface_class(MultipartiteShape(tuple(row["parts"])))
        got = [sc.genus, sc.crosscap, sc.classification, sc.projective]
        assert got == [row[k] for k in ("genus", "crosscap", "classification", "projective")], row


def test_planar_implies_genus_zero_on_family_sweep():
    # lower-bound sanity: nonplanar recognized graph => formula genus >= 1
    specs = [f"D:{2 * m}" for m in (3, 5, 7, 9)]
    specs += [
        f"{fam}:{2 ** (t + 1) * m}"
        for t in (1, 2)
        for m in (3, 5)
        for fam in ("D", "Q")
    ]
    specs += ["F:2:5", "F:3:7", "P:(C:3)x(D:6)"]
    for spec in specs:
        graph = el.reduced_co_engel_graph(el.build_group(spec))
        sc = surface_class(_shape(spec))
        if not el.is_planar(graph):
            assert sc.genus >= 1, spec
        else:
            assert sc.genus == 0, spec


# --- Zagreb indices


def test_zagreb_k32_frozen():
    graph = complete_multipartite_graph([2, 2, 2])
    zr = el.zagreb_report(graph)
    assert (zr.m1, zr.m2) == (96, 192)
    assert el.zagreb_closed_form(3, 2) == (96, 192)
    # cross-check by degree sums
    assert oracles.brute_zagreb(graph.n, graph.edges()) == (96, 192)


@given(st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))))
@settings(max_examples=80, deadline=None)
def test_zagreb_matches_brute_force_on_random_graphs(drawn):
    n, pairs = drawn
    edges = {(min(i, j), max(i, j)) for i, j in pairs if i != j}
    zr = el.zagreb_report(from_edges(n, edges))
    assert (zr.m1, zr.m2, zr.e_count) == (*oracles.brute_zagreb(n, edges), len(edges))
    assert type(zr.m1) is int and type(zr.m2) is int


def test_zagreb_closed_form_trivial():
    assert el.zagreb_closed_form(1, 5) == (0, 0)


def test_zagreb_edgeless():
    zr = el.zagreb_report(from_edges(4, []))
    assert zr.m1 == 0 and zr.m2 == 0
    assert zr.hv_lhs is None and zr.hv_holds is None


def test_zagreb_dq_family_expressions():
    for t in (1, 2, 3):
        for m in (3, 5, 7, 9):
            graph = el.reduced_co_engel_graph(el.build_group(f"D:{2 ** (t + 1) * m}"))
            zr = el.zagreb_report(graph)
            assert zr.m1 == 2 ** (3 * t) * m * (m - 1) ** 2
            assert zr.m2 == 2 ** (4 * t - 1) * m * (m - 1) ** 3
            assert zr.hv_lhs == zr.hv_rhs == 2 ** (2 * t) * (m - 1) ** 2
            assert zr.hv_holds is True


def test_zagreb_fpq_family_expressions():
    for p, q in ((2, 3), (2, 7), (3, 7), (5, 11)):
        graph = el.reduced_co_engel_graph(el.build_group(f"F:{p}:{q}"))
        zr = el.zagreb_report(graph)
        assert zr.m1 == q * (q - 1) ** 2 * (p - 1) ** 3
        assert zr.m2 == q * (q - 1) ** 3 * (p - 1) ** 4 // 2
        assert zr.hv_lhs == zr.hv_rhs == (q - 1) ** 2 * (p - 1) ** 2


def test_zagreb_closed_form_matches_reports():
    for a, b in [(3, 2), (3, 4), (7, 2), (5, 4)]:
        graph = complete_multipartite_graph([b] * a)
        zr = el.zagreb_report(graph)
        assert (zr.m1, zr.m2) == el.zagreb_closed_form(a, b)


def test_hansen_vukicevic_equality_on_regular_graphs():
    # on K_n both ratios equal (n-1)^2
    for n in (3, 5, 8):
        zr = el.zagreb_report(complete_multipartite_graph([1] * n))
        assert zr.hv_lhs == zr.hv_rhs == (n - 1) ** 2


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_zagreb_matches_brute_force(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [p for p in pairs if data.draw(st.booleans())]
    graph = from_edges(n, edges)
    zr = el.zagreb_report(graph)
    assert (zr.m1, zr.m2) == oracles.brute_zagreb(n, edges)
