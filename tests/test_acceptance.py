"""Acceptance suite: one test per acceptance criterion, exact comparisons only.

Each test prints a single ``[PASS]/[FAIL] criterion N`` line (visible with
``pytest -s`` or in captured output).  Sweeps: t in {1,2,3}, m in {3,5,7,9},
(p,q) in {(2,3),(2,5),(2,7),(3,7),(3,13),(5,11)}, H in {C2,C3,C4,Q8}.
"""

import functools
import random
from fractions import Fraction

import networkx as nx
import numpy as np

import engel_lab as el
from engel_lab.analysis import MultipartiteShape
from engel_lab.engel import validate_left_engel_baer
from engel_lab.topology import (
    CLASS_GENUS_5_PLUS,
    CLASS_PLANAR,
    CLASS_TOROIDAL,
    CLASS_TRIPLE,
    surface_class,
)

from oracles import (
    complete_multipartite_graph,
    engel_verdict,
    graphs_isomorphic_small,
    validate_group,
)

SWEEP_TM = [(t, m) for t in (1, 2, 3) for m in (3, 5, 7, 9)]
SWEEP_M = (3, 5, 7, 9)
SWEEP_PQ = ((2, 3), (2, 5), (2, 7), (3, 7), (3, 13), (5, 11))
SWEEP_H = ("C:2", "C:3", "C:4", "Q:8")


def criterion(num, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"[FAIL] criterion {num}: {title}")
                raise
            print(f"[PASS] criterion {num}: {title}")

        return wrapper

    return decorate


def _reduced(spec):
    return el.reduced_co_engel_graph(el.build_group(spec))


def _shape(spec):
    return el.recognize_complete_multipartite(_reduced(spec))


def _ceil_div(a, b):
    return -(-a // b)


@criterion(1, "realization of dihedral/quaternion reduced graphs (Thm dihed)")
def test_criterion_01_realization_dihedral():
    for t, m in SWEEP_TM:
        order = 2 ** (t + 1) * m
        want = (2**t,) * m
        shape_d = _shape(f"D:{order}")
        shape_q = _shape(f"Q:{order}")
        assert shape_d is not None and shape_d.parts == want, (t, m)
        assert shape_q is not None and shape_q.parts == want, (t, m)
        assert graphs_isomorphic_small(_reduced(f"D:{order}"), _reduced(f"Q:{order}"))
    for m in SWEEP_M:
        shape = _shape(f"D:{2 * m}")
        assert shape.parts == (1,) * m  # K_m


@criterion(2, "realization of Frobenius reduced graphs (Thm pq)")
def test_criterion_02_realization_frobenius():
    for p, q in SWEEP_PQ:
        shape = _shape(f"F:{p}:{q}")
        assert shape is not None and shape.parts == (p - 1,) * q, (p, q)


@criterion(3, "direct products realize complete multipartite graphs (Thm bipar)")
def test_criterion_03_direct_products():
    # The theorem's proof exhibits partite sets H x G_1, ..., H x G_m, i.e.
    # m parts of size l*n (its statement's "K_{lm.n}" subscript is a slip:
    # the same paper computes coeng(C3 x D6) = K_{3,3,3}, and criterion 5's
    # toroidality of C3 x D6 requires this reading; see decisions ledger).
    base_shape = {"D:12": (3, 2), "Q:12": (3, 2), "F:3:7": (7, 2)}
    for h_spec in SWEEP_H:
        l = el.parse_group_spec(h_spec).order()
        for g_spec, (m, n) in base_shape.items():
            shape = _shape(f"P:({h_spec})x({g_spec})")
            assert shape is not None and shape.parts == (l * n,) * m, (h_spec, g_spec)
    # H trivial sanity: the statement and proof agree there
    assert _shape("P:(C:1)x(D:12)").parts == (2, 2, 2)


@criterion(4, "left Engel sets with Baer (Fitting) validation")
def test_criterion_04_left_engel_sets():
    for t, m in SWEEP_TM:
        order = 2 ** (t + 1) * m
        for fam in ("D", "Q"):
            g = el.build_group(f"{fam}:{order}")
            lset = set(el.left_engel_set(g))
            rotations = set(
                np.flatnonzero(el.subgroup_generated(g, [g.generator_index("y")])).tolist()
            )
            assert lset == rotations and len(lset) == order // 2, (fam, t, m)
            validate_left_engel_baer(g)
    for p, q in SWEEP_PQ:
        g = el.build_group(f"F:{p}:{q}")
        lset = set(el.left_engel_set(g))
        b_part = set(np.flatnonzero(el.subgroup_generated(g, [g.generator_index("b")])).tolist())
        assert lset == b_part and len(lset) == q, (p, q)
        validate_left_engel_baer(g)
    g = el.build_group("S:4")
    names = {g.element_names[i] for i in el.left_engel_set(g)}
    assert names == {"e", "(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"}
    validate_left_engel_baer(g)


@criterion(5, "genus formulas and surface classification tables")
def test_criterion_05_genus():
    # formula evaluation matches the theorem expressions
    for t, m in SWEEP_TM:
        theorem = m * (m - 1) * (2 ** (t - 1) - 1) ** 2 // 2 + _ceil_div(
            (m - 3) * (m - 4), 12
        )
        assert el.genus_uniform_multipartite(m, 2**t) == theorem, (t, m)
    for m in SWEEP_M:
        assert el.genus_complete(m) == _ceil_div((m - 3) * (m - 4), 12)
    for p, q in SWEEP_PQ:
        if p == 2:
            theorem = _ceil_div((q - 3) * (q - 4), 12)
            assert el.genus_complete(q) == theorem, (p, q)
        else:
            theorem = (q * (q - 1) // 2) * _ceil_div((p - 3) ** 2, 4) + _ceil_div(
                (q - 3) * (q - 4), 12
            )
            assert el.genus_uniform_multipartite(q, p - 1) == theorem, (p, q)

    # classification tables, exactly as in the families section
    classifications = {}
    for m in (3, 5, 7, 9, 11):
        classifications[f"D:{2 * m}"] = surface_class(_shape(f"D:{2 * m}")).classification
    for t, m in SWEEP_TM:
        order = 2 ** (t + 1) * m
        for fam in ("D", "Q"):
            spec = f"{fam}:{order}"
            classifications[spec] = surface_class(_shape(spec)).classification
    for p, q in SWEEP_PQ:
        classifications[f"F:{p}:{q}"] = surface_class(_shape(f"F:{p}:{q}")).classification
    for spec in ("A:4", "P:(C:3)x(D:6)"):
        classifications[spec] = surface_class(_shape(spec)).classification

    planar = {s for s, c in classifications.items() if c == CLASS_PLANAR}
    toroidal = {s for s, c in classifications.items() if c == CLASS_TOROIDAL}
    double = {s for s, c in classifications.items() if c == "double-toroidal"}
    triple = {s for s, c in classifications.items() if c == CLASS_TRIPLE}
    other = {
        s
        for s, c in classifications.items()
        if c not in (CLASS_PLANAR, CLASS_TOROIDAL, CLASS_TRIPLE)
    }
    # F:2:3 is isomorphic to D_6, so "planar iff D6, D12, Q12" holds up to iso
    assert planar == {"D:6", "D:12", "Q:12", "F:2:3"}
    assert toroidal == {
        "D:10", "D:14",
        "D:20", "Q:20", "D:28", "Q:28",
        "F:2:5", "F:2:7", "F:3:7",
        "A:4", "P:(C:3)x(D:6)",
    }
    assert double == set()
    assert triple == {"D:18", "D:24", "Q:24", "D:36", "Q:36"}
    assert all(c == CLASS_GENUS_5_PLUS for s, c in classifications.items() if s in other)


@criterion(6, "projective classification and crosscap obstructions")
def test_criterion_06_projective():
    assert el.crosscap_complete(3) == 1  # K_3 projective
    assert surface_class(_shape("D:6")).projective is True
    assert surface_class(_shape("D:12")).projective is True
    assert surface_class(_shape("Q:12")).projective is True
    # the proof's obstructions
    assert el.crosscap_complete_bipartite(4, 4) == 2
    assert el.crosscap_complete_bipartite(6, 3) == 2
    assert surface_class(_shape("A:4")).projective is False
    assert surface_class(_shape("P:(C:3)x(D:6)")).projective is False


@criterion(7, "spectra and energies match closed forms; super-integrality")
def test_criterion_07_spectra():
    cases = []
    for m in SWEEP_M:
        cases.append((f"D:{2 * m}", MultipartiteShape.uniform(m, 1), 2 * (m - 1)))
    for t, m in SWEEP_TM:
        order = 2 ** (t + 1) * m
        shape = MultipartiteShape.uniform(m, 2**t)
        energy = 2 ** (t + 1) * (m - 1)
        cases.append((f"D:{order}", shape, energy))
        cases.append((f"Q:{order}", shape, energy))
    for p, q in SWEEP_PQ:
        cases.append(
            (f"F:{p}:{q}", MultipartiteShape.uniform(q, p - 1), 2 * (p - 1) * (q - 1))
        )
    for spec, shape, energy in cases:
        graph = _reduced(spec)
        got_shape = el.recognize_complete_multipartite(graph)
        assert got_shape == shape, spec
        computed = el.spectrum_report(graph)
        closed = el.closed_form_spectra(shape)
        assert computed.adjacency_poly == closed.adjacency_poly, spec
        assert computed.laplacian_poly == closed.laplacian_poly, spec
        assert computed.signless_poly == closed.signless_poly, spec
        assert computed.adjacency_spectrum == closed.adjacency_spectrum, spec
        assert computed.laplacian_spectrum == closed.laplacian_spectrum, spec
        assert computed.signless_spectrum == closed.signless_spectrum, spec
        assert (
            computed.energy
            == computed.laplacian_energy
            == computed.signless_energy
            == Fraction(energy)
        ), spec
        assert computed.super_integral is True, spec
        assert computed.hyperenergetic is False, spec
        assert computed.hypoenergetic is False, spec
        assert computed.e_le_holds is True, spec


@criterion(8, "Zagreb indices and Hansen-Vukicevic equality")
def test_criterion_08_zagreb():
    for t, m in SWEEP_TM:
        order = 2 ** (t + 1) * m
        for fam in ("D", "Q"):
            zr = el.zagreb_report(_reduced(f"{fam}:{order}"))
            assert zr.m1 == 2 ** (3 * t) * m * (m - 1) ** 2, (fam, t, m)
            assert zr.m2 == 2 ** (4 * t - 1) * m * (m - 1) ** 3, (fam, t, m)
            ratio = Fraction(2 ** (2 * t) * (m - 1) ** 2)
            assert zr.hv_lhs == zr.hv_rhs == ratio, (fam, t, m)
            assert zr.hv_holds is True
    for p, q in SWEEP_PQ:
        zr = el.zagreb_report(_reduced(f"F:{p}:{q}"))
        assert zr.m1 == q * (q - 1) ** 2 * (p - 1) ** 3, (p, q)
        assert zr.m2 == q * (q - 1) ** 3 * (p - 1) ** 4 // 2, (p, q)
        assert zr.hv_lhs == zr.hv_rhs == Fraction((q - 1) ** 2 * (p - 1) ** 2), (p, q)


@criterion(9, "directed Engel graphs: nilpotent/complete, single arcs, proposition")
def test_criterion_09_directed():
    for spec in ("Q:8", "C:6", "D:8"):
        g = el.build_group(spec)
        assert el.is_nilpotent(g)
        assert el.directed_engel_graph(g).is_complete(), spec
        assert el.single_arc_pairs(el.directed_engel_graph(g)) == []
    soluble = ["S:3", "S:4", "D:12", "Q:12"]
    soluble += [f"F:{p}:{q}" for p, q in SWEEP_PQ]
    soluble += [f"{fam}:{2 ** (t + 1) * m}" for t, m in SWEEP_TM for fam in ("D", "Q")]
    for spec in soluble:
        g = el.build_group(spec)
        assert el.is_soluble(g) and not el.is_nilpotent(g), spec
        assert el.single_arc_pairs(el.directed_engel_graph(g)), spec
    # the dihedral proposition, exhaustively over element pairs
    for t, m in SWEEP_TM:
        g = el.build_group(f"D:{2 ** (t + 1) * m}")
        n = g.order // 2
        d = el.directed_engel_graph(g)
        for a in range(g.order):
            for b in range(a + 1, g.order):
                fwd, bwd = bool(d.adj[a, b]), bool(d.adj[b, a])
                if a < n and b < n:
                    assert fwd and bwd, (t, m, a, b)
                elif a < n <= b:
                    assert fwd, (t, m, a, b)
                    order = g.element_order(g.commutator(b, a))
                    assert bwd == (order & (order - 1) == 0), (t, m, a, b)
                else:
                    order = g.element_order(g.mul(a, b))
                    if order & (order - 1) == 0:
                        assert fwd and bwd, (t, m, a, b)
                    else:
                        assert not fwd and not bwd, (t, m, a, b)
        assert el.single_arcs_outside_left_engel(g) == []
    arcs = el.single_arcs_outside_left_engel(el.build_group("S:4"))
    assert arcs
    g = el.build_group("S:4")
    assert all(
        g.element_order(x) == 3 and g.element_order(y) == 2 for x, y in arcs
    )


@criterion(10, "A_4 reduced graph structure (Thm gen proof)")
def test_criterion_10_a4():
    graph = _reduced("A:4")
    assert graph.n == 8
    pos = {name: i for i, name in enumerate(graph.labels)}
    left = [pos[n] for n in ("(2,3,4)", "(1,2,4)", "(2,4,3)", "(1,4,2)")]
    right = [pos[n] for n in ("(1,2,3)", "(1,3,4)", "(1,3,2)", "(1,4,3)")]
    assert el.verify_biclique(graph, left, right)
    assert el.clique_number(graph) <= 4
    assert el.is_planar(graph) is False


@criterion(11, "property suites: axioms, monotonicity, Lemma ad, traces, round-trip")
def test_criterion_11_property_suites():
    rng = random.Random(11)
    # group axioms on randomized and deterministic desk-scale instances
    specs = ["D:24", "Q:24", "F:3:7", "S:4", "A:4", "P:(C:3)x(D:6)"]
    specs += [f"D:{2 * rng.randrange(3, 30)}" for _ in range(3)]
    specs += [f"C:{rng.randrange(1, 40)}" for _ in range(3)]
    for spec in specs:
        validate_group(el.build_group(spec))
    # Engel-sequence monotonicity: [x,_n y] = 1 implies [x,_m y] = 1 beyond
    for spec in ("D:24", "Q:24", "F:3:7", "S:4"):
        g = el.build_group(spec)
        for _ in range(60):
            x = rng.randrange(g.order)
            y = rng.randrange(g.order)
            v = engel_verdict(g, x, y)
            if v.terminates:
                a = g.commutator(x, y)
                for _ in range(v.first_k - 1):
                    a = g.commutator(a, y)
                assert a == g.identity
                for _ in range(g.order + 4):
                    a = g.commutator(a, y)
                    assert a == g.identity
    # Lemma ad: hypercenter translation preserves adjacency (C3 x D6)
    g = el.build_group("P:(C:3)x(D:6)")
    graph = el.reduced_co_engel_graph(g)
    kept = el.non_engel_elements(g)
    pos = {e: i for i, e in enumerate(kept)}
    z_members = np.flatnonzero(el.hypercenter(g)).tolist()
    for i, j in graph.edges():
        for z1 in z_members:
            for z2 in z_members:
                xz = g.mul(kept[i], z1)
                yz = g.mul(kept[j], z2)
                assert xz != yz and bool(graph.adj[pos[xz], pos[yz]])
    # spectral trace identities
    for spec in ("D:24", "F:3:7", "P:(C:2)x(D:6)"):
        graph = _reduced(spec)
        rep = el.spectrum_report(graph)
        assert sum(v * m for v, m in rep.adjacency_spectrum.roots) == 0
        assert (
            sum(v * m for v, m in rep.laplacian_spectrum.roots) == 2 * graph.n_edges()
        )
        components = nx.number_connected_components(nx.from_numpy_array(graph.adj))
        assert dict(rep.laplacian_spectrum.roots).get(0, 0) == components
    # multipartite round-trip, exhaustive over small shapes plus random ones
    shapes = [list(s) for s in [(1, 1, 1), (2, 2), (3, 1), (2, 2, 2, 2), (4, 4, 4)]]
    shapes += [
        sorted((rng.randrange(1, 5) for _ in range(rng.randrange(1, 5))), reverse=True)
        for _ in range(10)
    ]
    for parts in shapes:
        graph = complete_multipartite_graph(parts)
        shape = el.recognize_complete_multipartite(graph)
        assert shape is not None and list(shape.parts) == sorted(parts, reverse=True)
