"""Engel-core: verdicts, left Engel sets, co-Engel and directed graphs."""

import io
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engel_lab as el
import engel_lab.cli
from engel_lab import engel
from engel_lab.groups import element_orders
from engel_lab.engel import engel_relation, validate_left_engel_baer
from engel_lab.graphs import pair_list
from engel_lab.verify import _soluble_catalog

import oracles
from oracles import EngelVerdict, engel_verdict, name_index

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import groupmodel  # noqa: E402
import workloads  # noqa: E402


def _verdict(spec, xname, yname):
    g = el.build_group(spec)
    return engel_verdict(g, name_index(g, xname), name_index(g, yname))


# --- engel_verdict


def test_verdict_self_terminates_at_one():
    g = el.build_group("D:24")
    for x in (0, 5, 13, 20):
        v = engel_verdict(g, x, x)
        assert v.terminates and v.first_k == 1


def test_verdict_d24_congruent_reflections():
    # x*y^i vs x*y^j with i = j mod 3 terminate (oracle-frozen minimal k)
    assert _verdict("D:24", "x", "x*y^3") == EngelVerdict(True, first_k=2)
    assert _verdict("D:24", "x", "x*y^6") == EngelVerdict(True, first_k=1)
    assert _verdict("D:24", "x", "x*y^9") == EngelVerdict(True, first_k=2)
    assert _verdict("D:24", "x*y^3", "x*y^6") == EngelVerdict(True, first_k=2)


def test_verdict_d24_incongruent_reflections_cycle():
    # i != j mod 3: never terminates; the tail is a fixed point (oracle-frozen)
    assert _verdict("D:24", "x", "x*y") == EngelVerdict(False, cycle_length=1)
    assert _verdict("D:24", "x", "x*y^2") == EngelVerdict(False, cycle_length=1)
    assert _verdict("D:24", "x*y", "x*y^5") == EngelVerdict(False, cycle_length=1)


def test_verdict_matches_oracle_exhaustive_d24():
    g = el.build_group("D:24")
    model = oracles.model_dihedral(24)
    for a in range(24):
        for b in range(24):
            pa = (a // 12, a % 12)
            pb = (b // 12, b % 12)
            want = model.engel_terminates(pa, pb)
            got = engel_verdict(g, a, b)
            assert got.terminates == (want is not None)
            if want is not None:
                assert got.first_k == want


def test_verdict_non_terminating_truly_never_hits_identity():
    # assert over one full cycle past the tail
    g = el.build_group("D:24")
    x, y = name_index(g, "x"), name_index(g, "x*y")
    v = engel_verdict(g, x, y)
    assert not v.terminates
    a = g.commutator(x, y)
    for _ in range(g.order + v.cycle_length):
        assert a != g.identity
        a = g.commutator(a, y)


def test_verdict_monotone_once_terminated():
    # Once [x,_n y] = 1, every later iterate stays 1
    g = el.build_group("Q:24")
    for x in range(0, g.order, 5):
        for y in range(0, g.order, 7):
            v = engel_verdict(g, x, y)
            if v.terminates:
                a = g.commutator(x, y)
                for _ in range(v.first_k - 1):
                    a = g.commutator(a, y)
                assert a == g.identity
                for _ in range(g.order):
                    a = g.commutator(a, y)
                    assert a == g.identity


def test_verdict_requires_exactly_one_field():
    with pytest.raises(ValueError):
        EngelVerdict(True, first_k=1, cycle_length=2)
    with pytest.raises(ValueError):
        EngelVerdict(False)


# --- the Engel relation against the per-pair verdict


def _assert_relation_matches_verdicts(spec):
    g = el.build_group(spec)
    rel = engel_relation(g)
    assert rel.shape == (g.order, g.order) and rel.dtype == bool
    for x in range(g.order):
        for y in range(g.order):
            assert bool(rel[x, y]) == engel_verdict(g, x, y).terminates, (spec, x, y)
    # the same matrix when the rows are computed three at a time
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(el.groups, "_BLOCK_ENTRIES", 3 * g.order)
        assert np.array_equal(engel_relation.__wrapped__(g), rel)


@pytest.mark.parametrize(
    "spec", ["C:1", "C:2", "S:4", "A:5", "D:64", "Q:32", "F:5:11", "P:(C:2)x(D:12)"]
)
def test_engel_relation_matches_verdict_every_pair(spec):
    _assert_relation_matches_verdicts(spec)


@given(spec=st.sampled_from(_soluble_catalog(48)))
@settings(max_examples=25, deadline=None)
def test_engel_relation_matches_verdict_soluble_catalog(spec):
    _assert_relation_matches_verdicts(spec)


DEEP_RELATION_SPECS = ["S:4", "A:5", "S:5", "D:128", "Q:64"]
# D:254 and C:255 have uint8 tables; D:256 and Q:256 have the first uint16
# ones, whose n * n no longer fits the dtype; D:384 and S:6 are the largest
# groups the graph exports build
NARROW_DTYPE_SPECS = ["D:254", "C:255", "D:256", "Q:256", "D:384", "S:6"]


@pytest.mark.parametrize(
    "spec", [*_soluble_catalog(48), *DEEP_RELATION_SPECS, *NARROW_DTYPE_SPECS]
)
def test_engel_relation_matches_the_fixed_round_doubling(spec):
    # stopping a block early must give the relation all rounds give, also
    # when every block is three rows; each squaring takes at f + r*n, which
    # must not wrap in the table's dtype
    g = el.build_group(spec)
    want = oracles.engel_relation_fixed_rounds(g)
    assert np.array_equal(engel_relation(g), want)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(el.groups, "_BLOCK_ENTRIES", 3 * g.order)
        assert np.array_equal(engel_relation.__wrapped__(g), want)


@pytest.mark.parametrize("spec, squarings", [("C:64", 0), ("D:128", 3), ("S:5", 2)])
def test_engel_relation_stops_once_a_round_adds_nothing(spec, squarings, monkeypatch):
    # abelian rows are final at once; D_128 (Engel depth 7) needs 3 rounds
    # where the bound allows 7, and S_5 stops after 2 of its 7
    g = el.build_group(spec)
    calls, square = [], engel._square_rows

    def counted(*args, **kwargs):
        calls.append(1)
        return square(*args, **kwargs)

    monkeypatch.setattr(engel, "_square_rows", counted)
    engel_relation.__wrapped__(g)
    assert len(calls) == squarings


# --- left Engel sets


def test_left_engel_dihedral_quaternion_is_rotation_subgroup():
    for spec, half in (("D:24", 12), ("Q:24", 12), ("D:12", 6), ("Q:12", 6)):
        g = el.build_group(spec)
        lset = el.left_engel_set(g)
        y = g.element_names.index("y")
        rotations = set(np.flatnonzero(el.subgroup_generated(g, [y])).tolist())
        assert set(lset) == rotations and len(lset) == half


def test_left_engel_s4_fitting():
    g = el.build_group("S:4")
    names = {g.element_names[i] for i in el.left_engel_set(g)}
    assert names == {"e", "(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"}


def test_left_engel_of_engel_group_is_everything():
    for spec in ("Q:8", "C:12", "D:8"):
        g = el.build_group(spec)
        assert len(el.left_engel_set(g)) == g.order


def test_left_engel_frobenius_is_cyclic_part():
    for spec, q in (("F:2:3", 3), ("F:3:7", 7), ("F:5:11", 11)):
        g = el.build_group(spec)
        lset = el.left_engel_set(g)
        b_subgroup = el.subgroup_generated(g, [g.element_names.index("b")])
        b_subgroup = set(np.flatnonzero(b_subgroup).tolist())
        assert set(lset) == b_subgroup and len(lset) == q


BAER_SWEEP = [
    "D:6", "D:12", "D:24", "D:48", "D:72",
    "Q:12", "Q:24", "Q:48",
    "F:2:3", "F:2:5", "F:2:7", "F:3:7", "F:3:13", "F:5:11",
    "S:3", "S:4", "A:4",
    "P:(C:3)x(D:6)", "P:(C:2)x(D:6)", "P:(C:2)x(D:12)",
    "P:(C:4)x(Q:12)", "P:(Q:8)x(F:3:7)", "P:(C:4)x(F:3:7)",
]


@pytest.mark.parametrize("spec", BAER_SWEEP)
def test_left_engel_baer_validation(spec):
    g = el.build_group(spec)
    assert el.is_soluble(g) and g.order <= 300
    sub = validate_left_engel_baer(g)
    assert set(np.flatnonzero(sub).tolist()) == set(el.left_engel_set(g))


def _first_power_in_by_definition(g, x, inside):
    """The least k >= 1 with x^k in the member set ``inside``."""
    power, k = x, 1
    while power not in inside:
        power, k = g.mul(power, x), k + 1
    return k


def _baer_witness_by_definition(g, members):
    """The closure walk written out: ascending, the first x outside L whose
    normal closure <L, x^G> is normal and nilpotent (a proper subgroup
    unless G is nilpotent), taken on its re-tabled copy, by name; None if
    there is none."""
    inside, g_nilpotent = set(members), el.is_nilpotent(g)
    for x in range(g.order):
        if x in inside:
            continue
        conjugates = {g.mul(g.mul(g.inv(a), x), a) for a in range(g.order)}
        closure = el.subgroup_generated(g, [*members, *conjugates])
        if closure.all() and not g_nilpotent:
            continue
        if el.is_normal(g, closure) and el.is_nilpotent(oracles.subgroup_as_group(g, closure)):
            return g.element_names[x]
    return None


def _members(mask):
    return tuple(np.flatnonzero(mask).tolist())


def _mask(g, members):
    return np.isin(np.arange(g.order), members)


def _cyclic_subgroups(g):
    return {_members(el.subgroup_generated(g, [x])) for x in range(g.order)}


def _baer_candidates(g):
    """Every term of the upper central series and every normal cyclic
    subgroup, as ascending member tuples."""
    candidates = {_members(z) for z in el.upper_central_series(g)}
    candidates |= {m for m in _cyclic_subgroups(g) if el.is_normal(g, _mask(g, m))}
    return sorted(candidates)


SMALLER_CANDIDATE_SPECS = [
    "D:12", "D:16", "D:24", "Q:16", "Q:24", "C:12", "S:4", "A:4", "F:3:7",
    "P:(C:2)x(D:12)", "P:(C:3)x(S:3)",
]


@pytest.mark.parametrize("spec", SMALLER_CANDIDATE_SPECS)
def test_baer_walk_matches_definition_on_smaller_candidates(spec, monkeypatch):
    # Stand in for L(G) every term of the upper central series and every
    # normal cyclic subgroup: the walk must name the witness the definition
    # names.
    g = el.build_group(spec)
    for members in _baer_candidates(g):
        want = _baer_witness_by_definition(g, members)
        monkeypatch.setattr(engel, "left_engel_set", lambda h, m=members: frozenset(m))
        if want is None:
            assert _members(validate_left_engel_baer(g)) == members
        else:
            match = re.escape(f"the normal closure of <L, {want}> is nilpotent")
            with pytest.raises(ValueError, match=match):
                validate_left_engel_baer(g)


@pytest.mark.parametrize("spec", sorted({*SMALLER_CANDIDATE_SPECS, *_soluble_catalog(48), "A:5"}))
def test_element_orders_match_the_per_element_loop(spec):
    g = el.build_group(spec)
    want = [_first_power_in_by_definition(g, x, {g.identity}) for x in range(g.order)]
    assert element_orders(g).tolist() == want


@pytest.mark.parametrize("spec", sorted({*SMALLER_CANDIDATE_SPECS, *_soluble_catalog(48)}))
def test_within_masks_match_the_retabled_subgroup(spec):
    # the upper central series and nilpotency of every Baer candidate and
    # every cyclic subgroup, taken on the parent's commutator map, against
    # the same subgroup re-tabled as a group of its own
    g = el.build_group(spec)
    for members in {*_baer_candidates(g), *_cyclic_subgroups(g)}:
        sub = _mask(g, members)
        h = oracles.subgroup_as_group(g, sub)
        want = [_mask(g, np.array(members)[z]) for z in el.upper_central_series(h)]
        got = el.upper_central_series(g, sub)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), (spec, members)
        assert np.array_equal(el.hypercenter(g, sub), want[-1])
        assert el.is_nilpotent(g, sub) is el.is_nilpotent(h)


@pytest.mark.parametrize("spec, names", [
    ("D:12", ["e", "y"]),
    ("S:4", ["e", "(1,2)", "(3,4)"]),  # misses (1,2)(3,4)
    ("S:4", ["e", "(1,2,3)", "(1,3,2)", "(1,2)"]),  # S_3 less two transpositions
])
def test_baer_walk_refuses_a_planted_l_that_is_not_closed(spec, names, monkeypatch):
    # a set holding e but not closed under products is no subgroup
    g = el.build_group(spec)
    planted = frozenset(name_index(g, name) for name in names)
    monkeypatch.setattr(engel, "left_engel_set", lambda h: planted)
    with pytest.raises(ValueError, match=re.escape(f"L({g.label}) is not a subgroup")):
        validate_left_engel_baer(g)


@pytest.mark.parametrize("spec", ["S:4", "A:4"])
def test_baer_walk_refuses_trivial_l_below_a_non_cyclic_fitting_subgroup(spec, monkeypatch):
    # F(S_4) = F(A_4) = V_4 is not cyclic over 1, so no <1, x> is normal
    # and nilpotent; the closure of a double transposition is V_4 itself.
    g = el.build_group(spec)
    monkeypatch.setattr(engel, "left_engel_set", lambda h: frozenset({g.identity}))
    with pytest.raises(ValueError, match="is not maximal"):
        validate_left_engel_baer(g)


@pytest.mark.parametrize(
    "spec", list(dict.fromkeys([*_soluble_catalog(48), "A:5", "S:5", *workloads.census_specs()]))
)
def test_baer_walk_accepts_l_of_fitting_order(spec):
    # every census group, so the walk over every class outside L runs on
    # S:5, A:6 and S:6 too
    g = el.build_group(spec)
    sub = validate_left_engel_baer(g)
    assert _members(sub) == tuple(sorted(el.left_engel_set(g)))
    assert np.count_nonzero(sub) == groupmodel.fitting_order(groupmodel.parse_spec(spec))


def test_left_engel_product_law():
    # L(H x G) = H x L(G) for Engel H
    for h_spec in ("C:2", "C:3", "C:4", "P:(C:2)x(C:2)", "Q:8"):
        for g_spec in ("D:6", "D:12", "Q:12", "F:3:7"):
            h = el.build_group(h_spec)
            g = el.build_group(g_spec)
            prod = el.build_group(f"P:({h_spec})x({g_spec})")
            lg = el.left_engel_set(g)
            expect = {u * g.order + x for u in range(h.order) for x in lg}
            assert set(el.left_engel_set(prod)) == expect


# --- co-Engel graphs


def test_reduced_d6_is_k3():
    graph = el.reduced_co_engel_graph(el.build_group("D:6"))
    assert graph.n == 3 and graph.n_edges() == 3
    assert el.recognize_complete_multipartite(graph).parts == (1, 1, 1)


def test_reduced_d12_is_k_3_2():
    graph = el.reduced_co_engel_graph(el.build_group("D:12"))
    assert el.recognize_complete_multipartite(graph).parts == (2, 2, 2)


def test_reduced_f37_is_k_7_2():
    graph = el.reduced_co_engel_graph(el.build_group("F:3:7"))
    assert graph.n == 14
    assert el.recognize_complete_multipartite(graph).parts == (2,) * 7


def test_reduced_graph_of_engel_group_raises():
    with pytest.raises(ValueError, match="empty vertex set"):
        el.reduced_co_engel_graph(el.build_group("Q:8"))


def test_full_graph_left_engel_elements_isolated():
    for spec in ("D:12", "F:3:7", "S:4"):
        g = el.build_group(spec)
        full = el.co_engel_graph(g)
        for x in el.left_engel_set(g):
            assert np.count_nonzero(full.adj[x]) == 0


def test_reduced_vertex_order_and_labels():
    g = el.build_group("D:12")
    graph = el.reduced_co_engel_graph(g)
    kept = el.non_engel_elements(g)
    assert list(kept) == sorted(kept)
    assert graph.n == len(kept)
    # the DOT export labels vertex i with the name of the i-th element of G \ L(G)
    out = io.StringIO()
    with redirect_stdout(out):
        assert engel_lab.cli.main(["graph", "D:12", "--reduced", "--dot"]) == 0
    labels = re.findall(r'^  (\d+) \[label="(.*)"\];$', out.getvalue(), re.M)
    assert labels == [(str(i), g.element_names[e]) for i, e in enumerate(kept)]


def test_full_graph_matches_reduced_on_non_engel_part():
    g = el.build_group("Q:12")
    full = el.co_engel_graph(g)
    reduced = el.reduced_co_engel_graph(g)
    kept = el.non_engel_elements(g)
    for i, x in enumerate(kept):
        for j, y in enumerate(kept):
            if i != j:
                assert bool(full.adj[x, y]) == bool(reduced.adj[i, j])


def test_reduced_adjacency_matches_oracle_c2xd12():
    prod = el.build_group("P:(C:2)x(D:12)")
    model = oracles.model_product(oracles.model_cyclic(2), oracles.model_dihedral(12))
    kept = el.non_engel_elements(prod)
    graph = el.reduced_co_engel_graph(prod)
    # the product packs (u, x) at index u*|D_12| + x; D_12 has 6 rotations
    for i, a in enumerate(kept):
        for j, b in enumerate(kept):
            if i >= j:
                continue
            u, x = divmod(a, 12)
            v, y = divmod(b, 12)
            pa = (u, (x // 6, x % 6))
            pb = (v, (y // 6, y % 6))
            assert bool(graph.adj[i, j]) == model.coengel_adjacent(pa, pb)


# --- directed graphs


def test_directed_nilpotent_complete():
    for spec in ("Q:8", "C:6", "D:8"):
        d = el.directed_engel_graph(el.build_group(spec))
        assert d.is_complete()


def test_directed_isolated_co_engel_vertices_dominate():
    # isolated co-Engel vertices = vertices dominating all others = L(G)
    for spec in ("S:4", "D:24", "F:3:7"):
        g = el.build_group(spec)
        d = el.directed_engel_graph(g)
        full = el.co_engel_graph(g)
        dominating = set(np.flatnonzero(d.adj.sum(axis=1) == g.order - 1).tolist())
        isolated = {x for x in range(g.order) if np.count_nonzero(full.adj[x]) == 0}
        assert dominating == isolated == set(el.left_engel_set(g))


def test_complement_relation_co_engel_vs_directed():
    for spec in ("D:12", "Q:12", "F:3:7", "S:4"):
        g = el.build_group(spec)
        full = el.co_engel_graph(g)
        d = el.directed_engel_graph(g)
        for x in range(g.order):
            for y in range(x + 1, g.order):
                edge = bool(full.adj[x, y])
                no_arcs = not bool(d.adj[x, y]) and not bool(d.adj[y, x])
                assert edge == no_arcs


def test_single_arc_pairs_nilpotent_empty():
    assert not el.single_arc_mask(el.build_group("Q:8")).any()


def test_single_arc_pairs_soluble_nonnilpotent_nonempty():
    for spec in ("S:3", "S:4", "D:12", "Q:12", "F:3:7"):
        assert el.single_arc_mask(el.build_group(spec)).any()


def test_single_arc_pairs_sorted_lexicographically():
    g = el.build_group("S:4")
    arcs = oracles.single_arc_pairs(el.directed_engel_graph(g))
    assert arcs == sorted(arcs)
    assert len(arcs) == np.count_nonzero(el.single_arc_mask(g)) == 48  # oracle-frozen


@given(st.integers(1, 24).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))))
@settings(max_examples=80, deadline=None)
def test_single_arc_pairs_match_pairwise_loop(drawn):
    n, pairs = drawn
    arcs = {(i, j) for i, j in pairs if i != j}
    d = oracles.from_arcs(n, arcs)
    want = [(x, y) for x in range(n) for y in range(n) if (x, y) in arcs and (y, x) not in arcs]
    assert oracles.single_arc_pairs(d) == want


@pytest.mark.parametrize("spec", ["S:4", "A:4", "F:3:7", "P:(C:3)x(S:3)", "D:12"])
def test_single_arcs_outside_L_match_pairwise_loop(spec):
    g = el.build_group(spec)
    d, lset = el.directed_engel_graph(g), el.left_engel_set(g)
    single = [
        (x, y)
        for x in range(g.order)
        for y in range(g.order)
        if bool(d.adj[x, y]) and not bool(d.adj[y, x])
    ]
    want = [(x, y) for x, y in single if x not in lset and y not in lset]
    assert pair_list(np.nonzero(el.single_arc_mask(g, outside_left_engel=True))) == want
    assert pair_list(np.nonzero(el.single_arc_mask(g))) == single
    assert np.count_nonzero(el.single_arc_mask(g, outside_left_engel=True)) == len(want)


def test_single_arcs_outside_L_dihedral_empty():
    for spec in ("D:12", "D:24", "D:48"):
        g = el.build_group(spec)
        assert pair_list(np.nonzero(el.single_arc_mask(g, outside_left_engel=True))) == []


def test_single_arcs_outside_L_s4():
    g = el.build_group("S:4")
    arcs = pair_list(np.nonzero(el.single_arc_mask(g, outside_left_engel=True)))
    assert len(arcs) == 24  # oracle-frozen
    for x, y in arcs:
        assert g.element_order(x) == 3 and g.element_order(y) == 2


def test_dihedral_direction_bullet():
    # x in C, y outside: always x -> y; y -> x iff |[y,x]| is a power of 2
    g = el.build_group("D:24")
    d = el.directed_engel_graph(g)
    n = 12
    for x in range(n):
        for y in range(n, 24):
            assert bool(d.adj[x, y])
            order = g.element_order(g.commutator(y, x))
            assert bool(d.adj[y, x]) == (order & (order - 1) == 0)


def test_dihedral_double_arc_depths_unbounded():
    # On a double arc with x in C, y outside: [y,_2 x] = 1 but the least k
    # with [x,_k y] = 1 is m when |[y,x]| = 2^(m-1): one direction's Engel
    # depth is unbounded in terms of the other's.
    for two_n in (16, 32, 48, 96):
        g = el.build_group(f"D:{two_n}")
        n = two_n // 2
        for x in range(n):
            for y in range(n, two_n):
                order = g.element_order(g.commutator(y, x))
                if order == 1 or order & (order - 1):
                    continue
                back = engel_verdict(g, y, x)
                assert back.terminates and back.first_k <= 2
                fwd = engel_verdict(g, x, y)
                assert fwd.terminates and fwd.first_k == order.bit_length()


def test_non_terminating_pairs_never_reach_identity_exhaustive():
    # terminates=False implies [x,_k y] != 1 for every k: walk one full
    # cycle past the tail for every non-terminating pair
    for spec in ("D:24", "Q:12", "F:3:7"):
        g = el.build_group(spec)
        for x in range(g.order):
            for y in range(g.order):
                v = engel_verdict(g, x, y)
                if v.terminates:
                    continue
                a = g.commutator(x, y)
                for _ in range(g.order + v.cycle_length + 1):
                    assert a != g.identity, (spec, x, y)
                    a = g.commutator(a, y)


# --- Lemma "ad" adjacency invariance under hypercenter translation


@pytest.mark.parametrize("spec", ["P:(C:3)x(D:6)", "D:12"])
def test_hypercenter_translation_preserves_adjacency(spec):
    g = el.build_group(spec)
    z_members = np.flatnonzero(el.hypercenter(g)).tolist()
    graph = el.reduced_co_engel_graph(g)
    kept = el.non_engel_elements(g)
    pos = {e: i for i, e in enumerate(kept)}
    for i, j in graph.edges():
        x, y = kept[i], kept[j]
        for z1 in z_members:
            for z2 in z_members:
                xz, yz = g.mul(x, z1), g.mul(y, z2)
                assert xz in pos and yz in pos
                assert xz != yz
                assert bool(graph.adj[pos[xz], pos[yz]])


# --- determinism / property checks


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_verdict_deterministic_and_consistent(data):
    spec = data.draw(st.sampled_from(["D:12", "Q:12", "F:3:7", "S:4"]))
    g = el.build_group(spec)
    x = data.draw(st.integers(min_value=0, max_value=g.order - 1))
    y = data.draw(st.integers(min_value=0, max_value=g.order - 1))
    v1 = engel_verdict(g, x, y)
    v2 = engel_verdict(g, x, y)
    assert v1 == v2
    # cross-check the terminating side by direct iteration
    a = g.commutator(x, y)
    seen = set()
    k = 1
    while a not in seen and a != g.identity:
        seen.add(a)
        a = g.commutator(a, y)
        k += 1
    assert (a == g.identity) == v1.terminates
    if v1.terminates:
        assert k == v1.first_k
