"""Group-core: builders, axioms, commutator machinery, series, isomorphism."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engel_lab as el
from engel_lab import groups
from engel_lab.groups import (
    are_isomorphic_small,
    default_frobenius_residue,
    derived_series,
    from_table,
)
from engel_lab.verify import _soluble_catalog

import oracles


# All builder outputs swept by the axiom validator (desk scale, exhaustive
# associativity for order <= 200).
AXIOM_SWEEP = [
    "C:1", "C:2", "C:6", "C:12",
    "D:4", "D:6", "D:12", "D:24", "D:48", "D:144",
    "Q:8", "Q:12", "Q:24", "Q:48",
    "F:2:3", "F:2:5", "F:3:7", "F:3:13", "F:5:11",
    "S:2", "S:3", "S:4", "A:4", "A:5",
    "P:(C:3)x(D:6)", "P:(C:2)x(D:12)", "P:(Q:8)x(F:3:7)",
]


@pytest.mark.parametrize("spec", AXIOM_SWEEP)
def test_builder_axioms(spec):
    g = el.build_group(spec)
    el.validate_group(g)


def test_validate_rejects_broken_table():
    g = el.build_cyclic(3)
    rows = [list(r) for r in g.table]
    rows[1][2] = 1  # break the Latin property
    broken = from_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    object.__setattr__(broken, "table", np.array(rows))
    with pytest.raises(ValueError):
        el.validate_group(broken)


def test_validate_sampled_associativity_above_limit():
    g = el.build_group("P:(C:2)x(P:(C:2)x(D:72))")  # order 288 > 200
    el.validate_group(g)  # sampled path
    el.validate_group(g, force_exhaustive=True)


# --- cyclic


def test_cyclic_trivial():
    g = el.build_cyclic(1)
    assert g.order == 1 and g.identity == 0


def test_cyclic_3_element_orders():
    g = el.build_cyclic(3)
    assert all(g.element_order(a) == 3 for a in range(1, 3))


def test_cyclic_6_orders():
    g = el.build_cyclic(6)
    assert g.element_order(2) == 3
    assert g.element_order(3) == 2


def test_cyclic_rejects_nonpositive():
    with pytest.raises(ValueError):
        el.build_cyclic(0)


# --- dihedral


def test_dihedral_6_census():
    census = el.build_dihedral(6).order_census()
    assert census == {1: 1, 2: 3, 3: 2}


def test_dihedral_4_is_klein_four():
    g = el.build_dihedral(4)
    assert all(g.mul(a, b) == g.mul(b, a) for a in range(4) for b in range(4))
    assert el.is_nilpotent(g)


def test_dihedral_24_rotation_order():
    g = el.build_dihedral(24)
    assert g.element_order(g.generator_index("y")) == 12
    assert g.order == 24


def test_dihedral_presentation_relations():
    for two_n in (6, 12, 24, 48):
        g = el.build_dihedral(two_n)
        x, y = g.generator_index("x"), g.generator_index("y")
        n = two_n // 2
        assert g.power(y, n) == g.identity
        assert g.power(x, 2) == g.identity
        assert g.mul(g.mul(x, y), g.inv(x)) == g.inv(y)


def test_dihedral_rejects_bad_order():
    with pytest.raises(ValueError):
        el.build_dihedral(7)
    with pytest.raises(ValueError):
        el.build_dihedral(2)


# --- generalized quaternion


def test_quaternion_8_unique_involution():
    census = el.build_generalized_quaternion(8).order_census()
    assert census == {1: 1, 2: 1, 4: 6}


def test_quaternion_12_census():
    census = el.build_generalized_quaternion(12).order_census()
    assert census == {1: 1, 2: 1, 3: 2, 4: 6, 6: 2}
    assert census[2] == 1  # exactly one involution


def test_quaternion_24_presentation():
    g = el.build_generalized_quaternion(24)
    x, y = g.generator_index("x"), g.generator_index("y")
    assert g.element_order(y) == 12
    assert g.power(x, 2) == g.power(y, 6)
    assert g.mul(g.mul(x, y), g.inv(x)) == g.inv(y)


def test_quaternion_rejects_bad_order():
    for bad in (6, 10, 4):
        with pytest.raises(ValueError):
            el.build_generalized_quaternion(bad)


# --- Frobenius


def test_frobenius_2_3_is_dihedral_6():
    g = el.build_frobenius(2, 3)
    assert sorted(g.element_order(a) for a in range(6)) == [1, 2, 2, 2, 3, 3]
    a, b = g.generator_index("a"), g.generator_index("b")
    assert g.mul(g.mul(g.inv(a), b), a) == g.inv(b)  # a^-1 b a = b^r = b^-1
    assert are_isomorphic_small(g, el.build_dihedral(6))


def test_frobenius_3_7_center_trivial():
    g = el.build_frobenius(3, 7, 2)
    assert el.center(g).size == 1
    assert g.order == 21


def test_frobenius_2_5_isomorphic_to_d10():
    assert are_isomorphic_small(el.build_frobenius(2, 5), el.build_dihedral(10))


def test_frobenius_rejects_bad_parameters():
    with pytest.raises(ValueError):
        el.build_frobenius(3, 5)  # 5 != 1 mod 3
    with pytest.raises(ValueError):
        el.build_frobenius(3, 7, 3)  # 3^3 = 27 != 1 mod 7
    with pytest.raises(ValueError):
        el.build_frobenius(4, 5)  # p not prime


def test_frobenius_default_residue_is_smallest():
    assert np.array_equal(el.build_frobenius(3, 7).table, el.build_frobenius(3, 7, 2).table)
    from engel_lab.groups import default_frobenius_residue

    assert default_frobenius_residue(2, 7) == 6
    assert default_frobenius_residue(3, 13) == 3
    assert default_frobenius_residue(5, 11) == 3


# --- symmetric / alternating


def test_alternating_4_census():
    census = el.build_alternating(4).order_census()
    assert census == {1: 1, 2: 3, 3: 8}


def test_symmetric_4_fitting_candidate():
    g = el.build_symmetric(4)
    v4 = {"e", "(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"}
    members = [i for i, name in enumerate(g.element_names) if name in v4]
    sub = el.Subgroup(g, tuple(members))
    sub.validate()
    assert el.is_normal(g, sub) and el.is_nilpotent(sub.as_group())


def test_symmetric_2():
    assert el.build_symmetric(2).order == 2


def test_symmetric_identity_first():
    for n in (3, 4, 5):
        g = el.build_symmetric(n)
        assert g.identity == 0 and g.element_names[0] == "e"


def test_symmetric_rejects_out_of_range():
    for bad in (1, 7):
        with pytest.raises(ValueError):
            el.build_symmetric(bad)
        with pytest.raises(ValueError):
            el.build_alternating(bad)


def test_symmetric_6_order():
    assert el.build_symmetric(6).order == 720
    assert el.build_alternating(6).order == 360


# --- direct products


def test_product_order_multiplies():
    g = el.direct_product(el.build_cyclic(3), el.build_dihedral(6))
    assert g.order == 18 and g.label == "C3 x D_6"


def test_product_identity_factor():
    d6 = el.build_dihedral(6)
    g = el.direct_product(el.build_cyclic(1), d6)
    assert are_isomorphic_small(g, d6)


def test_product_commutator_identity_exhaustive():
    # [(u,x),(v,y)] = ([u,v],[x,y]) over all pairs, product order <= 300
    for spec in ("P:(C:2)x(D:6)", "P:(C:3)x(D:6)", "P:(C:2)x(Q:12)"):
        g = el.build_group(spec)
        factors = spec.split("x(")
        h = el.build_group(factors[0][3:-1])
        k = el.build_group(factors[1][:-1])
        nk = k.order
        for p1 in range(g.order):
            for p2 in range(g.order):
                u, x = divmod(p1, nk)
                v, y = divmod(p2, nk)
                c = g.commutator(p1, p2)
                assert c == h.commutator(u, v) * nk + k.commutator(x, y)


def test_product_iterated_commutator_identity():
    h, k = el.build_cyclic(2), el.build_dihedral(6)
    g = el.direct_product(h, k)
    nk = k.order
    for p1 in (3, 7, 10):
        for p2 in (1, 5, 11):
            for depth in (1, 2, 3, 4):
                u, x = divmod(p1, nk)
                v, y = divmod(p2, nk)
                acc_g = p1
                acc_h, acc_k = u, x
                for _ in range(depth):
                    acc_g = g.commutator(acc_g, p2)
                    acc_h = h.commutator(acc_h, v)
                    acc_k = k.commutator(acc_k, y)
                assert acc_g == acc_h * nk + acc_k


# --- commutator / conjugate / orders


def test_commutator_self_is_identity():
    g = el.build_dihedral(12)
    assert all(g.commutator(a, a) == g.identity for a in range(g.order))


def test_d6_commutator_paper_convention():
    # [x,y] = x^-1 y^-1 x y = y^2 in D_6; the reversed bracket gives y
    g = el.build_dihedral(6)
    x, y = g.generator_index("x"), g.generator_index("y")
    assert g.element_names[g.commutator(x, y)] == "y^2"
    assert g.element_names[g.commutator(y, x)] == "y"


def test_identity_order_one():
    g = el.build_frobenius(3, 7)
    assert g.element_order(g.identity) == 1


def test_conjugate_definition():
    g = el.build_symmetric(4)
    for x in (3, 7, 15):
        for y in (1, 9, 20):
            assert g.conjugate(x, y) == g.mul(g.mul(g.inv(y), x), y)


@pytest.mark.parametrize("spec", AXIOM_SWEEP)
def test_lagrange_element_orders_divide(spec):
    g = el.build_group(spec)
    assert all(g.order % g.element_order(a) == 0 for a in range(g.order))


# --- center / series / hypercenter


def test_hypercenter_d6_trivial():
    assert el.hypercenter(el.build_dihedral(6)).size == 1


def test_hypercenter_c3xd6():
    g = el.build_group("P:(C:3)x(D:6)")
    z = el.hypercenter(g)
    assert z.size == 3
    # stabilises at C3 x {1}: all members commute with everything
    assert all(m in el.center(g).members for m in z.members)


def test_hypercenter_of_nilpotent_is_whole_group():
    for spec in ("Q:8", "C:12", "D:8"):
        g = el.build_group(spec)
        assert el.hypercenter(g).size == g.order


def test_upper_central_series_strictly_increasing():
    for spec in ("Q:8", "D:8", "S:4", "P:(C:3)x(D:6)"):
        g = el.build_group(spec)
        series = el.upper_central_series(g)
        sizes = [s.size for s in series]
        assert sizes[0] == 1
        assert all(a < b for a, b in zip(sizes, sizes[1:]))
        assert series[-1].size == el.hypercenter(g).size


def test_d12_hypercenter_order_two():
    assert el.hypercenter(el.build_dihedral(12)).size == 2


# --- nilpotency / solubility


def test_q8_nilpotent():
    assert el.is_nilpotent(el.build_generalized_quaternion(8))


def test_s4_soluble_not_nilpotent():
    g = el.build_symmetric(4)
    assert el.is_soluble(g) and not el.is_nilpotent(g)
    sizes = [s.size for s in derived_series(g)]
    assert sizes == [24, 12, 4, 1]  # S4 > A4 > V4 > 1


def test_a5_not_soluble():
    assert not el.is_soluble(el.build_alternating(5))


# --- subgroups / quotients / isomorphism


def test_subgroup_generated_rotation_in_d24():
    g = el.build_dihedral(24)
    assert el.subgroup_generated(g, [g.generator_index("y")]).size == 12


def test_subgroup_generated_identity():
    g = el.build_dihedral(6)
    assert el.subgroup_generated(g, [g.identity]).size == 1
    assert el.subgroup_generated(g, []).size == 1


def test_quotient_c3xd6_by_hypercenter_is_d6():
    g = el.build_group("P:(C:3)x(D:6)")
    assert el.quotient_iso_check(g, el.hypercenter(g), el.build_dihedral(6))


def test_quotient_requires_normal():
    g = el.build_symmetric(3)
    reflection = next(a for a in range(6) if g.element_order(a) == 2)
    sub = el.subgroup_generated(g, [reflection])
    with pytest.raises(ValueError):
        el.quotient_group(g, sub)


def test_quotient_s4_by_v4_is_s3():
    g = el.build_symmetric(4)
    v4 = {"e", "(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"}
    sub = el.Subgroup(g, tuple(i for i, n in enumerate(g.element_names) if n in v4))
    assert el.quotient_iso_check(g, sub, el.build_symmetric(3))


def test_isomorphism_negative():
    assert not are_isomorphic_small(el.build_cyclic(6), el.build_symmetric(3))
    assert not are_isomorphic_small(el.build_dihedral(8), el.build_generalized_quaternion(8))


def test_d12_not_isomorphic_q12():
    assert not are_isomorphic_small(el.build_dihedral(12), el.build_generalized_quaternion(12))


# --- property tests


@given(n=st.integers(min_value=1, max_value=40))
@settings(max_examples=25, deadline=None)
def test_cyclic_orders_property(n):
    g = el.build_cyclic(n)
    el.validate_group(g)
    import math

    assert all(g.element_order(a) == n // math.gcd(a, n) for a in range(1, n))


@given(n=st.integers(min_value=2, max_value=30))
@settings(max_examples=25, deadline=None)
def test_dihedral_structure_property(n):
    g = el.build_dihedral(2 * n)
    el.validate_group(g)
    # reflections all have order 2; rotations have the cyclic orders
    assert all(g.element_order(n + i) == 2 for i in range(n))


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_group_cache_roundtrip_table(data):
    spec = data.draw(st.sampled_from(["D:10", "Q:16", "F:2:7", "C:9"]))
    g = el.build_group(spec)
    rebuilt = from_table(
        [list(r) for r in g.table], g.element_names, g.generators, g.label
    )
    assert np.array_equal(rebuilt.table, g.table)
    assert rebuilt.identity == g.identity
    assert np.array_equal(rebuilt.inverse, g.inverse)


def test_oracle_cross_check_dihedral_table():
    # package table vs the independent tuple-based model
    g = el.build_dihedral(24)
    model = oracles.model_dihedral(24)
    n = 12
    to_pair = lambda idx: (idx // n, idx % n)
    to_idx = lambda pair: pair[0] * n + pair[1]
    for a in range(24):
        for b in range(24):
            assert g.mul(a, b) == to_idx(model.mul(to_pair(a), to_pair(b)))


def test_oracle_cross_check_frobenius_table():
    g = el.build_frobenius(3, 7, 2)
    model = oracles.model_frobenius(3, 7, 2)
    to_pair = lambda idx: (idx // 7, idx % 7)
    to_idx = lambda pair: pair[0] * 7 + pair[1]
    for a in range(21):
        for b in range(21):
            assert g.mul(a, b) == to_idx(model.mul(to_pair(a), to_pair(b)))


# --- array tables against the tuple-based model groups


def _model(spec):
    """The oracle model of a spec; its element list is in the package's index
    order (pairs (r, a) at r*half + a, permutations sorted, products nested
    the same way)."""
    s = el.parse_group_spec(spec) if isinstance(spec, str) else spec
    if s.family == "P":
        return functools.reduce(oracles.model_product, map(_model, s.factors))
    if s.family == "F":
        p, q, *r = s.params
        return oracles.model_frobenius(p, q, r[0] if r else default_frobenius_residue(p, q))
    build = {
        "C": oracles.model_cyclic, "D": oracles.model_dihedral,
        "Q": oracles.model_quaternion, "S": oracles.model_symmetric,
        "A": oracles.model_alternating,
    }
    return build[s.family](*s.params)


@pytest.mark.parametrize(
    "spec",
    ["C:12", "Q:24", "S:4", "S:5", "A:4", "A:5", "F:3:13:9", "F:5:11:4", "P:(S:3)x(Q:8)"],
)
def test_builder_matches_model_group(spec):
    g = el.build_group(spec)
    model = _model(spec)
    index = {x: i for i, x in enumerate(model.elements)}
    want = [[index[model.mul(x, y)] for y in model.elements] for x in model.elements]
    assert g.table.dtype == np.min_scalar_type(g.order)
    assert np.array_equal(g.table, want)
    assert g.identity == index[model.identity]
    assert np.array_equal(g.inverse, [index[model.inv(x)] for x in model.elements])
    # the same table when its rows are filled three at a time
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "_BLOCK_ENTRIES", 3 * g.order)
        assert np.array_equal(el.specs._build_cached.__wrapped__(spec).table, g.table)


@functools.lru_cache(maxsize=None)
def _model_structure(spec):
    model = _model(spec)
    index = {x: i for i, x in enumerate(model.elements)}

    def members(xs):
        return sorted(index[x] for x in xs)

    return {
        "center": members(model.center()),
        "upper_central_series": [members(z) for z in model.upper_central_series()],
        "order_census": model.order_census(),
        "left_engel_set": members(model.left_engel_set()),
    }


def _structure(g):
    return {
        "center": list(el.center(g).members),
        "upper_central_series": [list(z.members) for z in el.upper_central_series(g)],
        "order_census": g.order_census(),
        "left_engel_set": sorted(el.left_engel_set(g)),
    }


def _is_normal_by_definition(g, sub):
    return all(g.conjugate(x, a) in sub for x in sub.members for a in range(g.order))


@given(spec=st.sampled_from(_soluble_catalog(48) + ["A:5", "S:5"]), data=st.data())
@settings(max_examples=30, deadline=None)
def test_structure_matches_model_group(spec, data):
    g = el.build_group(spec)
    x = data.draw(st.integers(min_value=0, max_value=g.order - 1))
    want = _model_structure(spec)
    candidates = (
        el.subgroup_generated(g, [x]),
        el.center(g),
        derived_series(g)[-1],
        el.Subgroup(g, tuple(sorted({g.identity, x}))),
    )
    normal = [_is_normal_by_definition(g, s) for s in candidates]
    assert _structure(g) == want
    assert [el.is_normal(g, s) for s in candidates] == normal
    # the same answers when the row blocks are three rows long
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "_BLOCK_ENTRIES", 3 * g.order)
        assert np.array_equal(groups.commutator_map.__wrapped__(g), groups.commutator_map(g))
        assert _structure(g) == want
        assert [el.is_normal(g, s) for s in candidates] == normal


def test_table_and_inverse_are_read_only():
    g = el.build_group("D:12")
    with pytest.raises(ValueError):
        g.table[0, 0] = 1
    with pytest.raises(ValueError):
        g.inverse[0] = 1


@pytest.mark.parametrize("n", [3, 255])
@pytest.mark.parametrize("offset", [-1, 0])  # entry -1, entry n
def test_from_table_rejects_out_of_range_entries(n, offset):
    # at n = 255 the table narrows to uint8, where -1 and 256 would wrap
    rows = el.build_cyclic(n).table.astype(int)
    rows[n - 1, n - 1] = n if offset == 0 else -1
    with pytest.raises(ValueError):
        from_table(rows)
    with pytest.raises(ValueError):
        from_table(rows.tolist())


def test_scalar_accessors_return_python_ints():
    g = el.build_group("S:4")
    values = [
        g.identity, g.mul(3, 5), g.inv(3), g.commutator(3, 5), g.conjugate(3, 5),
        g.element_order(3), *g.order_census().items(),
        *el.center(g).members, *el.hypercenter(g).members,
        *el.subgroup_generated(g, [3, 5]).members, *derived_series(g)[1].members,
    ]
    flat = [v for item in values for v in (item if isinstance(item, tuple) else (item,))]
    assert all(type(v) is int for v in flat)
