"""Group-core: builders, axioms, commutator machinery, series, isomorphism."""

import ast
import functools
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engel_lab as el
from engel_lab import cli, engel, groups
from engel_lab.groups import default_frobenius_residue, derived_series
from engel_lab.verify import _soluble_catalog

import oracles
from oracles import are_isomorphic_small, from_table, power, quotient_iso_check, validate_group

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import layertrace  # noqa: E402
import workloads  # noqa: E402


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


def _center(g):
    """Z(G) = Z_1; the series stops at Z_0 = 1 when the centre is trivial."""
    return el.upper_central_series(g)[:2][-1]


@pytest.mark.parametrize("spec", AXIOM_SWEEP)
def test_builder_axioms(spec):
    g = el.build_group(spec)
    validate_group(g)


def test_validate_rejects_broken_table():
    g = el.build_cyclic(3)
    rows = [list(r) for r in g.table]
    rows[1][2] = 1  # break the Latin property
    broken = from_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    object.__setattr__(broken, "table", np.array(rows))
    with pytest.raises(ValueError):
        validate_group(broken)


def test_validate_sampled_associativity_above_limit():
    g = el.build_group("P:(C:2)x(P:(C:2)x(D:72))")  # order 288 > 200
    validate_group(g)  # sampled path
    validate_group(g, force_exhaustive=True)


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
        assert power(g, y, n) == g.identity
        assert power(g, x, 2) == g.identity
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
    assert power(g, x, 2) == power(g, y, 6)
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
    assert np.count_nonzero(_center(g)) == 1
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
    sub = np.isin(g.element_names, list(v4))
    assert np.array_equal(el.subgroup_generated(g, np.flatnonzero(sub)), sub)
    assert el.is_normal(g, sub) and el.is_nilpotent(g, sub)


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
            assert g.mul(x, g.commutator(x, y)) == g.mul(g.mul(g.inv(y), x), y)


@pytest.mark.parametrize("spec", AXIOM_SWEEP)
def test_lagrange_element_orders_divide(spec):
    g = el.build_group(spec)
    assert all(g.order % g.element_order(a) == 0 for a in range(g.order))


# --- center / series / hypercenter


def test_hypercenter_d6_trivial():
    assert np.count_nonzero(el.hypercenter(el.build_dihedral(6))) == 1


def test_hypercenter_c3xd6():
    g = el.build_group("P:(C:3)x(D:6)")
    z = el.hypercenter(g)
    assert np.count_nonzero(z) == 3
    assert el.hypercenter(g) is z and not z.flags.writeable  # shared by callers
    # stabilises at C3 x {1}: all members commute with everything
    assert _center(g)[z].all()


def test_hypercenter_of_nilpotent_is_whole_group():
    for spec in ("Q:8", "C:12", "D:8"):
        g = el.build_group(spec)
        assert el.hypercenter(g).all()


def test_upper_central_series_strictly_increasing():
    for spec in ("Q:8", "D:8", "S:4", "P:(C:3)x(D:6)"):
        g = el.build_group(spec)
        series = el.upper_central_series(g)
        sizes = [np.count_nonzero(s) for s in series]
        assert sizes[0] == 1
        assert all(a < b for a, b in zip(sizes, sizes[1:]))
        assert np.array_equal(series[-1], el.hypercenter(g))


def test_group_command_computes_the_whole_group_series_once(monkeypatch, capsys):
    # on S:4 the Baer walk reaches a normal closure equal to G, so it asks
    # whether G is nilpotent before cmd_group asks for the hypercenter
    calls = []
    series = groups.upper_central_series

    def counted(g, within=None):
        calls.append(within is None)
        return series(g, within)

    monkeypatch.setattr(groups, "upper_central_series", counted)
    caches = layertrace.lru_caches()

    def whole_group_calls(specs):
        calls.clear()
        for spec in specs:
            layertrace.clear_caches(caches)  # as in a fresh process
            assert cli.main(["group", spec]) == 0
        capsys.readouterr()
        return sum(calls)

    assert whole_group_calls(["S:4"]) == 1
    census = workloads.census_specs()
    assert len(census) == 180 and whole_group_calls(census) == 180


def test_baer_walk_with_l_equal_to_g_reads_only_the_whole_group_series(monkeypatch):
    # L = G is normal with no element outside it: no closure of L, no
    # normality pass and no series over a subgroup, on 94 census groups
    calls = []

    def count(module, name, when=lambda *args: True):
        original = getattr(module, name)

        def counted(*args):
            if when(*args):
                calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    count(engel, "subgroup_generated")
    count(engel, "is_normal")
    count(groups, "upper_central_series", lambda g, within=None: within is not None)
    caches = layertrace.lru_caches()
    whole = 0
    for spec in workloads.census_specs():
        layertrace.clear_caches(caches)
        g = el.build_group(spec)
        is_whole = len(el.left_engel_set(g)) == g.order
        calls.clear()
        engel.validate_left_engel_baer(g)
        assert (calls == []) is is_whole, (spec, calls)
        whole += is_whole
    assert whole == 94


def test_no_broadcast_gathers_in_the_package():
    # gathers are row-then-column takes and flat 1-D takes (groups.py)
    found = [
        f"{path.name}:{i}"
        for path in sorted(Path(groups.__file__).parent.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\bix_\b|take_along_axis", line)
    ]
    assert found == []


# Public names kept although nothing in src/ or bench/ may call them, each
# with its reason; every other public name must have a caller there.
KEPT_PUBLIC = {
    "mul": "documented scalar accessor of FiniteGroup",
    "inv": "documented scalar accessor of FiniteGroup",
    "commutator": "documented scalar accessor of FiniteGroup",
    "element_order": "documented scalar accessor of FiniteGroup",
    "generator_index": "documented scalar accessor of FiniteGroup",
    "order_census": "documented scalar accessor of FiniteGroup",
    "to_json_obj": "the JSON document of a graph, report or record as a dict",
}


def _public_definitions(tree):
    """(definition, is_method) for each public module-level function or
    class and each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node, False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield sub, True


def _names_read(tree, attributes_only):
    """Counts of the identifiers a syntax tree reads: attribute names and
    string constants (as in ``getattr`` tables), and unless
    ``attributes_only`` also plain and imported names."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
        elif isinstance(node, ast.Name) and not attributes_only:
            out[node.id] += 1
        elif isinstance(node, ast.alias) and not attributes_only:
            out[node.name] += 1
    return out


def test_every_public_name_in_the_package_has_a_caller():
    # a name only tests use belongs in tests/oracles.py or in the test; the
    # package's re-exports in __init__ are not callers, and a method is
    # called only through an attribute
    package = Path(groups.__file__).parent
    bench = Path(layertrace.__file__).parent
    trees = {p: ast.parse(p.read_text())
             for p in sorted(package.glob("*.py")) + sorted(bench.glob("*.py"))}
    init = trees[package / "__init__.py"]
    init.body = [n for n in init.body if not isinstance(n, ast.ImportFrom)]
    read = {kind: sum((_names_read(t, kind) for t in trees.values()), Counter())
            for kind in (False, True)}
    unused = [
        f"{path.name}:{node.name}"
        for path in sorted(package.glob("*.py"))
        for node, is_method in _public_definitions(trees[path])
        if node.name not in KEPT_PUBLIC
        and read[is_method][node.name] == _names_read(node, is_method)[node.name]
    ]
    assert unused == []


def test_what_the_benchmark_reads_is_kept():
    # bench/ reads these names and changes apart from the package
    from engel_lab import spectra, verify

    names = ("left_engel_set", "build_group", "closed_form_spectra", "MultipartiteShape",
             "zagreb_closed_form")
    assert all(callable(getattr(el, name)) for name in names)
    assert all(map(callable, (cli.spectrum_report, verify.all_claims, verify.build_group,
                              spectra.char_poly_exact)))
    g = el.build_group("D:6")
    d, r = el.directed_engel_graph(g), el.reduced_co_engel_graph(g)
    assert (d.n, d.n_arcs(), r.n, r.n_edges()) == (6, 18, 3, 3)
    for builder in (el.co_engel_graph, el.reduced_co_engel_graph, el.directed_engel_graph):
        assert callable(builder.cache_info)


def test_d12_hypercenter_order_two():
    assert np.count_nonzero(el.hypercenter(el.build_dihedral(12))) == 2


# --- nilpotency / solubility


def test_q8_nilpotent():
    assert el.is_nilpotent(el.build_generalized_quaternion(8))


def test_s4_soluble_not_nilpotent():
    g = el.build_symmetric(4)
    assert el.is_soluble(g) and not el.is_nilpotent(g)
    sizes = [np.count_nonzero(s) for s in derived_series(g)]
    assert sizes == [24, 12, 4, 1]  # S4 > A4 > V4 > 1


def test_a5_not_soluble():
    assert not el.is_soluble(el.build_alternating(5))


# --- subgroups / quotients / isomorphism


def test_subgroup_generated_rotation_in_d24():
    g = el.build_dihedral(24)
    assert np.count_nonzero(el.subgroup_generated(g, [g.generator_index("y")])) == 12


def test_subgroup_generated_identity():
    g = el.build_dihedral(6)
    assert np.count_nonzero(el.subgroup_generated(g, [g.identity])) == 1
    assert np.count_nonzero(el.subgroup_generated(g, [])) == 1


def test_quotient_c3xd6_by_hypercenter_is_d6():
    g = el.build_group("P:(C:3)x(D:6)")
    assert quotient_iso_check(g, el.hypercenter(g), el.build_dihedral(6))


def test_quotient_requires_normal():
    g = el.build_symmetric(3)
    reflection = next(a for a in range(6) if g.element_order(a) == 2)
    sub = el.subgroup_generated(g, [reflection])
    with pytest.raises(ValueError):
        oracles.quotient_group(g, sub)


def test_quotient_s4_by_v4_is_s3():
    g = el.build_symmetric(4)
    v4 = {"e", "(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"}
    sub = np.isin(g.element_names, list(v4))
    assert quotient_iso_check(g, sub, el.build_symmetric(3))


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
    validate_group(g)
    import math

    assert all(g.element_order(a) == n // math.gcd(a, n) for a in range(1, n))


@given(n=st.integers(min_value=2, max_value=30))
@settings(max_examples=25, deadline=None)
def test_dihedral_structure_property(n):
    g = el.build_dihedral(2 * n)
    validate_group(g)
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
    [
        "C:12", "D:4", "D:12", "D:30", "Q:8", "Q:24", "S:4", "S:5", "A:4", "A:5",
        "F:3:13:9", "F:5:11:4", "P:(S:3)x(Q:8)",
    ],
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


@pytest.mark.parametrize(
    "family, n", [*(("S", n) for n in range(2, 7)), *(("A", n) for n in range(3, 7))]
)
def test_perm_table_matches_the_searchsorted_builder(family, n):
    # the one-product table of S_n and A_n against the point-by-point
    # composition whose codes are found by searchsorted
    perms = groups._perms(n, family, even=family == "A")
    g = groups._perm_group(perms, f"{family}{n}")
    want = oracles.perm_group_by_search(perms, f"{family}{n}")
    assert g.table.dtype == want.table.dtype
    assert np.array_equal(g.table, want.table)
    assert g.identity == want.identity
    assert np.array_equal(g.inverse, want.inverse)
    assert g.element_names == want.element_names


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
        "center": np.flatnonzero(_center(g)).tolist(),
        "upper_central_series": [np.flatnonzero(z).tolist() for z in el.upper_central_series(g)],
        "order_census": g.order_census(),
        "left_engel_set": sorted(el.left_engel_set(g)),
    }


def _is_normal_by_definition(g, sub):
    members = np.flatnonzero(sub).tolist()
    return all(sub[g.mul(x, g.commutator(x, a))] for x in members for a in range(g.order))


@given(spec=st.sampled_from(_soluble_catalog(48) + ["A:5", "S:5"]), data=st.data())
@settings(max_examples=30, deadline=None)
def test_structure_matches_model_group(spec, data):
    g = el.build_group(spec)
    x = data.draw(st.integers(min_value=0, max_value=g.order - 1))
    want = _model_structure(spec)
    candidates = (
        el.subgroup_generated(g, [x]),
        _center(g),
        derived_series(g)[-1],
        np.isin(np.arange(g.order), [g.identity, x]),
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


# D:254 and C:255 have uint8 tables; D:256 and Q:256 have the first uint16
# ones, whose n * n no longer fits the dtype; D:384 and S:6 are the largest
# groups the workloads build
NARROW_DTYPE_SPECS = ["D:254", "C:255", "D:256", "Q:256", "D:384", "S:6"]


def _closure_by_definition(g, seeds):
    inside = frontier = {g.identity}
    while frontier:
        frontier = {g.mul(x, s) for x in frontier for s in seeds} - inside
        inside = inside | frontier
    return sorted(inside)


@functools.lru_cache(maxsize=None)
def _model_upper_central_series(spec):
    model = _model(spec)
    index = {x: i for i, x in enumerate(model.elements)}
    return [sorted(index[x] for x in z) for z in model.upper_central_series()]


@pytest.mark.parametrize("rows", [None, 3])
@pytest.mark.parametrize("spec", NARROW_DTYPE_SPECS)
def test_closures_and_series_in_narrow_table_dtypes(spec, rows, monkeypatch):
    # uint8 and uint16 tables, in whole blocks and in blocks of three rows:
    # products against gathers in intp and scalar powers, closures against
    # the definition, the series against the model group (D and C up to
    # order 256: the quaternion model finds inverses by search) and the
    # series over subgroups against the subgroup re-tabled on its own
    g = el.build_group(spec)
    if rows:
        monkeypatch.setattr(groups, "_BLOCK_ENTRIES", rows * g.order)
    # the products t[x, y] of index arrays, against broadcast gathers in intp
    t, inv, a = g.table.astype(np.intp), g.inverse.astype(np.intp), np.arange(g.order)
    want = t[t[t[inv[None, :], inv[:, None]], a[None, :]], a[:, None]]  # [a, y] at [y, a]
    assert np.array_equal(groups.commutator_map.__wrapped__(g), want)
    for m in (2, 3, g.order - 1):
        assert groups.powers(g, m).tolist() == [power(g, x, m) for x in range(g.order)]
    last = g.order - 1
    for seeds in ([last], [1, last], [g.order // 2 + 1, last]):
        assert np.flatnonzero(el.subgroup_generated(g, seeds)).tolist() == (
            _closure_by_definition(g, seeds)
        ), seeds
    series = [np.flatnonzero(z).tolist() for z in el.upper_central_series(g)]
    if spec[0] in "CD" and g.order <= 256:
        assert series == _model_upper_central_series(spec)
    derived = derived_series(g)
    lset = np.isin(np.arange(g.order), sorted(el.left_engel_set(g)))
    for sub in (derived[1], lset, el.subgroup_generated(g, [last])):
        h = oracles.subgroup_as_group(g, sub)
        members = np.flatnonzero(sub)
        want = [members[z].tolist() for z in el.upper_central_series(h)]
        assert [np.flatnonzero(z).tolist() for z in el.upper_central_series(g, sub)] == want
    # the derived series of G' is the rest of G's
    h = oracles.subgroup_as_group(g, derived[1])
    members = np.flatnonzero(derived[1])
    assert [members[z].tolist() for z in derived_series(h)] == [
        np.flatnonzero(z).tolist() for z in derived[1:]
    ]


POWER_SPECS = ["C:1", "C:12", "D:24", "Q:16", "F:3:7", "A:4", "S:4", "A:5", "P:(C:3)x(D:6)"]


@pytest.mark.parametrize("spec", POWER_SPECS)
def test_powers_match_the_scalar_power(spec):
    g = el.build_group(spec)
    for m in (0, 1, 2, g.order - 1, g.order):
        assert groups.powers(g, m).tolist() == [power(g, x, m) for x in range(g.order)], m
    # on an index array, entry by entry in its own shape
    x = np.array([[g.order - 1, 0], [g.identity, g.order // 2]])
    assert groups.powers(g, 5, x).tolist() == [[power(g, int(a), 5) for a in row] for row in x]
    with pytest.raises(ValueError, match="m >= 0"):
        groups.powers(g, -1)


@given(spec=st.sampled_from(POWER_SPECS), m=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_powers_match_the_scalar_power_property(spec, m):
    g = el.build_group(spec)
    assert groups.powers(g, m).tolist() == [power(g, x, m) for x in range(g.order)]


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


def test_from_table_without_identity():
    # every row is the identity map and every element idempotent, but no
    # column is the identity map: each x is only a left identity
    with pytest.raises(ValueError, match=r"^table for group has no identity element$"):
        from_table([[0, 1, 2]] * 3)


def test_from_table_with_an_element_without_inverse(monkeypatch):
    # a monoid whose identity 2 follows the idempotents 0 and 1; 0 absorbs
    with pytest.raises(ValueError, match=r"^element 0 of group has no inverse$"):
        from_table([[0, 0, 0], [0, 1, 1], [0, 1, 2]])
    # 2 absorbs; with one-row blocks its row is the third block
    monkeypatch.setattr(groups, "_BLOCK_ENTRIES", 3)
    with pytest.raises(ValueError, match=r"^element 2 of group has no inverse$"):
        from_table([[0, 1, 2], [1, 0, 2], [2, 2, 2]])


def test_from_table_finds_an_identity_not_at_index_zero():
    # a * b = a + b + 1 mod 3: a copy of C_3 whose identity is 2 = -1
    g = from_table([[(a + b + 1) % 3 for b in range(3)] for a in range(3)])
    assert g.identity == 2 and g.inverse.tolist() == [1, 0, 2]


@given(spec=st.sampled_from(["C:1", "C:5", "S:3", "D:8", "Q:8", "A:4"]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_finalize_matches_the_whole_table_search(spec, data):
    # relabelling puts the identity anywhere, overwritten entries can leave
    # no identity or an element without inverse, and short row blocks put
    # the first such element in a later block
    g = el.build_group(spec)
    n = g.order
    perm = np.array(data.draw(st.permutations(range(n))))
    rows = np.empty((n, n), dtype=int)
    rows[perm[:, None], perm[None, :]] = perm[g.table]
    for _ in range(data.draw(st.integers(0, 3))):
        i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        rows[i, j] = k
    try:
        identity, inverse = oracles.identity_and_inverse_whole_table(rows, "T")
        want = (identity, inverse.tolist())
    except ValueError as exc:
        want = str(exc)
    block_rows = data.draw(st.sampled_from([1, 2, n]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "_BLOCK_ENTRIES", block_rows * n)
        try:
            h = from_table(rows, label="T")
            got = (h.identity, h.inverse.tolist())
        except ValueError as exc:
            got = str(exc)
    assert got == want


def test_scalar_accessors_return_python_ints(capsys):
    g = el.build_group("S:4")
    values = [
        g.identity, g.mul(3, 5), g.inv(3), g.commutator(3, 5),
        g.element_order(3), *g.order_census().items(),
    ]
    flat = [v for item in values for v in (item if isinstance(item, tuple) else (item,))]
    assert all(type(v) is int for v in flat)
    v4 = derived_series(g)[2]
    predicates = [
        el.is_nilpotent(g), el.is_nilpotent(g, v4), el.is_soluble(g),
        el.is_soluble(el.build_group("A:5")), el.is_normal(g, v4),
        el.is_normal(g, el.subgroup_generated(g, [1])),
    ]
    assert predicates == [False, True, True, False, True, False]
    assert all(type(v) is bool for v in predicates)
    # json.dumps refuses numpy scalars, so the group document pins the count
    assert cli.main(["group", "S:4"]) == 0
    assert '"hypercenter_order": 1,' in capsys.readouterr().out


@pytest.mark.parametrize(
    "bad",
    [[0, 3], np.array([0, 3]), [1] * 24, np.ones(23, dtype=bool),
     np.ones((24, 1), dtype=bool), np.ones(24, dtype=np.uint8)],
)
def test_mask_arguments_must_be_bool_masks_of_the_group(bad):
    # an index list read as a mask would silently answer for another subgroup
    g = el.build_group("S:4")
    calls = (el.is_normal, el.is_nilpotent, el.upper_central_series, el.hypercenter,
             groups.prime_order_cosets)
    for call in calls:
        with pytest.raises(ValueError, match="bool mask"):
            call(g, bad)


def test_mask_helpers_refuse_the_other_argument_kind():
    g = el.build_group("S:4")
    with pytest.raises(ValueError, match="not a mask"):
        el.subgroup_generated(g, _center(g))
