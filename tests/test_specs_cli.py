"""Group specs and the command-line interface."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engel_lab as el
import engel_lab.cli
from engel_lab.analysis import MultipartiteShape
from engel_lab.cli import main
from engel_lab.specs import FAMILY_NAMES, GroupSpec, GroupSpecError, parse_group_spec
from engel_lab.verify import ALL_CLAIM_IDS, run_paper_verification

DATA = Path(__file__).parent / "data"


# --- spec parsing / canonical strings


ROUND_TRIP = [
    "C:3",
    "D:24",
    "Q:24",
    "F:3:7",
    "F:3:7:2",
    "A:4",
    "S:4",
    "P:(C:3)x(D:6)",
    "P:(C:2)x(C:2)x(D:6)",
    "P:(C:2)x(P:(C:3)x(Q:8))",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_spec_round_trip(text):
    spec = parse_group_spec(text)
    assert spec.canonical() == text
    assert parse_group_spec(spec.canonical()) == spec


@pytest.mark.parametrize(
    "bad",
    [
        "", "D", "D:", "D:abc", "X:4", "P:(C:3)", "P:(C:3)y(D:6)", "P:(C:3", "F:3", "D:2:4",
        # a product body must be exactly its factors joined by 'x'
        "P:(C:3)x(D:6)x", "P:(C:3)(D:6)", "P:x(C:3)x(D:6)",
        # int() would read these, but none is the canonical text of its spec
        "D:1_2", "C:+5", "D:012", "D: 6", "C:\u0661\u0662", "P:( C:3)x(D:6)",
    ],
)
def test_spec_rejects_malformed(bad):
    with pytest.raises(GroupSpecError):
        parse_group_spec(bad)


def test_spec_order_arithmetic():
    assert parse_group_spec("C:7").order() == 7
    assert parse_group_spec("D:24").order() == 24
    assert parse_group_spec("F:3:7").order() == 21
    assert parse_group_spec("S:4").order() == 24
    assert parse_group_spec("A:4").order() == 12
    assert parse_group_spec("P:(C:2)x(D:6)").order() == 12
    for text in ROUND_TRIP:
        spec = parse_group_spec(text)
        assert el.build_group(spec).order == spec.order()


def test_spec_family_names():
    assert parse_group_spec("D:6").family_name == "dihedral"
    assert parse_group_spec("P:(C:2)x(D:6)").family_name == "product"


def test_build_group_invalid_parameters_raise_spec_error():
    with pytest.raises(GroupSpecError):
        el.build_group("D:7")
    with pytest.raises(GroupSpecError):
        el.build_group("F:3:5")


def test_explicit_frobenius_residue_specs():
    g1 = el.build_group("F:3:7:2")
    g2 = el.build_group("F:3:7:4")  # 4^3 = 64 = 1 mod 7
    assert g1.order == g2.order == 21
    from oracles import are_isomorphic_small

    assert are_isomorphic_small(g1, g2)


# --- verification sweep


def test_verification_all_pass():
    records = run_paper_verification()
    assert records, "sweep produced no records"
    failing = [r for r in records if r.status == "fail"]
    assert failing == []
    assert {r.claim_id for r in records} == set(ALL_CLAIM_IDS)


def test_verification_sorted_deterministic():
    records = run_paper_verification(families=["frobenius"])
    keys = [(r.claim_id, r.group) for r in records]
    assert keys == sorted(keys)


def test_verification_family_filter():
    records = run_paper_verification(families=["frobenius"])
    assert records
    assert all(r.group.startswith("F:") for r in records)


def test_verification_max_order_skips():
    records = run_paper_verification(families=["frobenius"], max_order=30)
    skipped = [r for r in records if r.status == "skipped"]
    assert skipped and all("exceeds" in r.computed["skipped"] for r in skipped)
    assert {r.group for r in skipped} == {"F:3:13", "F:5:11"}


def test_verification_records_do_not_repeat():
    records = run_paper_verification()
    triples = [(r.claim_id, r.group, json.dumps(r.expected, sort_keys=True)) for r in records]
    repeated = sorted({t for t in triples if triples.count(t) > 1})
    assert repeated == []


def _ceil_div(a, b):
    return -(-a // b)


def _spectrum_rows(rows):
    return sorted([v, k] for v, k in rows if k)


_SWEEP_TM = [(t, m) for t in (1, 2, 3) for m in (3, 5, 7, 9)]
_SWEEP_PQ = ((2, 3), (2, 5), (2, 7), (3, 7), (3, 13), (5, 11))


def _expected_sides(*prefixes):
    return {(r.claim_id, r.group): r.expected for r in run_paper_verification()
            if r.claim_id.startswith(prefixes)}


def test_verification_genus_expected_sides_match_the_theorems():
    sweep_tm, sweep_pq = _SWEEP_TM, _SWEEP_PQ
    want = {}
    for t, m in sweep_tm:
        genus = m * (m - 1) * (2 ** (t - 1) - 1) ** 2 // 2 + _ceil_div((m - 3) * (m - 4), 12)
        for fam in ("D", "Q"):
            want["genus-formula-D", f"{fam}:{2 ** (t + 1) * m}"] = {"genus": genus}
    for m in (3, 5, 7, 9):  # K_m
        want["genus-formula-D", f"D:{2 * m}"] = {"genus": _ceil_div((m - 3) * (m - 4), 12)}
    for p, q in sweep_pq:
        if p == 2:
            genus = _ceil_div((q - 3) * (q - 4), 12)
        else:
            genus = (q * (q - 1) // 2) * _ceil_div((p - 3) ** 2, 4) + _ceil_div(
                (q - 3) * (q - 4), 12
            )
        want["genus-formula-F", f"F:{p}:{q}"] = {"genus": genus}

    dq_table = {(1, 3): "planar", (1, 5): "toroidal", (1, 7): "toroidal",
                (1, 9): "triple-toroidal", (2, 3): "triple-toroidal"}
    d2m_table = {3: "planar", 5: "toroidal", 7: "toroidal", 9: "triple-toroidal"}
    f_table = {(2, 3): "planar", (2, 5): "toroidal", (2, 7): "toroidal", (3, 7): "toroidal"}
    for t, m in sweep_tm:
        for fam in ("D", "Q"):
            want["genus-class-D", f"{fam}:{2 ** (t + 1) * m}"] = {
                "classification": dq_table.get((t, m), "genus >= 5")}
    for m in (3, 5, 7, 9, 11):
        want["genus-class-D", f"D:{2 * m}"] = {
            "classification": d2m_table.get(m, "genus >= 5")}
    for p, q in sweep_pq:
        want["genus-class-F", f"F:{p}:{q}"] = {
            "classification": f_table.get((p, q), "genus >= 5")}
    for spec in ("A:4", "P:(C:3)x(D:6)"):
        want["genus-class-gen", spec] = {"classification": "toroidal", "clique_at_most_4": True}

    assert _expected_sides("genus-") == want


def test_verification_energy_and_zagreb_expected_sides_match_the_theorems():
    sweep_tm, sweep_pq = _SWEEP_TM, _SWEEP_PQ
    want = {}
    # K_{a.b} of the realised families: the three spectra with d = b(a-1),
    # E = LE = LE+ = 2d, M1 = a(a-1)^2 b^3, M2 = a(a-1)^3 b^4 / 2 and
    # M2/e = M1/v = d^2
    realised = [("dq", f"{fam}:{2 ** (t + 1) * m}", m, 2**t)
                for t, m in sweep_tm for fam in ("D", "Q")]
    realised += [("d2m", f"D:{2 * m}", m, 1) for m in (3, 5, 7, 9)]
    realised += [("fpq", f"F:{p}:{q}", q, p - 1) for p, q in sweep_pq]
    for family, spec, a, b in realised:
        d = b * (a - 1)
        want[f"energy-{family}", spec] = {
            "spectrum": _spectrum_rows([(-b, a - 1), (0, a * (b - 1)), (d, 1)]),
            "laplacian_spectrum": _spectrum_rows([(0, 1), (d, a * (b - 1)), (a * b, a - 1)]),
            "signless_spectrum": _spectrum_rows(
                [(b * (a - 2), a - 1), (d, a * (b - 1)), (2 * d, 1)]),
            "E": f"{2 * d}/1",
            "LE": f"{2 * d}/1",
            "LE+": f"{2 * d}/1",
            "super_integral": True,
            "hyperenergetic": False,
            "hypoenergetic": False,
            "e_le_holds": True,
            "polys_match_closed_form": True,
        }
        if family != "d2m":
            want[f"zagreb-{family}", spec] = {
                "M1": a * (a - 1) ** 2 * b**3,
                "M2": a * (a - 1) ** 3 * b**4 // 2,
                "ratios_equal": True,
                "ratio": f"{d * d}/1",
                "hv_holds": True,
            }

    assert _expected_sides("energy-", "zagreb-") == want


def test_verification_genus_and_energy_fail_on_a_graph_that_is_not_k_a_b(monkeypatch):
    # S:4's reduced graph is not complete multipartite: the genus and energy
    # measures give a computed side that fails the claim instead of raising
    g = el.build_group("S:4")
    genus = el.verify._claim("genus-formula-D", "S:4", {"genus": 0})
    assert genus.compute() == {"genus": None} != genus.expected
    assert el.verify._measure_energy(g)["polys_match_closed_form"] is False
    # a complete multipartite graph with unequal parts has no closed form either
    monkeypatch.setattr(el.verify, "recognize_complete_multipartite",
                        lambda graph: MultipartiteShape((3, 2, 2)))
    assert genus.compute() == {"genus": None}
    assert el.verify._measure_energy(g)["polys_match_closed_form"] is False


def test_verification_computed_sides_have_the_expected_keys():
    # a claim is its expected side: every record computes exactly its keys
    records = run_paper_verification()
    assert all(r.computed.keys() == r.expected.keys() for r in records)
    # a claim whose keys are all facts is measured from FACTS alone, so its
    # computed side keeps those keys on a group that fails it: S:4 is not
    # K_{a.b} and has single arcs, A:5 is not soluble either
    facts = el.verify.FACTS
    default = [c for c in el.verify.all_claims() if c.expected.keys() <= facts.keys()]
    assert {c.claim_id for c in default} == {
        "thm-dihed", "thm-pq", "thm-bipar", "genus-formula-D", "genus-formula-F",
        "genus-class-D", "genus-class-F", "genus-class-gen", "projective",
        "directed-single-arcs",
    }
    for claim in default:
        sides = [el.verify._claim(claim.claim_id, spec, claim.expected).compute()
                 for spec in ("S:4", "A:5")]
        assert all(side.keys() == claim.expected.keys() for side in sides), claim
        assert any(side != claim.expected for side in sides), claim


def test_every_group_fact_is_named_by_a_claim():
    named = set().union(*(c.expected for c in el.verify.all_claims()))
    assert named >= el.verify.FACTS.keys()


# --- CLI


def _run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_graph_reduced_json_matches_spec_example(capsys):
    code, out, _ = _run_cli(["graph", "D:6", "--reduced", "--json"], capsys)
    assert code == 0
    assert json.loads(out) == {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}


def test_cli_graph_json_bytes_are_pinned(capsys):
    # the exact document, not only its parse: indent 2, sorted keys, LF
    pair = "    [\n      %d,\n      %d\n    ]"
    reduced = ",\n".join([pair % (0, 1), pair % (0, 2), pair % (1, 2)])
    want = '{\n  "edges": [\n' + reduced + '\n  ],\n  "n": 3\n}\n'
    assert _run_cli(["graph", "D:6", "--reduced"], capsys) == (0, want, "")
    want = '{\n  "edges": [],\n  "n": 1\n}\n'
    assert _run_cli(["graph", "C:1", "--directed"], capsys) == (0, want, "")


@pytest.mark.parametrize(
    "spec", ["D:6", " D:6 ", "S:4", "S:5", "F:3:37", "D:96", "F:5:11", "C:5", "A:6"]
)
def test_cli_analyze_bytes_are_pinned(spec, capsys):
    # D:6 is recognised (K_3), S:4 takes the null-shape branch; both run the
    # clique search, spectra and Zagreb, whose Python ints and bools reach
    # json.dumps (which raises on numpy scalars).  S:5 (119 vertices in 72
    # twin classes) has polynomials that do not split; F:3:37 (K_{37x2}, 74
    # vertices) is past the clique limit and has the ladder's largest matrix.
    # D:96 (K_{16,16,16}) and F:5:11 (K_{4x11}) are integral with twin-class
    # eigenvalues of multiplicity 45 and 33.
    # C:5 is an Engel group (the reduced-graph skip) and A:6 (359 vertices)
    # is past both the clique and the spectrum limits.  " D:6 " is accepted
    # and echoed as its canonical text, so its document is D:6's
    want = (DATA / f"analyze_{spec.strip().replace(':', '')}.json").read_text()
    assert _run_cli(["analyze", spec], capsys) == (0, want, "")


@pytest.mark.parametrize("spec", ["C:180", "D:172", "Q:180", "F:5:31", "S:4", "A:6", "S:6"])
def test_cli_group_bytes_are_pinned(spec, capsys):
    # abelian (L = G), D/Q/F with L a proper cyclic subgroup, S:4 with
    # L = V_4, and the non-soluble A:6 and S:6 with L = 1
    want = (DATA / f"group_{spec.replace(':', '')}.json").read_text()
    assert _run_cli(["group", spec], capsys) == (0, want, "")


GROUP_CENSUS_DIGESTS = json.loads((DATA / "group_census_sha256.json").read_text())


@pytest.mark.parametrize("spec", sorted(GROUP_CENSUS_DIGESTS))
def test_cli_group_census_digests_are_pinned(spec, capsys):
    # the sha256 of stdout and the exit code of every group-census command
    code, out, err = _run_cli(["group", spec], capsys)
    want = GROUP_CENSUS_DIGESTS[spec]
    assert (code, err) == (want["exit_code"], "")
    assert hashlib.sha256(out.encode()).hexdigest() == want["stdout_sha256"]


@pytest.mark.parametrize("spec", ["S:6", "A:6"])
def test_cli_group_names_only_the_left_engel_elements(spec, monkeypatch, capsys):
    # L(G) = {e}: one name is made, not one per element
    calls = []
    original = el.groups._cycle_name
    monkeypatch.setattr(el.groups, "_cycle_name", lambda p: calls.append(p) or original(p))
    el.specs._build_cached.cache_clear()
    code, out, _ = _run_cli(["group", spec], capsys)
    assert code == 0 and json.loads(out)["left_engel"]["elements"] == ["e"]
    assert len(calls) == 1


def test_product_names_each_factor_element_once(monkeypatch, capsys):
    # the 288 names of S_4 x D_12 name each of S_4's 24 elements once, and a
    # DOT export of S_4 x C_3 takes its 72 labels from those 24 names
    calls = []
    original = el.groups._cycle_name
    monkeypatch.setattr(el.groups, "_cycle_name", lambda p: calls.append(p) or original(p))
    names = el.direct_product(el.build_symmetric(4), el.build_dihedral(12)).element_names
    assert len(set(names)) == 288 and len(calls) == 24
    calls.clear()
    el.specs._build_cached.cache_clear()
    code, out, _ = _run_cli(["graph", "P:(S:4)x(C:3)", "--full", "--dot"], capsys)
    assert code == 0 and out.count("label=") == 72 and len(calls) == 24


@pytest.mark.parametrize("args, name", [
    (["S:4", "--directed"], "graph_S4_directed.json"),
    (["F:5:11", "--full", "--dot"], "graph_F511_full.dot"),
    # 103 vertices: vertex numbers of one, two and three digits
    (["D:206", "--reduced", "--dot"], "graph_D206_reduced.dot"),
])
def test_cli_graph_bytes_are_pinned(args, name, capsys):
    want = (DATA / name).read_text()
    assert _run_cli(["graph", *args], capsys) == (0, want, "")


GRAPH_EXPORT_DIGESTS = json.loads((DATA / "graph_exports_sha256.json").read_text())


@pytest.mark.parametrize("command", sorted(GRAPH_EXPORT_DIGESTS))
def test_cli_graph_export_digests_are_pinned(command, capsys):
    # every kind in both formats; the DOT labels are the element names at
    # the graph's vertex map (G \ L(G) for --reduced)
    spec, *flags = command.split(" ")
    code, out, err = _run_cli(["graph", spec, *flags], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GRAPH_EXPORT_DIGESTS[command]


@pytest.mark.parametrize("args", [
    ["S:4", "--directed"], ["A:4", "--reduced"], ["P:(S:3)x(C:2)", "--full"],
    ["F:3:7", "--directed"],
])
def test_cli_graph_json_builds_no_element_name(args, monkeypatch, capsys):
    # a JSON export prints no name, so the groups it builds never make theirs
    def refuse(*_):
        raise AssertionError("an element name was made")

    monkeypatch.setattr(el.groups, "_cycle_name", refuse)
    monkeypatch.setattr(el.groups, "_power_name", refuse)
    el.specs._build_cached.cache_clear()
    assert _run_cli(["graph", *args], capsys)[0] == 0


def test_cli_graph_dot(capsys):
    code, out, _ = _run_cli(["graph", "D:6", "--reduced", "--dot"], capsys)
    assert code == 0
    assert out.startswith('graph "D_6"') and "0 -- 1;" in out


def test_cli_graph_directed(capsys):
    code, out, _ = _run_cli(["graph", "C:3", "--directed", "--json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 3 and [0, 1] in obj["edges"] and [1, 0] in obj["edges"]


def test_cli_graph_full(capsys):
    # full co-Engel graph keeps the left Engel elements as isolated vertices
    code, out, _ = _run_cli(["graph", "D:6", "--full", "--json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 6 and len(obj["edges"]) == 3
    assert obj["edges"] == [[3, 4], [3, 5], [4, 5]]  # the three reflections


def test_cli_group_document(capsys):
    code, out, _ = _run_cli(["group", "S:4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "engel-lab/1"
    assert doc["order"] == 24
    assert doc["left_engel"]["size"] == 4
    assert doc["fitting_valid"] is True
    assert doc["soluble"] is True and doc["nilpotent"] is False
    assert doc["hypercenter_order"] == 1


def test_cli_analyze_d24(capsys):
    code, out, _ = _run_cli(["analyze", "D:24"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["shape"] == [4, 4, 4]
    assert doc["surface"]["genus"] == 3
    assert doc["spectrum"]["adjacency"]["spectrum"] == [[-4, 2], [0, 9], [8, 1]]
    assert doc["spectrum"]["energies"]["E"] == "16/1"
    assert doc["zagreb"]["M1"] == 768
    assert doc["clique_number"] == 3
    assert doc["planar"] is False


def test_cli_analyze_engel_group_reports_skip(capsys):
    code, out, _ = _run_cli(["analyze", "Q:8"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert "skipped" in doc["reduced_graph"]


def test_cli_analyze_past_spectrum_limit_reports_skip(capsys):
    code, out, _ = _run_cli(["analyze", "A:6"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["reduced_vertices"] == 359 > el.spectra.SPECTRUM_VERTEX_LIMIT
    assert doc["spectrum"] == {
        "skipped": {"reason": "359 vertices exceeds spectrum limit 200"}
    }
    assert doc["zagreb"] == el.zagreb_report(
        el.reduced_co_engel_graph(el.build_group("A:6"))
    ).to_json_obj()


def test_cli_analyze_below_spectrum_limit_carries_spectra(capsys):
    code, out, _ = _run_cli(["analyze", "D:384"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["reduced_vertices"] == 192 <= el.spectra.SPECTRUM_VERTEX_LIMIT
    assert doc["shape"] == [64, 64, 64]
    want = el.closed_form_spectra(MultipartiteShape((64, 64, 64)))
    assert doc["spectrum"] == want.to_json_obj()


def test_cli_determinism_byte_identical(capsys):
    _, out1, _ = _run_cli(["analyze", "F:3:7"], capsys)
    _, out2, _ = _run_cli(["analyze", "F:3:7"], capsys)
    assert out1 == out2
    _, g1, _ = _run_cli(["group", "D:24"], capsys)
    _, g2, _ = _run_cli(["group", "D:24"], capsys)
    assert g1 == g2


def test_cli_max_order_skip_document(capsys):
    code, out, _ = _run_cli(["group", "S:4", "--max-order", "20"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["skipped"]["reason"].startswith("order 24 exceeds")
    _, out, _ = _run_cli(["group", " S:4 ", "--max-order", "20"], capsys)
    assert json.loads(out)["spec"] == "S:4"


def test_cli_max_order_is_decided_before_the_build(monkeypatch, capsys):
    # the table of C:100000 would take about 10 GB
    def refuse(spec):
        raise AssertionError(f"built {spec} past --max-order")

    monkeypatch.setattr(engel_lab.cli, "build_group", refuse)
    code, out, _ = _run_cli(["group", "C:100000", "--max-order", "10"], capsys)
    assert code == 0
    assert json.loads(out)["skipped"] == {"reason": "order 100000 exceeds --max-order 10"}


@pytest.mark.parametrize("spec", ["C:100000", "D:5042", "P:(S:6)x(D:10)"])
def test_cli_refuses_orders_above_the_limit_before_the_build(spec, monkeypatch, capsys):
    # C:100000's table would take about 10 GB; the limit is S:7's order 5040
    def refuse(*args):
        raise AssertionError(f"built a table for {spec}")

    monkeypatch.setattr(engel_lab.groups, "_finalize", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["group", spec])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"usage error: {spec} has order ") and "above the limit 5040" in out.err


def test_cli_max_order_skips_specs_a_builder_would_refuse(capsys):
    # D:9 is no dihedral group, but its order 9 is read from the spec
    code, out, _ = _run_cli(["graph", "D:9", "--reduced", "--max-order", "5"], capsys)
    assert code == 0
    assert json.loads(out)["skipped"] == {"reason": "order 9 exceeds --max-order 5"}
    with pytest.raises(SystemExit) as exc:
        main(["graph", "D:9", "--reduced"])
    assert exc.value.code == 2


@pytest.mark.parametrize("spec", ["S:7", "A:1000000", "P:(C:2)x(S:-1)"])
def test_cli_max_order_refuses_unsupported_degrees_before_the_factorial(spec, capsys):
    for argv in (["group", spec], ["group", spec, "--max-order", "10"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "supported for 2 <= n <= 6" in capsys.readouterr().err


def test_verification_refuses_unknown_families():
    with pytest.raises(ValueError, match="unknown families dihedrals, frob") as exc:
        run_paper_verification(families=["frob", "dihedral", "dihedrals"])
    assert all(name in str(exc.value) for name in FAMILY_NAMES.values())


def test_cli_verify_paper_unknown_family_is_a_usage_error(capsys):
    code, out, err = _run_cli(["verify-paper", "--families", "dihedrals"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: unknown families dihedrals;")


@pytest.mark.parametrize("families", [",", "", " , "])
def test_cli_verify_paper_family_filter_naming_no_family_is_a_usage_error(families, capsys):
    # an empty filter must not read as no filter, which would run every record
    code, out, err = _run_cli(["verify-paper", "--families", families], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: the family filter names no family;")
    with pytest.raises(ValueError, match="names no family"):
        run_paper_verification(families=[])


def test_cli_verify_paper_csv(capsys):
    code, out, err = _run_cli(
        ["verify-paper", "--families", "frobenius", "--max-order", "25"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "claim_id,group,expected,computed,status"
    assert all(line.endswith(("pass", "skipped")) for line in lines[1:])
    assert "records:" in err


def test_cli_verify_paper_json(capsys):
    code, out, _ = _run_cli(
        ["verify-paper", "--families", "frobenius", "--max-order", "25", "--out", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "engel-lab/1"
    assert all(r["status"] in ("pass", "skipped") for r in doc["records"])
    _, out2, _ = _run_cli(
        ["verify-paper", "--families", "frobenius", "--max-order", "25", "--out", "json"],
        capsys,
    )
    assert out == out2  # byte-identical across runs


def test_cli_verify_paper_bytes_are_pinned(capsys):
    # the golden CSV holds one line per record, so a mismatch names the record
    want = (DATA / "verify_paper.csv").read_text()
    code, out, _ = _run_cli(["verify-paper"], capsys)
    assert code == 0
    assert out.splitlines() == want.splitlines()
    assert out == want
    code, out, _ = _run_cli(["verify-paper", "--out", "json"], capsys)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "73c7da92d898fc9941afaa89ee402398b1e299d866aead3a3c31870ac5687c8b"


def test_cli_sweep_single_arcs(capsys):
    code, out, _ = _run_cli(["sweep-single-arcs", "--max-order", "24"], capsys)
    assert code == 0
    doc = json.loads(out)
    by_group = {r["group"]: r for r in doc["groups"]}
    assert by_group["S:4"]["empty"] is False
    assert by_group["D:24"]["empty"] is True
    assert by_group["F:3:7"]["empty"] is True
    nonempty = [g for g, r in by_group.items() if not r["empty"]]
    assert nonempty == ["S:4"]  # survey-frozen: only S_4 up to order 24


SWEEP_DIGESTS = json.loads((DATA / "sweep_single_arcs_sha256.json").read_text())


@pytest.mark.parametrize("max_order", sorted(SWEEP_DIGESTS, key=int))
def test_cli_sweep_single_arcs_digests_are_pinned(max_order, capsys):
    # the sha256 of stdout and the exit code of the whole survey document
    code, out, err = _run_cli(["sweep-single-arcs", "--max-order", max_order], capsys)
    want = SWEEP_DIGESTS[max_order]
    assert (code, err) == (want["exit_code"], "")
    assert hashlib.sha256(out.encode()).hexdigest() == want["stdout_sha256"]


def test_cli_graph_reduced_of_engel_group_usage_error(capsys):
    code = main(["graph", "Q:8", "--reduced"])
    assert code == 2
    assert "empty vertex set" in capsys.readouterr().err


def test_cli_invalid_spec_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["group", "D:7"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "D:7" in err


def test_cli_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["graph", "D:6", "--bogus"])
    assert exc.value.code == 2


def test_cli_graph_requires_kind():
    with pytest.raises(SystemExit) as exc:
        main(["graph", "D:6"])
    assert exc.value.code == 2


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "engel_lab.cli", "group", "C:4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["nilpotent"] is True


def test_cli_import_leaves_networkx_unloaded():
    # only is_planar needs networkx, and it imports it only for a graph that
    # is not complete multipartite and is within Euler's bound
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, engel_lab.cli; print('networkx' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n")


@pytest.mark.parametrize("argv", [
    ["verify-paper"], ["sweep-single-arcs"], ["group", "S:6"], ["analyze", "D:6"],
    ["analyze", "D:12"],
])
def test_commands_leave_networkx_unloaded(argv):
    # every graph these commands test with is_planar (the "planar" fact of
    # D:6, D:12, Q:12 and A:4, and analyze's) is complete multipartite, so
    # the part-size rule decides it before networkx would be imported
    script = (
        "import io, sys, contextlib, engel_lab.cli as c\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = c.main({argv!r})\n"
        "print(code, 'networkx' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "0 False\n")


def test_group_and_graph_commands_leave_numpy_ma_unloaded():
    # np.unique imports numpy.ma (about 1 MB) on first use; the structure
    # functions and graph views find sets of elements with np.bincount
    script = (
        "import io, sys, contextlib, engel_lab.cli as c\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['group', 'S:4'], ['group', 'A:5'], ['graph', 'D:12', '--reduced']):\n"
        "        c.main(argv)\n"
        "print('numpy.ma' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_cli_verify_paper_exit_one_on_failure(capsys, monkeypatch):
    from engel_lab import verify as verify_mod
    from engel_lab.verify import Claim

    real = verify_mod.all_claims

    def with_bogus_claim():
        return real()[:3] + [
            Claim("thm-dihed", "D:6", {"parts": [9]}, lambda: {"parts": [1, 1, 1]})
        ]

    monkeypatch.setattr(verify_mod, "all_claims", with_bogus_claim)
    import engel_lab.cli as cli_mod

    code = cli_mod.main(["verify-paper"])
    out = capsys.readouterr()
    assert code == 1
    assert ",fail" in out.out


@given(
    family=st.sampled_from(["C", "D", "Q", "F"]),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_spec_canonical_round_trip_property(family, data):
    if family == "C":
        spec = GroupSpec("C", (data.draw(st.integers(1, 30)),))
    elif family == "D":
        spec = GroupSpec("D", (2 * data.draw(st.integers(2, 30)),))
    elif family == "Q":
        spec = GroupSpec("Q", (4 * data.draw(st.integers(2, 15)),))
    else:
        p, q = data.draw(st.sampled_from([(2, 3), (2, 5), (3, 7), (3, 13)]))
        spec = GroupSpec("F", (p, q))
    assert parse_group_spec(spec.canonical()) == spec
