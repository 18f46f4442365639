"""Group specs and the command-line interface."""

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
    ["", "D", "D:", "D:abc", "X:4", "P:(C:3)", "P:(C:3)y(D:6)", "P:(C:3", "F:3", "D:2:4"],
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


def test_verification_genus_expected_sides_match_the_theorems():
    sweep_tm = [(t, m) for t in (1, 2, 3) for m in (3, 5, 7, 9)]
    sweep_pq = ((2, 3), (2, 5), (2, 7), (3, 7), (3, 13), (5, 11))
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

    got = {(r.claim_id, r.group): r.expected for r in run_paper_verification()
           if r.claim_id.startswith("genus-")}
    assert got == want


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


@pytest.mark.parametrize("spec", ["D:6", "S:4", "S:5", "F:3:37"])
def test_cli_analyze_bytes_are_pinned(spec, capsys):
    # D:6 is recognised (K_3), S:4 takes the null-shape branch; both run the
    # clique search, spectra and Zagreb, whose Python ints and bools reach
    # json.dumps (which raises on numpy scalars).  S:5 (119 vertices in 72
    # twin classes) has polynomials that do not split; F:3:37 (K_{37x2}, 74
    # vertices) is past the clique limit and has the ladder's largest matrix
    want = (DATA / f"analyze_{spec.replace(':', '')}.json").read_text()
    assert _run_cli(["analyze", spec], capsys) == (0, want, "")


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


def test_cli_max_order_is_decided_before_the_build(monkeypatch, capsys):
    # the table of C:100000 would take about 10 GB
    def refuse(spec):
        raise AssertionError(f"built {spec} past --max-order")

    monkeypatch.setattr(engel_lab.cli, "build_group", refuse)
    code, out, _ = _run_cli(["group", "C:100000", "--max-order", "10"], capsys)
    assert code == 0
    assert json.loads(out)["skipped"] == {"reason": "order 100000 exceeds --max-order 10"}


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
    # only is_planar needs networkx, and it imports it past Euler's bound
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, engel_lab.cli; print('networkx' in sys.modules)"],
        capture_output=True,
        text=True,
    )
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
