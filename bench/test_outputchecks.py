"""Tests of the benchmark itself: every output check passes on the program's
real output and fails on a deliberately corrupted copy; the model groups
agree with the program's tables; the tracer sees calls made through names
bound by ``from .x import y`` and puts every original back; the speed
sampler scales only what ran inside the timed intervals.

    python3 -m pytest bench/test_outputchecks.py
"""

from __future__ import annotations

import copy
import io
import json
import random
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import engel_lab  # noqa: E402
import engel_lab.cli  # noqa: E402
import engel_lab.verify  # noqa: E402
import groupmodel as gm  # noqa: E402
import layertrace  # noqa: E402
import outputchecks as oc  # noqa: E402
import run as bench_run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert engel_lab.cli.main(argv) == 0
    return buf.getvalue()


def make_ctx(graphs: dict[str, str] | None = None) -> oc.Context:
    """``graphs`` replaces the program's reduced graph of a spec."""

    def fetch(argv):
        if graphs and argv[0] == "graph" and argv[1] in graphs:
            return graphs[argv[1]]
        return run_cli(argv)

    return oc.Context(fetch, lambda: len(engel_lab.verify.all_claims()), random.Random(0))


def names(errors: list[str]) -> set[str]:
    return {e.split(":", 1)[0] for e in errors}


def dumps(doc) -> str:
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# the model the checks trust


@pytest.mark.parametrize("spec", ["C:9", "D:12", "D:16", "Q:8", "Q:24", "F:3:7",
                                  "F:5:11", "S:4", "A:4", "P:(C:3)x(D:6)",
                                  "P:(C:2)x(C:3)x(D:6)"])
def test_model_matches_program_tables(spec):
    g = engel_lab.build_group(spec)
    m = gm.model_group(gm.parse_spec(spec))
    assert (m.order, m.identity) == (g.order, g.identity)
    assert all(m.mul(a, b) == g.table[a][b] for a in range(g.order) for b in range(g.order))
    assert [m.inv(a) for a in range(g.order)] == list(g.inverse)
    assert gm.left_engel_members(m) == sorted(engel_lab.left_engel_set(g))


def test_closed_forms_match_program():
    for a, b in [(3, 2), (5, 1), (7, 4), (2, 6)]:
        forms = gm.multipartite_forms(a, b)
        rep = engel_lab.closed_form_spectra(engel_lab.MultipartiteShape((b,) * a))
        js = rep.to_json_obj()
        assert forms["adjacency"] == js["adjacency"]["spectrum"]
        assert forms["laplacian"] == js["laplacian"]["spectrum"]
        assert forms["signless"] == js["signless_laplacian"]["spectrum"]
        assert forms["energy"] == js["energies"]["E"]
        assert (forms["M1"], forms["M2"]) == engel_lab.zagreb_closed_form(a, b)


# ---------------------------------------------------------------------------
# verify-paper


@pytest.fixture(scope="module")
def verify_doc():
    return json.loads(run_cli(["verify-paper", "--out", "json"]))


def test_verify_checks(verify_doc):
    ctx = make_ctx()
    assert oc.check_verify_paper(dumps(verify_doc), ctx) == []

    dropped = copy.deepcopy(verify_doc)
    dropped["records"].pop()
    assert "verify.count" in names(oc.check_verify_paper(dumps(dropped), ctx))

    failed = copy.deepcopy(verify_doc)
    failed["records"][0]["status"] = "fail"
    assert "verify.status" in names(oc.check_verify_paper(dumps(failed), ctx))

    wrong = copy.deepcopy(verify_doc)
    rec = next(r for r in wrong["records"] if r["claim_id"] == "zagreb-dq")
    rec["expected"]["M1"] += 1
    rec["computed"]["M1"] += 1
    assert names(oc.check_verify_paper(dumps(wrong), ctx)) == {"verify.formula"}


# ---------------------------------------------------------------------------
# analyze


def _analyze_errors(spec: str, mutate=None, graphs=None) -> set[str]:
    doc = json.loads(run_cli(["analyze", spec]))
    if mutate:
        mutate(doc)
    return names(oc.check_analyze(spec, dumps(doc), make_ctx(graphs)))


def _set(path, value):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return mutate


def test_analyze_checks_pass():
    for spec in ("D:24", "F:3:7", "P:(C:3)x(D:6)", "A:4", "S:4"):
        assert _analyze_errors(spec) == set(), spec


def test_analyze_checks_fail_on_corruption():
    poly = ("spectrum", "adjacency", "poly")
    assert "analyze.vertices" in _analyze_errors(
        "D:24", _set(("reduced_vertices",), lambda v: v + 1))
    assert "analyze.graph" in _analyze_errors("D:24", _set(("reduced_edges",), lambda v: v + 1))
    assert "analyze.charpoly" in _analyze_errors(
        "D:24", _set(poly, lambda c: c[:-2] + ["7", "1"]))
    # a low coefficient: caught by the product over the integral spectrum
    assert _analyze_errors("D:24", _set(("spectrum", "laplacian", "poly"),
                                        lambda c: [c[0], str(int(c[1]) + 1)] + c[2:])) \
        == {"analyze.charpoly"}
    # c_{n-3} = -2 * triangles, from the traces, where the spectrum is not integral
    assert _analyze_errors("S:4", _set(poly, lambda c: c[:-4] + [str(int(c[-4]) + 2)] + c[-3:])) \
        == {"analyze.charpoly"}
    assert "analyze.eigvalsh" in _analyze_errors(
        "A:4", _set(("spectrum", "laplacian", "spectrum"), [[0, 1], [4, 7]]))
    assert "analyze.shape" in _analyze_errors("D:24", _set(("shape",), [4, 4, 2, 2]))
    assert "analyze.clique" in _analyze_errors("D:24", _set(("clique_number",), 4))
    skipped = {"skipped": {"reason": "12 vertices exceeds clique limit 10"}}
    assert "analyze.clique" in _analyze_errors("D:24", _set(("clique_number",), skipped))
    assert "analyze.closed_form" in _analyze_errors(
        "D:24", _set(("spectrum", "energies", "E"), "17/1"))
    assert "analyze.zagreb" in _analyze_errors("D:24", _set(("zagreb", "M1"), lambda v: v + 2))

    # A:4's reduced graph with one edge moved: same counts, wrong pairs.
    graph = json.loads(run_cli(["graph", "A:4", "--reduced"]))
    present = {tuple(e) for e in graph["edges"]}
    absent = next((i, j) for i in range(graph["n"]) for j in range(i + 1, graph["n"])
                  if (i, j) not in present)
    graph["edges"] = sorted(graph["edges"][1:] + [list(absent)])
    assert "graph.pairs" in _analyze_errors("A:4", graphs={"A:4": dumps(graph)})


# ---------------------------------------------------------------------------
# graph


def _graph(spec: str, kind: str) -> dict:
    return json.loads(run_cli(["graph", spec, f"--{kind}"]))


def _graph_errors(spec: str, kind: str, doc: dict) -> set[str]:
    return names(oc.check_graph(spec, kind, dumps(doc), make_ctx()))


def test_graph_checks_pass():
    for spec, kind in [("D:12", "directed"), ("D:16", "directed"), ("F:3:7", "full"),
                       ("F:3:7", "directed"), ("A:4", "reduced"), ("S:4", "directed"),
                       ("P:(C:3)x(D:6)", "reduced")]:
        assert _graph_errors(spec, kind, _graph(spec, kind)) == set(), (spec, kind)
    full, dig = (run_cli(["graph", "F:3:7", f"--{k}"]) for k in ("full", "directed"))
    assert oc.check_complement("F:3:7", full, dig) == []


def test_graph_checks_fail_on_corruption():
    doc = _graph("D:12", "directed")
    assert _graph_errors("D:12", "directed", {**doc, "n": doc["n"] + 1}) >= {"graph.size"}
    assert _graph_errors("D:12", "directed",
                         {**doc, "edges": doc["edges"] + doc["edges"][:1]}) == {"graph.structure"}
    assert _graph_errors("D:12", "directed",
                         {**doc, "edges": doc["edges"][::2]}) >= {"graph.pairs"}

    nil = _graph("D:16", "directed")
    assert "graph.complete" in _graph_errors("D:16", "directed", {**nil, "edges": nil["edges"][1:]})

    dig = _graph("F:3:7", "directed")
    both = sorted({tuple(a) for a in dig["edges"]} | {(j, i) for i, j in dig["edges"]})
    assert "graph.single_arcs" in _graph_errors("F:3:7", "directed",
                                                {**dig, "edges": [list(a) for a in both]})

    full = _graph("F:3:7", "full")
    cut = dumps({**full, "edges": full["edges"][1:]})
    assert names(oc.check_complement("F:3:7", cut, dumps(dig))) == {"graph.complement"}


# ---------------------------------------------------------------------------
# group


def _group_errors(spec: str, mutate=None) -> set[str]:
    doc = json.loads(run_cli(["group", spec]))
    if mutate:
        mutate(doc)
    return names(oc.check_group(spec, dumps(doc)))


def test_group_checks_pass():
    for spec in ("C:12", "D:12", "Q:16", "F:5:11", "S:4", "A:5", "P:(S:3)x(C:4)"):
        assert _group_errors(spec) == set(), spec


def test_group_checks_fail_on_corruption():
    def bump_census(doc):
        doc["order_census"][-1][1] += 1

    def move_census(doc):  # same total, wrong distribution
        doc["order_census"][-1][1] += 1
        doc["order_census"][-2][1] -= 1

    assert _group_errors("D:12", _set(("order",), 13)) == {"group.order"}
    assert _group_errors("D:12", bump_census) == {"group.census"}
    assert _group_errors("C:12", move_census) == {"group.census"}
    assert _group_errors("D:12", _set(("nilpotent",), True)) >= {"group.rules"}
    assert _group_errors("S:4", _set(("soluble",), False)) == {"group.rules"}
    assert _group_errors("D:12", _set(("left_engel", "size"), 4)) == {"group.left_engel"}
    assert "group.nilpotent_engel" in _group_errors("C:12", _set(("left_engel", "size"), 6))
    assert _group_errors("D:12", _set(("fitting_valid",), False)) == {"group.fitting_valid"}
    assert _group_errors("D:12", _set(("hypercenter_order",), 12)) == {"group.hypercenter"}


# ---------------------------------------------------------------------------
# workloads and tracing


def test_operations_follow_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.operations(w, 3) == workloads.operations(w, 3)
    census = [workloads.operations("group-census", s) for s in range(5)]
    assert len({tuple(sorted(map(tuple, ops))) for ops in census}) == 1
    assert len({tuple(map(tuple, ops)) for ops in census}) == 5


def test_failed_command_makes_the_run_incorrect(tmp_path):
    ops = [["group", "C:6"], ["group", "C:0"]]
    bench = bench_run.Bench("group-census", ops, seed=0, seconds=0, trace=False, probes=0,
                            keep_dir=tmp_path)
    with redirect_stderr(io.StringIO()):
        bench.run()
    rounds = bench_run.MIN_ROUNDS
    assert (bench.attempted, bench.failed) == (2 * rounds, rounds)
    errors = bench.check()
    assert names(errors) == {"failed"} and len(errors) == 2
    # only the command that succeeded is timed, in every round
    assert [len(r) for r in bench.rounds["plain"]] == [1] * rounds


def test_speed_scaling_takes_samples_inside_the_intervals_only():
    sampler = speed.SpeedSampler()
    nominal = speed.NOMINAL_S
    sampler.samples = [(0.5, nominal), (1.5, 2 * nominal), (2.5, 8 * nominal), (3.5, nominal)]
    net, scaled = sampler.measure([(0.0, 2.0), (3.0, 4.0)])
    assert net == pytest.approx(3.0 - 4 * nominal)
    # speeds 1, 1/2 and 1 relative to nominal
    assert scaled == pytest.approx(net * (2.5 / 3))
    with pytest.raises(RuntimeError):
        sampler.measure([(4.0, 5.0)])


def test_speed_sampler_samples_while_started_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            speed.reference_loop()
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 5
    net, scaled = sampler.measure([(start, end)])
    assert 0 < net < end - start and scaled > 0


def test_tracer_sees_rebound_names_and_restores_them():
    caches = layertrace.lru_caches()
    assert ("specs", "_build_cached") in caches
    tracer = layertrace.LayerTracer(caches)
    originals = (engel_lab.cli.spectrum_report, engel_lab.spectra.char_poly_exact,
                 engel_lab.verify.build_group)
    layertrace.clear_caches(caches)
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()) as out:
            tracer.call(layertrace.ROOT_LAYER, engel_lab.cli.main, ["analyze", "D:24"])
        tracer.end_op(len(out.getvalue()))
    finally:
        tracer.uninstall()
    assert (engel_lab.cli.spectrum_report, engel_lab.spectra.char_poly_exact,
            engel_lab.verify.build_group) == originals
    metrics = tracer.round_metrics()
    assert metrics["spectra.charpolys"] == 3
    assert metrics["spectra.matrix_n_max"] == 12
    assert metrics["specs.groups_built"] == 1
    assert metrics["specs.table_entries"] == 24 * 24
    assert metrics["engel.graphs_built"] == 1 and metrics["engel.graph_calls"] == 2
    assert metrics["engel.vertex_pairs"] == 12 * 11 // 2
    assert metrics["cli.output_bytes"] == len(out.getvalue())
    assert metrics["spectra.charpoly_s"] > 0 and metrics["cli.self_s"] > 0
    total = sum(tracer.self_time.values())
    root = next(s for s in tracer.spans if s[1] is None)
    assert total == pytest.approx(root[5] - root[4])
