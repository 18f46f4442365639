"""Checks of the program's outputs against computations made apart from it.

Every check returns a list of failures, each ``"<check>: <detail>"``; an
empty list means the output passed.  The expected values come from
``groupmodel`` (group arithmetic without the program's tables, Baer's
theorem, the paper's shape theorems and the closed forms of K_{a.b}),
from ``numpy.linalg.eigvalsh`` and from properties every correct output
has.  ``run_cli`` fetches a further program output where a check needs one,
such as the reduced graph behind an ``analyze`` document.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import groupmodel as gm

INTEGRAL_TOLERANCE = 1e-6
SAMPLES = 300  # vertex pairs recomputed per graph
# ``analyze`` may skip the clique search only past this many reduced
# vertices (``analysis.CLIQUE_VERTEX_LIMIT`` when the benchmark was written).
CLIQUE_VERTEX_LIMIT = 64


@dataclass
class Context:
    run_cli: Callable[[list[str]], str]
    claim_count: Callable[[], int]
    rng: random.Random


def _expect(errors: list[str], name: str, ok: bool, detail: str) -> None:
    if not ok:
        errors.append(f"{name}: {detail}")


# ---------------------------------------------------------------------------
# verify-paper


def _record_formula_errors(rec: dict) -> list[str]:
    """The expected side of a record, recomputed from the paper's formulas
    where this module has them (shape, energy, Zagreb, L(G), directed)."""
    errors: list[str] = []
    cid, exp = rec["claim_id"], rec["expected"]
    spec = gm.parse_spec(rec["group"])
    where = f"{cid} {rec['group']}"
    if cid.startswith("thm-") and "parts" in exp:
        _expect(errors, "verify.formula", exp["parts"] == gm.theorem_parts(spec),
                f"{where} parts {exp['parts']}")
    if cid.startswith(("energy-", "zagreb-")):
        parts = gm.theorem_parts(spec)
        forms = gm.multipartite_forms(len(parts), parts[0])
        want = {
            "spectrum": forms["adjacency"],
            "laplacian_spectrum": forms["laplacian"],
            "signless_spectrum": forms["signless"],
            "E": forms["energy"], "LE": forms["energy"], "LE+": forms["energy"],
            "M1": forms["M1"], "M2": forms["M2"],
            "ratio": f"{forms['degree'] ** 2}/1",
        }
        for key, value in want.items():
            if key in exp:
                _expect(errors, "verify.formula", exp[key] == value,
                        f"{where} {key} {exp[key]!r} != {value!r}")
    if cid == "left-engel":
        _expect(errors, "verify.formula", exp["size"] == gm.fitting_order(spec),
                f"{where} size {exp['size']}")
    if cid == "directed-single-arcs":
        nil, sol = gm.is_nilpotent(spec), gm.is_soluble(spec)
        want = {"nilpotent": nil, "soluble": sol, "complete_digraph": nil,
                "has_single_arc": sol and not nil}
        for key, value in want.items():
            if key in exp:
                _expect(errors, "verify.formula", exp[key] == value,
                        f"{where} {key} {exp[key]!r} != {value!r}")
    return errors


def check_verify_paper(text: str, ctx: Context) -> list[str]:
    errors: list[str] = []
    doc = json.loads(text)
    records = doc["records"]
    _expect(errors, "verify.count", len(records) == ctx.claim_count(),
            f"{len(records)} records for {ctx.claim_count()} claims")
    for rec in records:
        _expect(errors, "verify.status",
                rec["status"] == "pass" and rec["expected"] == rec["computed"],
                f"{rec['claim_id']} {rec['group']} is {rec['status']}")
        errors += _record_formula_errors(rec)
    return errors


# ---------------------------------------------------------------------------
# graphs


def _sample_pairs(n: int, ctx: Context) -> list[tuple[int, int]]:
    if n < 2:
        return []
    return [tuple(ctx.rng.sample(range(n), 2)) for _ in range(SAMPLES)]


def _vertex_elements(g: gm.ModelGroup, kind: str) -> list[int]:
    if kind != "reduced":
        return list(range(g.order))
    lset = set(gm.left_engel_members(g))
    return [x for x in range(g.order) if x not in lset]


def check_graph(spec_text: str, kind: str, text: str, ctx: Context) -> list[str]:
    """A ``graph`` export: size, well-formed edge list, a seeded sample of
    vertex pairs recomputed with the model's arithmetic, and the directed
    graph's shape for nilpotent and for soluble non-nilpotent groups."""
    errors: list[str] = []
    spec = gm.parse_spec(spec_text)
    g = gm.model_group(spec)
    doc = json.loads(text)
    n, edges = doc["n"], [tuple(e) for e in doc["edges"]]
    kept = _vertex_elements(g, kind)
    want_n = gm.order(spec) - (gm.fitting_order(spec) if kind == "reduced" else 0)
    _expect(errors, "graph.size", n == len(kept) == want_n,
            f"{spec_text} {kind}: n={n}, expected {want_n}")
    edge_set = set(edges)
    directed = kind == "directed"
    _expect(errors, "graph.structure",
            len(edge_set) == len(edges)
            and all(0 <= i < n and 0 <= j < n and (i != j if directed else i < j)
                    for i, j in edges),
            f"{spec_text} {kind}: malformed or repeated edges")
    if errors:
        return errors
    bad = []
    for i, j in _sample_pairs(n, ctx):
        x, y = kept[i], kept[j]
        if directed:
            want = g.engel_terminates(y, x)  # arc x -> y iff [y, _k x] = 1
            got = (i, j) in edge_set
        else:
            want = not g.engel_terminates(x, y) and not g.engel_terminates(y, x)
            got = (min(i, j), max(i, j)) in edge_set
        if want != got:
            bad.append((i, j))
    _expect(errors, "graph.pairs", not bad,
            f"{spec_text} {kind}: {len(bad)} sampled pairs disagree, e.g. {bad[:3]}")
    if directed and gm.is_nilpotent(spec):
        _expect(errors, "graph.complete", len(edges) == n * (n - 1),
                f"{spec_text}: nilpotent but {len(edges)} arcs of {n * (n - 1)}")
    if directed and gm.is_soluble(spec) and not gm.is_nilpotent(spec):
        single = any((j, i) not in edge_set for i, j in edges)
        _expect(errors, "graph.single_arcs", single,
                f"{spec_text}: soluble non-nilpotent without a single arc")
    return errors


def check_complement(spec_text: str, full_text: str, directed_text: str) -> list[str]:
    """The full co-Engel graph is the complement of directed u reversed."""
    full, dig = json.loads(full_text), json.loads(directed_text)
    n = dig["n"]
    arcs = {tuple(a) for a in dig["edges"]}
    want = {(i, j) for i in range(n) for j in range(i + 1, n)
            if (i, j) not in arcs and (j, i) not in arcs}
    ok = full["n"] == n and {tuple(e) for e in full["edges"]} == want
    return [] if ok else [f"graph.complement: {spec_text} full graph is not the "
                          "complement of the directed graph and its reverse"]


# ---------------------------------------------------------------------------
# analyze


def _poly_from_roots(roots: list) -> list[int]:
    """Coefficients, lowest first, of the product of (x - r)^m over [r, m]."""
    coeffs = [1]
    for r, m in roots:
        for _ in range(m):
            coeffs = [(coeffs[k - 1] if k else 0) - r * (coeffs[k] if k < len(coeffs) else 0)
                      for k in range(len(coeffs) + 1)]
    return coeffs


def _leading_coefficients(matrix: np.ndarray) -> list[int]:
    """c_n, c_{n-1}, c_{n-2}, c_{n-3} of det(xI - M), from the traces of M,
    M^2 and M^3 by Newton's identities, in exact integers."""
    m = matrix.astype(object)
    m2 = m.dot(m)
    p1, p2, p3 = int(m.trace()), int(m2.trace()), int((m2 * m.T).sum())
    e2 = (p1 * p1 - p2) // 2
    e3 = (p1 ** 3 - 3 * p1 * p2 + 2 * p3) // 6
    return [1, -p1, e2, -e3]


def _spectrum_errors(name: str, matrix: np.ndarray, report: dict) -> list[str]:
    """``report`` is one matrix's entry of a spectrum document: its exact
    polynomial and, where integral, its spectrum."""
    errors: list[str] = []
    n = len(matrix)
    poly, claimed = [int(c) for c in report["poly"]], report["spectrum"]
    top = _leading_coefficients(matrix)[:n + 1]
    _expect(errors, "analyze.charpoly",
            len(poly) == n + 1 and poly[::-1][:len(top)] == top,
            f"{name}: leading coefficients {poly[::-1][:len(top)]}, traces give {top}")
    values = np.linalg.eigvalsh(matrix.astype(float))
    rounded = np.rint(values)
    integral = bool(np.all(np.abs(values - rounded) < INTEGRAL_TOLERANCE))
    if claimed is None:
        _expect(errors, "analyze.eigvalsh", not integral,
                f"{name} spectrum is integral but reported as not")
        return errors
    got = [list(p) for p in sorted(Counter(int(v) for v in rounded).items())]
    _expect(errors, "analyze.eigvalsh", integral and got == claimed,
            f"{name} {claimed} != {got}")
    _expect(errors, "analyze.charpoly", poly == _poly_from_roots(claimed),
            f"{name}: polynomial is not the product over its spectrum")
    return errors


def check_analyze(spec_text: str, text: str, ctx: Context) -> list[str]:
    errors: list[str] = []
    spec = gm.parse_spec(spec_text)
    doc = json.loads(text)
    graph_text = ctx.run_cli(["graph", spec_text, "--reduced"])
    graph = json.loads(graph_text)
    n, e = doc["reduced_vertices"], doc["reduced_edges"]
    _expect(errors, "analyze.vertices",
            doc["order"] == gm.order(spec)
            and n == gm.order(spec) - gm.fitting_order(spec),
            f"{spec_text}: order {doc['order']}, {n} reduced vertices")
    _expect(errors, "analyze.graph", graph["n"] == n and len(graph["edges"]) == e,
            f"{spec_text}: analyze reports {n}/{e}, graph has "
            f"{graph['n']}/{len(graph['edges'])}")
    errors += check_graph(spec_text, "reduced", graph_text, ctx)

    spectrum = doc["spectrum"]
    adj = np.zeros((graph["n"], graph["n"]), dtype=np.int64)
    for i, j in graph["edges"]:
        adj[i, j] = adj[j, i] = 1
    deg = np.diag(adj.sum(axis=1))
    for key, matrix in (("adjacency", adj), ("laplacian", deg - adj),
                        ("signless_laplacian", deg + adj)):
        errors += _spectrum_errors(f"{spec_text} {key}", matrix, spectrum[key])

    parts = gm.theorem_parts(spec)
    if parts is None:
        return errors
    a, b = len(parts), parts[0]
    forms = gm.multipartite_forms(a, b)
    _expect(errors, "analyze.shape", doc["shape"] == parts,
            f"{spec_text}: shape {doc['shape']}, theorem {parts}")
    clique = doc["clique_number"]
    skipped = isinstance(clique, dict) and n > CLIQUE_VERTEX_LIMIT
    _expect(errors, "analyze.clique", skipped or clique == a,
            f"{spec_text}: clique number {clique}, {a} parts, {n} vertices")
    got = {
        "n": spectrum["n"], "edges": spectrum["edges"],
        "adjacency": spectrum["adjacency"]["spectrum"],
        "laplacian": spectrum["laplacian"]["spectrum"],
        "signless": spectrum["signless_laplacian"]["spectrum"],
        "energies": spectrum["energies"],
    }
    want = {
        "n": forms["n"], "edges": forms["edges"],
        "adjacency": forms["adjacency"], "laplacian": forms["laplacian"],
        "signless": forms["signless"],
        "energies": {"E": forms["energy"], "LE": forms["energy"], "LE+": forms["energy"]},
    }
    for key in want:
        _expect(errors, "analyze.closed_form", got[key] == want[key],
                f"{spec_text} {key}: {got[key]} != {want[key]}")
    zagreb = doc["zagreb"]
    _expect(errors, "analyze.zagreb",
            (zagreb["M1"], zagreb["M2"]) == (forms["M1"], forms["M2"]),
            f"{spec_text}: M1/M2 {zagreb['M1']}/{zagreb['M2']}, closed form "
            f"{forms['M1']}/{forms['M2']}")
    return errors


# ---------------------------------------------------------------------------
# group


def check_group(spec_text: str, text: str) -> list[str]:
    errors: list[str] = []
    spec = gm.parse_spec(spec_text)
    g = gm.model_group(spec)
    doc = json.loads(text)
    order = gm.order(spec)
    nilpotent, soluble = gm.is_nilpotent(spec), gm.is_soluble(spec)
    _expect(errors, "group.order", doc["order"] == order, f"{spec_text}: order {doc['order']}")
    census = {k: v for k, v in doc["order_census"]}
    model = dict(Counter(g.element_order(x) for x in range(g.order)))
    _expect(errors, "group.census", sum(census.values()) == order and census == model,
            f"{spec_text}: census {census} != {model}")
    if spec.family == "C":
        n = spec.params[0]
        phi = {d: gm.totient(d) for d in range(1, n + 1) if n % d == 0}
        _expect(errors, "group.census", census == phi, f"{spec_text}: census is not phi(d)")
    _expect(errors, "group.rules",
            doc["nilpotent"] == nilpotent and doc["soluble"] == soluble,
            f"{spec_text}: nilpotent/soluble {doc['nilpotent']}/{doc['soluble']}")
    lsize = doc["left_engel"]["size"]
    _expect(errors, "group.left_engel",
            lsize == gm.fitting_order(spec) and len(doc["left_engel"]["elements"]) == lsize,
            f"{spec_text}: |L(G)| {lsize}, Fitting order {gm.fitting_order(spec)}")
    _expect(errors, "group.nilpotent_engel", not nilpotent or lsize == order,
            f"{spec_text}: nilpotent but |L(G)| = {lsize}")
    _expect(errors, "group.fitting_valid", doc["fitting_valid"] is True,
            f"{spec_text}: fitting_valid is {doc['fitting_valid']}")
    _expect(errors, "group.hypercenter", (doc["hypercenter_order"] == order) == nilpotent,
            f"{spec_text}: hypercenter order {doc['hypercenter_order']}")
    return errors


# ---------------------------------------------------------------------------
# one round of a workload


def check_round(workload: str, ops: list[list[str]], outputs: list[Optional[str]],
                ctx: Context) -> list[str]:
    """Check the outputs of one round; ``outputs[i]`` is None where op i failed."""
    errors: list[str] = []
    by_graph: dict[tuple[str, str], str] = {}
    for argv, text in zip(ops, outputs):
        if text is None:
            continue
        try:
            if workload == "verify-paper":
                errors += check_verify_paper(text, ctx)
            elif workload == "analyze-ladder":
                errors += check_analyze(argv[1], text, ctx)
            elif workload == "engel-large":
                kind = argv[2].lstrip("-")
                by_graph[(argv[1], kind)] = text
                errors += check_graph(argv[1], kind, text, ctx)
            else:
                errors += check_group(argv[1], text)
        except (KeyError, TypeError, ValueError, IndexError, RuntimeError) as exc:
            errors.append(f"malformed: {' '.join(argv)}: {exc!r}")
    for (spec, kind), text in by_graph.items():
        if kind == "full" and (spec, "directed") in by_graph:
            errors += check_complement(spec, text, by_graph[(spec, "directed")])
    return errors
