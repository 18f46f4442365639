"""Exact-spectra: characteristic polynomials, integer roots, energy reports."""

import math
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engel_lab as el
from engel_lab import spectra
from engel_lab.analysis import MultipartiteShape
from engel_lab.graphs import SimpleGraph
from engel_lab.spectra import IntegerSpectrum, IntPolynomial
from engel_lab.verify import _soluble_catalog, run_paper_verification

import oracles
from oracles import complete_multipartite_graph


# --- IntPolynomial basics


def test_poly_mul_matches_from_roots():
    x_minus_1 = IntPolynomial((-1, 1))
    sq = x_minus_1 * x_minus_1
    assert sq.coeffs == (1, -2, 1)
    assert (sq * x_minus_1).coeffs == (-1, 3, -3, 1)
    assert IntPolynomial.from_roots([(1, 3)]) == sq * x_minus_1


def test_poly_from_roots_reconstructs():
    p = IntPolynomial.from_roots([(2, 1), (-1, 2)])
    assert p.coeffs == (-2, -3, 0, 1)  # (x-2)(x+1)^2 = x^3 - 3x - 2
    # direct evaluation is the ground truth
    for x in range(-5, 6):
        assert sum(c * x**i for i, c in enumerate(p.coeffs)) == (x - 2) * (x + 1) ** 2
    assert IntPolynomial.from_roots([(5, 0)]).coeffs == (1,)
    with pytest.raises(ValueError, match="negative"):
        IntPolynomial.from_roots([(1, -1)])


def test_poly_rejects_zero_leading():
    with pytest.raises(ValueError):
        IntPolynomial((1, 0))


# --- char_poly_exact


def test_charpoly_1x1_zero_is_x():
    assert el.char_poly_exact([[0]]).coeffs == (0, 1)


def test_charpoly_small_fixed():
    assert el.char_poly_exact([[2]]).coeffs == (-2, 1)
    # [[0,1],[1,0]] -> x^2 - 1
    assert el.char_poly_exact([[0, 1], [1, 0]]).coeffs == (-1, 0, 1)


def _graph_matrices(graph):
    """A, L = D - A and Q = D + A of a graph, as lists of rows."""
    n = graph.n
    adj = [[int(graph.adj[i, j]) for j in range(n)] for i in range(n)]
    deg = np.count_nonzero(graph.adj, axis=1).tolist()
    lap = [[(deg[i] if i == j else 0) - adj[i][j] for j in range(n)] for i in range(n)]
    sig = [[(deg[i] if i == j else 0) + adj[i][j] for j in range(n)] for i in range(n)]
    return adj, lap, sig


def test_charpoly_kn_matches_paper_form():
    # P(K_n, x) = (x+1)^(n-1) (x - (n-1))
    for n in (2, 3, 5, 8, 13):
        adj = _graph_matrices(complete_multipartite_graph([1] * n))[0]
        want = IntPolynomial.from_roots([(-1, n - 1), (n - 1, 1)])
        assert el.char_poly_exact(adj) == want


def test_charpoly_kab_matches_paper_forms():
    # A: x^(a(b-1)) (x+b)^(a-1) (x - b(a-1)); L and Q likewise
    for a, b in [(3, 2), (3, 4), (5, 2), (7, 2), (4, 3)]:
        adj, lap, sig = _graph_matrices(complete_multipartite_graph([b] * a))
        want_a = IntPolynomial.from_roots([(0, a * (b - 1)), (-b, a - 1), (b * (a - 1), 1)])
        want_l = IntPolynomial.from_roots([(0, 1), (b * (a - 1), a * (b - 1)), (a * b, a - 1)])
        want_q = IntPolynomial.from_roots(
            [(b * (a - 1), a * (b - 1)), (b * (a - 2), a - 1), (2 * b * (a - 1), 1)]
        )
        assert el.char_poly_exact(adj) == want_a
        assert el.char_poly_exact(lap) == want_l
        assert el.char_poly_exact(sig) == want_q


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_charpoly_matches_permutation_expansion(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    matrix = [
        [data.draw(st.integers(min_value=-9, max_value=9)) for _ in range(n)]
        for _ in range(n)
    ]
    got = el.char_poly_exact(matrix)
    assert list(got.coeffs) == oracles.brute_charpoly(matrix)


def test_charpoly_large_entries_crt_path():
    # entries big enough to need several primes
    m = [[10**6, -(10**6)], [123456, 654321]]
    got = el.char_poly_exact(m)
    assert list(got.coeffs) == oracles.brute_charpoly(m)


def test_charpoly_rejects_ragged():
    with pytest.raises(ValueError):
        el.char_poly_exact([[1, 2], [3]])


@pytest.mark.parametrize(
    "matrix",
    [np.eye(2), [[1.5]], np.zeros((2, 2, 2), dtype=int), [[1, 2]], np.zeros((2, 3), dtype=int),
     [["1"]], [[None]]],
    ids=["float", "float-list", "3-D", "non-square", "non-square-array", "str", "none"],
)
def test_charpoly_rejects_non_integer_and_non_square(matrix):
    with pytest.raises(ValueError, match="square array of integers"):
        el.char_poly_exact(matrix)


def test_charpoly_rejects_entries_past_int64_kernel():
    # n * max|M_ij| >= 2^32, also for Python ints past int64 (object arrays)
    # and for the most negative int64, which np.abs would wrap
    for matrix in (
        [[2**31, 0], [0, 0]],
        [[2**70]],
        [[-(2**70), 0], [0, 1]],
        np.array([[2**63]], dtype=np.uint64),
        np.array([[-(2**63)]], dtype=np.int64),
    ):
        with pytest.raises(ValueError, match="too large"):
            el.char_poly_exact(matrix)


def test_charpoly_same_for_lists_and_integer_dtypes():
    # int8 holds -128, whose np.abs wraps to itself
    signed = [[-128, 5, 0], [3, 127, -1], [0, -128, 2]]
    want = el.char_poly_exact(signed)
    assert list(want.coeffs) == oracles.brute_charpoly(signed)
    for dtype in (np.int8, np.int16, np.int64):
        assert el.char_poly_exact(np.array(signed, dtype=dtype)) == want
    unsigned = [[255, 1, 0], [0, 200, 255], [7, 0, 0]]
    want = el.char_poly_exact(unsigned)
    assert list(want.coeffs) == oracles.brute_charpoly(unsigned)
    for dtype in (np.uint8, np.uint64, np.int64):
        assert el.char_poly_exact(np.array(unsigned, dtype=dtype)) == want
    bits = [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 1, 1], [0, 1, 1, 0]]
    want = el.char_poly_exact(bits)
    assert list(want.coeffs) == oracles.brute_charpoly(bits)
    for dtype in (bool, np.uint8, np.int64):
        assert el.char_poly_exact(np.array(bits, dtype=dtype)) == want
    assert el.char_poly_exact(np.array(bits, dtype=object)) == want
    assert el.char_poly_exact(np.zeros((0, 0), dtype=int)).coeffs == (1,)


def test_charpoly_squares_past_int64_stay_exact():
    # 3.5e9^2 > 2^63: an int64 square wraps, and the wrapped ‖M‖_F^2 gives
    # too few primes for the CRT lift
    for matrix in ([[3_500_000_000]], np.array([[3_500_000_000]], dtype=np.uint64)):
        assert el.char_poly_exact(matrix).coeffs == (-3_500_000_000, 1)
    m = [[2_000_000_000, -2_000_000_000], [2_000_000_000, 1]]
    assert list(el.char_poly_exact(m).coeffs) == oracles.brute_charpoly(m)


def _assert_matches_faddeev_leverrier(matrix):
    got = el.char_poly_exact(matrix)
    assert list(got.coeffs) == oracles.faddeev_leverrier_charpoly(matrix)
    return got


DIFFERENTIAL_SPECS = [
    spec
    for spec in dict.fromkeys(_soluble_catalog(48) + ["A:4", "S:4", "A:5"])
    if not el.is_nilpotent(el.build_group(spec))
]


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS)
def test_charpoly_matches_faddeev_leverrier_on_reduced_graphs(spec):
    graph = el.reduced_co_engel_graph(el.build_group(spec))
    polys = tuple(_assert_matches_faddeev_leverrier(m) for m in _graph_matrices(graph))
    # spectrum_report builds the same three matrices as arrays
    rep = el.spectrum_report(graph)
    assert (rep.adjacency_poly, rep.laplacian_poly, rep.signless_poly) == polys


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS + ["S:5"])
def test_twin_quotient_matches_the_kernel_on_full_matrices(spec):
    graph = el.reduced_co_engel_graph(el.build_group(spec))
    rep = el.spectrum_report(graph)
    full = tuple(
        spectra._charpoly_crt(np.array(m), sum(v * v for row in m for v in row))
        for m in _graph_matrices(graph)
    )
    assert (rep.adjacency_poly, rep.laplacian_poly, rep.signless_poly) == full
    # A's twin classes are the graph's false-twin classes: its distinct rows
    quotient, tail = spectra._twin_quotient(graph.adj.astype(np.int64))
    k = len(np.unique(graph.adj, axis=0))
    assert quotient.shape[0] == k
    assert tail == IntegerSpectrum.merged([(0, graph.n - k)])


def _blow_up(base, sizes):
    """Index i of ``base`` replaced by sizes[i] twins: copies of i and j != i
    meet in base[i][j], each copy keeps base[i][i] on the diagonal, and two
    copies of one index meet in 0."""
    owner = [i for i, size in enumerate(sizes) for _ in range(size)]
    return [
        [base[i][j] if u == v or i != j else 0 for v, j in enumerate(owner)]
        for u, i in enumerate(owner)
    ]


def _assert_matches_oracles(matrix):
    got = _assert_matches_faddeev_leverrier(matrix)
    if len(matrix) <= 6:
        assert list(got.coeffs) == oracles.brute_charpoly(matrix)
    return got


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_charpoly_of_blown_up_graphs_matches_oracles(data):
    # vertex i of a random graph becomes an independent set of size s_i
    k = data.draw(st.integers(min_value=1, max_value=8))
    base = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            base[i][j] = base[j][i] = data.draw(st.integers(min_value=0, max_value=1))
    sizes = data.draw(st.lists(st.integers(min_value=1, max_value=4), min_size=k, max_size=k))
    graph = SimpleGraph(np.array(_blow_up(base, sizes), dtype=bool))
    want = tuple(_assert_matches_oracles(m) for m in _graph_matrices(graph))
    rep = el.spectrum_report(graph)
    assert (rep.adjacency_poly, rep.laplacian_poly, rep.signless_poly) == want
    assert spectra._twin_quotient(graph.adj.astype(np.int64))[0].shape[0] <= k


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_charpoly_of_blown_up_integer_matrices_matches_oracles(data):
    # twins of a non-symmetric matrix: rows and columns agree off the diagonal
    k = data.draw(st.integers(min_value=1, max_value=4))
    entry = st.integers(min_value=-5, max_value=5)
    base = [[data.draw(entry) for _ in range(k)] for _ in range(k)]
    sizes = data.draw(st.lists(st.integers(min_value=1, max_value=3), min_size=k, max_size=k))
    matrix = _blow_up(base, sizes)
    _assert_matches_oracles(matrix)
    assert spectra._twin_quotient(np.array(matrix))[0].shape[0] <= k


def test_twin_quotient_edge_cases():
    # P_4 has no twins (k = n); the edgeless graph is one class; so is K_1
    p4 = oracles.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert spectra._twin_quotient(p4.adj.astype(np.int64))[0].shape[0] == 4
    for m in _graph_matrices(p4):
        _assert_matches_oracles(m)
    for n in (1, 5):
        edgeless = SimpleGraph(np.zeros((n, n), dtype=bool))
        quotient, tail = spectra._twin_quotient(edgeless.adj.astype(np.int64))
        assert quotient.tolist() == [[0]]
        assert tail == IntegerSpectrum.merged([(0, n - 1)])
        rep = el.spectrum_report(edgeless)
        x_to_n = IntPolynomial.from_roots([(0, n)])
        assert (rep.adjacency_poly, rep.laplacian_poly, rep.signless_poly) == (x_to_n,) * 3
        assert rep.adjacency_spectrum.roots == ((0, n),)
    # rows 0 and 1 agree but columns 0 and 1 do not: not twins
    rows_only = [[0, 0, 1], [0, 0, 1], [1, 0, 0]]
    assert spectra._twin_quotient(np.array(rows_only))[0].shape[0] == 3
    _assert_matches_oracles(rows_only)


def _coefficients_within_bounds(matrix, poly, eigen_sq=None):
    """The proven per-coefficient bounds, with ``eigen_sq`` bounding Σ|λ_i|^2
    (default ‖M‖_F^2), hold for poly = det(xI - M) and are never above the
    Hadamard terms."""
    n = len(matrix)
    # Python ints: on numpy int64 rows frob_sq ** k would wrap around
    entries = [int(v) for row in matrix for v in row]
    max_entry = max(1, max(abs(v) for v in entries))
    if eigen_sq is None:
        eigen_sq = sum(v * v for v in entries)
    bounds = spectra._coefficient_bounds(n, max_entry, eigen_sq)
    hadamard = oracles.hadamard_coefficient_terms(n, max_entry)
    for k in range(n + 1):
        assert abs(poly.coeffs[n - k]) <= bounds[k] <= hadamard[k]


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_charpoly_matches_faddeev_leverrier_dense(data):
    # dense residues: an int64 dot product of two residue vectors would overflow
    n = data.draw(st.integers(min_value=1, max_value=30))
    entry = st.integers(min_value=-(10**6), max_value=10**6)
    matrix = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    _coefficients_within_bounds(matrix, _assert_matches_faddeev_leverrier(matrix))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_charpoly_matches_faddeev_leverrier_sparse_01(data):
    # mostly-zero columns force pivot row swaps and skipped reduction steps
    n = data.draw(st.integers(min_value=1, max_value=24))
    bit = st.sampled_from([0, 0, 0, 0, 1])
    matrix = [[data.draw(bit) for _ in range(n)] for _ in range(n)]
    _coefficients_within_bounds(matrix, _assert_matches_faddeev_leverrier(matrix))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_charpoly_pivot_zero_mod_first_prime(data):
    # entries +-p0 vanish modulo the first prime, so pivots there are zero
    p0 = spectra._primes_below_2_30(1)[0]
    n = data.draw(st.integers(min_value=1, max_value=3))
    entry = st.sampled_from([p0, -p0, 0, 1, -1])
    matrix = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    got = _assert_matches_faddeev_leverrier(matrix)
    assert list(got.coeffs) == oracles.brute_charpoly(matrix)


def _primes_by_sieve(lo, hi):
    """Primes in [lo, hi), descending, by a segmented sieve of Eratosthenes
    (lo above sqrt(hi), so no sieving prime lies in the segment)."""
    root = math.isqrt(hi) + 1
    small = np.ones(root, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p :: p] = False
    segment = np.ones(hi - lo, dtype=bool)
    for p in np.flatnonzero(small).tolist():
        segment[-lo % p :: p] = False
    return (lo + np.flatnonzero(segment))[::-1].tolist()


def test_primes_match_a_descending_sieve():
    want = _primes_by_sieve((1 << 30) - 8192, 1 << 30)
    assert len(want) >= 150
    assert spectra._primes_below_2_30(150) == want[:150]
    assert spectra._primes_below_2_30(3) == want[:3]


def test_primes_are_searched_once_per_process(monkeypatch):
    monkeypatch.setattr(spectra, "_PRIMES", [])
    tested = []
    is_prime = spectra._is_prime_64
    monkeypatch.setattr(spectra, "_is_prime_64", lambda n: tested.append(n) or is_prime(n))
    first = spectra._primes_below_2_30(3)
    assert min(tested) == first[-1]
    tested.clear()
    assert spectra._primes_below_2_30(2) == first[:2]
    assert spectra._primes_below_2_30(3) == first
    assert tested == []
    # extending the list tests only candidates below the primes already found
    assert spectra._primes_below_2_30(5)[:3] == first
    assert tested and max(tested) < first[-1]
    # the returned list is a copy: callers cannot change the process's primes
    spectra._primes_below_2_30(5).clear()
    assert len(spectra._primes_below_2_30(5)) == 5


def test_coefficient_bounds_cover_verify_paper_matrices(monkeypatch):
    # records what reaches the kernel: each class matrix and the Σ|λ_i|^2
    # bound its prime count was computed from
    seen = []
    kernel = spectra._charpoly_crt

    def recording(matrix, eigen_sq):
        poly = kernel(matrix, eigen_sq)
        seen.append((matrix, eigen_sq, poly))
        return poly

    monkeypatch.setattr(spectra, "_charpoly_crt", recording)
    run_paper_verification()
    assert len(seen) == 102
    assert max(matrix.shape[0] for matrix, _, _ in seen) <= 13
    for matrix, eigen_sq, poly in seen:
        # graph class matrices have real eigenvalues, so Σλ_i^2 = tr(B^2)
        assert int(np.trace(matrix @ matrix)) <= eigen_sq
        _coefficients_within_bounds(matrix.tolist(), poly, eigen_sq)


# --- integer_roots


def test_integer_roots_laplacian_kab_form():
    # P_L(K_{a.b}) = x (x - b(a-1))^(a(b-1)) (x - ab)^(a-1)
    for a, b in [(3, 2), (7, 2), (3, 4)]:
        p = IntPolynomial.from_roots([(0, 1), (b * (a - 1), a * (b - 1)), (a * b, a - 1)])
        spec = el.integer_roots(p, a * b)
        assert spec is not None
        assert dict(spec.roots) == {0: 1, b * (a - 1): a * (b - 1), a * b: a - 1}


def test_integer_roots_irreducible_none():
    assert el.integer_roots(IntPolynomial((1, 0, 1)), 2) is None  # x^2 + 1
    assert el.integer_roots(IntPolynomial((-2, 0, 1)), 2) is None  # x^2 - 2


def test_integer_roots_qn_form():
    # P_Q(K_n) roots {(n-2)^(n-1), (2n-2)^1}
    n = 6
    p = IntPolynomial.from_roots([(n - 2, n - 1), (2 * n - 2, 1)])
    spec = el.integer_roots(p, 2 * n - 2)
    assert dict(spec.roots) == {n - 2: n - 1, 2 * n - 2: 1}


def test_integer_roots_with_bound():
    p = IntPolynomial.from_roots([(3, 2), (-5, 1), (0, 3)])
    spec = el.integer_roots(p, root_bound=5)
    assert dict(spec.roots) == {3: 2, -5: 1, 0: 3}
    # a too-small bound must miss the split and return None, never lie
    assert el.integer_roots(p, root_bound=4) is None


def test_integer_roots_requires_monic():
    with pytest.raises(ValueError):
        el.integer_roots(IntPolynomial((1, 2)), 2)


@given(
    roots=st.lists(
        st.tuples(
            st.integers(min_value=-30, max_value=30),
            st.integers(min_value=1, max_value=3),
        ),
        min_size=0,
        max_size=4,
    )
)
@settings(max_examples=50, deadline=None)
def test_integer_roots_round_trip(roots):
    merged = {}
    for v, m in roots:
        merged[v] = merged.get(v, 0) + m
    p = IntPolynomial.from_roots(sorted(merged.items()))
    spec = el.integer_roots(p, 30)
    assert spec is not None
    assert dict(spec.roots) == merged
    assert spec.to_poly() == p


def test_spectrum_reconstructs_polynomial():
    spec = IntegerSpectrum(((-4, 2), (0, 9), (8, 1)))
    assert spec.degree == 12
    p = spec.to_poly()
    assert p.degree == 12 and p.is_monic


# --- spectrum_report


def test_report_reduced_d24():
    graph = el.reduced_co_engel_graph(el.build_group("D:24"))
    rep = el.spectrum_report(graph)
    assert dict(rep.adjacency_spectrum.roots) == {0: 9, -4: 2, 8: 1}
    assert rep.energy == 16
    assert rep.laplacian_energy == 16
    assert rep.signless_energy == 16
    assert rep.super_integral
    assert rep.hyperenergetic is False and rep.hypoenergetic is False
    assert rep.e_le_holds is True


def test_report_reduced_f37():
    graph = el.reduced_co_engel_graph(el.build_group("F:3:7"))
    rep = el.spectrum_report(graph)
    assert dict(rep.adjacency_spectrum.roots) == {0: 7, -2: 6, 12: 1}
    assert rep.energy == 24  # 2(p-1)(q-1)


def test_report_k1():
    graph = complete_multipartite_graph([1])
    rep = el.spectrum_report(graph)
    assert dict(rep.adjacency_spectrum.roots) == {0: 1}
    assert rep.energy == 0 and rep.hypoenergetic is True


def test_report_non_integral_spectrum_refuses_energy():
    # P_4 has irrational adjacency eigenvalues
    p4 = oracles.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    rep = el.spectrum_report(p4)
    assert not rep.super_integral
    assert rep.adjacency_spectrum is None
    assert rep.energy is None and rep.e_le_holds is None


def test_report_json_shape():
    graph = el.reduced_co_engel_graph(el.build_group("D:12"))
    obj = el.spectrum_report(graph).to_json_obj()
    assert obj["energies"]["E"] == "8/1"
    assert obj["adjacency"]["spectrum"] == [[-2, 2], [0, 3], [4, 1]]
    assert all(isinstance(c, str) for c in obj["adjacency"]["poly"])
    assert obj["super_integral"] is True


# --- closed_form_spectra


def test_closed_form_k7():
    rep = el.closed_form_spectra(MultipartiteShape.uniform(7, 1))
    assert dict(rep.adjacency_spectrum.roots) == {-1: 6, 6: 1}
    assert rep.energy == 12  # 2(m-1)


def test_closed_form_k11():
    rep = el.closed_form_spectra(MultipartiteShape.uniform(1, 1))
    assert rep.energy == 0


def test_closed_form_rejects_non_uniform():
    with pytest.raises(ValueError, match="non-uniform"):
        el.closed_form_spectra(MultipartiteShape((3, 2)))


ORACLE_SWEEP = (
    [f"D:{2 * m}" for m in (3, 5, 7, 9, 11)]
    + [f"{fam}:{2 ** (t + 1) * m}" for t in (1, 2, 3) for m in (3, 5, 7) for fam in ("D", "Q")]
    + [f"F:{p}:{q}" for p, q in ((2, 3), (2, 5), (2, 7), (3, 7), (3, 13), (5, 11))]
    + ["P:(C:3)x(D:6)", "P:(C:2)x(D:6)"]
)


@pytest.mark.parametrize("spec", ORACLE_SWEEP)
def test_oracle_equivalence_matrix_vs_closed_form(spec):
    graph = el.reduced_co_engel_graph(el.build_group(spec))
    shape = el.recognize_complete_multipartite(graph)
    computed = el.spectrum_report(graph)
    closed = el.closed_form_spectra(shape)
    assert computed.adjacency_poly == closed.adjacency_poly
    assert computed.laplacian_poly == closed.laplacian_poly
    assert computed.signless_poly == closed.signless_poly
    assert computed.adjacency_spectrum == closed.adjacency_spectrum
    assert computed.laplacian_spectrum == closed.laplacian_spectrum
    assert computed.signless_spectrum == closed.signless_spectrum
    assert (computed.energy, computed.laplacian_energy, computed.signless_energy) == (
        closed.energy,
        closed.laplacian_energy,
        closed.signless_energy,
    )
    assert computed.super_integral and closed.super_integral


@pytest.mark.parametrize("spec", ORACLE_SWEEP)
def test_trace_identities(spec):
    graph = el.reduced_co_engel_graph(el.build_group(spec))
    rep = el.spectrum_report(graph)
    # sum of adjacency eigenvalues = 0; sum of Laplacian eigenvalues = 2e
    assert sum(v * m for v, m in rep.adjacency_spectrum.roots) == 0
    assert sum(v * m for v, m in rep.laplacian_spectrum.roots) == 2 * graph.n_edges()
    # Laplacian kernel dimension = number of connected components
    zero_mult = dict(rep.laplacian_spectrum.roots).get(0, 0)
    assert zero_mult == nx.number_connected_components(nx.from_numpy_array(graph.adj))


def test_trace_identity_via_coefficients():
    # c_{n-1} of the char poly is -trace
    graph = el.reduced_co_engel_graph(el.build_group("Q:24"))
    rep = el.spectrum_report(graph)
    assert rep.adjacency_poly.coeffs[-2] == 0
    assert rep.laplacian_poly.coeffs[-2] == -2 * graph.n_edges()


def test_energy_flags_match_paper_corollaries():
    # E - 2(n-1) = -2(2^t - 1) <= 0 and E - n = 2^t (m - 2) > 0
    for t in (1, 2, 3):
        for m in (3, 5, 7, 9):
            rep = el.closed_form_spectra(MultipartiteShape.uniform(m, 2**t))
            n = m * 2**t
            assert rep.energy - 2 * (n - 1) == -2 * (2**t - 1)
            assert rep.energy - n == 2**t * (m - 2)
            assert rep.hyperenergetic is False and rep.hypoenergetic is False
    for p, q in ((2, 3), (2, 5), (3, 7), (5, 11)):
        rep = el.closed_form_spectra(MultipartiteShape.uniform(q, p - 1))
        n = q * (p - 1)
        assert rep.energy - 2 * (n - 1) == -2 * (p - 2)
        assert rep.energy - n == (p - 1) * (q - 2)


def test_energies_match_oracle_summation():
    graph = el.reduced_co_engel_graph(el.build_group("Q:24"))
    rep = el.spectrum_report(graph)
    e, le, leq = oracles.brute_energies(
        rep.adjacency_spectrum.roots,
        rep.laplacian_spectrum.roots,
        rep.signless_spectrum.roots,
        graph.n_edges(),
        graph.n,
    )
    assert (rep.energy, rep.laplacian_energy, rep.signless_energy) == (e, le, leq)


def test_mean_degree_exact_rational():
    graph = el.reduced_co_engel_graph(el.build_group("D:24"))
    rep = el.spectrum_report(graph)
    assert rep.mean_degree == Fraction(2 * graph.n_edges(), graph.n) == 8
