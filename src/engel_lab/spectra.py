"""Exact characteristic polynomials, integer spectra, and graph energies.

A matrix reaches the kernel as one integer array.  Its characteristic
polynomial is computed on its twin quotient: indices whose rows and columns
agree off the diagonal, with equal diagonal entries (for a graph's A, L and
Q, its false twins), leave a k x k class matrix B and one known linear
factor per surplus class member.  det(xI - B) comes from a modular Hessenberg
kernel, O(k^3) per prime, modulo 30-bit primes (found once per process) and a
CRT lift under a proven coefficient bound.  Integer roots come from exact
trial division up to a given bound, energies from rational arithmetic.  No
floating point anywhere.  `SPECTRUM_VERTEX_LIMIT` caps the graphs `analyze`
computes spectra for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .analysis import MultipartiteShape
from .graphs import SimpleGraph

# `analyze` reports spectra only up to this many reduced vertices n.  On a
# 2-core x86 host the spectrum report takes 0.03 s on D:384 (n = 192 in
# k = 3 twin classes), 0.34 s on S:5 (119, 72), 0.41 s on P:(S:4)x(D:12)
# (264, 68) and 9.3 s on A:6 (359, 202).
SPECTRUM_VERTEX_LIMIT = 200


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients ascending by degree."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(tuple(out))

    @classmethod
    def from_roots(cls, roots: Sequence[tuple[int, int]]) -> "IntPolynomial":
        """Monic product of (x - value)^multiplicity factors, multiplied in
        one linear factor at a time: p (x - v) = x p - v p."""
        coeffs = [1]
        for value, mult in roots:
            if mult < 0:
                raise ValueError("negative multiplicity")
            for _ in range(mult):
                coeffs = [a - value * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
        return cls(tuple(coeffs))

    def to_decimal_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]


@dataclass(frozen=True)
class IntegerSpectrum:
    """Multiset of integer roots, stored as (value, multiplicity) ascending."""

    roots: tuple[tuple[int, int], ...]

    def __post_init__(self):
        values = [v for v, _ in self.roots]
        if values != sorted(values) or len(set(values)) != len(values):
            raise ValueError("spectrum values must be strictly ascending")
        if any(m < 1 for _, m in self.roots):
            raise ValueError("multiplicities must be positive")

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.roots)

    def to_poly(self) -> IntPolynomial:
        return IntPolynomial.from_roots(self.roots)

    def to_json_obj(self) -> list[list[int]]:
        return [[v, m] for v, m in self.roots]

    @classmethod
    def merged(cls, entries: Iterable[tuple[int, int]]) -> "IntegerSpectrum":
        """(value, multiplicity) entries, repeats summed and zeros dropped."""
        acc: dict[int, int] = {}
        for value, mult in entries:
            if mult > 0:
                acc[value] = acc.get(value, 0) + mult
        return cls(tuple(sorted(acc.items())))


# ---------------------------------------------------------------------------
# modular Hessenberg kernel


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime_64(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the largest primes below 2^30, descending: found once per process and
# extended on demand (not an lru_cache, which bench/run.py clears per command)
_PRIMES: list[int] = []


def _primes_below_2_30(count: int) -> list[int]:
    candidate = _PRIMES[-1] - 2 if _PRIMES else (1 << 30) - 1
    while len(_PRIMES) < count:
        if _is_prime_64(candidate):
            _PRIMES.append(candidate)
        candidate -= 2
    return _PRIMES[:count]


def _ceil_sqrt(x: int) -> int:
    return math.isqrt(x - 1) + 1 if x > 0 else 0


def _coefficient_bounds(n: int, max_entry: int, eigen_sq: int) -> list[int]:
    """Proven bounds on |e_k(λ)|, k = 0..n, for an n x n integer matrix with
    entries of absolute value at most ``max_entry`` whose eigenvalues have
    Σ|λ_i|^2 at most ``eigen_sq`` (‖M‖_F^2 is such a bound, by Schur's
    inequality); e_k(λ) is, up to sign, the coefficient of x^(n-k).

    Each term is the smaller of two bounds:
    - Hadamard on the k x k principal minors: C(n,k) (ceil(sqrt(k)) B)^k;
    - Schur-Maclaurin: |e_k(λ)| <= e_k(|λ|) <= C(n,k) (Σ|λ_i|/n)^k by
      Maclaurin's inequality, and (Σ|λ_i|/n)^2 <= Σ|λ_i|^2/n <= eigen_sq/n by
      the power-mean inequality, so |e_k| <= C(n,k) (eigen_sq/n)^(k/2),
      rounded up here as ceil_sqrt(ceil(C(n,k)^2 eigen_sq^k / n^k)).
    """
    out = []
    for k in range(n + 1):
        binom = math.comb(n, k)
        hadamard = binom * (_ceil_sqrt(k) * max_entry) ** k
        num, den = binom * binom * eigen_sq**k, n**k
        out.append(min(hadamard, _ceil_sqrt(-(-num // den))))
    return out


def _hessenberg_mod(m: np.ndarray, p: int) -> np.ndarray:
    """An upper Hessenberg matrix similar to M mod p (Cohen, GTM 138, §2.2.4).

    Column j is cleared below the subdiagonal by a pivot swap (rows and
    columns j+1 and i, for the first i with h[i, j] != 0) and the
    elimination row_i -= u_i row_{j+1}, whose inverse adds Σ u_i col_i to
    col_{j+1}.  Every product is of two residues below p < 2^30 and is
    reduced before summing, so nothing overflows int64.
    """
    h = m % p
    n = h.shape[0]
    for j in range(n - 2):
        nonzero = np.flatnonzero(h[j + 1 :, j])
        if nonzero.size == 0:
            continue
        i = j + 1 + int(nonzero[0])
        if i != j + 1:
            h[[i, j + 1], j:] = h[[j + 1, i], j:]
            h[:, [i, j + 1]] = h[:, [j + 1, i]]
        u = h[j + 2 :, j] * pow(int(h[j + 1, j]), -1, p) % p
        if not u.any():
            continue
        h[j + 2 :, j:] = (h[j + 2 :, j:] - u[:, None] * h[j + 1, j:]) % p
        h[:, j + 1] = (h[:, j + 1] + ((h[:, j + 2 :] * u) % p).sum(axis=1)) % p
    return h


def _charpoly_mod(m: np.ndarray, p: int) -> list[int]:
    """Coefficients [1, c_1, ..., c_n] of det(xI - M) mod p, descending.

    Hessenberg reduction, then the recurrence on the leading blocks H_c
    (Cohen, GTM 138, §2.2.4):
    χ_{c+1} = (x - h_cc) χ_c - Σ_{r<c} h_rc (Π_{r<k<=c} h_{k,k-1}) χ_r.
    """
    n = m.shape[0]
    h = _hessenberg_mod(m, p)
    # row r of chi: coefficients of χ_r, ascending
    chi = np.zeros((n + 1, n + 1), dtype=np.int64)
    chi[0, 0] = 1
    # sub[r] = Π_{r<k<=c} h_{k,k-1}, which is 0 for r < lo, the start of the
    # diagonal block that c is in (h_{lo,lo-1} = 0): the sum starts at lo
    sub = np.zeros(n, dtype=np.int64)
    lo = 0
    for c in range(n):
        prev, row = chi[c, : c + 1], chi[c + 1, : c + 2]
        row[1:] = prev
        row[:-1] -= h[c, c] * prev
        if c > lo:
            w = h[lo:c, c] * sub[lo:c] % p
            row[:c] -= (w[:, None] * chi[lo:c, :c] % p).sum(axis=0)
        row %= p
        if c + 1 < n:
            if h[c + 1, c] == 0:
                lo = c + 1
            else:
                sub[lo:c] = sub[lo:c] * h[c + 1, c] % p
                sub[c] = h[c + 1, c]
    return [int(v) for v in chi[n, ::-1]]


def _twin_quotient(m: np.ndarray) -> tuple[np.ndarray, IntegerSpectrum]:
    """The class matrix B of M's twin classes, and the rest of M's spectrum.

    Indices u and v are twins when rows u and v of M agree off the diagonal,
    so do columns u and v, and M[u, u] = M[v, v]; then M[u, v] = M[v, u] = 0.
    Twins of a graph matrix (A, L = D - A or Q = D + A) are the false twins
    of the graph: non-adjacent vertices with the same neighbourhood.  For a
    class C of s twins with diagonal entry d, the s - 1 vectors e_u - e_v
    are eigenvectors with eigenvalue d.  The class indicators span an
    invariant subspace on which M acts as B[i, j] = Σ_{w in C_j} M[rep_i, w],
    which is s_j M[rep_i, rep_j] off the diagonal and d_i on it (an equitable
    partition: Godsil & Royle, *Algebraic Graph Theory*, 2001, ch. 9).  So
    det(xI - M) = det(xI - B) Π_C (x - d_C)^(s_C - 1).
    """
    off = m.copy()
    np.fill_diagonal(off, 0)
    diag = m.diagonal()
    key = np.ascontiguousarray(np.concatenate((off, off.T, diag[:, None]), axis=1))
    # one opaque value per row: sorting bytes is far faster than sorting rows
    rows = key.view(np.dtype((np.void, key.shape[1] * key.itemsize))).ravel()
    _, rep, size = np.unique(rows, return_index=True, return_counts=True)
    b = off[rep][:, rep] * size
    b[np.diag_indices_from(b)] = diag[rep]
    tail = IntegerSpectrum.merged(zip(diag[rep].tolist(), (size - 1).tolist()))
    return b, tail


def _charpoly_crt(m: np.ndarray, eigen_sq: int) -> IntPolynomial:
    """det(xI - M) of an int64 matrix whose eigenvalues have Σ|λ_i|^2 at
    most ``eigen_sq``: the Hessenberg kernel modulo enough 30-bit primes to
    cover the coefficient bound, then an iterative CRT lift."""
    n = m.shape[0]
    max_entry = max(1, int(np.abs(m).max()))
    bound = max(_coefficient_bounds(n, max_entry, eigen_sq))
    primes: list[int] = []
    modulus = 1
    for p in _primes_below_2_30(1 + (2 * bound).bit_length() // 29):
        primes.append(p)
        modulus *= p
        if modulus > 2 * bound:
            break
    residues = [_charpoly_mod(m, p) for p in primes]
    coeffs_desc = []
    for idx in range(n + 1):
        value, mod = 0, 1
        for p, res in zip(primes, residues):
            # iterative CRT: extend value mod `mod` to mod `mod * p`
            t = (res[idx] - value) * pow(mod, -1, p) % p
            value += mod * t
            mod *= p
        if value > mod // 2:
            value -= mod
        coeffs_desc.append(value)
    return IntPolynomial(tuple(reversed(coeffs_desc)))


def char_poly_exact(matrix: ArrayLike) -> IntPolynomial:
    """Exact monic characteristic polynomial det(xI - M) of a square array
    (bool, int or uint dtype, or nested lists of ints) with n max|M_ij| < 2^32.

    M's twin classes (``_twin_quotient``) leave a k x k class matrix B and
    known linear factors; B's polynomial comes from the Hessenberg kernel
    modulo enough 30-bit primes to cover a proven coefficient bound, then a
    CRT lift.  Per coefficient the bound is the smaller of Hadamard's on B's
    entries and Schur-Maclaurin's at degree k with ‖M‖_F^2: B's eigenvalues
    are some of M's, so their Σ|λ_i|^2 is at most ‖M‖_F^2 (Schur's
    inequality on M).
    """
    m = np.asarray(matrix)
    # np.asarray keeps Python ints past int64 as objects; the guard below refuses them
    integral = m.dtype.kind in "biu" or (
        m.dtype == object and all(isinstance(v, int) for v in m.flat)
    )
    if not integral or m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be a square array of integers")
    n = m.shape[0]
    if n == 0:
        return IntPolynomial((1,))
    # no np.abs: it wraps the most negative value of a signed dtype
    max_entry = max(1, int(m.max()), -int(m.min()))
    if n * max_entry >= (1 << 32):
        raise ValueError("matrix too large for the int64 modular kernel")
    m = m.astype(np.int64, copy=False)
    # exact: every square and their sum is at most (n * max_entry)^2 < 2^64
    magnitude = np.abs(m).astype(np.uint64)
    frob_sq = int((magnitude * magnitude).sum())
    quotient, tail = _twin_quotient(m)
    return _charpoly_crt(quotient, frob_sq) * tail.to_poly()


# ---------------------------------------------------------------------------
# integer roots


def _divide_linear(coeffs: tuple[int, ...], r: int) -> Optional[tuple[int, ...]]:
    """Divide by (x - r); quotient coefficients or None if remainder != 0."""
    out = []
    acc = 0
    for c in reversed(coeffs):
        acc = acc * r + c if out else c
        out.append(acc)
    # out holds descending synthetic-division values; last entry is p(r)
    if out[-1] != 0:
        return None
    return tuple(reversed(out[:-1]))


def integer_roots(poly: IntPolynomial, root_bound: int) -> Optional[IntegerSpectrum]:
    """Full integer root multiset of a monic polynomial whose integer roots
    all lie in [-root_bound, root_bound], or None if it does not split over
    the integers.

    Every nonzero integer root divides the trailing nonzero coefficient, so
    the candidates are the integers in [-root_bound, root_bound] that divide
    it.  A graph matrix's eigenvalues are bounded by its largest row sum of
    absolute values, which ``spectrum_report`` passes; a bound that is too
    small can only turn a split into None, never give a wrong root.
    """
    if not poly.is_monic:
        raise ValueError("integer_roots expects a monic polynomial")
    zeros = next(i for i, c in enumerate(poly.coeffs) if c)
    coeffs = poly.coeffs[zeros:]
    found = {0: zeros} if zeros else {}
    for r in range(-root_bound, root_bound + 1):
        while len(coeffs) > 1 and r and coeffs[0] % r == 0:
            quotient = _divide_linear(coeffs, r)
            if quotient is None:
                break
            coeffs = quotient
            found[r] = found.get(r, 0) + 1
    if len(coeffs) > 1:
        return None
    return IntegerSpectrum(tuple(sorted(found.items())))


# ---------------------------------------------------------------------------
# spectrum reports


def fraction_text(x: Optional[Fraction]) -> Optional[str]:
    """An exact rational (or int) as "numerator/denominator"; None stays None."""
    return None if x is None else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class SpectrumReport:
    """Adjacency / Laplacian / signless-Laplacian polynomials and spectra as
    measured; the mean degree, exact-rational energies and flags are cached
    properties derived from them (energies and flags None unless all three
    spectra are integral)."""

    n_vertices: int
    n_edges: int
    adjacency_poly: IntPolynomial
    laplacian_poly: IntPolynomial
    signless_poly: IntPolynomial
    adjacency_spectrum: Optional[IntegerSpectrum]
    laplacian_spectrum: Optional[IntegerSpectrum]
    signless_spectrum: Optional[IntegerSpectrum]

    @cached_property
    def mean_degree(self) -> Fraction:
        return Fraction(2 * self.n_edges, self.n_vertices)

    @cached_property
    def super_integral(self) -> bool:
        spectra = (self.adjacency_spectrum, self.laplacian_spectrum, self.signless_spectrum)
        return all(s is not None for s in spectra)

    def _spread(self, spectrum: Optional[IntegerSpectrum], centre: Fraction) -> Optional[Fraction]:
        """Σ |λ - centre| over ``spectrum`` with multiplicity, or None unless
        all three spectra are integral."""
        if not self.super_integral:
            return None
        return sum((abs(v - centre) * m for v, m in spectrum.roots), Fraction(0))

    @cached_property
    def energy(self) -> Optional[Fraction]:
        return self._spread(self.adjacency_spectrum, Fraction(0))

    @cached_property
    def laplacian_energy(self) -> Optional[Fraction]:
        return self._spread(self.laplacian_spectrum, self.mean_degree)

    @cached_property
    def signless_energy(self) -> Optional[Fraction]:
        return self._spread(self.signless_spectrum, self.mean_degree)

    @cached_property
    def hyperenergetic(self) -> Optional[bool]:
        return None if self.energy is None else self.energy > 2 * (self.n_vertices - 1)

    @cached_property
    def hypoenergetic(self) -> Optional[bool]:
        return None if self.energy is None else self.energy < self.n_vertices

    @cached_property
    def e_le_holds(self) -> Optional[bool]:
        return None if self.energy is None else self.energy <= self.laplacian_energy

    def to_json_obj(self) -> dict:
        def block(poly: IntPolynomial, spectrum: Optional[IntegerSpectrum]) -> dict:
            roots = None if spectrum is None else spectrum.to_json_obj()
            return {"poly": poly.to_decimal_strings(), "spectrum": roots}

        energies = {"E": self.energy, "LE": self.laplacian_energy, "LE+": self.signless_energy}
        flags = {
            "hyperenergetic": self.hyperenergetic,
            "hypoenergetic": self.hypoenergetic,
            "E_LE_holds": self.e_le_holds,
        }
        integral = self.super_integral
        return {
            "n": self.n_vertices,
            "edges": self.n_edges,
            "mean_degree": fraction_text(self.mean_degree),
            "adjacency": block(self.adjacency_poly, self.adjacency_spectrum),
            "laplacian": block(self.laplacian_poly, self.laplacian_spectrum),
            "signless_laplacian": block(self.signless_poly, self.signless_spectrum),
            "super_integral": integral,
            "energies": {k: fraction_text(e) for k, e in energies.items()} if integral else None,
            "flags": flags if integral else None,
        }


def spectrum_report(g: SimpleGraph) -> SpectrumReport:
    """Compute A, L = D - A, Q = D + A, their exact polynomials and integer
    spectra; the report derives the exact energies from the spectra (None
    when any spectrum is not integral: energy of irrational spectra is out
    of scope)."""
    n = g.n
    if n < 1:
        raise ValueError("spectrum report needs at least one vertex")
    adj = g.adj.astype(np.int64)
    deg = adj.sum(axis=1)
    matrices = (adj, np.diag(deg) - adj, np.diag(deg) + adj)
    polys = tuple(char_poly_exact(m) for m in matrices)
    max_deg = int(deg.max())
    bounds = (max(1, max_deg), max(1, 2 * max_deg), max(1, 2 * max_deg))
    spectra = (integer_roots(p, b) for p, b in zip(polys, bounds))
    return SpectrumReport(n, g.n_edges(), *polys, *spectra)


@lru_cache(maxsize=128)
def closed_form_spectra(shape: MultipartiteShape) -> SpectrumReport:
    """Spectrum report for K_{a.b} assembled from the closed-form spectra
    (no matrix work); K_n is the b = 1 case.  Raises for non-uniform shapes,
    which have no closed form here.  Cached per shape: `verify-paper` asks
    for each shape's report on both sides of its energy claims."""
    if not shape.is_uniform:
        raise ValueError(f"no closed-form spectra for non-uniform shape {shape.parts}")
    a, b = shape.a, shape.parts[0]
    n = a * b
    e = a * (a - 1) * b * b // 2

    merged = IntegerSpectrum.merged
    adj = merged([(-b, a - 1), (0, a * (b - 1)), (b * (a - 1), 1)])
    lap = merged([(0, 1), (b * (a - 1), a * (b - 1)), (a * b, a - 1)])
    sig = merged(
        [(b * (a - 1), a * (b - 1)), (b * (a - 2), a - 1), (2 * b * (a - 1), 1)]
    )
    return SpectrumReport(n, e, adj.to_poly(), lap.to_poly(), sig.to_poly(), adj, lap, sig)
