"""Exact characteristic polynomials, integer spectra, and graph energies.

All arithmetic is exact: characteristic polynomials come from a modular
Hessenberg kernel (Hessenberg reduction and the Hessenberg charpoly
recurrence, O(n^3) per prime, modulo 30-bit primes + CRT under a proven
coefficient bound, per coefficient the smaller of the Hadamard and
Schur-Maclaurin bounds), roots from exact trial division, energies from
rational arithmetic.  No floating point anywhere.  `SPECTRUM_VERTEX_LIMIT`
caps the graphs `analyze` computes spectra for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .analysis import MultipartiteShape
from .graphs import SimpleGraph

# `analyze` reports spectra only up to this many reduced vertices.  On a
# 2-core x86 host the spectrum report of D:384 (192 vertices) takes 0.8 s and
# that of S:5 (119, denser after reduction) 1.5 s; A:6 (359) projects to ~70 s.
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

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def __pow__(self, k: int) -> "IntPolynomial":
        if k < 0:
            raise ValueError("negative power")
        acc = IntPolynomial((1,))
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    @classmethod
    def from_roots(cls, roots: Sequence[tuple[int, int]]) -> "IntPolynomial":
        """Monic product of (x - value)^multiplicity factors."""
        acc = cls((1,))
        for value, mult in roots:
            acc = acc * (cls((-value, 1)) ** mult)
        return acc

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


def _primes_below_2_30(count: int) -> list[int]:
    out = []
    candidate = (1 << 30) - 1
    while len(out) < count:
        if _is_prime_64(candidate):
            out.append(candidate)
        candidate -= 2
    return out


def _ceil_sqrt(x: int) -> int:
    return math.isqrt(x - 1) + 1 if x > 0 else 0


def _coefficient_bounds(n: int, max_entry: int, frob_sq: int) -> list[int]:
    """Proven bounds on |e_k(λ)|, k = 0..n, for an n x n integer matrix with
    entries of absolute value at most ``max_entry`` and squared Frobenius
    norm ``frob_sq``; e_k(λ) is, up to sign, the coefficient of x^(n-k).

    Each term is the smaller of two bounds:
    - Hadamard on the k x k principal minors: C(n,k) (ceil(sqrt(k)) B)^k;
    - Schur-Maclaurin: |e_k(λ)| <= e_k(|λ|) <= C(n,k) (Σ|λ_i|/n)^k by
      Maclaurin's inequality, and (Σ|λ_i|/n)^2 <= Σ|λ_i|^2/n <= ‖M‖_F^2/n by
      the power-mean and Schur inequalities, so |e_k| <= C(n,k) (‖M‖_F^2/n)^(k/2),
      rounded up here as ceil_sqrt(ceil(C(n,k)^2 ‖M‖_F^(2k) / n^k)).
    """
    out = []
    for k in range(n + 1):
        binom = math.comb(n, k)
        hadamard = binom * (_ceil_sqrt(k) * max_entry) ** k
        num, den = binom * binom * frob_sq**k, n**k
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


def char_poly_exact(matrix: Sequence[Sequence[int]]) -> IntPolynomial:
    """Exact monic characteristic polynomial det(xI - M) of an integer matrix.

    Hessenberg reduction and the Hessenberg charpoly recurrence, O(n^3) per
    prime, are run modulo enough 30-bit primes to cover a proven coefficient
    bound (per coefficient, the smaller of the Hadamard and Schur-Maclaurin
    bounds), then CRT-lifted to integers; every residue step is exact
    modular arithmetic.
    """
    n = len(matrix)
    if n == 0:
        return IntPolynomial((1,))
    rows = [list(map(int, row)) for row in matrix]
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    max_entry = max(1, max(abs(v) for r in rows for v in r))
    if n * max_entry >= (1 << 32):
        raise ValueError("matrix too large for the int64 modular kernel")
    frob_sq = sum(v * v for r in rows for v in r)
    bound = max(_coefficient_bounds(n, max_entry, frob_sq))
    primes: list[int] = []
    modulus = 1
    for p in _primes_below_2_30(1 + (2 * bound).bit_length() // 29):
        primes.append(p)
        modulus *= p
        if modulus > 2 * bound:
            break
    m = np.array(rows, dtype=np.int64)
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


# ---------------------------------------------------------------------------
# integer roots


_TRIAL_DIVISION_CAP = 10**6


def _divisor_candidates(c0: int, cap: int) -> list[int]:
    """Positive divisors of |c0| up to ``cap``, via trial-division
    factorisation (any cofactor above the trial cap is kept as a single
    pseudo-prime factor, which can only make the candidate list smaller)."""
    n = abs(c0)
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n and d <= _TRIAL_DIVISION_CAP:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    divisors = [1]
    for prime, exp in factors.items():
        grown = []
        for base in divisors:
            value = base
            for _ in range(exp):
                value *= prime
                if value > cap:
                    break
                grown.append(value)
        divisors.extend(grown)
    return sorted(set(d for d in divisors if d <= cap))


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


def integer_roots(
    poly: IntPolynomial, root_bound: Optional[int] = None
) -> Optional[IntegerSpectrum]:
    """Full integer root multiset of a monic polynomial, or None if it does
    not split over the integers.

    With ``root_bound`` given (e.g. the max row sum for a graph matrix), the
    candidates are every integer in [-bound, bound].  Without it, candidates
    are divisors of the trailing coefficient found by trial division.
    """
    if not poly.is_monic:
        raise ValueError("integer_roots expects a monic polynomial")
    coeffs = poly.coeffs
    zero_mult = 0
    while len(coeffs) > 1 and coeffs[0] == 0:
        coeffs = coeffs[1:]
        zero_mult += 1
    found: dict[int, int] = {}
    if zero_mult:
        found[0] = zero_mult
    if len(coeffs) > 1:
        if root_bound is not None:
            candidates = [r for r in range(-root_bound, root_bound + 1) if r != 0]
        else:
            cauchy = 1 + max(abs(c) for c in coeffs)
            base = _divisor_candidates(coeffs[0], cauchy)
            candidates = [s * d for d in base for s in (1, -1)]
        for r in candidates:
            while len(coeffs) > 1:
                quotient = _divide_linear(coeffs, r)
                if quotient is None:
                    break
                coeffs = quotient
                found[r] = found.get(r, 0) + 1
            if len(coeffs) == 1:
                break
    if len(coeffs) > 1:
        return None
    return IntegerSpectrum(tuple(sorted(found.items())))


# ---------------------------------------------------------------------------
# spectrum reports


@dataclass(frozen=True)
class SpectrumReport:
    """Adjacency / Laplacian / signless-Laplacian polynomials and spectra,
    with exact-rational energies when all three spectra are integral."""

    n_vertices: int
    n_edges: int
    mean_degree: Fraction
    adjacency_poly: IntPolynomial
    laplacian_poly: IntPolynomial
    signless_poly: IntPolynomial
    adjacency_spectrum: Optional[IntegerSpectrum]
    laplacian_spectrum: Optional[IntegerSpectrum]
    signless_spectrum: Optional[IntegerSpectrum]
    super_integral: bool
    energy: Optional[Fraction]
    laplacian_energy: Optional[Fraction]
    signless_energy: Optional[Fraction]
    hyperenergetic: Optional[bool]
    hypoenergetic: Optional[bool]
    e_le_holds: Optional[bool]

    def to_json_obj(self) -> dict:
        def frac(x: Optional[Fraction]):
            return None if x is None else f"{x.numerator}/{x.denominator}"

        def spec(s: Optional[IntegerSpectrum]):
            return None if s is None else s.to_json_obj()

        return {
            "n": self.n_vertices,
            "edges": self.n_edges,
            "mean_degree": frac(self.mean_degree),
            "adjacency": {
                "poly": self.adjacency_poly.to_decimal_strings(),
                "spectrum": spec(self.adjacency_spectrum),
            },
            "laplacian": {
                "poly": self.laplacian_poly.to_decimal_strings(),
                "spectrum": spec(self.laplacian_spectrum),
            },
            "signless_laplacian": {
                "poly": self.signless_poly.to_decimal_strings(),
                "spectrum": spec(self.signless_spectrum),
            },
            "super_integral": self.super_integral,
            "energies": None
            if self.energy is None
            else {
                "E": frac(self.energy),
                "LE": frac(self.laplacian_energy),
                "LE+": frac(self.signless_energy),
            },
            "flags": None
            if self.energy is None
            else {
                "hyperenergetic": self.hyperenergetic,
                "hypoenergetic": self.hypoenergetic,
                "E_LE_holds": self.e_le_holds,
            },
        }


def _assemble_report(
    n: int,
    e: int,
    polys: tuple[IntPolynomial, IntPolynomial, IntPolynomial],
    spectra: tuple[
        Optional[IntegerSpectrum], Optional[IntegerSpectrum], Optional[IntegerSpectrum]
    ],
) -> SpectrumReport:
    mean = Fraction(2 * e, n)
    adj, lap, sig = spectra
    super_integral = adj is not None and lap is not None and sig is not None
    if super_integral:
        energy = Fraction(sum(abs(v) * m for v, m in adj.roots))
        lap_energy = sum((abs(Fraction(v) - mean) * m for v, m in lap.roots), Fraction(0))
        sig_energy = sum((abs(Fraction(v) - mean) * m for v, m in sig.roots), Fraction(0))
        hyper = energy > 2 * (n - 1)
        hypo = energy < n
        e_le = energy <= lap_energy
    else:
        energy = lap_energy = sig_energy = None
        hyper = hypo = e_le = None
    return SpectrumReport(
        n_vertices=n,
        n_edges=e,
        mean_degree=mean,
        adjacency_poly=polys[0],
        laplacian_poly=polys[1],
        signless_poly=polys[2],
        adjacency_spectrum=adj,
        laplacian_spectrum=lap,
        signless_spectrum=sig,
        super_integral=super_integral,
        energy=energy,
        laplacian_energy=lap_energy,
        signless_energy=sig_energy,
        hyperenergetic=hyper,
        hypoenergetic=hypo,
        e_le_holds=e_le,
    )


@lru_cache(maxsize=256)
def spectrum_report(g: SimpleGraph) -> SpectrumReport:
    """Compute A, L = D - A, Q = D + A, their exact polynomials and integer
    spectra, and the exact energies (refused when any spectrum is not
    integral: energy of irrational spectra is out of scope)."""
    n = g.n
    if n < 1:
        raise ValueError("spectrum report needs at least one vertex")
    adj = [[1 if g.has_edge(i, j) else 0 for j in range(n)] for i in range(n)]
    deg = g.degrees()
    lap = [[(deg[i] if i == j else 0) - adj[i][j] for j in range(n)] for i in range(n)]
    sig = [[(deg[i] if i == j else 0) + adj[i][j] for j in range(n)] for i in range(n)]
    polys = tuple(char_poly_exact(m) for m in (adj, lap, sig))
    max_deg = max(deg) if deg else 0
    bounds = (max(1, max_deg), max(1, 2 * max_deg), max(1, 2 * max_deg))
    spectra = tuple(integer_roots(p, b) for p, b in zip(polys, bounds))
    return _assemble_report(n, g.n_edges(), polys, spectra)


def closed_form_spectra(shape: MultipartiteShape) -> SpectrumReport:
    """Spectrum report for K_{a.b} assembled from the closed-form spectra
    (no matrix work); K_n is the b = 1 case.  Raises for non-uniform shapes,
    which have no closed form here."""
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
    polys = (adj.to_poly(), lap.to_poly(), sig.to_poly())
    return _assemble_report(n, e, polys, (adj, lap, sig))
