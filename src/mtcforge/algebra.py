"""Exact rational phases, Chebyshev trace polynomials, central representations
(the at most 16 F_2 solutions of the abelianized relations, found by testing
every exponent vector) and parity-restricted exponential sums.

Everything downstream leans on two facts: twists and Chern-Simons values are
roots of unity carried exactly as elements of Q/Z, while matrix entries are
finite sums of such roots evaluated in double precision.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

# the fixed matrix-entry comparison tolerance of every check and of the torsion oracle
DEFAULT_TOL = 1e-9
# Rows per band of every rank^2 S build and check, which makes no temporary
# larger than one band: a band of a rank-1440 float64 matrix is 1.5 MB and
# stays in a 2 MB L2 cache.  A constant, not a setting.
BAND_ROWS = 128


def row_bands(n: int) -> list[slice]:
    """The row bands of an n-row matrix, BAND_ROWS rows each but a shorter
    last one; at most BAND_ROWS rows are one band."""
    return [slice(i, i + BAND_ROWS) for i in range(0, n, BAND_ROWS)]


@dataclass(frozen=True)
class RationalPhase:
    """An element t of Q/Z standing for the unit complex number e^{2*pi*i*t}.

    Canonical form: 0 <= numerator < denominator, gcd = 1.  Phases are
    stored and compared; sums and multiples are taken as Fractions or int64
    residues and converted once with `of`.  The one operator, + by an int or
    a Fraction, is kept for perfbench's self-test, which shifts a twist with
    it.  Only to_complex() leaves the rationals.
    """

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.denominator <= 0:
            raise ValueError("denominator must be positive")
        if not (0 <= self.numerator < self.denominator):
            raise ValueError("phase not in canonical range [0, 1)")
        if gcd(self.numerator, self.denominator) != 1 and self.numerator != 0:
            raise ValueError("phase not reduced")
        if self.numerator == 0 and self.denominator != 1:
            raise ValueError("zero phase must have denominator 1")

    @staticmethod
    def of(num: int | Fraction, den: int = 1) -> "RationalPhase":
        if not (isinstance(num, int) and isinstance(den, int)):
            f = Fraction(num, den) % 1
            return RationalPhase(f.numerator, f.denominator)
        if den == 0:
            raise ZeroDivisionError(f"RationalPhase.of({num}, 0)")
        if den < 0:
            num, den = -num, -den
        num %= den
        g = gcd(num, den)
        return RationalPhase(num // g, den // g)

    @staticmethod
    def residues(phases) -> tuple[np.ndarray, int]:
        """Phases as int64 residues over the lcm of their denominators."""
        den = math.lcm(*(t.denominator for t in phases))
        return np.array([t.numerator * (den // t.denominator) for t in phases], dtype=np.int64), den

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def to_complex(self) -> complex:
        return cmath.exp(2j * math.pi * self.numerator / self.denominator)

    def __add__(self, shift):
        """The phase moved by shift, an int or a Fraction."""
        return RationalPhase.of(self.as_fraction() + shift)

    def __str__(self):
        return f"{self.numerator}/{self.denominator}"


def phase_cos(t: RationalPhase) -> float:
    """2cos(2*pi*t), from the reduced angle of the phase."""
    return 2 * math.cos(2 * math.pi * t.numerator / t.denominator)


def phase_sin(t: RationalPhase) -> float:
    return math.sin(2 * math.pi * t.numerator / t.denominator)


def chebyshev_table(degrees: int, ts: np.ndarray) -> np.ndarray:
    """Matrix T[i, j] = D_j(ts[i]) for j < degrees, D_j(t) the character of the
    (j+1)-dimensional irreducible at trace t: D_0 = 1, D_1 = t and D_{j+2} =
    t*D_{j+1} - D_j.  This equals sin((j+1)a)/sin(a) at t = 2cos(a), but the
    recursion stays defined at sin(a) = 0."""
    ts = np.asarray(ts)
    out = np.empty((ts.shape[0], degrees), dtype=ts.dtype)
    if degrees >= 1:
        out[:, 0] = 1.0
    if degrees >= 2:
        out[:, 1] = ts
    for j in range(2, degrees):
        out[:, j] = ts * out[:, j - 1] - out[:, j - 2]
    return out


@dataclass(frozen=True, eq=False)
class CentralRep:
    """A homomorphism to the center, recorded as F_2 exponents on the
    generators, with the permutation it induces on the character list, an
    int64 array perm with label i sent to perm[i], and the exact per-label
    Chern-Simons differences cs[perm[i]] - cs[i], as int64 residues mod
    cs_den."""

    sigma: tuple[int, ...]
    permutation: np.ndarray
    cs_diffs: np.ndarray
    cs_den: int

    @property
    def is_trivial(self) -> bool:
        return not any(self.sigma)

    @property
    def is_bosonic(self) -> bool:
        return not self.cs_diffs.any()

    @property
    def is_fermionic(self) -> bool:
        return not self.is_bosonic and not (2 * self.cs_diffs % self.cs_den).any()


# a Seifert space's relations depend on the parities of its (p, q) pairs only
@lru_cache(maxsize=256)
def _kernel_mod2(relations: bytes, w: int) -> tuple[tuple[int, ...], ...]:
    """The F_2 solutions sigma of a relation matrix with w columns, given as
    its uint8 bytes in C order, in increasing sum_i sigma_i 2^i."""
    R = np.frombuffer(relations, dtype=np.uint8).reshape(-1, w)
    sigmas = np.arange(2**w)[:, None] >> np.arange(w) & 1
    return tuple(map(tuple, sigmas[~(sigmas @ R.T % 2).any(axis=1)].tolist()))


def central_reps_mod2(relations, cs_values: tuple[np.ndarray, int], permute) -> list[CentralRep]:
    """One CentralRep per F_2 solution sigma of the abelianized relations,
    for labels with Chern-Simons values cs_values, a (residues, den) pair.  All
    2^w exponent vectors on the w generators are tested at once, once per
    relation matrix; the solutions come in increasing sum_i sigma_i 2^i,
    trivial first.  permute(sigma) gives the induced label permutation as an
    int64 array; it is not called for the trivial representation, which acts
    as the identity."""
    R = np.asarray(relations, dtype=np.uint8) % 2
    trivial, *sigmas = _kernel_mod2(R.tobytes(), R.shape[1])
    cs, den = cs_values
    n = len(cs)
    out = [CentralRep(trivial, np.arange(n, dtype=np.int64), np.zeros(n, dtype=np.int64), den)]
    for sigma in sigmas:
        perm = np.asarray(permute(sigma), dtype=np.int64)
        out.append(CentralRep(sigma, perm, (cs[perm] - cs) % den, den))
    return out


def parity_exp_sum_closed(p: int, parity: int) -> np.ndarray:
    """Sum over m of fixed parity in [1, p-1] of the four-term exponential
    combination (e^{(j+l)mr*pi*i/p} - e^{(j-l)...} - e^{(-j+l)...} + e^{(-j-l)...}),
    for all j, l in [0, p] as one array, in closed form; it holds for every
    odd r prime to p (`parity_exp_sum_table` takes any r).  Off the diagonal
    the sum is (-1)^parity p at j + l = p and 0 elsewhere, whatever the
    parity of p; the diagonal adds -p."""
    j, l = np.ogrid[:p + 1, :p + 1]
    T = np.where(j + l == p, float((-1) ** parity * p), 0.0) - p * (j == l)
    # at j or l in {0, p} the four exponentials cancel in pairs
    return np.where((j % p == 0) | (l % p == 0), 0.0, T)


def parity_exp_sum_table(p: int, r: int, parity: int) -> np.ndarray:
    """Literal sums T(p, j, l, parity) for all j, l in [0, p], vectorized.

    Uses T = S[j+l] - S[j-l] - S[l-j] + S[-j-l] with S[s] = sum_m e^{i*pi*s*m*r/p}.
    """
    ms = np.arange(1, p)
    ms = ms[ms % 2 == parity]
    s_vals = np.arange(-2 * p, 2 * p + 1)
    S = np.exp(1j * np.pi * r / p * np.outer(s_vals, ms)).sum(axis=1)

    def at(s):
        return S[s + 2 * p]

    jj, ll = np.meshgrid(np.arange(p + 1), np.arange(p + 1), indexing="ij")
    return at(jj + ll) - at(jj - ll) - at(ll - jj) + at(-jj - ll)
