"""Torus bundles over the circle with Anosov monodromy.

Handles the family with N = a+d+2 > 4 odd and gcd(c, N) = 1: character
enumeration, closed-form Chern-Simons and adjoint torsion, and the explicit
twisted cellular chain complex that feeds the torsion oracle.  The cell
structure has one 0-cell, three 1-cells (x, y, h), three 2-cells carrying
the relations y x y^-1 x^-1, h^-1 x h (x^a y^c)^-1, h x^b y^d h^-1 y^-1,
and one 3-cell.  The boundary maps are Fox derivatives of these relations,
evaluated directly in the adjoint representation; no group-ring element is
ever formed.  `build_adjoint_complexes` builds the complexes of many
characters in one pass, as one stacked BasedChainComplex: each relator
letter and the connecting word are evaluated once, as numpy stacks over the
characters, with every sum taken in the same order as for one character, so
a complex does not depend on the characters it was built with.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import chain
from math import gcd

import numpy as np

from .algebra import CentralRep, central_reps_mod2
from .torsion_engine import BasedChainComplex


@dataclass(frozen=True)
class TorusMonodromy:
    a: int
    b: int
    c: int
    d: int
    N: int
    supported: bool
    c_tilde: int | None = None
    m: int | None = None
    r: int | None = None

    def tag(self) -> str:
        return f"torus({self.a},{self.b},{self.c},{self.d})"

    def unsupported_reason(self) -> str | None:
        if self.supported:
            return None
        if self.N <= 4 or self.N % 2 == 0:
            return f"N = a+d+2 = {self.N} is not an odd integer > 4 (open case)"
        return f"gcd(c, N) = {gcd(self.c, self.N)} > 1 (open case)"


def make_torus_bundle(a: int, b: int, c: int, d: int) -> TorusMonodromy:
    """Monodromy data; requires det = 1 and |a+d| > 2 (Anosov)."""
    if a * d - b * c != 1:
        raise ValueError(f"monodromy determinant is {a * d - b * c}, must be 1")
    if abs(a + d) <= 2:
        raise ValueError(f"|trace| = {abs(a + d)} <= 2: monodromy is not Anosov")
    N = a + d + 2
    supported = N > 4 and N % 2 == 1 and gcd(c, N) == 1
    if not supported:
        return TorusMonodromy(a, b, c, d, N, False)
    ctil = pow(c, -1, N)
    m = -2 * ctil - N
    # m odd, coprime to 2N: N odd and c*ctil = 1 force both
    assert m % 2 == 1 and gcd(m, 2 * N) == 1
    return TorusMonodromy(a, b, c, d, N, True, ctil, m, (N - 1) // 2)


@dataclass(frozen=True)
class TorusCharacter:
    """Non-Abelian character: reducible_plus/minus with unipotent x, y and
    h = diag(v, 1/v), or irreducible(k) with x, y diagonal and h a rotation."""

    kind: str
    k: int | None = None
    l: int | None = None
    u: complex | None = None
    v: complex | None = None

    def label(self) -> str:
        if self.kind == "irreducible":
            return f"rho{self.k}"
        return "rho+" if self.kind == "reducible_plus" else "rho-"


def _require_supported(T: TorusMonodromy) -> None:
    if not T.supported:
        raise ValueError(f"unsupported monodromy: {T.unsupported_reason()}")


def reducible_uv(T: TorusMonodromy) -> tuple[float, float]:
    """u and v^2 for the (0,0) reducible characters, principal square root."""
    tr = T.a + T.d
    disc = math.sqrt(tr * tr - 4)
    u = (T.d - T.a + disc) / (2 * T.c)
    v2 = (tr - disc) / 2
    return u, v2


def enumerate_torus_characters(T: TorusMonodromy) -> list[TorusCharacter]:
    """rho+, rho-, then irreducibles rho_1..rho_r."""
    _require_supported(T)
    u, v2 = reducible_uv(T)
    v = math.sqrt(v2)
    chars = [
        TorusCharacter("reducible_plus", u=u, v=v),
        TorusCharacter("reducible_minus", u=u, v=-v),
    ]
    for k in range(1, T.r + 1):
        l = (-T.c_tilde * (T.a + 1) * k) % T.N
        chars.append(TorusCharacter("irreducible", k=k, l=l))
    return chars


def _cs_residues(T: TorusMonodromy) -> tuple[np.ndarray, int]:
    """Exact Chern-Simons values in character order, as int64 residues mod N:
    0 at rho+ and rho-, -c~ k^2 at rho_k.  k^2 is reduced mod N first, so no
    product exceeds N^2."""
    k = np.arange(1, T.r + 1, dtype=np.int64)
    return np.concatenate([[0, 0], -T.c_tilde * (k * k % T.N) % T.N]), T.N


def torus_torsion(T: TorusMonodromy, chi: TorusCharacter) -> float:
    """Closed-form adjoint torsion: |a+d+2| reducible, |a+d+2|/4 irreducible."""
    n = abs(T.a + T.d + 2)
    return n / 4 if chi.kind == "irreducible" else float(n)


def relation_matrix_mod2(T: TorusMonodromy) -> np.ndarray:
    """Abelianized relations mod 2 on (x, y, h)."""
    return np.array([[T.a + 1, T.c, 0], [T.b, T.d + 1, 0]], dtype=np.int64) % 2


# ---------------------------------------------------------------------------
# the twisted chain complex, by Fox calculus in the adjoint representation
#
# Boundary entries are elements of Z[pi_1] passed through the antipode
# g -> g^-1 before evaluation, so g acts by rho(g)^-1 and a product g1 g2
# evaluates right to left, as rho(g2)^-1 rho(g1)^-1.  Only the abelian
# subgroup <x, y> ever carries a sum; h enters as one matrix or its inverse.


def _geometric(n: int) -> list[tuple[int, int]]:
    """(exponent, coeff) of 1 + g + ... + g^(n-1) for n >= 0, and of
    -(g^-1 + ... + g^n) for n < 0: the Fox derivative of g^n."""
    if n >= 0:
        return [(e, 1) for e in range(n)]
    return [(-e, -1) for e in range(1, 1 - n)]


def connecting_word(T: TorusMonodromy) -> dict[tuple[int, int], int]:
    """Cellular image of the torus 2-cell under the monodromy.

    The unique w(x, y) making the 3-cell boundary (1 - h w; (1-y)h; 1-x)
    compose to zero: w = [(1 - x^b y^d) s_a(x) - (1 - x^a y^c) s_b(x)] / (1-y)
    with s_n the geometric sum.  As s_a(x)(1 - x^b) = s_b(x)(1 - x^a) and
    (1 - y^n) / (1 - y) = s_n(y), w = x^b s_a(x) s_d(y) - x^a s_b(x) s_c(y).
    Its coefficients sum to ad - bc = 1.
    """
    w: dict[tuple[int, int], int] = {}
    for shift, nx, ny, sign in ((T.b, T.a, T.d, 1), (T.a, T.b, T.c, -1)):
        for i, ci in _geometric(nx):
            for j, cj in _geometric(ny):
                key = (shift + i, j)
                w[key] = w.get(key, 0) + sign * ci * cj
    return {key: coeff for key, coeff in w.items() if coeff}


def _sums(terms: np.ndarray) -> np.ndarray:
    """Sums over the last axis in the order of Python's sum: cumsum adds term
    by term, where np.sum would pair.  Python's sum starts from 0, and 0 + t
    differs from t only for t = -0.0; adding 0.0 at the end settles that
    case, as a running sum can only be -0.0 if every term so far was."""
    return np.cumsum(terms, axis=-1)[..., -1] + 0.0


def _adjoint_evaluator(T: TorusMonodromy, chars: list[TorusCharacter]):
    """(ev, H) over characters listed reducible first.  ev(i, j, c) takes
    int64 arrays of shape (S, L), one sum of L terms per row, and returns
    the adjoint images of sum_t c[s, t] (x^i[s, t] y^j[s, t])^-1 at every
    character, shape (S, n, 3, 3).  H[k + 1] stacks the antipoded image of
    h^k, rho(h)^-k, for k = -1, 0, 1, shape (3, n, 3, 3).

    Each entry is computed for all rows and characters at once, with the
    float operations of a Python loop over the terms of one sum at one
    character, in the same order; so an image does not depend on the batch
    it was computed in.  Rows are padded to a common length with terms of
    coefficient 0, which add signed zeros and leave each sum unchanged.
    """
    n = len(chars)
    red = sum(chi.kind != "irreducible" for chi in chars)
    H = np.zeros((3, n, 3, 3), dtype=complex)
    H[1] = np.eye(3)
    if red:
        v2 = np.array([chi.v * chi.v for chi in chars[:red]])
        diag = np.stack([v2, np.ones(red), 1 / v2], axis=-1)
        H[0, :red][:, _DIAG, _DIAG], H[2, :red][:, _DIAG, _DIAG] = diag, diag[:, ::-1]
        u = np.array([[chi.u] for chi in chars[:red]])
    if red < n:
        H[0, red:] = H[2, red:] = [[0, 0, -1], [0, -1, 0], [-1, 0, 0]]
        # rho(x^i y^j) = diag(z, 1, 1/z) at rho_k, with z = exp(4 pi i n / N)
        # and n = k i + l j; its inverse puts zbar[n mod N] first on the diagonal
        zbar = np.array([cmath.exp(2j * math.pi * ((-2 * m) % T.N) / T.N) for m in range(T.N)])
        k, l = np.array([(chi.k, chi.l) for chi in chars[red:]], dtype=np.int64).T[..., None]

    def ev(i: np.ndarray, j: np.ndarray, c: np.ndarray) -> np.ndarray:
        i, j, c = i[:, None], j[:, None], c[:, None]   # rows x characters x terms
        out = np.zeros((len(c), n, 3, 3), dtype=complex)
        s0 = c.sum(axis=-1)
        if red:
            # rho(x^i y^j)^-1 is unipotent in mu = -(i + j u), quadratic in
            # mu: the sum needs only the moments sum c, sum c mu, sum c mu^2
            mu = -(i + j * u)
            c_mu = c * mu
            s1 = _sums(c_mu)
            R = out[:, :red]
            R[..., 0, 0] = R[..., 1, 1] = R[..., 2, 2] = s0
            R[..., 0, 1], R[..., 0, 2], R[..., 1, 2] = -2 * s1, -_sums(c_mu * mu), s1
        if red < n:
            # exponents reduced mod N first, so that no product leaves int64
            s = _sums(c * zbar[(k * (i % T.N) + l * (j % T.N)) % T.N])
            D = out[:, red:]
            # a sum of no terms is Python's int 0, whose conjugate keeps +0.0
            D[..., 0, 0], D[..., 1, 1] = s, s0
            D[..., 2, 2] = np.where(c.any(axis=-1), s.conj(), 0)
        return out

    return ev, H


# The three relators y x y^-1 x^-1, h^-1 x h (x^a y^c)^-1 and h x^b y^d h^-1 y^-1,
# letter by letter: their generators here, their exponents from _exponents.
# A batch keeps a table of images with a row for the antipoded image of each
# letter's Fox derivative s_p(g) (row q for letter q), of its power g^p (row
# 14 + q) and a zero row; the layout below depends only on the generators.
_RELATORS = ("yxyx", "hxhyx", "hxyhy")
_LETTERS = "".join(_RELATORS)
_ZERO_ROW = 2 * len(_LETTERS)
_XY = [q for q, g in enumerate(_LETTERS) if g != "h"]
_H = [q for q, g in enumerate(_LETTERS) if g == "h"]
_XY_ROWS, _H_ROWS = (qs + [len(_LETTERS) + q for q in qs] for qs in (_XY, _H))
_DIAG = np.arange(3)
_IS_X = np.array([_LETTERS[q] == "x" for q in _XY] * 2)[:, None]
# relator r's letter k sits in slot (k, r) of a (_WIDTH, 3) grid; a last
# row of zero slots pads every relator to the same length
_WIDTH = max(map(len, _RELATORS)) + 1
_SLOTS = np.array([[[sum(map(len, _RELATORS[:r])) + k + len(_LETTERS) * power
                     if k < len(rel) else _ZERO_ROW for r, rel in enumerate(_RELATORS)]
                    for k in range(_WIDTH)] for power in (0, 1)])
# D2 block (g, r) sums the products of relator r's g letters in letter
# order; each term list is padded with the zero product of slot (_WIDTH - 1, 0)
_BLOCKS = [[3 * k + r for k, h in enumerate(rel) if h == g]
           for g in "xyh" for r, rel in enumerate(_RELATORS)]
_BLOCK_TERMS = np.array([b + [3 * (_WIDTH - 1)] * (max(map(len, _BLOCKS)) - len(b))
                         for b in _BLOCKS]).T


def _exponents(T: TorusMonodromy) -> list[int]:
    """Exponents of the letters of _RELATORS, in order."""
    return [1, 1, -1, -1, -1, 1, 1, -T.c, -T.a, 1, T.b, T.d, -1, -1]


def _letter_sums(exponents: list[int]) -> tuple[np.ndarray, ...]:
    """(i, j, c) rows for ev, for the x and y letters g^p: row r holds the
    Fox derivative s_p(g) of the r-th letter (terms g^t for t < p, or
    -g^-(t+1) for t < -p, as in _geometric) and row len(p) + r the power."""
    p = np.array(exponents, dtype=np.int64)[:, None]
    t = np.arange(max(1, int(np.abs(p).max())))
    e = np.concatenate([np.where(p >= 0, t, -1 - t), p * (t == 0)])
    c = np.concatenate([np.sign(p) * (t < abs(p)), np.broadcast_to(t == 0, p.shape[:1] + t.shape)])
    return np.where(_IS_X, e, 0), np.where(_IS_X, 0, e), c


# A bundle's characters are built in batches of at most this many character
# terms (characters x the letter terms, or x the connecting word's terms if
# there are more), so that a long word at a large rank stays bounded in memory
_BATCH_TERMS = 1 << 18


def build_adjoint_complexes(T: TorusMonodromy, chars: list[TorusCharacter]) -> BasedChainComplex:
    """Twisted cellular complexes (3, 9, 9, 3) of the bundle, as one stack
    with a complex per character, in the order of chars.

    The 3-cell's connecting chain is `connecting_word(T)`.  Each relator
    letter and the connecting word are evaluated once for a whole batch of
    characters, and every product is the one a single character would take,
    so each complex is bit-equal to the one built alone.
    """
    _require_supported(T)
    w = connecting_word(T)
    exps = _exponents(T)
    letter_sums = _letter_sums([exps[q] for q in _XY])
    # each h sum has one term, as every h exponent is +-1: coefficient c
    # times the antipoded image of h^e
    h_terms = [_geometric(exps[q])[0] for q in _H] + [(exps[q], 1) for q in _H]
    h_powers = [e + 1 for e, _ in h_terms]
    h_coeffs = np.array([c for _, c in h_terms])[:, None, None, None]
    ij = np.fromiter(chain.from_iterable(w), np.int64, 2 * len(w)).reshape(1, -1, 2)
    word = ij[..., 0], ij[..., 1], np.fromiter(w.values(), np.int64, len(w)).reshape(1, -1)
    I = np.eye(3, dtype=complex)

    def batch_boundaries(batch: list[TorusCharacter]) -> tuple[np.ndarray, ...]:
        """The stacks (D3, D2, D1) of the characters of batch."""
        n = len(batch)
        ev, H = _adjoint_evaluator(T, batch)
        H_inv = H[2]
        table = np.zeros((_ZERO_ROW + 1, n, 3, 3), dtype=complex)
        table[_XY_ROWS] = ev(*letter_sums)
        table[_H_ROWS] = 0.0 + h_coeffs * H[h_powers]   # a sum of one term, from 0
        # one left-to-right pass per relator yields all three Fox derivatives:
        # the letter g^p adds prefix * s_p(g) to d/dg, evaluated right to left;
        # slot axis first, so that each step multiplies contiguous stacks
        G, P = table[_SLOTS[0]], table[_SLOTS[1]]
        prefix = np.empty_like(G)
        prefix[0] = I
        for k in range(1, _WIDTH):
            np.matmul(P[k - 1], prefix[k - 1], out=prefix[k])
        products = (G @ prefix).reshape(-1, n, 3, 3)
        D2 = np.zeros((9, n, 3, 3), dtype=complex)
        for terms in _BLOCK_TERMS:
            D2 = D2 + products[terms]
        D2 = D2.reshape(3, 3, n, 3, 3).transpose(2, 0, 3, 1, 4).reshape(n, 9, 9)
        X, Y = table[len(_LETTERS) + 1], table[len(_LETTERS)]   # the powers x^1 and y^1
        D1 = np.concatenate([X - I, Y - I, H_inv - I], axis=2)
        D3 = np.concatenate([I - ev(*word)[0] @ H_inv, H_inv @ (I - Y), I - X], axis=1)
        return D3, D2, D1

    # reducible characters first, as _adjoint_evaluator takes them
    order = sorted(range(len(chars)), key=lambda q: chars[q].kind == "irreducible")
    size = max(1, _BATCH_TERMS // max(letter_sums[2].size, len(w)))
    stacks = tuple(np.empty((len(chars), rows, cols), dtype=complex)
                   for rows, cols in ((9, 3), (9, 9), (3, 9)))
    for start in range(0, len(order), size):
        part = order[start:start + size]
        for stack, D in zip(stacks, batch_boundaries([chars[q] for q in part])):
            stack[part] = D
    return BasedChainComplex((3, 9, 9, 3), stacks)


def build_adjoint_complex(T: TorusMonodromy, chi: TorusCharacter) -> BasedChainComplex:
    """The complex of build_adjoint_complexes at one character (a view of a
    stack of one)."""
    return build_adjoint_complexes(T, [chi])[0]


def central_reps(T: TorusMonodromy) -> list[CentralRep]:
    """Central representations and their action on the character list.

    The kernel is generated by the sign rep on h, which exchanges the two
    reducible characters and fixes every irreducible one.
    """
    _require_supported(T)
    cs = _cs_residues(T)

    def permute(sigma):
        if sigma != (0, 0, 1):
            raise ValueError(f"unexpected central representation {sigma}")
        return (1, 0) + tuple(range(2, len(cs[0])))

    return central_reps_mod2(relation_matrix_mod2(T), cs, permute)
