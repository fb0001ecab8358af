"""Torus bundles over the circle with Anosov monodromy.

Handles the family with N = a+d+2 > 4 odd and gcd(c, N) = 1: character
enumeration, closed-form Chern-Simons and adjoint torsion, and the explicit
twisted cellular chain complex that feeds the torsion oracle.  The cell
structure has one 0-cell, three 1-cells (x, y, h), three 2-cells carrying
the relations y x y^-1 x^-1, h^-1 x h (x^a y^c)^-1, h x^b y^d h^-1 y^-1,
and one 3-cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from .algebra import CentralRep, RationalPhase, central_reps_mod2
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

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])

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
    epsilon_x: int | None = None
    epsilon_y: int | None = None
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
        TorusCharacter("reducible_plus", epsilon_x=0, epsilon_y=0, u=u, v=v),
        TorusCharacter("reducible_minus", epsilon_x=0, epsilon_y=0, u=u, v=-v),
    ]
    for k in range(1, T.r + 1):
        l = (-T.c_tilde * (T.a + 1) * k) % T.N
        chars.append(TorusCharacter("irreducible", k=k, l=l))
    return chars


def torus_cs(T: TorusMonodromy, chi: TorusCharacter) -> RationalPhase:
    """Exact Chern-Simons value mod 1."""
    if chi.kind == "irreducible":
        _require_supported(T)
        return RationalPhase.of(Fraction(-T.c_tilde * chi.k * chi.k, T.N))
    ex, ey = chi.epsilon_x, chi.epsilon_y
    return RationalPhase.of(Fraction((T.a + T.d + 2) * ex * ey + T.b * ex + T.c * ey, 4))


def torus_torsion(T: TorusMonodromy, chi: TorusCharacter) -> float:
    """Closed-form adjoint torsion: |a+d+2| reducible, |a+d+2|/4 irreducible."""
    n = abs(T.a + T.d + 2)
    return n / 4 if chi.kind == "irreducible" else float(n)


def relation_matrix_mod2(T: TorusMonodromy) -> np.ndarray:
    """Abelianized relations mod 2 on (x, y, h)."""
    return np.array([[T.a + 1, T.c, 0], [T.b, T.d + 1, 0]], dtype=np.int64) % 2


# ---------------------------------------------------------------------------
# group ring of pi_1 and the twisted chain complex


def _mat2_pow(a: int, b: int, c: int, d: int, k: int) -> tuple[int, int, int, int]:
    if k < 0:
        a, b, c, d = d, -b, -c, a  # det = 1
        k = -k
    ra, rb, rc, rd = 1, 0, 0, 1
    for _ in range(k):
        ra, rb, rc, rd = ra * a + rb * c, ra * b + rb * d, rc * a + rd * c, rc * b + rd * d
    return ra, rb, rc, rd


class GroupRing:
    """Z[pi_1] in the normal form x^i y^j h^k; elements are dicts
    {(i, j, k): coeff}.  Conjugation by h acts on (i, j) by the monodromy."""

    def __init__(self, a: int, b: int, c: int, d: int):
        self.abcd = (a, b, c, d)

    def _conj(self, i: int, j: int, k: int) -> tuple[int, int]:
        """Exponents of h^-k x^i y^j h^k."""
        ra, rb, rc, rd = _mat2_pow(*self.abcd, k)
        return ra * i + rb * j, rc * i + rd * j

    def mul_elems(self, g1, g2):
        i1, j1, k1 = g1
        i2, j2, k2 = g2
        i2p, j2p = self._conj(i2, j2, -k1)
        return (i1 + i2p, j1 + j2p, k1 + k2)

    def inv_elem(self, g):
        i, j, k = g
        ip, jp = self._conj(i, j, k)
        return (-ip, -jp, -k)

    def add(self, A, B):
        out = dict(A)
        for g, c in B.items():
            v = out.get(g, 0) + c
            if v:
                out[g] = v
            else:
                out.pop(g, None)
        return out

    def sub(self, A, B):
        return self.add(A, {g: -c for g, c in B.items()})

    def mul(self, A, B):
        out = {}
        for g1, c1 in A.items():
            for g2, c2 in B.items():
                g = self.mul_elems(g1, g2)
                v = out.get(g, 0) + c1 * c2
                if v:
                    out[g] = v
                else:
                    out.pop(g, None)
        return out

    def antipode(self, A):
        return {self.inv_elem(g): c for g, c in A.items()}

    def one(self):
        return {(0, 0, 0): 1}

    def gen(self, which: str, power: int = 1):
        i, j, k = 0, 0, 0
        if which == "x":
            i = power
        elif which == "y":
            j = power
        elif which == "h":
            k = power
        else:
            raise ValueError(which)
        return {(i, j, k): 1}

    def geometric(self, which: str, n: int):
        """1 + g + ... + g^(n-1) for n >= 0, -(g^-1 + ... + g^n) for n < 0."""
        out = {}
        if n >= 0:
            for i in range(n):
                out = self.add(out, self.gen(which, i))
        else:
            for i in range(1, -n + 1):
                out = self.sub(out, self.gen(which, -i))
        return out

    def fox(self, word, var: str):
        """Free derivative of a word [(gen, power), ...] wrt a generator."""
        out = {}
        prefix = self.one()
        for g, p in word:
            if g == var and p != 0:
                out = self.add(out, self.mul(prefix, self.geometric(g, p)))
            prefix = self.mul(prefix, self.gen(g, p))
        return out


def connecting_word(T: TorusMonodromy) -> dict[tuple[int, int], int]:
    """Cellular image of the torus 2-cell under the monodromy.

    The unique w(x, y) making the 3-cell boundary (1 - h w; (1-y)h; 1-x)
    compose to zero: w = [(1 - x^b y^d) s_a(x) - (1 - x^a y^c) s_b(x)] / (1-y)
    with s_n the geometric sum.  Its coefficients sum to ad - bc = 1.
    """
    a, b, c, d = T.a, T.b, T.c, T.d
    R = GroupRing(a, b, c, d)
    t1 = R.mul(R.sub(R.one(), {(b, d, 0): 1}), R.geometric("x", a))
    t2 = R.mul(R.sub(R.one(), {(a, c, 0): 1}), R.geometric("x", b))
    P = R.sub(t1, t2)
    cols: dict[int, dict[int, int]] = {}
    for (i, j, k), coeff in P.items():
        assert k == 0
        cols.setdefault(i, {})[j] = coeff
    w: dict[tuple[int, int], int] = {}
    for i, ycoeffs in cols.items():
        lo, hi = min(ycoeffs), max(ycoeffs)
        carry = 0
        for j in range(lo, hi + 1):
            carry += ycoeffs.get(j, 0)
            if carry:
                w[(i, j)] = carry
        if carry != 0:
            raise ArithmeticError("connecting word division failed")
    return w


def _adjoint_monomial(T: TorusMonodromy, chi: TorusCharacter):
    """Evaluator (i, j, k) -> 3x3 adjoint matrix of x^i y^j h^k."""
    H_irr = np.array([[0, 0, -1], [0, -1, 0], [-1, 0, 0]], dtype=complex)
    if chi.kind == "irreducible":
        N = T.N
        k0, l0 = chi.k, chi.l

        def ev(i: int, j: int, k: int) -> np.ndarray:
            ph = (Fraction(2 * (k0 * i + l0 * j), N)) % 1
            z = np.exp(2j * np.pi * float(ph))
            D = np.diag([z, 1.0, np.conj(z)]).astype(complex)
            return D if k % 2 == 0 else D @ H_irr

        return ev
    u, v = chi.u, chi.v
    v2 = v * v

    def ev(i: int, j: int, k: int) -> np.ndarray:
        mu = i + j * u
        U = np.array([[1, -2 * mu, -mu * mu], [0, 1, mu], [0, 0, 1]], dtype=complex)
        return U @ np.diag([v2 ** k, 1.0, v2 ** (-k)]).astype(complex)

    return ev


@lru_cache(maxsize=64)
def _symbolic_boundaries(abcd: tuple[int, int, int, int], w_items: tuple):
    """Group-ring boundary data, computed once per (monodromy, chain).

    Returns (d3, d2, d1) with entries already passed through the antipode,
    ready for evaluation under a representation.
    """
    a, b, c, d = abcd
    R = GroupRing(a, b, c, d)
    relators = [
        [("y", 1), ("x", 1), ("y", -1), ("x", -1)],
        [("h", -1), ("x", 1), ("h", 1), ("y", -c), ("x", -a)],
        [("h", 1), ("x", b), ("y", d), ("h", -1), ("y", -1)],
    ]
    gens = ["x", "y", "h"]
    w_elem = {(i, j, 0): coeff for (i, j), coeff in w_items}
    d3 = [
        R.sub(R.one(), R.mul(R.gen("h"), w_elem)),
        R.mul(R.sub(R.one(), R.gen("y")), R.gen("h")),
        R.sub(R.one(), R.gen("x")),
    ]
    d2 = [[R.fox(rel, g) for rel in relators] for g in gens]
    d1 = [R.sub(R.gen(g), R.one()) for g in gens]
    S = R.antipode
    return ([S(e) for e in d3],
            [[S(e) for e in row] for row in d2],
            [S(e) for e in d1])


def _evaluate_antipoded(elem, ev) -> np.ndarray:
    out = np.zeros((3, 3), dtype=complex)
    for (i, j, k), coeff in elem.items():
        out += coeff * ev(i, j, k)
    return out


def build_adjoint_complex(T: TorusMonodromy, chi: TorusCharacter,
                          w: dict[tuple[int, int], int] | None = None) -> BasedChainComplex:
    """Twisted cellular complex (3, 9, 9, 3) of the bundle at a character.

    w overrides the connecting chain of the 3-cell; its coefficients must
    sum to 1, and a choice that breaks d.d = 0 is rejected when the complex
    is assembled.
    """
    _require_supported(T)
    if w is None:
        w = connecting_word(T)
    else:
        w = dict(w)
        if sum(w.values()) != 1:
            raise ValueError("connecting chain coefficients must sum to 1")
    d3_ring, d2_ring, d1_ring = _symbolic_boundaries(
        (T.a, T.b, T.c, T.d), tuple(sorted(w.items())))
    ev = _adjoint_monomial(T, chi)
    D1 = np.hstack([_evaluate_antipoded(e, ev) for e in d1_ring])
    D2 = np.vstack([np.hstack([_evaluate_antipoded(d2_ring[g][s], ev) for s in range(3)])
                    for g in range(3)])
    D3 = np.vstack([_evaluate_antipoded(e, ev) for e in d3_ring])
    return BasedChainComplex((3, 9, 9, 3), (D3, D2, D1))


def central_reps(T: TorusMonodromy) -> list[CentralRep]:
    """Central representations and their action on the character list.

    The kernel is generated by the sign rep on h, which exchanges the two
    reducible characters and fixes every irreducible one.
    """
    chars = enumerate_torus_characters(T)

    def permute(sigma):
        if sigma != (0, 0, 1):
            raise ValueError(f"unexpected central representation {sigma}")
        return (1, 0) + tuple(range(2, len(chars)))

    return central_reps_mod2(relation_matrix_mod2(T), [torus_cs(T, c) for c in chars], permute)
