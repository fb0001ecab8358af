"""Torus bundles over the circle with Anosov monodromy.

Handles the family with N = a+d+2 > 4 odd and gcd(c, N) = 1: character
enumeration, closed-form Chern-Simons and adjoint torsion, and the explicit
twisted cellular chain complex that feeds the torsion oracle.  The cell
structure has one 0-cell, three 1-cells (x, y, h), three 2-cells carrying
the relations y x y^-1 x^-1, h^-1 x h (x^a y^c)^-1, h x^b y^d h^-1 y^-1,
and one 3-cell.  The boundary maps are Fox derivatives of these relations,
evaluated letter by letter in the adjoint representation of a character;
no group-ring element is ever formed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
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


def _adjoint_evaluator(T: TorusMonodromy, chi: TorusCharacter):
    """(ev, H, H^-1) at chi: ev(terms) is the adjoint image of
    sum c (x^i y^j)^-1 over terms [(i, j, c), ...], and H = rho(h).

    The sums run over Python scalars: a letter or geometric sum has at most
    a few dozen terms, too few to repay numpy's per-call cost.
    """
    if chi.kind == "irreducible":
        H = np.array([[0, 0, -1], [0, -1, 0], [-1, 0, 0]], dtype=complex)
        # rho(x^i y^j) = diag(z, 1, 1/z) with z = exp(4 pi i n / N), n = k i + l j;
        # its inverse puts zbar[n mod N] first on the diagonal
        zbar = [cmath.exp(2j * math.pi * ((-2 * n) % T.N) / T.N) for n in range(T.N)]

        def ev(terms) -> np.ndarray:
            s = sum(c * zbar[(chi.k * i + chi.l * j) % T.N] for i, j, c in terms)
            s0 = sum(c for _, _, c in terms)
            return np.array([[s, 0, 0], [0, s0, 0], [0, 0, s.conjugate()]], dtype=complex)

        return ev, H, H

    v2 = chi.v * chi.v

    def ev(terms) -> np.ndarray:
        # rho(x^i y^j)^-1 is unipotent in mu = -(i + j u), quadratic in mu:
        # the sum needs only the moments sum c, sum c mu, sum c mu^2
        s0 = s1 = s2 = 0.0
        for i, j, c in terms:
            mu = -(i + j * chi.u)
            s0, s1, s2 = s0 + c, s1 + c * mu, s2 + c * mu * mu
        return np.array([[s0, -2 * s1, -s2], [0, s0, s1], [0, 0, s0]], dtype=complex)

    H = np.diag([v2, 1.0, 1 / v2]).astype(complex)
    return ev, H, np.diag([1 / v2, 1.0, v2]).astype(complex)


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
    ev, H, H_inv = _adjoint_evaluator(T, chi)
    I = np.eye(3, dtype=complex)
    h_images = {-1: H, 0: I, 1: H_inv}  # antipoded h^k, i.e. rho(h)^-k

    def image(g: str, terms) -> np.ndarray:
        """Antipoded image of sum c g^e over terms [(e, c), ...]."""
        if g == "h":
            return sum((c * h_images[e] for e, c in terms), np.zeros((3, 3), dtype=complex))
        return ev([(e, 0, c) if g == "x" else (0, e, c) for e, c in terms])

    relators = [
        [("y", 1), ("x", 1), ("y", -1), ("x", -1)],
        [("h", -1), ("x", 1), ("h", 1), ("y", -T.c), ("x", -T.a)],
        [("h", 1), ("x", T.b), ("y", T.d), ("h", -1), ("y", -1)],
    ]
    # one left-to-right pass per relator yields all three Fox derivatives:
    # the letter g^p adds prefix * s_p(g) to d/dg, evaluated right to left
    D2 = np.zeros((9, 9), dtype=complex)
    for col, rel in enumerate(relators):
        prefix = I
        for g, p in rel:
            row = 3 * "xyh".index(g)
            D2[row:row + 3, 3 * col:3 * col + 3] += image(g, _geometric(p)) @ prefix
            prefix = image(g, [(p, 1)]) @ prefix
    X, Y = image("x", [(1, 1)]), image("y", [(1, 1)])
    D1 = np.hstack([X - I, Y - I, H_inv - I])
    D3 = np.vstack([I - ev([(i, j, c) for (i, j), c in w.items()]) @ H_inv,
                    H_inv @ (I - Y),
                    I - X])
    return BasedChainComplex((3, 9, 9, 3), (D3, D2, D1))


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
