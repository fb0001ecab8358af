"""Scalar S oracle from loop-operator trace weights, one entry at a time.

Each label alpha carries loop operators (generator^exponent, degree d).  At
character beta its weight is the product over those operators of
chebyshev(d, epsilon * trace of the generator^exponent holonomy), and

    S[a, b] = W[b][a] * W[0][b].

The operators are read off the manifold, following the definitions of the
paper, never from a candidate:
- canonical Seifert unit: (x_k^{c_k}, degree j_k) on each fiber, epsilon = -1;
- reseated Seifert unit: label j is the character of third degree r - 2 - j
  and carries (x_3, degree j), epsilon = -1;
- torus bundle: (x^{m k}, degree 1) on rho_k and (x, degree 0) on rho+-,
  epsilon = +1.

A Seifert character is its degree row j = (j1, j2, j3); `sfs_degree_rows`
lists them and `sfs_holonomy` gives their rotation numbers and central
holonomy, both from (p, q, j) alone.  `torus_cs` is the closed-form
Chern-Simons value of a torus-bundle character, for checking the
candidate's residue table.
"""

import math
from fractions import Fraction
from itertools import product

from mtcforge.algebra import RationalPhase, phase_cos
from mtcforge.torus_bundle import enumerate_torus_characters


def chebyshev(j, t):
    """Character of the (j+1)-dimensional irreducible at trace t, by the
    recursion D_{j+2} = t*D_{j+1} - D_j with D_0 = 1, D_1 = t."""
    prev, cur = 1.0, t
    for _ in range(j):
        prev, cur = cur, t * cur - prev
    return prev


def sfs_degree_rows(M):
    """Degree rows of the non-Abelian characters, 0 <= j_k <= p_k - 2 all of
    one parity: the even block, then the odd one, each lexicographic."""
    rows = [j for j in product(*(range(p - 1) for p in M.p)) if len({x % 2 for x in j}) == 1]
    return sorted(rows, key=lambda j: (j[0] % 2, j))


def sfs_holonomy(M, j):
    """(n, lam) of the character with degree row j: h acts as
    e^{2 pi i lam} I, lam = 1/2 on the even block and 0 on the odd one, and
    the k-th generator has eigenvalues e^{+-2 pi i n_k / p_k}, with
    n_k = (j_k + 1) / 2, or (p_k - 1 - j_k) / 2 at an even degree on a fiber
    with even q_k."""
    lam = Fraction(1, 2) if j[0] % 2 == 0 else Fraction(0)
    n = tuple(Fraction(p - 1 - jk if q % 2 == 0 and jk % 2 == 0 else jk + 1, 2)
              for p, q, jk in zip(M.p, M.q, j))
    return n, lam


def torus_cs(T, chi):
    """Chern-Simons value mod 1: -c~ k^2 / N at rho_k, 0 at rho+-."""
    if chi.kind == "irreducible":
        return RationalPhase.of(Fraction(-T.c_tilde * chi.k * chi.k, T.N))
    return RationalPhase(0, 1)


def _weights(chars, ops, trace, epsilon):
    """W[beta][alpha]: product over alpha's operators (generator, exponent,
    degree) of chebyshev(degree, epsilon * trace(chars[beta], generator, exponent))."""
    return [[math.prod(chebyshev(d, epsilon * trace(chi, g, e)) for g, e, d in label_ops)
             for label_ops in ops] for chi in chars]


def sfs_weights(M, unit="canonical"):
    chars = sfs_degree_rows(M)
    if unit == "reseated":
        chars.sort(key=lambda j: -j[2])
        ops = [[(2, 1, j)] for j in range(M.p[2] - 1)]
    else:
        ops = [[(k, f.c, j[k]) for k, f in enumerate(M.fibers)] for j in chars]

    def trace(j, k, e):
        # x_k has eigenvalues e^{+-2 pi i n_k / p_k}
        return phase_cos(RationalPhase.of(sfs_holonomy(M, j)[0][k] * e / M.p[k]))

    return _weights(chars, ops, trace, -1)


def torus_weights(T):
    chars = enumerate_torus_characters(T)
    ops = [[("x", T.m * c.k, 1)] if c.kind == "irreducible" else [("x", 1, 0)] for c in chars]

    def trace(chi, _, e):
        # x is diagonal at rho_k and unipotent at rho+-
        if chi.kind == "irreducible":
            return phase_cos(RationalPhase.of(chi.k * e, T.N))
        return 2.0

    return _weights(chars, ops, trace, +1)


def s_matrix(W):
    n = len(W)
    return [[W[b][a] * W[0][b] for b in range(n)] for a in range(n)]
