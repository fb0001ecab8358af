"""The per-character adjoint complex builder that the batched one replaced.

It evaluates each relator letter and the connecting word for one character
at a time, with Python sums over the terms.  The batched builder in
`torus_bundle` sums the same terms in the same order for every character of
a bundle at once, so the tests compare the two bit for bit.
"""

import cmath
import math

import numpy as np

from mtcforge.torsion_engine import BasedChainComplex
from mtcforge.torus_bundle import (
    TorusCharacter,
    TorusMonodromy,
    _geometric,
    connecting_word,
)


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
