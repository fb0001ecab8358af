"""Seifert fibered spaces over S^2 with three singular fibers.

Covers the genus-0, three-fiber surgery presentations: fiber constants and
Kauffman-variable phases, the non-Abelian characters as degree rows, closed-form
Chern-Simons and adjoint-torsion values, the mod-2 homology test, and the
action of central representations on the character list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, product
from math import gcd

import numpy as np

from .algebra import CentralRep, RationalPhase, central_reps_mod2, chebyshev_table, phase_cos


@dataclass(frozen=True)
class SeifertFiber:
    """Singular fiber (p, q) with Euclid pair p*s - q*r = 1, 0 <= r < p.

    c is the surgery constant entering Chern-Simons values and A is the
    phase of the associated Kauffman variable, A_var = e^{2*pi*i*A}.
    The per-degree tables (`twice_n`, `cs_residues`, `torsion_factors`,
    `twist_degrees`, `weights`) depend on these fields only; each is built
    on first read and kept read-only, so a fiber shared through `_fiber`'s
    memo builds them once.
    """

    p: int
    q: int
    r: int
    s: int
    c: int
    A: RationalPhase

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("p must be >= 2")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"({self.p},{self.q}) not coprime")
        if self.p * self.s - self.q * self.r != 1:
            raise ValueError("Euclid pair invalid")

    @property
    def rank(self) -> int:
        """Number of admissible degrees 0..p-2."""
        return self.p - 1

    @cached_property
    def twice_n(self) -> np.ndarray:
        """2 n(i) at every degree i, int64: n(i) is the rotation number of
        the degree-i character on this fiber."""
        p, even_q = self.p, self.q % 2 == 0
        return _frozen(np.array([p - 1 - j if even_q and j % 2 == 0 else j + 1 for j in range(self.rank)],
                                dtype=np.int64))

    @cached_property
    def cs_residues(self) -> np.ndarray:
        """The Chern-Simons term -c (i+1)^2 / (4p) at every degree i, as int64
        residues mod 4p."""
        return _frozen(np.array([(-self.c * (i + 1) ** 2) % (4 * self.p) for i in range(self.rank)],
                                dtype=np.int64))

    @cached_property
    def torsion_factors(self) -> np.ndarray:
        """The torsion factor p / (4 sin^2(2 pi r n(i) / p)) at every degree i."""
        s = np.array([math.sin(2 * math.pi * ((self.r * m) % (2 * self.p) / 2) / self.p)
                      for m in self.twice_n.tolist()])
        return _frozen(self.p / (4 * s * s))

    @cached_property
    def twist_degrees(self) -> np.ndarray:
        """D[t, s, i]: the degree of parity i + s whose n is that of degree i,
        moved when t as a central twist moves it; p - 1, past the last
        degree, where there is none.  int64, shape (2, 2, rank).  The twist
        takes n to (n + p/2) mod p folded into [0, p/2], which for the
        rotation numbers 0 < n < p/2 is p/2 - n."""
        p, n2 = self.p, self.twice_n.tolist()
        degree = {(i % 2, m): i for i, m in enumerate(n2)}
        moved = [p - m for m in n2]
        return _frozen(np.array([[[degree.get(((i + s) % 2, m), p - 1) for i, m in enumerate(ms)]
                                  for s in (0, 1)] for ms in (n2, moved)], dtype=np.int64))

    @cached_property
    def weights(self) -> np.ndarray:
        """W[beta, alpha] = D_alpha(-2cos(2 pi n(beta) c / p)): the trace of
        the operator (x^c, degree alpha) at the degree-beta character."""
        return _frozen(chebyshev_table(self.rank, -_fiber_traces(self, self.c)))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _fiber_traces(f: SeifertFiber, e: int) -> np.ndarray:
    """2cos(2 pi n(i) e / p) at every degree i of the fiber."""
    return np.array([phase_cos(RationalPhase.of(m * e, 2 * f.p)) for m in f.twice_n.tolist()])


# A fiber and its tables depend on (p, q) only, and a sweep meets few pairs:
# the 969 triples with p <= 7 make 2,907 fiber lookups over 17 pairs.
# Bounded, because `weights` holds (p - 1)^2 floats.
@lru_cache(maxsize=1024)
def _fiber(p: int, q: int) -> SeifertFiber:
    if p < 2:
        raise ValueError(f"fiber order p={p} must be >= 2")
    if gcd(p, q) != 1:
        raise ValueError(f"fiber ({p},{q}) must be coprime")
    r = (-pow(q, -1, p)) % p
    s = (1 + q * r) // p
    if q % 2 == 1:
        c = p * q * s - r
    else:
        c = p * q * s - r * (p - 1) ** 2
    A = RationalPhase.of(c + 2 * p, 4 * p)
    return SeifertFiber(p, q, r, s, c, A)


@dataclass(frozen=True)
class SeifertData:
    fibers: tuple[SeifertFiber, SeifertFiber, SeifertFiber]

    @property
    def p(self) -> tuple[int, int, int]:
        return tuple(f.p for f in self.fibers)

    @property
    def q(self) -> tuple[int, int, int]:
        return tuple(f.q for f in self.fibers)

    def tag(self) -> str:
        return "sfs" + ",".join(f"({f.p},{f.q})" for f in self.fibers)


def make_sfs(pairs) -> SeifertData:
    """Seifert data from three (p, q) surgery pairs.  No size check: the
    candidate's rank is `character_count`, and the CLI holds the bound."""
    pairs = tuple(pairs)
    if len(pairs) != 3:
        raise ValueError("exactly three fibers required")
    return SeifertData(tuple(_fiber(p, q) for p, q in pairs))


def _degree_rows(M: SeifertData) -> np.ndarray:
    """Degree rows j = (j1, j2, j3) of all non-Abelian characters, int64
    (rank, 3): even block, then odd, each lexicographic.  A row is the
    character: its rotation numbers n_k are the fibers' `twice_n[j_k] / 2`,
    and h acts as -I on the even block and as I on the odd one."""
    evens = [range(0, f.p - 1, 2) for f in M.fibers]
    odds = [range(1, f.p - 1, 2) for f in M.fibers]
    n = math.prod(map(len, evens)) + math.prod(map(len, odds))
    rows = chain.from_iterable(chain(product(*evens), product(*odds)))
    return np.fromiter(rows, np.int64, 3 * n).reshape(n, 3)


def character_count(M: SeifertData) -> int:
    ps = M.p
    return math.prod(p // 2 for p in ps) + math.prod((p - 1) // 2 for p in ps)


def _label_tables(M: SeifertData, J: np.ndarray):
    """Integer data of the characters with degree rows J, gathered from
    per-fiber tables indexed by degree: the CS values sum_k -c_k (j_k+1)^2 /
    (4 p_k) as int64 residues mod L = lcm(4 p_k), L itself, and the torsions
    p1 p2 p3 / prod_k 4 sin^2(2 pi r_k n_k / p_k)."""
    L = math.lcm(*(4 * f.p for f in M.fibers))
    cs, tors = 0, 1.0
    for f, j in zip(M.fibers, J.T):
        # -c (i+1)^2 / (4p) depends on c mod 4p only, so no residue exceeds L
        cs = cs + f.cs_residues[j] * (L // (4 * f.p))
        tors = tors * f.torsion_factors[j]
    return cs % L, L, tors


def z2_homology_sphere(M: SeifertData) -> bool:
    """True when q1 p2 p3 + p1 q2 p3 + p1 p2 q3 is odd."""
    p1, p2, p3 = M.p
    q1, q2, q3 = M.q
    return (q1 * p2 * p3 + p1 * q2 * p3 + p1 * p2 * q3) % 2 == 1


def relation_matrix_mod2(M: SeifertData) -> np.ndarray:
    """Abelianized relations mod 2 on (x1, x2, x3, h): rows p_k x_k + q_k h
    from the fiber relations plus x1 + x2 + x3 from the base relation."""
    rows = np.zeros((4, 4), dtype=np.uint8)
    for k, f in enumerate(M.fibers):
        rows[k, k] = f.p % 2
        rows[k, 3] = f.q % 2
    rows[3, :3] = 1
    return rows


def central_reps(M: SeifertData, chars: list[tuple[int, int, int]] | None = None,
                 cs_values: list[RationalPhase] | None = None) -> list[CentralRep]:
    """All central representations with their induced label permutations,
    on the characters with degree rows chars (all of them by default) and
    CS values cs_values (computed by default).  The CS differences are
    residues mod lcm(4 p_k) either way, as in the candidate's own actions.

    Solves p_k s(x_k) + q_k s(h) = 0, s(x1)+s(x2)+s(x3) = 0 over F_2.
    Raises if a twist would carry a label outside the candidate set, or if
    a CS value's denominator does not divide lcm(4 p_k).
    """
    J = _degree_rows(M) if chars is None else np.array(chars, dtype=np.int64).reshape(-1, 3)
    L = math.lcm(*(4 * f.p for f in M.fibers))
    residues, den = _label_tables(M, J)[:2] if cs_values is None else RationalPhase.residues(cs_values)
    if L % den:
        raise ValueError(f"CS values over {den}, which does not divide lcm(4 p_k) = {L}")
    return _central_reps(M, J, (residues * (L // den), L))


def _central_reps(M: SeifertData, J: np.ndarray, cs_values) -> list[CentralRep]:
    """central_reps on the labels with degree rows J and CS values cs_values,
    a (residues, den) pair.  A twist sigma moves the labels' degrees by the
    fibers' `twist_degrees`, flipping their parity with lam when sigma[3]
    is set; the label of each image row comes from an index of the degree
    rows, built at the first nontrivial twist only: a Z2-homology sphere has
    none."""
    # degrees 0..p-2, and p-1 where a fiber has no image degree
    shape = [f.p for f in M.fibers]
    index = None

    def permute(sigma):
        nonlocal index
        if index is None:
            index = np.full(math.prod(shape), -1)
            index[np.ravel_multi_index(J.T, shape)] = np.arange(len(J))
        image = [f.twist_degrees[t, sigma[3]][j] for f, t, j in zip(M.fibers, sigma, J.T)]
        perm = index[np.ravel_multi_index(image, shape)]
        if (perm < 0).any():
            raise ValueError(f"central twist {sigma} leaves the candidate label set")
        return perm

    return central_reps_mod2(relation_matrix_mod2(M), cs_values, permute)
