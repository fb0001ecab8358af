"""Reidemeister torsion of a based acyclic chain complex over C.

This is the independent oracle for the closed-form torsion expressions: it
knows nothing about manifolds, only determinants of base-change matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import DEFAULT_TOL


@dataclass(frozen=True)
class BasedChainComplex:
    """Chain complex C_n -> ... -> C_0 with distinguished bases.

    boundaries[i] is the matrix of the map out of C_{n-i} written in the
    distinguished bases, so boundaries = (d_n, ..., d_1).  Consecutive maps
    must compose to zero within DEFAULT_TOL entrywise.
    """

    dims: tuple[int, ...]
    boundaries: tuple[np.ndarray, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        bnds = tuple(np.ascontiguousarray(b, dtype=complex) for b in self.boundaries)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "boundaries", bnds)
        if len(bnds) != len(dims) - 1:
            raise ValueError("need one boundary map per consecutive pair of degrees")
        for i, b in enumerate(bnds):
            if b.shape != (dims[i + 1], dims[i]):
                raise ValueError(f"boundary {i} has shape {b.shape}, expected {(dims[i + 1], dims[i])}")
            if not np.all(np.isfinite(b)):
                raise ValueError("boundary entries must be finite")
        scale = max([1.0] + [np.abs(b).max() for b in bnds if b.size])
        for i in range(len(bnds) - 1):
            comp = bnds[i + 1] @ bnds[i]
            if comp.size and np.abs(comp).max() > DEFAULT_TOL * scale * scale:
                raise ValueError(f"d.d != 0 between degrees {len(dims) - 1 - i} and {len(dims) - 2 - i}")

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def dim(self, degree: int) -> int:
        return self.dims[self.top_degree - degree]

    def boundary(self, degree: int) -> np.ndarray:
        """Matrix of d_degree : C_degree -> C_{degree-1} (degree in 1..n)."""
        return self.boundaries[self.top_degree - degree]


@dataclass(frozen=True)
class TorsionResult:
    value: float | None
    acyclic: bool
    per_degree_ranks: tuple[int, ...]  # rank of d_i for i = 1..n


@lru_cache(maxsize=64)
def _geqp3(m: int, n: int):
    """LAPACK zgeqp3 and its optimal workspace for (m, n) matrices, queried
    as scipy.linalg.qr queries it: the same size gives the same blocking,
    so the same pivots and R."""
    from scipy.linalg import lapack  # the only scipy use: importing mtcforge does not load it
    work = lapack.zgeqp3(np.zeros((m, n), dtype=complex), lwork=-1)[3]
    return lapack.zgeqp3, int(work[0].real)


def _pivot_columns(M: np.ndarray) -> list[int]:
    """Column indices of a maximal independent set, by pivoted QR: the
    column pivots of LAPACK zgeqp3 whose |R[i, i]| exceed the tolerance.
    Only R's diagonal and the pivots are read, so Q is never formed."""
    if M.size == 0:
        return []
    norms = np.linalg.norm(M, axis=0)
    top = norms.max()
    if top == 0.0:
        return []
    geqp3, lwork = _geqp3(*M.shape)
    # a Fortran-ordered complex copy that zgeqp3 may overwrite
    qr, jpvt, _, _, info = geqp3(np.array(M, dtype=complex, order="F"), lwork=lwork,
                                 overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of zgeqp3")
    rank = int((np.abs(np.diag(qr)) > DEFAULT_TOL * top).sum())
    return (jpvt[:rank] - 1).tolist()


def chain_torsion(C: BasedChainComplex, pivots: dict[int, list[int]] | None = None) -> TorsionResult:
    """|prod_i det(D_i)^((-1)^(i+1))| for an acyclic based complex.

    D_i expresses the basis (d_{i+1} b_{i+1}) u b_i in the distinguished
    basis of C_i, where b_i is a set of basis vectors of C_i mapping onto a
    basis of im(d_i).  The result does not depend on the pivot choice; pass
    `pivots` (degree -> column list) to force one, e.g. in tests.
    """
    n = C.top_degree
    piv: dict[int, list[int]] = {n + 1: []}
    for deg in range(n, 0, -1):
        piv[deg] = pivots[deg] if pivots is not None and deg in pivots else \
            _pivot_columns(C.boundary(deg))
    ranks = tuple(len(piv[deg]) for deg in range(1, n + 1))
    acyclic = all(
        len(piv.get(deg + 1, [])) + (len(piv[deg]) if deg >= 1 else 0) == C.dim(deg)
        for deg in range(0, n + 1)
    )
    if not acyclic:
        return TorsionResult(None, False, ranks)
    log_tau = 0.0
    for deg in range(0, n + 1):
        blocks = []
        if deg + 1 <= n:
            blocks.append(C.boundary(deg + 1)[:, piv[deg + 1]])
        if deg >= 1 and piv[deg]:
            E = np.zeros((C.dim(deg), len(piv[deg])), dtype=complex)
            for col, row in enumerate(piv[deg]):
                E[row, col] = 1.0
            blocks.append(E)
        D = np.hstack(blocks) if blocks else np.zeros((C.dim(deg), 0), dtype=complex)
        if D.shape[0] != D.shape[1]:
            return TorsionResult(None, False, ranks)
        if D.size:
            sign, logdet = np.linalg.slogdet(D)
            if sign == 0:
                return TorsionResult(None, False, ranks)
            log_tau += (-1) ** (deg + 1) * logdet
    return TorsionResult(math.exp(log_tau), True, ranks)

