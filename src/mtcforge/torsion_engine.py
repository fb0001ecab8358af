"""Reidemeister torsion of a based acyclic chain complex over C.

This is the independent oracle for the closed-form torsion expressions: it
knows nothing about manifolds, only determinants of base-change matrices.
"""

from __future__ import annotations

import ctypes
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


# LAPACK's pivoted QR with 64-bit integers, as the OpenBLAS bundled with
# numpy's wheels exports it
_ZGEQP3 = "scipy_zgeqp3_64_"


def openblas_function(name: str):
    """The named function of the OpenBLAS that numpy's linalg module links, or None."""
    return getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), name, None)


def zgeqp3():
    """numpy's LAPACK zgeqp3, looked up when called, so importing the package
    needs no particular numpy build.  RuntimeError, naming the symbol, when
    numpy's LAPACK does not export it."""
    f = openblas_function(_ZGEQP3)
    if f is None:
        raise RuntimeError(f"the torsion oracle needs LAPACK's {_ZGEQP3}, which this numpy does "
                           "not export (numpy's own wheels bundle it)")
    f.argtypes, f.restype = [ctypes.c_void_p] * 10, None
    return f


class _Geqp3:
    """zgeqp3 bound to (m, n) matrices.  The optimal workspace is queried
    once, as scipy.linalg.qr queries it, so the same shape gets the same
    blocking, the same pivots and the same R.  The Fortran scalars (passed by
    reference), the matrix buffer, the workspace and the outputs are
    allocated once and reused, so one instance must not be called from two
    threads at a time; the package runs its workers as processes."""

    def __init__(self, m: int, n: int):
        self._f = zgeqp3()
        self._ints = np.array([m, n, max(m, 1), -1, 0], dtype=np.int64)  # m, n, lda, lwork, info
        self.qr = np.zeros((m, n), dtype=complex, order="F")
        self.jpvt = np.zeros(n, dtype=np.int64)
        self._tau, self._rwork = np.empty(min(m, n), dtype=complex), np.empty(2 * n)
        query = np.empty(1, dtype=complex)
        self._bind(query)
        self._factor()  # lwork = -1: the workspace query
        self._ints[3] = int(query[0].real)
        self._work = np.empty(self._ints[3], dtype=complex)
        self._bind(self._work)

    def _bind(self, work: np.ndarray) -> None:
        i = self._ints.ctypes.data
        self._args = (i, i + 8, self.qr.ctypes.data, i + 16, self.jpvt.ctypes.data,
                      self._tau.ctypes.data, work.ctypes.data, i + 24, self._rwork.ctypes.data, i + 32)

    def _factor(self) -> int:
        self.jpvt.fill(0)  # every column is free to be pivoted
        self._f(*self._args)
        return int(self._ints[4])

    def __call__(self, M: np.ndarray) -> int:
        """Factor a complex copy of the (m, n) matrix M, which is left
        unchanged: R on and above the diagonal of self.qr, the 1-based column
        pivots in self.jpvt, both valid until the next call.  Returns LAPACK's
        info."""
        self.qr[...] = M
        return self._factor()


@lru_cache(maxsize=64)
def _geqp3(m: int, n: int) -> _Geqp3:
    """The bound zgeqp3 of each (m, n) shape, built on first use."""
    return _Geqp3(m, n)


def _pivot_columns(M: np.ndarray) -> list[int]:
    """Column indices of a maximal independent set, by pivoted QR: the
    column pivots of zgeqp3, in the LAPACK that numpy's wheels bundle, whose
    |R[i, i]| exceed the tolerance.  Only R's diagonal and the pivots are
    read, so Q is never formed."""
    if M.size == 0:
        return []
    norms = np.linalg.norm(M, axis=0)
    top = norms.max()
    if top == 0.0:
        return []
    geqp3 = _geqp3(*M.shape)
    info = geqp3(M)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of zgeqp3")
    rank = int((np.abs(np.diag(geqp3.qr)) > DEFAULT_TOL * top).sum())
    return (geqp3.jpvt[:rank] - 1).tolist()


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

