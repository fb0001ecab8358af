"""Reidemeister torsion of a based acyclic chain complex over C.

This is the independent oracle for the closed-form torsion expressions: it
knows nothing about manifolds, only determinants of base-change matrices.

A BasedChainComplex is one complex, or a stack of complexes with the same
dims whose boundaries carry one leading stack axis.  A stack is checked in
one pass over all its complexes, each against its own scale and the same
tolerance as when it stands alone.  `chain_torsions` takes a stack
through one pass: one column-norm call per degree, one pivoted QR per
matrix, and one stacked determinant per degree; `chain_torsion` is the same
pass on a stack of one.
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
    """Chain complex C_n -> ... -> C_0 with distinguished bases, or a stack
    of k such complexes with the same dims.

    boundaries[i] is the matrix of the map out of C_{n-i} written in the
    distinguished bases, so boundaries = (d_n, ..., d_1), each of shape
    (dims[i + 1], dims[i]), or (k, dims[i + 1], dims[i]) in a stack.
    Consecutive maps must compose to zero within DEFAULT_TOL * scale**2
    entrywise, where a complex's scale is max(1, max |entry|) over its own
    boundaries.  A stack, which needs at least one boundary, can be
    indexed: its complexes view the stack's boundaries and are not checked
    again.
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
        stack = bnds[0].shape[:1] if self.stacked else ()
        scale = np.ones(stack)
        for i, b in enumerate(bnds):
            if b.shape != stack + (dims[i + 1], dims[i]):
                raise ValueError(f"boundary {i} has shape {b.shape}, "
                                 f"expected {stack + (dims[i + 1], dims[i])}")
            top = _max_abs(b)   # NaN or inf where an entry is
            if not np.isfinite(top).all():
                raise ValueError("boundary entries must be finite")
            scale = np.maximum(scale, top)
        bound = DEFAULT_TOL * scale * scale
        for i in range(len(bnds) - 1):
            if (_max_abs(bnds[i + 1] @ bnds[i]) > bound).any():
                raise ValueError(f"d.d != 0 between degrees {len(dims) - 1 - i} and {len(dims) - 2 - i}")

    @property
    def stacked(self) -> bool:
        return bool(self.boundaries) and self.boundaries[0].ndim == 3

    def __getitem__(self, i: int | slice) -> BasedChainComplex:
        """Complex i of a stack (a slice gives a sub-stack)."""
        if not self.stacked:
            raise TypeError("only a stack of complexes can be indexed")
        part = object.__new__(BasedChainComplex)
        object.__setattr__(part, "dims", self.dims)
        object.__setattr__(part, "boundaries", tuple(b[i] for b in self.boundaries))
        return part


def _max_abs(b: np.ndarray) -> np.ndarray:
    """max |entry| of each matrix of b, 0 for an empty one."""
    return np.abs(b).max(axis=(-2, -1), initial=0.0)


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


def _pivots(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ranks, columns) of each matrix M of the stack B, shape (k, m, n), by
    pivoted QR: the rank is the number of |R[i, i]| above DEFAULT_TOL times
    M's largest column norm, and columns[q, :rank] are M's first rank column
    pivots, 0-based, from zgeqp3 in the LAPACK that numpy's wheels bundle.
    Only R's diagonal and the pivots are read, so Q is never formed."""
    k, m, n = B.shape
    # the column norms, as np.linalg.norm(B, axis=1) computes them
    tops = np.sqrt(np.add.reduce((B.conj() * B).real, axis=1)).max(axis=1, initial=0.0)
    columns = np.zeros((k, n), dtype=np.intp)
    diag = np.zeros((k, min(m, n)))
    for q, top in enumerate(tops.tolist()):
        if top:
            geqp3 = _geqp3(m, n)
            info = geqp3(B[q])
            if info < 0:
                raise ValueError(f"illegal value in argument {-info} of zgeqp3")
            np.subtract(geqp3.jpvt, 1, out=columns[q])
            np.abs(geqp3.qr.diagonal(), out=diag[q])
    return (diag > DEFAULT_TOL * tops[:, None]).sum(axis=1), columns


def chain_torsions(C: BasedChainComplex) -> tuple[TorsionResult, ...]:
    """chain_torsion of each complex of the stack C, in stack order.

    One pass over the stack: per degree, one column-norm call, one zgeqp3
    call per matrix, one gather of the D_i and one stacked slogdet, so each
    result is the one chain_torsion gives on that complex alone.
    """
    if not C.stacked:
        raise TypeError("chain_torsions takes a stack of complexes; use chain_torsion for one")
    return _torsions(C.dims, C.boundaries, len(C.boundaries[0]), None)


def chain_torsion(C: BasedChainComplex, pivots: dict[int, list[int]] | None = None) -> TorsionResult:
    """|prod_i det(D_i)^((-1)^(i+1))| for an acyclic based complex.

    D_i expresses the basis (d_{i+1} b_{i+1}) u b_i in the distinguished
    basis of C_i, where b_i is a set of basis vectors of C_i mapping onto a
    basis of im(d_i).  The result does not depend on the pivot choice; pass
    `pivots` (degree -> column list) to force one, e.g. in tests.
    """
    if C.stacked:
        raise TypeError("chain_torsion takes one complex; use chain_torsions for a stack")
    return _torsions(C.dims, tuple(b[None] for b in C.boundaries), 1, pivots)[0]


def _torsions(dims: tuple[int, ...], bnds: tuple[np.ndarray, ...], k: int,
              pivots: dict[int, list[int]] | None) -> tuple[TorsionResult, ...]:
    """The torsions of k complexes of the given dims, boundaries stacked;
    pivots forces the same pivot columns on every complex."""
    n = len(dims) - 1
    dim = dims[::-1]   # dim[deg] = dim C_deg
    # ranks[:, deg] = rank of d_deg, 0 for deg = 0 and n + 1; columns[deg] the pivots
    ranks = np.zeros((k, n + 2), dtype=np.intp)
    columns = {}
    for deg in range(1, n + 1):
        if pivots is not None and deg in pivots:
            forced = np.asarray(pivots[deg], dtype=np.intp)
            ranks[:, deg], columns[deg] = len(forced), np.broadcast_to(forced, (k, len(forced)))
        else:
            ranks[:, deg], columns[deg] = _pivots(bnds[n - deg])
    # the acyclic complexes, whose ranks all solve rank d_{deg+1} + rank d_deg = dim C_deg
    acyclic = (ranks[:, 1:] + ranks[:, :-1] == dim).all(axis=1)
    log_tau = np.zeros(k)
    if acyclic.any():
        # D_deg of every complex at the ranks r of the acyclic ones, its
        # columns gathered as rows of the transpose.  A singular D_deg has
        # logdet -inf, so exactly the complexes with one end with a
        # non-finite log_tau (inf - inf is NaN, hence the errstate)
        r = ranks[acyclic.argmax()]
        stack = np.arange(k)[:, None]
        unit = np.eye(max(dims), dtype=complex)
        with np.errstate(invalid="ignore"):
            for deg in range(0, n + 1):
                if not dim[deg]:
                    continue
                rows = []
                if deg + 1 <= n:
                    rows.append(bnds[n - deg - 1].transpose(0, 2, 1)[stack, columns[deg + 1][:, :r[deg + 1]]])
                if deg >= 1 and r[deg]:
                    # the unit vectors of C_deg at the pivot columns of d_deg
                    rows.append(unit[columns[deg][:, :r[deg]], :dim[deg]])
                logdet = np.linalg.slogdet(np.concatenate(rows, axis=1).transpose(0, 2, 1))[1]
                if deg % 2:
                    log_tau += logdet
                else:
                    log_tau -= logdet
        acyclic &= np.isfinite(log_tau)
    return tuple(TorsionResult(math.exp(t) if ok else None, ok, tuple(row)) for t, ok, row in
                 zip(log_tau.tolist(), acyclic.tolist(), ranks[:, 1:n + 1].tolist()))
