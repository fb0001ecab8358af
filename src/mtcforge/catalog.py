"""Reference constructions of premodular data, independent of any manifold.

Kauffman-bracket categories at a root of unity, their unitary cousins, the
rank-(r+2) integral subcategories attached to odd orthogonal groups at level
two, graded products, and the structural checks (transparency, modularity,
Verlinde fusion) used to certify candidate data.

Every rank^2 pass here reads S through `ModularData.s_band`, one band of
`algebra.row_bands` at a time.  A graded product above `algebra.BAND_ROWS`
labels, of two exactly symmetric factors, does not store its S: it keeps the
factor tables gathered onto its columns, and `s_band` builds S band by band.
Its `validate`, its transparency test and a `certify` against it read only
such bands, so a certified `sfs` run holds one rank^2 matrix, the
candidate's.  Reading `s_tilde` builds and keeps the full matrix, bit-equal
to the one-shot product.  `s_det_modulus` reads it: the determinant is a
report figure, not part of the transparency test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from math import gcd

import numpy as np

from .algebra import BAND_ROWS, RationalPhase, comparison_tolerance, phase_sin, row_bands


@dataclass(frozen=True, eq=False)
class ModularData:
    """Label set with quantum dimensions, exact twists, un-normalized S-matrix
    (unit row/column first, S[0,0] = 1), total dimension squared, and an
    optional Z2 grading.  Arrays are frozen read-only.  Residue contract:
    twist i is stored as twist_residues[i] / twist_den in Q/Z, given to the
    constructor as a (residues, den) pair or a tuple of RationalPhase;
    `twists` is the tuple of reduced RationalPhase, built on first access.
    dtype contract: s_tilde is float64 when every entry is real (a complex
    input with an all-zero imaginary part keeps its real part), and
    complex128 only when some imaginary part is nonzero.
    S contract: `s_band(rows)` returns those rows of S; when S is stored
    they are a read-only view.  A graded product above BAND_ROWS labels of
    two exactly symmetric factors stores no S: its bands are built from the
    factor tables, and `s_tilde` is built on first access, read-only and
    bit-equal to the stored product, under the same dtype contract.
    Label contract: `labels` is given as a tuple, or as a function of no
    arguments that returns it, called on first access; a graded product
    passes one, as certifying against it reads no label."""

    labels: tuple[str, ...]
    dims: np.ndarray
    twists: tuple[RationalPhase, ...]
    s_tilde: np.ndarray
    total_dim_sq: float
    grading: tuple[int, ...] | None = None

    def __post_init__(self):
        # the instance dict takes the derived fields: the class is frozen
        d = self.__dict__
        if callable(self.labels):
            d["_labels_source"] = d.pop("labels")
        tw = d.pop("twists")
        res, den = tw if len(tw) == 2 and isinstance(tw[0], np.ndarray) else RationalPhase.residues(tw)
        if den >= 2**31:   # keeps the rescaled sums of graded_product and certify in int64
            raise ValueError(f"twist denominator {den} exceeds 2^31")
        d["twist_den"] = den
        frozen = {"dims": np.ascontiguousarray(self.dims, dtype=float),
                  "twist_residues": np.asarray(res, dtype=np.int64) % den}
        S = self.s_tilde
        if isinstance(S, _ProductS):   # s_tilde is built on first access
            d["_s_source"] = d.pop("s_tilde")
        else:
            S = np.asarray(S)
            if np.iscomplexobj(S) and not S.imag.any():
                S = S.real
            frozen["s_tilde"] = np.ascontiguousarray(S, dtype=complex if np.iscomplexobj(S) else float)
        for name, a in frozen.items():
            a.setflags(write=False)
        d.update(frozen)

    def __getattr__(self, name):
        # `twists`, and `labels` and `s_tilde` given as sources, left out by
        # __post_init__, are built on first use
        d = self.__dict__
        if name == "twists" and "twist_den" in d:
            value = tuple(RationalPhase.of(x, self.twist_den) for x in self.twist_residues.tolist())
        elif name == "labels" and "_labels_source" in d:
            value = d["_labels_source"]()
        elif name == "s_tilde" and "_s_source" in d:
            value = d["_s_source"].build()
            value.setflags(write=False)
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, value)
        return value

    def s_band(self, rows: slice) -> np.ndarray:
        """Rows `rows` of S: a read-only view when S is stored, built from the
        factor tables of a source-backed S."""
        S = self.__dict__.get("s_tilde")
        return self._s_source.rows(rows) if S is None else S[rows]

    @property
    def rank(self) -> int:
        return len(self.dims)

    def validate(self, require_dim_sum: bool = True) -> "ModularData":
        """Check shapes, finiteness, symmetry, the unit row and twist; return
        self.  S is read through `s_band` in the bands of `row_bands`: each
        band gives the scale, so a source-backed S is never stored.  When S
        is known to equal its transpose bit for bit (`exactly_symmetric`
        already read, or set by `graded_product`, as for every source-backed
        S), the symmetry residual is zero and its pass is skipped.
        Otherwise S is stored, and the residual |S[i, j] - S[j, i]| on and
        above the diagonal is taken band by band against the same columns of
        S, so no temporary is larger than one band."""
        tol = comparison_tolerance()
        r = self.rank
        S = self.__dict__.get("s_tilde", self.__dict__.get("_s_source"))
        if S.shape != (r, r) or len(self.twist_residues) != r \
                or len(self.__dict__.get("labels", self.dims)) != r:
            raise ValueError("inconsistent rank")
        symmetric = self.__dict__.get("exactly_symmetric", False)
        # a band's largest |entry| is finite exactly when every entry in it is;
        # the check comes before the band's residual, so Python's max, which
        # may drop a NaN, only ever meets finite numbers
        scale, asym, covered = 1.0, 0.0, 0
        bands = row_bands(r)
        for k, rows in enumerate(bands):
            A = self.s_band(rows)
            m = np.abs(A).max()
            if not math.isfinite(m):
                raise ValueError("non-finite S entries")
            scale = max(scale, m)
            covered += len(A)
            if not symmetric:
                AT = self.s_tilde[:, rows].T
                for cols in bands[k:]:
                    asym = max(asym, np.abs(A[:, cols] - AT[:, cols]).max())
                del AT
            del A   # a built band is freed before the next one is built
        if covered != r:
            raise ValueError(f"the row bands cover {covered} of {r} rows")
        if asym > tol * scale:
            raise ValueError("S-matrix not symmetric")
        row0 = self.s_band(slice(0, 1))[0]
        if abs(row0[0] - 1.0) > tol:
            raise ValueError("S[0,0] must be 1 (unit-normalized)")
        if np.abs(row0 - self.dims).max() > tol * scale:
            raise ValueError("first S row must equal quantum dimensions")
        # candidates report the dim-sum identity through the admissibility
        # check instead; it can genuinely fail for inadmissible label sets
        if require_dim_sum and abs(float(np.sum(self.dims**2)) - self.total_dim_sq) \
                > tol * max(1.0, self.total_dim_sq):
            raise ValueError("sum of dims^2 must equal total_dim_sq")
        if self.twist_residues[0] != 0:
            raise ValueError("unit twist must be trivial")
        if self.grading is not None and len(self.grading) != r:
            raise ValueError("grading length mismatch")
        return self

    @cached_property
    def exactly_symmetric(self) -> bool:
        """Whether S equals S^T bit for bit, tested on first read; a graded
        product of exactly symmetric factors has it set, untested."""
        return bool(np.array_equal(self.s_tilde, self.s_tilde.T))

    @cached_property
    def sector_dim_sq(self) -> tuple[float, float]:
        """The sums of dims^2 over the grade-0 labels and over the grade-1
        labels, built on first read; only for graded data."""
        g = np.array(self.grading)
        return tuple(float(np.sum(self.dims[g == k] ** 2)) for k in (0, 1))

    def theta(self) -> np.ndarray:
        """Diagonal of the T-matrix as complex numbers."""
        return np.array([t.to_complex() for t in self.twists])


@dataclass(frozen=True)
class ModularityReport:
    is_modular: bool
    transparent_labels: tuple[str, ...]


def _reduced(residues: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """residues / den over the least common denominator of the reduced phases."""
    g = math.gcd(den, *residues.tolist())
    return residues // g, den // g


@lru_cache(maxsize=None)
def tlj_data(A_phase: RationalPhase) -> ModularData:
    """Kauffman-bracket premodular data at variable A = e^{2*pi*i*A_phase}.

    Defined whenever A^4 is a primitive root of unity of order r >= 2;
    labels 0..r-2, graded by parity.  Dimensions are signed: (-1)^j [j+1].
    Results are cached; treat them as read-only.
    """
    a, b = A_phase.numerator, A_phase.denominator
    r = b // gcd(4 * a, b)   # the order of A^4
    if r < 2:
        raise ValueError("A^4 = 1: no associated category")
    labels = tuple(str(j) for j in range(r - 1))
    # theta_j = (-A)^{j(j+2)}, with -A at the phase (2a + b) / (2b)
    j = np.arange(r - 1, dtype=np.int64)
    twists = _reduced(j * (j + 2) % (2 * b) * ((2 * a + b) % (2 * b)) % (2 * b), 2 * b)
    # S[i, j] = (-1)^(i+j) [(i+1)(j+1)] with [n] = sin(2 pi n t) / sin(2 pi 2t), t = a/b:
    # sin(2 pi n t) is the sine of the residue 2an mod b, exactly reduced
    sines = np.array([phase_sin(RationalPhase.of(k, b)) for k in range(b)])
    s2 = phase_sin(RationalPhase.of(2 * a, b))
    sign = 1 - 2 * ((j[:, None] + j) % 2)
    S = sign * sines[2 * a * np.outer(j + 1, j + 1) % b] / s2
    d = S[0].copy()
    D2 = 2 * r / (2 * s2) ** 2
    grading = tuple((j % 2).tolist())
    return ModularData(labels, d, twists, S, D2, grading).validate()


@lru_cache(maxsize=None)
def su2_level(k: int) -> ModularData:
    """The unitary rank-(k+1) quantum SU(2) data at level k, graded by parity."""
    if k < 0:
        raise ValueError("level must be >= 0")
    r = k + 2
    labels = tuple(str(j) for j in range(k + 1))
    s1 = math.sin(math.pi / r)
    S = np.array([[math.sin((i + 1) * (j + 1) * math.pi / r) / s1 for j in range(k + 1)]
                  for i in range(k + 1)])
    d = S[0].copy()
    j = np.arange(k + 1, dtype=np.int64)
    twists = _reduced(j * (j + 2) % (4 * r), 4 * r)
    D2 = (r / 2) / s1**2
    grading = tuple((j % 2).tolist())
    return ModularData(labels, d, twists, S, D2, grading).validate()


def soN2_adjoint(N: int, m: int) -> ModularData:
    """Integral subcategory data for odd orthogonal N at level two, rank
    (N-1)/2 + 2, at the root indexed by odd m coprime to 2N.  Properly
    premodular: the rows of the unit and of Z coincide."""
    if N < 5 or N % 2 == 0:
        raise ValueError("N must be odd and >= 5")
    if m % 2 == 0 or gcd(m, 2 * N) != 1:
        raise ValueError("m must be odd and coprime to 2N")
    r = (N - 1) // 2
    labels = ("1", "Z") + tuple(f"Y{k}" for k in range(1, r + 1))
    d = np.array([1.0, 1.0] + [2.0] * r)
    ks = np.arange(1, r + 1)
    twists = (np.concatenate([[0, 0], m % (2 * N) * (N * ks - ks * ks) % (2 * N)]), 2 * N)
    four_cos = np.array([4 * math.cos(2 * math.pi * n / N) for n in range(N)])
    S = np.full((r + 2, r + 2), 2.0)
    S[:2, :2] = 1.0
    # in bands, so that the int64 index table is never larger than one band
    for rows in row_bands(r):
        S[2:, 2:][rows] = four_cos[m * (np.outer(ks[rows], ks) % N) % N]
    return ModularData(labels, d, twists, S, 2.0 * N).validate()


def graded_product(X: ModularData, Y: ModularData) -> ModularData:
    """Sector-wise product of two Z2-graded data sets.

    Labels are the matching-grade pairs, even block before odd block, each
    lexicographic; dims and S entries multiply and twists add componentwise.
    """
    if X.grading is None or Y.grading is None:
        raise ValueError("both factors must carry a Z2 grading")
    gx, gy = np.array(X.grading), np.array(Y.grading)
    ii, jj = np.nonzero(gx[:, None] == gy)
    order = np.argsort(gx[ii], kind="stable")
    ii, jj = ii[order], jj[order]
    labels = partial(_product_labels, _label_source(X), _label_source(Y), ii, jj)
    dims = X.dims[ii] * Y.dims[jj]
    L = math.lcm(X.twist_den, Y.twist_den)
    twists = (X.twist_residues[ii] * (L // X.twist_den)
              + Y.twist_residues[jj] * (L // Y.twist_den)) % L
    # S[a, b] = X[ii[a], ii[b]] * Y[jj[a], jj[b]].  When both factors are
    # exactly symmetric, S[b, a] is the same product of the same two floats,
    # and above BAND_ROWS labels S is not stored but built band by band where
    # it is read.  Up to that size it is stored: rebuilding the bands of the
    # Seifert sweep's small products on every read made the sweep body
    # about 9 % slower
    symmetric = X.exactly_symmetric and Y.exactly_symmetric
    if len(ii) > BAND_ROWS and symmetric:
        S = _ProductS(X, Y, ii, jj)
    else:
        S = X.s_tilde.take(ii, 1).take(ii, 0) * Y.s_tilde.take(jj, 1).take(jj, 0)
    (x0, x1), (y0, y1) = X.sector_dim_sq, Y.sector_dim_sq
    D2 = x0 * y0 + x1 * y1
    grading = tuple(gx[ii].tolist())
    D = ModularData(labels, dims, (twists, L), S, D2, grading)
    if symmetric:
        D.__dict__["exactly_symmetric"] = True
    return D.validate()


def _label_source(D: ModularData):
    """D's labels, or the function that builds them: all that a product's
    labels need of D, so that they do not keep D and its S alive."""
    d = D.__dict__
    return d["labels"] if "labels" in d else d["_labels_source"]


def _product_labels(x, y, ii: np.ndarray, jj: np.ndarray) -> tuple[str, ...]:
    """The labels "(x, y)" of the matching-grade pairs ii, jj of two label
    sources, each a tuple or a function that builds it."""
    x, y = (s() if callable(s) else s for s in (x, y))
    return tuple(f"({x[i]},{y[j]})" for i, j in zip(ii.tolist(), jj.tolist()))


class _ProductS:
    """The S of a graded product of two exactly symmetric factors, S[a, b] =
    X[ii[a], ii[b]] * Y[jj[a], jj[b]], held as the factor tables gathered
    onto the product's columns.  A band of rows is the product of two row
    gathers, so it is bit-equal to the same rows of the stored product."""

    def __init__(self, X: ModularData, Y: ModularData, ii: np.ndarray, jj: np.ndarray):
        Xc, Yc = X.s_tilde.take(ii, 1), Y.s_tilde.take(jj, 1)
        self.ii, self.jj, self.tables = ii, jj, (Xc, Yc)
        self.shape = (len(ii), len(ii))
        # ModularData's dtype contract: complex only when some imaginary part is nonzero
        self.dtype = np.result_type(Xc, Yc)
        if self.dtype == complex and not any(self.rows(rows).imag.any()
                                             for rows in row_bands(len(ii))):
            self.dtype = np.dtype(float)

    def rows(self, rows: slice) -> np.ndarray:
        Xc, Yc = self.tables
        # one gather at a time: the band and one gather are all it holds
        band = Xc.take(self.ii[rows], 0).astype(np.result_type(Xc, Yc), copy=False)
        band *= Yc.take(self.jj[rows], 0)
        return band if band.dtype == self.dtype else band.real

    def build(self) -> np.ndarray:
        S = np.empty(self.shape, self.dtype)
        for rows in row_bands(len(S)):
            S[rows] = self.rows(rows)
        return S


def find_transparent(D: ModularData) -> ModularityReport:
    """Labels whose S-row is proportional to the dimension row; the data are
    modular exactly when only the unit qualifies.  S is read through
    `s_band`, so a source-backed S is never stored."""
    tol = comparison_tolerance()
    dev, scale, covered = np.empty(D.rank), 0.0, 0
    for rows in row_bands(D.rank):
        A = D.s_band(rows)
        # np.maximum, unlike Python's max, carries NaN into the scale
        scale = np.maximum(scale, np.abs(A).max())
        dev[rows] = np.abs(A - A[:, :1] / D.dims[0] * D.dims).max(axis=1)
        covered += len(A)
    # a row no band read would keep the uninitialized value of np.empty
    if covered != D.rank:
        raise ValueError(f"the row bands cover {covered} of {D.rank} rows")
    transparent = [D.labels[i] for i in np.flatnonzero(dev <= tol * max(scale, 1.0))]
    return ModularityReport(transparent == [D.labels[0]], tuple(transparent))


def s_det_modulus(D: ModularData) -> float:
    """|det(S/D_total)|: bounded away from zero for modular data, zero for
    degenerate data.  A report figure; it reads, and so stores, all of S."""
    # complex, as the golden outputs were written: a real LU rounds differently
    sign, logabs = np.linalg.slogdet(D.s_tilde.astype(complex))
    if sign == 0:
        return 0.0
    return math.exp(logabs - D.rank * 0.5 * math.log(D.total_dim_sq))


def verlinde_fusion(D: ModularData) -> np.ndarray:
    """Fusion multiplicities N_ij^k = sum_m S_im S_jm conj(S_km) / S_0m with
    S the normalized matrix; only defined for modular data."""
    if not find_transparent(D).is_modular:
        raise ValueError("Verlinde fusion needs modular (non-degenerate) data")
    S = D.s_tilde / math.sqrt(D.total_dim_sq)
    N = (S[:, None, :] * S).reshape(-1, D.rank) @ (S.conj() / S[0, :]).T
    return N.real.reshape((D.rank,) * 3)


def fusion_defects(N: np.ndarray) -> tuple[float, float]:
    """(max distance to nonnegative integers, max associativity defect)."""
    rounded = np.round(N)
    integrality = float(np.abs(N - rounded).max())
    if rounded.min() < 0:
        integrality = max(integrality, float(-rounded.min()))
    # sum_m N_ij^m N_mk^l and sum_m N_jk^m N_im^l, both flattened in (i, j, k, l) order
    flat = N.reshape(-1, len(N))
    assoc = float(np.abs((flat @ N.reshape(len(N), -1)).ravel() - (flat @ N).ravel()).max())
    return integrality, assoc


def reorder(D: ModularData, perm) -> ModularData:
    """Data with label order permuted: new index i holds old index perm[i]."""
    perm = list(perm)
    if sorted(perm) != list(range(D.rank)):
        raise ValueError("not a permutation")
    P = np.array(perm)
    return ModularData(
        tuple(D.labels[i] for i in perm),
        D.dims[P],
        (D.twist_residues[P], D.twist_den),
        D.s_tilde[np.ix_(P, P)],
        D.total_dim_sq,
        None if D.grading is None else tuple(D.grading[i] for i in perm),
    )


def graded_order_permutation(D: ModularData) -> list[int]:
    """Permutation putting a graded label set into even-then-odd block order."""
    if D.grading is None:
        raise ValueError("data carries no grading")
    return [i for i in range(D.rank) if D.grading[i] == 0] + \
           [i for i in range(D.rank) if D.grading[i] == 1]
