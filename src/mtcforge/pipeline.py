"""Candidate modular data assembled from manifold invariants.

A candidate bundles an ordered character list with the unit first, exact
Chern-Simons values, torsions and central actions.  Its S-matrix is built
from the trace weights of each label's loop operators and certified against
the independent catalog constructions.

Both manifold families build S one way.  With W_f[beta, alpha] the trace
weight of label alpha's operators on factor f at character beta,

    S[a, b] = prod_f W_f[b, a] * W_f[0, b],

over the three fibers of a Seifert space (each weight table at fiber size,
gathered onto the labels) or over a single factor for a torus bundle and
for the reseated unit.

Every rank^2 pass here (the S build, the torus weight table and the
`certify` comparison) works in the row bands of `algebra.row_bands`, written
into or read from the final arrays, so that no temporary is larger than one
band.  `certify` reads both S-matrices through `ModularData.s_band`, so a
graded-product reference, which stores no S above `algebra.BAND_ROWS`
labels, is checked band by band and a certified `sfs` run holds one
S-matrix, the candidate's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import seifert, torus_bundle
from .algebra import (
    DEFAULT_TOL,
    RationalPhase,
    chebyshev_table,
    phase_cos,
    row_bands,
)
from .catalog import ModularData
from .seifert import SeifertData
from .torus_bundle import TorusMonodromy


@dataclass(frozen=True, eq=False)
class CandidateData:
    """Residue contract: label i has Chern-Simons value cs_residues[i] / cs_den
    in Q/Z.  J is a Seifert space's int64 (rank, 3) degree rows, None for a
    torus bundle.  `labels` are those of `data`.  `characters` and `cs` are
    built on first access: a Seifert character is its degree row, as a tuple
    of three ints, and a torus-bundle character a `TorusCharacter`."""

    manifold_tag: str
    manifold: object
    J: np.ndarray | None
    cs_residues: np.ndarray
    cs_den: int
    torsions: np.ndarray
    data: ModularData
    central_actions: tuple

    @property
    def labels(self) -> tuple[str, ...]:
        return self.data.labels

    @property
    def rank(self) -> int:
        return len(self.labels)

    @cached_property
    def characters(self) -> tuple:
        if self.J is None:
            return tuple(torus_bundle.enumerate_torus_characters(self.manifold))
        return tuple(map(tuple, self.J.tolist()))

    @cached_property
    def cs(self) -> tuple[RationalPhase, ...]:
        return tuple(RationalPhase.of(x, self.cs_den) for x in self.cs_residues.tolist())


def _s_matrix(factors) -> np.ndarray:
    """S[a, b] = prod_f W_f[J_f[b], J_f[a]] * W_f[0, J_f[b]].

    factors holds one (W_f, J_f) pair per factor: the weight table
    W_f[beta, alpha] at the factor's own size, and the map J_f from candidate
    labels to factor labels (None for the identity, only for a single
    factor).  A fiber's product W_f^T * W_f[0, :] is formed at fiber size and
    gathered onto the labels band by band, written straight into S, so no
    temporary is larger than one band; each entry is the same product in
    the same factor order as a one-shot gather.
    """
    tables = [(W, J) if J is None else (W.T * W[0, :], J) for W, J in factors]
    T0, J0 = tables[0]
    rank = len(T0) if J0 is None else len(J0)
    S = np.empty((rank, rank), dtype=np.result_type(*(T for T, _ in tables)))
    for rows in row_bands(rank):
        band = S[rows]
        for k, (T, J) in enumerate(tables):
            if J is None:
                np.multiply(T[:, rows].T, T[0, :], out=band)
            elif k == 0:
                band[...] = T.take(J[rows], 0).take(J, 1)
            else:
                band *= T.take(J[rows], 0).take(J, 1)
    return S


def _assemble(manifold_tag, manifold, J, labels, cs, torsions, s_tilde, grading,
              central_actions) -> CandidateData:
    """cs: a (residues, den) pair; the twists are cs[0] - cs mod den."""
    # the unit is label 0, as ModularData requires
    residues, den = cs
    twists = ((residues[0] - residues) % den, den)
    dims = s_tilde[0].copy()
    D2 = 2.0 * float(torsions[0])
    data = ModularData(labels, dims, twists, s_tilde, D2, grading)
    data.validate(require_dim_sum=False)
    torsions = np.asarray(torsions, dtype=float)
    if np.abs(np.abs(data.s_tilde[0, :]) ** 2 - D2 / (2.0 * torsions)).max() \
            > DEFAULT_TOL * max(1.0, D2):
        raise AssertionError("|S[0,:]|^2 does not match D^2/(2 Tor)")
    return CandidateData(manifold_tag, manifold, J, *cs, torsions, data, central_actions)


def sfs_candidate(M: SeifertData, unit: str = "canonical") -> CandidateData:
    """Candidate data for a three-fiber space.

    canonical: the all-zero-degree character is the unit; label alpha carries
    the operators (x_k^{c_k}, degree j_k) and the sign epsilon = -1.

    reseated: only for the (3,1),(3,1),(r,1) family; labels are re-indexed
    from the top degree down, the unit is the old top character, and label j
    carries the single operator (x_3, degree j).

    No size check: time and memory grow as the square of the rank,
    `seifert.character_count(M)`.  The CLI holds the bound.
    """
    if unit == "canonical":
        return _sfs_canonical(M)
    if unit == "reseated":
        return _sfs_reseated(M)
    raise ValueError(f"unknown unit choice {unit!r}")


def _sfs_assemble(M: SeifertData, tag, J, labels, S, grading) -> CandidateData:
    """The characters with degree rows J, with exact CS values mod L =
    lcm(4 p_k), torsions and central actions."""
    cs, L, tors = seifert._label_tables(M, J)
    actions = tuple(seifert._central_reps(M, J, (cs, L)))
    return _assemble(tag, M, J, labels, (cs, L), tors, S, grading, actions)


def _sfs_canonical(M: SeifertData) -> CandidateData:
    J = seifert._degree_rows(M)
    labels = tuple(map("({},{},{})".format, *J.T.tolist()))
    # fiber character and fiber label are both indexed by the degree
    S = _s_matrix([(f.weights, J[:, k]) for k, f in enumerate(M.fibers)])
    return _sfs_assemble(M, M.tag(), J, labels, S, tuple((J[:, 0] % 2).tolist()))


def _sfs_reseated(M: SeifertData) -> CandidateData:
    if M.p[:2] != (3, 3) or M.q != (1, 1, 1):
        raise ValueError("reseated unit is defined only for the (3,1),(3,1),(r,1) family")
    r = M.p[2]
    # label j is the character of third degree r - 2 - j
    J = seifert._degree_rows(M)
    J = J[np.argsort(-J[:, 2])]
    labels = tuple(f"~{j}" for j in range(r - 1))
    traces = seifert._fiber_traces(M.fibers[2], 1)[J[:, 2]]
    S = _s_matrix([(chebyshev_table(r - 1, -traces), None)])
    return _sfs_assemble(M, M.tag() + "~reseated", J, labels, S,
                         tuple(j % 2 for j in range(r - 1)))


def torus_candidate(T: TorusMonodromy) -> CandidateData:
    """Candidate data for a supported torus bundle: unit rho+, operators
    (x, degree 0) on the reducibles and (x^{mk}, degree 1) on rho_k,
    with epsilon = +1.  No size check: time and memory grow as the square of
    the rank, (N + 3) / 2.  The CLI holds the bound."""
    chars = torus_bundle.enumerate_torus_characters(T)
    labels = tuple(c.label() for c in chars)
    tors = np.array([torus_bundle.torus_torsion(T, c) for c in chars])
    # W[beta, alpha]: alpha's single operator x^e at beta.  A degree-0
    # operator weighs 1; x^{m k_alpha} of degree 1 has trace 2 at a reducible,
    # where x is unipotent, and 2cos(2 pi m k_alpha k_beta / N) at rho_{k_beta}
    trace = np.array([phase_cos(RationalPhase.of(n, T.N)) for n in range(T.N)])
    k = np.arange(1, T.r + 1, dtype=np.int64)
    W = np.empty((len(labels), len(labels)))
    W[:, :2] = 1.0
    W[:2, 2:] = 2.0
    # in bands, so that the int64 index table is never larger than one band
    for rows in row_bands(T.r):
        W[2:, 2:][rows] = trace[T.m * (np.outer(k[rows], k) % T.N) % T.N]
    S = _s_matrix([(W, None)])
    actions = tuple(torus_bundle.central_reps(T))
    return _assemble(T.tag(), T, None, labels, torus_bundle._cs_residues(T), tors, S, None,
                     actions)


@dataclass(frozen=True)
class AdmissibilityReport:
    sum_inverse_2tor: float
    gauss_sum_modulus: float
    target_modulus: float
    s_X: tuple[str, ...]
    s_L: float
    orbits: tuple[tuple[str, ...], ...]
    central_classification: tuple[str, ...]
    admissible: bool


def admissibility_report(C: CandidateData) -> AdmissibilityReport:
    """Evaluate both admissibility sums and the central-representation data.

    The target modulus is sqrt(|s(X)|) / (s_L sqrt(2 Tor(unit))) where s(X)
    is the set of labels centrally related to the unit (same orbit, same
    exact Chern-Simons value, same torsion) and s_L is sqrt(2) when the
    relating subgroup contains a fermionic representation.
    """
    inv2tor = 1.0 / (2.0 * C.torsions)
    total = float(inv2tor.sum())
    # x / L is the double of the reduced phase too: division rounds correctly.
    # cumsum adds in label order, as a Python sum does; np.sum would pair terms
    cs, L = C.cs_residues, C.cs_den
    gauss = float(abs(np.cumsum(np.exp(-2j * math.pi * (cs / L)) * inv2tor)[-1]))
    unit = 0
    acts = C.central_actions
    classification = tuple(
        "bosonic" if act.is_bosonic else "fermionic" if act.is_fermionic else "neither"
        for act in acts
    )
    t0 = C.torsions[unit]
    g0 = [(act, kind) for act, kind in zip(acts, classification)
          if cs[act.permutation[unit]] == cs[unit]
          and abs(C.torsions[act.permutation[unit]] - t0) <= DEFAULT_TOL * t0]
    s_X = sorted({act.permutation[unit] for act, _ in g0})
    s_L = math.sqrt(2) if any(kind == "fermionic" for _, kind in g0) else 1.0
    # orbit partition of the label set under the relating subgroup: label i
    # opens an orbit, the images of i in increasing order, unless an earlier
    # orbit holds it
    moved = [act.permutation for act, _ in g0 if not act.is_trivial]
    if not moved:
        orbits = tuple(zip(C.labels))
    else:
        images = np.sort(np.stack([np.arange(C.rank), *moved]), axis=0).T.tolist()
        seen, orbits = set(), []
        for i, row in enumerate(images):
            if i not in seen:
                orbit = dict.fromkeys(row)
                seen.update(orbit)
                orbits.append(tuple(map(C.labels.__getitem__, orbit)))
        orbits = tuple(orbits)
    target = math.sqrt(len(s_X)) / (s_L * math.sqrt(2.0 * t0))
    admissible = abs(total - 1.0) < DEFAULT_TOL and abs(gauss - target) < DEFAULT_TOL
    return AdmissibilityReport(
        total, gauss, target, tuple(C.labels[i] for i in s_X), s_L,
        orbits, classification, admissible,
    )


@dataclass(frozen=True)
class Certificate:
    passed: bool
    rank: int
    max_s_delta: float
    twists_equal: bool
    max_dim_delta: float
    total_dim_sq_delta: float


def certify(C: CandidateData, D: ModularData) -> Certificate:
    """Entrywise equality certificate between candidate and catalog data:
    passes when the S-matrices and dimension rows agree within DEFAULT_TOL
    and the twists agree exactly.  The total-dimension discrepancy is
    reported but not gated (it can differ for inadmissible label sets)."""
    if C.rank != D.rank:
        raise ValueError(f"rank mismatch: candidate {C.rank}, reference {D.rank}")
    # band by band; a reference whose S is not stored builds each band here.
    # np.maximum, unlike Python's max, carries NaN through.  The bands must
    # cover every row: a certificate that skipped some compared nothing there
    ds = scale = 0.0
    covered = 0
    for rows in row_bands(C.rank):
        R = D.s_band(rows)
        ds = np.maximum(ds, np.abs(C.data.s_band(rows) - R).max())
        scale = np.maximum(scale, np.abs(R).max())
        covered += len(R)
    ds = float(ds)
    # a / d == b / e exactly when a e == b d; both products stay below d e < 2^62
    tw = not (C.data.twist_residues * D.twist_den - D.twist_residues * C.data.twist_den).any()
    dd = float(np.abs(C.data.dims - D.dims).max())
    dD2 = float(abs(C.data.total_dim_sq - D.total_dim_sq))
    passed = bool(covered == C.rank and ds < DEFAULT_TOL * max(1.0, float(scale)) and tw
                  and dd < DEFAULT_TOL * max(1.0, float(np.abs(D.dims).max())))
    return Certificate(passed, C.rank, ds, tw, dd, dD2)


def sl2z_diagnostics(D: ModularData) -> dict[str, float]:
    """Residuals of the modular-group relations for S = s_tilde/D and the
    diagonal twist matrix: reports |(ST)^3 - lambda S^2| and |S^4 - 1| with
    lambda fitted from the (0,0) entry.  Diagnostic only.  Four complex
    matmuls: ST scales the columns of S by theta, and (ST)^3 = (ST ST) ST and
    S^4 = S^2 S^2 are the products `matrix_power` forms."""
    # cast before dividing: the golden outputs were written with numpy's
    # complex division, which rounds differently from the real one
    S = D.s_tilde.astype(complex) / math.sqrt(D.total_dim_sq)
    ST = S * D.theta()
    ST3 = (ST @ ST) @ ST
    S2 = S @ S
    lam = ST3[0, 0] / S2[0, 0] if abs(S2[0, 0]) > 1e-12 else 1.0
    return {
        "st_cubed_residual": float(np.abs(ST3 - lam * S2).max()),
        "s_fourth_residual": float(np.abs(S2 @ S2 - np.eye(D.rank)).max()),
        "lambda_modulus": abs(lam),
    }
