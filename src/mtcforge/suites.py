"""Verification sweeps: each suite exercises one headline property across a
parameter range and reports a machine-readable result.  The acceptance tests
and the command-line `verify` command both run these.
"""

from __future__ import annotations

import ctypes
import gc
import inspect
import itertools
import os
import random
import time
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, sqrt

import numpy as np

from . import torus_bundle
from .algebra import RationalPhase, parity_exp_sum_closed, parity_exp_sum_table
from .catalog import (
    ModularData,
    find_transparent,
    fusion_defects,
    graded_order_permutation,
    graded_product,
    reorder,
    su2_level,
    soN2_adjoint,
    tlj_data,
    verlinde_fusion,
)
from .pipeline import admissibility_report, certify, sfs_candidate, torus_candidate
from .seifert import character_count, make_sfs, z2_homology_sphere
from .torsion_engine import chain_torsion, openblas_function
from .torus_bundle import build_adjoint_complex, enumerate_torus_characters, make_torus_bundle


MONODROMY_BOUND = 20
SU2_MAX_R = 12
ORACLE_MIN_PAIRS = 20
VERLINDE_RANK_CAP = 24


@dataclass
class SuiteResult:
    name: str
    check: str
    passed: bool
    cases: int
    failures: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({len(self.failures)} failures)" if self.failures else ""
        return f"[{status}] {self.name}: {self.cases} cases{extra}"


def coprime_pairs(max_p: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(2, max_p + 1) for q in range(1, p) if gcd(p, q) == 1]


def sfs_sweep_instances(max_p: int) -> list[tuple[tuple[int, int], ...]]:
    """Unordered triples of coprime surgery pairs with 2 <= p <= max_p."""
    return list(itertools.combinations_with_replacement(coprime_pairs(max_p), 3))


@dataclass(frozen=True)
class SweepRecord:
    pairs: tuple[tuple[int, int], ...]
    rank: int
    certified: bool
    max_s_delta: float
    modular: bool
    z2_sphere: bool
    sum_inverse_2tor: float
    gauss_modulus: float
    target_modulus: float
    admissible: bool
    two_fiber_count: int


@lru_cache(maxsize=4)
def sfs_sweep_records(max_p: int = 9) -> tuple[SweepRecord, ...]:
    """One pass over the sweep computing certification, modularity, and
    admissibility data per manifold; consumed by several suites."""
    return sfs_records(sfs_sweep_instances(max_p))


def sfs_reference(M, unit: str = "canonical") -> ModularData:
    """The catalog data an SFS candidate is certified against: the nested
    graded product of the fibers' Kauffman data, or SU(2) at level p3 - 2
    for the reseated unit."""
    if unit == "reseated":
        return su2_level(M.p[2] - 2)
    X, Y, Z = (tlj_data(f.A) for f in M.fibers)
    return graded_product(graded_product(X, Y), Z)


def sfs_records(triples) -> tuple[SweepRecord, ...]:
    """The sweep records of the given triples, in order: a chunk of the sweep."""
    out = []
    for pairs in triples:
        M = make_sfs(pairs)
        C = sfs_candidate(M)
        cert = certify(C, sfs_reference(M))
        rep = find_transparent(C.data)
        adm = admissibility_report(C)
        out.append(SweepRecord(
            pairs, C.rank, cert.passed, cert.max_s_delta, rep.is_modular,
            z2_homology_sphere(M), adm.sum_inverse_2tor, adm.gauss_sum_modulus,
            adm.target_modulus, adm.admissible, sum(1 for p, _ in pairs if p == 2),
        ))
    return tuple(out)


def supported_monodromies(max_N: int = 13) -> list[tuple[int, int, int, int]]:
    """All (a,b,c,d) with det 1, N = a+d+2 odd in (4, max_N], gcd(c,N) = 1,
    and |entries| <= MONODROMY_BOUND, sorted."""
    out = []
    for N in range(5, max_N + 1, 2):
        for a in range(-MONODROMY_BOUND, MONODROMY_BOUND + 1):
            d = N - 2 - a
            if abs(d) > MONODROMY_BOUND:
                continue
            bc = a * d - 1   # nonzero: a + d = N - 2 is odd, so ad != 1
            for b in range(-MONODROMY_BOUND, MONODROMY_BOUND + 1):
                if b == 0 or bc % b:
                    continue
                c = bc // b
                if abs(c) <= MONODROMY_BOUND and gcd(c, N) == 1:
                    out.append((a, b, c, d))
    return sorted(out)


def torus_records(monodromies) -> tuple[tuple, ...]:
    """(monodromy, certificate against the level-two catalog, transparency
    report, admissibility report) per supported monodromy, in order; consumed
    by the torus-son2 and admissibility suites."""
    out = []
    for mono in monodromies:
        T = make_torus_bundle(*mono)
        C = torus_candidate(T)
        out.append((mono, certify(C, soN2_adjoint(T.N, T.m)), find_transparent(C.data),
                    admissibility_report(C)))
    return tuple(out)


# --- individual suites -----------------------------------------------------


def suite_rank6_table() -> SuiteResult:
    """Level-2 x level-3 graded product reproduces the rank-6 reference
    S and T matrices entrywise."""
    t0 = time.perf_counter()
    D = graded_product(su2_level(2), su2_level(3))
    g = (1 + sqrt(5)) / 2
    s2 = sqrt(2)
    S_ref = np.array([
        [1, g, 1, g, g * s2, s2],
        [g, -1, g, -1, -s2, g * s2],
        [1, g, 1, g, -g * s2, -s2],
        [g, -1, g, -1, s2, -g * s2],
        [g * s2, -s2, -g * s2, s2, 0, 0],
        [s2, g * s2, -s2, -g * s2, 0, 0],
    ])
    T_ref = np.exp(2j * np.pi * np.array([0, 2 / 5, 1 / 2, 9 / 10, 27 / 80, 15 / 16]))
    errS = float(np.abs(D.s_tilde - S_ref).max())
    errT = float(np.abs(D.theta() - T_ref).max())
    elapsed = time.perf_counter() - t0
    failures = []
    if D.rank != 6:
        failures.append(f"rank {D.rank} != 6")
    if errS > 1e-9:
        failures.append(f"S error {errS:.2e}")
    if errT > 1e-9:
        failures.append(f"T error {errT:.2e}")
    if elapsed > 0.1:
        failures.append(f"runtime {elapsed:.3f}s > 0.1s")
    return SuiteResult("rank6-table", "rank-6 graded product vs reference matrices",
                       not failures, 1, failures,
                       {"s_error": errS, "t_error": errT, "seconds": elapsed})


def suite_sfs_tlj(max_p: int = 9, *, records=None) -> SuiteResult:
    """Every sweep candidate equals the graded product of its three Kauffman
    data sets entrywise, with exact twists."""
    records = sfs_sweep_records(max_p) if records is None else records
    failures = [f"{r.pairs}: max |dS| = {r.max_s_delta:.2e}"
                for r in records if not r.certified]
    return SuiteResult("sfs-tlj", "candidate S/T equals graded Kauffman product",
                       not failures, len(records), failures[:20],
                       {"max_s_delta": max(r.max_s_delta for r in records)})


def suite_modularity_dichotomy(max_p: int = 9, *, records=None) -> SuiteResult:
    """Candidate is modular exactly when the manifold is a Z2-homology
    sphere, for every manifold with at most one p = 2 fiber; includes the
    rank-8 (5,1),(3,2),(5,4) instance.

    With two or more p = 2 fibers the odd sector is empty and the candidate
    label set is inadmissible; the dichotomy can then fail (the nontrivial
    mod-2 cohomology acts trivially on every character), so those instances
    are instead required to be flagged inadmissible.
    """
    records = sfs_sweep_records(max_p) if records is None else records
    failures = []
    exceptional = 0
    for r in records:
        if r.two_fiber_count >= 2:
            exceptional += 1
            if r.modular != r.z2_sphere and r.admissible:
                failures.append(f"{r.pairs}: dichotomy violated on an admissible set")
            continue
        if r.modular != r.z2_sphere:
            failures.append(f"{r.pairs}: modular={r.modular} z2={r.z2_sphere}")
    m0 = next((r for r in records if r.pairs == ((3, 2), (5, 1), (5, 4))), None)
    details = {"empty_odd_sector_instances": exceptional}
    if m0 is not None:
        details["m0_rank"] = m0.rank
        details["m0_modular"] = m0.modular
        if not (m0.modular and m0.rank == 8):
            failures.append(f"(5,1),(3,2),(5,4): rank {m0.rank}, modular {m0.modular}")
    # the sweep must populate all five p/q parity classes of the dichotomy
    want_classes = {
        (("o", "o"), ("o", "o"), ("o", "o")),
        (("e", "o"), ("o", "o"), ("o", "o")),
        (("e", "o"), ("e", "o"), ("o", "o")),
        (("e", "o"), ("e", "o"), ("e", "o")),
        (("o", "e"), ("o", "o"), ("o", "o")),
    }
    seen = set()
    for r in records:
        cls = tuple(sorted(("e" if p % 2 == 0 else "o", "e" if q % 2 == 0 else "o")
                           for p, q in r.pairs))
        seen.add(cls)
    missing = want_classes - seen
    details["parity_classes"] = len(seen)
    if missing:
        failures.append(f"parity classes not covered by the sweep: {sorted(missing)}")
    return SuiteResult("sfs-modularity", "modular iff Z2-homology sphere (admissible scope)",
                       not failures, len(records), failures[:20], details)


def suite_su2_realizations() -> SuiteResult:
    """(3,1),(3,1),(r,1) for r <= SU2_MAX_R: canonical unit matches the Kauffman data at
    e^{2 pi i/4r} (graded order), reseated unit matches level r-2, with the
    torsion-dimension identity per label."""
    failures = []
    cases = 0
    for r in range(2, SU2_MAX_R + 1):
        M = make_sfs([(3, 1), (3, 1), (r, 1)])
        cases += 1
        C = sfs_candidate(M, unit="canonical")
        ref = tlj_data(RationalPhase.of(1, 4 * r))
        cert = certify(C, reorder(ref, graded_order_permutation(ref)))
        if not cert.passed:
            failures.append(f"M({r}) canonical: dS={cert.max_s_delta:.2e} twists={cert.twists_equal}")
        Cr = sfs_candidate(M, unit="reseated")
        refr = su2_level(r - 2)
        certr = certify(Cr, refr)
        if not certr.passed:
            failures.append(f"M({r}) reseated: dS={certr.max_s_delta:.2e} twists={certr.twists_equal}")
        D = sqrt(Cr.data.total_dim_sq)
        tor_dim = np.abs(1.0 / np.sqrt(2.0 * Cr.torsions) - refr.dims / D).max()
        if tor_dim > 1e-9:
            failures.append(f"M({r}) torsion-dimension identity off by {tor_dim:.2e}")
    return SuiteResult("su2-realizations", "both unit choices certify per label",
                       not failures, cases, failures)


def suite_torus_son2(max_N: int = 13, *, torus=None) -> SuiteResult:
    """Every supported monodromy certifies against the orthogonal level-two
    adjoint data at m = -2c~-N, with exactly one non-unit transparent label."""
    failures = []
    torus = torus_records(supported_monodromies(max_N)) if torus is None else torus
    for mono, cert, rep, _ in torus:
        if not cert.passed:
            failures.append(f"{mono}: dS={cert.max_s_delta:.2e}")
        elif rep.is_modular or rep.transparent_labels != ("rho+", "rho-"):
            failures.append(f"{mono}: transparent={rep.transparent_labels}")
    return SuiteResult("torus-son2", "torus candidates match the level-two catalog",
                       not failures, len(torus), failures[:20])


def suite_torsion_oracle(max_N: int = 13) -> SuiteResult:
    """Chain-complex torsion of the explicit cell structure equals the
    closed forms N/4 (irreducible) and N (reducible)."""
    failures = []
    times = []
    pairs = 0
    picked = []
    monos = supported_monodromies(max_N)
    for N in range(5, max_N + 1, 2):
        for mono in [m for m in monos if m[0] + m[3] + 2 == N][:2]:
            picked.append(mono)
    # warm caches (lazy linear-algebra setup) and collect earlier suites' garbage, so
    # per-evaluation times are honest: a full collection mid-loop takes 20-30 ms
    T0 = make_torus_bundle(*picked[0])
    chain_torsion(build_adjoint_complex(T0, enumerate_torus_characters(T0)[0]))
    gc.collect()
    for (a, b, c, d) in picked:
        T = make_torus_bundle(a, b, c, d)
        for chi in enumerate_torus_characters(T):
            expected = torus_bundle.torus_torsion(T, chi)
            t0 = time.perf_counter()
            complex_ = build_adjoint_complex(T, chi)
            res = chain_torsion(complex_)
            times.append(time.perf_counter() - t0)
            pairs += 1
            if not res.acyclic:
                failures.append(f"{(a, b, c, d)} {chi.label()}: not acyclic")
            elif abs(res.value - expected) > 1e-6 * expected:
                failures.append(f"{(a, b, c, d)} {chi.label()}: {res.value} != {expected}")
    if pairs < ORACLE_MIN_PAIRS:
        failures.append(f"only {pairs} oracle pairs, need {ORACLE_MIN_PAIRS}")
    slow = max(times) if times else 0.0
    if slow > 0.01:
        failures.append(f"slowest evaluation {slow * 1e3:.2f} ms > 10 ms")
    return SuiteResult("torsion-oracle", "cell-complex torsion equals closed forms",
                       not failures, pairs, failures[:20],
                       {"max_ms": slow * 1e3})


def suite_admissibility(max_p: int = 9, max_N: int = 13, *, records=None, torus=None) -> SuiteResult:
    """Both admissibility sums, on the scope where they provably hold.

    Asserted: sum 1/(2Tor) = 1 for every Seifert candidate with at most one
    p = 2 fiber and for every torus candidate; the Gauss-sum target
    1/sqrt(2 Tor(unit)) for Z2-homology spheres and 1/sqrt(N) for torus
    bundles; and that candidates with >= 2 fibers of p = 2 (empty odd
    sector) are flagged inadmissible rather than passed.
    """
    failures = []
    records = sfs_sweep_records(max_p) if records is None else records
    for r in records:
        if r.two_fiber_count >= 2:
            if r.admissible:
                failures.append(f"{r.pairs}: empty-odd-sector candidate reported admissible")
            if abs(r.sum_inverse_2tor - 2.0 ** (r.two_fiber_count - 1)) > 1e-9:
                failures.append(f"{r.pairs}: sum 1/(2Tor) = {r.sum_inverse_2tor}")
            continue
        if abs(r.sum_inverse_2tor - 1.0) > 1e-9:
            failures.append(f"{r.pairs}: sum 1/(2Tor) = {r.sum_inverse_2tor}")
        if r.z2_sphere:
            if abs(r.gauss_modulus - r.target_modulus) > 1e-9 or not r.admissible:
                failures.append(f"{r.pairs}: gauss {r.gauss_modulus} target {r.target_modulus}")
    torus = torus_records(supported_monodromies(max_N)) if torus is None else torus
    for (a, b, c, d), _, _, adm in torus:
        if abs(adm.sum_inverse_2tor - 1.0) > 1e-9:
            failures.append(f"{(a, b, c, d)}: sum {adm.sum_inverse_2tor}")
        if abs(adm.gauss_sum_modulus - 1.0 / sqrt(a + d + 2)) > 1e-9 or not adm.admissible:
            failures.append(f"{(a, b, c, d)}: gauss {adm.gauss_sum_modulus} != 1/sqrt(N)")
        if adm.s_X != ("rho+", "rho-") or adm.s_L != 1.0:
            failures.append(f"{(a, b, c, d)}: s(X)={adm.s_X} s_L={adm.s_L}")
    return SuiteResult("admissibility", "sum and Gauss-sum targets on the provable scope",
                       not failures, len(records) + len(torus), failures[:20])


def suite_lemma_sums(max_p: int = 50, seed: int = 0) -> SuiteResult:
    """Closed-form parity-restricted exponential sums equal the literal
    summation for p <= max_p, all 0 <= j, l <= p, odd units r."""
    failures = []
    cases = 0
    t0 = time.perf_counter()
    rng = random.Random(seed)
    for p in range(2, max_p + 1):
        units = [r for r in range(1, 2 * p, 2) if gcd(r, p) == 1]
        if len(units) > 8:
            units = sorted({units[0], units[-1], *rng.sample(units, 6)})
        # the closed form does not depend on the odd unit r
        closed = [parity_exp_sum_closed(p, parity) for parity in (0, 1)]
        for r in units:
            for parity in (0, 1):
                table = parity_exp_sum_table(p, r, parity)
                err = float(np.abs(table - closed[parity]).max())
                cases += (p + 1) ** 2
                if err > 1e-8:
                    failures.append(f"p={p} r={r} parity={parity}: err {err:.2e}")
    return SuiteResult("lemma-sums", "closed form equals literal summation",
                       not failures, cases, failures[:20],
                       {"seconds": time.perf_counter() - t0})


def suite_su2_parity(max_level: int = 6) -> SuiteResult:
    """Graded products of the unitary level data: modular exactly when the
    levels have different parity, except (0,0) = the trivial rank-1 product,
    which is vacuously modular."""
    failures = []
    cases = 0
    for m in range(max_level + 1):
        for n in range(max_level + 1):
            D = graded_product(su2_level(m), su2_level(n))
            is_mod = find_transparent(D).is_modular
            cases += 1
            if (m, n) == (0, 0):
                if not is_mod:
                    failures.append("(0,0): trivial product must be modular")
                continue
            if is_mod != ((m - n) % 2 == 1):
                failures.append(f"({m},{n}): modular={is_mod}")
    return SuiteResult("su2-parity", "product modular iff levels differ in parity",
                       not failures, cases, failures)


def _modular_outputs(max_p: int = 9):
    """Modular data sets named by the realization and product criteria."""
    outs: list[tuple[str, ModularData]] = []
    for r in range(2, SU2_MAX_R + 1):
        M = make_sfs([(3, 1), (3, 1), (r, 1)])
        outs.append((f"M({r}) canonical", sfs_candidate(M).data))
        outs.append((f"M({r}) reseated", sfs_candidate(M, unit="reseated").data))
    outs.append(("M0", sfs_candidate(make_sfs([(5, 1), (3, 2), (5, 4)])).data))
    for m in range(7):
        for n in range(7):
            if (m - n) % 2 == 1:
                outs.append((f"su2 {m}x{n}", graded_product(su2_level(m), su2_level(n))))
    # the modular sweep outputs are its Z2-homology spheres, which sfs-modularity
    # asserts (a sphere has at most one p = 2 fiber, where the dichotomy holds)
    for pairs in sfs_sweep_instances(max_p):
        M = make_sfs(pairs)
        if z2_homology_sphere(M) and character_count(M) <= VERLINDE_RANK_CAP \
                and pairs != ((3, 2), (5, 1), (5, 4)):
            outs.append((str(pairs), sfs_candidate(M).data))
    return outs


def suite_verlinde(max_p: int = 9) -> SuiteResult:
    """Verlinde fusion of every named modular output: coefficients are
    nonnegative integers and fusion is associative."""
    failures = []
    outs = _modular_outputs(max_p)
    for name, D in outs:
        try:
            N = verlinde_fusion(D)
        except ValueError as e:
            failures.append(f"{name}: {e}")
            continue
        integ, assoc = fusion_defects(N)
        if integ > 1e-6 or assoc > 1e-6:
            failures.append(f"{name}: integrality {integ:.2e} associativity {assoc:.2e}")
        unit_rows = N[0]
        if np.abs(unit_rows - np.eye(D.rank)).max() > 1e-6:
            failures.append(f"{name}: unit fusion is not the identity")
    return SuiteResult("verlinde", "integral, associative fusion on modular outputs",
                       not failures, len(outs), failures[:20])


ALL_SUITES = {
    "rank6-table": suite_rank6_table,
    "sfs-tlj": suite_sfs_tlj,
    "sfs-modularity": suite_modularity_dichotomy,
    "su2-realizations": suite_su2_realizations,
    "torus-son2": suite_torus_son2,
    "torsion-oracle": suite_torsion_oracle,
    "admissibility": suite_admissibility,
    "lemma-sums": suite_lemma_sums,
    "su2-parity": suite_su2_parity,
    "verlinde": suite_verlinde,
}
# the suites gated on wall-clock time, which run_suites runs in the calling
# process once its pool is shut down, so that no busy worker shares the CPU
TIMED_SUITES = ("rank6-table", "torsion-oracle")


def _chunks(items: list, n: int) -> list[list]:
    """items cut into at most n contiguous runs of near-equal length."""
    n = min(n, len(items))
    return [items[len(items) * i // n:len(items) * (i + 1) // n] for i in range(n)]


def _one_blas_thread() -> None:
    """Pool initializer: the workers already fill the cores, so BLAS threads in
    them only contend (verlinde beside an SFS chunk ran several times slower).
    numpy has no thread control; this calls that of the OpenBLAS its wheels bundle."""
    set_threads = openblas_function("scipy_openblas_set_num_threads64_")
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


class _InProcess:
    """An executor that runs each submission at submit time."""

    def submit(self, fn, *args, **kwargs) -> Future:
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


def run_suites(names=None, *, jobs: int = 1, max_p: int = 9, max_N: int = 13, max_level: int = 6,
               lemma_max_p: int = 50, seed: int = 0) -> list[SuiteResult]:
    """Run the named suites (all when names is None); results come in that order.
    The SFS sweep and the torus pass are each computed once, in contiguous
    chunks, about four per job, beside the other suites that read neither
    pass.  The suites that read them and the TIMED_SUITES then run in the
    calling process, after the pool has shut down.  Each suite gets the
    bounds and passes its signature names, lemma-sums lemma_max_p as its max_p.
    jobs is capped at os.cpu_count().  With jobs = 1, or work for one worker,
    all runs in process."""
    names = list(ALL_SUITES) if names is None else list(names)
    for name in names:
        if name not in ALL_SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(ALL_SUITES)}")
    params = {n: inspect.signature(ALL_SUITES[n]).parameters for n in names}

    def args(name, **passes):
        given = dict(max_p=lemma_max_p if name == "lemma-sums" else max_p, max_N=max_N,
                     max_level=max_level, seed=seed, **passes)
        return {k: v for k, v in given.items() if k in params[name]}

    free = [n for n in names if n not in TIMED_SUITES and not {"records", "torus"} & params[n].keys()]
    sfs = sfs_sweep_instances(max_p) if any("records" in params[n] for n in names) else []
    torus = supported_monodromies(max_N) if any("torus" in params[n] for n in names) else []
    jobs = min(jobs, os.cpu_count() or 1)
    sfs, torus = _chunks(sfs, 4 * jobs), _chunks(torus, 4 * jobs)
    workers = min(jobs, len(free) + len(sfs) + len(torus))
    # the pool forks all of its workers at the first submit
    with (ProcessPoolExecutor(workers, initializer=_one_blas_thread) if workers > 1
          else nullcontext(_InProcess())) as pool:
        done = {n: pool.submit(ALL_SUITES[n], **args(n)) for n in free}
        # largest manifolds first, so that the last chunk to finish is a short one
        sfs = [pool.submit(sfs_records, c) for c in sfs[::-1]][::-1]
        torus = [pool.submit(torus_records, c) for c in torus]
        passes = dict(records=tuple(r for f in sfs for r in f.result()),
                      torus=tuple(r for f in torus for r in f.result()))
    return [done[n].result() if n in done else ALL_SUITES[n](**args(n, **passes))
            for n in names]
