"""Correctness checks, computed apart from the program.

Each checker takes the program's output for one operation and returns a
list of problems; an empty list means the output is correct.  Expected values
come from closed forms evaluated here (mpmath for the Kauffman quantum
integers, Fraction for exact phases), never from mtcforge itself.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from functools import lru_cache

import mpmath

from inputs import sfs_rank

TOL = 1e-9          # relative, on S entries and dimensions
SUM_TOL = 1e-8      # on sum 1/(2 Tor); CSV torsions carry 12 digits
ORACLE_TOL = 1e-6   # relative, on oracle torsions


def _close(x: complex, want: float) -> bool:
    return abs(x - want) <= TOL * max(1.0, abs(want))


# --- Seifert fibered spaces -------------------------------------------------


def kauffman_phase(p: int, q: int) -> Fraction:
    """A = c/(4p) + 1/2 mod 1, with c from the Euclid pair of (p, q)."""
    r = (-pow(q, -1, p)) % p
    s = (1 + q * r) // p
    c = p * q * s - r if q % 2 else p * q * s - r * (p - 1) ** 2
    return (Fraction(c, 4 * p) + Fraction(1, 2)) % 1


@lru_cache(maxsize=None)
def quantum_integers(p: int, q: int) -> tuple[float, ...]:
    """[n] = sin(4 pi n A)/sin(4 pi A) for n = 0..(p-1)^2, at 30 digits."""
    A = kauffman_phase(p, q)
    with mpmath.workdps(30):
        a = mpmath.mpf(A.numerator) / A.denominator
        den = mpmath.sin(4 * mpmath.pi * a)
        return tuple(float(mpmath.sin(4 * mpmath.pi * n * a) / den)
                     for n in range((p - 1) ** 2 + 1))


def kauffman_s(pairs, a, b) -> float:
    """prod_k (-1)^(a_k+b_k) [(a_k+1)(b_k+1)] at A_k; b = 0 gives the dims."""
    out = 1.0
    for (p, q), ak, bk in zip(pairs, a, b):
        out *= (-1) ** (ak + bk) * quantum_integers(p, q)[(ak + 1) * (bk + 1)]
    return out


@lru_cache(maxsize=None)
def fiber_twist(p: int, q: int, a: int) -> Fraction:
    return a * (a + 2) * (kauffman_phase(p, q) + Fraction(1, 2))


def kauffman_twist(pairs, a) -> Fraction:
    """sum_k a_k (a_k + 2) (A_k + 1/2) mod 1."""
    return sum((fiber_twist(p, q, ak) for (p, q), ak in zip(pairs, a)), Fraction(0)) % 1


def parse_label(label: str) -> tuple[int, ...]:
    return tuple(int(x) for x in label.strip("()").split(","))


def sample_positions(rank: int, rng) -> list[tuple[int, int]]:
    """Four seeded (i, j) positions of an S matrix."""
    return [(rng.randrange(rank), rng.randrange(rank)) for _ in range(4)]


def check_sfs(pairs, labels, dims, twists, torsions, *, S=None, positions=(),
              modular=None, certified=True) -> list[str]:
    """Rank, dims, sampled S entries, exact twists, sum 1/(2 Tor), the
    modularity dichotomy (when `modular` is given) and certification.

    twists are Fractions in [0, 1); S is indexable as S[i][j]."""
    ps = [p for p, _ in pairs]
    problems = []
    if len(labels) != sfs_rank(ps):
        problems.append(f"rank {len(labels)} != {sfs_rank(ps)}")
        return problems
    degs = [parse_label(lab) for lab in labels]
    zero = (0, 0, 0)
    for lab, a, d, tw in zip(labels, degs, dims, twists):
        if not _close(d, kauffman_s(pairs, zero, a)):
            problems.append(f"dim {lab}: {d} != {kauffman_s(pairs, zero, a)}")
        if tw != kauffman_twist(pairs, a):
            problems.append(f"twist {lab}: {tw} != {kauffman_twist(pairs, a)}")
    for i, j in positions:
        want = kauffman_s(pairs, degs[i], degs[j])
        if not _close(complex(S[i][j]), want):
            problems.append(f"S[{labels[i]},{labels[j]}] = {S[i][j]} != {want}")
    twos = sum(p == 2 for p in ps)
    want_sum = 2.0 ** (twos - 1) if twos >= 2 else 1.0
    total = math.fsum(1.0 / (2.0 * t) for t in torsions)
    if abs(total - want_sum) > SUM_TOL:
        problems.append(f"sum 1/(2Tor) = {total} != {want_sum}")
    if modular is not None and twos < 2:
        (p1, q1), (p2, q2), (p3, q3) = pairs
        z2 = (q1 * p2 * p3 + p1 * q2 * p3 + p1 * p2 * q3) % 2 == 1
        if modular != z2:
            problems.append(f"modular={modular} but Z2-homology sphere={z2}")
    if not certified:
        problems.append("certification failed")
    return problems


def check_sfs_csv(pairs, exit_code: int, text: str) -> list[str]:
    """The `sfs --format csv` report: label, twist, dim, cs, torsion rows."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["label", "twist", "dim", "cs", "torsion"]:
        return ["malformed CSV header"]
    rows = rows[1:]
    return check_sfs(pairs, [r[0] for r in rows], [float(r[2]) for r in rows],
                     [Fraction(r[1]) for r in rows], [float(r[4]) for r in rows],
                     certified=exit_code == 0)


# --- torus bundles ----------------------------------------------------------


def check_torus(abcd, exit_code: int, rep: dict) -> list[str]:
    """The parsed `torus --oracle --format json` report."""
    a, b, c, d = abcd
    N = a + d + 2
    m = -2 * pow(c, -1, N) - N
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if not rep["certification"]["passed"]:
        problems.append("certification failed")
    if rep["modularity"]["transparent_labels"] != ["rho+", "rho-"]:
        problems.append(f"transparent labels {rep['modularity']['transparent_labels']}")
    oracle = rep.get("oracle", [])
    if len(oracle) != (N - 1) // 2 + 2:
        problems.append(f"{len(oracle)} oracle rows for N = {N}")
    for row in oracle:
        want = N if row["label"] in ("rho+", "rho-") else N / 4
        if not row["acyclic"] or row["oracle"] is None \
                or abs(row["oracle"] - want) > ORACLE_TOL * want:
            problems.append(f"oracle {row['label']}: {row['oracle']} != {want}")
    D = rep["modular_data"]
    index = {lab: i for i, lab in enumerate(D["labels"])}
    for k in range(1, (N - 1) // 2 + 1):
        i = index[f"rho{k}"]
        tw = D["twists"][i]
        want_tw = Fraction(m * (N * k - k * k), 2 * N) % 1
        if Fraction(tw["num"], tw["den"]) != want_tw:
            problems.append(f"twist rho{k}: {tw['num']}/{tw['den']} != {want_tw}")
        for j in range(1, (N - 1) // 2 + 1):
            re, im = D["s_tilde"][i][index[f"rho{j}"]]
            want = 4 * math.cos(2 * math.pi * ((m * k * j) % N) / N)
            if not _close(complex(re, im), want):
                problems.append(f"S[rho{k},rho{j}] = {re}+{im}i != {want}")
    return problems


# --- verify -----------------------------------------------------------------


def check_verify(exit_code: int, text: str, suites, expected_cases) -> list[str]:
    """Exit 0, every selected suite passed, and the sweep case counts equal
    the benchmark's own enumerations."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    payload = json.loads(text)
    got = {s["name"]: s for s in payload["suites"]}
    if sorted(got) != sorted(suites):
        problems.append(f"suites run {sorted(got)} != {sorted(suites)}")
    for name, s in got.items():
        if not s["passed"]:
            problems.append(f"suite {name} failed: {s['failures'][:3]}")
    for name, want in expected_cases.items():
        if name in got and got[name]["cases"] != want:
            problems.append(f"suite {name}: {got[name]['cases']} cases != {want}")
    return problems
