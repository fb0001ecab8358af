"""Workload inputs, enumerated by the benchmark itself from a seed.

Nothing here imports the program: the enumerations double as the expected
case counts that the `verify` checker compares against.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement
from math import gcd, prod

# sfs-sweep: every unordered triple of coprime pairs with p <= 7 (969 manifolds,
# ranks 1..54); the seed only fixes the order.
SWEEP_MAX_P = 7

# sfs-large: a fixed rank-1440 instance, run twice first while the heap is
# fresh, then one seeded instance per rank band (p <= 25, at most one p = 2
# fiber).  The top instance sets the peak memory and the tail of a run; it is
# fixed because peak memory differs by up to 5 % between instances of one
# rank.  Cost is set by the rank, so narrow bands give every seed the same
# cost, and the 1200 band is drawn twice so that the median of a round falls
# between two alike operations.
LARGE_TOP = ((17, 3), (19, 5), (21, 4))
LARGE_MAX_P = 25
LARGE_BANDS = ((790, 810), (995, 1015), (1195, 1215), (1195, 1215))

# torus-oracle: every supported monodromy with N <= 13 and |entries| <= 20
# (268 bundles); the seed only fixes the order.
TORUS_MAX_N = 13
TORUS_BOUND = 20

# verify: every suite but torsion-oracle (its 10 ms wall-clock gate is flaky),
# with the Seifert sweep reduced to p <= 6 so that a run holds several calls.
VERIFY_SUITES = ("rank6-table", "sfs-tlj", "sfs-modularity", "su2-realizations",
                 "torus-son2", "admissibility", "lemma-sums", "su2-parity", "verlinde")
VERIFY_BOUNDS = {"max_p": 6, "max_N": 13, "max_level": 6, "lemma_max_p": 50}


def coprime_pairs(max_p: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(2, max_p + 1) for q in range(1, p) if gcd(p, q) == 1]


def sfs_rank(ps) -> int:
    """Number of non-Abelian characters: prod floor(p/2) + prod floor((p-1)/2)."""
    return prod(p // 2 for p in ps) + prod((p - 1) // 2 for p in ps)


def sweep_triples(max_p: int) -> list[tuple[tuple[int, int], ...]]:
    return list(combinations_with_replacement(coprime_pairs(max_p), 3))


def sweep_inputs(seed: int, max_p: int) -> list:
    triples = sweep_triples(max_p)
    random.Random(seed).shuffle(triples)
    return triples


def large_inputs(seed: int, bands) -> list:
    """One random three-fiber instance per rank band, in the order given."""
    rng = random.Random(seed)
    ps_triples = [t for t in combinations_with_replacement(range(2, LARGE_MAX_P + 1), 3)
                  if sum(p == 2 for p in t) <= 1]
    out = []
    for lo, hi in bands:
        pool = [t for t in ps_triples if lo <= sfs_rank(t) <= hi]
        if not pool:
            raise ValueError(f"no instance with rank in [{lo}, {hi}]")
        ps = rng.choice(pool)
        out.append(tuple((p, rng.choice([q for q in range(1, p) if gcd(p, q) == 1]))
                         for p in ps))
    return out


def monodromies(max_N: int, bound: int) -> list[tuple[int, int, int, int]]:
    """All (a, b, c, d) with ad - bc = 1, N = a + d + 2 odd in (4, max_N],
    gcd(c, N) = 1 and every entry at most `bound` in absolute value."""
    out = []
    for N in range(5, max_N + 1, 2):
        for a in range(-bound, bound + 1):
            d = N - 2 - a
            if abs(d) > bound:
                continue
            for b in range(-bound, bound + 1):
                if b == 0 or (a * d - 1) % b:
                    continue
                c = (a * d - 1) // b
                if abs(c) <= bound and gcd(c, N) == 1:
                    out.append((a, b, c, d))
    return out


def torus_inputs(seed: int, max_N: int, bound: int) -> list:
    monos = monodromies(max_N, bound)
    random.Random(seed).shuffle(monos)
    return monos


def verify_argv(seed: int, bounds) -> list[str]:
    argv = ["verify"]
    for name in VERIFY_SUITES:
        argv += ["--suite", name]
    for key, value in bounds.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv + ["--seed", str(seed), "--jobs", "2", "--format", "json"]


def verify_expected_cases(bounds) -> dict[str, int]:
    """Case counts of the sweep suites, from the benchmark's own enumerations."""
    n_sfs = len(sweep_triples(bounds["max_p"]))
    n_torus = len(monodromies(bounds["max_N"], TORUS_BOUND))
    return {"sfs-tlj": n_sfs, "sfs-modularity": n_sfs, "torus-son2": n_torus,
            "admissibility": n_sfs + n_torus}
