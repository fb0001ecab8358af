"""Command-line surface: `sfs`, `torus`, and `verify` subcommands.

Output formats: json (the full report; round-trips), csv (only the per-label
table), pretty (human-readable).  Exit codes: 0 success, 1 certification or
verification failure, 2 invalid input.  Comparisons use the one fixed
tolerance 1e-9 of `algebra.DEFAULT_TOL`.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

import numpy as np

from . import suites
from .algebra import RationalPhase
from .catalog import ModularData, find_transparent, s_det_modulus, soN2_adjoint
from .pipeline import (
    admissibility_report,
    certify,
    sfs_candidate,
    sl2z_diagnostics,
    torus_candidate,
)
from .seifert import character_count, make_sfs, z2_homology_sphere
from .torsion_engine import chain_torsions, zgeqp3
from .torus_bundle import build_adjoint_complexes, make_torus_bundle

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_BAD_INPUT = 2

# the library has no size bound; the CLI refuses a candidate of larger rank
MAX_RANK = 5000
# and `verify` sweep ranges beyond this (four times it for --lemma-max-p)
SWEEP_CAP = 25
# and a `torus --oracle` connecting word of more terms than this: the word has
# up to |a d| + |b c| terms, however small the rank
ORACLE_MAX_TERMS = 10**6


# --- JSON schema -----------------------------------------------------------
# phases: {"num": int, "den": int}; complex numbers: [re, im];
# matrices: row-major arrays of arrays.


def phase_to_json(t: RationalPhase) -> dict:
    return {"num": t.numerator, "den": t.denominator}


def phase_from_json(obj) -> RationalPhase:
    return RationalPhase.of(obj["num"], obj["den"])


def matrix_to_json(M) -> list:
    # tuples, not lists: tuples of floats drop out of the cyclic GC's
    # tracking after its first pass, which is most of the cost at large rank
    M = np.asarray(M, dtype=complex)
    return [list(zip(re, im)) for re, im in zip(M.real.tolist(), M.imag.tolist())]


def matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def modular_data_to_json(D: ModularData) -> dict:
    """The schema above, with each S entry an (re, im) tuple, which `json`
    writes as the same two-element array as a list."""
    return {
        "labels": list(D.labels),
        "dims": [float(x) for x in D.dims],
        "twists": [phase_to_json(t) for t in D.twists],
        "s_tilde": matrix_to_json(D.s_tilde),
        "total_dim_sq": float(D.total_dim_sq),
        "grading": None if D.grading is None else list(D.grading),
    }


def modular_data_from_json(obj) -> ModularData:
    return ModularData(
        tuple(obj["labels"]),
        np.array(obj["dims"], dtype=float),
        tuple(phase_from_json(t) for t in obj["twists"]),
        matrix_from_json(obj["s_tilde"]),
        float(obj["total_dim_sq"]),
        None if obj.get("grading") is None else tuple(obj["grading"]),
    )


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fractions(residues: np.ndarray, den: int) -> list[str]:
    """"num/den" in lowest terms for residues in [0, den), as the reduced
    RationalPhase prints them: 0 gives 0/1."""
    g = np.gcd(residues, den)
    return [f"{n}/{d}" for n, d in zip((residues // g).tolist(), (den // g).tolist())]


def _candidate_report(C, reference, cert, extra) -> dict:
    adm = admissibility_report(C)
    rep = find_transparent(C.data)
    out = {
        "manifold": C.manifold_tag,
        "rank": C.rank,
        "labels": list(C.labels),
        "cs": [phase_to_json(c) for c in C.cs],
        "torsion": [float(t) for t in C.torsions],
        "modular_data": modular_data_to_json(C.data),
        "admissibility": {
            "check": "sum 1/(2Tor) = 1 and Gauss-sum modulus vs target",
            "sum_inverse_2tor": adm.sum_inverse_2tor,
            "gauss_sum_modulus": adm.gauss_sum_modulus,
            "target_modulus": adm.target_modulus,
            "s_X": list(adm.s_X),
            "s_L": adm.s_L,
            "orbits": [list(o) for o in adm.orbits],
            "central_classification": list(adm.central_classification),
            "admissible": adm.admissible,
        },
        "modularity": {
            "check": "transparent labels are rows proportional to the dims row",
            "is_modular": rep.is_modular,
            "transparent_labels": list(rep.transparent_labels),
            "s_det_modulus": s_det_modulus(C.data),
        },
        "certification": {
            "check": "entrywise match against the independent catalog data",
            "passed": cert.passed,
            "max_s_delta": cert.max_s_delta,
            "twists_equal": cert.twists_equal,
            "max_dim_delta": cert.max_dim_delta,
            "reference_rank": reference.rank,
        },
        "sl2z_diagnostics": sl2z_diagnostics(C.data),
    }
    out.update(extra)
    return out


def _emit(C, reference, cert, extra: dict, fmt: str, stream) -> None:
    """Write a candidate in the requested format; json goes through the full
    report, csv and pretty read the candidate directly, and csv prints only
    the per-label table, with its fractions taken from the residue arrays."""
    if fmt == "json":
        json.dump(_candidate_report(C, reference, cert, extra), stream, indent=2)
        stream.write("\n")
        return
    D = C.data
    if fmt == "csv":
        w = csv.writer(stream)
        w.writerow(["label", "twist", "dim", "cs", "torsion"])
        w.writerows(zip(C.labels, _fractions(D.twist_residues, D.twist_den),
                        map(_fmt, D.dims.tolist()), _fractions(C.cs_residues, C.cs_den),
                        map(_fmt, C.torsions.tolist())))
        return
    # pretty
    print(f"manifold: {C.manifold_tag}   rank {C.rank}", file=stream)
    print(f"{'label':>12} {'twist':>9} {'dim':>16} {'CS':>9} {'torsion':>16}", file=stream)
    for lab, tw, dim, cs, tor in zip(C.labels, D.twists, D.dims, C.cs, C.torsions):
        print(f"{lab:>12} {tw.numerator:>4}/{tw.denominator:<4} {_fmt(dim):>16} "
              f"{cs.numerator:>4}/{cs.denominator:<4} {_fmt(tor):>16}", file=stream)
    print("S-matrix (un-normalized):", file=stream)
    for row in D.s_tilde.real:
        print("  [" + " ".join(f"{v:12.6f}" for v in row) + "]", file=stream)
    adm = admissibility_report(C)
    print(f"total dim^2 = {_fmt(D.total_dim_sq)}", file=stream)
    print(f"admissibility: sum 1/(2Tor) = {_fmt(adm.sum_inverse_2tor)}, "
          f"|Gauss sum| = {_fmt(adm.gauss_sum_modulus)} "
          f"(target {_fmt(adm.target_modulus)}) -> "
          f"{'admissible' if adm.admissible else 'NOT admissible'}", file=stream)
    mod = find_transparent(D)
    print(f"modular: {mod.is_modular}   transparent: {list(mod.transparent_labels)}", file=stream)
    print(f"certification vs catalog: {'PASS' if cert.passed else 'FAIL'} "
          f"(max |dS| = {cert.max_s_delta:.3e}, twists equal: {cert.twists_equal})",
          file=stream)
    if "oracle" in extra:
        print("torsion oracle (cell complex vs closed form):", file=stream)
        for row in extra["oracle"]:
            print(f"  {row['label']:>8}: {_fmt(row['oracle'])} vs {_fmt(row['closed_form'])}",
                  file=stream)


def _parse_pair(text: str, n: int, what: str):
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"{what} needs {n} comma-separated integers, got {text!r}")
    return tuple(int(p) for p in parts)


def cmd_sfs(args) -> int:
    try:
        pairs = [_parse_pair(f, 2, "--fiber") for f in args.fiber]
        M = make_sfs(pairs)
        rank = character_count(M)
        if rank > MAX_RANK:
            print(f"error: rank {rank} exceeds {MAX_RANK}", file=sys.stderr)
            return EXIT_BAD_INPUT
        C = sfs_candidate(M, unit=args.unit)
    except (ValueError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    reference = suites.sfs_reference(M, args.unit)
    cert = certify(C, reference)
    extra = {
        "z2_homology_sphere": z2_homology_sphere(M),
        "kauffman_phases": [phase_to_json(f.A) for f in M.fibers],
    }
    _emit(C, reference, cert, extra, args.format, sys.stdout)
    return EXIT_OK if cert.passed else EXIT_FAILED


def _oracle_missing() -> bool:
    """Whether numpy's LAPACK lacks the torsion oracle's zgeqp3; if so, says
    so on stderr.  There is no fallback."""
    try:
        zgeqp3()
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return True
    return False


def cmd_torus(args) -> int:
    if args.oracle and args.format == "csv":
        print("error: --oracle has no csv column; use --format json or pretty", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        a, b, c, d = _parse_pair(args.monodromy, 4, "--monodromy")
        T = make_torus_bundle(a, b, c, d)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    rank = (T.N + 3) // 2
    if rank > MAX_RANK:
        print(f"error: rank {rank} exceeds {MAX_RANK}", file=sys.stderr)
        return EXIT_BAD_INPUT
    terms = abs(a * d) + abs(b * c)
    if args.oracle and terms > ORACLE_MAX_TERMS:
        print(f"error: oracle word bound |ad| + |bc| = {terms} exceeds {ORACLE_MAX_TERMS}",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.oracle and _oracle_missing():
        return EXIT_BAD_INPUT
    C = torus_candidate(T)
    reference = soN2_adjoint(T.N, T.m)
    cert = certify(C, reference)
    extra = {"N": T.N, "c_tilde": T.c_tilde, "m": T.m}
    if args.oracle:
        results = chain_torsions(build_adjoint_complexes(T, C.characters))
        extra["oracle"] = [{"label": chi.label(), "oracle": res.value,
                            "closed_form": float(closed), "acyclic": res.acyclic}
                           for chi, closed, res in zip(C.characters, C.torsions, results)]
    _emit(C, reference, cert, extra, args.format, sys.stdout)
    return EXIT_OK if cert.passed else EXIT_FAILED


def cmd_verify(args) -> int:
    names = args.suite if args.suite else list(suites.ALL_SUITES)
    # coverage floors: p <= 2 misses parity classes of sfs-modularity, and
    # N <= 7 gives torsion-oracle fewer than its 20 oracle pairs
    min_N = 9 if "torsion-oracle" in names else 5
    for flag, value, low in (("--max-p", args.max_p, 3), ("--max-N", args.max_N, min_N),
                             ("--max-level", args.max_level, 0),
                             ("--lemma-max-p", args.lemma_max_p, 2)):
        if value < low:
            print(f"error: {flag} must be >= {low}", file=sys.stderr)
            return EXIT_BAD_INPUT
    if (max(args.max_p, args.max_N, args.max_level) > SWEEP_CAP
            or args.lemma_max_p > 4 * SWEEP_CAP):
        print(f"error: sweep ranges exceed the cap ({SWEEP_CAP})", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return EXIT_BAD_INPUT
    if "torsion-oracle" in names and _oracle_missing():
        return EXIT_BAD_INPUT
    results = suites.run_suites(names, jobs=args.jobs, max_p=args.max_p, max_N=args.max_N,
                                max_level=args.max_level, lemma_max_p=args.lemma_max_p,
                                seed=args.seed)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        payload = {
            "passed": not failed,
            "suites": [
                {"name": r.name, "check": r.check, "passed": r.passed,
                 "cases": r.cases, "failures": r.failures, "details": r.details}
                for r in results
            ],
        }
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        for r in results:
            print(r.line())
        print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    return EXIT_OK if not failed else EXIT_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state between
    calls (the append actions start each call from a fresh list), and an
    error writes to the sys.stderr of that call."""
    ap = argparse.ArgumentParser(
        prog="mtcforge",
        description="Candidate modular data from small non-hyperbolic 3-manifolds, "
                    "verified against an independent premodular catalog.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sfs = sub.add_parser("sfs", help="three-fiber Seifert data to modular data")
    sfs.add_argument("--fiber", action="append", required=True, metavar="p,q",
                     help="surgery pair; give exactly three")
    sfs.add_argument("--unit", choices=["canonical", "reseated"], default="canonical")
    sfs.add_argument("--format", choices=["json", "csv", "pretty"], default="pretty")
    sfs.set_defaults(func=cmd_sfs)

    torus = sub.add_parser("torus", help="torus-bundle monodromy to modular data")
    torus.add_argument("--monodromy", required=True, metavar="a,b,c,d")
    torus.add_argument("--oracle", action="store_true",
                       help="also run the chain-complex torsion oracle per label")
    torus.add_argument("--format", choices=["json", "csv", "pretty"], default="pretty")
    torus.set_defaults(func=cmd_torus)

    verify = sub.add_parser("verify", help="run the verification suites")
    verify.add_argument("--suite", action="append", choices=sorted(suites.ALL_SUITES),
                        help="run only the named suite (repeatable)")
    verify.add_argument("--max-p", type=int, default=9)
    verify.add_argument("--max-N", type=int, default=13)
    verify.add_argument("--max-level", type=int, default=6)
    verify.add_argument("--lemma-max-p", type=int, default=50)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--jobs", type=int, default=1)
    verify.add_argument("--format", choices=["json", "pretty"], default="pretty")
    verify.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse would read a negative first entry as an option, not as the value
    if "--monodromy" in argv[:-1]:
        i = argv.index("--monodromy")
        argv[i:i + 2] = ["--monodromy=" + argv[i + 1]]
    args = build_parser().parse_args(argv)
    if getattr(args, "command", None) == "sfs" and len(args.fiber) != 3:
        print("error: exactly three --fiber arguments required", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
