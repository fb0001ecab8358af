"""Benchmark worker: set-up, the timed closed loop, metrics and tracing.

run.py starts this script in fresh processes with the thread settings and
PYTHONPATH already in place.  One client runs a closed loop: each workload
has a fixed, seeded list of operations (a round), and the worker repeats
whole rounds while another round still fits in --seconds (always at least
one).  Every round starts with the program's caches empty, so each round
does the same work.  Outputs are checked after the clock stops.

Usage (normally through run.py):
    python3 perfbench/bench.py --workload sfs-sweep --seed 1 --seconds 25 \
        --trace 0 --t-spawn <time.perf_counter() of the launcher>
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import mtcforge
from mtcforge import catalog, cli, suites, torus_bundle
from mtcforge.catalog import find_transparent, graded_product, soN2_adjoint, tlj_data
from mtcforge.pipeline import (
    admissibility_report,
    certify,
    sfs_candidate,
    sl2z_diagnostics,
    torus_candidate,
)
from mtcforge.seifert import central_reps, make_sfs
from mtcforge.torsion_engine import chain_torsion
from mtcforge.torus_bundle import build_adjoint_complex, connecting_word, make_torus_bundle

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# Per-layer metrics of the traced run: name -> unit.  "<span>.s" sums the
# busy seconds of that span over the run; the rest are per-call times or
# counts.  Layers a workload does not reach report 0.
PER_LAYER = {
    "pipeline.sfs_candidate.s": "s",
    "seifert.central_reps.s": "s",
    "pipeline.admissibility_report.s": "s",
    "catalog.reference.s": "s",
    "catalog.tlj_data.calls": "count",
    "catalog.tlj_data.hits": "count",
    "catalog.find_transparent.s": "s",
    "pipeline.certify.s": "s",
    "pipeline.sl2z_diagnostics.s": "s",
    "cli.modular_data_to_json.s": "s",
    "labels.count": "count",
    "s_tilde.bytes": "B",
    "pipeline.torus_candidate.s": "s",
    "catalog.soN2_adjoint.s": "s",
    "torus_bundle.connecting_word.s": "s",
    "torus_bundle.build_adjoint_complex.ms_p50": "ms",
    "torus_bundle.build_adjoint_complex.first_ms_p50": "ms",
    "torus_bundle.build_adjoint_complex.ms_max": "ms",
    "torsion_engine.chain_torsion.ms_p50": "ms",
    "oracle.evaluations": "count",
    **{f"suites.{name}.s": "s" for name in inputs.VERIFY_SUITES},
    "suites.sfs_sweep_records.s": "s",
    "verify.cpu_s": "s",
    "verify.wall_s": "s",
    "trace.op_ms_p50": "ms",
}


# --- tracing ----------------------------------------------------------------


class Tracer:
    """Spans (name, start, end, parent, op) and counters, kept in memory and
    written as one JSON file at the end of the run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self.op_id = 0

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"name": name, "op": self.op_id, "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def count(self, name: str, n: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def durations(self, name: str, **attrs) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and all(s.get(k) == v for k, v in attrs.items())]

    def metrics(self) -> dict[str, float]:
        def p50_ms(name, **attrs):
            d = self.durations(name, **attrs)
            return statistics.median(d) * 1e3 if d else 0.0

        out = {}
        for name in PER_LAYER:
            if name.endswith(".s"):
                out[name] = math.fsum(self.durations(name[:-2]))
            else:
                out[name] = self.counters.get(name, 0)
        build = "torus_bundle.build_adjoint_complex"
        out[build + ".ms_p50"] = p50_ms(build)
        out[build + ".first_ms_p50"] = p50_ms(build, first=True)
        out[build + ".ms_max"] = max(self.durations(build), default=0.0) * 1e3
        out["torsion_engine.chain_torsion.ms_p50"] = p50_ms("torsion_engine.chain_torsion")
        out["trace.op_ms_p50"] = p50_ms("op")
        return out

    def dump(self, path: Path, **meta) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({**meta, "counters": self.counters, "spans": self.spans}, f)


class NoTracer:
    """Stand-in for untraced runs: calls go straight through."""

    op_id = 0

    def call(self, name, fn, *args):
        return fn(*args)


# --- shared pieces of the workloads -------------------------------------------


def clear_caches() -> None:
    """Empty the program's public memo caches."""
    tlj_data.cache_clear()
    catalog.su2_level.cache_clear()
    suites.sfs_sweep_records.cache_clear()


def reference(M):
    return graded_product(graded_product(tlj_data(M.fibers[0].A), tlj_data(M.fibers[1].A)),
                          tlj_data(M.fibers[2].A))


def cli_call(argv: list[str]) -> tuple[int, str]:
    """mtcforge.cli.main in-process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:   # argparse rejected the arguments
            rc = e.code
    if rc != 0:
        print(f"{argv}: exit code {rc}: {err.getvalue()}", file=sys.stderr)
    return rc, out.getvalue()


def sfs_argv(pairs) -> list[str]:
    argv = ["sfs"]
    for p, q in pairs:
        argv += ["--fiber", f"{p},{q}"]
    return argv + ["--format", "csv"]


def sfs_steps(pairs, t):
    """make_sfs -> sfs_candidate, the reference product, certify,
    find_transparent, admissibility_report: the per-manifold body of
    suites.sfs_sweep_records."""
    M = t.call("seifert.make_sfs", make_sfs, pairs)
    C = t.call("pipeline.sfs_candidate", sfs_candidate, M)
    ref = t.call("catalog.reference", reference, M)
    cert = t.call("pipeline.certify", certify, C, ref)
    rep = t.call("catalog.find_transparent", find_transparent, C.data)
    adm = t.call("pipeline.admissibility_report", admissibility_report, C)
    return M, C, cert, rep, adm


@contextlib.contextmanager
def tlj_counts(t):
    """Count the tlj_data calls and cache hits made inside the block, from
    cache_info()."""
    before = tlj_data.cache_info()
    yield
    after = tlj_data.cache_info()
    t.count("catalog.tlj_data.hits", after.hits - before.hits)
    t.count("catalog.tlj_data.calls", after.hits + after.misses - before.hits - before.misses)


def forget_boundaries() -> None:
    """Empty torus_bundle's per-monodromy boundary cache, so that the traced
    run times the first character of a bundle cold, as the command met it.
    The cache is private: if the program drops it, there is nothing to empty."""
    cache = getattr(torus_bundle, "_symbolic_boundaries", None)
    if hasattr(cache, "cache_clear"):
        cache.cache_clear()


def check_candidate(pairs, out, rng) -> list[str]:
    M, C, cert, rep, adm = out
    problems = checks.check_sfs(
        pairs, C.labels, C.data.dims, [tw.as_fraction() for tw in C.data.twists], C.torsions,
        S=C.data.s_tilde, positions=checks.sample_positions(C.rank, rng), modular=rep.is_modular,
        certified=cert.passed)
    if abs(adm.sum_inverse_2tor - math.fsum(1.0 / (2.0 * C.torsions))) > checks.SUM_TOL:
        problems.append(f"admissibility sum {adm.sum_inverse_2tor} disagrees with the torsions")
    return problems


def count_candidate(t, C) -> None:
    t.count("labels.count", C.rank)
    t.count("s_tilde.bytes", C.rank * C.rank * 16)


# --- workloads -----------------------------------------------------------------


class SfsSweep:
    """Every unordered triple of coprime pairs up to max_p, in seeded order."""

    name = "sfs-sweep"
    tail_q = 0.98   # one round of 969 leaves 19 operations above it

    def __init__(self, max_p: int = inputs.SWEEP_MAX_P):
        self.max_p = max_p

    def inputs(self, seed):
        return inputs.sweep_inputs(seed, self.max_p)

    def warmup(self):
        sfs_steps(((5, 1), (3, 2), (5, 4)), NoTracer())

    def op(self, pairs, t):
        if not isinstance(t, Tracer):
            return sfs_steps(pairs, t)
        with t.span("op"), tlj_counts(t):
            out = sfs_steps(pairs, t)
        M, C = out[0], out[1]
        t.call("seifert.central_reps", central_reps, M, list(C.characters), list(C.cs))
        count_candidate(t, C)
        return out

    def check(self, pairs, out, rng):
        return check_candidate(pairs, out, rng)


class SfsLarge:
    """`mtcforge sfs ... --format csv` on one seeded instance per rank band."""

    name = "sfs-large"
    tail_q = None   # too few operations for a percentile: see e2e_metrics

    def __init__(self, top=inputs.LARGE_TOP, bands=inputs.LARGE_BANDS):
        self.top, self.bands = top, bands

    def inputs(self, seed):
        # twice, so that the tail (the slowest operation but one) falls on it
        return [self.top, self.top] + inputs.large_inputs(seed, self.bands)

    def warmup(self):
        cli_call(sfs_argv(((5, 1), (3, 2), (5, 4))))

    def op(self, pairs, t):
        if not isinstance(t, Tracer):
            return cli_call(sfs_argv(pairs))
        with t.span("op"), tlj_counts(t):
            out = cli_call(sfs_argv(pairs))
        # the layers, called again on the same input outside the operation;
        # the reference finds the tlj_data entries the command just made
        C = sfs_steps(pairs, t)[1]
        t.call("pipeline.sl2z_diagnostics", sl2z_diagnostics, C.data)
        t.call("cli.modular_data_to_json", cli.modular_data_to_json, C.data)
        count_candidate(t, C)
        return out

    def check(self, pairs, out, rng):
        return checks.check_sfs_csv(pairs, *out)


class TorusOracle:
    """`mtcforge torus --monodromy a,b,c,d --oracle --format json` on every
    supported monodromy up to max_N, in seeded order."""

    name = "torus-oracle"
    tail_q = 0.95   # one round of 268 leaves 13 operations above it

    def __init__(self, max_N: int = inputs.TORUS_MAX_N, bound: int = inputs.TORUS_BOUND):
        self.max_N, self.bound = max_N, bound

    def inputs(self, seed):
        return inputs.torus_inputs(seed, self.max_N, self.bound)

    def warmup(self):
        # N = 15 lies outside every round, so no oracle cache entry carries over
        cli_call(self.argv((2, 3, 7, 11)))

    @staticmethod
    def argv(abcd):
        return ["torus", "--monodromy=" + ",".join(map(str, abcd)), "--oracle", "--format", "json"]

    def op(self, abcd, t):
        if not isinstance(t, Tracer):
            return cli_call(self.argv(abcd))
        with t.span("op"):
            out = cli_call(self.argv(abcd))
        # the layers, called again on the same input outside the operation
        T = make_torus_bundle(*abcd)
        C = t.call("pipeline.torus_candidate", torus_candidate, T)
        t.call("catalog.soN2_adjoint", soN2_adjoint, T.N, T.m)
        t.call("torus_bundle.connecting_word", connecting_word, T)
        forget_boundaries()
        for i, chi in enumerate(C.characters):
            with t.span("torus_bundle.build_adjoint_complex", first=i == 0):
                cx = build_adjoint_complex(T, chi)
            t.call("torsion_engine.chain_torsion", chain_torsion, cx)
        t.count("oracle.evaluations", len(C.characters))
        return out

    def check(self, abcd, out, rng):
        rc, report = out
        return checks.check_torus(abcd, rc, json.loads(report))


class Verify:
    """One `mtcforge verify --jobs 2 --format json` subprocess per operation."""

    name = "verify"
    tail_q = None

    def __init__(self, bounds=inputs.VERIFY_BOUNDS):
        self.bounds = bounds

    def inputs(self, seed):
        return [inputs.verify_argv(seed, self.bounds)]

    @staticmethod
    def run(argv):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "mtcforge.cli", *argv],
                              capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        return proc.returncode, proc.stdout, wall, cpu

    def warmup(self):
        self.run(["verify", "--suite", "rank6-table", "--jobs", "2", "--format", "json"])

    def op(self, argv, t):
        if not isinstance(t, Tracer):
            return self.run(argv)
        with t.span("op"):
            out = self.run(argv)
        t.count("verify.wall_s", out[2])
        t.count("verify.cpu_s", out[3])
        seed = int(argv[argv.index("--seed") + 1])
        clear_caches()
        t.call("suites.sfs_sweep_records", suites.sfs_sweep_records, self.bounds["max_p"])
        for name in inputs.VERIFY_SUITES:
            clear_caches()
            with t.span("suites." + name):
                suites.run_suites([name], **self.bounds, seed=seed)
        return out

    def check(self, argv, out, rng):
        expected = inputs.verify_expected_cases(self.bounds)
        return checks.check_verify(out[0], out[1], inputs.VERIFY_SUITES, expected)


WORKLOADS = {w.name: w for w in (SfsSweep(), SfsLarge(), TorusOracle(), Verify())}


# --- the timed phase --------------------------------------------------------------


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_phase(w, xs, seconds: float, t, rng) -> dict:
    """Whole rounds of w.op over xs while another round fits in `seconds`."""
    latencies, failed, wrong, rounds = [], 0, 0, []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + statistics.fmean(rounds) <= seconds:
        clear_caches()
        r0 = time.perf_counter()
        for x in xs:
            t.op_id += 1
            t0 = time.perf_counter()
            try:
                out = w.op(x, t)
            except Exception:
                latencies.append(time.perf_counter() - t0)
                failed += 1
                print(f"{w.name} {x}: raised\n{traceback.format_exc()}", file=sys.stderr)
                continue
            latencies.append(time.perf_counter() - t0)
            try:
                problems = w.check(x, out, rng)
            except Exception as e:   # output too malformed to check
                problems = [f"check raised {e!r}"]
            if problems:
                failed += 1
                wrong += 1
                print(f"{w.name} {x}: {problems[:5]}", file=sys.stderr)
        rounds.append(time.perf_counter() - r0)
    return {"latencies": latencies, "failed": failed, "wrong": wrong, "rounds": len(rounds)}


def e2e_metrics(w, res) -> dict[str, float]:
    """The end-to-end metrics but set-up.  op_ms_tail is a fixed percentile
    where a run has at least 40 operations; with fewer there is no percentile
    with ten operations beyond it, and the slowest operation but one stands in."""
    lat = res["latencies"]
    tail = percentile(lat, w.tail_q) if w.tail_q else sorted(lat)[-min(2, len(lat))]
    who = resource.RUSAGE_CHILDREN if isinstance(w, Verify) else resource.RUSAGE_SELF
    return {
        "ops_per_s": len(lat) / math.fsum(lat),
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_tail": tail * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
         "peak_rss_mb": "MB", **PER_LAYER}


def result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}})


def measure(w, seed: int, seconds: float, trace: bool, t_spawn: float, setup_only=False):
    """Set up (warm-up call, empty caches), then run the timed phase.

    Returns (setup_s, result) with result None when setup_only."""
    xs = w.inputs(seed)
    w.warmup()
    clear_caches()
    setup_s = time.perf_counter() - t_spawn
    if setup_only:
        return setup_s, None
    t = Tracer() if trace else NoTracer()
    res = timed_phase(w, xs, seconds, t, random.Random(seed))
    res["tracer"] = t
    return setup_s, res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if not Path(mtcforge.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: mtcforge imported from {mtcforge.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    setup_s, res = measure(w, args.seed, args.seconds, bool(args.trace), args.t_spawn,
                           args.setup_only)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        metrics = res["tracer"].metrics()
        res["tracer"].dump(OUT_DIR / f"trace-{w.name}-seed{args.seed}.json",
                           workload=w.name, seed=args.seed, rounds=res["rounds"])
    else:
        metrics = {"setup_s": setup_s, **e2e_metrics(w, res)}
    print(result_line(res["wrong"] == 0, len(res["latencies"]), res["failed"], metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
