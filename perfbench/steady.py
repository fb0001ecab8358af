"""Steadiness runs: the benchmark on several seeds per workload, with the
spread of each end-to-end metric.

    python3 perfbench/steady.py --label A [--seeds 1-10]
    python3 perfbench/steady.py --compare A B

A set runs the command of BENCHMARK.json once per (workload, seed), from
the repository root, one run at a time, and writes perfbench/out/steady-A.json.
For each metric it prints the median over the seeds and the spread
(Q3 - Q1) / median, with statistics.quantiles(values, n=4), against a third of
the metric's bound.  --compare prints how far the medians of set B moved
from set A, against the full bound (worse is positive).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(spec, workloads, seeds) -> dict:
    runs = {}
    for w in workloads:
        runs[w] = []
        for seed in seeds:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            runs[w].append(res)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    return runs


def summarize(spec, runs) -> dict:
    out = {}
    for w, rs in runs.items():
        out[w] = {"failed_share": sorted({r["failed"] / r["attempted"] for r in rs}),
                  "correct": all(r["correct"] for r in rs), "metrics": {}}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in rs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            out[w]["metrics"][m["name"]] = {
                "median": statistics.median(vals), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(vals), "bound": m["bound"]}
    return out


def print_summary(summary) -> None:
    print(f"{'workload':<13} {'metric':<12} {'median':>10} {'spread':>7} {'bound/3':>7}")
    for w, s in summary.items():
        for name, m in s["metrics"].items():
            flag = "" if name == "setup_s" or m["spread"] <= m["bound"] / 3 else "  WIDE"
            print(f"{w:<13} {name:<12} {m['median']:>10.4g} {m['spread']:>7.3f} "
                  f"{m['bound'] / 3:>7.3f}{flag}")
        print(f"{w:<13} failed share {s['failed_share']}, correct {s['correct']}")


def compare(spec, a, b) -> None:
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    print(f"{'workload':<13} {'metric':<12} {'median A':>10} {'median B':>10} {'worse':>7} {'bound':>6}")
    for w, s in a.items():
        for name, m in s["metrics"].items():
            mb = b[w]["metrics"][name]["median"]
            worse = (mb - m["median"]) / m["median"]
            worse = worse if better[name] == "lower" else -worse
            flag = "  OVER" if worse > m["bound"] else ""
            print(f"{w:<13} {name:<12} {m['median']:>10.4g} {mb:>10.4g} {worse:>7.3f} "
                  f"{m['bound']:>6.2f}{flag}")
        if s["failed_share"] != b[w]["failed_share"]:
            print(f"{w:<13} failed share differs: {s['failed_share']} vs {b[w]['failed_share']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        a, b = (json.loads((OUT_DIR / f"steady-{x}.json").read_text())["summary"]
                for x in args.compare)
        compare(spec, a, b)
        return 0
    if not args.label:
        ap.error("--label or --compare is required")
    runs = run_set(spec, [w["name"] for w in spec["workloads"]], args.seeds)
    summary = summarize(spec, runs)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"steady-{args.label}.json").write_text(
        json.dumps({"summary": summary, "runs": runs}, indent=1))
    print_summary(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
