"""Self-test of the benchmark, in seconds.

    python3 perfbench/selftest.py

Runs a smoke configuration of every workload, untraced and traced, and
checks that every metric is reported and above 0.  Then feeds each checker
one corrupted value (an S entry, a twist, a torsion, an oracle value, a
suite result) and checks that the operation is counted as failed.  Last, it
checks that run.py exits non-zero without a result when the program's
sources are absent.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                         os.environ.get("PYTHONPATH")]))

import bench  # noqa: E402
import checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3

SMOKE = {
    "sfs-sweep": bench.SfsSweep(max_p=4),
    "sfs-large": bench.SfsLarge(top=((5, 1), (7, 2), (9, 4)), bands=((40, 60),)),
    "torus-oracle": bench.TorusOracle(max_N=7, bound=6),
    "verify": bench.Verify(bounds={"max_p": 4, "max_N": 7, "max_level": 2, "lemma_max_p": 8}),
}

# per-layer metrics each workload's traced run must move off 0
LAYERS = {
    "sfs-sweep": ["pipeline.sfs_candidate.s", "seifert.central_reps.s",
                  "pipeline.admissibility_report.s", "catalog.reference.s",
                  "catalog.tlj_data.calls", "catalog.tlj_data.hits",
                  "catalog.find_transparent.s", "pipeline.certify.s", "trace.op_ms_p50"],
    "sfs-large": ["catalog.find_transparent.s", "pipeline.certify.s",
                  "pipeline.sl2z_diagnostics.s", "cli.modular_data_to_json.s",
                  "labels.count", "s_tilde.bytes", "trace.op_ms_p50"],
    "torus-oracle": ["pipeline.torus_candidate.s", "catalog.soN2_adjoint.s",
                     "torus_bundle.connecting_word.s",
                     "torus_bundle.build_adjoint_complex.ms_p50",
                     "torus_bundle.build_adjoint_complex.first_ms_p50",
                     "torus_bundle.build_adjoint_complex.ms_max",
                     "torsion_engine.chain_torsion.ms_p50", "oracle.evaluations",
                     "trace.op_ms_p50"],
    "verify": [f"suites.{name}.s" for name in bench.inputs.VERIFY_SUITES]
              + ["suites.sfs_sweep_records.s", "verify.cpu_s", "verify.wall_s", "trace.op_ms_p50"],
}


class Smoke(unittest.TestCase):
    def test_workload_names_match_spec(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(bench.WORKLOADS))
        self.assertEqual([m["name"] for m in SPEC["per_layer"]], list(bench.PER_LAYER))

    def test_untraced_metrics(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        for name, w in SMOKE.items():
            with self.subTest(workload=name):
                setup_s, res = bench.measure(w, SEED, 0.5, False, time.perf_counter())
                metrics = {"setup_s": setup_s, **bench.e2e_metrics(w, res)}
                self.assertEqual(sorted(metrics), sorted(names))
                self.assertTrue(all(v > 0 for v in metrics.values()), metrics)
                self.assertEqual(res["failed"], 0)
                line = json.loads(bench.result_line(True, len(res["latencies"]), 0, metrics))
                self.assertEqual(sorted(line), ["attempted", "correct", "failed", "metrics"])

    def test_traced_metrics(self):
        for name, w in SMOKE.items():
            with self.subTest(workload=name):
                _, res = bench.measure(w, SEED, 0.5, True, time.perf_counter())
                metrics = res["tracer"].metrics()
                self.assertEqual(list(metrics), list(bench.PER_LAYER))
                self.assertEqual(res["failed"], 0)
                zero = [k for k in LAYERS[name] if not metrics[k] > 0]
                self.assertEqual(zero, [])


class Replay:
    """A workload whose operation returns a stored, possibly corrupted, output."""

    def __init__(self, w, out):
        self.w, self.out, self.name = w, out, w.name

    def op(self, x, t):
        return self.out

    def check(self, x, out, rng):
        return self.w.check(x, out, rng)


def failed_count(w, x, out) -> int:
    res = bench.timed_phase(Replay(w, out), [x], 0, bench.NoTracer(), random.Random(SEED))
    assert len(res["latencies"]) == 1
    return res["failed"]


def replace_data(C, **changes):
    return dataclasses.replace(C, data=dataclasses.replace(C.data, **changes))


class CheckersReject(unittest.TestCase):
    def assert_rejects(self, w, x, out, corrupted):
        self.assertEqual(failed_count(w, x, out), 0)
        self.assertEqual(failed_count(w, x, corrupted), 1)

    def test_sfs_candidate(self):
        w, x = SMOKE["sfs-sweep"], ((5, 1), (3, 2), (5, 4))
        out = w.op(x, bench.NoTracer())
        M, C = out[0], out[1]
        i, j = checks.sample_positions(C.rank, random.Random(SEED))[0]
        S = C.data.s_tilde.copy()
        S[i, j] += 1e-6
        twists = list(C.data.twists)
        twists[3] = twists[3] + Fraction(1, 1000)
        torsions = C.torsions.copy()
        torsions[2] *= 1.001
        with self.subTest("S entry"):
            self.assert_rejects(w, x, out, (M, replace_data(C, s_tilde=S), *out[2:]))
        with self.subTest("twist"):
            self.assert_rejects(w, x, out, (M, replace_data(C, twists=tuple(twists)), *out[2:]))
        with self.subTest("torsion"):
            self.assert_rejects(w, x, out, (M, dataclasses.replace(C, torsions=torsions), *out[2:]))

    def test_sfs_csv(self):
        w = SMOKE["sfs-large"]
        x = w.inputs(SEED)[0]
        rc, text = w.op(x, bench.NoTracer())
        rows = list(csv.reader(io.StringIO(text)))
        label, twist, dim, cs, tor = rows[2]
        num, den = twist.split("/")
        bad_rows = {"dim": [label, twist, repr(float(dim) * (1 + 1e-6)), cs, tor],
                    "twist": [label, f"{int(num) + 1}/{den}", dim, cs, tor],
                    "torsion": [label, twist, dim, cs, repr(float(tor) * 1.001)]}
        for what, row in bad_rows.items():
            with self.subTest(what):
                bad = io.StringIO()
                csv.writer(bad).writerows(rows[:2] + [row] + rows[3:])
                self.assert_rejects(w, x, (rc, text), (rc, bad.getvalue()))

    def test_torus_report(self):
        w, x = SMOKE["torus-oracle"], (2, 1, 1, 1)
        rc, text = w.op(x, bench.NoTracer())

        def corrupt(edit):
            rep = json.loads(text)
            edit(rep)
            return rc, json.dumps(rep)

        def oracle(rep):
            rep["oracle"][2]["oracle"] *= 1.001

        def s_entry(rep):
            rep["modular_data"]["s_tilde"][2][3][0] += 1e-6

        def twist(rep):
            rep["modular_data"]["twists"][3]["num"] += 1

        for edit in (oracle, s_entry, twist):
            with self.subTest(edit.__name__):
                self.assert_rejects(w, x, (rc, text), corrupt(edit))

    def test_verify_payload(self):
        w = SMOKE["verify"]
        x = w.inputs(SEED)[0]
        rc, text, wall, cpu = w.op(x, bench.NoTracer())

        def corrupt(edit):
            payload = json.loads(text)
            edit({s["name"]: s for s in payload["suites"]})
            return rc, json.dumps(payload), wall, cpu

        def cases(suites):
            suites["sfs-tlj"]["cases"] += 1

        def passed(suites):
            suites["verlinde"]["passed"] = False

        for edit in (cases, passed):
            with self.subTest(edit.__name__):
                self.assert_rejects(w, x, (rc, text, wall, cpu), corrupt(edit))
        with self.subTest("exit code"):
            self.assert_rejects(w, x, (rc, text, wall, cpu), (1, text, wall, cpu))


class Launcher(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        try:
            proc = subprocess.run(SPEC["command"] + ["--workload", "sfs-sweep", "--seed", "1",
                                                     "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
