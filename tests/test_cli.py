import csv
import dataclasses
import functools
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mtcforge import cli, torsion_engine, torus_bundle
from mtcforge.algebra import RationalPhase
from mtcforge.catalog import graded_product, soN2_adjoint, su2_level, tlj_data
from mtcforge.cli import (
    main,
    matrix_from_json,
    matrix_to_json,
    modular_data_from_json,
    modular_data_to_json,
    phase_from_json,
    phase_to_json,
)
from mtcforge.pipeline import certify, sfs_candidate
from mtcforge.seifert import make_sfs
from mtcforge.torus_bundle import build_adjoint_complexes, connecting_word


GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestSerialization:
    def test_phase_roundtrip(self):
        t = RationalPhase.of(Fraction(-3, 16))
        assert phase_from_json(phase_to_json(t)) == t
        assert phase_to_json(t) == {"num": 13, "den": 16}

    def test_matrix_roundtrip(self):
        M = np.array([[1.5, -2j], [0.25 + 1j, 3.0]])
        back = matrix_from_json(matrix_to_json(M))
        assert np.abs(back - M).max() == 0.0

    def test_matrix_json_matches_per_entry_form(self):
        rng = np.random.default_rng(7)
        Z = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        Z[0, :4] = [-0.0, complex(0.0, -0.0), 1e-300 - 1e300j, 1 / 3]
        C = sfs_candidate(make_sfs([(11, 2), (13, 4), (7, 3)]))
        assert C.rank == 180
        for M in (Z, C.data.s_tilde):
            per_entry = [[[complex(z).real, complex(z).imag] for z in row] for row in M]
            for indent in (None, 2):
                assert (json.dumps(matrix_to_json(M), indent=indent)
                        == json.dumps(per_entry, indent=indent))

    def test_modular_data_roundtrip(self):
        for D in (su2_level(3), soN2_adjoint(7, -17)):
            obj = modular_data_to_json(D)
            # exercise the wire format, not object identity
            obj2 = json.loads(json.dumps(obj))
            back = modular_data_from_json(obj2)
            assert back.labels == D.labels
            assert back.twists == D.twists
            assert np.abs(back.s_tilde - D.s_tilde).max() == 0.0
            assert modular_data_to_json(back) == obj


@given(st.integers(1, 2**31).flatmap(
    lambda den: st.tuples(st.lists(st.integers(0, den - 1), max_size=20), st.just(den))))
@example(([], 1))
def test_csv_fractions_match_rational_phase(case):
    # the csv columns once came from the reduced RationalPhase views
    residues, den = [0] + case[0], case[1]
    phases = [RationalPhase.of(r, den) for r in residues]
    assert cli._fractions(np.array(residues, dtype=np.int64), den) == \
        [f"{t.numerator}/{t.denominator}" for t in phases]


class TestSfsCommand:
    def test_known_realization_passes(self):
        code, out, _ = run_cli(["sfs", "--fiber", "3,1", "--fiber", "3,1",
                                "--fiber", "4,1", "--unit", "canonical"])
        assert code == 0
        assert "rank 3" in out
        assert "certification vs catalog: PASS" in out

    def test_m0_json(self):
        code, out, _ = run_cli(["sfs", "--fiber", "5,1", "--fiber", "3,2",
                                "--fiber", "5,4", "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["rank"] == 8
        assert obj["modularity"]["is_modular"] is True
        assert obj["certification"]["passed"] is True
        assert obj["admissibility"]["admissible"] is True

    def test_invalid_fiber_exit_2(self):
        code, _, err = run_cli(["sfs", "--fiber", "4,2", "--fiber", "3,1", "--fiber", "3,1"])
        assert code == 2
        assert "coprime" in err

    def test_rank_budget_checked_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sfs_candidate called on an oversized manifold")

        monkeypatch.setattr(cli, "sfs_candidate", refuse)
        code, out, err = run_cli(["sfs", "--fiber", "2001,1", "--fiber", "2003,1",
                                  "--fiber", "2005,1"])
        assert code == 2 and out == ""
        assert "rank 2006004000" in err and "--max-rank (5000)" in err

    def test_rank_budget_flag(self):
        argv = ["sfs", "--fiber", "3,1", "--fiber", "3,1", "--fiber", "4,1", "--max-rank"]
        assert run_cli(argv + ["2"])[0] == 2
        assert run_cli(argv + ["3"])[0] == 0

    def test_fiber_count_enforced(self):
        code, _, err = run_cli(["sfs", "--fiber", "3,1", "--fiber", "3,1"])
        assert code == 2
        assert "three" in err

    def test_csv_rows(self):
        code, out, _ = run_cli(["sfs", "--fiber", "3,1", "--fiber", "3,1",
                                "--fiber", "5,1", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["label", "twist", "dim", "cs", "torsion"]
        assert len(rows) == 1 + 4
        # twist column is exact num/den
        assert all("/" in r[1] for r in rows[1:])

    def test_csv_rows_equal_the_report_fields(self):
        # rank 140, with an even fiber, so both label blocks are present
        fibers = [(8, 3), (9, 2), (11, 4)]
        code, out, _ = run_cli(["sfs"] + [a for p, q in fibers for a in ("--fiber", f"{p},{q}")]
                               + ["--format", "csv"])
        assert code == 0
        M = make_sfs(fibers)
        C = sfs_candidate(M)
        A = [tlj_data(f.A) for f in M.fibers]
        reference = graded_product(graded_product(A[0], A[1]), A[2])
        report = cli._candidate_report(C, reference, certify(C, reference), {})
        assert report["rank"] == 140
        # the rows as csv once built them, from the fields of the json report
        expected = io.StringIO()
        w = csv.writer(expected)
        w.writerow(["label", "twist", "dim", "cs", "torsion"])
        D = report["modular_data"]
        for i, lab in enumerate(report["labels"]):
            tw = D["twists"][i]
            cs = report["cs"][i]
            w.writerow([lab, f"{tw['num']}/{tw['den']}", format(D["dims"][i], ".12g"),
                        f"{cs['num']}/{cs['den']}", format(report["torsion"][i], ".12g")])
        assert out == expected.getvalue()

    def test_failed_certification_exits_1(self, monkeypatch):
        def failing(C, D):
            return dataclasses.replace(certify(C, D), passed=False)

        monkeypatch.setattr(cli, "certify", failing)
        argv = ["sfs", "--fiber", "5,1", "--fiber", "3,2", "--fiber", "5,4", "--format"]
        code, out, _ = run_cli(argv + ["csv"])
        assert code == 1
        assert out.encode() == (GOLDEN / "sfs_5-1_3-2_5-4.csv").read_bytes()
        code, out, _ = run_cli(argv + ["json"])
        assert code == 1
        assert json.loads(out)["certification"]["passed"] is False

    def test_reseated_unit(self):
        code, out, _ = run_cli(["sfs", "--fiber", "3,1", "--fiber", "3,1",
                                "--fiber", "6,1", "--unit", "reseated", "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["rank"] == 5
        assert obj["certification"]["passed"] is True


class TestTorusCommand:
    def test_reference_bundle(self):
        code, out, _ = run_cli(["torus", "--monodromy", "2,1,1,1", "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["N"] == 5 and obj["rank"] == 4
        assert obj["modularity"]["is_modular"] is False
        assert obj["certification"]["passed"] is True

    def test_oracle_values(self):
        code, out, _ = run_cli(["torus", "--monodromy", "2,1,1,1", "--oracle",
                                "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        got = sorted(round(r["oracle"], 6) for r in obj["oracle"])
        assert got == [1.25, 1.25, 5.0, 5.0]

    def test_oracle_has_no_csv_column(self, monkeypatch):
        def refuse(T):
            raise AssertionError("torus_candidate called for a rejected command")

        monkeypatch.setattr(cli, "torus_candidate", refuse)
        code, out, err = run_cli(["torus", "--monodromy", "2,1,1,1", "--oracle",
                                  "--format", "csv"])
        assert code == 2 and out == ""
        assert "--oracle has no csv column" in err

    def test_rank_budget_checked_before_building(self, monkeypatch):
        def refuse(T):
            raise AssertionError("torus_candidate called")

        monkeypatch.setattr(cli, "torus_candidate", refuse)
        # N = 9999, rank (N + 3) / 2 = 5,001
        code, out, err = run_cli(["torus", "--monodromy", "9996,1,9995,1"])
        assert code == 2 and out == ""
        assert "rank 5001 exceeds 5000" in err
        # rank 5,000 passes the bound
        with pytest.raises(AssertionError, match="torus_candidate called"):
            run_cli(["torus", "--monodromy", "9994,1,9993,1"])

    def test_oracle_word_budget_checked_before_building(self, monkeypatch):
        def refuse(T):
            raise AssertionError("connecting_word called")

        monkeypatch.setattr(torus_bundle, "connecting_word", refuse)
        assert cli.ORACLE_MAX_TERMS == 10**6
        # N = 11 (rank 7) with b = -1 and d = 9 - a: |ad| + |bc| = 1,001,073
        code, out, err = run_cli(["torus", "--monodromy", "712,-1,500537,-703", "--oracle",
                                  "--format", "json"])
        assert code == 2 and out == ""
        assert "|ad| + |bc| = 1001073 exceeds 1000000" in err
        # without --oracle no word is built, and 998,245 terms pass the bound
        assert run_cli(["torus", "--monodromy", "712,-1,500537,-703", "--format", "csv"])[0] == 0
        with pytest.raises(AssertionError, match="connecting_word called"):
            run_cli(["torus", "--monodromy", "711,-1,499123,-702", "--oracle", "--format", "json"])

    def test_oracle_exits_2_without_lapack_zgeqp3(self, monkeypatch):
        # a numpy whose LAPACK lacks the symbol: one clear error, no fallback,
        # and the commands that need no oracle still run
        def refuse(*args, **kwargs):
            raise AssertionError("oracle complex built")

        monkeypatch.setattr(torsion_engine, "openblas_function", lambda name: None)
        monkeypatch.setattr(torus_bundle, "connecting_word", refuse)
        monkeypatch.setattr(cli, "build_adjoint_complexes", refuse)
        torsion_engine._geqp3.cache_clear()
        try:
            code, out, err = run_cli(["torus", "--monodromy=2,1,1,1", "--oracle", "--format", "json"])
            assert code == 2 and out == ""
            assert "error: " in err and "scipy_zgeqp3_64_" in err
            with pytest.raises(RuntimeError, match="scipy_zgeqp3_64_"):
                torsion_engine.chain_torsion(torsion_engine.BasedChainComplex((1, 1), (np.array([[2.0]]),)))
            assert run_cli(["torus", "--monodromy=2,1,1,1", "--format", "json"])[0] == 0
            code, out, err = run_cli(["verify", "--suite", "torsion-oracle"])
            assert code == 2 and out == "" and "scipy_zgeqp3_64_" in err
        finally:
            torsion_engine._geqp3.cache_clear()

    def test_bad_determinant_exit_2(self):
        code, _, err = run_cli(["torus", "--monodromy", "3,1,1,0"])
        assert code == 2 and "determinant" in err

    def test_open_case_named(self):
        code, _, err = run_cli(["torus", "--monodromy", "3,1,2,1"])
        assert code == 2 and "open case" in err

    def test_malformed_input(self):
        code, _, err = run_cli(["torus", "--monodromy", "2,1,1"])
        assert code == 2

    def test_negative_entry_space_separated(self):
        code, out, _ = run_cli(["torus", "--monodromy", "-10,9,-19,17", "--format", "csv"])
        assert code == 0
        assert out.encode() == (GOLDEN / "torus_-10_9_-19_17.csv").read_bytes()

    def test_oracle_builds_connecting_word_once(self, monkeypatch):
        calls = []

        def counting(T):
            calls.append(T)
            return connecting_word(T)

        monkeypatch.setattr(torus_bundle, "connecting_word", counting)
        code, out, _ = run_cli(["torus", "--monodromy=-10,9,-19,17", "--oracle",
                                "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert len(obj["oracle"]) == obj["rank"] > 1
        assert len(calls) == 1

    def test_oracle_takes_one_stacked_torsion_call(self, monkeypatch):
        calls = []

        def counting(C):
            calls.append(len(C.boundaries[0]))
            return torsion_engine.chain_torsions(C)

        def refuse(*args, **kwargs):
            raise AssertionError("one-complex torsion called")

        monkeypatch.setattr(cli, "chain_torsions", counting)
        monkeypatch.setattr(torsion_engine, "chain_torsion", refuse)
        code, out, _ = run_cli(["torus", "--monodromy=-10,9,-19,17", "--oracle", "--format", "json"])
        assert code == 0
        assert calls == [json.loads(out)["rank"]]
        assert out.encode() == (GOLDEN / "torus_-10_9_-19_17_oracle.json").read_bytes()

    def test_oracle_builds_complexes_in_one_batched_call(self, monkeypatch):
        calls = []

        def counting(T, chars):
            calls.append(len(chars))
            return build_adjoint_complexes(T, chars)

        def refuse(*args, **kwargs):
            raise AssertionError("per-character builder called")

        monkeypatch.setattr(cli, "build_adjoint_complexes", counting)
        monkeypatch.setattr(torus_bundle, "build_adjoint_complex", refuse)
        for mono in ("-10,9,-19,17", "2,1,1,1"):
            calls.clear()
            code, out, _ = run_cli(["torus", f"--monodromy={mono}", "--oracle", "--format", "json"])
            assert code == 0
            assert calls == [json.loads(out)["rank"]]
        calls.clear()
        assert run_cli(["torus", "--monodromy=2,1,1,1", "--format", "json"])[0] == 0
        assert calls == []


class TestVerifyCommand:
    def test_single_suite_pretty(self):
        code, out, _ = run_cli(["verify", "--suite", "rank6-table"])
        assert code == 0
        assert "[PASS] rank6-table" in out

    def test_json_failure_list_schema(self):
        code, out, _ = run_cli(["verify", "--suite", "su2-parity", "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["passed"] is True
        suite = obj["suites"][0]
        assert set(suite) == {"name", "check", "passed", "cases", "failures", "details"}

    def test_small_bounds(self):
        code, out, _ = run_cli(["verify", "--suite", "sfs-tlj", "--suite", "lemma-sums",
                                "--max-p", "4", "--lemma-max-p", "10"])
        assert code == 0
        assert out.count("[PASS]") == 2

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["verify", "--suite", "nope"])

    def test_sweep_cap_enforced(self):
        code, _, err = run_cli(["verify", "--suite", "sfs-tlj", "--max-p", "40"])
        assert code == 2 and "cap" in err

    def test_level_cap_enforced(self):
        # su2-parity squares the level range, so --max-level is capped too
        code, out, err = run_cli(["verify", "--suite", "su2-parity", "--max-level", "26"])
        assert code == 2 and out == "" and "cap" in err

    @pytest.mark.parametrize("argv, flag", [
        (["--suite", "sfs-tlj", "--max-p", "1"], "--max-p"),
        (["--suite", "sfs-tlj", "--max-p", "-3"], "--max-p"),
        (["--suite", "torsion-oracle", "--max-N", "3"], "--max-N"),
        (["--suite", "lemma-sums", "--lemma-max-p", "1"], "--lemma-max-p"),
        (["--suite", "su2-parity", "--max-level", "-1"], "--max-level"),
        # coverage floors: below these the suites can never pass
        (["--suite", "sfs-modularity", "--max-p", "2"], "--max-p"),
        (["--suite", "torsion-oracle", "--max-N", "7"], "--max-N"),
    ])
    def test_lower_bounds_enforced(self, argv, flag):
        code, out, err = run_cli(["verify"] + argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag} must be >= ")

    def test_parallel_jobs(self):
        code, out, _ = run_cli(["verify", "--suite", "rank6-table",
                                "--suite", "su2-parity", "--jobs", "2"])
        assert code == 0
        assert out.count("[PASS]") == 2

    def test_parallel_json_equals_serial(self):
        # the wall-clock fields and the wall-clock gates' verdicts aside
        def normal(out):
            payload = json.loads(out)
            for suite in payload["suites"]:
                for key in ("seconds", "max_ms"):
                    suite["details"].pop(key, None)
                suite["failures"] = [f for f in suite["failures"]
                                     if not f.startswith(("runtime ", "slowest evaluation "))]
                suite["passed"] = not suite["failures"]
            payload["passed"] = all(s["passed"] for s in payload["suites"])
            return payload

        argv = ["verify", "--max-p", "4", "--max-N", "9", "--max-level", "2",
                "--lemma-max-p", "8", "--seed", "3", "--format", "json"]
        _, out1, _ = run_cli(argv + ["--jobs", "1"])
        _, out2, _ = run_cli(argv + ["--jobs", "2"])
        serial = normal(out1)
        assert [s["name"] for s in serial["suites"]] == list(cli.suites.ALL_SUITES)
        assert all(s["passed"] for s in serial["suites"])
        assert normal(out2) == serial

    def test_torus_floor_applies_to_the_oracle_only(self):
        code, out, _ = run_cli(["verify", "--suite", "torus-son2", "--max-N", "7"])
        assert code == 0 and "[PASS] torus-son2" in out

    def test_jobs_clamped_to_suite_count(self, monkeypatch):
        # the pool forks all max_workers at once; it must never exceed the suites
        from concurrent.futures import Future

        import mtcforge.cli as cli
        seen = []

        class RecordingPool:
            def __init__(self, max_workers, **kwargs):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

            def submit(self, fn, *args, **kwargs):
                future = Future()
                future.set_result(fn(*args, **kwargs))
                return future

        monkeypatch.setattr(cli.suites, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        # rank6-table is timed, so it runs in the caller, not in the pool
        code, out, _ = run_cli(["verify", "--suite", "rank6-table", "--suite", "su2-realizations",
                                "--suite", "su2-parity", "--jobs", "64"])
        assert code == 0 and out.count("[PASS]") == 3
        assert seen == [2]

    def test_parallel_suites_see_the_serial_passes(self, monkeypatch):
        # chunks are submitted largest first; the suites must still get the
        # passes in sweep order
        from concurrent.futures import Future

        from mtcforge import suites

        class InlinePool:
            def __init__(self, max_workers, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args, **kwargs):
                future = Future()
                future.set_result(fn(*args, **kwargs))
                return future

        seen = {}

        def spy_on(name):
            suite = suites.ALL_SUITES[name]

            @functools.wraps(suite)
            def spy(**kwargs):
                seen[name] = (kwargs.get("records"), kwargs.get("torus"))
                return suite(**kwargs)

            monkeypatch.setitem(suites.ALL_SUITES, name, spy)

        for name in ("sfs-tlj", "torus-son2", "verlinde"):
            spy_on(name)
        monkeypatch.setattr(suites, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        code, _, _ = run_cli(["verify", "--suite", "sfs-tlj", "--suite", "torus-son2",
                              "--suite", "verlinde", "--max-p", "4", "--max-N", "9", "--jobs", "3"])
        assert code == 0
        records = suites.sfs_sweep_records(4)
        torus = suites.torus_records(suites.supported_monodromies(9))
        assert seen == {"sfs-tlj": (records, None), "torus-son2": (None, torus),
                        "verlinde": (None, None)}


class TestParserReuse:
    """main parses with one parser per process (build_parser is cached), so
    calls in one process must not see each other's values or streams."""

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_fiber_values_do_not_carry_over(self):
        three = ["sfs", "--fiber", "3,1", "--fiber", "3,1", "--fiber", "5,1", "--format", "csv"]
        first = run_cli(three)
        assert first[0] == 0
        # with the first call's fibers carried over, two would make five
        code, out, err = run_cli(["sfs", "--fiber", "3,1", "--fiber", "3,1"])
        assert code == 2 and out == "" and "exactly three" in err
        assert run_cli(three) == first

    def test_suite_values_do_not_carry_over(self):
        for name in ("rank6-table", "su2-parity", "rank6-table"):
            code, out, _ = run_cli(["verify", "--suite", name, "--format", "json"])
            assert code == 0
            assert [s["name"] for s in json.loads(out)["suites"]] == [name]

    def test_usage_goes_to_the_stderr_of_each_call(self):
        cases = [(["verify", "--suite", "nope"], "invalid choice: 'nope'"),
                 (["torus"], "required: --monodromy"),
                 (["sfs", "--fiber"], "expected one argument")]
        for argv, message in cases:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
            assert exc.value.code == 2 and out.getvalue() == ""
            assert err.getvalue().startswith("usage: mtcforge ")
            assert err.getvalue().count("usage:") == 1 and message in err.getvalue()
        code, out, _ = run_cli(["torus", "--monodromy=-10,9,-19,17", "--format", "csv"])
        assert code == 0 and out.encode() == (GOLDEN / "torus_-10_9_-19_17.csv").read_bytes()


class TestFixedTolerance:
    def test_env_var_ignored(self, monkeypatch):
        # the tolerance is the fixed 1e-9: MTCFORGE_TOL, which once overrode
        # it and refused a value <= 0, changes neither the exit code nor a byte
        argv = ["sfs", "--fiber", "5,1", "--fiber", "3,2", "--fiber", "5,4", "--format", "json"]
        monkeypatch.delenv("MTCFORGE_TOL", raising=False)
        code, want, _ = run_cli(argv)
        assert code == 0 and want.encode() == (GOLDEN / "sfs_5-1_3-2_5-4.json").read_bytes()
        for value in ("-1", "0.5"):
            monkeypatch.setenv("MTCFORGE_TOL", value)
            assert run_cli(argv) == (0, want, ""), value
