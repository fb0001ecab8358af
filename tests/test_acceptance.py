"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s or -v to see them).  Tolerances are pinned here; the
underlying sweeps live in mtcforge.suites so the CLI `verify` command runs
the same checks.

Two boundary corners discovered during implementation are asserted in their
corrected form and flagged in the printout:
  - criterion 7/4: Seifert spaces with two or more p = 2 fibers have an
    empty odd sector; their maximal label set is inadmissible (the inverse
    torsion sum is a power of 2, not 1) and the modularity dichotomy can
    fail there.  The suites pin the identities on the complementary scope
    and require the exceptional family to be flagged, not passed.
  - criterion 9: the (0,0) product is the trivial rank-1 category, which is
    modular despite equal parities; the dichotomy is asserted on the other
    48 pairs.
"""

import time

from mtcforge import suites


def report(criterion: int, result, extra: str = "") -> None:
    status = "PASS" if result.passed else "FAIL"
    line = f"[criterion {criterion:2d}] {status}  {result.name}: {result.cases} cases"
    if extra:
        line += f"  ({extra})"
    print(line)
    if not result.passed:
        for f in result.failures[:10]:
            print(f"    - {f}")
    assert result.passed, result.failures[:10]


class TestAcceptance:
    def test_criterion_01_rank6_table(self):
        res = suites.suite_rank6_table()
        report(1, res, f"{res.details['seconds'] * 1e3:.1f} ms, "
                       f"max S error {res.details['s_error']:.1e}")
        assert res.details["seconds"] < 0.1

    def test_criterion_02_sfs_equals_graded_product(self):
        suites.sfs_sweep_records.cache_clear()
        t0 = time.perf_counter()
        res = suites.suite_sfs_tlj(max_p=9)
        elapsed = time.perf_counter() - t0
        report(2, res, f"{elapsed:.1f} s, max |dS| {res.details['max_s_delta']:.1e}")
        assert elapsed < 30.0

    def test_criterion_03_su2_realizations(self):
        report(3, suites.suite_su2_realizations())

    def test_criterion_04_modularity_dichotomy(self):
        res = suites.suite_modularity_dichotomy(max_p=9)
        report(4, res, f"M0 rank {res.details['m0_rank']}, "
                       f"{res.details['empty_odd_sector_instances']} empty-odd-sector instances")

    def test_criterion_05_torus_vs_catalog(self):
        report(5, suites.suite_torus_son2(max_N=13))

    def test_criterion_06_torsion_oracle(self):
        res = suites.suite_torsion_oracle(max_N=13)
        report(6, res, f"slowest {res.details['max_ms']:.2f} ms")
        assert res.cases >= 20
        assert res.details["max_ms"] < 10.0

    def test_criterion_07_admissibility(self):
        report(7, suites.suite_admissibility(max_p=9, max_N=13))

    def test_criterion_08_lemma_sums(self):
        res = suites.suite_lemma_sums(max_p=50)
        report(8, res, f"{res.details['seconds']:.2f} s")
        assert res.details["seconds"] < 5.0

    def test_criterion_09_su2_parity(self):
        res = suites.suite_su2_parity(max_level=6)
        report(9, res, "49 products; (0,0) is the trivial modular corner")
        assert res.cases == 49

    def test_criterion_10_verlinde_integrality(self):
        report(10, suites.suite_verlinde(max_p=9))
