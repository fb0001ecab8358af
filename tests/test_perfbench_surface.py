"""The library surface that the benchmark under perfbench/ reads.

perfbench/bench.py times layers by calling them directly and checks outputs
through the candidate's fields, and perfbench/selftest.py corrupts a twist
with a Fraction shift.  A change to src/ that drops one of these breaks the
benchmark; this test fails first.  Nothing under perfbench/ is changed.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

from mtcforge.algebra import RationalPhase

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import bench  # noqa: E402

TRIPLE = ((5, 1), (3, 2), (5, 4))


def test_traced_layers_and_checks_run():
    t = bench.Tracer()
    sweep = bench.SfsSweep()
    # central_reps(M, chars, cs) over CandidateData.characters and .cs, the
    # twists' as_fraction in the check, tlj_data's cache_info
    assert sweep.check(TRIPLE, sweep.op(TRIPLE, t), random.Random(0)) == []
    large = bench.SfsLarge()
    assert large.check(TRIPLE, large.op(TRIPLE, t), random.Random(0)) == []
    # build_adjoint_complex and chain_torsion, one character at a time
    oracle = bench.TorusOracle()
    assert oracle.check((2, 1, 1, 1), oracle.op((2, 1, 1, 1), t), random.Random(0)) == []
    metrics = t.metrics()
    for name in ("seifert.central_reps.s", "catalog.tlj_data.calls", "pipeline.sl2z_diagnostics.s",
                 "cli.modular_data_to_json.s", "torus_bundle.connecting_word.s",
                 "torus_bundle.build_adjoint_complex.ms_p50",
                 "torsion_engine.chain_torsion.ms_p50", "oracle.evaluations"):
        assert metrics[name] > 0, name


def test_cache_clear_attributes():
    # clear_caches empties the memo caches of tlj_data, su2_level and
    # sfs_sweep_records; forget_boundaries tolerates a cache that is gone
    bench.clear_caches()
    bench.forget_boundaries()
    assert bench.tlj_data.cache_info().currsize == 0


def test_twist_shift_of_the_self_test():
    tw = bench.sfs_steps(TRIPLE, bench.NoTracer())[1].data.twists[3]
    shifted = tw + Fraction(1, 1000)
    assert isinstance(shifted, RationalPhase)
    assert shifted.as_fraction() == (tw.as_fraction() + Fraction(1, 1000)) % 1
