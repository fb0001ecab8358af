"""The shared passes behind the suites: chunked passes equal the whole pass,
one run_suites call builds each pass once, and the pool workers it starts
use one BLAS thread each."""

import ctypes
import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from mtcforge import suites


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
def test_sfs_chunks_concatenate_to_the_sweep(n):
    whole = suites.sfs_sweep_records(5)
    chunks = suites._chunks(suites.sfs_sweep_instances(5), n)
    assert len(chunks) == min(n, len(whole))
    assert tuple(r for c in chunks for r in suites.sfs_records(c)) == whole


@pytest.mark.parametrize("n", [1, 2, 5, 64])
def test_torus_chunks_concatenate_to_the_pass(n):
    monos = suites.supported_monodromies(9)
    whole = suites.torus_records(monos)
    assert [r[0] for r in whole] == monos
    assert tuple(r for c in suites._chunks(monos, n) for r in suites.torus_records(c)) == whole


def test_torus_candidates_built_once_per_run(monkeypatch):
    built = []
    real = suites.torus_candidate

    def counting(T):
        built.append((T.a, T.b, T.c, T.d))
        return real(T)

    monkeypatch.setattr(suites, "torus_candidate", counting)
    res = suites.run_suites(["torus-son2", "admissibility"], max_p=3, max_N=9)
    monos = suites.supported_monodromies(9)
    assert all(r.passed for r in res)
    assert sorted(built) == monos
    # a suite called on its own still builds its own pass
    built.clear()
    assert suites.suite_torus_son2(max_N=9).cases == len(monos) == len(built)


def test_bounds_reach_each_suite_by_its_signature():
    res = suites.run_suites(["lemma-sums", "su2-parity", "sfs-tlj"],
                            max_p=4, max_level=2, lemma_max_p=5, seed=3)
    assert [r.cases for r in res] == [suites.suite_lemma_sums(max_p=5, seed=3).cases, 9,
                                      len(suites.sfs_sweep_instances(4))]


def test_empty_selection_runs_no_suite():
    # None selects every suite; an empty list selects none and opens no pool
    assert suites.run_suites([]) == [] == suites.run_suites([], jobs=2)


def test_verlinde_takes_the_modular_sweep_outputs():
    m0 = ((3, 2), (5, 1), (5, 4))
    want = [str(r.pairs) for r in suites.sfs_sweep_records(7)
            if r.modular and r.z2_sphere and r.rank <= 24 and r.pairs != m0]
    taken = [name for name, _ in suites._modular_outputs(7) if name.startswith("((")]
    assert taken == want


def test_suites_flag_doctored_passes():
    records = list(suites.sfs_sweep_records(3))
    records[1] = replace(records[1], certified=False, max_s_delta=0.5)
    res = suites.suite_sfs_tlj(records=tuple(records))
    assert not res.passed and res.failures == [f"{records[1].pairs}: max |dS| = 5.00e-01"]
    torus = list(suites.torus_records(suites.supported_monodromies(9)))
    mono, cert, rep, adm = torus[3]
    torus[3] = (mono, cert, replace(rep, transparent_labels=("rho+",)),
                replace(adm, gauss_sum_modulus=0.0))
    son2 = suites.suite_torus_son2(torus=tuple(torus))
    assert not son2.passed and son2.failures == [f"{mono}: transparent=('rho+',)"]
    res = suites.suite_admissibility(max_p=3, torus=tuple(torus))
    assert not res.passed and res.failures == [f"{mono}: gauss 0.0 != 1/sqrt(N)"]


def test_jobs_capped_at_cpu_count(monkeypatch):
    # the pool starts all of its max_workers at once
    opened = []

    class RecordingPool(suites._InProcess):
        def __init__(self, max_workers, **kwargs):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(suites, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    names = ["sfs-tlj", "torus-son2"]
    res = suites.run_suites(names, jobs=1000, max_p=4, max_N=9)
    assert opened == [2]
    assert [(r.passed, r.cases) for r in res] == \
        [(r.passed, r.cases) for r in suites.run_suites(names, max_p=4, max_N=9)]


def test_timed_suites_run_in_the_caller_after_the_pool(monkeypatch):
    # a wall-clock gate must not time its suite beside a busy pool worker
    ran = {}
    opened = []

    def recording(name, suite):
        @functools.wraps(suite)
        def run(*args, **kwargs):
            ran[name] = os.getpid(), len(multiprocessing.active_children())
            return suite(*args, **kwargs)
        return run

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            opened.append(max_workers)
            super().__init__(max_workers, **kwargs)

    for name in suites.TIMED_SUITES:
        monkeypatch.setitem(suites.ALL_SUITES, name, recording(name, suites.ALL_SUITES[name]))
    monkeypatch.setattr(suites, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    names = ["torsion-oracle", "lemma-sums", "rank6-table", "su2-parity"]
    res = suites.run_suites(names, jobs=2, lemma_max_p=10, max_level=3)
    assert [r.name for r in res] == names and res[1].passed and res[3].passed
    assert opened == [2]
    # in this process, with no pool worker alive
    assert ran == {"torsion-oracle": (os.getpid(), 0), "rank6-table": (os.getpid(), 0)}


def _blas_threads():
    get = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_openblas_get_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


def test_pool_workers_run_one_blas_thread():
    if not hasattr(ctypes.CDLL(np.linalg._umath_linalg.__file__),
                   "scipy_openblas_get_num_threads64_"):
        pytest.skip("numpy is not linked to its bundled OpenBLAS")
    with ProcessPoolExecutor(1, initializer=suites._one_blas_thread) as pool:
        assert pool.submit(_blas_threads).result(timeout=60) == 1
