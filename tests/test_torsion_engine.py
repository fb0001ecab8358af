import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mtcforge.algebra import DEFAULT_TOL
from mtcforge.suites import supported_monodromies
from mtcforge.torsion_engine import (
    BasedChainComplex,
    TorsionResult,
    _geqp3,
    _pivots,
    _torsions,
    chain_torsion,
    chain_torsions,
)
from mtcforge.torus_bundle import (
    build_adjoint_complex,
    build_adjoint_complexes,
    enumerate_torus_characters,
    make_torus_bundle,
)


def _pivot_columns(M):
    """The pivot columns chain_torsion takes for the matrix M."""
    ranks, columns = _pivots(np.asarray(M)[None])
    return columns[0, :ranks[0]].tolist()


def doubling_complex():
    """0 -> C -> C -> 0 with multiplication by 2, occupying degrees (2, 1)
    so the determinant lands in the numerator of the alternating product."""
    return BasedChainComplex((1, 1, 0), (np.array([[2.0]]), np.zeros((0, 1))))


class TestChainTorsion:
    def test_two_term_doubling(self):
        res = chain_torsion(doubling_complex())
        assert res.acyclic
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_two_term_at_bottom_degrees_inverts(self):
        # same map in degrees (1, 0): the even-degree determinant divides
        C = BasedChainComplex((1, 1), (np.array([[2.0]]),))
        res = chain_torsion(C)
        assert res.acyclic
        assert res.value == pytest.approx(0.5, abs=1e-12)

    def test_torus_bundle_closed_forms(self):
        # irreducible character: N/4; reducible: N
        T = make_torus_bundle(2, 1, 1, 1)
        chars = enumerate_torus_characters(T)
        res = chain_torsion(build_adjoint_complex(T, chars[2]))
        assert res.acyclic and res.value == pytest.approx(1.25, rel=1e-9)
        res = chain_torsion(build_adjoint_complex(T, chars[0]))
        assert res.acyclic and res.value == pytest.approx(5.0, rel=1e-9)

    def test_not_acyclic_reported(self):
        C = BasedChainComplex((1, 1), (np.array([[0.0]]),))
        res = chain_torsion(C)
        assert not res.acyclic
        assert res.value is None

    def test_composability_enforced(self):
        d2 = np.array([[1.0], [0.0]])
        d1 = np.array([[1.0, 1.0]])  # d1 @ d2 = 1 != 0
        with pytest.raises(ValueError, match="d.d != 0"):
            BasedChainComplex((1, 2, 1), (d2, d1))

    def test_pivot_choice_independence(self):
        rng = np.random.default_rng(2)
        T = make_torus_bundle(4, 1, 3, 1)
        chi = enumerate_torus_characters(T)[3]
        C = build_adjoint_complex(T, chi)
        base = chain_torsion(C)
        n = len(C.dims) - 1
        # force a different greedy pivot order per degree
        for trial in range(5):
            forced = {}
            for deg in (1, 2, 3):
                got = chain_torsion(C).per_degree_ranks[deg - 1]
                M = C.boundaries[n - deg]
                cols = list(range(M.shape[1]))
                rng.shuffle(cols)
                picked, rank = [], 0
                acc = np.zeros((M.shape[0], 0), dtype=complex)
                for c in cols:
                    trial_mat = np.hstack([acc, M[:, [c]]])
                    if np.linalg.matrix_rank(trial_mat, tol=1e-9) > rank:
                        acc = trial_mat
                        picked.append(c)
                        rank += 1
                    if rank == got:
                        break
                forced[deg] = picked
            res = chain_torsion(C, pivots=forced)
            assert res.acyclic
            assert res.value == pytest.approx(base.value, rel=1e-7)

    def test_basis_change_covariance(self):
        # coordinate transform Q in degree i multiplies tau by |det Q|^(-1)^(i+1)
        T = make_torus_bundle(2, 1, 1, 1)
        chi = enumerate_torus_characters(T)[2]
        C = build_adjoint_complex(T, chi)
        base = chain_torsion(C).value
        rng = np.random.default_rng(9)
        n = len(C.dims) - 1
        for deg in range(0, n + 1):
            dim = C.dims[n - deg]
            Q = np.eye(dim) + 0.2 * rng.standard_normal((dim, dim))
            det = abs(np.linalg.det(Q))
            bnds = [b.copy() for b in C.boundaries]
            # boundaries stored top-down: index of map out of degree deg
            if deg >= 1:
                bnds[n - deg] = bnds[n - deg] @ np.linalg.inv(Q)
            if deg + 1 <= n:
                bnds[n - deg - 1] = Q @ bnds[n - deg - 1]
            res = chain_torsion(BasedChainComplex(C.dims, tuple(bnds)))
            expected = base * det ** ((-1) ** (deg + 1))
            assert res.value == pytest.approx(expected, rel=1e-8), deg


def loop_torsion(C: BasedChainComplex, pivots=None) -> TorsionResult:
    """chain_torsion of one complex as a loop over its degrees, with early
    returns: the form the stacked pass replaced, kept as its oracle."""
    n = len(C.dims) - 1
    dim = C.dims[::-1]   # dim[deg] = dim C_deg
    piv = {n + 1: []}
    for deg in range(n, 0, -1):
        piv[deg] = pivots[deg] if pivots is not None and deg in pivots else \
            _pivot_columns(C.boundaries[n - deg])
    ranks = tuple(len(piv[deg]) for deg in range(1, n + 1))
    if not all(len(piv[deg + 1]) + (len(piv[deg]) if deg >= 1 else 0) == dim[deg]
               for deg in range(0, n + 1)):
        return TorsionResult(None, False, ranks)
    log_tau = 0.0
    for deg in range(0, n + 1):
        blocks = []
        if deg + 1 <= n:
            blocks.append(C.boundaries[n - deg - 1][:, piv[deg + 1]])
        if deg >= 1 and piv[deg]:
            E = np.zeros((dim[deg], len(piv[deg])), dtype=complex)
            for col, row in enumerate(piv[deg]):
                E[row, col] = 1.0
            blocks.append(E)
        D = np.hstack(blocks) if blocks else np.zeros((dim[deg], 0), dtype=complex)
        if D.size:
            sign, logdet = np.linalg.slogdet(D)
            if sign == 0:
                return TorsionResult(None, False, ranks)
            log_tau += (-1) ** (deg + 1) * logdet
    return TorsionResult(math.exp(log_tau), True, ranks)


def members(stack: BasedChainComplex) -> list[BasedChainComplex]:
    """The complexes of a stack, in stack order."""
    return [stack[q] for q in range(len(stack.boundaries[0]))]


def stack_of(*complexes: BasedChainComplex) -> BasedChainComplex:
    """The stack of complexes with the same dims."""
    return BasedChainComplex(complexes[0].dims, tuple(np.stack(b) for b in
                                                      zip(*(C.boundaries for C in complexes))))


class TestStackedTorsion:
    """chain_torsions takes a whole stack in one pass; each result must be
    the one-complex result, bit for bit, and a bad complex must stay alone."""

    def test_matches_one_complex_path_on_every_torus_character(self):
        count = 0
        for mono in supported_monodromies(13):
            T = make_torus_bundle(*mono)
            stack = build_adjoint_complexes(T, enumerate_torus_characters(T))
            for C, res in zip(members(stack), chain_torsions(stack), strict=True):
                assert res.acyclic
                assert res == chain_torsion(C) == loop_torsion(C), mono
                assert res.value.hex() == loop_torsion(C).value.hex()
                count += 1
        assert count == 1632

    def test_one_non_acyclic_complex_is_marked_alone(self):
        T = make_torus_bundle(2, 1, 1, 1)
        stack = build_adjoint_complexes(T, enumerate_torus_characters(T))
        D3 = stack.boundaries[0].copy()
        D3[1, :, 2] = 0.0   # the top boundary of complex 1 cut to rank 2
        cut = BasedChainComplex(stack.dims, (D3,) + stack.boundaries[1:])
        got = chain_torsions(cut)
        assert [res.acyclic for res in got] == [q != 1 for q in range(len(got))]
        assert got[1].value is None and got[1].per_degree_ranks[2] == 2
        assert got[1] == loop_torsion(cut[1])
        assert got[:1] + got[2:] == chain_torsions(stack)[:1] + chain_torsions(stack)[2:]

    def test_singular_forced_pivots_mark_only_that_complex(self):
        # pivots [0, 1] span C_0 for the identity, not for the rank-one map
        d1 = np.array([np.eye(2), [[1.0, 1.0], [0.0, 0.0]], 3 * np.eye(2)])
        stack = BasedChainComplex((2, 2), (d1,))
        got = _torsions(stack.dims, stack.boundaries, 3, {1: [0, 1]})
        assert [res.acyclic for res in got] == [True, False, True]
        assert got == tuple(loop_torsion(C, pivots={1: [0, 1]}) for C in members(stack))
        assert got[2].value == pytest.approx(1 / 9)
        assert [res.acyclic for res in chain_torsions(stack)] == [True, False, True]

    def test_forced_pivots_match_the_one_complex_path(self):
        T = make_torus_bundle(4, 1, 3, 1)
        stack = build_adjoint_complexes(T, enumerate_torus_characters(T)[2:])
        forced = {2: _pivot_columns(stack[0].boundaries[1])}   # d_2 of (d_3, d_2, d_1)
        got = _torsions(stack.dims, stack.boundaries, len(members(stack)), forced)
        assert got == tuple(chain_torsion(C, pivots=forced) for C in members(stack))
        assert got == tuple(loop_torsion(C, pivots=forced) for C in members(stack))

    def test_broken_d_squared_in_one_complex_raises(self):
        T = make_torus_bundle(2, 1, 1, 1)
        stack = build_adjoint_complexes(T, enumerate_torus_characters(T))
        D1 = stack.boundaries[2].copy()
        D1[3, 0, 0] += 1e-3
        with pytest.raises(ValueError, match="d.d != 0 between degrees 2 and 1"):
            BasedChainComplex(stack.dims, stack.boundaries[:2] + (D1,))

    def test_each_complex_keeps_its_own_scale(self):
        # d1 d2 = 1e-4 passes at scale 1e4 (bound 0.1) but not at scale 1
        big = BasedChainComplex((1, 1, 1), (np.array([[1e4]]), np.array([[1e-8]])))
        small_d = (np.array([[1.0]]), np.array([[1e-4]]))
        with pytest.raises(ValueError, match="d.d != 0"):
            BasedChainComplex((1, 1, 1), small_d)
        with pytest.raises(ValueError, match="d.d != 0"):
            BasedChainComplex((1, 1, 1), tuple(np.stack([a, b]) for a, b in
                                               zip(big.boundaries, small_d)))
        assert len(members(stack_of(big, big))) == 2

    def test_zero_size_and_one_by_one_stacks(self):
        doubling = stack_of(doubling_complex(), BasedChainComplex(
            (1, 1, 0), (np.array([[3.0]]), np.zeros((0, 1)))))
        assert [res.value for res in chain_torsions(doubling)] == pytest.approx([2.0, 3.0])
        assert chain_torsions(doubling) == tuple(map(chain_torsion, members(doubling)))
        bottom = BasedChainComplex((1, 1), (np.array([[[2.0]], [[0.0]]]),))
        assert chain_torsions(bottom) == (TorsionResult(0.5, True, (1,)),
                                          TorsionResult(None, False, (0,)))
        empty = BasedChainComplex((1, 1), (np.zeros((0, 1, 1)),))
        assert chain_torsions(empty) == () and members(empty) == []

    def test_stack_checks_and_indexing(self):
        T = make_torus_bundle(2, 1, 1, 1)
        stack = build_adjoint_complexes(T, enumerate_torus_characters(T))
        one = stack[1]
        assert not one.stacked and stack.stacked and one.boundaries[1].shape == (9, 9)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(one.boundaries, stack[1:2][0].boundaries))
        with pytest.raises(TypeError, match="chain_torsions"):
            chain_torsion(stack)
        with pytest.raises(TypeError, match="chain_torsion for one"):
            chain_torsions(one)
        with pytest.raises(TypeError):
            one[0]
        with pytest.raises(ValueError, match=r"boundary 1 has shape \(2, 9, 9\), expected \(3, 9, 9\)"):
            BasedChainComplex(stack.dims, (stack.boundaries[0][:3], stack.boundaries[1][:2],
                                           stack.boundaries[2][:3]))
        bad = stack.boundaries[1].copy()
        bad[2, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            BasedChainComplex(stack.dims, (stack.boundaries[0], bad, stack.boundaries[2]))


def random_acyclic_three_term(rng, a, b):
    """0 -> C_2 -> C_1 -> C_0 -> 0 acyclic with dims (a, a+b, b)."""
    while True:
        P = rng.standard_normal((a, a))
        Q = rng.standard_normal((b, b))
        if abs(np.linalg.det(P)) > 0.1 and abs(np.linalg.det(Q)) > 0.1:
            break
    d2 = np.vstack([P, np.zeros((b, a))])
    d1 = np.hstack([np.zeros((b, a)), Q])
    return BasedChainComplex((a, a + b, b), (d2, d1))


def change_basis(C, mats):
    """Apply coordinate transforms (one per degree, top degree first)."""
    n = len(C.dims) - 1
    bnds = [b.copy() for b in C.boundaries]
    for deg in range(n + 1):
        Q = mats[n - deg]
        if deg >= 1:
            bnds[n - deg] = bnds[n - deg] @ np.linalg.inv(Q)
        if deg + 1 <= n:
            bnds[n - deg - 1] = Q @ bnds[n - deg - 1]
    return BasedChainComplex(C.dims, tuple(bnds))


def direct_sum(A: BasedChainComplex, B: BasedChainComplex) -> BasedChainComplex:
    """Block direct sum, basis of A followed by basis of B in each degree."""
    if len(A.dims) != len(B.dims):
        raise ValueError("complexes must have the same length")
    dims = tuple(a + b for a, b in zip(A.dims, B.dims))
    bnds = []
    for da, db in zip(A.boundaries, B.boundaries):
        M = np.zeros((da.shape[0] + db.shape[0], da.shape[1] + db.shape[1]), dtype=complex)
        M[: da.shape[0], : da.shape[1]] = da
        M[da.shape[0]:, da.shape[1]:] = db
        bnds.append(M)
    return BasedChainComplex(dims, tuple(bnds))


def multiplicativity_check(sub: BasedChainComplex, total: BasedChainComplex,
                           quotient: BasedChainComplex, tol: float = 1e-6) -> bool:
    """Whether tau(total) = tau(sub) * tau(quotient), all three acyclic.

    Covers the compatible-basis case: total's basis is the image of sub's
    basis followed by a lift of quotient's basis.
    """
    if len(sub.dims) != len(total.dims) or len(quotient.dims) != len(total.dims):
        raise ValueError("complexes must have the same length")
    for ds, dt, dq in zip(sub.dims, total.dims, quotient.dims):
        if ds + dq != dt:
            raise ValueError("dimensions do not add up degreewise")
    ts = chain_torsion(sub)
    tt = chain_torsion(total)
    tq = chain_torsion(quotient)
    if not (ts.acyclic and tt.acyclic and tq.acyclic):
        raise ValueError("all three complexes must be acyclic")
    return abs(tt.value - ts.value * tq.value) <= tol * abs(tt.value)


class TestMultiplicativity:
    def test_direct_sum_of_doubling(self):
        sub = doubling_complex()
        total = direct_sum(sub, sub)
        assert chain_torsion(total).value == pytest.approx(4.0, abs=1e-12)
        assert multiplicativity_check(sub, total, sub)

    def test_random_upper_triangular_mixing(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a, b = rng.integers(1, 4, size=2)
            sub = random_acyclic_three_term(rng, a, b)
            quot = random_acyclic_three_term(rng, a, b)
            total = direct_sum(sub, quot)
            # unit upper-triangular mixing of the quotient lift into the sub
            mats = []
            for dim_sub, dim_tot in zip(sub.dims, total.dims):
                B = np.eye(dim_tot)
                B[:dim_sub, dim_sub:] = rng.standard_normal((dim_sub, dim_tot - dim_sub))
                mats.append(B)
            mixed = change_basis(total, mats)
            assert multiplicativity_check(sub, mixed, quot)

    def test_scaled_basis_detected(self):
        sub = doubling_complex()
        total = direct_sum(sub, sub)
        mats = [np.eye(d) for d in total.dims]
        mats[0] = np.diag([1.0, 3.0])  # scale one top-degree basis vector
        scaled = change_basis(total, mats)
        assert not multiplicativity_check(sub, scaled, sub)

    def test_dimension_mismatch_rejected(self):
        sub = doubling_complex()
        with pytest.raises(ValueError):
            multiplicativity_check(sub, sub, sub)


def qr_rule_pivots(M):
    """The pivot rule by scipy.linalg.qr, Q and all: the pivots whose
    |R[i, i]| exceed DEFAULT_TOL times the largest column norm."""
    sla = pytest.importorskip("scipy.linalg")
    if M.size == 0:
        return []
    top = np.linalg.norm(M, axis=0).max()
    if top == 0.0:
        return []
    _, R, perm = sla.qr(M, mode="economic", pivoting=True)
    rank = int((np.abs(np.diag(R)) > DEFAULT_TOL * top).sum())
    return [int(c) for c in perm[:rank]]


class TestPivotColumns:
    """torsion_engine._pivots calls the LAPACK zgeqp3 of numpy's bundled
    OpenBLAS on the complex boundary matrices of a BasedChainComplex, here
    one at a time through _pivot_columns; it must pick the
    columns and the rank that the scipy.linalg.qr rule picks.  scipy serves
    only as this independent oracle: these tests skip without it."""

    def test_matches_scipy_zgeqp3_on_every_torus_boundary(self):
        lapack = pytest.importorskip("scipy.linalg.lapack")
        boundaries = []
        for mono in supported_monodromies(13):
            T = make_torus_bundle(*mono)
            for C in members(build_adjoint_complexes(T, enumerate_torus_characters(T))):
                boundaries.extend(C.boundaries)
        assert len(boundaries) == 4896
        for M in boundaries:
            geqp3 = _geqp3(*M.shape)
            assert geqp3(M) == 0
            work = lapack.zgeqp3(np.zeros(M.shape, dtype=complex), lwork=-1)[3]
            ref, jpvt, _, _, info = lapack.zgeqp3(np.array(M, dtype=complex, order="F"),
                                                  lwork=int(work[0].real))
            assert info == 0 and np.array_equal(geqp3.jpvt, jpvt)
            assert np.abs(np.diag(geqp3.qr)).tobytes() == np.abs(np.diag(ref)).tobytes()

    def test_matches_qr_rule_on_torus_complexes(self):
        for mono in supported_monodromies(13):
            T = make_torus_bundle(*mono)
            for C in members(build_adjoint_complexes(T, enumerate_torus_characters(T))):
                for M in C.boundaries:
                    assert _pivot_columns(M) == qr_rule_pivots(M), mono

    def test_matches_qr_rule_when_rank_deficient(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        zero_column = A.copy()
        zero_column[:, 2] = 0.0
        repeated = np.hstack([A, A[:, :2]])             # rank 4 of 6 columns
        low_rank = A[:, :2] @ rng.standard_normal((2, 5))  # rank 2, real right factor
        cases = [zero_column, np.zeros((4, 3), dtype=complex), repeated, low_rank,
                 A.real + 0j, np.zeros((3, 0), dtype=complex), np.array([[0j]]), np.array([[2 + 0j]])]
        for M in cases:
            assert _pivot_columns(M) == qr_rule_pivots(M), M.shape
        assert len(_pivot_columns(zero_column)) == 3 and 2 not in _pivot_columns(zero_column)
        assert _pivot_columns(np.zeros((4, 3), dtype=complex)) == []
        assert len(_pivot_columns(repeated)) == 4 and len(_pivot_columns(low_rank)) == 2

    def test_matches_qr_rule_on_non_acyclic_complexes(self):
        # the non-acyclic complexes above: a zero map, and a torus complex
        # whose top boundary is cut to rank 2
        T = make_torus_bundle(2, 1, 1, 1)
        C = build_adjoint_complex(T, enumerate_torus_characters(T)[2])
        D3 = C.boundaries[0].copy()
        D3[:, 2] = 0.0
        for M in [np.array([[0j]]), D3, C.boundaries[1], C.boundaries[2]]:
            assert _pivot_columns(M) == qr_rule_pivots(M)
        res = chain_torsion(BasedChainComplex(C.dims, (D3,) + C.boundaries[1:]))
        assert not res.acyclic and res.per_degree_ranks[2] == 2

    def test_input_left_unchanged(self):
        M = np.asfortranarray(np.arange(12.0).reshape(3, 4) + 1j)
        before = M.copy()
        _pivot_columns(M)
        assert np.array_equal(M, before)


def test_package_import_leaves_scipy_unloaded():
    # with scipy blocked, so that any import of it raises, the package and
    # its oracle still run and give the golden oracle bytes
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "from mtcforge import BasedChainComplex, chain_torsion, cli\n"
            "code = cli.main(['torus', '--monodromy=-10,9,-19,17', '--oracle', '--format', 'json'])\n"
            "assert code == 0, code\n"
            "res = chain_torsion(BasedChainComplex((1, 1), (np.array([[2.0]]),)))\n"
            "assert res.acyclic and res.value == 0.5, res\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (root / "tests" / "golden" / "torus_-10_9_-19_17_oracle.json").read_bytes()
