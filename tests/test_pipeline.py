import io
import math
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import numpy as np
import pytest

import admissibility_oracle
import one_shot_oracle
from loop_operator_oracle import s_matrix, sfs_degree_rows, sfs_weights, torus_cs, torus_weights
from mtcforge import catalog, cli, pipeline, suites
from mtcforge.algebra import BAND_ROWS, RationalPhase, phase_cos
from mtcforge.catalog import (
    ModularData,
    find_transparent,
    graded_order_permutation,
    graded_product,
    reorder,
    soN2_adjoint,
    su2_level,
    tlj_data,
)
from mtcforge.pipeline import (
    admissibility_report,
    certify,
    sfs_candidate,
    sl2z_diagnostics,
    torus_candidate,
)
from mtcforge.seifert import character_count, make_sfs, z2_homology_sphere
from mtcforge.torus_bundle import central_reps, enumerate_torus_characters, make_torus_bundle


def phase(num, den):
    return RationalPhase.of(Fraction(num, den))


def run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def triple_product_reference(M):
    return graded_product(graded_product(tlj_data(M.fibers[0].A), tlj_data(M.fibers[1].A)),
                          tlj_data(M.fibers[2].A))


class TestWSymbols:
    def test_unit_column_is_dimensions(self):
        M = make_sfs([(5, 1), (3, 2), (5, 4)])
        C = sfs_candidate(M)
        W = sfs_weights(M)
        for alpha in range(C.rank):
            assert W[0][alpha] == pytest.approx(C.data.dims[alpha], rel=1e-12)

    def test_degree_zero_operators_give_one(self):
        W = torus_weights(make_torus_bundle(2, 1, 1, 1))
        for row in W:
            assert row[0] == 1.0  # rho+ carries a degree-0 operator
            assert row[1] == 1.0

    def test_pairwise_equals_assembled_matrix(self):
        # the oracle derives each label's operators from the manifold alone
        cases = [(sfs_candidate(M), sfs_weights(M)) for M in map(make_sfs, [
            [(3, 1), (3, 1), (4, 1)], [(5, 1), (3, 2), (5, 4)], [(4, 3), (5, 2), (3, 2)]])]
        M = make_sfs([(3, 1), (3, 1), (7, 1)])
        cases.append((sfs_candidate(M, unit="reseated"), sfs_weights(M, unit="reseated")))
        # (400, 1, 399, 1): N = 403 = 13 * 31 is composite, rank 203
        cases += [(torus_candidate(T), torus_weights(T)) for T in (
            make_torus_bundle(*m) for m in [(2, 1, 1, 1), (-10, 9, -19, 17), (400, 1, 399, 1)])]
        for C, W in cases:
            want = np.array(s_matrix(W))
            assert want.shape == (C.rank, C.rank)
            np.testing.assert_allclose(C.data.s_tilde.real, want, rtol=1e-10, atol=1e-12)

    def test_reseated_matrix_is_sine_ratio(self):
        r = 7
        C = sfs_candidate(make_sfs([(3, 1), (3, 1), (r, 1)]), unit="reseated")
        s1 = math.sin(math.pi / r)
        for i in range(r - 1):
            for j in range(r - 1):
                want = math.sin((i + 1) * (j + 1) * math.pi / r) / s1
                assert C.data.s_tilde[j, i].real == pytest.approx(want, rel=1e-10, abs=1e-12)


class TestSfsCandidate:
    def test_matches_triple_product(self):
        pairs_list = [
            [(3, 1), (3, 1), (4, 1)],
            [(5, 1), (3, 2), (5, 4)],
            [(7, 3), (4, 3), (9, 2)],
            [(5, 4), (6, 1), (8, 5)],
        ]
        for pairs in pairs_list:
            M = make_sfs(pairs)
            C = sfs_candidate(M)
            assert certify(C, triple_product_reference(M)).passed

    def test_m0_is_rank_eight_modular(self):
        C = sfs_candidate(make_sfs([(5, 1), (3, 2), (5, 4)]))
        assert C.rank == 8
        assert find_transparent(C.data).is_modular

    def test_canonical_rank_one_family_matches_kauffman(self):
        for r in range(2, 13):
            M = make_sfs([(3, 1), (3, 1), (r, 1)])
            C = sfs_candidate(M)
            ref = tlj_data(phase(1, 4 * r))
            cert = certify(C, reorder(ref, graded_order_permutation(ref)))
            assert cert.passed, (r, cert)

    def test_reseated_matches_su2(self):
        for r in range(2, 13):
            M = make_sfs([(3, 1), (3, 1), (r, 1)])
            C = sfs_candidate(M, unit="reseated")
            ref = su2_level(r - 2)
            assert certify(C, ref).passed
            # per-label torsion-dimension identity
            D = math.sqrt(C.data.total_dim_sq)
            for tor, d in zip(C.torsions, ref.dims):
                assert (2 * tor) ** -0.5 == pytest.approx(d / D, abs=1e-9)

    def test_reseated_rejected_off_family(self):
        with pytest.raises(ValueError, match="reseated"):
            sfs_candidate(make_sfs([(3, 1), (4, 1), (5, 1)]), unit="reseated")

    def test_symmetry_is_emergent(self):
        # not imposed: assembled from loop-operator weights
        for pairs in [[(5, 2), (7, 4), (4, 3)], [(9, 8), (3, 2), (5, 3)]]:
            S = sfs_candidate(make_sfs(pairs)).data.s_tilde
            assert np.abs(S - S.T).max() < 1e-9 * max(1.0, np.abs(S).max())

    def test_first_row_consistency_with_torsion(self):
        for pairs in [[(5, 2), (7, 4), (4, 3)], [(3, 1), (3, 1), (8, 1)]]:
            C = sfs_candidate(make_sfs(pairs))
            D2 = C.data.total_dim_sq
            for alpha in range(C.rank):
                lhs = abs(C.data.s_tilde[0, alpha]) ** 2
                assert lhs == pytest.approx(D2 / (2 * C.torsions[alpha]), rel=1e-9)

    def test_unknown_unit_rejected(self):
        with pytest.raises(ValueError):
            sfs_candidate(make_sfs([(3, 1), (3, 1), (4, 1)]), unit="other")


class TestTorusCandidate:
    def test_reference_example(self):
        T = make_torus_bundle(2, 1, 1, 1)
        C = torus_candidate(T)
        assert np.allclose(C.data.dims, [1, 1, 2, 2])
        assert C.data.total_dim_sq == pytest.approx(10.0)
        for k in range(1, 3):
            for j in range(1, 3):
                want = 4 * math.cos(2 * math.pi * ((-7) * k * j % 5) / 5)
                assert C.data.s_tilde[1 + k, 1 + j].real == pytest.approx(want, rel=1e-12)

    def test_twists_are_quadratic(self):
        for (a, b, c, d) in [(2, 1, 1, 1), (4, 1, 3, 1), (6, 1, 5, 1)]:
            T = make_torus_bundle(a, b, c, d)
            C = torus_candidate(T)
            for k in range(1, T.r + 1):
                assert C.data.twists[1 + k] == phase(T.c_tilde * k * k, T.N)

    def test_certifies_against_catalog(self):
        for (a, b, c, d) in [(2, 1, 1, 1), (1, 1, 3, 4), (8, 7, 1, 1), (2, 17, 1, 9)]:
            T = make_torus_bundle(a, b, c, d)
            C = torus_candidate(T)
            assert certify(C, soN2_adjoint(T.N, T.m)).passed

    def test_never_modular_with_single_transparent_partner(self):
        for (a, b, c, d) in [(2, 1, 1, 1), (4, 1, 3, 1), (6, 1, 5, 1)]:
            C = torus_candidate(make_torus_bundle(a, b, c, d))
            rep = find_transparent(C.data)
            assert not rep.is_modular
            assert rep.transparent_labels == ("rho+", "rho-")

    def test_unsupported_rejected(self):
        with pytest.raises(ValueError, match="open case"):
            torus_candidate(make_torus_bundle(3, 1, 2, 1))


def test_candidates_store_float64():
    # every S either family builds is real, so ModularData keeps it as float64
    candidates = [sfs_candidate(make_sfs([(5, 1), (3, 2), (5, 4)])),
                  sfs_candidate(make_sfs([(3, 1), (3, 1), (7, 1)]), unit="reseated"),
                  torus_candidate(make_torus_bundle(2, 17, 1, 9))]
    for C in candidates:
        assert C.data.s_tilde.dtype == np.float64, C.manifold_tag


class TestAdmissibility:
    def test_z2_sphere_target(self):
        M = make_sfs([(5, 1), (3, 2), (5, 4)])
        C = sfs_candidate(M)
        adm = admissibility_report(C)
        assert adm.sum_inverse_2tor == pytest.approx(1.0, abs=1e-12)
        assert adm.s_X == (C.labels[0],)
        assert adm.target_modulus == pytest.approx((2 * C.torsions[0]) ** -0.5, rel=1e-12)
        assert adm.admissible

    def test_torus_bundle_target(self):
        for (a, b, c, d) in [(2, 1, 1, 1), (4, 1, 3, 1), (2, 17, 1, 9)]:
            T = make_torus_bundle(a, b, c, d)
            adm = admissibility_report(torus_candidate(T))
            assert adm.s_X == ("rho+", "rho-")
            assert adm.s_L == 1.0
            assert adm.gauss_sum_modulus == pytest.approx(1 / math.sqrt(T.N), abs=1e-12)
            assert adm.admissible
            assert adm.central_classification.count("bosonic") == 2
            assert ("rho+", "rho-") in adm.orbits

    def test_empty_odd_sector_flagged(self):
        C = sfs_candidate(make_sfs([(2, 1), (2, 1), (3, 1)]))
        adm = admissibility_report(C)
        assert adm.sum_inverse_2tor == pytest.approx(2.0, abs=1e-12)
        assert not adm.admissible

    def test_central_actions_match_cs_and_classification(self):
        candidates = [sfs_candidate(make_sfs(pairs)) for pairs in
                      [[(3, 1), (3, 1), (3, 2)], [(2, 1), (3, 1), (4, 1)], [(2, 1), (2, 1), (4, 1)]]]
        candidates += [torus_candidate(make_torus_bundle(*m))
                       for m in [(2, 1, 1, 1), (-10, 9, -19, 17)]]
        seen = set()
        for C in candidates:
            assert any(not act.is_trivial for act in C.central_actions), C.manifold_tag
            cs = [c.as_fraction() for c in C.cs]
            for act in C.central_actions:
                perm = act.permutation
                diffs = tuple(RationalPhase.of(x, act.cs_den) for x in act.cs_diffs.tolist())
                assert diffs == tuple(RationalPhase.of(cs[perm[i]] - cs[i]) for i in range(C.rank))
            classes = admissibility_report(C).central_classification
            for act, cls in zip(C.central_actions, classes, strict=True):
                want = ("bosonic" if act.is_bosonic else
                        "fermionic" if act.is_fermionic else "neither")
                assert cls == want
                seen.add(cls)
        assert seen == {"bosonic", "fermionic"}

    def test_generic_sweep_sum(self):
        pairs = [(p, q) for p in range(2, 6) for q in range(1, p) if gcd(p, q) == 1]
        for combo in combinations_with_replacement(pairs, 3):
            M = make_sfs(combo)
            if sum(1 for p, _ in combo if p == 2) >= 2:
                continue
            adm = admissibility_report(sfs_candidate(M))
            assert adm.sum_inverse_2tor == pytest.approx(1.0, abs=1e-9), combo
            if z2_homology_sphere(M):
                assert adm.admissible, combo


class TestBandedS:
    """The S builders against the one-shot formulas, bit for bit, in one
    band, in full bands, and with a partial last band."""

    @pytest.fixture
    def factors_of(self, monkeypatch):
        """factors_of(build) runs the candidate build() and returns it with
        the factors it handed to _s_matrix."""
        calls = []
        banded = pipeline._s_matrix
        monkeypatch.setattr(pipeline, "_s_matrix", lambda f: calls.append(f) or banded(f))

        def run(build):
            calls.clear()
            C = build()
            (factors,) = calls
            return C, factors
        return run

    def test_sfs_sweep_matches_one_shot(self, factors_of):
        pairs = [(p, q) for p in range(2, 10) for q in range(1, p) if gcd(p, q) == 1]
        triples = list(combinations_with_replacement(pairs, 3))
        assert len(triples) == 3654
        for combo in triples:
            M = make_sfs(combo)
            C, factors = factors_of(lambda: sfs_candidate(M))
            assert C.data.s_tilde.tobytes() == one_shot_oracle.s_matrix(factors).tobytes(), combo
            X = graded_product(tlj_data(M.fibers[0].A), tlj_data(M.fibers[1].A))
            want = one_shot_oracle.graded_product_s(X, tlj_data(M.fibers[2].A))
            assert triple_product_reference(M).s_tilde.tobytes() == want.tobytes(), combo

    @pytest.mark.parametrize("pairs", [
        [(6, 1), (7, 3), (18, 5)], [(3, 1), (20, 3), (28, 3)], [(17, 3), (19, 5), (21, 4)]])
    def test_partial_last_band_matches_one_shot(self, pairs, factors_of):
        M = make_sfs(pairs)
        C, factors = factors_of(lambda: sfs_candidate(M))
        assert C.rank > BAND_ROWS and C.rank % BAND_ROWS in (1, 1440 % BAND_ROWS)
        assert C.data.s_tilde.tobytes() == one_shot_oracle.s_matrix(factors).tobytes()
        X = graded_product(tlj_data(M.fibers[0].A), tlj_data(M.fibers[1].A))
        want = one_shot_oracle.graded_product_s(X, tlj_data(M.fibers[2].A))
        assert triple_product_reference(M).s_tilde.tobytes() == want.tobytes()

    def test_single_factor_matches_one_shot(self, factors_of):
        # the reseated unit and a torus bundle, each at rank 2 BAND_ROWS + 1
        r = 2 * BAND_ROWS + 2
        M = make_sfs([(3, 1), (3, 1), (r, 1)])
        C, factors = factors_of(lambda: sfs_candidate(M, unit="reseated"))
        assert C.rank == 2 * BAND_ROWS + 1
        assert C.data.s_tilde.tobytes() == one_shot_oracle.s_matrix(factors).tobytes()
        N = 4 * BAND_ROWS - 1
        T = make_torus_bundle(N - 3, 1, N - 4, 1)
        C, [(W, J)] = factors_of(lambda: torus_candidate(T))
        assert C.rank == 2 * BAND_ROWS + 1 and J is None
        trace = np.array([phase_cos(RationalPhase.of(n, T.N)) for n in range(T.N)])
        W_one_shot = one_shot_oracle.torus_weights(T, trace)
        assert W.tobytes() == W_one_shot.tobytes()
        assert C.data.s_tilde.tobytes() == one_shot_oracle.s_matrix([(W_one_shot, None)]).tobytes()

    def test_synthetic_factors_match_one_shot(self):
        rng = np.random.default_rng(5)
        for rank in (1, BAND_ROWS - 1, BAND_ROWS, BAND_ROWS + 1, 2 * BAND_ROWS + 1):
            factors = [(rng.standard_normal((n, n)), rng.integers(0, n, rank)) for n in (3, 5, 8)]
            got = pipeline._s_matrix(factors)
            assert got.tobytes() == one_shot_oracle.s_matrix(factors).tobytes()
            W = rng.standard_normal((rank, rank))
            got = pipeline._s_matrix([(W, None)])
            assert got.tobytes() == one_shot_oracle.s_matrix([(W, None)]).tobytes()

    # what a rank-1440 certification may hold beyond the candidate's S: six
    # bands (8.8 MB at BAND_ROWS = 128); it was a second rank^2 matrix, the
    # reference's, and before banding 34 MB more
    RANK_1440 = [(17, 3), (19, 5), (21, 4)]

    @staticmethod
    def one_matrix(rank):
        return rank * rank * 8 + 6 * BAND_ROWS * rank * 8

    @staticmethod
    def traced_peak(run):
        tracemalloc.start()
        try:
            out = run()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_rank_1440_memory_is_one_matrix(self):
        M = make_sfs(self.RANK_1440)
        rank = character_count(M)

        def run():
            C = sfs_candidate(M)
            return C, certify(C, triple_product_reference(M))

        (C, cert), peak = self.traced_peak(run)
        assert cert.passed and C.rank == rank == 1440
        assert peak <= self.one_matrix(rank), peak / 1e6

    def test_rank_1440_csv_command_memory_is_one_matrix(self):
        argv = ["sfs"] + [a for p, q in self.RANK_1440 for a in ("--fiber", f"{p},{q}")]
        (code, out), peak = self.traced_peak(lambda: run_cli(argv + ["--format", "csv"]))
        assert code == 0 and out.count("\n") == 1441
        assert peak <= self.one_matrix(1440), peak / 1e6

    def test_reference_stores_no_s_until_read(self):
        M = make_sfs(self.RANK_1440)
        X = graded_product(tlj_data(M.fibers[0].A), tlj_data(M.fibers[1].A))
        Z = tlj_data(M.fibers[2].A)
        R, peak = self.traced_peak(lambda: graded_product(X, Z))
        assert R.rank == 1440 and peak < 1440 * 1440 * 8, peak / 1e6
        S, peak = self.traced_peak(lambda: R.s_tilde)
        assert peak >= S.nbytes == 1440 * 1440 * 8


class TestAdmissibilityOracle:
    """admissibility_report against the per-label loops it replaced: every
    field equal, and the same Python types, so that reprs and json match."""

    FLOATS = ("sum_inverse_2tor", "gauss_sum_modulus", "target_modulus", "s_L")

    def assert_equal_reports(self, C):
        got, want = admissibility_report(C), admissibility_oracle.admissibility_report(C)
        assert got == want, C.manifold_tag
        for name in self.FLOATS:
            assert type(getattr(got, name)) is float, (name, C.manifold_tag)
        assert type(got.admissible) is bool
        assert repr(got) == repr(want)

    def test_sfs_triples_up_to_p8(self):
        triples = suites.sfs_sweep_instances(8)
        assert len(triples) == 1771
        nontrivial = 0
        for pairs in triples:
            C = sfs_candidate(make_sfs(pairs))
            self.assert_equal_reports(C)
            nontrivial += any(not act.is_trivial for act in C.central_actions)
        assert nontrivial > 0

    def test_torus_bundles(self):
        monodromies = suites.supported_monodromies(13)
        assert len(monodromies) == 268
        for mono in monodromies:
            self.assert_equal_reports(torus_candidate(make_torus_bundle(*mono)))


class TestBandCoverage:
    """Each checker counts the rows its bands covered.  Dropping the partial
    last band, here row 128 of a rank-129 candidate, must not pass."""

    PAIRS = [(6, 1), (7, 3), (18, 5)]

    @staticmethod
    def drop_partial_band(monkeypatch, *modules):
        bands = catalog.row_bands

        def full_bands_only(n):
            return [rows for rows in bands(n) if rows.stop <= n]
        for module in modules:
            monkeypatch.setattr(module, "row_bands", full_bands_only)

    def test_builder_and_checkers_share_the_fault(self, monkeypatch):
        M = make_sfs(self.PAIRS)
        assert character_count(M) == BAND_ROWS + 1
        self.drop_partial_band(monkeypatch, catalog, pipeline)
        try:
            C = sfs_candidate(M)
            passed = certify(C, triple_product_reference(M)).passed
            find_transparent(C.data)
        except ValueError as e:
            assert "row bands cover 128 of 129 rows" in str(e)
        else:
            assert not passed

    def test_each_checker_alone(self, monkeypatch):
        M = make_sfs(self.PAIRS)
        C, ref = sfs_candidate(M), triple_product_reference(M)
        assert certify(C, ref).passed
        self.drop_partial_band(monkeypatch, catalog)
        for check in (C.data.validate, lambda: find_transparent(C.data)):
            with pytest.raises(ValueError, match="row bands cover 128 of 129 rows"):
                check()
        monkeypatch.undo()
        self.drop_partial_band(monkeypatch, pipeline)
        assert not certify(C, ref).passed


class TestCertify:
    def test_self_certification(self):
        C = sfs_candidate(make_sfs([(3, 1), (3, 1), (5, 1)]))
        assert certify(C, C.data).passed

    def test_rank_mismatch_rejected(self):
        C = sfs_candidate(make_sfs([(3, 1), (3, 1), (5, 1)]))
        with pytest.raises(ValueError, match="rank"):
            certify(C, su2_level(2))

    def test_twist_mismatch_detected(self):
        C = sfs_candidate(make_sfs([(3, 1), (3, 1), (4, 1)]), unit="reseated")
        ref = su2_level(2)
        wrong = reorder(ref, [0, 2, 1])
        cert = certify(C, wrong)
        assert not cert.passed and not cert.twists_equal

    def test_max_s_delta_in_last_band(self):
        # the largest deviation, and a NaN, in the partial last band only
        C = sfs_candidate(make_sfs([(6, 1), (7, 3), (18, 5)]))
        D = C.data
        assert C.rank == BAND_ROWS + 1
        for value in (1e-3, math.nan):
            S = D.s_tilde.copy()
            S[3, 5] += 1e-6
            S[BAND_ROWS, 7] += value
            want = float(np.abs(D.s_tilde - S).max())
            stored = ModularData(D.labels, D.dims, (D.twist_residues, D.twist_den), S,
                                 D.total_dim_sq)
            # the same S as an unvalidated graded product with a rank-1 factor, built in bands
            ii, jj = np.arange(C.rank), np.zeros(C.rank, dtype=np.int64)
            banded = ModularData(D.labels, D.dims, (D.twist_residues, D.twist_den),
                                 catalog._ProductS(stored, su2_level(0), ii, jj), D.total_dim_sq)
            for ref in (stored, banded):
                cert = certify(C, ref)
                assert np.array_equal(cert.max_s_delta, want, equal_nan=True)
                assert not cert.passed
            assert "s_tilde" not in vars(banded)

    def test_twists_compared_exactly_across_denominators(self):
        for pairs in ([(3, 1), (3, 2), (5, 4)], [(5, 2), (7, 4), (4, 3)], [(2, 1), (3, 1), (4, 1)]):
            C = sfs_candidate(make_sfs(pairs))
            D, L = C.data, C.data.twist_den

            def with_twists(res, den):
                return ModularData(D.labels, D.dims, (res, den), D.s_tilde, D.total_dim_sq)

            # the same phases over unreduced denominators, and as reduced phases
            for k in (2, 3, 7):
                assert certify(C, with_twists(D.twist_residues * k, L * k)).twists_equal
            reduced = ModularData(D.labels, D.dims, D.twists, D.s_tilde, D.total_dim_sq)
            assert certify(C, reduced).twists_equal
            for i in (1, C.rank - 1):
                off = D.twist_residues.copy()
                off[i] = (off[i] + 1) % L
                assert not certify(C, with_twists(off, L)).twists_equal
                assert not certify(C, with_twists(off * 3, L * 3)).twists_equal


class TestLazyViews:
    def test_reseated_views(self):
        for r in range(2, 13):
            M = make_sfs([(3, 1), (3, 1), (r, 1)])
            C = sfs_candidate(M, unit="reseated")
            by_j = {j[2]: j for j in sfs_degree_rows(M)}
            assert C.characters == tuple(by_j[r - 2 - j] for j in range(r - 1))

    def test_torus_views(self):
        for mono in [(2, 1, 1, 1), (4, 1, 3, 1), (6, 1, 5, 1), (-10, 9, -19, 17),
                     (400, 1, 399, 1)]:
            T = make_torus_bundle(*mono)
            C = torus_candidate(T)
            chars = enumerate_torus_characters(T)
            assert C.characters == tuple(chars)
            cs = tuple(torus_cs(T, c) for c in chars)
            assert C.cs == cs
            fr = [c.as_fraction() for c in cs]
            for rep in central_reps(T):
                assert [RationalPhase.of(x, rep.cs_den) for x in rep.cs_diffs.tolist()] == \
                    [RationalPhase.of(fr[j] - fr[i]) for i, j in enumerate(rep.permutation)]


class TestConcurrency:
    def test_parallel_candidates_match_sequential(self):
        # all operations are pure value computations; a threaded sweep must
        # reproduce the sequential results bit for bit
        from concurrent.futures import ThreadPoolExecutor

        pairs_list = [[(3, 1), (3, 1), (r, 1)] for r in range(2, 10)] + \
                     [[(5, 2), (7, 4), (4, 3)], [(5, 1), (3, 2), (5, 4)]]

        def build(pairs):
            C = sfs_candidate(make_sfs(pairs))
            return C.data.s_tilde, C.data.twists

        sequential = [build(p) for p in pairs_list]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(build, pairs_list))
        for (s1, t1), (s2, t2) in zip(sequential, parallel):
            assert np.abs(s1 - s2).max() == 0.0
            assert t1 == t2


class TestIdentityEquality:
    def test_array_carrying_types_compare_by_identity(self):
        # their ndarray fields have no truth value, so == is identity
        from mtcforge import catalog
        catalog.su2_level.cache_clear()
        D = su2_level(3)
        catalog.su2_level.cache_clear()
        M = make_sfs([(3, 1), (3, 1), (3, 2)])
        C1, C2 = sfs_candidate(M), sfs_candidate(M)
        for a, b in ((D, su2_level(3)), (C1, C2), (C1.central_actions[1], C2.central_actions[1])):
            assert a is not b
            assert a == a and not a != a
            assert not a == b and a != b


class TestDiagnostics:
    def test_modular_group_relations_near_zero_for_modular_data(self):
        # for these realizations the relations hold on the nose
        diag = sl2z_diagnostics(su2_level(2))
        assert diag["s_fourth_residual"] < 1e-9
        assert diag["st_cubed_residual"] < 1e-9

    def test_reported_for_candidates(self):
        C = sfs_candidate(make_sfs([(5, 1), (3, 2), (5, 4)]))
        diag = sl2z_diagnostics(C.data)
        assert set(diag) == {"st_cubed_residual", "s_fourth_residual", "lambda_modulus"}
        assert diag["s_fourth_residual"] < 1e-9

    @staticmethod
    def matrix_power_diagnostics(D):
        # the dense-T, six-matmul formula the golden outputs were written with,
        # on the complex S they were written from
        S = D.s_tilde.astype(complex) / math.sqrt(D.total_dim_sq)
        T = np.diag(D.theta())
        ST3 = np.linalg.matrix_power(S @ T, 3)
        S2 = S @ S
        lam = ST3[0, 0] / S2[0, 0] if abs(S2[0, 0]) > 1e-12 else 1.0
        return {
            "st_cubed_residual": float(np.abs(ST3 - lam * S2).max()),
            "s_fourth_residual": float(np.abs(np.linalg.matrix_power(S, 4)
                                              - np.eye(D.rank)).max()),
            "lambda_modulus": abs(lam),
        }

    def test_bit_identical_to_matrix_power_formula(self):
        pairs = [(p, q) for p in range(2, 6) for q in range(1, p) if gcd(p, q) == 1]
        candidates = [sfs_candidate(make_sfs(combo))
                      for combo in combinations_with_replacement(pairs, 3)]
        candidates += [sfs_candidate(make_sfs([(3, 1), (3, 1), (r, 1)]), unit="reseated")
                       for r in range(2, 13)]
        candidates.append(sfs_candidate(make_sfs([(13, 2), (11, 3), (9, 4)])))
        assert candidates[-1].rank == 240
        for C in candidates:
            assert sl2z_diagnostics(C.data) == self.matrix_power_diagnostics(C.data), \
                C.manifold_tag
