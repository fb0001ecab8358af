import math
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kauffman_closed_forms import a4_order, quantum_dimension, total_dim
from loop_operator_oracle import sfs_degree_rows, sfs_holonomy
from mtcforge import seifert
from mtcforge.algebra import RationalPhase
from mtcforge.catalog import graded_product, tlj_data
from mtcforge.pipeline import sfs_candidate
from mtcforge.seifert import (
    SeifertData,
    central_reps,
    character_count,
    make_sfs,
    relation_matrix_mod2,
    z2_homology_sphere,
)


def coprime_pairs(max_p):
    return [(p, q) for p in range(2, max_p + 1) for q in range(1, p) if gcd(p, q) == 1]


def small_sweep(max_p=6):
    return [make_sfs(c) for c in combinations_with_replacement(coprime_pairs(max_p), 3)]


class TestFiberConstants:
    def test_known_surgery_constants(self):
        M = make_sfs([(3, 1), (3, 2), (5, 4)])
        f1, f2, f3 = M.fibers
        assert f1.c == 1 and f1.A == RationalPhase(7, 12)   # -e^{i pi/6}
        assert f2.c == 2 and f2.A == RationalPhase(2, 3)    # -e^{i pi/3}
        assert f3.c == 4 and f3.A == RationalPhase(7, 10)   # -e^{2 i pi/5}

    def test_rank_one_family_constant(self):
        for r in range(2, 13):
            M = make_sfs([(3, 1), (3, 1), (r, 1)])
            assert [f.c for f in M.fibers] == [1, 1, 1]
            assert M.fibers[2].A == RationalPhase.of(Fraction(1, 4 * r) + Fraction(1, 2))

    def test_euclid_pair_canonical(self):
        for p, q in coprime_pairs(9):
            M = make_sfs([(p, q), (3, 1), (4, 1)])
            f = M.fibers[0]
            assert 0 <= f.r < f.p
            assert f.p * f.s - f.q * f.r == 1

    def test_invariance_under_euclid_shift(self):
        # c changes but the Kauffman phase does not
        for p, q in coprime_pairs(9):
            f = make_sfs([(p, q), (3, 1), (4, 1)]).fibers[0]
            r2, s2 = f.r + p, f.s + q
            assert p * s2 - q * r2 == 1
            if q % 2 == 1:
                c2 = p * q * s2 - r2
            else:
                c2 = p * q * s2 - r2 * (p - 1) ** 2
            assert RationalPhase.of(Fraction(c2, 4 * p) + Fraction(1, 2)) == f.A

    def test_kauffman_phase_order_classes(self):
        for p, q in coprime_pairs(12):
            f = make_sfs([(p, q), (3, 1), (4, 1)]).fibers[0]
            order = f.A.denominator
            if q % 2 == 1:
                assert order == 4 * p
            elif q % 4 == 0:
                assert order == 2 * p
            else:
                assert order == p
            # A^4 always primitive of order p
            assert a4_order(f.A) == p

    def test_invalid_fibers_rejected(self):
        with pytest.raises(ValueError):
            make_sfs([(4, 2), (3, 1), (3, 1)])
        with pytest.raises(ValueError):
            make_sfs([(1, 1), (3, 1), (3, 1)])
        with pytest.raises(ValueError):
            make_sfs([(3, 1), (3, 1)])

    def test_negative_q_allowed(self):
        M = make_sfs([(3, -1), (5, -2), (4, 1)])
        for f in M.fibers:
            assert f.p * f.s - f.q * f.r == 1


class TestEnumeration:
    @pytest.mark.parametrize("pairs,count", [
        ([(3, 1), (3, 1), (4, 1)], 3),
        ([(5, 1), (3, 2), (5, 4)], 8),
        ([(2, 1), (2, 1), (3, 1)], 1),
    ])
    def test_counts(self, pairs, count):
        M = make_sfs(pairs)
        chars = sfs_candidate(M).characters
        assert len(chars) == count == character_count(M) == len(sfs_degree_rows(M))

    def test_block_order(self):
        M = make_sfs([(5, 1), (4, 1), (3, 1)])
        chars = sfs_candidate(M).characters
        parities = [j[0] % 2 for j in chars]
        # even block first, then odd, each lexicographic
        assert parities == sorted(parities)
        evens = [j for j in chars if j[0] % 2 == 0]
        assert evens == sorted(evens)
        assert list(chars) == sfs_degree_rows(M)

    def test_parity_and_lambda(self):
        # each fiber's rotation-number table against the rule of the paper,
        # and that rule against the relation x_k^{p_k} h^{q_k} = 1, whose
        # eigenvalue e^{2 pi i (n_k + q_k lam)} must be 1
        for M in small_sweep(5):
            keys = set()
            for j in sfs_candidate(M).characters:
                assert len({jk % 2 for jk in j}) == 1
                n, lam = sfs_holonomy(M, j)
                keys.add((n, lam))
                for f, jk, nk in zip(M.fibers, j, n):
                    assert f.twice_n[jk] == 2 * nk
                    assert 0 < nk < Fraction(f.p, 2)
                    assert (nk + f.q * lam).denominator == 1
            assert len(keys) == character_count(M)


def cs_from_rotation_numbers(M, j):
    """Independent oracle: the holonomy-data form of the flat-connection
    invariant, sum r_k n_k^2 / p_k (minus q_k s_k / 4 when h maps to -I)."""
    n, lam = sfs_holonomy(M, j)
    total = Fraction(0)
    for f, nk in zip(M.fibers, n):
        total += Fraction(f.r) * nk * nk / f.p
        if lam:
            total -= Fraction(f.q * f.s, 4)
    return RationalPhase.of(total)


def label_rows(M):
    """(degree row, CS value, torsion) of each label of M's canonical candidate."""
    C = sfs_candidate(M)
    return list(zip(C.characters, C.cs, C.torsions.tolist()))


class TestChernSimons:
    def test_matches_rotation_number_form(self):
        for M in small_sweep(6):
            for j, cs, _ in label_rows(M):
                assert cs == cs_from_rotation_numbers(M, j)

    def test_unit_value_of_rank_one_family(self):
        for r in (2, 4, 7):
            M = make_sfs([(3, 1), (3, 1), (r, 1)])
            want = RationalPhase.of(-(Fraction(1, 12) + Fraction(1, 12) + Fraction(1, 4 * r)))
            assert sfs_candidate(M).cs[0] == want

    def test_twist_relation_m4(self):
        # twists of the (3,1),(3,1),(4,1) family: j(j+2)/4r plus 1/2 for odd j
        M = make_sfs([(3, 1), (3, 1), (4, 1)])
        by_j = {j[2]: cs for j, cs, _ in label_rows(M)}
        for j, cs in by_j.items():
            twist = RationalPhase.of(by_j[0].as_fraction() - cs.as_fraction())
            want = RationalPhase.of(Fraction(j * (j + 2), 16) + Fraction(j % 2, 2))
            assert twist == want

    def test_phase_identity_with_kauffman_twists(self):
        # e^{-2 pi i CS} equals the global phase times the product of twists,
        # exactly in Q/Z, summed in Fraction
        for M in small_sweep(6):
            minus_A = [f.A.as_fraction() + Fraction(1, 2) for f in M.fibers]
            global_phase = sum(minus_A)
            for j, cs, _ in label_rows(M):
                twists = sum(a * (jk * (jk + 2)) for a, jk in zip(minus_A, j))
                assert RationalPhase.of(-cs.as_fraction()) == RationalPhase.of(global_phase + twists)

    def test_denominator_divides_four_lcm(self):
        for M in small_sweep(6):
            lcm = math.lcm(*M.p)
            for _, cs, _ in label_rows(M):
                assert (4 * lcm) % cs.denominator == 0

    def test_invariant_under_euclid_shift(self):
        # rebuild the manifold with the shifted pair (r+p, s+q): same values
        from mtcforge.seifert import SeifertData, SeifertFiber
        for pairs in [[(3, 2), (5, 4), (7, 3)], [(4, 1), (9, 5), (5, 2)]]:
            M = make_sfs(pairs)
            shifted = []
            for f in M.fibers:
                r2, s2 = f.r + f.p, f.s + f.q
                if f.q % 2 == 1:
                    c2 = f.p * f.q * s2 - r2
                else:
                    c2 = f.p * f.q * s2 - r2 * (f.p - 1) ** 2
                shifted.append(SeifertFiber(f.p, f.q, r2, s2, c2, f.A))
            C, C2 = sfs_candidate(M), sfs_candidate(SeifertData(tuple(shifted)))
            assert C.cs == C2.cs
            assert C.torsions == pytest.approx(C2.torsions, rel=1e-12)


def coprime_pair(max_p):
    return st.integers(2, max_p).flatmap(lambda p: st.tuples(
        st.just(p), st.integers(-2 * p, 2 * p).filter(lambda q: gcd(p, q) == 1)))


def fraction_torsion(M, j):
    """The closed form p1 p2 p3 / prod_k 4 sin^2(2 pi r_k n_k / p_k), from the
    rational rotation numbers."""
    out = 1.0
    for f, nk in zip(M.fibers, sfs_holonomy(M, j)[0]):
        s = math.sin(2 * math.pi * float((f.r * nk) % f.p) / f.p)
        out *= f.p / (4 * s * s)
    return out


def fraction_action(M, j, sigma):
    """Image key (n, lam) of a character under a central twist: each twisted
    n_k moves by p_k/2 mod p_k and folds back into [0, p_k/2]."""
    n, lam = sfs_holonomy(M, j)
    ns = []
    for f, nk, sk in zip(M.fibers, n, sigma[:3]):
        if sk:
            nk = (nk + Fraction(f.p, 2)) % f.p
            nk = min(nk, f.p - nk)
        ns.append(nk)
    return tuple(ns), (lam + Fraction(sigma[3], 2)) % 1


class TestIntegerCandidate:
    """The candidate's integer residues against Fraction arithmetic, past the
    range that the sweep enumerates."""

    @given(st.tuples(coprime_pair(19), coprime_pair(19), coprime_pair(19)))
    @settings(max_examples=30, deadline=None)
    def test_matches_fraction_forms(self, pairs):
        M = make_sfs(pairs)
        C = sfs_candidate(M)
        chars = C.characters
        assert list(C.cs) == [cs_from_rotation_numbers(M, j) for j in chars]
        cs0 = C.cs[0].as_fraction()
        for tw, cs in zip(C.data.twists, C.cs):
            want = -(cs.as_fraction() - cs0) % 1
            assert (tw.numerator, tw.denominator) == (want.numerator, want.denominator)
        want = [fraction_torsion(M, j) for j in chars]
        assert C.torsions == pytest.approx(want, rel=1e-12)
        index = {sfs_holonomy(M, j): i for i, j in enumerate(chars)}
        for rep in C.central_actions:
            assert rep.permutation.dtype == np.int64
            assert rep.permutation.tolist() == [index[fraction_action(M, j, rep.sigma)] for j in chars]

    @given(st.tuples(coprime_pair(19), coprime_pair(19), coprime_pair(19)))
    @settings(max_examples=30, deadline=None)
    def test_residues_match_phase_arithmetic(self, pairs):
        M = make_sfs(pairs)
        C = sfs_candidate(M)

        def phases(res, den):
            assert res.dtype == np.int64 and ((0 <= res) & (res < den)).all()
            return [RationalPhase.of(x, den) for x in res.tolist()]

        cs = [cs_from_rotation_numbers(M, j) for j in sfs_degree_rows(M)]
        assert phases(C.cs_residues, C.cs_den) == cs
        # differences and sums in Fraction, one conversion each
        fr = [c.as_fraction() for c in cs]
        assert phases(C.data.twist_residues, C.data.twist_den) == [RationalPhase.of(fr[0] - c) for c in fr]
        for rep in C.central_actions:
            assert phases(rep.cs_diffs, rep.cs_den) == [RationalPhase.of(fr[j] - c)
                                                        for j, c in zip(rep.permutation.tolist(), fr)]
        # the reference's graded products, against phase sums over the label pairs
        X, Y, Z = (tlj_data(f.A) for f in M.fibers)
        for P, Q in ((X, Y), (graded_product(X, Y), Z)):
            D = graded_product(P, Q)
            pairs = [(i, j) for g in (0, 1) for i in range(P.rank) if P.grading[i] == g
                     for j in range(Q.rank) if Q.grading[j] == g]
            assert phases(D.twist_residues, D.twist_den) == [
                RationalPhase.of(P.twists[i].as_fraction() + Q.twists[j].as_fraction()) for i, j in pairs]

    @given(st.tuples(coprime_pair(19), coprime_pair(19), coprime_pair(19)))
    @settings(max_examples=30, deadline=None)
    def test_lazy_views_match_scalar_forms(self, pairs):
        M = make_sfs(pairs)
        C = sfs_candidate(M)
        chars = sfs_degree_rows(M)
        assert C.characters == tuple(chars)
        assert C.cs == tuple(cs_from_rotation_numbers(M, j) for j in chars)
        assert C.characters is C.characters and C.cs is C.cs


class TestTorsion:
    def test_derived_example(self):
        # (3,1),(3,1),(4,1) unit character: plug n = 1/2, Euclid r = (2,2,3)
        M = make_sfs([(3, 1), (3, 1), (4, 1)])
        assert [f.r for f in M.fibers] == [2, 2, 3]
        assert sfs_candidate(M).torsions[0] == pytest.approx(2.0, rel=1e-12)

    def test_unit_has_normalized_dimension_one(self):
        for r in (3, 5, 8):
            M = make_sfs([(3, 1), (3, 1), (r, 1)])
            D = total_dim(M.fibers[0].A) * total_dim(M.fibers[1].A) * total_dim(M.fibers[2].A) / 2
            assert (2 * sfs_candidate(M).torsions[0]) ** -0.5 == pytest.approx(1 / D, rel=1e-12)

    def test_invariant_under_euclid_shift(self):
        for M in small_sweep(5):
            for j, _, tor in label_rows(M):
                t = 1.0
                for f, nk in zip(M.fibers, sfs_holonomy(M, j)[0]):
                    s = math.sin(2 * math.pi * float(((f.r + f.p) * nk) % f.p) / f.p)
                    t *= f.p / (4 * s * s)
                assert t == pytest.approx(tor, rel=1e-12)

    def test_matches_kauffman_dimension_product(self):
        # (2 Tor)^(-1/2) = |prod_k d_{j_k}(A_k)| / D
        for M in small_sweep(6):
            D = math.prod(total_dim(f.A) for f in M.fibers) / 2
            for j, _, tor in label_rows(M):
                lhs = (2 * tor) ** -0.5
                rhs = abs(quantum_dimension(M, j)) / D
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_inverse_sum_is_one(self):
        # first admissibility sum, away from the empty-odd-sector family
        for M in small_sweep(6):
            if sum(1 for f in M.fibers if f.p == 2) >= 2:
                continue
            total = sum(1 / (2 * tor) for _, _, tor in label_rows(M))
            assert total == pytest.approx(1.0, abs=1e-9)


class TestZ2Homology:
    @pytest.mark.parametrize("pairs,expect", [
        ([(3, 1), (3, 1), (2, 1)], True),
        ([(3, 1), (3, 1), (7, 1)], True),
        ([(5, 1), (3, 2), (5, 4)], True),
        ([(3, 1), (3, 1), (3, 2)], False),
    ])
    def test_examples(self, pairs, expect):
        assert z2_homology_sphere(make_sfs(pairs)) is expect

    def test_rank_one_family_always_sphere(self):
        for r in range(2, 13):
            assert z2_homology_sphere(make_sfs([(3, 1), (3, 1), (r, 1)]))

    def test_matches_mod2_rank_of_relations(self):
        # a square matrix has full rank over F_2 exactly when its determinant is odd
        for M in small_sweep(6):
            full_rank = round(np.linalg.det(relation_matrix_mod2(M).astype(float))) % 2 == 1
            assert z2_homology_sphere(M) == full_rank


class TestCentralReps:
    def test_sphere_has_only_trivial(self):
        reps = central_reps(make_sfs([(5, 1), (3, 2), (5, 4)]))
        assert len(reps) == 1 and reps[0].is_trivial

    def test_trivial_acts_as_identity(self):
        M = make_sfs([(3, 1), (3, 1), (3, 2)])
        reps = central_reps(M)
        triv = next(r for r in reps if r.is_trivial)
        assert triv.permutation.tolist() == list(range(character_count(M)))
        assert not triv.cs_diffs.any()

    def test_non_sphere_has_nontrivial(self):
        reps = central_reps(make_sfs([(3, 1), (3, 1), (3, 2)]))
        assert len(reps) >= 2

    def test_two_dimensional_kernel(self):
        # three even fibers with odd q: the relations mod 2 leave s(h) = 0 and
        # s(x1) + s(x2) + s(x3) = 0, a plane, listed by increasing sum_i sigma_i 2^i
        reps = central_reps(make_sfs([(2, 1), (4, 1), (6, 1)]))
        assert [r.sigma for r in reps] == [(0, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0)]

    def test_twist_leaving_label_set_raises(self):
        M = make_sfs([(3, 1), (3, 1), (3, 2)])
        chars = sfs_candidate(M).characters
        for part in (chars[1:], chars[:-1]):
            with pytest.raises(ValueError, match="leaves the candidate label set"):
                central_reps(M, part)

    @pytest.mark.parametrize("pairs", [[(3, 1), (3, 1), (3, 2)], [(2, 1), (4, 1), (6, 1)],
                                       [(5, 1), (3, 2), (5, 4)]])
    def test_given_labels_match_candidate_actions(self, pairs):
        # the benchmark times central_reps on the candidate's degree rows and
        # CS phases; it must compute the candidate's own actions.  The phases
        # come back over the lcm of their reduced denominators, which divides
        # the candidate's lcm(4 p_k): the residues agree once rescaled
        M = make_sfs(pairs)
        C = sfs_candidate(M)
        reps = central_reps(M, list(C.characters), list(C.cs))
        assert len(reps) == len(C.central_actions)
        assert (len(reps) == 1) == z2_homology_sphere(M)
        for got, want in zip(reps, C.central_actions, strict=True):
            assert got.sigma == want.sigma
            assert got.permutation.dtype == np.int64
            assert np.array_equal(got.permutation, want.permutation)
            assert want.cs_den % got.cs_den == 0
            assert np.array_equal(got.cs_diffs * (want.cs_den // got.cs_den), want.cs_diffs)

    def test_action_stays_in_label_set(self):
        for M in small_sweep(6):
            for rep in central_reps(M):
                perm = rep.permutation.tolist()
                assert sorted(perm) == list(range(len(perm)))


class TestFiberMemo:
    """make_sfs shares one SeifertFiber per (p, q), and the candidate gathers
    from its tables.  A candidate is byte-equal whether its fibers come from
    a cleared memo, from the memo, or from no memo at all."""

    CASES = [([(5, 1), (3, 2), (5, 4)], "canonical"), ([(3, 1), (3, 1), (3, 2)], "canonical"),
             ([(2, 1), (4, 1), (6, 1)], "canonical"), ([(3, 1), (3, 1), (7, 1)], "reseated"),
             ([(6, 1), (7, 3), (18, 5)], "canonical")]

    @staticmethod
    def snapshot(C):
        return (C.labels, C.data.s_tilde.tobytes(), C.cs_residues.tobytes(), C.cs_den,
                C.torsions.tobytes(), C.data.twist_residues.tobytes(), C.data.grading,
                [(a.sigma, a.permutation.tobytes(), a.cs_diffs.tobytes(), a.cs_den)
                 for a in C.central_actions])

    @pytest.mark.parametrize("pairs,unit", CASES)
    def test_cold_warm_and_unmemoized_agree(self, pairs, unit):
        seifert._fiber.cache_clear()
        cold = self.snapshot(sfs_candidate(make_sfs(pairs), unit))
        info = seifert._fiber.cache_info()
        assert info.misses == len(set(pairs))
        warm = self.snapshot(sfs_candidate(make_sfs(pairs), unit))
        assert seifert._fiber.cache_info()[:2] == (info.hits + 3, info.misses)
        fresh = SeifertData(tuple(seifert._fiber.__wrapped__(p, q) for p, q in pairs))
        assert cold == warm == self.snapshot(sfs_candidate(fresh, unit))
        if pairs == [(6, 1), (7, 3), (18, 5)]:
            assert len(cold[0]) == 129

    def test_fibers_shared_and_memo_bounded(self):
        assert make_sfs([(7, 3), (5, 2), (7, 3)]).fibers[0] is make_sfs([(7, 3), (3, 1), (4, 1)]).fibers[0]
        assert seifert._fiber.cache_info().maxsize == 1024

    def test_tables_are_read_only(self):
        for f in make_sfs([(7, 3), (6, 1), (5, 2)]).fibers:
            for name in ("twice_n", "cs_residues", "torsion_factors", "weights", "twist_degrees"):
                table = getattr(f, name)
                assert table.shape[-1] == f.rank and not table.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    table[0] = 0
