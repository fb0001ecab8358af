import math

import numpy as np
import pytest

import adjoint_complex_oracle as oracle
from adjoint_complex_oracle import _adjoint_evaluator
from mtcforge import torus_bundle
from mtcforge.suites import supported_monodromies
from mtcforge.torsion_engine import BasedChainComplex, chain_torsion
from mtcforge.torus_bundle import (
    _cs_residues,
    build_adjoint_complex,
    build_adjoint_complexes,
    central_reps,
    connecting_word,
    enumerate_torus_characters,
    make_torus_bundle,
    reducible_uv,
    torus_torsion,
)


def supported_examples():
    # determinant-1 monodromies with N = a+d+2 in {5, 7, 9, 11, 13}; the last
    # two put negative powers into the Fox derivatives and geometric sums
    return [make_torus_bundle(*m) for m in
            [(2, 1, 1, 1), (1, 1, 1, 2), (4, 1, 3, 1), (1, 1, 3, 4), (2, 1, 5, 3),
             (6, 1, 5, 1), (8, 7, 1, 1), (2, 17, 1, 9), (-10, 9, -19, 17),
             (-8, 17, -9, 19)]]


class TestMonodromy:
    def test_basic_example(self):
        T = make_torus_bundle(2, 1, 1, 1)
        assert (T.N, T.c_tilde, T.m, T.r) == (5, 1, -7, 2)

    def test_inverse_by_inspection(self):
        T = make_torus_bundle(4, 1, 3, 1)
        assert T.N == 7 and T.c_tilde == 5 and T.m == -17

    def test_determinant_rejected(self):
        with pytest.raises(ValueError, match="determinant"):
            make_torus_bundle(3, 1, 1, 0)

    def test_non_anosov_rejected(self):
        with pytest.raises(ValueError, match="Anosov"):
            make_torus_bundle(1, 1, -1, 0)

    def test_unsupported_cases_flagged(self):
        # a monodromy exists only inside the supported family
        with pytest.raises(ValueError) as even:
            make_torus_bundle(3, 1, 2, 1)
        assert str(even.value) == "N = a+d+2 = 6 is not an odd integer > 4 (open case)"
        with pytest.raises(ValueError) as shared:
            make_torus_bundle(2, 3, 3, 5)
        assert str(shared.value) == "gcd(c, N) = 3 > 1 (open case)"

    def test_m_odd_and_coprime(self):
        for T in supported_examples():
            assert T.m % 2 == 1 and math.gcd(T.m, 2 * T.N) == 1


class TestCharacters:
    def test_count_and_order(self):
        T = make_torus_bundle(2, 1, 1, 1)
        chars = enumerate_torus_characters(T)
        assert [c.label() for c in chars] == ["rho+", "rho-", "rho1", "rho2"]

    def test_irreducible_pairing(self):
        T = make_torus_bundle(2, 1, 1, 1)
        rho1 = enumerate_torus_characters(T)[2]
        assert rho1.l == 2  # -c~ (a+1) k mod N = -3 mod 5

    def test_irreducible_relations_mod_N(self):
        for T in supported_examples():
            for c in enumerate_torus_characters(T):
                if c.kind != "irreducible":
                    continue
                assert ((T.a + 1) * c.k + T.c * c.l) % T.N == 0
                assert (T.b * c.k + (T.d + 1) * c.l) % T.N == 0

    def test_reducible_parameters(self):
        T = make_torus_bundle(2, 1, 1, 1)
        u, v2 = reducible_uv(T)
        assert u == pytest.approx((-1 + math.sqrt(5)) / 2, rel=1e-12)
        assert v2 == pytest.approx((3 - math.sqrt(5)) / 2, rel=1e-12)
        # quadratic constraints
        assert T.c * u * u + (T.a - T.d) * u - T.b == pytest.approx(0, abs=1e-12)
        plus, minus = enumerate_torus_characters(T)[:2]
        assert plus.v == pytest.approx(1 / math.sqrt(T.c * u + T.a), rel=1e-12)
        assert minus.v == pytest.approx(-plus.v, rel=1e-12)


class TestClosedForms:
    def test_cs_reducible_zero(self):
        cs, N = _cs_residues(make_torus_bundle(2, 1, 1, 1))
        assert N == 5
        assert cs[:2].tolist() == [0, 0]

    def test_cs_irreducible_example(self):
        cs, N = _cs_residues(make_torus_bundle(2, 1, 1, 1))
        assert cs[2] == 4  # rho_1: -1/5 mod 1

    def test_torsion_values(self):
        T = make_torus_bundle(2, 1, 1, 1)
        chars = enumerate_torus_characters(T)
        assert torus_torsion(T, chars[0]) == 5.0
        assert torus_torsion(T, chars[2]) == 1.25
        assert 2 * torus_torsion(T, chars[0]) == 10.0  # D^2 = 2N


class TestAdjointComplex:
    def test_dimensions(self):
        T = make_torus_bundle(2, 1, 1, 1)
        chi = enumerate_torus_characters(T)[2]
        C = build_adjoint_complex(T, chi)
        assert C.dims == (3, 9, 9, 3)

    def test_composability(self):
        for T in supported_examples():
            for chi in enumerate_torus_characters(T):
                C = build_adjoint_complex(T, chi)
                for i in range(len(C.boundaries) - 1):
                    comp = C.boundaries[i + 1] @ C.boundaries[i]
                    assert np.abs(comp).max() < 1e-9

    def test_oracle_matches_closed_forms(self):
        for T in supported_examples():
            if T.N > 13:
                continue
            for chi in enumerate_torus_characters(T):
                res = chain_torsion(build_adjoint_complex(T, chi))
                assert res.acyclic
                assert res.value == pytest.approx(torus_torsion(T, chi), rel=1e-6)

    def test_connecting_word_is_x_for_standard_example(self):
        assert connecting_word(make_torus_bundle(2, 1, 1, 1)) == {(1, 0): 1}

    def test_connecting_word_coefficient_sum_is_one(self):
        for T in supported_examples():
            assert sum(connecting_word(T).values()) == 1

    def test_generic_connecting_chain_is_not_a_complex(self):
        # only the cellular image chain closes the complex; the constant
        # monomial fails d.d = 0 at irreducible characters of this bundle.
        # The product always takes connecting_word, so the oracle builder,
        # which still takes a chain, carries this check
        T = make_torus_bundle(2, 1, 1, 1)
        chi = enumerate_torus_characters(T)[2]
        with pytest.raises(ValueError, match="d.d != 0"):
            oracle.build_adjoint_complex(T, chi, w={(0, 0): 1})

    def test_explicit_valid_override_matches(self):
        # the oracle builder given the canonical chain explicitly gives the
        # torsion of the product's complex
        T = make_torus_bundle(4, 1, 3, 1)
        chi = enumerate_torus_characters(T)[1]
        w = connecting_word(T)
        a = chain_torsion(build_adjoint_complex(T, chi))
        b = chain_torsion(oracle.build_adjoint_complex(T, chi, w=w))
        assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_evaluator_is_the_adjoint_representation(self):
        # ev(terms) sums rho(x^i y^j)^-1 in closed form; check it against
        # term-by-term matrix powers and against the relations of pi_1
        mpow = np.linalg.matrix_power
        for T in supported_examples():
            for chi in enumerate_torus_characters(T):
                ev, H, H_inv = _adjoint_evaluator(T, chi)
                X, Y = ev([(-1, 0, 1)]), ev([(0, -1, 1)])
                if chi.kind == "irreducible":
                    z = np.exp(4j * np.pi * chi.k / T.N)
                    assert np.allclose(X, np.diag([z, 1, 1 / z]), atol=1e-12)
                else:  # unipotent x, with y the same pattern in u
                    assert np.allclose(X, [[1, -2, -1], [0, 1, 1], [0, 0, 1]], atol=1e-12)
                assert np.allclose(H @ H_inv, np.eye(3), atol=1e-12)
                terms = [(2, -3, 5), (-4, 1, -2), (0, 0, 7), (3, 3, 1)]
                loop = sum(c * np.linalg.inv(mpow(X, i) @ mpow(Y, j)) for i, j, c in terms)
                scale = np.abs(loop).max()
                assert np.abs(ev(terms) - loop).max() < 1e-9 * scale
                for lhs, rhs in [(X @ Y, Y @ X),
                                 (H_inv @ X @ H, mpow(X, T.a) @ mpow(Y, T.c)),
                                 (H @ mpow(X, T.b) @ mpow(Y, T.d) @ H_inv, Y)]:
                    assert np.abs(lhs - rhs).max() < 1e-9 * max(1.0, np.abs(rhs).max())

    def test_torsion_invariant_under_cell_lift_translation(self):
        # translating the 3-cell lift multiplies the top boundary by a
        # unimodular holonomy block; the torsion must not move
        T = make_torus_bundle(2, 1, 1, 1)
        for chi in enumerate_torus_characters(T):
            C = build_adjoint_complex(T, chi)
            base = chain_torsion(C).value
            ev, _, H_inv = _adjoint_evaluator(T, chi)
            for i, j, k in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 1)]:
                # antipoded image of gamma = x^i y^j h^k, right to left
                G = np.linalg.matrix_power(H_inv, k) @ ev([(i, j, 1)])
                assert abs(abs(np.linalg.det(G)) - 1) < 1e-9
                moved = BasedChainComplex(C.dims, (C.boundaries[0] @ G,) + C.boundaries[1:])
                assert chain_torsion(moved).value == pytest.approx(base, rel=1e-9)


def same_bits(A: BasedChainComplex, B: BasedChainComplex) -> bool:
    """Equal dims and boundaries equal byte for byte, signed zeros included."""
    return A.dims == B.dims and all(a.tobytes() == b.tobytes()
                                    for a, b in zip(A.boundaries, B.boundaries))


class TestBatchedComplexes:
    """build_adjoint_complexes evaluates each letter and the connecting word
    once for all characters of a bundle; the per-character builder it
    replaced (tests/adjoint_complex_oracle.py) is the bit-equality oracle."""

    def test_matches_per_character_oracle_bit_for_bit(self):
        monos = supported_monodromies(13)
        assert len(monos) == 268
        for mono in monos:
            T = make_torus_bundle(*mono)
            chars = enumerate_torus_characters(T)
            stack = build_adjoint_complexes(T, chars)
            for q, chi in enumerate(chars):
                C, want = stack[q], oracle.build_adjoint_complex(T, chi)
                assert all(np.array_equal(a, b) for a, b in zip(C.boundaries, want.boundaries))
                assert same_bits(C, want), (mono, chi.label())
                assert chain_torsion(C).value == chain_torsion(want).value, (mono, chi.label())

    def test_evaluator_images_match_oracle_bit_for_bit(self):
        # one sum per row, padded with zero terms; the one-term sums at the
        # identity have signed zeros that Python's sum from 0 makes +0.0
        sums = [[(0, 0, 1)], [(0, 0, -1)], [(1, 0, 1)], [],
                [(2, -3, 5), (-4, 1, -2), (0, 0, 7), (3, 3, 1)]]
        i, j, c = np.zeros((3, len(sums), max(map(len, sums))), dtype=np.int64)
        for row, terms in enumerate(sums):
            for t, (a, b, k) in enumerate(terms):
                i[row, t], j[row, t], c[row, t] = a, b, k
        for mono in [(2, 1, 1, 1), (4, 1, 3, 1), (-10, 9, -19, 17)]:
            T = make_torus_bundle(*mono)
            chars = enumerate_torus_characters(T)   # reducible first
            ev, H = torus_bundle._adjoint_evaluator(T, chars)
            E = ev(i, j, c)
            for q, chi in enumerate(chars):
                ev1, H1, H1_inv = _adjoint_evaluator(T, chi)
                assert H[0, q].tobytes() == H1.tobytes() and H[2, q].tobytes() == H1_inv.tobytes()
                for row, terms in enumerate(sums):
                    assert E[row, q].tobytes() == ev1(terms).tobytes(), (mono, chi.label(), terms)

    def test_independent_of_batch_and_order(self, monkeypatch):
        T = make_torus_bundle(-10, 9, -19, 17)
        chars = enumerate_torus_characters(T)
        alone = [build_adjoint_complex(T, chi) for chi in chars]
        # irreducible characters listed first, then one character per batch
        stack = build_adjoint_complexes(T, chars[::-1])
        assert all(same_bits(stack[q], want) for q, want in enumerate(alone[::-1]))
        monkeypatch.setattr(torus_bundle, "_BATCH_TERMS", 1)
        stack = build_adjoint_complexes(T, chars)
        assert all(same_bits(stack[q], want) for q, want in enumerate(alone))
        assert build_adjoint_complexes(T, []).boundaries[0].shape == (0, 9, 3)

    def test_zero_exponent_and_long_letters(self):
        # a = 0 gives an empty Fox derivative x^0; a = 100 a 100-term letter
        # and a connecting word of 18,201 terms
        for mono in [(0, 1, -1, 5), (100, -1, 9101, -91)]:
            T = make_torus_bundle(*mono)
            chars = enumerate_torus_characters(T)
            stack = build_adjoint_complexes(T, chars)
            for q, chi in enumerate(chars):
                assert same_bits(stack[q], oracle.build_adjoint_complex(T, chi)), (mono, chi.label())

    def test_reducible_pair_is_bit_identical(self):
        # H reads v only through v^2, and the adjoint representation kills
        # the central sign on h, so rho+ and rho- give one complex; the
        # oracle evaluates both all the same
        for mono in supported_monodromies(13):
            T = make_torus_bundle(*mono)
            stack = build_adjoint_complexes(T, enumerate_torus_characters(T)[:2])
            plus, minus = stack[0], stack[1]
            assert same_bits(plus, minus), mono
            assert chain_torsion(plus).value == chain_torsion(minus).value


class TestCentralStructure:
    def test_h1_dimension_one(self):
        for T in supported_examples():
            assert len(central_reps(T)) == 2

    def test_sign_rep_swaps_reducibles(self):
        T = make_torus_bundle(2, 1, 1, 1)
        reps = central_reps(T)
        assert len(reps) == 2
        nontriv = next(r for r in reps if not r.is_trivial)
        assert nontriv.sigma == (0, 0, 1)
        assert nontriv.permutation.tolist()[:2] == [1, 0]
        assert nontriv.is_bosonic
