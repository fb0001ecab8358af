import cmath
import math
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loop_operator_oracle import chebyshev
from mtcforge.algebra import (
    BAND_ROWS,
    RationalPhase,
    central_reps_mod2,
    chebyshev_table,
    parity_exp_sum,
    parity_exp_sum_closed,
    parity_exp_sum_table,
    row_bands,
)


def test_row_bands_cover_each_row_once():
    for n in (0, 1, BAND_ROWS - 1, BAND_ROWS, BAND_ROWS + 1, 2 * BAND_ROWS + 1):
        bands = [range(n)[b] for b in row_bands(n)]
        assert [i for b in bands for i in b] == list(range(n))
        assert len(bands) == -(-n // BAND_ROWS)
        assert all(len(b) == BAND_ROWS for b in bands[:-1])


class TestChebyshev:
    def test_base_cases(self):
        table = chebyshev_table(2, np.array([0.0, 1.7, -2.0, 3 + 4j]))
        assert (table[:, 0] == 1.0).all()
        assert (table[:, 1] == [0.0, 1.7, -2.0, 3 + 4j]).all()

    def test_sqrt2_value(self):
        # degree 1 at 2cos(pi/4)
        table = chebyshev_table(2, np.array([2 * math.cos(math.pi / 4)]))
        assert table[0, 1] == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_parity_negation(self):
        plus, minus = chebyshev_table(5, np.array([1.23, -1.23]))
        assert minus[3] == pytest.approx(-plus[3], abs=1e-12)
        assert minus[4] == pytest.approx(plus[4], abs=1e-12)

    def test_sine_ratio_closed_form(self):
        # recursion equals sin((j+1)a)/sin(a) at t = 2cos(a), j <= 64
        rng = np.random.default_rng(7)
        a = rng.uniform(0.05, math.pi - 0.05, size=200)
        table = chebyshev_table(65, 2 * np.cos(a))
        for j in (0, 1, 2, 5, 17, 33, 64):
            want = np.sin((j + 1) * a) / np.sin(a)
            assert np.abs(table[:, j] - want).max() < 1e-8

    def test_complex_arguments_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = complex(rng.uniform(-4, 4), rng.uniform(-1, 1))
            # the table matches the scalar recursion of the test oracle
            table = chebyshev_table(20, np.array([z]))
            for j in range(20):
                val = chebyshev(j, z)
                assert abs(val - table[0, j]) < 1e-9 * max(1.0, abs(val))


class TestRationalPhase:
    def test_normalize_examples(self):
        assert RationalPhase.of(-3, 16) == RationalPhase(13, 16)
        assert RationalPhase.of(8, 16) == RationalPhase(1, 2)
        assert RationalPhase.of(5, -10) == RationalPhase(1, 2)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RationalPhase.of(1, 0)

    def test_to_complex_unit_modulus(self):
        t = RationalPhase.of(5, 7)
        z = t.to_complex()
        assert abs(abs(z) - 1) < 1e-12
        assert abs(z - cmath.exp(2j * math.pi * 5 / 7)) < 1e-12

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4),
           st.integers(-10**6, 10**6), st.integers(1, 10**4))
    @settings(max_examples=300)
    def test_addition_exact(self, an, ad, bn, bd):
        # sums are taken in Fraction; a phase is only shifted by one
        a, x = RationalPhase.of(an, ad), Fraction(bn, bd)
        assert (a + x) + (-x) == a
        assert a + (-a.as_fraction()) == RationalPhase(0, 1)

    @given(st.integers(-10**6, 10**6), st.integers(-10**4, 10**4).filter(bool),
           st.integers(-10**6, 10**6), st.integers(-10**4, 10**4).filter(bool),
           st.integers(-10**3, 10**3))
    @settings(max_examples=300)
    def test_matches_fraction_oracle(self, an, ad, bn, bd, k):
        def parts(t):
            return t.numerator, t.denominator

        a = RationalPhase.of(an, ad)
        fa, fb = Fraction(an, ad), Fraction(bn, bd)
        assert parts(a) == parts(fa % 1)
        assert a.as_fraction() == fa % 1
        assert parts(RationalPhase.of(fa)) == parts(fa % 1)
        assert parts(a + fb) == parts((fa + fb) % 1)
        assert parts(a + k) == parts(fa % 1)
        # phases are not combined with phases: sums go through Fraction
        with pytest.raises(TypeError):
            a + RationalPhase.of(bn, bd)

    # numerators over 720720 = lcm(1..16): reduced denominators of many sizes
    @given(st.lists(st.integers(-10**7, 10**7), max_size=20))
    @settings(max_examples=200)
    def test_residues_round_trip(self, nums):
        phases = [RationalPhase.of(n, 720720) for n in nums]
        res, den = RationalPhase.residues(phases)
        assert res.dtype == np.int64 and den == math.lcm(*(t.denominator for t in phases))
        assert [RationalPhase.of(x, den) for x in res.tolist()] == phases

    def test_bulk_addition_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            a = RationalPhase.of(int(rng.integers(-999, 999)), int(rng.integers(1, 99)))
            x = Fraction(int(rng.integers(-999, 999)), int(rng.integers(1, 99)))
            assert (a + x) + (-x) == a

    def test_integer_scale(self):
        # a multiple is taken in Fraction: a phase defines no product
        t = RationalPhase.of(3, 8)
        assert RationalPhase.of(4 * t.as_fraction()) == RationalPhase(1, 2)
        for x in (4, Fraction(2, 3), Fraction(1, 2), 0.5):
            with pytest.raises(TypeError):
                t * x
            with pytest.raises(TypeError):
                x * t
        with pytest.raises(TypeError):
            -t


def kernel(M) -> list[tuple[int, ...]]:
    """The sigmas of central_reps_mod2 on a single label, in its order."""
    reps = central_reps_mod2(M, (np.zeros(1, dtype=np.int64), 1), lambda sigma: [0])
    return [r.sigma for r in reps]


class TestMod2:
    def test_identity_full_rank(self):
        assert kernel(np.eye(3, dtype=int)) == [(0, 0, 0)]

    def test_torus_bundle_relation_matrix(self):
        # rows (a+1, c, 0), (b, d+1, 0) mod 2 for (2,1,1,1)
        M = np.array([[3, 1, 0], [1, 2, 0]]) % 2
        assert kernel(M) == [(0, 0, 0), (0, 0, 1)]

    def test_zero_matrix(self):
        assert kernel(np.zeros((2, 2), dtype=int)) == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_rank_nullity_against_enumeration(self):
        # oracle: count solutions by brute force over F_2^n
        rng = np.random.default_rng(5)
        for _ in range(40):
            rows, cols = rng.integers(1, 6, size=2)
            M = rng.integers(0, 2, size=(rows, cols))
            sigmas = kernel(M)
            images = [tuple(M @ np.array([(mask >> i) & 1 for i in range(cols)]) % 2)
                      for mask in range(2**cols)]
            assert len(sigmas) == images.count((0,) * rows)
            # rank-nullity: |kernel| * |image| = 2^cols
            assert len(sigmas) * len(set(images)) == 2**cols
            assert len(set(sigmas)) == len(sigmas) and sigmas[0] == (0,) * cols
            for v in sigmas:
                assert not ((M @ np.array(v)) % 2).any()


class TestParityExpSum:
    def test_odd_p_diagonal(self):
        # p odd, j == l
        for p, j in [(9, 2), (7, 3), (15, 8)]:
            assert parity_exp_sum(p, j, j, 1, 0) == -p
            assert parity_exp_sum(p, j, j, 1, 1) == -p

    def test_odd_p_antidiagonal_sign(self):
        # j + l = p with j + l odd picks up (-1)^parity
        assert parity_exp_sum(9, 4, 5, 1, 1) == -9
        assert parity_exp_sum(9, 4, 5, 1, 0) == 9

    def test_derived_literal_case(self):
        # (9,2,3,1,0): independent literal evaluation over even m in 1..8
        lit = sum(sj * sl * cmath.exp(1j * math.pi * (sj * 2 + sl * 3) * m / 9)
                  for m in range(2, 9, 2) for sj in (1, -1) for sl in (1, -1))
        assert abs(lit) < 1e-12
        assert parity_exp_sum(9, 2, 3, 1, 0) == pytest.approx(0.0, abs=1e-12)

    def test_closed_equals_literal_small(self):
        for p in range(2, 26):
            units = [r for r in range(1, 2 * p, 2) if gcd(r, p) == 1]
            for r in (units[0], units[-1]):
                for parity in (0, 1):
                    table = parity_exp_sum_table(p, r, parity)
                    for j in range(p + 1):
                        for l in range(p + 1):
                            closed = parity_exp_sum(p, j, l, r, parity)
                            assert abs(closed - table[j, l]) < 1e-8, (p, j, l, r, parity)

    def test_array_form_equals_scalar(self):
        # every p <= 50, every odd unit r, both parities
        for p in range(2, 51):
            for parity in (0, 1):
                closed = parity_exp_sum_closed(p, parity)
                for r in range(1, 2 * p, 2):
                    if gcd(r, p) == 1:
                        scalar = [[parity_exp_sum(p, j, l, r, parity) for l in range(p + 1)]
                                  for j in range(p + 1)]
                        assert closed.tobytes() == np.array(scalar).tobytes(), (p, r, parity)

    def test_even_r_requires_literal(self):
        with pytest.raises(ValueError):
            parity_exp_sum(9, 2, 3, 2, 0)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            parity_exp_sum(9, 2, 3, 3, 0)
