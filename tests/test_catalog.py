import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import one_shot_oracle
from kauffman_closed_forms import a4_order, quantum_integer, su2_twists, tlj_twists, total_dim
from mtcforge import catalog
from mtcforge.algebra import BAND_ROWS, RationalPhase
from mtcforge.catalog import (
    ModularData,
    find_transparent,
    fusion_defects,
    graded_order_permutation,
    graded_product,
    reorder,
    soN2_adjoint,
    su2_level,
    tlj_data,
    verlinde_fusion,
)

# the largest product whose whole S test_matches_pair_loop gathers (8 MB)
FULL_S_MAX_RANK = 1024
GOLDEN = (1 + math.sqrt(5)) / 2
PHI = (1 - math.sqrt(5)) / 2  # the conjugate root


def phase(num, den):
    return RationalPhase.of(Fraction(num, den))


def graded_data():
    """Kauffman data at A with A^4 of order >= 2, or a quantum SU(2) level."""
    kauffman = st.integers(1, 40).flatmap(
        lambda d: st.integers(0, d - 1).map(lambda n: RationalPhase.of(n, d)))
    return st.one_of(kauffman.filter(lambda A: a4_order(A) >= 2).map(tlj_data),
                     st.integers(0, 8).map(su2_level))


def z3_data():
    a = np.arange(3)
    return ModularData(("0", "1", "2"), np.ones(3), (a * a % 3, 3),
                       np.exp(2j * np.pi * np.outer(a, a) / 3), 3.0, (0, 0, 0)).validate()


def is_stored(D):
    return "s_tilde" in vars(D)


def regraded(D, S):
    """D with S in place of its S-matrix, every label even, not validated."""
    return ModularData(D.labels, D.dims, (D.twist_residues, D.twist_den), S, D.total_dim_sq,
                       (0,) * D.rank)


class TestKauffmanData:
    def test_rank_two_example(self):
        # A = -e^{i pi/6}: rank 2, twists (1, i), S = [[1,-1],[-1,-1]]
        D = tlj_data(phase(7, 12))
        assert D.rank == 2
        assert D.twists == (phase(0, 1), phase(1, 4))
        assert np.abs(D.s_tilde - np.array([[1, -1], [-1, -1]])).max() < 1e-12

    def test_rank_four_example(self):
        # A = -e^{-i pi/5}: rank 4, rows built from the conjugate golden ratio
        D = tlj_data(phase(2, 5))
        assert D.rank == 4
        ref = np.array([[1, PHI, PHI, 1],
                        [PHI, -1, -1, PHI],
                        [PHI, -1, -1, PHI],
                        [1, PHI, PHI, 1]])
        assert np.abs(D.s_tilde - ref).max() < 1e-12

    def test_unit_object(self):
        for t in [phase(7, 12), phase(2, 5), phase(1, 16), phase(3, 20)]:
            D = tlj_data(t)
            assert D.dims[0] == pytest.approx(1.0)
            assert D.twists[0] == phase(0, 1)

    def test_degenerate_variable_rejected(self):
        with pytest.raises(ValueError):
            tlj_data(phase(1, 4))  # A^4 = 1

    def test_total_dim_identity(self):
        for t in [phase(7, 12), phase(2, 5), phase(1, 16), phase(1, 24), phase(5, 28)]:
            D = tlj_data(t)
            assert float(np.sum(D.dims**2)) == pytest.approx(total_dim(t) ** 2, rel=1e-10)

    def test_sector_dimensions_equal(self):
        # both sectors have squared dimension D^2/2 (needs rank >= 2)
        for t in [phase(1, 16), phase(1, 24), phase(5, 28), phase(7, 12)]:
            D = tlj_data(t)
            g = np.array(D.grading)
            even = float(np.sum(D.dims[g == 0] ** 2))
            odd = float(np.sum(D.dims[g == 1] ** 2))
            assert even == pytest.approx(D.total_dim_sq / 2, rel=1e-10)
            assert odd == pytest.approx(D.total_dim_sq / 2, rel=1e-10)

    def test_variable_negation(self):
        # A -> -A keeps S and flips exactly the odd twists
        for t in [phase(1, 16), phase(2, 5), phase(1, 24)]:
            D1, D2 = tlj_data(t), tlj_data(RationalPhase.of(t.as_fraction() + Fraction(1, 2)))
            assert np.abs(D1.s_tilde - D2.s_tilde).max() < 1e-12
            for j, (a, b) in enumerate(zip(D1.twists, D2.twists)):
                assert RationalPhase.of(a.as_fraction() - b.as_fraction()) == phase(j % 2, 2)

    def test_modularity_by_order(self):
        # primitive 4r-th root: modular; odd r at a primitive 2r-th root:
        # degenerate with a non-degenerate even sector
        assert find_transparent(tlj_data(phase(1, 16))).is_modular
        assert find_transparent(tlj_data(phase(1, 20))).is_modular
        D = tlj_data(phase(1, 10))  # order 10 = 2r, r = 5
        rep = find_transparent(D)
        assert not rep.is_modular
        even = [i for i in range(D.rank) if D.grading[i] == 0]
        sub = D.s_tilde[np.ix_(even, even)]
        assert abs(np.linalg.det(sub)) > 1e-6

    def test_quantum_integer_values(self):
        A = phase(1, 16)  # [n] = sin(n pi/4)/sin(pi/4)
        assert quantum_integer(A, 2) == pytest.approx(math.sqrt(2), rel=1e-12)
        assert quantum_integer(A, 4) == pytest.approx(0.0, abs=1e-12)

    def test_matches_quantum_integer_loop(self):
        # the sine-table gather against the scalar double loop it replaced
        phases = [RationalPhase.of(n, d) for d in range(1, 25) for n in range(d)]
        phases = [A for A in phases if a4_order(A) >= 2]
        phases += [phase(5, 116), phase(43, 100), phase(37, 500)]
        for A in phases:
            D = tlj_data(A)
            n = range(1, D.rank + 1)
            S = np.array([[(-1) ** (i + j) * quantum_integer(A, i * j) for j in n] for i in n])
            assert D.s_tilde.tobytes() == S.tobytes(), A
            assert D.dims.tobytes() == S[0].tobytes(), A

    def test_twists_match_exact_phase_oracle(self):
        # the residue-built twists against one reduced phase per label: same
        # residues over the same least common denominator
        checked = 0
        for b in range(1, 120):
            for a in range(b):
                A = RationalPhase.of(a, b)
                if A.denominator != b or a4_order(A) < 2:
                    continue
                D = tlj_data(A)
                res, den = RationalPhase.residues(tlj_twists(A))
                assert D.twist_den == den and D.twist_residues.tolist() == res.tolist(), A
                checked += 1
        assert checked > 4000
        for k in range(41):
            res, den = RationalPhase.residues(su2_twists(k))
            D = su2_level(k)
            assert D.twist_den == den and D.twist_residues.tolist() == res.tolist(), k


class TestFindTransparent:
    @staticmethod
    def transparent_row_by_row(D, tol=1e-9):
        S = D.s_tilde
        scale = np.abs(S).max()
        return tuple(D.labels[i] for i in range(D.rank)
                     if np.abs(S[i, :] - S[i, 0] / D.dims[0] * D.dims).max()
                     <= tol * max(scale, 1.0))

    def test_matches_row_loop(self):
        phases = [phase(k, 4 * p) for p in range(2, 8) for k in range(1, 4 * p, 2)
                  if math.gcd(k, p) == 1]
        data = [graded_product(tlj_data(a), tlj_data(b))
                for a, b in zip(phases, phases[3:] + phases[:3])]
        data += [soN2_adjoint(N, m) for N, m in [(5, -7), (7, -17), (13, 3), (4 * BAND_ROWS - 1, 5)]]
        # several bands, the last one partial
        data.append(graded_product(tlj_data(phase(1, 84)), tlj_data(phase(1, 76))))
        seen = set()
        for D in data:
            rep = find_transparent(D)
            assert rep.transparent_labels == self.transparent_row_by_row(D), D.labels
            seen.add(rep.is_modular)
        assert seen == {True, False}

    @staticmethod
    def near_threshold(rank, dtype):
        """Unvalidated data whose rows are proportional to the dims row, some
        pushed off by half, once and one and a half times the tolerance,
        some replaced by noise, in every band."""
        rng = np.random.default_rng(rank)
        dims = np.append(1.0, rng.uniform(0.5, 2.0, rank - 1))
        S = np.outer(rng.uniform(-2.0, 2.0, rank), dims).astype(dtype)
        S[0] = dims
        if dtype == complex:
            S[1:] *= np.exp(1j * rng.uniform(0.0, 2 * math.pi, (rank - 1, 1)))
        scale = max(np.abs(S).max(), 1.0)
        for n, i in enumerate(range(1, rank, 3)):
            S[i, 1 + i % (rank - 1)] += (0.5, 1.0, 1.5)[n % 3] * 1e-9 * scale
        S[2::7] = rng.uniform(-2.0, 2.0, S[2::7].shape)
        labels = tuple(str(i) for i in range(rank))
        return ModularData(labels, dims, (np.zeros(rank, dtype=np.int64), 1), S, float(rank))

    @pytest.mark.parametrize("rank", [1, BAND_ROWS - 1, BAND_ROWS, BAND_ROWS + 1,
                                      2 * BAND_ROWS + 1])
    def test_matches_one_shot(self, rank):
        # the same labels as the whole-matrix formula, the rows at the
        # threshold included, and none once a NaN sits in the last band
        for dtype in (float, complex):
            D = self.near_threshold(rank, dtype)
            S = D.s_tilde.copy()
            S[-1, rank // 2] = math.nan
            with_nan = ModularData(D.labels, D.dims, (D.twist_residues, 1), S, D.total_dim_sq)
            for E in (D, with_nan):
                want = one_shot_oracle.transparent_labels(E)
                assert find_transparent(E) == catalog.ModularityReport(want == ("0",), want)
            assert find_transparent(with_nan).transparent_labels == ()
            assert rank < 4 or 0 < len(find_transparent(D).transparent_labels) < rank

    def test_no_determinant(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("slogdet called")

        monkeypatch.setattr(np.linalg, "slogdet", refuse)
        for D in (su2_level(3), graded_product(su2_level(2), su2_level(4)),
                  soN2_adjoint(4 * BAND_ROWS - 1, 5)):
            find_transparent(D)
        with pytest.raises(AssertionError, match="slogdet"):
            catalog.s_det_modulus(su2_level(3))

    def test_source_backed_s_stays_unstored(self):
        D = graded_product(tlj_data(phase(1, 84)), tlj_data(phase(1, 76)))
        assert D.rank > BAND_ROWS and not is_stored(D)
        rep = find_transparent(D)
        assert not is_stored(D)
        assert rep.transparent_labels == one_shot_oracle.transparent_labels(D)

    def test_s_det_modulus(self):
        # S / D is unitary for a unitary modular category; a transparent
        # label other than the unit repeats the unit's row
        for k in range(6):
            assert catalog.s_det_modulus(su2_level(k)) == pytest.approx(1.0, rel=1e-9)
        assert catalog.s_det_modulus(soN2_adjoint(7, 3)) < 1e-9


class TestSU2Level:
    def test_level_zero_trivial(self):
        D = su2_level(0)
        assert D.rank == 1 and D.dims[0] == 1.0

    def test_level_two(self):
        D = su2_level(2)
        assert np.allclose(D.dims, [1, math.sqrt(2), 1])
        assert D.twists == (phase(0, 1), phase(3, 16), phase(1, 2))

    def test_level_three_golden(self):
        D = su2_level(3)
        assert D.dims[1] == pytest.approx(GOLDEN, rel=1e-12)

    def test_all_modular(self):
        for k in range(7):
            assert find_transparent(su2_level(k)).is_modular


class TestSoN2Adjoint:
    def test_transparent_z(self):
        for N, m in [(5, -7), (7, -17), (9, 1), (13, 3)]:
            D = soN2_adjoint(N, m)
            rep = find_transparent(D)
            assert not rep.is_modular
            assert rep.transparent_labels == ("1", "Z")
            assert np.abs(D.s_tilde[0, :] - D.s_tilde[1, :]).max() < 1e-12

    def test_twist_values(self):
        # theta_{Y_k} reduces to c~ k^2/N when m = -2c~ - N
        for N, ctil in [(5, 1), (7, 5), (13, 4)]:
            m = -2 * ctil - N
            D = soN2_adjoint(N, m)
            for k in range(1, (N - 1) // 2 + 1):
                assert D.twists[1 + k] == phase(ctil * k * k, N)

    def test_cos_entry(self):
        D = soN2_adjoint(5, -7)
        assert D.s_tilde[2, 2].real == pytest.approx(4 * math.cos(4 * math.pi / 5), rel=1e-12)

    def test_shape_and_dims(self):
        D = soN2_adjoint(11, 3)
        assert D.rank == 7
        assert np.allclose(D.dims, [1, 1] + [2] * 5)
        assert D.total_dim_sq == pytest.approx(22.0)

    def test_matches_entry_loop(self):
        # the gathered table against the entry-by-entry construction
        def entry_loop(N, m):
            r = (N - 1) // 2
            S = np.empty((r + 2, r + 2))
            S[:2, :2] = 1.0
            for k in range(1, r + 1):
                S[0, 1 + k] = S[1, 1 + k] = S[1 + k, 0] = S[1 + k, 1] = 2.0
                for j in range(k, r + 1):
                    v = 4 * math.cos(2 * math.pi * ((m * k * j) % N) / N)
                    S[1 + k, 1 + j] = S[1 + j, 1 + k] = v
            return S

        for N, m in [(5, 7), (9, 11), (15, 7), (403, 5), (4 * BAND_ROWS - 1, 5)]:
            for sign in (1, -1):
                got = soN2_adjoint(N, sign * m).s_tilde
                assert got.tobytes() == entry_loop(N, sign * m).tobytes()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            soN2_adjoint(6, 1)
        with pytest.raises(ValueError):
            soN2_adjoint(5, 2)
        with pytest.raises(ValueError):
            soN2_adjoint(5, 5)


class TestGradedProduct:
    def test_tlj_pair_reference_matrix(self):
        D = graded_product(tlj_data(phase(7, 12)), tlj_data(phase(2, 5)))
        assert D.labels == ("(0,0)", "(0,2)", "(1,1)", "(1,3)")
        ref = np.array([[1, PHI, -PHI, -1],
                        [PHI, -1, 1, -PHI],
                        [-PHI, 1, 1, -PHI],
                        [-1, -PHI, -PHI, -1]])
        assert np.abs(D.s_tilde - ref).max() < 1e-12
        assert find_transparent(D).is_modular

    def test_labels_built_on_first_read(self):
        X, Y, Z = tlj_data(phase(7, 12)), tlj_data(phase(2, 5)), tlj_data(phase(3, 28))
        inner = graded_product(X, Y)
        D = graded_product(inner, Z)
        assert "labels" not in vars(inner) and "labels" not in vars(D)
        # the product's label function holds the factors' label sources, not the factors
        assert not any(a is inner for a in D._labels_source.args)
        pairs = [(i, j) for g in (0, 1) for i in range(inner.rank) if inner.grading[i] == g
                 for j in range(Z.rank) if Z.grading[j] == g]
        assert D.labels == tuple(f"({inner.labels[i]},{Z.labels[j]})" for i, j in pairs)
        assert D.rank == len(D.labels) == len(D.dims)
        assert dataclasses.replace(D, total_dim_sq=1.0).labels == D.labels

    def test_sector_sums_and_exact_symmetry_of_products(self):
        X, Y = tlj_data(phase(7, 12)), tlj_data(phase(3, 28))
        D = graded_product(X, Y)
        g = np.array(D.grading)
        assert D.sector_dim_sq == tuple(float(np.sum(D.dims[g == k] ** 2)) for k in (0, 1))
        x, y = X.sector_dim_sq, Y.sector_dim_sq
        assert D.total_dim_sq == x[0] * y[0] + x[1] * y[1]
        # set from the factors, and true of the stored S
        assert vars(D)["exactly_symmetric"] and np.array_equal(D.s_tilde, D.s_tilde.T)
        S = X.s_tilde.copy()
        S[0, 1] += 1e-13
        skew = ModularData(X.labels, X.dims, (X.twist_residues, X.twist_den), S,
                           X.total_dim_sq, X.grading)
        assert not skew.exactly_symmetric
        assert "exactly_symmetric" not in vars(graded_product(skew, Y))

    def test_rank_six_reference(self):
        D = graded_product(su2_level(2), su2_level(3))
        s2 = math.sqrt(2)
        ref = np.array([
            [1, GOLDEN, 1, GOLDEN, GOLDEN * s2, s2],
            [GOLDEN, -1, GOLDEN, -1, -s2, GOLDEN * s2],
            [1, GOLDEN, 1, GOLDEN, -GOLDEN * s2, -s2],
            [GOLDEN, -1, GOLDEN, -1, s2, -GOLDEN * s2],
            [GOLDEN * s2, -s2, -GOLDEN * s2, s2, 0, 0],
            [s2, GOLDEN * s2, -s2, -GOLDEN * s2, 0, 0],
        ])
        assert D.rank == 6
        assert np.abs(D.s_tilde - ref).max() < 1e-9
        want = [phase(0, 1), phase(2, 5), phase(1, 2), phase(9, 10),
                phase(27, 80), phase(15, 16)]
        assert list(D.twists) == want

    def test_unit_of_operation(self):
        # product with a trivially graded rank-1 factor picks the even sector
        X = su2_level(4)
        triv = su2_level(0)
        D = graded_product(X, triv)
        even = [i for i in range(X.rank) if X.grading[i] == 0]
        assert np.abs(D.s_tilde - X.s_tilde[np.ix_(even, even)]).max() < 1e-12

    def test_same_parity_transparent_label(self):
        D = graded_product(su2_level(2), su2_level(4))
        rep = find_transparent(D)
        assert not rep.is_modular
        assert "(2,4)" in rep.transparent_labels

    @given(graded_data(), graded_data(), graded_data())
    @settings(max_examples=60, deadline=None)
    def test_matches_pair_loop(self, X, Y, Z):
        # the label-pair loop and twist sums, taken in Fraction, that the array form replaced.
        # S is compared band by band against per-band gathers of the pair loop,
        # and whole only up to FULL_S_MAX_RANK labels: the nested product can
        # reach rank 13,718, whose S alone would take 1.5 GB
        for P, Q in ((X, Y), (graded_product(X, Y), Z)):
            D = graded_product(P, Q)
            pairs = [(i, j) for g in (0, 1) for i in range(P.rank) if P.grading[i] == g
                     for j in range(Q.rank) if Q.grading[j] == g]
            assert D.labels == tuple(f"({P.labels[i]},{Q.labels[j]})" for i, j in pairs)
            assert D.grading == tuple(P.grading[i] for i, _ in pairs)
            assert D.twists == tuple(RationalPhase.of(P.twists[i].as_fraction() + Q.twists[j].as_fraction())
                                     for i, j in pairs)
            ii, jj = np.array([i for i, _ in pairs]), np.array([j for _, j in pairs])
            for start in range(0, D.rank, BAND_ROWS):
                rows = slice(start, start + BAND_ROWS)
                S = P.s_tilde[np.ix_(ii[rows], ii)] * Q.s_tilde[np.ix_(jj[rows], jj)]
                assert D.s_band(rows).tobytes() == S.tobytes()
            if D.rank <= FULL_S_MAX_RANK:
                S = P.s_tilde[np.ix_(ii, ii)] * Q.s_tilde[np.ix_(jj, jj)]
                assert D.s_tilde.tobytes() == S.tobytes()
            assert D.dims.tobytes() == (P.dims[ii] * Q.dims[jj]).tobytes()

    def test_missing_grading_rejected(self):
        with pytest.raises(ValueError):
            graded_product(su2_level(2), soN2_adjoint(5, -7))

    def test_banded_matches_one_shot(self):
        # complex data, an empty odd sector, and nested products over
        # several bands with a partial last one, against the one-shot gather
        z3 = z3_data()
        P = graded_product(tlj_data(phase(1, 84)), tlj_data(phase(1, 76)))
        assert BAND_ROWS < P.rank < 2 * BAND_ROWS
        Q = graded_product(P, z3)
        assert Q.rank > 2 * BAND_ROWS and Q.s_tilde.dtype == np.complex128
        cases = [(z3, su2_level(4)), (su2_level(4), z3), (su2_level(0), su2_level(5)),
                 (su2_level(5), su2_level(0)), (tlj_data(phase(1, 84)), tlj_data(phase(1, 76))),
                 (P, z3), (P, tlj_data(phase(1, 92))), (Q, su2_level(3))]
        for X, Y in cases:
            got = graded_product(X, Y).s_tilde
            assert got.tobytes() == one_shot_oracle.graded_product_s(X, Y).tobytes(), \
                (X.rank, Y.rank)


class TestSourceBackedS:
    """A graded product above BAND_ROWS labels stores no S: validate and
    s_band build its bands from the factor tables, s_tilde on first access."""

    def test_stored_up_to_band_rows(self):
        for X, Y in ((su2_level(4), su2_level(5)),
                     (tlj_data(phase(1, 84)), tlj_data(phase(1, 76)))):
            D = graded_product(X, Y)
            assert is_stored(D) == (D.rank <= BAND_ROWS), D.rank

    def test_bands_match_materialized_s(self):
        D = graded_product(tlj_data(phase(1, 84)), tlj_data(phase(1, 76)))
        assert BAND_ROWS < D.rank < 2 * BAND_ROWS and not is_stored(D)
        bands = [(slice(i, i + BAND_ROWS), D.s_band(slice(i, i + BAND_ROWS)))
                 for i in range(0, D.rank, BAND_ROWS)]
        S = D.s_tilde
        assert is_stored(D)
        for rows, A in bands:
            assert A.tobytes() == S[rows].tobytes()
            # once stored, a band is a read-only view
            view = D.s_band(rows)
            assert np.shares_memory(view, S) and not view.flags.writeable
            assert view.tobytes() == A.tobytes()

    def test_materialized_s_is_read_only_one_shot(self):
        # float64, complex128, and a complex product whose imaginary parts are all zero
        P = graded_product(tlj_data(phase(1, 84)), tlj_data(phase(1, 76)))
        D = soN2_adjoint(4 * BAND_ROWS - 1, 5)
        S = np.ones((D.rank + 1, D.rank + 1), dtype=complex)
        S[:-1, :-1] = D.s_tilde
        S[-1, -1] = 1j
        # the imaginary entry sits on an odd label, which a trivially graded factor drops
        odd_imaginary = ModularData(D.labels + ("x",), np.append(D.dims, 1.0),
                                    D.twists + (phase(0, 1),), S, D.total_dim_sq + 1.0,
                                    (0,) * D.rank + (1,))
        for X, Y, dtype in ((P, tlj_data(phase(1, 92)), np.float64),
                            (P, z3_data(), np.complex128),
                            (odd_imaginary, su2_level(0), np.float64)):
            G = graded_product(X, Y)
            assert G.rank > BAND_ROWS and not is_stored(G)
            assert G.s_band(slice(0, BAND_ROWS)).dtype == dtype
            assert G.s_tilde.dtype == dtype and not G.s_tilde.flags.writeable
            want = one_shot_oracle.graded_product_s(X, Y)
            assert G.s_tilde.tobytes() == (want if dtype == np.complex128 else want.real).tobytes()

    def test_nested_product_matches_stored(self):
        inner = [tlj_data(phase(1, 84)), tlj_data(phase(1, 76))]
        P = graded_product(*inner)
        assert P.rank > BAND_ROWS and not is_stored(P)
        stored = ModularData(P.labels, P.dims, (P.twist_residues, P.twist_den),
                             np.array(graded_product(*inner).s_tilde), P.total_dim_sq, P.grading)
        Z = tlj_data(phase(1, 92))
        got, want = graded_product(P, Z), graded_product(stored, Z)
        assert got.labels == want.labels and got.twists == want.twists
        assert got.dims.tobytes() == want.dims.tobytes()
        assert got.s_tilde.tobytes() == want.s_tilde.tobytes()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "asymmetric"])
    def test_validate_rejects_bad_factor_entries(self, value):
        # in the first band, and only in the partial last band of 2 BAND_ROWS + 1 rows
        D = soN2_adjoint(4 * BAND_ROWS - 1, 5)
        assert D.rank == 2 * BAND_ROWS + 1
        match = "not symmetric" if value == "asymmetric" else "non-finite S entries"
        for at in ((2, 1), (2 * BAND_ROWS, 7)):
            S = D.s_tilde.copy()
            S[at] = S[at] + 1e-3 if value == "asymmetric" else value
            X = regraded(D, S)
            with pytest.raises(ValueError, match=match):
                X.validate()
            with pytest.raises(ValueError, match=match):
                graded_product(X, su2_level(0))
        assert not is_stored(graded_product(regraded(D, D.s_tilde), su2_level(0)).validate())

    def test_symmetry_residual_only_for_asymmetric_factors(self, monkeypatch):
        # exactly symmetric factors make a source-backed S, whose validate
        # builds its bands once and no residual; one asymmetric factor, on
        # either side of a product above BAND_ROWS labels, makes a stored S,
        # which still fails the residual test
        built = []
        rows = catalog._ProductS.rows

        def recording(self, band):
            built.append(band)
            return rows(self, band)

        monkeypatch.setattr(catalog._ProductS, "rows", recording)
        D = soN2_adjoint(4 * BAND_ROWS - 1, 5)
        P = graded_product(regraded(D, D.s_tilde), su2_level(0))
        assert P.rank > BAND_ROWS and vars(P)["exactly_symmetric"] and not is_stored(P)
        assert built
        S = D.s_tilde.copy()
        S[2, 1] += 1e-3
        for factors in ((regraded(D, S), su2_level(0)), (su2_level(0), regraded(D, S))):
            built.clear()
            with pytest.raises(ValueError, match="S-matrix not symmetric"):
                graded_product(*factors)
            assert not built


class TestVerlinde:
    def test_unit_fusion_identity(self):
        N = verlinde_fusion(su2_level(3))
        assert np.abs(N[0] - np.eye(4)).max() < 1e-9

    def test_su2_level2_fusion(self):
        N = verlinde_fusion(su2_level(2))
        assert round(N[1, 1, 0]) == 1 and round(N[1, 1, 2]) == 1
        assert abs(N[1, 1, 1]) < 1e-9

    def test_tlj_16th_root_associative(self):
        N = verlinde_fusion(tlj_data(phase(1, 16)))
        integ, assoc = fusion_defects(N)
        assert integ < 1e-9 and assoc < 1e-9

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            verlinde_fusion(soN2_adjoint(5, -7))

    def test_matches_einsum_forms(self):
        # the einsum forms of N and of the associativity defect, as reference
        outs = [su2_level(k) for k in range(1, 7)] + [tlj_data(phase(1, 16)), tlj_data(phase(3, 28))]
        outs += [graded_product(su2_level(m), su2_level(n)) for m, n in [(2, 3), (3, 6), (1, 4)]]
        # Z_n fusion a x b = a + b: labels are not self-dual, so N is not symmetric
        for n in (3, 5):
            a = np.arange(n)
            S = np.exp(2j * np.pi * np.outer(a, a) / n)
            outs.append(ModularData(tuple(map(str, a)), np.ones(n), (a * a % n, n), S, float(n)))
        for D in outs:
            S = D.s_tilde / math.sqrt(D.total_dim_sq)
            want = np.einsum("im,jm,km->ijk", S, S, S.conj() / S[0, :]).real
            N = verlinde_fusion(D)
            assert N.shape == want.shape and np.abs(N - want).max() < 1e-12
            assoc = float(np.abs(np.einsum("ijm,mkl->ijkl", want, want)
                                 - np.einsum("jkm,iml->ijkl", want, want)).max())
            integ, got = fusion_defects(want)
            assert abs(got - assoc) < 1e-12


class TestHelpers:
    def test_reorder_roundtrip(self):
        D = su2_level(4)
        perm = graded_order_permutation(D)
        R = reorder(D, perm)
        assert R.labels == ("0", "2", "4", "1", "3")
        inv = [perm.index(i) for i in range(D.rank)]
        back = reorder(R, inv)
        assert back.labels == D.labels
        assert np.abs(back.s_tilde - D.s_tilde).max() == 0.0

    def test_twists_from_residues(self):
        D = su2_level(3)
        # the same phases over unreduced denominators and out-of-range residues
        for k, shift in [(1, 0), (5, 0), (1, -7), (3, 2)]:
            res, den = (D.twist_residues + shift * D.twist_den) * k, D.twist_den * k
            E = ModularData(D.labels, D.dims, (res, den), D.s_tilde, D.total_dim_sq, D.grading)
            assert type(E.twists) is tuple and E.twists == D.twists
            assert ((0 <= E.twist_residues) & (E.twist_residues < den)).all()
            assert not E.twist_residues.flags.writeable and res.flags.writeable
        with pytest.raises(ValueError, match="exceeds"):
            ModularData(D.labels, D.dims, (D.twist_residues, 2**31), D.s_tilde, D.total_dim_sq)
        # dataclasses.replace keeps the twists, or takes new ones as phases
        assert dataclasses.replace(E, total_dim_sq=1.0).twists == D.twists
        assert dataclasses.replace(E, twists=D.twists[:1] * 4).twists == (D.twists[0],) * 4

    def test_validate_catches_bad_data(self):
        D = su2_level(2)
        bad = ModularData(D.labels, D.dims, D.twists, D.s_tilde, D.total_dim_sq + 1.0)
        with pytest.raises(ValueError, match="dims"):
            bad.validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       complex(math.nan, 1.0), complex(1.0, math.inf)])
    def test_validate_rejects_non_finite_entries(self, value):
        # in one tile, and only in the partial last band of 2 BAND_ROWS + 1 rows
        for D, at in ((su2_level(3), (2, 1)), (soN2_adjoint(4 * BAND_ROWS - 1, 5), (-1, 7))):
            S = D.s_tilde.astype(type(value))
            S[at] = value
            bad = ModularData(D.labels, D.dims, D.twists, S, D.total_dim_sq)
            with pytest.raises(ValueError, match="non-finite S entries"):
                bad.validate()

    def test_validate_rejects_asymmetry_in_off_diagonal_tile(self):
        D = soN2_adjoint(4 * BAND_ROWS - 1, 5)
        assert D.rank == 2 * BAND_ROWS + 1
        for at in ((3, BAND_ROWS + 5), (BAND_ROWS + 5, 3), (2 * BAND_ROWS, BAND_ROWS + 1)):
            S = D.s_tilde.copy()
            S[at] += 1e-3
            bad = ModularData(D.labels, D.dims, D.twists, S, D.total_dim_sq)
            with pytest.raises(ValueError, match="not symmetric"):
                bad.validate()


class TestRealS:
    """s_tilde is float64 whenever every entry is real, complex128 otherwise."""

    def test_builders_store_float64(self):
        built = [tlj_data(phase(1, 16)), tlj_data(phase(7, 12)), su2_level(0), su2_level(5),
                 soN2_adjoint(9, -11), graded_product(su2_level(2), tlj_data(phase(3, 28)))]
        for D in built:
            assert D.s_tilde.dtype == np.float64, D.labels

    def test_complex_data_stays_complex(self):
        a = np.arange(3)
        S = np.exp(2j * np.pi * np.outer(a, a) / 3)
        D = ModularData(("0", "1", "2"), np.ones(3), (a * a % 3, 3), S, 3.0).validate()
        assert D.s_tilde.dtype == np.complex128
        assert D.s_tilde.tobytes() == S.tobytes()

    def test_real_complex_input_comes_back_float64(self):
        D = su2_level(4)
        S = D.s_tilde * (1 + 0j)
        S.imag[1, 2] = -0.0
        E = ModularData(D.labels, D.dims, D.twists, S, D.total_dim_sq, D.grading)
        assert E.s_tilde.dtype == np.float64 and E.s_tilde.flags.c_contiguous
        assert E.s_tilde.tobytes() == S.real.copy().tobytes() == D.s_tilde.tobytes()
        assert not E.s_tilde.flags.writeable
