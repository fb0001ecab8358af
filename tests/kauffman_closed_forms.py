"""Closed forms of Kauffman-bracket quantities that the tests compare
against: quantum integers, the per-fiber quantum dimensions of a Seifert
character, the total dimension of the Kauffman data at A and the twists of
the Kauffman and quantum SU(2) data, one exact phase at a time, each sum
and multiple taken in Fraction."""

import math
from fractions import Fraction

from mtcforge.algebra import RationalPhase, phase_sin


def quantum_integer(A: RationalPhase, n: int) -> float:
    """[n] at Kauffman variable e^{2*pi*i*A}, as an exact sine ratio."""
    t = A.as_fraction()
    return phase_sin(RationalPhase.of(2 * n * t)) / phase_sin(RationalPhase.of(2 * t))


def tlj_dim(A: RationalPhase, j: int) -> float:
    """(-1)^j [j+1] at Kauffman variable e^{2*pi*i*A}."""
    t = A.as_fraction()
    denom = math.sin(2 * math.pi * float((2 * t) % 1))
    num = math.sin(2 * math.pi * float((2 * (j + 1) * t) % 1))
    return (-1) ** j * num / denom


def quantum_dimension(M, j) -> float:
    """Signed product of the per-fiber Kauffman quantum dimensions of the
    character with degree row j."""
    out = 1.0
    for f, jk in zip(M.fibers, j):
        out *= tlj_dim(f.A, jk)
    return out


def a4_order(A_phase: RationalPhase) -> int:
    """The order r of A^4 as a root of unity, taken in Fraction."""
    return RationalPhase.of(4 * A_phase.as_fraction()).denominator


def total_dim(A_phase: RationalPhase) -> float:
    """sqrt(2r)/|A^2 - A^-2| for the Kauffman data at A."""
    t = A_phase.as_fraction()
    r = a4_order(A_phase)
    return math.sqrt(2 * r) / abs(2 * phase_sin(RationalPhase.of(2 * t)))


def tlj_twists(A_phase: RationalPhase) -> tuple[RationalPhase, ...]:
    """theta_j = (-A)^{j(j+2)} for j = 0..r-2, r the order of A^4."""
    minus_A = A_phase.as_fraction() + Fraction(1, 2)
    return tuple(RationalPhase.of(j * (j + 2) * minus_A) for j in range(a4_order(A_phase) - 1))


def su2_twists(k: int) -> tuple[RationalPhase, ...]:
    """theta_j = e^{2 pi i j(j+2) / 4(k+2)} for j = 0..k."""
    return tuple(RationalPhase.of(Fraction(j * (j + 2), 4 * (k + 2))) for j in range(k + 1))
