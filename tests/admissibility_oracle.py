"""The per-label admissibility loops that the array form of
`pipeline.admissibility_report` replaced.

The Gauss sum is a Python `sum` over labels, and the relating subgroup,
s(X) and the orbit partition are set comprehensions over labels and central
representations.  The tests require every field of the library's report to
equal this one, with the same types.
"""

import cmath
import math

from mtcforge.algebra import DEFAULT_TOL
from mtcforge.pipeline import AdmissibilityReport


def admissibility_report(C):
    tol = DEFAULT_TOL
    inv2tor = 1.0 / (2.0 * C.torsions)
    total = float(inv2tor.sum())
    cs, L = C.cs_residues, C.cs_den
    gauss = abs(sum(cmath.exp(-2j * math.pi * (x / L)) * w for x, w in zip(cs.tolist(), inv2tor)))
    unit = 0
    classification = tuple(
        "bosonic" if act.is_bosonic else "fermionic" if act.is_fermionic else "neither"
        for act in C.central_actions
    )
    g0 = []
    for act in C.central_actions:
        img = act.permutation[unit]
        if cs[img] == cs[unit] and abs(C.torsions[img] - C.torsions[unit]) <= tol * C.torsions[unit]:
            g0.append(act)
    s_X = sorted({act.permutation[unit] for act in g0})
    s_L = math.sqrt(2) if any(act.is_fermionic for act in g0) else 1.0
    seen = set()
    orbits = []
    for i in range(C.rank):
        if i in seen:
            continue
        orbit = sorted({act.permutation[i] for act in g0} | {i})
        seen.update(orbit)
        orbits.append(tuple(C.labels[j] for j in orbit))
    target = math.sqrt(len(s_X)) / (s_L * math.sqrt(2.0 * C.torsions[unit]))
    admissible = abs(total - 1.0) < tol and abs(gauss - target) < tol
    return AdmissibilityReport(
        total, gauss, target, tuple(C.labels[i] for i in s_X), s_L,
        tuple(orbits), classification, admissible,
    )
