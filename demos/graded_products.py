"""Sector-wise products of Z2-graded theories and the parity dichotomy.

The graded product keeps only matching-parity label pairs.  Products of the
unitary level-m and level-n quantum SU(2) theories are modular exactly when
m and n differ in parity (the trivial (0,0) product being the one vacuous
exception), and the mixed-parity rank-6 product splits famous constants
across its S and T matrices.
"""

import numpy as np

from mtcforge import find_transparent, graded_product, s_det_modulus, su2_level, verlinde_fusion
from mtcforge.catalog import fusion_defects

np.set_printoptions(precision=6, suppress=True, linewidth=120)

print("parity table: 'M' = modular product, '.' = properly premodular")
print("   n:  " + "  ".join(str(n) for n in range(7)))
for m in range(7):
    row = []
    for n in range(7):
        D = graded_product(su2_level(m), su2_level(n))
        row.append("M" if find_transparent(D).is_modular else ".")
    print(f"m = {m}:  " + "  ".join(row))

print("\nthe rank-6 mixed product of levels 2 and 3:")
D = graded_product(su2_level(2), su2_level(3))
print("labels: ", D.labels)
print("S-matrix:")
print(D.s_tilde.real)
print("T diagonal:", np.round(D.theta(), 6))

N = verlinde_fusion(D)
integ, assoc = fusion_defects(N)
print(f"\nVerlinde fusion: integrality defect {integ:.2e}, associativity defect {assoc:.2e}")
for i in range(D.rank):
    for j in range(i, D.rank):
        parts = []
        for k in range(D.rank):
            mult = round(N[i, j, k])
            if mult:
                parts.append(D.labels[k] if mult == 1 else f"{mult}*{D.labels[k]}")
        print(f"  {D.labels[i]} x {D.labels[j]} = " + " + ".join(parts))

print("\na same-parity product keeps a transparent label:")
D2 = graded_product(su2_level(2), su2_level(4))
rep = find_transparent(D2)
print(f"levels (2,4): transparent = {list(rep.transparent_labels)}, "
      f"|det(S/D)| = {s_det_modulus(D2):.3e}")
