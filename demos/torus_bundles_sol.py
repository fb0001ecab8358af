"""Torus bundles with Anosov monodromy: closed forms against the oracle.

For N = a+d+2 odd and c invertible mod N the character list is two unipotent
(reducible but indecomposable) characters plus (N-1)/2 rotation characters.
The closed-form torsions N and N/4 are re-derived here from the explicit
twisted cell complex of the bundle, and the assembled data lands exactly on
the integral level-two orthogonal catalog entry.
"""

import numpy as np

from mtcforge import (
    build_adjoint_complexes,
    chain_torsions,
    find_transparent,
    make_torus_bundle,
    torus_candidate,
)
from mtcforge.catalog import soN2_adjoint
from mtcforge.pipeline import admissibility_report, certify
from mtcforge.torus_bundle import connecting_word

np.set_printoptions(precision=6, suppress=True, linewidth=120)

for mono in [(2, 1, 1, 1), (4, 1, 3, 1), (2, 17, 1, 9)]:
    T = make_torus_bundle(*mono)
    print("=" * 70)
    print(f"monodromy {mono}: N = {T.N}, c~ = {T.c_tilde}, m = {T.m}")
    print(f"connecting chain of the 3-cell (x,y exponents -> coeff): {connecting_word(T)}")

    C = torus_candidate(T)
    print(f"\n{'label':>8} {'CS':>8} {'closed Tor':>12} {'oracle Tor':>14} {'dim':>5} {'twist':>8}")
    results = chain_torsions(build_adjoint_complexes(T, C.characters))
    for i, res in enumerate(results):
        print(f"{C.labels[i]:>8} {str(C.cs[i]):>8} {C.torsions[i]:12.6f} "
              f"{res.value:14.9f} {C.data.dims[i]:5.1f} {str(C.data.twists[i]):>8}")

    ref = soN2_adjoint(T.N, T.m)
    cert = certify(C, ref)
    rep = find_transparent(C.data)
    adm = admissibility_report(C)
    print(f"\ncertified against the orthogonal level-two catalog: "
          f"{'PASS' if cert.passed else 'FAIL'} (max |dS| = {cert.max_s_delta:.2e})")
    print(f"transparent labels {list(rep.transparent_labels)}: properly premodular, "
          f"never modular")
    print(f"|Gauss sum| = {adm.gauss_sum_modulus:.9f} = 1/sqrt(N) = {T.N ** -0.5:.9f}; "
          f"s(X) = {list(adm.s_X)}, all central twists bosonic")
