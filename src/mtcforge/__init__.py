"""Candidate modular data from non-hyperbolic 3-manifolds.

Closed-form Chern-Simons values, adjoint torsions, and loop-operator trace
weights assemble candidate S/T data from three-fiber Seifert spaces and
Anosov torus bundles; the results are certified against independently built
premodular categories and a generic chain-complex torsion oracle.
"""

from .algebra import RationalPhase
from .catalog import (
    ModularData,
    ModularityReport,
    find_transparent,
    graded_product,
    s_det_modulus,
    soN2_adjoint,
    su2_level,
    tlj_data,
    verlinde_fusion,
)
from .pipeline import (
    AdmissibilityReport,
    CandidateData,
    Certificate,
    admissibility_report,
    certify,
    sfs_candidate,
    torus_candidate,
)
from .seifert import (
    SeifertData,
    central_reps,
    make_sfs,
    z2_homology_sphere,
)
from .torsion_engine import BasedChainComplex, TorsionResult, chain_torsion, chain_torsions
from .torus_bundle import (
    TorusCharacter,
    TorusMonodromy,
    build_adjoint_complex,
    build_adjoint_complexes,
    enumerate_torus_characters,
    make_torus_bundle,
    torus_torsion,
)

__version__ = "0.1.0"
