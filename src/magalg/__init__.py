"""Worst-case translational forces of synchronized dipole arrays.

Builds the linear map from a shared dipole-moment direction to the
symmetric gradient-force matrix at a field point, analyzes its algebraic
structure (Gram spectrum, invariant planes, equivariant splits), and
computes the worst-case force magnitude over all unit moments together
with a certified chain of bounds.
"""

__version__ = "0.1.0"

from .algebra import (
    AlgebraCheck,
    Decomposition,
    GramSpectrum,
    NotInvariantPlaneError,
    PlanarStructure,
    PLANARITY_TOL,
    TrivialAlgebraError,
    check_algebra,
    decompose,
    find_invariant_planes,
    gram_spectrum,
    plane_residual,
    planar_structure,
)
from .dipoles import (
    DipoleConfig,
    EPS_DIST,
    FORCE_PREFACTOR,
    MagneticAlgebra,
    MU0_OVER_4PI,
    SingularFieldPointError,
    build_algebra,
    field_B,
    force,
    gen_cubic_lattice,
    gen_mirror_symmetric,
    gen_pair,
    gradient_matrix,
    p_vector,
)
from .extremal import (
    Branch,
    Candidate,
    CandidateKind,
    ExtremalReport,
    TheoremCheck,
    WorstCase,
    bounds_report,
    lambda_MF_closed_form,
    lambda_bar_bruteforce,
    lambda_bar_exact,
    lambda_plane,
    locate_candidates,
    plane_gram_moment,
    principal_abs,
    sampling_tolerance,
    verify_theorems,
)
from .linalg3 import (
    EigenTriple,
    cross_matrix,
    eig_traceless,
    principal_axis,
    rot_about,
    unit,
    vec3,
)

__all__ = [
    "AlgebraCheck", "Branch", "Candidate", "CandidateKind",
    "Decomposition", "DipoleConfig", "EigenTriple", "ExtremalReport",
    "GramSpectrum", "MagneticAlgebra", "NotInvariantPlaneError",
    "PlanarStructure", "PLANARITY_TOL", "SingularFieldPointError",
    "TheoremCheck", "TrivialAlgebraError", "WorstCase",
    "EPS_DIST", "FORCE_PREFACTOR", "MU0_OVER_4PI",
    "build_algebra", "bounds_report", "check_algebra", "cross_matrix",
    "decompose", "eig_traceless", "field_B", "find_invariant_planes",
    "force", "gen_cubic_lattice", "gen_mirror_symmetric", "gen_pair",
    "gradient_matrix", "gram_spectrum", "lambda_MF_closed_form",
    "lambda_bar_bruteforce", "lambda_bar_exact", "lambda_plane", "locate_candidates",
    "plane_gram_moment", "plane_residual", "planar_structure",
    "principal_abs", "principal_axis", "p_vector", "rot_about",
    "sampling_tolerance", "unit", "vec3", "verify_theorems",
]
