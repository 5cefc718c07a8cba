"""Worst-case translational forces of synchronized dipole arrays.

Builds the linear map from a shared dipole-moment direction to the
symmetric gradient-force matrix at a field point, analyzes its algebraic
structure (Gram spectrum, invariant planes, equivariant splits), and
computes the worst-case force magnitude over all unit moments together
with a certified chain of bounds.
"""

__version__ = "0.1.0"

# the names of the README quick start and scripts/, and the types those calls return
from .algebra import PlanarStructure, find_invariant_planes, planar_structure
from .dipoles import DipoleConfig, MagneticAlgebra, build_algebra
from .extremal import Branch, ExtremalReport, bounds_report

__all__ = [
    "Branch", "DipoleConfig", "ExtremalReport", "MagneticAlgebra", "PlanarStructure",
    "bounds_report", "build_algebra", "find_invariant_planes", "planar_structure",
]
