"""Exact calculator for sutured Floer homology from surface diagrams.

A balanced sutured manifold is presented by a diagram: a compact surface
with boundary, alpha and beta curves, and regions whose boundary cycles
are closed walks of curve arcs plus boundary circles.  The package
computes, over the two-element field and with exact rational arithmetic
throughout, the homology class partition of generators, the counting
differential when combinatorics determines it, per-class homology
dimensions with relative gradings, the support polytope with its faces
and semi-norms, and depth bounds from total rank.

Modules: exactalg (integer/rational linear algebra and hulls), diagram
(surface data, validation, first homology), floer (generators, domains,
index, differential, homology), polytope (supports, hulls, norms,
depth), builders (the torus-suture family and gluing), shdcli (the .shd
file format and command line).
"""

from .builders import (BadParams, SameDiagramCircle, build_base,
                       build_elementary_piece, build_tpqn, glue, relabel,
                       stabilize)
from .diagram import (Curve, Diagram, Disconnected, H1Presentation, Region,
                      Segment, UndecidedBeyondBound, euler_measure,
                      h1_presentation, is_admissible, is_nice,
                      periodic_lattice, validate)
from .exactalg import (LinearSolver, body_centroid, convex_hull,
                       gf2_rank_kernel, integer_kernel_basis,
                       smith_normal_form, unimodular_inverse)
from .floer import (ClassRow, DifferentialUndetermined, Domain, Exact,
                    Generator, LatticeNotZero, NoDomain, NonIntegerIndex,
                    NonUnique, SFHTable, SpinAssignment, Undetermined,
                    ZeroCertificate, connecting_domain, differential,
                    enumerate_generators, epsilon, homology, maslov_index,
                    partition_spinc)
from .polytope import (EmptySupport, FaceResult, SfhPolytope, Support,
                       ZeroRank, build_polytope, depth_upper_bound,
                       face_query, knot_depth_bound, seminorm_y,
                       support_points, symmetrized_z)

# shdcli is loaded on first use (PEP 562), so that `python -m sfhpoly.shdcli`
# does not find the module already imported by the package.
_SHDCLI_NAMES = frozenset({"DuplicateIdentifier", "ParseError",
                           "UndeclaredIdentifier", "emit_shd", "main",
                           "parse_shd", "run_command"})


def __getattr__(name: str):
    if name in _SHDCLI_NAMES:
        from . import shdcli
        return getattr(shdcli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BadParams", "ClassRow", "Curve", "Diagram", "DifferentialUndetermined",
    "Disconnected", "Domain", "DuplicateIdentifier", "EmptySupport", "Exact",
    "FaceResult", "Generator", "H1Presentation", "LatticeNotZero",
    "LinearSolver", "NoDomain", "NonIntegerIndex", "NonUnique", "ParseError",
    "Region", "SFHTable", "SameDiagramCircle", "Segment", "SfhPolytope",
    "SpinAssignment", "Support", "UndecidedBeyondBound",
    "UndeclaredIdentifier", "Undetermined", "ZeroCertificate", "ZeroRank",
    "body_centroid", "build_base", "build_elementary_piece",
    "build_polytope", "build_tpqn", "connecting_domain", "convex_hull",
    "depth_upper_bound", "differential", "emit_shd", "enumerate_generators",
    "epsilon", "euler_measure", "face_query", "gf2_rank_kernel", "glue",
    "h1_presentation", "homology", "integer_kernel_basis", "is_admissible",
    "is_nice", "knot_depth_bound", "main", "maslov_index", "parse_shd",
    "partition_spinc", "periodic_lattice", "relabel", "run_command",
    "seminorm_y", "smith_normal_form", "stabilize",
    "support_points", "symmetrized_z", "unimodular_inverse", "validate",
]
