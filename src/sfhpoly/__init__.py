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

The package root exports the names below; every other name is imported
from its module, e.g. `from sfhpoly.shdcli import parse_shd`.  The root
does not import shdcli, so `python -m sfhpoly.shdcli` finds it unloaded.
"""

from .builders import build_tpqn, glue
from .diagram import (Curve, Diagram, Region, Segment, euler_measure,
                      is_admissible, is_nice, periodic_lattice, validate)
from .floer import homology
from .polytope import (build_polytope, depth_upper_bound, face_query,
                       knot_depth_bound, seminorm_y, support_points,
                       symmetrized_z)

__all__ = [
    "Curve", "Diagram", "Region", "Segment", "build_polytope", "build_tpqn",
    "depth_upper_bound", "euler_measure", "face_query", "glue", "homology",
    "is_admissible", "is_nice", "knot_depth_bound", "periodic_lattice",
    "seminorm_y", "support_points", "symmetrized_z", "validate",
]
