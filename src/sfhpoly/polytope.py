"""The homology-support polytope, its faces, semi-norms, depth bounds.

Each generator class with nonzero homology contributes one lattice point
in Z^b1: twice the free part of its coset, relative to the first
surviving class.  The polytope is the exact convex hull of these points;
a centered copy (centroid at the origin) is the translation-invariant
normal form.  The semi-norm y maximizes <-c, alpha> over the centered
vertices, and z symmetrizes it.  Depth bounds are functions of the total
rank alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .exactalg import RatPolytope, body_centroid, convex_hull


class EmptySupport(ValueError):
    """All homology classes vanish: no polytope (non-taut presentation)."""


class ZeroRank(ValueError):
    """Depth bounds need a positive total rank."""


# ---------------------------------------------------------------------------
# support


@dataclass(frozen=True)
class Support:
    """Lattice points with dimensions, anchored at the first nonzero class."""

    points: tuple[tuple[tuple[int, ...], int], ...]
    anchor: int

    @property
    def ambient_dim(self) -> int:
        return len(self.points[0][0]) if self.points else 0

    @property
    def total_rank(self) -> int:
        return sum(dim for _, dim in self.points)


def support_points(table) -> Support:
    """Twice the free coset coordinates of every class with dimension > 0."""
    alive = [c for c in table.classes if c.dimension > 0]
    if not alive:
        raise EmptySupport("every class has homology dimension zero")
    anchor = alive[0]
    pts = tuple(
        (tuple(2 * (a - b) for a, b in zip(c.free_coords,
                                           anchor.free_coords)),
         c.dimension)
        for c in alive)
    return Support(pts, anchor.class_id)


# ---------------------------------------------------------------------------
# polytope


@dataclass(frozen=True)
class SfhPolytope:
    """Raw and centered hulls of a support."""

    raw: RatPolytope
    centered: RatPolytope
    b1: int
    total_rank: int

    @property
    def dim(self) -> int:
        return self.raw.dim

    @property
    def full_dimensional(self) -> bool:
        return self.raw.dim == self.b1


def _translate(p: RatPolytope, shift: tuple[Fraction, ...]) -> RatPolytope:
    vertices = tuple(tuple(x + s for x, s in zip(v, shift))
                     for v in p.vertices)
    facets = tuple(
        (normal, offset + sum(n * s for n, s in zip(normal, shift)))
        for normal, offset in p.facets)
    centroid = tuple(x + s for x, s in zip(p.centroid, shift))
    return RatPolytope(p.ambient_dim, vertices, facets, p.dim, centroid)


def build_polytope(s: Support) -> SfhPolytope:
    """The hull of the support and its copy centred at its body centroid.

    convex_hull checks the centroid against a second triangulation, so the
    support is triangulated once.
    """
    raw = convex_hull([pt for pt, _ in s.points])
    if len(raw.vertices) > s.total_rank:
        raise AssertionError("more hull vertices than supported generators")
    centered = _translate(raw, tuple(-c for c in body_centroid(raw)))
    return SfhPolytope(raw, centered, s.ambient_dim, s.total_rank)


# ---------------------------------------------------------------------------
# faces


@dataclass(frozen=True)
class FaceResult:
    """Support points minimizing the pairing with a query class."""

    alpha: tuple[int, ...]
    c_min: Fraction
    face_points: tuple[tuple[int, ...], ...]
    face_dimension: int


def _check_length(alpha, ambient: int) -> None:
    if len(alpha) != ambient:
        raise ValueError(f"class has {len(alpha)} coordinates, "
                         f"the polytope lives in dimension {ambient}")


def face_query(p: SfhPolytope, s: Support,
               alpha: tuple[int, ...]) -> FaceResult:
    _check_length(alpha, s.ambient_dim)
    pairings = [(sum(c * a for c, a in zip(pt, alpha)), pt, dim)
                for pt, dim in s.points]
    c_min = min(v for v, _, _ in pairings)
    face = [(pt, dim) for v, pt, dim in pairings if v == c_min]
    return FaceResult(tuple(alpha), Fraction(c_min),
                      tuple(pt for pt, _ in face),
                      sum(dim for _, dim in face))


# ---------------------------------------------------------------------------
# semi-norms


def _pairings(p: SfhPolytope, alpha) -> list[Fraction]:
    """<c, alpha> for each centered vertex c."""
    _check_length(alpha, p.b1)
    a = [Fraction(x) for x in alpha]
    return [sum(map(mul, a, v)) for v in p.centered.vertices]


def seminorm_y(p: SfhPolytope, alpha) -> Fraction:
    """max of <-c, alpha> over the centered vertices."""
    return max(Fraction(0), -min(_pairings(p, alpha)))


def symmetrized_z(p: SfhPolytope, alpha) -> Fraction:
    """(y(alpha) + y(-alpha)) / 2, from one pairing per vertex."""
    pairings = _pairings(p, alpha)
    return (max(Fraction(0), -min(pairings))
            + max(Fraction(0), max(pairings))) / 2


# ---------------------------------------------------------------------------
# depth


def depth_upper_bound(rank: int) -> int:
    """2k for the least k with rank < 2^(k+1)."""
    if rank < 1:
        raise ZeroRank("depth bound needs rank >= 1")
    return 2 * (rank.bit_length() - 1)


def knot_depth_bound(top_rank: int) -> int:
    return depth_upper_bound(top_rank) + 1
