"""The homology-support polytope, its faces, semi-norms, depth bounds.

Each generator class with nonzero homology contributes one lattice point
in Z^b1: twice the free part of its coset, relative to the first
surviving class.  The polytope is the exact convex hull of these points;
a centered copy (centroid at the origin) is the translation-invariant
normal form.  The semi-norm y maximizes <-c, alpha> over the centered
vertices, and z symmetrizes it.  The centered vertices are kept once per
polytope as integer rows over one denominator q, and a query class is
scaled to integers over the lcm e of its denominators, so y, z and faces
pair integers and build one Fraction over q e.  Depth bounds are
functions of the total rank alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
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
    """Raw and centered hulls of a support.

    scaled is (q, rows): q times each centered vertex is the int row.
    """

    raw: RatPolytope
    centered: RatPolytope
    b1: int
    total_rank: int
    scaled: tuple[int, tuple[tuple[int, ...], ...]] = field(repr=False)

    @property
    def dim(self) -> int:
        return self.raw.dim

    @property
    def full_dimensional(self) -> bool:
        return self.raw.dim == self.b1


def _centre(raw: RatPolytope):
    """(centered, q, rows): raw moved to centroid 0, rows = q v - q g."""
    g = body_centroid(raw)
    q = lcm(*[x.denominator for v in raw.vertices + (g,) for x in v])
    qg = [x.numerator * (q // x.denominator) for x in g]
    rows = tuple(tuple(x.numerator * (q // x.denominator) - s
                       for x, s in zip(v, qg)) for v in raw.vertices)
    centered = RatPolytope(
        raw.ambient_dim, tuple(tuple(Fraction(x, q) for x in r) for r in rows),
        tuple((n, off - Fraction(sum(map(mul, n, qg)), q))
              for n, off in raw.facets),
        raw.dim, tuple(Fraction(0) for _ in g))
    return centered, q, rows


def build_polytope(s: Support) -> SfhPolytope:
    """The hull of the support and its copy centred at its body centroid.

    convex_hull checks the centroid against a second triangulation, so the
    support is triangulated once.
    """
    raw = convex_hull([pt for pt, _ in s.points])
    if len(raw.vertices) > s.total_rank:
        raise AssertionError("more hull vertices than supported generators")
    centered, q, rows = _centre(raw)
    return SfhPolytope(raw, centered, s.ambient_dim, s.total_rank, (q, rows))


def _scaled(alpha, ambient: int) -> tuple[int, list[int]]:
    """(e, e alpha): a rational class as ints over the lcm e of its
    denominators."""
    if len(alpha) != ambient:
        raise ValueError(f"class has {len(alpha)} coordinates, "
                         f"the polytope lives in dimension {ambient}")
    e = lcm(*[x.denominator for x in alpha])
    return e, [x.numerator * (e // x.denominator) for x in alpha]


# ---------------------------------------------------------------------------
# faces


@dataclass(frozen=True)
class FaceResult:
    """Support points minimizing the pairing with a query class."""

    alpha: tuple[Fraction | int, ...]
    c_min: Fraction
    face_points: tuple[tuple[int, ...], ...]
    face_dimension: int


def face_query(p: SfhPolytope, s: Support,
               alpha: tuple[Fraction | int, ...]) -> FaceResult:
    e, a = _scaled(alpha, s.ambient_dim)
    pairings = [sum(map(mul, a, pt)) for pt, _ in s.points]
    c_min = min(pairings)
    face = [point for v, point in zip(pairings, s.points) if v == c_min]
    return FaceResult(tuple(alpha), Fraction(c_min, e),
                      tuple(pt for pt, _ in face),
                      sum(dim for _, dim in face))


# ---------------------------------------------------------------------------
# semi-norms


def _pairings(p: SfhPolytope, alpha) -> tuple[int, list[int]]:
    """(q e, [q e <c, alpha> for each centered vertex c])."""
    e, a = _scaled(alpha, p.b1)
    q, rows = p.scaled
    return q * e, [sum(map(mul, a, r)) for r in rows]


def seminorm_y(p: SfhPolytope, alpha) -> Fraction:
    """max of <-c, alpha> over the centered vertices."""
    den, pairings = _pairings(p, alpha)
    return Fraction(max(0, -min(pairings)), den)


def symmetrized_z(p: SfhPolytope, alpha) -> Fraction:
    """(y(alpha) + y(-alpha)) / 2, from one pairing per vertex."""
    den, pairings = _pairings(p, alpha)
    return Fraction(max(0, -min(pairings)) + max(0, max(pairings)), 2 * den)


# ---------------------------------------------------------------------------
# depth


def depth_upper_bound(rank: int) -> int:
    """2k for the least k with rank < 2^(k+1)."""
    if rank < 1:
        raise ZeroRank("depth bound needs rank >= 1")
    return 2 * (rank.bit_length() - 1)


def knot_depth_bound(top_rank: int) -> int:
    return depth_upper_bound(top_rank) + 1
