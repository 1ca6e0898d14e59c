"""Support extraction, hulls, faces, semi-norms, depth bounds.

Diagram-backed cases reuse the floer fixtures (four-punctured grid:
two classes one lattice step apart; genus-bumped grid: a single fat
class).  Everything metric is also exercised on randomly fabricated
supports with a fixed seed, where the properties (triangle inequality,
homogeneity, vertex bounds, face disjointness, translation invariance)
must hold for purely convex-geometric reasons.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest

from sfhpoly import exactalg
from sfhpoly.floer import homology
from sfhpoly.polytope import (
    EmptySupport,
    Support,
    ZeroRank,
    build_polytope,
    depth_upper_bound,
    face_query,
    knot_depth_bound,
    seminorm_y,
    support_points,
    symmetrized_z,
)
from conftest import torus_grid
from test_floer import genus_bump


@pytest.fixture
def grid_four_poly():
    d = torus_grid(("S00", "S01", "S10", "S11"))
    s = support_points(homology(d))
    return s, build_polytope(s)


def test_support_two_classes(grid_four_poly):
    s, _ = grid_four_poly
    assert s.anchor == 0
    assert [dim for _, dim in s.points] == [1, 1]
    assert s.points[0][0] == (0,)
    assert abs(s.points[1][0][0]) == 2
    assert s.total_rank == 2


def test_support_product(disk_product):
    s = support_points(homology(disk_product))
    assert s.points == (((), 1),) and s.ambient_dim == 0


def test_support_empty(pants_bigon, grid_rect):
    for d in (pants_bigon, grid_rect):
        with pytest.raises(EmptySupport):
            support_points(homology(d))


def test_support_single_fat_point(grid_rect):
    # the genus bump adds a surface handle: two free H1 classes survive
    s = support_points(homology(genus_bump(grid_rect, "S10")))
    assert s.points == (((0, 0), 2),)
    p = build_polytope(s)
    assert p.dim == 0 and p.total_rank == 2 and not p.full_dimensional


def test_polytope_segment(grid_four_poly):
    s, p = grid_four_poly
    assert p.dim == 1 and p.b1 == 1 and p.full_dimensional
    assert sorted(p.centered.vertices) == [(-1,), (1,)]
    assert len(p.raw.vertices) == 2


def test_polytope_ambient_zero(disk_product):
    s = support_points(homology(disk_product))
    p = build_polytope(s)
    assert p.dim == 0 and p.centered.vertices == ((),)
    assert seminorm_y(p, ()) == 0


def test_face_queries(grid_four_poly):
    s, p = grid_four_poly
    whole = face_query(p, s, (0,))
    assert whole.face_dimension == 2 and len(whole.face_points) == 2
    lo = face_query(p, s, (1,))
    hi = face_query(p, s, (-1,))
    assert lo.face_dimension == 1 and hi.face_dimension == 1
    assert set(lo.face_points).isdisjoint(hi.face_points)
    assert lo.c_min == min(pt[0] for pt, _ in s.points)
    assert hi.c_min == -max(pt[0] for pt, _ in s.points)


def test_seminorms_segment(grid_four_poly):
    _, p = grid_four_poly
    assert seminorm_y(p, (1,)) == 1
    assert seminorm_y(p, (-1,)) == 1
    assert seminorm_y(p, (0,)) == 0
    assert symmetrized_z(p, (1,)) == 1
    assert seminorm_y(p, (Fraction(3, 2),)) == Fraction(3, 2)


def test_depth_bounds():
    assert [depth_upper_bound(r) for r in (1, 2, 3, 4, 7, 8)] \
        == [0, 2, 2, 4, 4, 6]
    assert [knot_depth_bound(r) for r in (1, 3, 4)] == [1, 3, 5]
    for bad in (0, -3):
        with pytest.raises(ZeroRank):
            depth_upper_bound(bad)
        with pytest.raises(ZeroRank):
            knot_depth_bound(bad)


# ---------------------------------------------------------------------------
# properties on fabricated supports


def random_support(rng: random.Random, ambient: int = 2) -> Support:
    count = rng.randint(1, 6)
    pts = tuple(
        (tuple(2 * rng.randint(-4, 4) for _ in range(ambient)),
         rng.randint(1, 3))
        for _ in range(count))
    return Support(pts, 0)


def rand_alpha(rng: random.Random, ambient: int):
    return tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                 for _ in range(ambient))


def test_seminorm_properties():
    rng = random.Random(23)
    for _ in range(30):
        s = random_support(rng)
        p = build_polytope(s)
        assert p.dim <= p.b1
        assert len(p.raw.vertices) <= s.total_rank
        a = rand_alpha(rng, 2)
        b = rand_alpha(rng, 2)
        ya, yb = seminorm_y(p, a), seminorm_y(p, b)
        yab = seminorm_y(p, tuple(x + y for x, y in zip(a, b)))
        assert yab <= ya + yb
        k = Fraction(rng.randint(0, 6), rng.randint(1, 4))
        assert seminorm_y(p, tuple(k * x for x in a)) == k * ya
        assert symmetrized_z(p, a) == symmetrized_z(p, tuple(-x for x in a))
        assert ya >= 0


def test_face_disjointness_full_dim():
    rng = random.Random(5)
    tried = 0
    while tried < 20:
        s = random_support(rng)
        p = build_polytope(s)
        if not p.full_dimensional:
            continue
        tried += 1
        alpha = tuple(rng.randint(-3, 3) for _ in range(2))
        if not any(alpha):
            continue
        lo = face_query(p, s, alpha)
        hi = face_query(p, s, tuple(-x for x in alpha))
        assert set(lo.face_points).isdisjoint(hi.face_points)


def test_translation_invariance():
    rng = random.Random(71)
    for _ in range(15):
        s = random_support(rng)
        shift = tuple(rng.randint(-5, 5) for _ in range(2))
        moved = Support(tuple((tuple(x + t for x, t in zip(pt, shift)), dim)
                              for pt, dim in s.points), s.anchor)
        p, q = build_polytope(s), build_polytope(moved)
        assert sorted(p.centered.vertices) == sorted(q.centered.vertices)
        a = rand_alpha(rng, 2)
        assert seminorm_y(p, a) == seminorm_y(q, a)


def test_symmetric_support_z_equals_y():
    pts = (((2, 0), 1), ((-2, 0), 1), ((0, 2), 2), ((0, -2), 2))
    p = build_polytope(Support(pts, 0))
    rng = random.Random(3)
    for _ in range(10):
        a = rand_alpha(rng, 2)
        assert symmetrized_z(p, a) == seminorm_y(p, a)


def test_norms_match_their_definitions():
    rng = random.Random(41)
    for ambient in (1, 2, 3):
        for _ in range(10):
            p = build_polytope(random_support(rng, ambient))
            a = rand_alpha(rng, ambient)
            neg = tuple(-x for x in a)

            def y(alpha):
                return max([Fraction(0)] + [-sum(x * c for x, c in zip(alpha, v))
                                            for v in p.centered.vertices])
            assert seminorm_y(p, a) == y(a)
            assert symmetrized_z(p, a) == (y(a) + y(neg)) / 2
            assert type(seminorm_y(p, a)) is Fraction
            assert type(symmetrized_z(p, a)) is Fraction


# ---------------------------------------------------------------------------
# the integer queries against their Fraction definitions


def _translate(p: exactalg.RatPolytope, shift) -> exactalg.RatPolytope:
    """p moved by shift in Fraction arithmetic, vertex by vertex."""
    vertices = tuple(tuple(x + s for x, s in zip(v, shift))
                     for v in p.vertices)
    facets = tuple(
        (normal, offset + sum(n * s for n, s in zip(normal, shift)))
        for normal, offset in p.facets)
    centroid = tuple(x + s for x, s in zip(p.centroid, shift))
    return exactalg.RatPolytope(p.ambient_dim, vertices, facets, p.dim,
                                centroid)


def oracle_support(rng: random.Random, ambient: int) -> Support:
    """1 to 18 points in an affine subspace of dimension at most ambient,
    drawn towards the higher dimensions."""
    k = ambient - min(rng.randint(0, ambient), rng.randint(0, ambient))
    basis = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(k)]
    origin = [rng.randint(-6, 6) for _ in range(ambient)]
    pts = []
    for _ in range(rng.randint(1, 18)):
        c = [rng.randint(-3, 3) for _ in range(k)]
        pts.append((tuple(o + sum(x * row[j] for x, row in zip(c, basis))
                          for j, o in enumerate(origin)),
                    rng.randint(1, 3)))
    return Support(tuple(pts), 0)


def oracle_classes(rng: random.Random, ambient: int):
    """The zero class, int classes and Fraction classes with denominators
    up to 10^6."""
    big = 10 ** 6
    return [(0,) * ambient, (Fraction(0),) * ambient,
            tuple(rng.randint(-9, 9) for _ in range(ambient)),
            tuple(Fraction(rng.randint(-big, big), rng.randint(1, big))
                  for _ in range(ambient)),
            tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                  for _ in range(ambient))]


def test_integer_queries_match_fraction_definitions():
    rng = random.Random(2608)
    for ambient in range(5):
        for _ in range(16):
            s = oracle_support(rng, ambient)
            p = build_polytope(s)
            assert p.centered == _translate(
                p.raw, tuple(-c for c in p.raw.centroid))
            assert all(type(x) is Fraction
                       for x in (*(x for v in p.centered.vertices for x in v),
                                 *(off for _, off in p.centered.facets),
                                 *p.centered.centroid))
            verts = p.centered.vertices
            for a in oracle_classes(rng, ambient):
                fa = [Fraction(x) for x in a]

                def y(alpha):
                    return max([Fraction(0)]
                               + [-sum(map(mul, alpha, v)) for v in verts])
                want_y = y(fa)
                want_z = (want_y + y([-x for x in fa])) / 2
                got_y, got_z = seminorm_y(p, a), symmetrized_z(p, a)
                assert (got_y, got_z) == (want_y, want_z)
                assert type(got_y) is Fraction and type(got_z) is Fraction

                pairings = [sum(map(mul, fa, pt)) for pt, _ in s.points]
                c_min = min(pairings)
                face = [pd for v, pd in zip(pairings, s.points)
                        if v == c_min]
                res = face_query(p, s, a)
                assert type(res.c_min) is Fraction and res.c_min == c_min
                assert res.face_points == tuple(pt for pt, _ in face)
                assert res.face_dimension == sum(d for _, d in face)
                assert res.alpha == tuple(a)


@pytest.mark.parametrize("query", ["face", "y", "z"])
def test_queries_refuse_a_class_of_the_wrong_length(grid_four_poly, query):
    rng = random.Random(9)
    s, p = grid_four_poly
    two_d = random_support(rng, 2)
    q = build_polytope(two_d)
    for support, poly, alpha in ((s, p, (1, 1)), (s, p, ()),
                                 (two_d, q, (1,)), (two_d, q, (1, 0, 2))):
        with pytest.raises(ValueError):
            if query == "face":
                face_query(poly, support, alpha)
            elif query == "y":
                seminorm_y(poly, alpha)
            else:
                symmetrized_z(poly, alpha)


# ---------------------------------------------------------------------------
# one placing per polytope, checked by the cones from its centroid


SQUARE = Support((((0, 0), 1), ((2, 0), 1), ((0, 2), 1), ((2, 2), 1)), 0)


def test_build_polytope_places_each_support_once(monkeypatch):
    calls = Counter()
    for name in ("_placing", "_affine_reduce"):
        real = getattr(exactalg, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(exactalg, name, counted)
    rng = random.Random(13)
    for s in [SQUARE] + [random_support(rng, 3) for _ in range(5)]:
        calls.clear()
        p = build_polytope(s)
        placed = 1 if p.dim > 0 else 0
        assert calls == Counter(_placing=placed, _affine_reduce=1)


SEGMENT = Support((((0,), 1), ((2,), 1), ((4,), 1)), 0)


def _dropping_the_last(simplices):
    return simplices[:-1]


def _repeating_the_first(simplices):
    # the square's two triangles have equal areas: the volume still adds
    # up, only the barycentre moves
    return simplices[:-1] + simplices[:1]


def _six_copies_of_the_first(simplices):
    # six copies of [0, 1] in the segment [0, 2], centroid 1/2: the cones
    # from 1/2 have the right first moment, only their volume is wrong
    return simplices[:1] * 6


@pytest.mark.parametrize("support, fault", [
    (SQUARE, _dropping_the_last),
    (SQUARE, _repeating_the_first),
    (SEGMENT, _six_copies_of_the_first),
])
def test_cone_check_catches_a_faulty_placing(monkeypatch, support, fault):
    real = exactalg._placing

    def faulty(coords, start):
        simplices, boundary = real(coords, start)
        return fault(simplices), boundary
    monkeypatch.setattr(exactalg, "_placing", faulty)
    with pytest.raises(AssertionError, match="cones from the centroid"):
        build_polytope(support)


def _repeated_start_point(real, coords, start):
    # the first simplex repeats its first point and drops its last: in the
    # segment the repeated point's face has the barycentre on it (side 0),
    # in the square that face has rank 0 and no normal
    return real(coords, start[:1] + start[:-1])


def _raised_offsets(real, coords, start):
    simplices, boundary = real(coords, start)
    return simplices, {face: (normal, offset + 1, content)
                       for face, (normal, offset, content) in boundary.items()}


def _no_simplices(real, coords, start):
    return [], real(coords, start)[1]


def _a_zero_normal(real, coords, start):
    simplices, boundary = real(coords, start)
    face, (normal, offset, content) = next(iter(boundary.items()))
    return simplices, {**boundary, face: ((0,) * len(normal), offset, content)}


@pytest.mark.parametrize("support, fault, message", [
    (SEGMENT, _repeated_start_point, "flat boundary simplex"),
    (SQUARE, _repeated_start_point, "flat boundary simplex"),
    (SQUARE, _raised_offsets, "point outside facet"),
    (SEGMENT, _no_simplices, "zero volume"),
    (SQUARE, _a_zero_normal, "zero facet normal"),
])
def test_hull_checks_catch_a_faulty_placing(monkeypatch, support, fault,
                                            message):
    real = exactalg._placing
    monkeypatch.setattr(exactalg, "_placing",
                        lambda coords, start: fault(real, coords, start))
    with pytest.raises(AssertionError, match=message):
        build_polytope(support)
