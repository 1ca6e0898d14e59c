"""Builder constructions against frozen small cases.

The torus-suture family T(p, q; n) has one homology class per lattice
point i in [0, p(k+1)) with dimension C(k, floor(i/p)), k = (n-2)/2.
Gluing a T(1, 0; n1) chain onto a T(p, q; m2) chain multiplies the two
class-dimension sequences with the first factor's index scaled by p.
"""

from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from sfhpoly.builders import (BadParams, SameDiagramCircle, build_base,
                              build_elementary_piece, build_tpqn, glue,
                              relabel, stabilize)
from sfhpoly.diagram import (euler_measure, h1_presentation, is_nice,
                             periodic_lattice, validate)
from sfhpoly.floer import (Exact, ZeroCertificate, connecting_domain,
                           differential, enumerate_generators, epsilon,
                           homology, maslov_index, partition_spinc)
from sfhpoly.polytope import build_polytope, support_points

GOLDEN = ((1, 0, 2), (1, 0, 4), (1, 0, 6), (1, 0, 8), (2, 1, 2),
          (2, 1, 4), (3, 1, 2), (3, 2, 4), (5, 2, 2))


def binomial_dims(p: int, n: int) -> list[int]:
    k = (n - 2) // 2
    return [comb(k, i // p) for i in range(p * (k + 1))]


def dims_by_position(table) -> list[int]:
    """Class dimensions along the rank-1 free part, flip-normalized."""
    assert table.b1 == 1 and table.torsion == ()
    rows = sorted(table.classes, key=lambda c: c.free_coords[0])
    pos = [c.free_coords[0] for c in rows]
    assert pos == list(range(pos[0], pos[0] + len(pos)))
    dims = [c.dimension for c in rows]
    return min(dims, dims[::-1])


def convolve(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (p * (len(a) - 1) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[p * i + j] += x * y
    return out


def chain_end(p: int, q: int, n: int) -> str:
    k = (n - 2) // 2
    return f"e{k - 1}_s2" if k else "s1"


def two_generator_class(d):
    gens = enumerate_generators(d)
    assign = partition_spinc(d, gens)
    counts = Counter(a.class_id for a in assign)
    cid = next(c for c, m in counts.items() if m == 2)
    return [gens[i] for i in range(len(gens)) if assign[i].class_id == cid]


@pytest.mark.parametrize("make", [
    lambda: build_base(1, 0),
    lambda: build_base(2, 1),
    lambda: build_base(5, 2),
    build_elementary_piece,
    lambda: build_tpqn(3, 2, 4),
    lambda: stabilize(build_base(2, 1), "r0"),
    lambda: relabel(build_tpqn(1, 0, 6), "c_"),
])
def test_builders_validate(make):
    assert validate(make()).ok


@pytest.mark.parametrize("p,q", [(0, 1), (-2, 1), (4, 2), (6, 3)])
def test_base_bad_params(p, q):
    with pytest.raises(BadParams):
        build_base(p, q)


@pytest.mark.parametrize("p,q,n", [(1, 0, 3), (1, 0, 0), (2, 1, -2),
                                   (2, 4, 4)])
def test_tpqn_bad_params(p, q, n):
    with pytest.raises(BadParams):
        build_tpqn(p, q, n)


def test_base_shape():
    d = build_base(1, 0)
    assert len(d.regions) == 1
    assert len(d.regions[0].boundary_cycles) == 3
    assert d.regions[0].circles == ("s0", "s1")
    rep = validate(d)
    assert rep.ok
    assert [(c.euler, c.boundary_count, c.genus) for c in rep.components] \
        == [(-2, 2, 1)]

    d = build_base(3, 1)
    assert [r.name for r in d.regions] == ["r0", "r1", "r2"]
    assert [str(s) for s in d.regions[0].arc_cycles[0]] \
        == ["+a.0", "+b.1", "-a.1", "-b.0"]
    assert d.regions[2].circles == ("s0",)
    assert d.regions[1].circles == ("s1",)
    assert periodic_lattice(d).rank == 0
    assert validate(d).components[0].genus == 1


def test_base_homology():
    t = homology(build_base(3, 1))
    assert t.dims == (1, 1, 1)
    assert all(c.gen_count == 1 for c in t.classes)

    d = build_base(2, 1)
    t = homology(d)
    assert (t.b1, t.torsion) == (1, ())
    assert dims_by_position(t) == [1, 1]
    supp = support_points(t)
    assert sorted(p[0] for p, _ in supp.points) == [0, 2]
    assert build_polytope(supp).dim == 1

    gens = enumerate_generators(d)
    diff = differential(d, gens, partition_spinc(d, gens))
    assert isinstance(diff, Exact)
    assert not diff.entries


def test_base_epsilon_steps():
    d = build_base(3, 1)
    gens = enumerate_generators(d)
    h1 = h1_presentation(d)
    steps = [h1.free_part(epsilon(d, gens[s + 1], gens[s])) for s in range(2)]
    assert steps == [(1,), (1,)]


def test_elementary_frozen():
    d = build_elementary_piece()
    rep = validate(d)
    assert rep.ok
    assert [(c.euler, c.boundary_count, c.genus) for c in rep.components] \
        == [(-2, 4, 0)]
    assert all(euler_measure(r) == Fraction(-1, 2) for r in d.regions)

    gens = enumerate_generators(d)
    assert [str(g) for g in gens] == ["{u}", "{v}"]
    t = homology(d)
    assert t.dims == (1, 1)
    assert (t.b1, t.torsion) == (1, ())
    h1 = h1_presentation(d)
    assert h1.free_part(epsilon(d, gens[1], gens[0])) == (-1,)


def test_glue_pair_frozen():
    e = build_elementary_piece()
    g6 = glue(e, "s2", relabel(e, "m_"), "m_s1")
    assert [r.name for r in g6.regions] \
        == ["r1", "r2", "r3_m_r2", "r4", "m_r1", "m_r3", "m_r4"]
    merged = g6.regions[2]
    assert not merged.touches_boundary
    assert len(merged.boundary_cycles) == 2
    assert euler_measure(merged) == -1

    t = homology(g6)
    assert dims_by_position(t) == [1, 2, 1]
    assert all(set(c.gradings) == {0} for c in t.classes)

    x, y = two_generator_class(g6)
    dom = connecting_domain(g6, x, y)
    names = [r.name for r in g6.regions]
    support = {names[i]: m for i, m in enumerate(dom.multiplicities) if m}
    assert support == {"r3_m_r2": 1}
    assert maslov_index(g6, dom, x, y) == 0
    back = connecting_domain(g6, y, x)
    assert {names[i]: m for i, m in enumerate(back.multiplicities) if m} \
        == {"r3_m_r2": -1}
    assert maslov_index(g6, back, y, x) == 0


def test_glue_auto_prefix():
    g = glue(build_elementary_piece(), "s2", build_elementary_piece(), "s1")
    assert sorted(r.name for r in g.regions) \
        == ["r1", "r2", "r3_x_r2", "r4", "x_r1", "x_r3", "x_r4"]
    assert dims_by_position(homology(g)) == [1, 2, 1]


def test_glue_errors():
    e = build_elementary_piece()
    with pytest.raises(SameDiagramCircle):
        glue(e, "s2", e, "s1")
    other = build_elementary_piece()
    with pytest.raises(ValueError):
        glue(e, "nope", other, "s1")
    with pytest.raises(ValueError):
        glue(e, "s2", other, "nope")


def test_glue_symmetry():
    e = build_elementary_piece()
    m = relabel(build_elementary_piece(), "m_")
    a = homology(glue(e, "s2", m, "m_s1"))
    b = homology(glue(m, "m_s1", e, "s2"))
    assert dims_by_position(a) == dims_by_position(b)
    assert (a.b1, a.torsion) == (b.b1, b.torsion)


@pytest.mark.parametrize("p,q,n", GOLDEN)
def test_tpqn_golden(p, q, n):
    t = homology(build_tpqn(p, q, n))
    assert dims_by_position(t) == binomial_dims(p, n)
    assert all(len(set(c.gradings)) == 1 for c in t.classes)


def test_tpqn_nice_cases():
    for p, q, n in ((1, 0, 2), (5, 2, 2), (1, 0, 4)):
        d = build_tpqn(p, q, n)
        assert is_nice(d).nice
        gens = enumerate_generators(d)
        diff = differential(d, gens, partition_spinc(d, gens))
        assert isinstance(diff, Exact)
        assert not diff.entries


def test_tpqn_zero_certificate():
    d = build_tpqn(1, 0, 6)
    assert not is_nice(d).nice
    gens = enumerate_generators(d)
    diff = differential(d, gens, partition_spinc(d, gens))
    assert isinstance(diff, ZeroCertificate)

    x, y = two_generator_class(d)
    dom = connecting_domain(d, x, y)
    names = [r.name for r in d.regions]
    support = {names[i]: m for i, m in enumerate(dom.multiplicities) if m}
    assert support == {"e0_r3_e1_r2": 1}
    assert maslov_index(d, dom, x, y) == 0
    interior = {r.name for r in d.regions if not r.touches_boundary}
    assert set(support) <= interior


@pytest.mark.parametrize("n1,p,q,m2", [
    (2, 2, 1, 2), (4, 2, 1, 2), (4, 1, 0, 4), (6, 2, 1, 2),
    (4, 3, 1, 2), (4, 2, 1, 4), (2, 3, 2, 4), (4, 5, 2, 2),
])
def test_tensor_law(n1, p, q, m2):
    a = build_tpqn(1, 0, n1)
    b = build_tpqn(p, q, m2)
    glued = glue(a, chain_end(1, 0, n1), b, chain_end(p, q, m2))
    got = dims_by_position(homology(glued))
    want = convolve(dims_by_position(homology(a)),
                    dims_by_position(homology(b)), p)
    assert got == min(want, want[::-1])
    assert got == dims_by_position(homology(build_tpqn(p, q, n1 + m2 - 2)))


@pytest.mark.parametrize("make,region", [
    (lambda: build_base(2, 1), "r0"),
    (lambda: build_tpqn(1, 0, 6), "e1_r3"),
    (lambda: build_tpqn(2, 1, 4), "e0_r1"),
])
def test_stabilize_invariance(make, region):
    d = make()
    base_dims = dims_by_position(homology(d))
    once = stabilize(d, region)
    assert validate(once).ok
    assert dims_by_position(homology(once)) == base_dims
    twice = stabilize(once, region)
    assert {c.name for c in twice.curves} - {c.name for c in d.curves} \
        == {"ast0", "bst0", "ast1", "bst1"}
    assert dims_by_position(homology(twice)) == base_dims


def test_stabilize_unknown_region():
    with pytest.raises(ValueError):
        stabilize(build_elementary_piece(), "nope")


def test_relabel_preserves_homology():
    d = build_tpqn(1, 0, 6)
    r = relabel(d, "c_")
    assert validate(r).ok
    assert dims_by_position(homology(r)) == dims_by_position(homology(d))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_support_collinear(k):
    t = homology(build_tpqn(1, 0, 2 * k + 2))
    supp = support_points(t)
    pts = sorted(p[0] for p, _ in supp.points)
    assert pts == [-2 * m for m in range(k, -1, -1)]
    poly = build_polytope(supp)
    assert poly.b1 == 1
    assert poly.dim == (1 if k else 0)
    if k:
        assert sorted(poly.centered.vertices) \
            == [(Fraction(-k),), (Fraction(k),)]
