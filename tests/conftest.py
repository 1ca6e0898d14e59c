"""Hand-built synthetic diagrams used across the test suite.

Each fixture was worked out by hand from the walk/quadrant rules; the
comments record the intended surface so the frozen expectations below make
sense.  Region naming convention: interior regions first where convenient.
"""

from __future__ import annotations

import dataclasses

import pytest

from sfhpoly.diagram import Curve, Diagram, Region, Segment


def seg(curve: str, arc: int, sign: int) -> Segment:
    return Segment(curve, arc, sign > 0)


def with_genus(d: Diagram, genus: int) -> Diagram:
    """d with the genus of its first region set to genus."""
    first = dataclasses.replace(d.regions[0], genus=genus)
    return dataclasses.replace(d, regions=(first,) + d.regions[1:])


def curve_graph_boundary(d: Diagram) -> list[list[int]]:
    """The boundary map bd of H1's curve graph: a row per point of the
    prepared context, a column per arc, curve by curve, then per boundary
    circle (a zero column); one zero row when there are no points.  The
    diagram need not be valid."""
    s = d._scan
    arcs = [(c, k) for c in d.curves for k in range(len(c.points))]
    n = len(arcs) + len(d.boundary_circles)
    row = {p: i for i, p in enumerate(s.points)}
    bd = [[0] * n for _ in s.points] or [[0] * n]
    for j, (c, k) in enumerate(arcs):
        start, end = c.arc_ends(k)
        bd[row[end]][j] += 1
        bd[row[start]][j] -= 1
    return bd


def two_core_curves() -> tuple[Curve, Curve]:
    """One alpha and one beta meeting at u and v."""
    return (Curve("alpha", "a", ("u", "v")),
            Curve("beta", "b", ("u", "v")))


@pytest.fixture
def annulus_isotopic() -> Diagram:
    """Annulus, alpha and beta both cores, two bigons on opposite sides.

    Periodic lattice rank 1 with mixed signs (the two bigons are parallel
    copies of each other with opposite orientations); admissible.
    """
    a, b = two_core_curves()
    return Diagram(
        alpha_curves=(a,),
        beta_curves=(b,),
        boundary_circles=("s0", "s1"),
        regions=(
            Region("big1", 0, ((seg("a", 0, +1), seg("b", 0, -1)),)),
            Region("big2", 0, ((seg("b", 1, +1), seg("a", 1, -1)),)),
            Region("outU", 0, ((seg("b", 0, +1), seg("a", 1, +1)), "s0")),
            Region("outL", 0, ((seg("a", 0, -1), seg("b", 1, -1)), "s1")),
        ),
    )


@pytest.fixture
def annulus_slack() -> Diagram:
    """Annulus with two interior bigons pointing in opposite directions.

    The two bigons stack to a positive periodic domain (rank 1, all
    multiplicities +1), so the diagram is not admissible.
    """
    a, b = two_core_curves()
    return Diagram(
        alpha_curves=(a,),
        beta_curves=(b,),
        boundary_circles=("s0", "s1"),
        regions=(
            Region("up", 0, ((seg("a", 0, +1), seg("b", 0, -1)),)),
            Region("dn", 0, ((seg("a", 0, -1), seg("b", 1, -1)),)),
            Region("outU", 0, ((seg("b", 0, +1), seg("a", 1, +1)), "s0")),
            Region("outL", 0, ((seg("b", 1, +1), seg("a", 1, -1)), "s1")),
        ),
    )


@pytest.fixture
def pants_bigon() -> Diagram:
    """annulus_slack with the downward bigon punctured: pair of pants.

    Periodic lattice 0; nice; exactly one empty bigon, from {u} to {v}.
    """
    a, b = two_core_curves()
    return Diagram(
        alpha_curves=(a,),
        beta_curves=(b,),
        boundary_circles=("s0", "s1", "s2"),
        regions=(
            Region("up", 0, ((seg("a", 0, +1), seg("b", 0, -1)),)),
            Region("dn", 0, ((seg("a", 0, -1), seg("b", 1, -1)), "s2")),
            Region("outU", 0, ((seg("b", 0, +1), seg("a", 1, +1)), "s0")),
            Region("outL", 0, ((seg("b", 1, +1), seg("a", 1, -1)), "s1")),
        ),
    )


def _pair(n: int):
    """Formats an index pair (i, j) of an n x n grid as ij, or as i_j from
    n = 12 on, where ij collides: p110 would be both (1, 10) and (11, 0)."""
    return "{}_{}".format if n >= 12 else "{}{}".format


def torus_grid(punctured: tuple[str, ...], n: int = 2) -> Diagram:
    """n x n grid on the torus; the named squares get one puncture each.

    Square Sij runs +a_i.j, +b_{j+1}.i, -a_{i+1}.j, -b_j.i (indices mod n).
    Puncturing Sii and S_i,i+k for every i gives the grid diagram G(n, k)
    of a knot with 2n meridional sutures.  Square and point ids join the
    indices as _pair(n) does.
    """
    ij = _pair(n)
    alphas = tuple(Curve("alpha", f"a{i}",
                         tuple(f"p{ij(i, j)}" for j in range(n)))
                   for i in range(n))
    betas = tuple(Curve("beta", f"b{j}",
                        tuple(f"p{ij(i, j)}" for i in range(n)))
                  for j in range(n))
    circles = tuple(f"s{k}" for k in range(len(punctured)))
    by_square = {name: f"s{k}" for k, name in enumerate(punctured)}
    regions = []
    for i in range(n):
        for j in range(n):
            name = f"S{ij(i, j)}"
            walk = (seg(f"a{i}", j, +1), seg(f"b{(j + 1) % n}", i, +1),
                    seg(f"a{(i + 1) % n}", j, -1), seg(f"b{j}", i, -1))
            cycles: tuple = (walk,)
            if name in by_square:
                cycles = (walk, by_square[name])
            regions.append(Region(name, 0, cycles))
    return Diagram(alphas, betas, circles, tuple(regions))


def grid_knot(n: int, k: int) -> Diagram:
    """G(n, k): the n x n torus grid punctured at Sii and S_i,i+k."""
    ij = _pair(n)
    return torus_grid(tuple(f"S{ij(i, j)}" for i in range(n)
                            for j in sorted({i, (i + k) % n})), n)


@pytest.fixture
def grid_diag() -> Diagram:
    """Torus grid punctured on a diagonal: rank-1 mixed lattice, admissible."""
    return torus_grid(("S00", "S11"))


@pytest.fixture
def grid_adjacent() -> Diagram:
    """Torus grid punctured on one row: rank-1 positive lattice."""
    return torus_grid(("S00", "S01"))


@pytest.fixture
def grid_rect() -> Diagram:
    """Torus grid with three punctures: lattice 0, one empty rectangle."""
    return torus_grid(("S00", "S01", "S11"))


@pytest.fixture
def disk_product() -> Diagram:
    """No curves over a disk: the product sutured manifold of a ball."""
    return Diagram((), (), ("s0",), (Region("r0", 0, ("s0",)),))


@pytest.fixture
def annulus_product() -> Diagram:
    """No curves over an annulus: product sutured manifold, b1 = 1."""
    return Diagram((), (), ("s0", "s1"), (Region("r0", 0, ("s0", "s1")),))
