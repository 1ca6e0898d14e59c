"""Generators, eps partition, domains, Maslov indices, homology.

Frozen values were computed by hand on the conftest fixtures: the pants
bigon connects {u} to {v} with index 1, the three-punctured grid has one
empty rectangle S10 from (p01,p10) to (p00,p11), and the four-punctured
grid splits its two generators into distinct classes with H1 = Z.
A brute-force search over small multiplicity vectors double-checks every
connecting-domain answer against the raw region cycles.
"""

from __future__ import annotations

import gc
import io
import itertools
import json
import random
import weakref
from collections import Counter
from math import gcd

import pytest

from sfhpoly import diagram, exactalg, floer
from sfhpoly.builders import (build_base, build_elementary_piece, build_tpqn,
                              glue, stabilize)
from sfhpoly.diagram import (Curve, Diagram, Region, diagram_index,
                             h1_presentation)
from sfhpoly.floer import (
    DifferentialUndetermined,
    Domain,
    Exact,
    LatticeNotZero,
    NoDomain,
    NonIntegerIndex,
    NonUnique,
    SpinAssignment,
    Undetermined,
    ZeroCertificate,
    connecting_domain,
    differential,
    enumerate_generators,
    epsilon,
    homology,
    maslov_index,
    partition_spinc,
)
from sfhpoly.shdcli import emit_shd, run_command
from conftest import grid_knot, seg, torus_grid
from test_builders import dims_by_position
from test_diagram import PROPERTY_POOL, torsion_pair


@pytest.fixture
def grid_four() -> Diagram:
    return torus_grid(("S00", "S01", "S10", "S11"))


@pytest.fixture
def pants_rev() -> Diagram:
    """Pair of pants with the upward bigon punctured instead: {v} -> {u}."""
    a = Curve("alpha", "a", ("u", "v"))
    b = Curve("beta", "b", ("u", "v"))
    return Diagram((a,), (b,), ("s0", "s1", "s2"), (
        Region("up", 0, ((seg("a", 0, +1), seg("b", 0, -1)), "s2")),
        Region("dn", 0, ((seg("a", 0, -1), seg("b", 1, -1)),)),
        Region("outU", 0, ((seg("b", 0, +1), seg("a", 1, +1)), "s0")),
        Region("outL", 0, ((seg("b", 1, +1), seg("a", 1, -1)), "s1")),
    ))


def genus_bump(d: Diagram, target: str) -> Diagram:
    bumped = tuple(r if r.name != target else
                   Region(r.name, 1, r.boundary_cycles) for r in d.regions)
    return Diagram(d.alpha_curves, d.beta_curves, d.boundary_circles, bumped)


def hand_stabilized(d: Diagram, target: str) -> Diagram:
    """Add a one-point alpha/beta pair living inside an existing region."""
    za = Curve("alpha", "zs", ("w",))
    zb = Curve("beta", "zt", ("w",))
    square = (seg("zs", 0, +1), seg("zt", 0, +1),
              seg("zs", 0, -1), seg("zt", 0, -1))
    regions = tuple(r if r.name != target else
                    Region(r.name, r.genus, r.boundary_cycles + (square,))
                    for r in d.regions)
    return Diagram(d.alpha_curves + (za,), d.beta_curves + (zb,),
                   d.boundary_circles, regions)


# ---------------------------------------------------------------------------
# generator enumeration


def test_generators_core(pants_bigon):
    gens = enumerate_generators(pants_bigon)
    assert [g.matching for g in gens] == [((("a", "u")),), (("a", "v"),)]
    assert gens[0].points == ("u",)


def test_generators_grid(grid_rect):
    gens = enumerate_generators(grid_rect)
    assert [g.points for g in gens] == [("p00", "p11"), ("p01", "p10")]


def test_generators_empty_matching(disk_product):
    gens = enumerate_generators(disk_product)
    assert len(gens) == 1 and gens[0].matching == ()


# ---------------------------------------------------------------------------
# eps and the class partition


def test_epsilon_self_vanishes(pants_bigon, grid_rect):
    for d in (pants_bigon, grid_rect):
        gens = enumerate_generators(d)
        zero = epsilon(d, gens[0], gens[0])
        assert not any(zero)
        assert epsilon(d, gens[-1], gens[-1]) == zero


def test_single_class_fixtures(pants_bigon, grid_rect, grid_diag):
    for d in (pants_bigon, grid_rect, grid_diag):
        gens = enumerate_generators(d)
        assigns = partition_spinc(d, gens)
        assert {a.class_id for a in assigns} == {0}


def test_two_classes_grid_four(grid_four):
    gens = enumerate_generators(grid_four)
    assigns = partition_spinc(d=grid_four, gens=gens)
    assert [a.class_id for a in assigns] == [0, 1]
    assert not any(assigns[0].coset_rep)
    assert any(assigns[1].coset_rep)


def _epsilon_reference(d: Diagram, x, y) -> tuple[int, ...]:
    """eps(x, y) by the chain walk: every curve is walked through its own
    point list from x's point to y's, alpha paths minus beta paths."""
    beta_of = {p: c.name for c in d.beta_curves for p in c.points}
    xa, ya = dict(x.matching), dict(y.matching)
    xb = {beta_of[p]: p for p in x.points}
    yb = {beta_of[p]: p for p in y.points}
    chain: dict = {}

    def add_path(curve: Curve, start: str, stop: str, coeff: int) -> None:
        k, stop_i = curve.points.index(start), curve.points.index(stop)
        while k != stop_i:
            chain[curve.name, k] = chain.get((curve.name, k), 0) + coeff
            k = (k + 1) % len(curve.points)

    for c in d.alpha_curves:
        add_path(c, xa[c.name], ya[c.name], 1)
    for c in d.beta_curves:
        add_path(c, xb[c.name], yb[c.name], -1)
    return h1_presentation(d).reduce_chain(chain)


EPSILON_POOL = dict(PROPERTY_POOL)
EPSILON_POOL.update({
    "T(1,0;10)": lambda: build_tpqn(1, 0, 10),
    "grid_rect_hand_stabilized_S10": lambda: hand_stabilized(
        torus_grid(("S00", "S01", "S11")), "S10"),
})


@pytest.mark.parametrize("name", EPSILON_POOL)
def test_epsilon_matches_chain_walk_reference(name):
    d = EPSILON_POOL[name]()
    gens = enumerate_generators(d)
    for x, y in itertools.product(gens, repeat=2):
        assert epsilon(d, x, y) == _epsilon_reference(d, x, y)


PARTITION_POOL = dict(PROPERTY_POOL)
PARTITION_POOL.update({
    "T(1,0;10)": lambda: build_tpqn(1, 0, 10),
    "G(3,1)": lambda: grid_knot(3, 1),
    "G(4,1)": lambda: grid_knot(4, 1),
    "G(5,2)": lambda: grid_knot(5, 2),
    "T(2,1;2)+T(2,1;2)": torsion_pair,
})


@pytest.mark.parametrize("name", PARTITION_POOL)
def test_partition_matches_pairwise_epsilon(name):
    """The per-point sums give the classes and cosets of one epsilon call
    per generator against the first."""
    d = PARTITION_POOL[name]()
    gens = enumerate_generators(d)
    reps: dict = {}
    want = []
    for g in gens:
        rep = epsilon(d, g, gens[0])
        want.append(SpinAssignment(reps.setdefault(rep, len(reps)), rep))
    assert partition_spinc(d, gens) == tuple(want)


def test_epsilon_cocycle(pants_bigon, grid_rect, grid_four, grid_diag):
    for d in (pants_bigon, grid_rect, grid_four, grid_diag):
        gens = enumerate_generators(d)
        h1 = h1_presentation(d)
        for x, y, z in itertools.product(gens, repeat=3):
            lhs = tuple(a + b - c for a, b, c in
                        zip(epsilon(d, x, y), epsilon(d, y, z),
                            epsilon(d, x, z)))
            assert not any(h1.normalize(lhs))


# ---------------------------------------------------------------------------
# connecting domains


def test_domain_zero_on_equal(pants_bigon, disk_product):
    for d in (pants_bigon, disk_product):
        gens = enumerate_generators(d)
        dom = connecting_domain(d, gens[0], gens[0])
        assert dom == Domain((0,) * len(d.regions))


def test_domain_bigon(pants_bigon):
    gu, gv = enumerate_generators(pants_bigon)
    assert connecting_domain(pants_bigon, gu, gv) == Domain((1, 0, 0, 0))
    assert connecting_domain(pants_bigon, gv, gu) == Domain((-1, 0, 0, 0))


def test_domain_rectangle(grid_rect):
    g0, g1 = enumerate_generators(grid_rect)
    assert connecting_domain(grid_rect, g1, g0) == Domain((0, 0, 1, 0))
    assert connecting_domain(grid_rect, g0, g1) == Domain((0, 0, -1, 0))


def test_domain_cross_class(grid_four):
    g0, g1 = enumerate_generators(grid_four)
    assert connecting_domain(grid_four, g0, g1) == NoDomain()
    assert connecting_domain(grid_four, g1, g0) == NoDomain()


def test_domain_non_unique(annulus_isotopic, annulus_slack):
    for d in (annulus_isotopic, annulus_slack):
        gens = enumerate_generators(d)
        dom = connecting_domain(d, gens[0], gens[1])
        assert isinstance(dom, NonUnique) and dom.lattice.rank == 1


def test_domain_exists_iff_eps_zero(pants_bigon, grid_rect, grid_four):
    for d in (pants_bigon, grid_rect, grid_four):
        gens = enumerate_generators(d)
        for x, y in itertools.product(gens, repeat=2):
            dom = connecting_domain(d, x, y)
            assert isinstance(dom, Domain) == (not any(epsilon(d, x, y)))


def _jump_from_cycles(d: Diagram, m, curve: Curve, arc: int) -> int:
    t = 0
    for mult, r in zip(m, d.regions):
        if not mult:
            continue
        for cyc in r.arc_cycles:
            for sg in cyc:
                if sg.curve == curve.name and sg.arc == arc:
                    t += mult if sg.forward else -mult
    return t


def _oracle_connects(d: Diagram, m, x, y) -> bool:
    """Check a full multiplicity vector against the raw region cycles."""
    s = diagram_index(d)
    for mult, r in zip(m, d.regions):
        if mult and r.touches_boundary:
            return False
    xa, ya = dict(x.matching), dict(y.matching)
    xb = {s.point_beta[p][0]: p for p in x.points}
    yb = {s.point_beta[p][0]: p for p in y.points}
    for c in d.curves:
        n = len(c.points)
        for k, p in enumerate(c.points):
            jump_in = _jump_from_cycles(d, m, c, (k - 1) % n)
            jump_out = _jump_from_cycles(d, m, c, k)
            if c.kind == "alpha":
                want = (ya.get(c.name) == p) - (xa.get(c.name) == p)
            else:
                want = (xb.get(c.name) == p) - (yb.get(c.name) == p)
            if jump_in - jump_out != want:
                return False
    return True


def test_domain_against_bruteforce(pants_bigon, pants_rev, grid_rect,
                                   grid_four):
    for d in (pants_bigon, pants_rev, grid_rect, grid_four):
        interior = [i for i, r in enumerate(d.regions)
                    if not r.touches_boundary]
        gens = enumerate_generators(d)
        for x, y in itertools.product(gens, repeat=2):
            found = []
            for vals in itertools.product(range(-3, 4), repeat=len(interior)):
                m = [0] * len(d.regions)
                for i, v in zip(interior, vals):
                    m[i] = v
                if _oracle_connects(d, m, x, y):
                    found.append(tuple(m))
            dom = connecting_domain(d, x, y)
            if isinstance(dom, Domain):
                assert found == [dom.multiplicities]
            else:
                assert found == []


# ---------------------------------------------------------------------------
# Maslov indices


def test_maslov_frozen(pants_bigon, grid_rect):
    gu, gv = enumerate_generators(pants_bigon)
    zero = Domain((0,) * 4)
    assert maslov_index(pants_bigon, zero, gu, gu) == 0
    up = connecting_domain(pants_bigon, gu, gv)
    assert maslov_index(pants_bigon, up, gu, gv) == 1
    dn = connecting_domain(pants_bigon, gv, gu)
    assert maslov_index(pants_bigon, dn, gv, gu) == -1

    g0, g1 = enumerate_generators(grid_rect)
    rect = connecting_domain(grid_rect, g1, g0)
    assert maslov_index(grid_rect, rect, g1, g0) == 1
    assert maslov_index(grid_rect, connecting_domain(grid_rect, g0, g1),
                        g0, g1) == -1


def test_maslov_additive(pants_bigon, grid_rect):
    # the class-anchored domain table rests on this additivity
    rng = random.Random(6)
    for d in (pants_bigon, grid_rect, build_tpqn(1, 0, 6),
              build_tpqn(2, 1, 4), hand_stabilized(grid_rect, "S10"),
              build_tpqn(1, 0, 12)):
        gens = enumerate_generators(d)
        classes: dict[int, list] = {}
        for g, a in zip(gens, partition_spinc(d, gens)):
            classes.setdefault(a.class_id, []).append(g)
        for members in classes.values():
            triples = list(itertools.product(members, repeat=3))
            if len(triples) > 200:
                triples = rng.sample(triples, 200)
            for x, y, z in triples:
                dxy = connecting_domain(d, x, y)
                dyz = connecting_domain(d, y, z)
                dxz = connecting_domain(d, x, z)
                total = Domain(tuple(a + b for a, b in
                                     zip(dxy.multiplicities,
                                         dyz.multiplicities)))
                assert total == dxz
                assert maslov_index(d, dxy, x, y) + \
                    maslov_index(d, dyz, y, z) == maslov_index(d, dxz, x, z)


# ---------------------------------------------------------------------------
# differential


def test_differential_bigon(pants_bigon):
    gens = enumerate_generators(pants_bigon)
    res = differential(pants_bigon, gens, partition_spinc(pants_bigon, gens))
    assert isinstance(res, Exact)
    assert res.entries == ((0, 1),)


def test_differential_bigon_reverse(pants_rev):
    gens = enumerate_generators(pants_rev)
    res = differential(pants_rev, gens, partition_spinc(pants_rev, gens))
    assert res.entries == ((1, 0),)


def test_differential_rectangle(grid_rect):
    gens = enumerate_generators(grid_rect)
    res = differential(grid_rect, gens, partition_spinc(grid_rect, gens))
    assert res.entries == ((1, 0),)


def test_differential_no_classmates(grid_four):
    gens = enumerate_generators(grid_four)
    res = differential(grid_four, gens, partition_spinc(grid_four, gens))
    assert res == Exact(())


def test_differential_lattice_guard(annulus_isotopic, annulus_slack):
    for d in (annulus_isotopic, annulus_slack):
        gens = enumerate_generators(d)
        with pytest.raises(LatticeNotZero):
            differential(d, gens, partition_spinc(d, gens))


def test_differential_zero_certificate(grid_rect):
    d = genus_bump(grid_rect, "S10")
    gens = enumerate_generators(d)
    res = differential(d, gens, partition_spinc(d, gens))
    assert res == ZeroCertificate()


def test_differential_undetermined(grid_rect):
    d = hand_stabilized(grid_rect, "S10")
    gens = enumerate_generators(d)
    res = differential(d, gens, partition_spinc(d, gens))
    assert res == Undetermined()
    with pytest.raises(DifferentialUndetermined):
        homology(d)


def _pairwise_reference(d: Diagram):
    """The differential and the gradings from one solve per in-class pair.

    Every ordered pair of class-mates gets its own connecting_domain and
    maslov_index; a positive index-1 domain is an entry on a nice diagram
    when it has multiplicities <= 1, moves one or two coordinates and is
    empty at the shared points, and is undetermined on any other diagram.
    The gradings are -mu of the domain from each class's first member.
    """
    gens = enumerate_generators(d)
    if diagram.periodic_lattice(d).rank:
        return LatticeNotZero, None
    s = diagram_index(d)
    nice = diagram.is_nice(d).nice
    by_class: dict[int, list[int]] = {}
    for i, a in enumerate(partition_spinc(d, gens)):
        by_class.setdefault(a.class_id, []).append(i)
    classes = [by_class[c] for c in sorted(by_class)]
    ones = set()
    undetermined = False
    for members in classes:
        for i, j in itertools.permutations(members, 2):
            x, y = gens[i], gens[j]
            dom = connecting_domain(d, x, y)
            assert isinstance(dom, Domain)
            m = dom.multiplicities
            if min(m) < 0 or maslov_index(d, dom, x, y) != 1:
                continue
            moved = sum(p != q for (_, p), (_, q)
                        in zip(x.matching, y.matching))
            empty = all(sum(m[r] for r in s.quadrant[p].values()) == 0
                        for p in set(x.points) & set(y.points))
            if not nice:
                undetermined = True
            elif max(m) <= 1 and 1 <= moved <= 2 and empty:
                ones.add((i, j))
    if undetermined:
        result = Undetermined()
    elif nice:
        result = Exact(tuple(sorted(ones)))
    else:
        result = ZeroCertificate()
    gradings = []
    for members in classes:
        a = gens[members[0]]
        gradings.append(tuple(
            -maslov_index(d, connecting_domain(d, a, gens[g]), a, gens[g])
            for g in members))
    return result, gradings


ORACLE_POOL = {
    "grid_rect": lambda: torus_grid(("S00", "S01", "S11")),
    "grid_four": lambda: torus_grid(("S00", "S01", "S10", "S11")),
    "grid_diag": lambda: torus_grid(("S00", "S11")),
    "grid_adjacent": lambda: torus_grid(("S00", "S01")),
    "grid_rect_bumped": lambda: genus_bump(
        torus_grid(("S00", "S01", "S11")), "S10"),
    "grid_rect_hand_stabilized_S00": lambda: hand_stabilized(
        torus_grid(("S00", "S01", "S11")), "S00"),
    "grid_rect_hand_stabilized_S10": lambda: hand_stabilized(
        torus_grid(("S00", "S01", "S11")), "S10"),
    "grid_rect_stabilized_S10": lambda: stabilize(
        torus_grid(("S00", "S01", "S11")), "S10"),
    "base_2_1": lambda: build_base(2, 1),
    "base_3_2": lambda: build_base(3, 2),
    "base_5_2": lambda: build_base(5, 2),
    "elementary_piece": build_elementary_piece,
    "G(3,1)": lambda: grid_knot(3, 1),
    "G(4,1)": lambda: grid_knot(4, 1),
    "G(5,2)": lambda: grid_knot(5, 2),
}
ORACLE_POOL.update({
    f"T({p},{q};{n})": (lambda p=p, q=q, n=n: build_tpqn(p, q, n))
    for p in range(1, 6) for q in range(p) if gcd(p, q) == 1
    for n in range(2, 11, 2)})


def doubled_tpqn(p: int, q: int, n: int) -> Diagram:
    """T(p,q;n) glued to itself along s0: its jump system's Smith form has
    the diagonal entry p, so a domain is X / L with L = p."""
    return glue(build_tpqn(p, q, n), "s0", build_tpqn(p, q, n), "s0")


SCALED_POOL = {
    "T(2,1;4)+T(2,1;4)": lambda: doubled_tpqn(2, 1, 4),
    "T(3,1;4)+T(3,1;4)": lambda: doubled_tpqn(3, 1, 4),
}
ORACLE_POOL.update(SCALED_POOL)


@pytest.mark.parametrize("name", ORACLE_POOL)
def test_differential_matches_pairwise_oracle(name):
    d = ORACLE_POOL[name]()
    want, gradings = _pairwise_reference(d)
    gens = enumerate_generators(d)
    assigns = partition_spinc(d, gens)
    if want is LatticeNotZero:
        with pytest.raises(LatticeNotZero):
            differential(d, gens, assigns)
        with pytest.raises(LatticeNotZero):
            homology(d)
        return
    assert differential(d, gens, assigns) == want
    if isinstance(want, Undetermined):
        with pytest.raises(DifferentialUndetermined):
            homology(d)
    else:
        assert [row.gradings for row in homology(d).classes] == gradings


@pytest.mark.parametrize("name", SCALED_POOL)
def test_class_tables_match_pairwise_domains_when_l_exceeds_one(name):
    """With L > 1 the summed X is L times the domain, and each table entry
    must still be connecting_domain and -maslov_index from the anchor."""
    d = SCALED_POOL[name]()
    s = diagram_index(d)
    assert s.jump[1].lcm > 1 and s.lattice.rank == 0
    gens = enumerate_generators(d)
    tables = floer._class_tables(s, gens, partition_spinc(d, gens))
    assert max(map(len, tables)) > 1
    for table in tables:
        a = gens[table[0][0]]
        for g, dom, gr in table:
            want = connecting_domain(d, a, gens[g])
            assert dom == want.multiplicities
            assert gr == -maslov_index(d, want, a, gens[g])


# ---------------------------------------------------------------------------
# homology tables


def test_homology_bigon(pants_bigon):
    t = homology(pants_bigon)
    assert t.dims == (0,) and t.total_dim == 0
    (row,) = t.classes
    assert (row.gen_count, row.diff_rank, row.dimension) == (2, 1, 0)
    assert row.gradings == (0, -1)
    assert (t.b1, t.torsion) == (0, ())


def test_homology_rectangle(grid_rect):
    t = homology(grid_rect)
    (row,) = t.classes
    assert (row.gen_count, row.diff_rank, row.dimension) == (2, 1, 0)
    assert row.gradings == (0, 1)


def test_homology_product(disk_product):
    t = homology(disk_product)
    assert t.dims == (1,) and t.classes[0].gradings == (0,)
    assert t.b1 == 0


def test_homology_two_classes(grid_four):
    t = homology(grid_four)
    assert t.dims == (1, 1)
    assert (t.b1, t.torsion) == (1, ())
    assert t.classes[0].free_coords == (0,)
    assert abs(t.classes[1].free_coords[0]) == 1
    assert t.classes[0].gradings == (0,) and t.classes[1].gradings == (0,)


def test_homology_zero_certificate_dims(grid_rect):
    t = homology(genus_bump(grid_rect, "S10"))
    (row,) = t.classes
    assert (row.gen_count, row.diff_rank, row.dimension) == (2, 0, 2)
    assert row.gradings == (0, -1)


def test_homology_stabilize_into_boundary_region(grid_rect):
    t = homology(hand_stabilized(grid_rect, "S00"))
    (row,) = t.classes
    assert (row.gen_count, row.dimension) == (2, 0)
    assert row.gradings == (0, 1)


@pytest.mark.parametrize("n,k,hfk,dims", [
    (3, 1, [1], [1, 2, 1]),
    (4, 1, [1], [1, 3, 3, 1]),
    (5, 2, [1, 1, 1], [1, 5, 11, 14, 11, 5, 1]),
])
def test_homology_of_grid_knots(n, k, hfk, dims):
    """SFH of a grid knot's complement with 2n meridional sutures.

    It is HFK-hat(K) tensor V^(n-1), V = F^2 in two Alexander gradings, so
    the class dims along the free coordinate are the coefficients of
    P_K(x) (1 + x)^(n-1), P_K the Poincare polynomial of HFK-hat in the
    Alexander grading: 1 for the unknot and 1 + x + x^2 for the trefoil.
    """
    d = grid_knot(n, k)
    t = homology(d)
    want = hfk
    for _ in range(n - 1):
        want = [a + b for a, b in zip(want + [0], [0] + want)]
    assert want == dims
    assert t.total_dim == sum(hfk) * 2 ** (n - 1) == sum(dims)
    assert dims_by_position(t) == dims


@pytest.mark.parametrize("n,k,alexander,chi", [
    (4, 1, [1], [1, 3, 3, 1]),
    (5, 2, [1, -1, 1], [1, 5, 11, 14, 11, 5, 1]),
])
def test_grid_knot_euler_characteristics(n, k, alexander, chi):
    """|chi| of each class, the alternating count of its gradings, is the
    |coefficient| of Delta_K(t) (1 - t)^(n-1), Delta_K the Alexander
    polynomial: 1 for the unknot and t - 1 + t^-1 for the trefoil."""
    want = alexander
    for _ in range(n - 1):
        want = [a - b for a, b in zip(want + [0], [0] + want)]
    assert [abs(x) for x in want] == chi
    rows = sorted(homology(grid_knot(n, k)).classes,
                  key=lambda c: c.free_coords[0])
    got = [abs(sum(1 - 2 * (gr % 2) for gr in row.gradings)) for row in rows]
    assert got in (chi, chi[::-1])


@pytest.mark.parametrize("n,k,genus", [(4, 1, 0), (5, 2, 1)])
def test_grid_knot_polytope_detects_genus_and_fibredness(tmp_path, n, k,
                                                         genus):
    """The polytope is a segment of width 2(2g + n - 1), and its end
    classes have dimension 1 because the unknot and the trefoil are
    fibred (Ozsvath-Szabo 2004, Ni 2007)."""
    f = tmp_path / "grid.shd"
    f.write_text(emit_shd(grid_knot(n, k)), encoding="utf-8")
    out = io.StringIO()
    assert run_command(["--json", "polytope", str(f)], out) == 0
    data = json.loads(out.getvalue())
    half = 2 * genus + n - 1
    assert data["polytope"]["vertices"] == [[str(-half)], [str(half)]]
    support = sorted((p["point"][0], p["dimension"]) for p in data["support"])
    assert support[-1][0] - support[0][0] == 2 * half
    assert support[0][1] == support[-1][1] == 1


def test_homology_lattice_guard(annulus_isotopic):
    with pytest.raises(LatticeNotZero):
        homology(annulus_isotopic)


def _bumped(builder, part: int, pick, by: int = 1):
    """A per-point table builder with one entry moved by `by`: the first
    entry of part `part` in the row of the point pick(s, rows).  Parts are
    counted from 0 at the builder's cuts."""
    def bumped(s, *args):
        rows, cuts = builder(s, *args)
        start = ((0,) + cuts)[part]
        assert cuts[part] > start, "the part is empty"
        p = pick(s, rows)
        row = list(rows[p])
        row[start] += by
        return {**rows, p: tuple(row)}, cuts
    bumped.__name__ = f"part{part}_bumped"
    return bumped


def _last_point(s, rows):
    return s.points[-1]


def _rank_two(block):
    return 2


def _squares_to_identity(real):
    def wrapped(d, gens, assignments):
        tables, _ = real(d, gens, assignments)
        # entries x_0 -> x_1 and x_1 -> x_0, so d^2 is the identity
        return tables, Exact(((0, 1), (1, 0)))
    return wrapped


@pytest.mark.parametrize("name,value,error", [
    ("_domain_points", _bumped(floer._domain_points, 2, _last_point),
     "no unique domain within a class"),
    ("_differential", _squares_to_identity(floer._differential),
     "does not square to zero"),
    ("gf2_rank_kernel", _rank_two, "rank exceeds half the class"),
])
def test_homology_checks_raise_on_their_fault(monkeypatch, pants_bigon,
                                              name, value, error):
    monkeypatch.setattr(floer, name, value)
    with pytest.raises((AssertionError, NonIntegerIndex), match=error):
        homology(pants_bigon)


def test_maslov_index_raises_on_a_quarter_index(pants_bigon):
    s = diagram_index(pants_bigon)
    s.euler4 = tuple(x + 1 for x in s.euler4)
    with pytest.raises(NonIntegerIndex, match="index"):
        homology(pants_bigon)


def _doubled(d, table):
    return [(g, tuple(2 * x for x in dom), gr) for g, dom, gr in table]


def _shared_point_covered(d, table):
    s = diagram_index(d)
    s.quadrant["w"] = dict.fromkeys(s.quadrant["w"], s.region_pos["S10"])
    return table


@pytest.mark.parametrize("target,corrupt,error", [
    (None, _doubled, "multiplicity above 1"),
    ("S00", _shared_point_covered, "covered corner at a shared point"),
])
def test_nice_branch_raises_on_a_non_bigon_or_rectangle(
        monkeypatch, grid_rect, target, corrupt, error):
    """A positive index-1 domain on a nice diagram is an empty bigon or
    rectangle (Sarkar-Wang); a corrupted table or quadrant must raise."""
    d = hand_stabilized(grid_rect, target) if target else grid_rect
    real = floer._class_tables
    monkeypatch.setattr(floer, "_class_tables", lambda s, *args:
                        [corrupt(s.d, table) for table in real(s, *args)])
    with pytest.raises(AssertionError, match=error):
        homology(d)


def _in_second_not_anchor(s, rows):
    """A point of the second member of the first class with two members,
    not in that class's first member (its anchor)."""
    gens = enumerate_generators(s.d)
    by_class: dict = {}
    for g, a in zip(gens, partition_spinc(s.d, gens)):
        by_class.setdefault(a.class_id, []).append(g)
    anchor, second = next(m for m in by_class.values() if len(m) > 1)[:2]
    return next(p for p in second.points if p not in anchor.points)


def _in_first_generator(s, rows):
    return enumerate_generators(s.d)[0].points[0]


@pytest.mark.parametrize("table,part,pick,error", [
    ("_eps_points", 0, _in_first_generator, "is not zero"),
    ("_eps_points", 1, _in_first_generator, "is not a cycle"),
    ("_domain_points", 0, _in_second_not_anchor,
     "integer solve verification failed"),
    ("_domain_points", 1, _in_second_not_anchor, "index 1/4"),
    ("_domain_points", 2, _in_second_not_anchor,
     "no unique domain within a class"),
])
def test_a_bumped_table_entry_raises_from_its_sum_check(
        monkeypatch, table, part, pick, error):
    """W_p and r_p (parts 0 and 1 of the eps rows), X_p, N_p and F_p
    (parts 0, 1 and 2 of the domain rows), each raised by 1 at one point.

    On T(1,0;6) the second class has two members, and the domain between
    them is its one interior region, once: a corner count raised there
    moves 4 mu by 1.
    """
    d = build_tpqn(1, 0, 6)
    gens = enumerate_generators(d)
    m = connecting_domain(d, gens[1], gens[2]).multiplicities
    assert [m[ri] for ri in diagram_index(d).interior] == [1]
    monkeypatch.setattr(floer, table,
                        _bumped(getattr(floer, table), part, pick))
    with pytest.raises((AssertionError, NonIntegerIndex), match=error):
        homology(d)


def test_an_x_part_that_l_does_not_divide_raises(monkeypatch):
    """With L = 2, X_p raised by 1 at a point of a second class member
    leaves X(g) - X(a) odd: no integer domain joins the two members."""
    monkeypatch.setattr(floer, "_domain_points", _bumped(
        floer._domain_points, 0, _in_second_not_anchor))
    with pytest.raises(AssertionError, match="no unique domain within"):
        homology(doubled_tpqn(2, 1, 4))


def test_a_split_class_raises_from_the_class_domain_check(monkeypatch):
    """eps vanishes exactly when a domain exists.  On T(1,0;6) the eps
    images of the four generators are 0, -1, -1, -2; lowering W at e0_v,
    which only the last two hold, splits the middle class into two classes
    that a domain connects."""
    monkeypatch.setattr(floer, "_eps_points", _bumped(
        floer._eps_points, 0, lambda s, rows: "e0_v", by=-1))
    with pytest.raises(AssertionError, match="a domain connects classes"):
        homology(build_tpqn(1, 0, 6))


# ---------------------------------------------------------------------------
# the prepared context


def test_context_dies_with_its_diagram():
    d = build_tpqn(1, 0, 6)
    homology(d)
    ref = weakref.ref(d)
    del d
    gc.collect()
    assert ref() is None


def test_smith_forms_per_diagram_do_not_grow(monkeypatch):
    calls = []

    def counted(name):
        real = getattr(exactalg, name)

        def wrapped(a):
            calls.append(name)
            return real(a)
        return wrapped

    snf = counted("smith_normal_form")
    monkeypatch.setattr(exactalg, "smith_normal_form", snf)
    monkeypatch.setattr(diagram, "smith_normal_form", snf)
    monkeypatch.setattr(exactalg, "exact_det", counted("exact_det"))
    checked, real_verify = [], exactalg._verify_snf

    def verify(a, *args):
        checked.append((a, *real_verify(a, *args)))
        return checked[-1][1:]

    class Counted(exactalg.SparseMap):
        def __new__(cls, *args):
            # every map is allocated here, whichever constructor builds it
            calls.append("SparseMap")
            return super().__new__(cls)
    monkeypatch.setattr(exactalg, "_verify_snf", verify)
    for module in (exactalg, diagram):
        monkeypatch.setattr(module, "SparseMap", Counted)
    counts = []
    for n in (8, 14):
        d = build_tpqn(1, 0, n)
        calls.clear()
        homology(d)
        counts.append(Counter(calls))
        # the jump solver products go through the very maps that its
        # Smith form's certificate built and checked
        solver = diagram_index(d).jump[1]
        assert any(a_map is solver.a_map and u is solver._u
                   and v is solver._v for a_map, u, v in checked)
    # the relation matrix of H1 and the jump system: the curve-graph
    # boundary takes no form, its cycle basis is the spanning forest that
    # the form would contract.  Each form certifies U and V by their
    # tracked inverses, so no determinant and no other inverse is taken.
    # Each form builds the maps of A, U and V, which its certificate checks
    # and the jump solver reuses, and H1 builds four more (the boundary for
    # the cycle basis's certificate, the basis, and the normalizer's V and
    # V^-1): 10 in all
    assert [(c["smith_normal_form"], c["exact_det"], c["SparseMap"])
            for c in counts] == [(2, 0, 10)] * 2


def test_homology_makes_no_solve_per_generator(monkeypatch):
    """homology reads every generator off the per-point tables: no solve,
    and none of the pairwise forms, which stay as the oracles."""
    calls = []

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapped(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(owner, name, wrapped)

    counted(exactalg.LinearSolver, "solve")
    for name in ("connecting_domain", "epsilon", "maslov_index"):
        counted(floer, name)
    table = homology(build_tpqn(1, 0, 12))
    assert len(table.generators) == 32
    assert calls == []
