"""Diagram validation, Euler bookkeeping, lattices, admissibility, H1.

Frozen expectations come from hand computations on the conftest fixtures
(see their docstrings) and from standard topology oracles: thickening a
surface and attaching 2-handles along the curves gives
H1(M) = H1(curve graph + boundary) / (region boundaries, full curves),
so each fixture's b1/torsion below was derived independently of the code.
"""

from __future__ import annotations

import inspect
import json
import random
import textwrap
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from sfhpoly.diagram import (
    Curve,
    Diagram,
    Disconnected,
    Region,
    Segment,
    UndecidedBeyondBound,
    diagram_index,
    euler_measure,
    h1_presentation,
    is_admissible,
    is_nice,
    periodic_lattice,
    validate,
)
from sfhpoly import diagram
from sfhpoly.builders import (build_base, build_elementary_piece, build_tpqn,
                              glue)
from sfhpoly.exactalg import LinearSolver, integer_kernel_basis, \
    smith_normal_form
from conftest import curve_graph_boundary, grid_knot, seg, torus_grid, \
    with_genus


def region_by_name(d: Diagram, name: str) -> Region:
    return next(r for r in d.regions if r.name == name)


# ---------------------------------------------------------------------------
# validation


def test_validate_fixtures_clean(annulus_isotopic, annulus_slack, pants_bigon,
                                 grid_diag, grid_rect, disk_product,
                                 annulus_product):
    for d in (annulus_isotopic, annulus_slack, pants_bigon, grid_diag,
              grid_rect, disk_product, annulus_product):
        report = validate(d)
        assert report.ok, report.violations


@pytest.mark.parametrize("n, k", [(12, 5), (14, 3)])
def test_grid_ids_stay_distinct_from_n_12(n, k):
    # joined indices would collide: p110 is both (1, 10) and (11, 0)
    d = grid_knot(n, k)
    report = validate(d)
    assert report.ok, report.violations
    assert len({r.name for r in d.regions}) == n * n
    assert d.regions[-1].name == f"S{n - 1}_{n - 1}"


def test_grid_ids_below_12_are_joined():
    d = grid_knot(11, 3)
    assert validate(d).ok
    assert d.regions[-1].name == "S1010"
    assert d.alpha_curves[1].points[10] == "p110"


def test_validate_euler_summaries(grid_diag, grid_rect, pants_bigon,
                                  disk_product):
    r = validate(grid_diag)
    assert r.euler == -2
    assert r.components == ((-2, 2, 1),) or \
        (r.components[0].euler, r.components[0].boundary_count,
         r.components[0].genus) == (-2, 2, 1)

    r = validate(grid_rect)
    assert (r.euler, r.components[0].genus) == (-3, 1)

    r = validate(pants_bigon)
    assert (r.euler, r.components[0].boundary_count,
            r.components[0].genus) == (-1, 3, 0)

    r = validate(disk_product)
    assert (r.euler, r.components[0].genus) == (1, 0)


def test_validate_corner_and_measure_identities(annulus_isotopic, grid_diag,
                                                grid_rect, pants_bigon):
    for d in (annulus_isotopic, grid_diag, grid_rect, pants_bigon):
        s = diagram_index(d)
        corners = sum(r.corner_count for r in d.regions)
        assert corners == 4 * len(s.points)
        assert sum(euler_measure(r) for r in d.regions) == validate(d).euler


def test_validate_arc_reused_same_direction():
    a, b = Curve("alpha", "a", ("u",)), Curve("beta", "b", ("u",))
    d = Diagram((a,), (b,), ("s0",), (
        Region("r0", 0, ((seg("a", 0, +1), seg("b", 0, +1),
                          seg("a", 0, +1), seg("b", 0, -1)), "s0")),
    ))
    report = validate(d)
    assert any("a.0" in v and "same direction" in v for v in report.violations)


def test_validate_quadrant_deficit():
    # drop one grid square: its quadrants go missing at every point
    full = torus_grid(("S00", "S11"))
    d = Diagram(full.alpha_curves, full.beta_curves, full.boundary_circles,
                tuple(r for r in full.regions if r.name != "S01"))
    report = validate(d)
    assert any("quadrant corners" in v for v in report.violations)
    assert any("missing" in v for v in report.violations)


def test_validate_unbalanced():
    a, b = Curve("alpha", "a", ("u",)), Curve("beta", "b", ("u",))
    extra = Curve("alpha", "a2", ())
    d = Diagram((a, extra), (b,), ("s0",), (
        Region("r0", 0, ((seg("a", 0, +1), seg("b", 0, +1),
                          seg("a", 0, -1), seg("b", 0, -1)), "s0")),
    ))
    report = validate(d)
    assert any("unbalanced" in v for v in report.violations)
    assert any("no intersection points" in v for v in report.violations)


def test_validate_closed_component():
    d = torus_grid(())          # unpunctured torus: closed component
    report = validate(d)
    assert any("closed component" in v for v in report.violations)


# ---------------------------------------------------------------------------
# Euler measure


def test_euler_measure_shapes():
    bigon = Region("x", 0, ((seg("a", 0, +1), seg("b", 0, -1)),))
    assert euler_measure(bigon) == Fraction(1, 2)
    square = Region("x", 0, ((seg("a", 0, +1), seg("b", 1, +1),
                              seg("a", 1, -1), seg("b", 0, -1)),))
    assert euler_measure(square) == 0
    punctured = Region("x", 0, ((seg("a", 0, +1), seg("b", 0, -1)), "s0"))
    assert euler_measure(punctured) == Fraction(-1, 2)


# ---------------------------------------------------------------------------
# periodic lattice and admissibility


def test_lattice_rank0(pants_bigon, grid_rect, disk_product):
    for d in (pants_bigon, grid_rect, disk_product):
        assert periodic_lattice(d).rank == 0


def test_lattice_parallel_copies_rank1(annulus_isotopic):
    lat = periodic_lattice(annulus_isotopic)
    assert lat.rank == 1
    vec = lat.basis[0]
    names = [r.name for r in annulus_isotopic.regions]
    support = {names[i]: x for i, x in enumerate(vec) if x}
    assert support in ({"big1": 1, "big2": -1}, {"big1": -1, "big2": 1})


def test_lattice_vanishes_on_boundary_regions(annulus_isotopic, annulus_slack,
                                              grid_diag):
    for d in (annulus_isotopic, annulus_slack, grid_diag):
        lat = periodic_lattice(d)
        for vec in lat.basis:
            for x, r in zip(vec, d.regions):
                assert x == 0 or not r.touches_boundary


def jump_rows(d: Diagram, interior) -> list[list[int]]:
    """The arc-jump system over the interior regions, read off the region
    boundaries: the row of (curve, point k) is the jump across the arc
    before k minus the jump across arc k."""
    col = {ri: j for j, ri in enumerate(interior)}
    rows = []
    for c in d.curves:
        for k in range(len(c.points)):
            row = [0] * len(col)
            for arc, sign in (((k - 1) % len(c.points), 1), (k, -1)):
                for ri in col:
                    for cyc in d.regions[ri].arc_cycles:
                        for sg in cyc:
                            if (sg.curve, sg.arc) == (c.name, arc):
                                row[col[ri]] += sign if sg.forward else -sign
            rows.append(row)
    return rows


def test_lattice_from_jump_solver(annulus_isotopic, annulus_slack, grid_diag,
                                  grid_adjacent, grid_rect):
    for d in (annulus_isotopic, annulus_slack, grid_diag, grid_adjacent,
              grid_rect):
        s = diagram_index(d)
        _, solver = s.jump
        rows = jump_rows(d, s.interior)
        assert [solver.a_map @ {j: 1} for j in range(solver.n)] \
            == list(zip(*rows))
        lat = s.lattice
        assert lat is periodic_lattice(d)
        assert lat.rank == len(s.interior) - smith_normal_form(rows).rank
        for vec in lat.basis:
            assert all(vec[ri] == 0 for ri, r in enumerate(d.regions)
                       if r.touches_boundary)
            assert all(sum(c * vec[ri] for c, ri in zip(row, s.interior))
                       == 0 for row in rows)
            # the boundary of a periodic domain jumps by the same amount
            # across every arc of a curve: it is a sum of whole curves
            jump = {}
            for mult, r in zip(vec, d.regions):
                for cyc in r.arc_cycles:
                    for sg in cyc:
                        key = (sg.curve, sg.arc)
                        jump[key] = jump.get(key, 0) + \
                            (mult if sg.forward else -mult)
            for c in d.curves:
                assert len({jump.get((c.name, k), 0)
                            for k in range(len(c.points))}) == 1


def test_admissible_rank0(pants_bigon, grid_rect):
    for d in (pants_bigon, grid_rect):
        res = is_admissible(d)
        assert res.admissible and res.witness is None


def test_admissible_mixed_rank1(annulus_isotopic, grid_diag):
    for d in (annulus_isotopic, grid_diag):
        assert is_admissible(d).admissible


def test_not_admissible_positive_generator(annulus_slack, grid_adjacent):
    for d, bad in ((annulus_slack, {"up", "dn"}),
                   (grid_adjacent, {"S10", "S11"})):
        res = is_admissible(d)
        assert not res.admissible
        names = [r.name for r in d.regions]
        support = {names[i] for i, x in enumerate(res.witness) if x}
        assert support == bad
        assert all(x >= 0 for x in res.witness)
        # at rank 1 the witness is the basis vector or its negative
        (vec,) = periodic_lattice(d).basis
        assert res.witness in (vec, tuple(-x for x in vec))


def test_admissible_beyond_bound(annulus_isotopic, monkeypatch):
    monkeypatch.setattr(diagram, "MAX_LATTICE_RANK", 0)
    with pytest.raises(UndecidedBeyondBound):
        is_admissible(annulus_isotopic)


def random_grids(seed: int, trials: int):
    """Seeded torus grids with n <= 5 and periodic lattice rank 2..6.

    Odd trials puncture one or two squares per row, which often leaves
    every periodic domain with mixed signs; even trials puncture up to 2n
    squares anywhere, which reaches the higher ranks.
    """
    rng = random.Random(seed)
    for trial in range(trials):
        n = rng.randint(2, 5)
        if trial % 2:
            squares = {f"S{i}{rng.randrange(n)}" for i in range(n)
                       for _ in range(rng.randint(1, 2))}
        else:
            squares = rng.sample([f"S{i}{j}" for i in range(n)
                                  for j in range(n)], rng.randint(1, 2 * n))
        d = torus_grid(tuple(sorted(squares)), n)
        if 2 <= periodic_lattice(d).rank <= 6:
            yield d


def test_admissible_matches_stiemke_on_random_grids():
    """Stiemke's lemma is an independent oracle: the lattice basis B has no
    c with c . B >= 0 and c . B != 0 iff B y = 0 for some y >= 1, a linear
    feasibility problem for scipy's LP solver."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    seen = Counter()
    for d in random_grids(2006, 600):
        basis = periodic_lattice(d).basis
        res = is_admissible(d)
        lp = linprog([0] * len(d.regions), A_eq=basis,
                     b_eq=[0] * len(basis), bounds=(1, None))
        assert lp.status in (0, 2)          # feasible or infeasible
        assert res.admissible == (lp.status == 0)
        seen[len(basis), res.admissible] += 1
        if res.admissible:
            assert res.witness is None
            continue
        w, s = res.witness, diagram_index(d)
        assert min(w) >= 0 and any(w) and gcd(*w) == 1
        assert all(x == 0 for x, r in zip(w, d.regions)
                   if r.touches_boundary)
        assert all(sum(c * w[ri] for c, ri in zip(row, s.interior)) == 0
                   for row in jump_rows(d, s.interior))
    assert {rank for rank, _ in seen} == {2, 3, 4, 5, 6}
    assert {verdict for _, verdict in seen} == {True, False}


# ---------------------------------------------------------------------------
# niceness


def test_nice_fixtures(pants_bigon, grid_rect, annulus_isotopic):
    for d in (pants_bigon, grid_rect, annulus_isotopic):
        res = is_nice(d)
        assert res.nice and res.offenders == ()


def test_not_nice_positive_genus_interior(grid_diag):
    bumped = tuple(r if r.name != "S01" else
                   Region(r.name, 1, r.boundary_cycles)
                   for r in grid_diag.regions)
    d = Diagram(grid_diag.alpha_curves, grid_diag.beta_curves,
                grid_diag.boundary_circles, bumped)
    assert validate(d).ok
    res = is_nice(d)
    assert not res.nice and res.offenders == ("S01",)


# ---------------------------------------------------------------------------
# H1 presentations


def test_h1_products(disk_product, annulus_product):
    assert h1_presentation(disk_product).b1 == 0
    h1 = h1_presentation(annulus_product)
    assert h1.b1 == 1 and h1.torsion == ()


def test_h1_isotopic_cores_kill_everything(annulus_isotopic):
    h1 = h1_presentation(annulus_isotopic)
    assert h1.b1 == 0 and h1.torsion == ()


def test_h1_grid(grid_diag):
    # strip between parallel curves carries a puncture, so killing the four
    # curves also kills the puncture class: everything dies
    h1 = h1_presentation(grid_diag)
    assert h1.b1 == 0 and h1.torsion == ()


def torsion_pair():
    """T(2,1;2) glued to itself along s0: H1 = Z + Z/2."""
    return glue(build_tpqn(2, 1, 2), "s0", build_tpqn(2, 1, 2), "s0")


def test_h1_normalizer_properties(grid_diag, annulus_isotopic):
    rng = random.Random(9)
    assert h1_presentation(torsion_pair()).torsion == (2,)
    # region genus adds handle generators that no relation meets: the
    # relations are over the cycle coordinates only, and padded here
    for d in (grid_diag, annulus_isotopic, torsion_pair(),
              with_genus(torsion_pair(), 2)):
        h1 = h1_presentation(d)
        rows = h1.relation_matrix
        pad = (0,) * (h1.generator_count - len(rows[0]))
        for _ in range(25):
            v = tuple(rng.randint(-4, 4) for _ in range(h1.generator_count))
            nv = h1.normalize(v)
            assert h1.normalize(nv) == nv
            row = rows[rng.randrange(len(rows))] + pad
            shifted = tuple(x + y for x, y in zip(v, row))
            assert h1.normalize(shifted) == nv
            assert h1.free_part(shifted) == h1.free_part(v)


def test_h1_of_a_high_genus_region_stays_small():
    """Each unit of region genus adds two free generators that no relation
    meets.  The relation form holds its transforms by their nonzeros, so
    H1 of a genus-1000 region costs a few MB; dense (2g)^2 copies of V and
    V^-1 would take about 95 MB."""
    h1 = h1_presentation(build_tpqn(1, 0, 4))
    assert (h1.b1, h1.torsion) == (1, ())
    d = with_genus(build_tpqn(1, 0, 4), 1000)
    tracemalloc.start()
    try:
        h1 = h1_presentation(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (h1.b1, h1.torsion) == (1 + 2 * 1000, ())
    assert peak < 16 * 2**20
    # the relation form is taken on the cycle coordinates only
    assert {len(row) for row in h1.relation_matrix} \
        == {h1.generator_count - 2 * 1000}


def test_h1_disconnected():
    d = Diagram((), (), ("s0", "s1"), (Region("r0", 0, ("s0",)),
                                       Region("r1", 0, ("s1",))))
    assert validate(d).ok
    with pytest.raises(Disconnected):
        h1_presentation(d)


# the diagrams of the acceptance property suite
PROPERTY_POOL = {
    "grid_rect": lambda: torus_grid(("S00", "S01", "S11")),
    "grid_four": lambda: torus_grid(("S00", "S01", "S10", "S11")),
    "base_2_1": lambda: build_base(2, 1),
    "base_3_2": lambda: build_base(3, 2),
    "base_5_2": lambda: build_base(5, 2),
    "elementary_piece": build_elementary_piece,
    "T(1,0;4)": lambda: build_tpqn(1, 0, 4),
    "T(1,0;6)": lambda: build_tpqn(1, 0, 6),
    "T(2,1;4)": lambda: build_tpqn(2, 1, 4),
}


def _chain_positions(d: Diagram) -> list:
    """Arcs curve by curve, then boundary circles: H1's chain positions."""
    return [(c.name, k) for c in d.curves for k in range(len(c.points))] + \
        list(d.boundary_circles)


def _cycle_basis(d: Diagram) -> list[tuple[int, ...]]:
    """The saturated kernel basis of the curve-graph boundary map."""
    return integer_kernel_basis(curve_graph_boundary(d))


# the property pool and a glued diagram with torsion in H1
CHAIN_POOL = {**PROPERTY_POOL, "torsion_pair": torsion_pair}


@pytest.mark.parametrize("name", CHAIN_POOL)
def test_chain_coords_read_off_matches_solver(name):
    """Coordinates of random cycles read off the spanning forest equal
    their coefficients in the kernel basis of the boundary map's Smith
    form, and a solve against that basis agrees."""
    d = CHAIN_POOL[name]()
    h1 = h1_presentation(d)
    keys = _chain_positions(d)
    basis = _cycle_basis(d)
    oracle = LinearSolver([[vec[i] for vec in basis]
                           for i in range(len(keys))])
    handles = h1.generator_count - len(basis)
    rng = random.Random(name)
    for _ in range(20):
        coeffs = tuple(rng.randint(-3, 3) for _ in basis)
        z = [sum(c * vec[i] for c, vec in zip(coeffs, basis))
             for i in range(len(keys))]
        chain = {key: x for key, x in zip(keys, z) if x}
        assert oracle.solve(z) == coeffs
        assert h1.chain_coords(chain) == coeffs + (0,) * handles


@pytest.mark.parametrize("name", CHAIN_POOL)
def test_chain_coords_rejects_a_non_cycle(name):
    d = CHAIN_POOL[name]()
    c = next(c for c in d.curves if len(c.points) > 1)
    with pytest.raises(ValueError, match="not a cycle"):
        h1_presentation(d).chain_coords({(c.name, 0): 1})


# ---------------------------------------------------------------------------
# the cycle basis: a contraction of the boundary map, against its Smith form


def _shuffled(build, seed: str):
    """build, with the rows of bd, the points of its context, shuffled."""
    def shuffled():
        d = build()
        random.Random(seed).shuffle(diagram_index(d).points)
        return d
    return shuffled


def _oracle_families() -> dict:
    from test_exactalg import many_small
    from test_golden_outputs import DIAGRAMS
    grids = {f"G({n},{k})": lambda n=n, k=k: grid_knot(n, k)
             for n in range(3, 8) for k in range(1, n)}
    return {"property pool": PROPERTY_POOL, "golden family": DIAGRAMS,
            "many_small": many_small(), "grids": grids,
            "many_small, points shuffled": {
                name: _shuffled(build, name)
                for name, build in many_small().items()}}


def _is_the_boundary_form(cycle_coords, d: Diagram) -> bool:
    """The contraction's (B, N) equal (V[:, r:], V^-1[r:]) of the Smith
    form of the curve-graph boundary bd."""
    snf = smith_normal_form(curve_graph_boundary(d))
    cycles = cycle_coords(diagram_index(d))
    return ([dict(col) for col in cycles.basis.cols]
            == [dict(col) for col in snf.v_map.cols[snf.rank:]]
            and [{e: 1} for e in cycles.free]
            == list(snf.vinv_rows[snf.rank:]))


@pytest.mark.parametrize("family", [
    "property pool", "golden family", "many_small", "grids",
    "many_small, points shuffled"])
def test_cycle_basis_is_the_boundary_smith_form(family):
    for name, build in _oracle_families()[family].items():
        assert _is_the_boundary_form(diagram._cycle_coords, build()), name


def _mutant_cycle_coords(old: str, new: str):
    """diagram._cycle_coords with the one occurrence of old replaced."""
    src = textwrap.dedent(inspect.getsource(diagram._cycle_coords))
    assert src.count(old) == 1
    namespace = dict(vars(diagram))
    exec(src.replace(old, new), namespace)
    return namespace["_cycle_coords"]


# (old, new, message): a fault with a message must raise it from the
# certificate; one without leaves a valid basis that only the oracle sees.
# With the points in the order of the scan, the least original index has
# always been the least position, so that fault is sought on shuffled rows
CYCLE_FAULTS = {
    "least original index, not least position": (
        "min(row, key=pos.__getitem__)", "min(row)", None),
    "one tree-path sign flipped": (
        "    on_free, cols = set(free), [cols[e] for e in free]\n",
        "    on_free, cols = set(free), [cols[e] for e in free]\n"
        "    for col in [col for col in cols if len(col) > 1][:1]:\n"
        "        a = min(a for a in col if a not in on_free)\n"
        "        col[a] = -col[a]\n",
        "cycle basis verification failed"),
    "one arc dropped from the forest": (
        "free, comp = at[t:]", "free, comp = at[t - 1:]",
        "cycle basis verification failed"),
}


@pytest.mark.parametrize("fault", CYCLE_FAULTS)
def test_cycle_basis_fault_is_caught(fault):
    old, new, message = CYCLE_FAULTS[fault]
    faulty = _mutant_cycle_coords(old, new)
    families = _oracle_families()
    pool = families["many_small"].values()
    if message is None:
        pool = families["many_small, points shuffled"].values()
        assert not all(_is_the_boundary_form(faulty, build())
                       for build in pool)
    else:
        with pytest.raises(AssertionError, match=message):
            for build in pool:
                faulty(diagram_index(build()))


def test_golden_outputs_catch_the_cycle_order(monkeypatch, tmp_path):
    """The same forest with its off-forest arcs in sorted order is a valid
    basis, but it flips the sign of the free coordinate on these two."""
    from test_golden_outputs import DIAGRAMS, GOLDEN_FILE, digests
    golden = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    monkeypatch.setattr(diagram, "_cycle_coords", _mutant_cycle_coords(
        "free, comp = at[t:]", "free, comp = sorted(at[t:])"))
    for name in ("T(7,4;6)", "glue(T(1,0;4),e0_s2,T(2,1;4),e0_s2)"):
        out = digests(DIAGRAMS[name], tmp_path)
        assert out["validate"] == golden[name]["validate"]
        assert out["compute"] != golden[name]["compute"]
