"""Combinatorial sutured Heegaard diagrams.

A diagram is a compact oriented surface-with-boundary carrying two systems
of closed curves, presented purely combinatorially: curves are cyclic lists
of intersection points, and the complementary regions are given by their
oriented boundary cycles.  A boundary cycle is a closed walk of directed
curve arcs (alternating between the two families at every corner) or a
whole boundary circle of the surface.

Corner quadrants are derived, not stored: at an intersection point each of
the four quadrants is named by a pair of signs (sign along the alpha curve,
sign along the beta curve), where + means the outgoing half-arc at the
point and - the incoming one.  A region's walk that arrives along a
directed segment ends at the incoming (-) half-arc if the segment is
traversed forwards, at the outgoing (+) half-arc if backwards; departures
mirror that.  A valid diagram has exactly one corner of each label at every
point, which pins down the local cross structure without any embedding
data.

Arc k of a curve runs from its k-th listed point to the next, cyclically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul, sub

from .exactalg import (LinearSolver, SparseMap, _add, convex_hull,
                       smith_normal_form)


class Disconnected(ValueError):
    """Operation needs a connected diagram."""


class UndecidedBeyondBound(RuntimeError):
    """Admissibility search refused: periodic lattice rank above the bound."""


# is_admissible refuses a periodic lattice of higher rank: its hull of the
# region columns can have very many facets in high rank, and the lattice of
# a diagram read from a file is not bounded otherwise
MAX_LATTICE_RANK = 6


# ---------------------------------------------------------------------------
# data types


@dataclass(frozen=True)
class Segment:
    """A directed arc reference inside a region boundary cycle."""

    curve: str
    arc: int
    forward: bool

    def __str__(self) -> str:
        return f"{'+' if self.forward else '-'}{self.curve}.{self.arc}"


@dataclass(frozen=True)
class Curve:
    kind: str                      # "alpha" | "beta"
    name: str
    points: tuple[str, ...]        # cyclic order; orientation = list order

    def arc_ends(self, k: int) -> tuple[str, str]:
        """(start, end) of arc k."""
        return self.points[k], self.points[(k + 1) % len(self.points)]


# a boundary cycle is a closed walk of Segments, or a boundary-circle id
Cycle = tuple[Segment, ...] | str


@dataclass(frozen=True)
class Region:
    name: str
    genus: int
    boundary_cycles: tuple

    @property
    def arc_cycles(self) -> tuple[tuple[Segment, ...], ...]:
        return tuple(c for c in self.boundary_cycles if not isinstance(c, str))

    @property
    def circles(self) -> tuple[str, ...]:
        return tuple(c for c in self.boundary_cycles if isinstance(c, str))

    @property
    def touches_boundary(self) -> bool:
        return bool(self.circles)

    @property
    def corner_count(self) -> int:
        return sum(len(c) for c in self.arc_cycles)

    def compact_euler(self) -> int:
        """Euler characteristic of the closed-up region."""
        return 2 - 2 * self.genus - len(self.boundary_cycles)


@dataclass(frozen=True)
class Diagram:
    alpha_curves: tuple[Curve, ...]
    beta_curves: tuple[Curve, ...]
    boundary_circles: tuple[str, ...]
    regions: tuple[Region, ...]

    @property
    def curves(self) -> tuple[Curve, ...]:
        return self.alpha_curves + self.beta_curves

    @cached_property
    def _scan(self) -> _Scan:
        # cached_property writes the instance __dict__ directly, which a
        # frozen dataclass allows; fields, equality and hash are unaffected.
        return _Scan(self)


def segment_start(curve: Curve, seg: Segment) -> str:
    s, e = curve.arc_ends(seg.arc)
    return s if seg.forward else e


def segment_end(curve: Curve, seg: Segment) -> str:
    s, e = curve.arc_ends(seg.arc)
    return e if seg.forward else s


# ---------------------------------------------------------------------------
# the prepared context: incidence tables, violations, and lazy derived data


class _Scan:
    """The prepared context of one diagram.

    The constructor makes one pass over the diagram and fills the incidence
    tables (curves by name, the curves through each point, the regions on
    each side of each arc, the corner quadrants, the components), collecting
    violations instead of crashing.  The data derived from those tables is
    computed on first use and then kept: the interior regions, four times
    the Euler measure of each region (`euler4`), the factorized jump system
    (`jump`), the periodic lattice read off that same factorization
    (`lattice`), and the first homology (`h1`).

    A context is built lazily, once per Diagram object, and stored on that
    object, so it lives exactly as long as the diagram does (the two refer
    to each other; the garbage collector frees them together).  Equal but
    distinct diagrams get contexts of their own.
    """

    def __init__(self, d: Diagram):
        self.d = d
        self.violations: list[str] = []
        v = self.violations

        self.curve_by_name: dict[str, Curve] = {}
        for c in d.curves:
            if c.name in self.curve_by_name:
                v.append(f"duplicate curve id {c.name}")
            self.curve_by_name[c.name] = c
            if not c.points:
                v.append(f"curve {c.name} has no intersection points")
            seen = set()
            for p in c.points:
                if p in seen:
                    v.append(f"point {p} repeats on curve {c.name}")
                seen.add(p)
        if len(d.alpha_curves) != len(d.beta_curves):
            v.append(f"unbalanced: {len(d.alpha_curves)} alpha vs "
                     f"{len(d.beta_curves)} beta curves")

        if len(set(d.boundary_circles)) != len(d.boundary_circles):
            v.append("duplicate boundary circle id")
        names = [r.name for r in d.regions]
        if len(set(names)) != len(names):
            v.append("duplicate region id")

        # point incidence: exactly one alpha and one beta through each point
        self.point_alpha: dict[str, tuple[str, int]] = {}
        self.point_beta: dict[str, tuple[str, int]] = {}
        for c in d.curves:
            table = self.point_alpha if c.kind == "alpha" else self.point_beta
            for i, p in enumerate(c.points):
                if p in table and table[p][0] != c.name:
                    v.append(f"point {p} lies on two {c.kind} curves")
                table.setdefault(p, (c.name, i))
        self.points: list[str] = []
        for c in d.alpha_curves:
            for p in c.points:
                if p not in self.points:
                    self.points.append(p)
        for p in self.points:
            if p not in self.point_beta:
                v.append(f"point {p} lies on no beta curve")
        for c in d.beta_curves:
            for p in c.points:
                if p not in self.point_alpha:
                    v.append(f"point {p} lies on no alpha curve")
                    if p not in self.points:
                        self.points.append(p)

        self.region_pos = {r.name: i for i, r in enumerate(d.regions)}

        # arc usage and sides: every arc once per direction
        self.arc_side: dict[tuple[str, int], dict[bool, int]] = {}
        circle_uses: dict[str, list[str]] = {cid: [] for cid in d.boundary_circles}
        for ri, r in enumerate(d.regions):
            if r.genus < 0:
                v.append(f"region {r.name} has negative genus")
            if not r.boundary_cycles:
                v.append(f"region {r.name} has no boundary cycles")
            for cyc in r.boundary_cycles:
                if isinstance(cyc, str):
                    if cyc not in circle_uses:
                        v.append(f"region {r.name} uses undeclared circle {cyc}")
                    else:
                        circle_uses[cyc].append(r.name)
                    continue
                if not cyc:
                    v.append(f"region {r.name} has an empty boundary cycle")
                    continue
                for seg in cyc:
                    c = self.curve_by_name.get(seg.curve)
                    if c is None or not c.points or seg.arc >= len(c.points):
                        v.append(f"region {r.name} references unknown arc "
                                 f"{seg.curve}.{seg.arc}")
                        continue
                    sides = self.arc_side.setdefault((seg.curve, seg.arc), {})
                    if seg.forward in sides:
                        v.append(f"arc {seg.curve}.{seg.arc} used twice in "
                                 f"the same direction")
                    else:
                        sides[seg.forward] = ri
        for c in d.curves:
            for k in range(len(c.points)):
                sides = self.arc_side.get((c.name, k), {})
                for fwd in (True, False):
                    if fwd not in sides:
                        v.append(f"arc {c.name}.{k} missing "
                                 f"{'forward' if fwd else 'backward'} use")
        for cid, users in circle_uses.items():
            if len(users) != 1:
                v.append(f"boundary circle {cid} used in {len(users)} region "
                         f"cycles (need exactly 1)")

        # corner quadrants from walk continuity
        self.quadrant: dict[str, dict[tuple[int, int], int]] = {}
        for ri, r in enumerate(d.regions):
            for cyc in r.arc_cycles:
                usable = all(
                    seg.curve in self.curve_by_name
                    and self.curve_by_name[seg.curve].points
                    and seg.arc < len(self.curve_by_name[seg.curve].points)
                    for seg in cyc)
                if not usable:
                    continue
                for i, seg in enumerate(cyc):
                    nxt = cyc[(i + 1) % len(cyc)]
                    c1 = self.curve_by_name[seg.curve]
                    c2 = self.curve_by_name[nxt.curve]
                    p = segment_end(c1, seg)
                    if p != segment_start(c2, nxt):
                        v.append(f"region {r.name}: cycle breaks at "
                                 f"{seg} -> {nxt}")
                        continue
                    if c1.kind == c2.kind:
                        v.append(f"region {r.name}: segments {seg} and {nxt} "
                                 f"do not alternate families at {p}")
                        continue
                    arrive = -1 if seg.forward else 1
                    depart = 1 if nxt.forward else -1
                    if c1.kind == "alpha":
                        label = (arrive, depart)
                    else:
                        label = (depart, arrive)
                    slots = self.quadrant.setdefault(p, {})
                    if label in slots:
                        v.append(f"point {p}: quadrant {label} covered twice")
                    else:
                        slots[label] = ri
        for p in self.points:
            labels = self.quadrant.get(p, {})
            if len(labels) != 4:
                v.append(f"point {p} has {len(labels)} quadrant corners "
                         f"(need 4)")

        # connectivity over regions, curves and circles
        adj: dict[tuple[str, str], set[tuple[str, str]]] = {}

        def link(a, b):
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)

        for c in d.curves:
            adj.setdefault(("curve", c.name), set())
        for cid in d.boundary_circles:
            adj.setdefault(("circle", cid), set())
        for r in d.regions:
            adj.setdefault(("region", r.name), set())
            for cyc in r.boundary_cycles:
                if isinstance(cyc, str):
                    if cyc in circle_uses:
                        link(("region", r.name), ("circle", cyc))
                else:
                    for seg in cyc:
                        if seg.curve in self.curve_by_name:
                            link(("region", r.name), ("curve", seg.curve))
        for p, (aname, _) in self.point_alpha.items():
            if p in self.point_beta:
                link(("curve", aname), ("curve", self.point_beta[p][0]))

        self.components: list[set[tuple[str, str]]] = []
        todo = set(adj)
        while todo:
            seed = todo.pop()
            comp = {seed}
            stack = [seed]
            while stack:
                for nb in adj[stack.pop()]:
                    if nb not in comp:
                        comp.add(nb)
                        todo.discard(nb)
                        stack.append(nb)
            self.components.append(comp)

    @cached_property
    def interior(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.d.regions)
                     if not r.touches_boundary)

    @cached_property
    def euler4(self) -> tuple[int, ...]:
        """4 e(R) per region, an integer: see euler_measure."""
        return tuple(4 * r.compact_euler() - r.corner_count
                     for r in self.d.regions)

    def on_regions(self, vec) -> tuple[int, ...]:
        """A vector over the interior regions, extended by 0 to all regions."""
        full = [0] * len(self.d.regions)
        for j, ri in enumerate(self.interior):
            full[ri] = vec[j]
        return tuple(full)

    @cached_property
    def jump(self) -> tuple[list[tuple[int, str]], LinearSolver]:
        """Arc-jump constancy equations over interior regions, factorized.

        One row per (curve, point); the row says that the multiplicity jump
        across the arc before the point equals the jump across the arc after
        it.  Returns (meta, solver) with meta[i] = (sign, point), sign +1 on
        an alpha row and -1 on a beta row: a domain from x to y jumps by
        sign * ((point in y) - (point in x)) there.  An interior region has
        an arc on its boundary, so there are rows whenever there are
        interior regions.
        """
        col = {ri: j for j, ri in enumerate(self.interior)}
        rows: list[list[int]] = []
        meta: list[tuple[int, str]] = []
        for c in self.d.curves:
            npts = len(c.points)
            for k, p in enumerate(c.points):
                row = [0] * len(col)
                prev = (k - 1) % npts
                for arc, sign in ((prev, 1), (k, -1)):
                    sides = self.arc_side.get((c.name, arc), {})
                    for fwd, coeff in ((True, 1), (False, -1)):
                        ri = sides.get(fwd)
                        if ri is not None and ri in col:
                            row[col[ri]] += sign * coeff
                rows.append(row)
                meta.append((1 if c.kind == "alpha" else -1, p))
        return meta, LinearSolver(rows)

    @cached_property
    def lattice(self) -> PeriodicLattice:
        """The kernel of the jump system, from the jump solver's SNF."""
        return PeriodicLattice(tuple(
            self.on_regions(vec) for vec in self.jump[1].kernel_basis()))

    @cached_property
    def h1(self) -> H1Presentation:
        return _h1_presentation(self)


def diagram_index(d: Diagram) -> _Scan:
    """Prepared context of a diagram that must already be valid."""
    s = d._scan
    if s.violations:
        raise ValueError("invalid diagram: " + "; ".join(s.violations[:3]))
    return s


# ---------------------------------------------------------------------------
# validation and Euler bookkeeping


@dataclass(frozen=True)
class ComponentSummary:
    euler: int
    boundary_count: int
    genus: int | None          # None when the Euler data is inconsistent


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]
    components: tuple[ComponentSummary, ...]
    euler: int

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(d: Diagram) -> ValidationReport:
    """Check every diagram invariant; the report lists each violation."""
    s = d._scan
    violations = list(s.violations)

    summaries = []
    total = 0
    for comp in s.components:
        curves = [s.curve_by_name[n] for k, n in comp
                  if k == "curve" and n in s.curve_by_name]
        regions = [d.regions[s.region_pos[n]] for k, n in comp if k == "region"]
        circles = [n for k, n in comp if k == "circle"]
        pts = {p for c in curves if c.kind == "alpha" for p in c.points}
        chi_graph = len(pts) - sum(len(c.points) for c in curves)
        chi = chi_graph + sum(r.compact_euler() for r in regions)
        total += chi
        if not circles:
            violations.append("component without boundary circles "
                              "(closed component)")
        two_genus = 2 - chi - len(circles)
        if two_genus < 0 or two_genus % 2:
            violations.append(f"component Euler data inconsistent: chi={chi}, "
                              f"boundary={len(circles)}")
            genus = None
        else:
            genus = two_genus // 2
        summaries.append(ComponentSummary(chi, len(circles), genus))

    return ValidationReport(tuple(violations), tuple(summaries), total)


def euler_measure(r: Region) -> Fraction:
    """e(R) = chi of the closed-up region minus a quarter per corner."""
    return Fraction(r.compact_euler()) - Fraction(r.corner_count, 4)


# ---------------------------------------------------------------------------
# periodic domains and admissibility


@dataclass(frozen=True)
class PeriodicLattice:
    """Basis of boundary-avoiding periodic domains, aligned with d.regions."""

    basis: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


def periodic_lattice(d: Diagram) -> PeriodicLattice:
    return diagram_index(d).lattice


@dataclass(frozen=True)
class AdmissibilityResult:
    admissible: bool
    # a nonzero nonnegative periodic domain, primitive in the lattice
    witness: tuple[int, ...] | None


def is_admissible(d: Diagram) -> AdmissibilityResult:
    """True iff every nonzero periodic domain has mixed signs.

    With the lattice basis B (r independent rows, one column b_j per
    region), the domain c . B is >= 0 exactly when c . b_j >= 0 for every
    j.  The origin and the columns affinely span R^r, so such a c != 0
    exists exactly when the origin lies on a facet of hull({0} u {b_j}),
    the alternative of Stiemke's lemma.  The first such facet in the
    hull's order has a primitive normal n, and the witness n . B is then
    primitive in the lattice; at rank 1 it is the basis vector or its
    negative.  The search is refused above a periodic lattice rank of
    MAX_LATTICE_RANK.
    """
    lattice = periodic_lattice(d)
    r = lattice.rank
    if r == 0:
        return AdmissibilityResult(True, None)
    if r > MAX_LATTICE_RANK:
        raise UndecidedBeyondBound(
            f"periodic lattice rank {r} > {MAX_LATTICE_RANK}")
    cols = list(zip(*lattice.basis))
    hull = convex_hull([(0,) * r, *cols])
    if hull.dim != r:
        raise AssertionError("periodic lattice basis is not independent")
    normal = next((n for n, offset in hull.facets if offset == 0), None)
    if normal is None:
        return AdmissibilityResult(True, None)
    witness = tuple(sum(map(mul, normal, col)) for col in cols)
    if not (all(x >= 0 for x in witness) and any(witness)):
        raise AssertionError("admissibility witness is not a "
                             "non-zero non-negative domain")
    return AdmissibilityResult(False, witness)


@dataclass(frozen=True)
class NicenessResult:
    nice: bool
    offenders: tuple[str, ...]


def is_nice(d: Diagram) -> NicenessResult:
    """Nice: every interior region is a disk with 2 or 4 corners."""
    diagram_index(d)
    bad = tuple(r.name for r in d.regions
                if not r.touches_boundary
                and not (r.genus == 0 and len(r.boundary_cycles) == 1
                         and r.corner_count in (2, 4)))
    return NicenessResult(not bad, bad)


# ---------------------------------------------------------------------------
# first homology of the glued-up 3-manifold


@dataclass(frozen=True)
class _CycleCoords:
    """Coordinates of curve-graph cycles in the fixed cycle basis B.

    B is V[:, r:] for the Smith form U bd V = D of the curve-graph
    boundary map bd, of rank r, which contracts a spanning forest: V^-1[r:]
    selects the chain positions N off the forest, and column k of B is the
    fundamental cycle of N[k].  A cycle z = B x has x = z on N.  A chain z
    that is not a cycle fails the substitution check B x = z.
    """

    chain_pos: dict                         # (curve, arc) or circle id
    basis: SparseMap                        # B, one row per chain position
    free: tuple[int, ...]                   # N, V^-1[r:] as a selection

    def read_off(self, chain: dict) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(x, B x - z) for a 1-chain z {(curve, arc) or circle id -> mult},
        x = z on N; both are linear in z, and the residual B x - z is zero
        exactly when z is a cycle."""
        z = [0] * self.basis.m
        for key, mult in chain.items():
            z[self.chain_pos[key]] += mult
        x = tuple(z[i] for i in self.free)
        return x, tuple(map(sub, self.basis @ x, z))


@dataclass(frozen=True)
class H1Presentation:
    """H1 of the sutured manifold as a quotient of the curve-graph cycles.

    Generators: a saturated basis B of the cycle space of the curve graph
    together with the boundary circles, plus two free generators per unit
    of region genus.  Relations: each region's total boundary, and the
    class of each full curve.  B is the fundamental cycles of a spanning
    forest, so a cycle's coordinates are its entries off the forest, and
    every read-off x must satisfy B x = z.  The normalizer reduces any
    generator-coords vector to a canonical coset representative via the
    relation SNF, taken on the cycle columns (V and V^-1 are the identity
    on the handles): w = v V is reduced modulo the diagonal and mapped back
    by V^-1.  Only the coordinates of w whose diagonal entry is not 1
    survive the reduction, so V keeps just those columns (w is then v's
    image) and V^-1 just those rows, both transposed into sparse maps.
    """

    generator_count: int
    relation_matrix: tuple[tuple[int, ...], ...]
    b1: int
    torsion: tuple[int, ...]
    _cycles: _CycleCoords
    _v: SparseMap
    _vinv: SparseMap
    _diag: tuple[int, ...]              # the diagonal entries other than 1

    def chain_coords(self, chain: dict) -> tuple[int, ...]:
        """Generator coordinates of a closed 1-chain.

        The chain is a map {(curve, arc) or circle id -> multiplicity};
        handle generators never appear in curve-graph chains.
        """
        coords, residual = self._cycles.read_off(chain)
        if any(residual):
            raise ValueError("chain is not a cycle of the curve graph")
        return coords + (0,) * (self.generator_count - len(coords))

    def chain_image(self, chain: dict) -> tuple[tuple[int, ...], ...]:
        """(image, residual B x - z) of any 1-chain, both linear in it: a sum
        of chains is a cycle when its residuals sum to 0, and its coset is
        coset_of_image of the summed images."""
        x, residual = self._cycles.read_off(chain)
        return self.image(x + (0,) * (self.generator_count - len(x))), residual

    def image(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """v V on the coordinates whose diagonal entry is not 1."""
        return self._v @ v

    def coset_of_image(self, w: tuple[int, ...]) -> tuple[int, ...]:
        """The canonical representative of the coset whose image is w."""
        return self._vinv @ [x % d if d else x
                             for x, d in zip(w, self._diag)]

    def normalize(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """Canonical representative of v's coset modulo the relations."""
        return self.coset_of_image(self.image(v))

    def free_part(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """Coordinates of v in the free quotient Z^b1 (torsion dropped)."""
        return tuple(x for x, d in zip(self.image(v), self._diag) if d == 0)

    def reduce_chain(self, chain: dict) -> tuple[int, ...]:
        return self.normalize(self.chain_coords(chain))


def h1_presentation(d: Diagram) -> H1Presentation:
    return diagram_index(d).h1


def _cycle_coords(s: _Scan) -> _CycleCoords:
    """The cycle basis of smith_normal_form(bd), without taking the form.

    On bd every entry stays 0 or +-1 and every pivot is a unit, so the
    form takes the first row with an arc left, its arc in the least current
    column position, and adds the row to that of the arc's other end: it
    contracts a spanning forest.  Its column operations, mirrored on V,
    make V[:, r:] the fundamental cycles of the positions N off the forest,
    and V^-1[r:] selects N.  Certified apart from the contraction: B has
    zero boundary and is the identity on N, so it spans a saturated
    lattice, of rank n - (P - c), c the curve graph's components.
    """
    def find(parent: list[int], x: int) -> int:     # union-find root
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    d = s.d
    arcs = [(c.name, k) for c in d.curves for k in range(len(c.points))]
    row_of = {p: i for i, p in enumerate(s.points)}
    ends = [tuple(row_of[p] for p in s.curve_by_name[c].arc_ends(k))
            for c, k in arcs]
    m, n = len(s.points), len(arcs) + len(d.boundary_circles)
    rows: list[dict] = [{} for _ in range(m)]
    for a, (u, v) in enumerate(ends):
        if u != v:
            rows[v][a], rows[u][a] = 1, -1
    at, pos, cls, t = list(range(n)), list(range(n)), list(range(m)), 0
    cols = [{a: 1} for a in range(n)]
    for p, row in enumerate(rows):
        if row:
            a, moved = min(row, key=pos.__getitem__), at[t]
            at[t], at[pos[a]], pos[moved], pos[a] = a, moved, pos[a], t
            # merge row p into the row of a's other end
            k = cls[p] = find(cls, ends[a][row[a] < 0])
            for b, x in row.items():
                if b != a:
                    _add(cols[b], -x * row[a], cols[a])
                if rows[k].pop(b, None) is None:
                    rows[k][b] = x
            t += 1
    free, comp = at[t:], list(range(m))
    for u, v in ends:
        comp[find(comp, u)] = find(comp, v)
    bd = SparseMap.by_columns([{v: 1, u: -1} if u != v else {}
                               for u, v in ends] + [{}] * (n - len(ends)), m)
    on_free, cols = set(free), [cols[e] for e in free]
    if (len(free) != n - m + sum(i == x for i, x in enumerate(comp))
            or any(any(bd @ col) for col in cols)
            or any({a: x for a, x in col.items() if a in on_free} != {e: 1}
                   for e, col in zip(free, cols))):
        raise AssertionError("cycle basis verification failed")
    return _CycleCoords({key: i for i, key in
                         enumerate(arcs + list(d.boundary_circles))},
                        SparseMap.by_columns(cols, n), tuple(free))


def _h1_presentation(s: _Scan) -> H1Presentation:
    d = s.d
    if len(s.components) != 1:
        raise Disconnected(f"{len(s.components)} components")
    cycles = _cycle_coords(s)
    cycle_rank = len(cycles.free)
    handles = sum(2 * r.genus for r in d.regions)
    gen_count = cycle_rank + handles

    def coords_of(chain: dict) -> tuple[int, ...]:
        x, residual = cycles.read_off(chain)
        if any(residual):
            raise AssertionError("region/curve relation is not a cycle")
        return x

    relations = []
    for r in d.regions:
        chain: dict = {}
        for cyc in r.boundary_cycles:
            if isinstance(cyc, str):
                chain[cyc] = chain.get(cyc, 0) + 1
            else:
                for seg in cyc:
                    key = (seg.curve, seg.arc)
                    chain[key] = chain.get(key, 0) + (1 if seg.forward else -1)
        relations.append(list(coords_of(chain)))
    for c in d.curves:
        chain = {(c.name, k): 1 for k in range(len(c.points))}
        relations.append(list(coords_of(chain)))

    if gen_count == 0:
        return H1Presentation(0, (), 0, (), cycles, SparseMap([]),
                              SparseMap([]), ())

    # no relation meets a handle generator: V and V^-1 are 1 there, D is 0
    snf = smith_normal_form(relations or [[0] * cycle_rank])
    diag = list(snf.diagonal) + [0] * (gen_count - len(snf.diagonal))
    eye = [{i: 1} for i in range(cycle_rank, gen_count)]
    v_cols = [dict(col) for col in snf.v_map.cols] + eye
    vinv_rows = list(snf.vinv_rows) + eye
    kept = [i for i, x in enumerate(diag) if x != 1]
    return H1Presentation(
        generator_count=gen_count,
        relation_matrix=tuple(tuple(r) for r in relations),
        b1=diag.count(0),
        torsion=tuple(x for x in diag if x > 1),
        _cycles=cycles,
        _v=SparseMap([v_cols[i] for i in kept], gen_count),
        _vinv=SparseMap.by_columns([vinv_rows[i] for i in kept], gen_count),
        _diag=tuple(diag[i] for i in kept),
    )
