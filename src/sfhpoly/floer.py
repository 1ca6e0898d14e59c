"""Intersection generators, their class partition, and GF(2) homology.

A generator matches each alpha curve to one intersection point so that
the points lie on pairwise distinct beta curves.  The difference class
eps(x, y) is the H1 coset of the 1-cycle built from forward paths along
alpha curves minus forward paths along beta curves; it vanishes exactly
when an integer domain connects x to y (boundary regions pinned to 0).
Both eps and the connecting domain are read off the two point sets:
each path runs between the indices that the context's point_alpha /
point_beta tables give x's and y's points, and the jump system's
right-hand side at a point is +-((point in y) - (point in x)).

Each class gets one domain table: D(a, g) for its first member a and
every member g, one solve each, and the grading gr(g) = -mu(D(a, g)).
With a zero periodic lattice D(x, y) = D(a, y) - D(a, x) and
mu(x, y) = gr(x) - gr(y), so only pairs one grading apart with
D(x, y) >= 0 can count.  On a nice diagram every such pair is an entry:
by Sarkar and Wang (Ann. of Math. 171, 2010, Theorem 3.3) a positive
index-1 domain there is an empty embedded bigon or rectangle, with one
holomorphic representative.  That is checked, not assumed: a domain with
a multiplicity above 1, with other than one or two moved coordinates,
or covering a corner at a point x and y share raises AssertionError.
On any other diagram the absence of such a pair certifies d = 0, and a
pair is reported as undetermined rather than guessed.

The differential is one sparse form, the pairs (i, j) with an x_i -> x_j
entry.  homology groups them by class into bitmask rows per class block,
checks d^2 = 0 on each block and takes its certified GF(2) rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul

from .diagram import (
    Diagram,
    PeriodicLattice,
    diagram_index,
    h1_presentation,
    is_nice,
)
from .exactalg import gf2_rank_kernel


class LatticeNotZero(RuntimeError):
    """Connecting domains are not unique, so counting is refused."""


class NonIntegerIndex(ArithmeticError):
    """A Maslov index came out fractional: quadrant data is corrupted."""


class DifferentialUndetermined(RuntimeError):
    """No implemented counting rule settles the differential."""


# ---------------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class Generator:
    """One point per alpha curve, the points on distinct beta curves."""

    matching: tuple[tuple[str, str], ...]       # (alpha curve id, point id)

    @property
    def points(self) -> tuple[str, ...]:
        return tuple(p for _, p in self.matching)

    def __str__(self) -> str:
        return "{" + ",".join(self.points) + "}"


def enumerate_generators(d: Diagram) -> tuple[Generator, ...]:
    """All generators, ordered by point id along sorted alpha curve ids."""
    s = diagram_index(d)
    alphas = sorted(c.name for c in d.alpha_curves)
    out: list[Generator] = []
    chosen: list[tuple[str, str]] = []
    used_beta: set[str] = set()

    def extend(i: int) -> None:
        if i == len(alphas):
            out.append(Generator(tuple(chosen)))
            return
        for p in sorted(s.curve_by_name[alphas[i]].points):
            beta = s.point_beta[p][0]
            if beta in used_beta:
                continue
            used_beta.add(beta)
            chosen.append((alphas[i], p))
            extend(i + 1)
            chosen.pop()
            used_beta.discard(beta)

    extend(0)
    return tuple(out)


# ---------------------------------------------------------------------------
# class partition via eps


def epsilon(d: Diagram, x: Generator, y: Generator) -> tuple[int, ...]:
    """Normalized H1 coset separating x from y (zero iff same class)."""
    s = diagram_index(d)
    chain: dict = {}
    for table, coeff in ((s.point_alpha, 1), (s.point_beta, -1)):
        # x and y have one point on each curve, so sorting by curve pairs them
        starts = sorted(map(table.__getitem__, x.points))
        stops = sorted(map(table.__getitem__, y.points))
        for (name, k), (_, stop) in zip(starts, stops):
            n = len(s.curve_by_name[name].points)
            while k != stop:
                chain[name, k] = coeff
                k = (k + 1) % n
    return s.h1.reduce_chain(chain)


@dataclass(frozen=True)
class SpinAssignment:
    """Class index of a generator and the class's canonical coset."""

    class_id: int
    coset_rep: tuple[int, ...]


def partition_spinc(d: Diagram,
                    gens: tuple[Generator, ...]) -> tuple[SpinAssignment, ...]:
    """One assignment per generator; cosets are relative to gens[0]."""
    reps: dict[tuple[int, ...], int] = {}
    out = []
    for g in gens:
        rep = epsilon(d, g, gens[0])
        cid = reps.setdefault(rep, len(reps))
        out.append(SpinAssignment(cid, rep))
    return tuple(out)


# ---------------------------------------------------------------------------
# connecting domains


@dataclass(frozen=True)
class Domain:
    """Region multiplicities; zero on boundary-touching regions."""

    multiplicities: tuple[int, ...]


@dataclass(frozen=True)
class NoDomain:
    """The affine system is infeasible: the generators differ in class."""


@dataclass(frozen=True)
class NonUnique:
    """Solutions differ by a nonzero lattice of periodic domains."""

    lattice: PeriodicLattice


def connecting_domain(d: Diagram, x: Generator,
                      y: Generator) -> Domain | NoDomain | NonUnique:
    """Solve for the domain from x to y over interior regions.

    The alpha part of its boundary runs from x to y, the beta part from
    y to x.  Unique when the periodic lattice is zero.
    """
    s = diagram_index(d)
    meta, solver = s.jump
    xs, ys = set(x.points), set(y.points)
    sol = solver.solve([sign * ((p in ys) - (p in xs)) for sign, p in meta])
    if sol is None:
        return NoDomain()
    if s.lattice.rank:
        return NonUnique(s.lattice)
    return Domain(s.on_regions(sol))


# ---------------------------------------------------------------------------
# Maslov index


def maslov_index(d: Diagram, dom: Domain, x: Generator, y: Generator) -> int:
    """Index of dom as a class from x to y.

    Euler measures weighted by multiplicity plus the average quadrant
    multiplicity over the points of x and of y, summed as 4 mu in integers
    from the context's 4 e(R) per region.
    """
    s = diagram_index(d)
    m = dom.multiplicities
    mu4 = sum(map(mul, m, s.euler4))
    for g in (x, y):
        for p in g.points:
            mu4 += sum(m[ri] for ri in s.quadrant[p].values())
    if mu4 % 4:
        raise NonIntegerIndex(f"index {mu4}/4 between {x} and {y}")
    return mu4 // 4


# ---------------------------------------------------------------------------
# differential


@dataclass(frozen=True)
class Exact:
    """Sorted pairs (i, j), one per x_i -> x_j entry of d over GF(2)."""

    entries: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ZeroCertificate:
    """Every class-mate domain is non-positive or of index != 1: d = 0."""


@dataclass(frozen=True)
class Undetermined:
    """Some positive index-1 domain exists on a non-nice diagram."""


def _domain_table(d: Diagram, gens: tuple[Generator, ...], members: list[int]):
    """(g, D(a, g), gr(g) = -mu(D(a, g))) per member g, anchor a = members[0].

    The jump system is linear in the pair, so with a zero periodic lattice
    D(x, y) = D(a, y) - D(a, x), and mu(x, y) = gr(x) - gr(y) by additivity.
    """
    a = gens[members[0]]
    table = []
    for g in members:
        dom = connecting_domain(d, a, gens[g])
        if not isinstance(dom, Domain):
            raise AssertionError("no unique domain within a class")
        table.append((g, dom.multiplicities,
                      -maslov_index(d, dom, a, gens[g])))
    return table


def _differential(d: Diagram, gens: tuple[Generator, ...],
                  assignments: tuple[SpinAssignment, ...]):
    """One domain table per class, and the differential read off them."""
    s = diagram_index(d)
    if s.lattice.rank:
        raise LatticeNotZero("periodic domains make counting ambiguous")
    by_class: dict[int, list[int]] = {}
    for i, a in enumerate(assignments):
        by_class.setdefault(a.class_id, []).append(i)
    tables = [_domain_table(d, gens, by_class[c]) for c in sorted(by_class)]
    nice = is_nice(d).nice
    ones = set()
    for table in tables:
        for (i, di, gi), (j, dj, gj) in product(table, repeat=2):
            if gi - gj != 1 or any(p > q for p, q in zip(di, dj)):
                continue
            if not nice:
                return tables, Undetermined()
            dom = tuple(q - p for p, q in zip(di, dj))
            shared = set(gens[i].points) & set(gens[j].points)
            moved = len(gens[i].points) - len(shared)
            if max(dom) > 1:
                fault = "a multiplicity above 1"
            elif not 1 <= moved <= 2:
                fault = f"{moved} moved coordinates"
            elif any(dom[r] for p in shared for r in s.quadrant[p].values()):
                fault = "a covered corner at a shared point"
            else:
                ones.add((i, j))
                continue
            raise AssertionError(
                f"positive index-1 domain from {gens[i]} to {gens[j]} on a "
                f"nice diagram has {fault}, so it is not an empty bigon or "
                f"rectangle")
    if not nice:
        return tables, ZeroCertificate()
    return tables, Exact(tuple(sorted(ones)))


def differential(d: Diagram, gens: tuple[Generator, ...],
                 assignments: tuple[SpinAssignment, ...]):
    """Exact entries on nice diagrams, else ZeroCertificate or Undetermined."""
    return _differential(d, gens, assignments)[1]


# ---------------------------------------------------------------------------
# homology


@dataclass(frozen=True)
class ClassRow:
    """Homology data of one generator class."""

    class_id: int
    members: tuple[int, ...]            # generator indices
    gen_count: int
    diff_rank: int
    dimension: int
    coset_rep: tuple[int, ...]
    free_coords: tuple[int, ...]
    gradings: tuple[int, ...]           # relative, aligned with members


@dataclass(frozen=True)
class SFHTable:
    """Per-class GF(2) homology dimensions with relative gradings."""

    generators: tuple[Generator, ...]
    assignments: tuple[SpinAssignment, ...]
    classes: tuple[ClassRow, ...]
    b1: int
    torsion: tuple[int, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c.dimension for c in self.classes)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)


def _assert_square_zero(rows: list[int]) -> None:
    """d^2 = 0 on one class block, its rows GF(2) bitmasks over the block."""
    for bits in rows:
        acc = 0
        while bits:
            low = bits & -bits
            acc ^= rows[low.bit_length() - 1]
            bits ^= low
        if acc:
            raise AssertionError("differential does not square to zero")


def homology(d: Diagram) -> SFHTable:
    """Class-by-class homology table; raises if the differential is open."""
    gens = enumerate_generators(d)
    h1 = h1_presentation(d)
    if not gens:
        return SFHTable((), (), (), h1.b1, h1.torsion)
    assignments = partition_spinc(d, gens)
    tables, res = _differential(d, gens, assignments)
    if isinstance(res, Undetermined):
        raise DifferentialUndetermined("no combinatorial count applies")
    # each class block's rows as bitmasks over its members' positions; a
    # zero certificate is the differential with no entries
    local = {g: k for table in tables for k, (g, _, _) in enumerate(table)}
    blocks = [[0] * len(table) for table in tables]
    for i, j in res.entries if isinstance(res, Exact) else ():
        blocks[assignments[i].class_id][local[i]] |= 1 << local[j]
    rows = []
    for cid, (table, block) in enumerate(zip(tables, blocks)):
        members, _, grads = zip(*table)
        _assert_square_zero(block)
        rank = gf2_rank_kernel(block)
        count = len(members)
        dim = count - 2 * rank
        if dim < 0:
            raise AssertionError("differential rank exceeds half the class")
        rep = assignments[members[0]].coset_rep
        rows.append(ClassRow(cid, members, count, rank, dim, rep,
                             h1.free_part(rep), grads))
    table = SFHTable(gens, assignments, tuple(rows), h1.b1, h1.torsion)
    if sum(c.gen_count for c in table.classes) != len(gens):
        raise AssertionError("classes do not partition the generators")
    return table
