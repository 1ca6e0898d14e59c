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

Nothing is solved per generator: each point gets one eps row and one
domain row per diagram, a generator's data is the sum of its points' rows,
and every check is a sum check.  The residual is 0, a domain D(a, g) from
the class's first member exists and solves the jump system, and
4 mu(D(a, g)) is divisible by 4; gr(g) = -mu(D(a, g)).
With a zero periodic lattice D(x, y) = D(a, y) - D(a, x) and
mu(x, y) = gr(x) - gr(y), so only pairs one grading apart with
D(x, y) >= 0 can count, and each member meets only those one grading
below it.  On a nice diagram every such pair is an entry:
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

from collections import Counter
from dataclasses import dataclass
from operator import add, le, mul, sub

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


def _path_chain(s, points, y: Generator) -> dict:
    """The alpha paths minus the beta paths from the points to y's points
    on their curves; eps(x, y) is the class of this chain of x's points."""
    stop = dict(s.point_alpha[p] for p in y.points)
    stop.update(s.point_beta[p] for p in y.points)
    chain: dict = {}
    for p in points:
        for table, coeff in ((s.point_alpha, 1), (s.point_beta, -1)):
            name, k = table[p]
            while k != stop[name]:
                chain[name, k] = coeff
                k = (k + 1) % len(s.curve_by_name[name].points)
    return chain


def epsilon(d: Diagram, x: Generator, y: Generator) -> tuple[int, ...]:
    """Normalized H1 coset separating x from y (zero iff same class)."""
    s = diagram_index(d)
    return s.h1.reduce_chain(_path_chain(s, x.points, y))


@dataclass(frozen=True)
class SpinAssignment:
    """Class index of a generator and the class's canonical coset."""

    class_id: int
    coset_rep: tuple[int, ...]


def _summed_rows(rows: dict, gens: tuple[Generator, ...], width: int):
    """Per generator, the sum of its points' rows."""
    for g in gens:
        cols = zip([0] * width, *(rows[p] for p in g.points))
        yield [sum(col) for col in cols]


def _eps_points(s, base: Generator) -> tuple[dict, tuple[int, int]]:
    """(rows, cuts): rows[p] = W_p + r_p, the image and residual
    (chain_image) of p's path chain to base; cuts end the two parts."""
    rows = {p: sum(s.h1.chain_image(_path_chain(s, (p,), base)), ())
            for p in s.points}
    w, r = s.h1.chain_image({})
    return rows, (len(w), len(w) + len(r))


def partition_spinc(d: Diagram,
                    gens: tuple[Generator, ...]) -> tuple[SpinAssignment, ...]:
    """One assignment per generator; cosets are relative to gens[0] and
    normalized once per summed image."""
    if not gens:
        return ()
    s = diagram_index(d)
    rows, (nw, width) = _eps_points(s, gens[0])
    by_image, reps, out = {}, {}, []
    for g, v in zip(gens, _summed_rows(rows, gens, width)):
        if any(v[nw:]):
            raise AssertionError(f"the eps chain of {g} is not a cycle")
        w = tuple(v[:nw])
        if w not in by_image:
            rep = s.h1.coset_of_image(w)
            by_image[w] = SpinAssignment(reps.setdefault(rep, len(reps)), rep)
        out.append(by_image[w])
    if any(out[0].coset_rep):
        raise AssertionError(f"eps({gens[0]}, {gens[0]}) is not zero")
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


def _domain_points(s) -> tuple[dict, tuple[int, int, int, int]]:
    """(rows, cuts): rows[p] = X_p + N_p + F_p + b_p, cuts the part ends.

    A domain from x to y solves A D = b(y) - b(x), b(g) the sum of b_p over
    g.  X_p, F_p are the jump solver's parts of b_p, L its lcm, and N_p
    counts p's corners in each interior region.
    """
    meta, solver = s.jump
    rows = {}
    for p in s.points:
        b = [sign * (q == p) for sign, q in meta]
        corners = Counter(s.quadrant[p].values())
        x, f = solver.parts(b)
        rows[p] = x + tuple(corners[ri] for ri in s.interior) + f + tuple(b)
    n, f = solver.n, solver.m - solver.rank
    return rows, (n, 2 * n, 2 * n + f, 2 * n + f + solver.m)


def _class_tables(s, gens: tuple[Generator, ...],
                  assignments: tuple[SpinAssignment, ...]):
    """Per class, (g, D(a, g), gr(g) = -mu(D(a, g))) per member g, a its first.

    Y(g) - Y(a), Y the summed point rows, holds X, F and b from a to g: a
    domain exists when F = 0 and L divides X, D(a, g) = X / L must solve
    A D = b, and 4 mu = (e + N(a) + N(g)) . D(a, g), e the Euler row.  eps
    vanishes exactly when a domain exists, so classes differ in (F, X mod L).
    """
    solver = s.jump[1]
    lcm = solver.lcm
    rows, (cx, cn, cf, width) = _domain_points(s)
    euler = [s.euler4[ri] for ri in s.interior]
    anchors, keys = {}, {}      # class -> (a, Y(a), e + N(a), its table)
    for g, y in enumerate(_summed_rows(rows, gens, width)):
        c = assignments[g].class_id
        if c not in anchors:
            key = tuple(y[cn:cf]) + tuple(x % lcm for x in y[:cx])
            if keys.setdefault(key, c) != c:
                raise AssertionError(f"a domain connects classes "
                                     f"{keys[key]} and {c}")
            anchors[c] = gens[g], y, list(map(add, euler, y[cx:cn])), []
        a, ya, weight, table = anchors[c]
        dom = list(map(sub, y[:cx], ya[:cx]))
        if y[cn:cf] != ya[cn:cf] or any(x % lcm for x in dom):
            raise AssertionError("no unique domain within a class")
        dom = [x // lcm for x in dom]
        if solver.a_map @ dom != tuple(map(sub, y[cf:], ya[cf:])):
            raise AssertionError("integer solve verification failed")
        mu4 = sum(map(mul, dom, map(add, weight, y[cx:cn])))
        if mu4 % 4:
            raise NonIntegerIndex(f"index {mu4}/4 between {a} and {gens[g]}")
        table.append((g, s.on_regions(dom), -(mu4 // 4)))
    return [anchors[c][3] for c in sorted(anchors)]


def _differential(d: Diagram, gens: tuple[Generator, ...],
                  assignments: tuple[SpinAssignment, ...]):
    """One domain table per class, and the differential read off them;
    each member is compared only with the members one grading below it."""
    s = diagram_index(d)
    if s.lattice.rank:
        raise LatticeNotZero("periodic domains make counting ambiguous")
    tables = _class_tables(s, gens, assignments)
    nice = is_nice(d).nice
    ones = set()
    for table in tables:
        by_grading: dict = {}
        for row in table:
            by_grading.setdefault(row[2], []).append(row)
        pairs = ((x, y) for x in table for y in by_grading.get(x[2] - 1, ()))
        for (i, di, _), (j, dj, _) in pairs:
            if not all(map(le, di, dj)):
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
