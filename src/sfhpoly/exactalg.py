"""Exact integer and rational linear algebra with small convex hulls.

Everything runs over Python ints and fractions.Fraction; no floats.  One
fraction-free elimination routine, `_bareiss`, is the core under every
determinant and rank and under the hull's affine frame, facet normals and
facet pull-back: Bareiss's integer-preserving Gaussian elimination
(Bareiss 1968), optionally clearing above the pivot too (Gauss-Jordan),
which leaves the last pivot times the reduced row echelon form, so no
inverse is taken.  The core and the Smith normal form take integer
matrices only: they work on a copy and raise TypeError on any other
entry.  Rational points reach it only through convex_hull, which scales
them to integers first.  That keeps checking cheap, so every result that
feeds the calculator is still checked:

* a Smith normal form is re-multiplied column by column (U A V = D), its
  diagonal shape and divisibility chain are checked, and U and V are
  confirmed unimodular by U U^-1 = V V^-1 = I, again column by column,
  with the inverses tracked through the same elementary operations
  (integer matrices whose product is I have determinant +-1).  Its
  matrices are dict rows of their nonzeros from elimination to
  certificate, whose products take the sparse columns as they are.  The
  result is held once, sparse: D's diagonal, the maps of A, U and V that
  the certificate built, and V^-1 by rows;
* an integer solve is substituted back into A x = b, and every kernel
  vector into A v = 0;
* a GF(2) rank of bitmask rows is certified both ways: its echelon rows
  have distinct lowest set bits, and every input row reduces to zero;
* every input point is checked against every facet of its hull;
* a hull's centroid is checked against a second triangulation, the cones
  from it over the hull's boundary.

A hull, its vertices and its centroid come from one placing
(beneath-beyond) triangulation on integer coordinates in the affine hull of
the points: its boundary simplices give the facets and the vertices, its
full-dimensional simplices the centroid.  Matrices are rectangular lists
of rows; vectors are tuples, or dicts {index: x} of their nonzeros.
There is one matrix product: a SparseMap, a matrix kept as its nonzero
entries by column, applied to a vector, so the shape is checked once and
a product costs the nonzeros it meets.  A product of two matrices is
taken a column of the right factor at a time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul


# ---------------------------------------------------------------------------
# matrix plumbing


def _shape(a: list[list[int]]) -> tuple[int, int]:
    """Return (rows, cols), insisting the matrix is rectangular."""
    m = len(a)
    if m == 0:
        return 0, 0
    n = len(a[0])
    for row in a:
        if len(row) != n:
            raise ValueError("matrix is not rectangular")
    return m, n


def _transpose(rows: list[dict], n: int) -> list[dict]:
    """The n columns {i: x} of the dict rows {j: x} of a matrix's nonzeros."""
    cols: list[dict] = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            cols[j][i] = x
    return cols


class SparseMap:
    """A fixed integer matrix kept as the nonzero entries of its columns.

    `a @ v`, a times the column vector v, is the only matrix product here;
    v is a sequence, or a dict {j: x} of its nonzeros.  The shape is
    checked once, when the map is built; a product then costs the nonzero
    entries of a in the columns where v is nonzero.  A row vector times a
    matrix is its transpose's map applied to the vector, and a times a
    matrix is a applied to each column of it.
    """

    def __init__(self, a, n: int = 0):
        """a is a list of rows, sequences or dicts {j: x} of their nonzeros;
        n is its column count, needed for dict rows and when there are none."""
        if a and isinstance(a[0], dict):
            self.m, self.n = len(a), n
            self.cols = [list(col.items()) for col in _transpose(a, n)]
            return
        self.m, self.n = _shape(a) if a else (0, n)
        self.cols = [[(i, x) for i, x in enumerate(col) if x]
                     for col in zip(*a)] or [[]] * self.n

    @classmethod
    def by_columns(cls, cols, m: int) -> SparseMap:
        """The m-row map whose column j has the nonzeros {i: x} cols[j]."""
        self = cls.__new__(cls)
        self.m, self.n = m, len(cols)
        self.cols = [list(col.items()) for col in cols]
        return self

    def __matmul__(self, v) -> tuple[int, ...]:
        acc = [0] * self.m
        if isinstance(v, dict):
            if v and not 0 <= min(v) <= max(v) < self.n:
                raise ValueError(f"vector index out of range for "
                                 f"{self.m}x{self.n}")
            for j, x in v.items():
                for i, y in self.cols[j]:
                    acc[i] += x * y
            return tuple(acc)
        if len(v) != self.n:
            raise ValueError(f"vector length {len(v)} does not match "
                             f"{self.m}x{self.n}")
        for x, col in zip(v, self.cols):
            if x:
                for i, y in col:
                    acc[i] += x * y
        return tuple(acc)


# ---------------------------------------------------------------------------
# fraction-free elimination


def _bareiss(w: list[list[int]], ncols: int,
             jordan: bool = False) -> tuple[list[int], int, int]:
    """Fraction-free elimination of the integer rows w, in place.

    Pivots are sought in the first ncols columns.  Each step with pivot p,
    after the pivot prev of the step before, replaces a row by
    (p * row - row[c] * pivot row) / prev.  After k steps every entry is a
    (k+1)-minor of the input (Sylvester's identity), so the division is
    exact and no entry grows beyond a minor.  Without jordan, entries left
    of the pivot column are not rewritten, as they are no longer read.
    With jordan the rows above the pivot are cleared too and whole rows
    are rewritten, so every row ends at the scale of the last pivot p: the
    first rank rows are p times the rows of the reduced row echelon form,
    and [A | B] with A square and invertible ends as [p I | p A^-1 B].
    Returns (pivot columns, last pivot, sign of the row permutation); for
    square A of full rank det A = sign * last.
    """
    m = len(w)
    pivots: list[int] = []
    prev, sign, r = 1, 1, 0
    for c in range(ncols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if w[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            w[r], w[piv] = w[piv], w[r]
            sign = -sign
        lo = 0 if jordan else c
        top, p = w[r][lo:], w[r][c]
        for i in range(0 if jordan else r + 1, m):
            if i == r:
                continue
            row = w[i]
            f = row[c]
            if f:
                row[lo:] = [(p * x - f * y) // prev
                            for x, y in zip(row[lo:], top)]
            elif p != prev:
                row[lo:] = [p * x // prev for x in row[lo:]]
        prev = p
        pivots.append(c)
        r += 1
    return pivots, prev, sign


def _int_rows(a) -> list[list[int]]:
    """A copy of the matrix a, whose entries must all be ints.

    Floor division on any other entry type (a Fraction, say) would give a
    wrong result without an error, so it is refused with TypeError.
    """
    rows = [list(row) for row in a]
    for row in rows:
        for x in row:
            if not isinstance(x, int):
                raise TypeError(f"exact elimination takes ints, got "
                                f"{type(x).__name__}")
    return rows


def _det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix; its rows are overwritten."""
    pivots, last, sign = _bareiss(rows, len(rows))
    return sign * last if len(pivots) == len(rows) else 0


def exact_det(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    rows = _int_rows(a)
    m, n = _shape(rows)
    if m != n:
        raise ValueError("determinant of a non-square matrix")
    return _det(rows)


def _rank(a: list[list[int]]) -> int:
    """Rank of a list of integer row vectors."""
    rows = _int_rows(a)
    return len(_bareiss(rows, len(rows[0]) if rows else 0)[0])


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True, eq=False)
class SNFResult:
    """U * A * V = D with U, V unimodular and D diagonal, d1 | d2 | ...

    Each matrix is held once, by its nonzeros: D as its diagonal, the
    min(m, n) entries D[i][i]; A, U and V as the maps that the
    certificate built and checked; and V^-1, built alongside V, as dict
    rows {j: x}.
    """

    diagonal: tuple[int, ...]
    a_map: SparseMap = field(repr=False)
    u_map: SparseMap = field(repr=False)
    v_map: SparseMap = field(repr=False)
    vinv_rows: tuple[dict, ...] = field(repr=False)

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)


def _add(row: dict, q: int, other: dict) -> None:
    """row += q * other, in place, on dict rows {j: x} of nonzeros."""
    for j, y in other.items():
        if x := row.get(j, 0) + q * y:
            row[j] = x
        else:
            row.pop(j, None)


def smith_normal_form(a: list[list[int]]) -> SNFResult:
    """Smith normal form with unimodular transforms, verified by multiplication.

    Classic pivoting: repeatedly move a least-magnitude entry (first row,
    then least column) to the pivot slot, clear its column and then its
    row, and fold non-divisible entries back into the pivot row.  Each
    operation that builds U or V also updates its inverse: a row operation
    on U is the inverse column operation on U^-1 (kept transposed), and a
    column operation on V (kept by columns) the inverse row operation on
    V^-1.  Every matrix is kept as dict rows {j: x} of its nonzeros, so an
    operation costs the nonzeros it meets; a clearing's column operations
    are one update of each row nonzero in the pivot column, and its inverse
    updates one running sum into the pivot row.  Total, including empty
    matrices.  The result keeps what the certificate checked, as it was
    held: D's diagonal, the maps of A, U and V, and the rows of V^-1.
    """
    rows = _int_rows(a)
    m, n = _shape(rows)
    d = [{j: x for j, x in enumerate(row) if x} for row in rows]
    a_map = SparseMap(d, n)
    u, uinv_t = [{i: 1} for i in range(m)], [{i: 1} for i in range(m)]
    vt, vinv = [{j: 1} for j in range(n)], [{j: 1} for j in range(n)]

    t = 0
    while t < min(m, n):
        pi, best = None, 0
        for i in range(t, m):
            x = min(map(abs, d[i].values()), default=0)
            if x and (pi is None or x < best):
                pi, best = i, x
            if best == 1:           # no entry is smaller than a unit
                break
        if pi is None:
            break
        pj = min(j for j, x in d[pi].items() if abs(x) == best)
        if pi != t:
            for w in (d, u, uinv_t):
                w[t], w[pi] = w[pi], w[t]
        if pj != t:
            for row in d[t:]:
                x, y = row.pop(t, 0), row.pop(pj, 0)
                if x:
                    row[pj] = x
                if y:
                    row[t] = y
            for w in (vt, vinv):
                w[t], w[pj] = w[pj], w[t]

        dt, ut, p = d[t], u[t], d[t][t]
        dirty = False
        for i in range(t + 1, m):
            if t in d[i]:
                q = d[i][t] // p
                _add(d[i], -q, dt)
                _add(u[i], -q, ut)
                _add(uinv_t[t], q, uinv_t[i])
                dirty = dirty or t in d[i]
        qs = {j: x // p for j, x in dt.items() if j != t}
        for row in [row for row in d[t:] if t in row]:
            _add(row, -row[t], qs)
        for j, q in qs.items():
            _add(vt[j], -q, vt[t])
            _add(vinv[t], q, vinv[j])
            dirty = dirty or j in dt
        if dirty:
            continue

        offender = None
        if abs(p) != 1:             # a unit divides everything
            offender = next((i for i in range(t + 1, m)
                             if any(x % p for x in d[i].values())), None)
        if offender is not None:
            for w, i, j, q in ((d, t, offender, 1), (u, t, offender, 1),
                               (uinv_t, offender, t, -1)):
                _add(w[i], q, w[j])
            continue

        if p < 0:
            for w in (d, u, uinv_t):
                w[t] = {j: -x for j, x in w[t].items()}
        t += 1

    u_map, v_map = _verify_snf(a_map, d, u, vt, uinv_t, vinv)
    return SNFResult(tuple(d[i].get(i, 0) for i in range(min(m, n))),
                     a_map, u_map, v_map, tuple(vinv))


def _verify_snf(a: SparseMap, d: list[dict], u: list[dict], vt: list[dict],
                uinv_t: list[dict], vinv: list[dict]) -> tuple[SparseMap, ...]:
    """Check U A V = D, D's shape and divisibility chain, and U U^-1 = I
    and V V^-1 = I: integer matrices whose product is I are unimodular.

    a is the map of A.  D, U and V^-1 come as dict rows {j: x} of their
    nonzeros, V and U^-1 as dict columns {i: x}.  Every product is a sparse
    map applied to one sparse column: U (A (column j of V)) must be column
    j of D, and U times column j of U^-1 and V times column j of V^-1 must
    be the unit vector e_j.  The map of U is built from U's rows, that of V
    from its columns; returns both.
    """
    m, n = a.m, a.n
    u_map, v_map = SparseMap(u, m), SparseMap.by_columns(vt, n)
    if [{i: x for i, x in enumerate(u_map @ (a @ col)) if x}
            for col in vt] != _transpose(d, n):
        raise AssertionError("SNF verification failed: U*A*V != D")
    for i, row in enumerate(d):
        if row.keys() - {i}:
            raise AssertionError("SNF verification failed: D not diagonal")
    diag = [row.get(i, 0) for i, row in enumerate(d[:n])]
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            raise AssertionError("SNF verification failed: zero before nonzero")
        if x != 0 and y % x != 0:
            raise AssertionError("SNF verification failed: divisibility chain")
    for f, cols, k, name in ((u_map, uinv_t, m, "U"),
                             (v_map, _transpose(vinv, n), n, "V")):
        if f.m != k or len(cols) != k or any(
                e[j] != 1 or e.count(0) != k - 1
                for j, e in enumerate(f @ col for col in cols)):
            raise AssertionError(f"SNF verification failed: "
                                 f"{name} not unimodular")
    return u_map, v_map


# ---------------------------------------------------------------------------
# integer kernels and affine solves


def integer_kernel_basis(a: list[list[int]]) -> list[tuple[int, ...]]:
    """Basis of the saturated lattice {v : A v = 0} over the integers."""
    return LinearSolver(a).kernel_basis()


class LinearSolver:
    """A x = b solver over the integers with a precomputed factorization.

    Callers that solve against one matrix many times (connecting domains)
    keep one of these around.  Products go through the sparse maps of A
    (`a_map`), U and V that its Smith form's certificate built and checked,
    and the kernel is read off and checked on V's sparse columns; L
    (`lcm`) is the lcm of the nonzero diagonal entries of D = U A V.
    """

    def __init__(self, a: list[list[int]]):
        self.m, self.n = _shape(a)
        self.snf = smith_normal_form(a)
        self.a_map, self._u, self._v = (self.snf.a_map, self.snf.u_map,
                                        self.snf.v_map)
        self._diag = tuple(x for x in self.snf.diagonal if x)
        self.rank, self.lcm = len(self._diag), lcm(*self._diag)

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """Basis of the saturated lattice {v : A v = 0}, verified.

        The kernel is read off the column transform of the Smith normal
        form: columns of V beyond the rank map to zero columns of D.
        """
        basis = []
        for col in self._v.cols[self.rank:]:
            col = dict(col)
            if any(self.a_map @ col):
                raise AssertionError("kernel verification failed")
            basis.append(tuple(col.get(i, 0) for i in range(self.n)))
        return basis

    def parts(self, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(X, F) for the right-hand side b, both linear in b.

        X = L V D^+ U b, and F is U b on the zero rows of D.  A x = b has an
        integer solution exactly when F = 0 and L divides X, and x = X / L
        is then one.  Linearity lets a caller add the parts of several
        right-hand sides and test only their sum.
        """
        if len(b) != self.m:
            raise ValueError("right-hand side has the wrong length")
        c = self._u @ b
        z = [self.lcm // d * y for d, y in zip(self._diag, c)]
        return self._v @ (z + [0] * (self.n - self.rank)), c[self.rank:]

    def solve(self, b: tuple[int, ...] | list[int]) -> tuple[int, ...] | None:
        """One integer solution of A x = b, or None when infeasible."""
        x, f = self.parts(b)
        if any(f) or any(y % self.lcm for y in x):
            return None
        x = tuple(y // self.lcm for y in x)
        if self.a_map @ x != tuple(b):
            raise AssertionError("integer solve verification failed")
        return x


# ---------------------------------------------------------------------------
# linear algebra over the two-element field


def _gf2_reduce(bits: int, lead: dict[int, int]) -> int:
    """bits reduced by the rows of lead, keyed by their lowest set bits."""
    while bits and (low := bits & -bits) in lead:
        bits ^= lead[low]
    return bits


def gf2_rank_kernel(rows: list[int]) -> int:
    """Rank over GF(2) of bitmask rows, bit j of a row being its column j.

    Each row is reduced against the echelon rows kept so far and kept if
    anything is left, so every echelon row is a sum of input rows.  The rank
    is certified both ways: the echelon rows have distinct lowest set bits,
    so they are independent, and every input row reduces to zero against
    them, so they span the rows.  No rows have rank 0.
    """
    for bits in rows:
        if not isinstance(bits, int) or bits < 0:
            raise TypeError(f"GF(2) rows are non-negative int bitmasks, "
                            f"got {bits!r}")
    echelon: list[int] = []
    lead: dict[int, int] = {}
    for bits in rows:
        if bits := _gf2_reduce(bits, lead):
            echelon.append(bits)
            lead[bits & -bits] = bits
    lead = {row & -row: row for row in echelon}
    if len(lead) < len(echelon) or 0 in lead:
        raise AssertionError("GF(2) echelon rows share a lowest set bit")
    if any(_gf2_reduce(bits, lead) for bits in rows):
        raise AssertionError("GF(2) echelon rows do not span the input rows")
    return len(echelon)


# ---------------------------------------------------------------------------
# exact convex hulls


class EmptyInput(ValueError):
    """convex_hull was handed no points."""


@dataclass(frozen=True)
class RatPolytope:
    """Vertex and facet descriptions of a rational polytope, and its centroid.

    Facets are pairs (normal, offset) with primitive integer normal; every
    point of the polytope satisfies normal . x >= offset, with equality on
    the facet.  For a hull of affine dimension dim < ambient_dim the facets
    cut out the polytope inside its affine hull only.  The centroid is that
    of the body under uniform measure on its affine hull; the vertices
    determine it, so it is left out of the repr.
    """

    ambient_dim: int
    vertices: tuple[tuple[Fraction, ...], ...]
    facets: tuple[tuple[tuple[int, ...], Fraction], ...]
    dim: int
    centroid: tuple[Fraction, ...] = field(repr=False)


def _as_fraction_points(points) -> list[tuple[Fraction, ...]]:
    out = [tuple(Fraction(x) for x in p) for p in points]
    if not out:
        raise EmptyInput("convex_hull needs at least one point")
    n = len(out[0])
    if any(len(p) != n for p in out):
        raise ValueError("points have mixed dimensions")
    return out


def _affine_reduce(pts: list[tuple[int, ...]]):
    """Integer coordinates of integer points inside their own affine hull.

    Returns (origin, basis rows B, scale s, coords, start), all integers,
    with s * point = origin + coords . B exactly, s the lcm of the
    denominators of the coordinates in the basis B.  A positive scale is an
    affine bijection, so it changes no placing, no visibility test and no
    primitive facet.  start indexes pts[0] and the points whose differences
    from it are the rows of B: the pivot columns of one Gauss-Jordan
    elimination of the differences pts[k] - pts[0] as columns, whose pivot
    row i then holds q times coordinate i of every point, q the last pivot.
    """
    origin = pts[0]
    w = [[p[i] - o for p in pts] for i, o in enumerate(origin)]
    cols, q, _ = _bareiss(w, len(pts), jordan=True)
    coords = list(zip(*w[:len(cols)])) or [()] * len(pts)
    g = gcd(q, *[c for row in coords for c in row])
    g = g if q > 0 else -g
    return ([q // g * o for o in origin],
            [[x - o for x, o in zip(pts[k], origin)] for k in cols], q // g,
            [tuple(c // g for c in row) for row in coords], [0, *cols])


def _placing(coords: list[tuple[int, ...]], start: list[int]):
    """Placing triangulation of full-dimensional integer coords in Z^dim.

    The dim + 1 affinely independent points indexed by start make the
    first simplex; every hyperplane is oriented by dim + 1 times its
    barycentre, which stays strictly inside.  The other points are placed
    in order: a point strictly beyond some boundary simplices is coned to
    each of them, and they are replaced by the point joined to each horizon
    ridge, a ridge met once among them (De Loera, Rambau and Santos 2010,
    section 4.3).  Returns (simplices, boundary): index tuples of the
    full-dimensional simplices, and a map from each boundary simplex to its
    (normal, offset, content): normal . x >= offset on the hull, with a
    primitive inward normal that is the cofactor normal of the simplex
    divided by content.
    """
    dim = len(start) - 1
    inner = [sum(coords[i][j] for i in start) for j in range(dim)]

    def hyperplane(face):
        pts = [coords[i] for i in face]
        w = [[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]
        # w ends as p times its reduced row echelon form; the kernel vector
        # with p at the one free column f is the cofactor normal, up to
        # sign.  Below rank dim - 1 the normal stays zero: a flat simplex
        cols, p, _ = _bareiss(w, dim, jordan=True)
        normal = [0] * dim
        if len(cols) == dim - 1:
            f = min(set(range(dim)) - set(cols))
            normal[f] = p
            for c, row in zip(cols, w):
                normal[c] = -row[f]
        offset = sum(map(mul, normal, pts[0]))
        side = sum(map(mul, normal, inner)) - (dim + 1) * offset
        if side == 0:
            raise AssertionError("hull verification failed: flat boundary simplex")
        g = gcd(*normal) if side > 0 else -gcd(*normal)
        return tuple(x // g for x in normal), offset // g, abs(g)

    simplices = [tuple(start)]
    boundary = {face: hyperplane(face)
                for face in combinations(simplices[0], dim)}
    for i, p in enumerate(coords):
        visible = [face for face, (normal, offset, _) in boundary.items()
                   if sum(map(mul, normal, p)) < offset]
        ridges = Counter(r for face in visible for r in combinations(face, dim - 1))
        for face in visible:
            del boundary[face]
            simplices.append(face + (i,))
        for ridge, count in ridges.items():
            if count == 1:
                face = tuple(sorted(ridge + (i,)))
                boundary[face] = hyperplane(face)
    return simplices, boundary


def _centroid(coords: list[tuple[int, ...]], simplices, boundary):
    """(acc, k): the centroid of the placing's simplices is acc / k.

    k = (dim + 1) * total, total the summed simplex volumes times dim!.
    The cones from the centroid over the boundary simplices triangulate the
    body a second time.  The cone over a boundary simplex has dim! times
    the volume content * (normal . x - offset), so k times it is an integer.
    The cone volumes must sum to total, and their volume-weighted
    barycentres must average to the centroid.
    """
    dim = len(coords[0])
    total, acc = 0, [0] * dim
    for simplex in simplices:
        q0 = coords[simplex[0]]
        vol = abs(_det([[x - y for x, y in zip(coords[i], q0)]
                        for i in simplex[1:]]))
        total += vol
        for j in range(dim):
            acc[j] += vol * sum(coords[i][j] for i in simplex)
    if total == 0:
        raise AssertionError("hull verification failed: zero volume")
    k = (dim + 1) * total
    cones, moment = 0, [0] * dim
    for face, (normal, offset, content) in boundary.items():
        vol = content * (sum(map(mul, normal, acc)) - k * offset)
        cones += vol
        for j in range(dim):
            moment[j] += vol * sum(coords[i][j] for i in face)
    # the cones' barycentres average to acc / k when
    # sum vol * (acc + k * sum(face)) = k^2 acc; with sum vol = k total
    # that is moment = dim total acc
    if cones != k * total or moment != [dim * total * x for x in acc]:
        raise AssertionError("hull verification failed: the cones from the "
                             "centroid do not match the placing")
    return acc, k


def convex_hull(points) -> RatPolytope:
    """Exact convex hull and body centroid of rational points.

    The placing runs in the affine hull of the points, so the ambient
    dimension is not bounded.
    """
    pts = _as_fraction_points(points)
    ambient = len(pts[0])
    # d x is an integer point for every input x
    d = lcm(*[x.denominator for p in pts for x in p])
    pts = sorted({tuple(x.numerator * (d // x.denominator) for x in p)
                  for p in pts})
    origin, basis, scale, coords, start = _affine_reduce(pts)
    scale *= d
    dim = len(basis)
    if dim == 0:
        point = tuple(Fraction(x, d) for x in pts[0])
        return RatPolytope(ambient, (point,), (), 0, point)

    simplices, boundary = _placing(coords, start)
    red_facets = sorted({(normal, offset)
                         for normal, offset, _ in boundary.values()})
    # n . c >= off pulls back along scale x = origin + c . B: with the Gram
    # matrix G = B B^T, [G | n_1 ... n_F] ends as [q I | q G^-1 n_1 ...],
    # and a = B^T q G^-1 n has a . (scale x - origin) = q n . c
    w = [[sum(map(mul, bi, bj)) for bj in basis] + [n[i] for n, _ in red_facets]
         for i, bi in enumerate(basis)]
    q = _bareiss(w, dim, jordan=True)[1]
    bt = SparseMap(list(zip(*basis)))
    facets = set()
    for k, (normal, offset) in enumerate(red_facets):
        amb = bt @ [row[dim + k] for row in w]
        g = gcd(*amb) if q > 0 else -gcd(*amb)
        if g == 0:
            raise AssertionError("hull verification failed: zero facet normal")
        off = q * offset + sum(map(mul, amb, origin))
        facets.add((tuple(x // g for x in amb), Fraction(off, scale * g)))
    facets = sorted(facets)
    # a vertex is in some boundary simplex, and tight on dim independent facets
    on_boundary = set().union(*boundary)
    vertices = tuple(tuple(Fraction(x, d) for x in pts[i])
                     for i, c in enumerate(coords) if i in on_boundary
                     and _rank([n for n, off in red_facets
                                if sum(map(mul, n, c)) == off]) == dim)

    for normal, offset in facets:
        # normal . x >= offset for x = p / d
        num, den = offset.numerator * d, offset.denominator
        for p in pts:
            if sum(map(mul, normal, p)) * den < num:
                raise AssertionError("hull verification failed: point outside facet")
    acc, k = _centroid(coords, simplices, boundary)
    centroid = tuple(Fraction(k * o + x, scale * k)
                     for o, x in zip(origin, bt @ acc))
    return RatPolytope(ambient, vertices, tuple(facets), dim, centroid)


def body_centroid(p: RatPolytope) -> tuple[Fraction, ...]:
    """Exact centroid of the polytope body under uniform measure on its hull.

    convex_hull computes it from its placing triangulation and checks it
    against the cones from it over the placing's boundary.
    """
    return p.centroid
