"""Exact linear algebra and hull tests, checked against independent oracles.

Oracles used here:
  * Smith normal form  -> determinantal divisors (gcd of all k x k minors,
    each minor taken by sympy); the product d_1 ... d_k of invariant factors
    must equal the k-th divisor.  Also sympy's own Smith normal form.
  * determinants, ranks and inverses -> sympy's exact Matrix arithmetic.
  * GF(2) ranks        -> sympy's DomainMatrix over GF(2), and a naive
    list-of-lists row reduction.
  * convex hulls       -> scipy's Qhull (vertices, facet hyperplanes, and the
    centroid of a Delaunay triangulation) on degenerate integer point sets,
    plus the facet/extremality definitions directly.
Expected values below were computed from those oracles and frozen.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd, lcm
from operator import xor
from pathlib import Path
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import GF
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from sympy.polys.matrices import DomainMatrix

from sfhpoly import diagram, exactalg, polytope
from sfhpoly.builders import build_tpqn, glue, stabilize
from sfhpoly.exactalg import (
    EmptyInput,
    LinearSolver,
    SNFResult,
    SparseMap,
    _bareiss,
    _rank,
    _verify_snf,
    body_centroid,
    convex_hull,
    exact_det,
    gf2_rank_kernel,
    integer_kernel_basis,
    smith_normal_form,
)
from sfhpoly.floer import homology

from conftest import curve_graph_boundary, grid_knot


# ---------------------------------------------------------------------------
# oracles


def mat_vec(a, v):
    """Dense A v, the reference for the sparse products."""
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def minor_gcd(a, k):
    """gcd of all k x k minors; 0 when every minor vanishes."""
    m, n = len(a), len(a[0])
    g = 0
    for rows in combinations(range(m), k):
        for cols in combinations(range(n), k):
            sub = [[a[i][j] for j in cols] for i in rows]
            g = gcd(g, abs(int(sympy.Matrix(sub).det())))
    return g


def to_sympy(a):
    """Exact sympy matrix of int or Fraction rows."""
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in a])


def as_fraction(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def gf2_rank_naive(a):
    w = [[x & 1 for x in row] for row in a]
    rank = 0
    n = len(w[0]) if w else 0
    for c in range(n):
        piv = next((r for r in range(rank, len(w)) if w[r][c]), None)
        if piv is None:
            continue
        w[rank], w[piv] = w[piv], w[rank]
        for r in range(len(w)):
            if r != rank and w[r][c]:
                w[r] = [(x + y) % 2 for x, y in zip(w[r], w[rank])]
        rank += 1
    return rank


def point_in_facets(p, poly):
    return all(sum(n * x for n, x in zip(normal, p)) >= off
               for normal, off in poly.facets)


matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m, max_size=m)))

# small entries make singular matrices common, large ones make big minors
entries = st.one_of(st.integers(-2, 2), st.integers(-99, 99))
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def square(size, elements):
    return st.integers(1, size).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n),
                           min_size=n, max_size=n))


def cleared(a):
    """Each row of a rational matrix times the lcm of its denominators."""
    return [[int(x * lcm(*[y.denominator for y in row])) for x in row]
            for row in a]


@st.composite
def low_rank(draw):
    """An m x n integer matrix: rows of L R cleared, with inner size k,
    so rank <= k."""
    m, n, k = draw(st.integers(1, 6)), draw(st.integers(1, 6)), \
        draw(st.integers(0, 4))
    left = draw(st.lists(st.lists(rationals, min_size=k, max_size=k),
                         min_size=m, max_size=m))
    right = draw(st.lists(st.lists(rationals, min_size=n, max_size=n),
                          min_size=k, max_size=k))
    return cleared([[sum((left[i][t] * right[t][j] for t in range(k)),
                         Fraction(0)) for j in range(n)] for i in range(m)])


@st.composite
def unimodular(draw):
    """A product of elementary integer row operations on the identity."""
    n = draw(st.integers(1, 6))
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(("add", "swap", "negate")))
        if op == "add" and i != j:
            q = draw(st.integers(-3, 3))
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        elif op == "swap":
            m[i], m[j] = m[j], m[i]
        elif op == "negate":
            m[i] = [-x for x in m[i]]
    return m


# ---------------------------------------------------------------------------
# Smith normal form


def dense(res: SNFResult) -> tuple:
    """(u, d, v, vinv): U, D, V and V^-1 of res as tuples of rows, read off
    its maps, its diagonal and the rows of V^-1."""
    m, n = res.a_map.m, res.a_map.n

    def rows(f: SparseMap) -> tuple[tuple[int, ...], ...]:
        out = [[0] * f.n for _ in range(f.m)]
        for j, col in enumerate(f.cols):
            for i, x in col:
                out[i][j] = x
        return tuple(map(tuple, out))
    d = tuple(tuple(res.diagonal[i] if i == j else 0 for j in range(n))
              for i in range(m))
    vinv = tuple(tuple(row.get(j, 0) for j in range(n))
                 for row in res.vinv_rows)
    return rows(res.u_map), d, rows(res.v_map), vinv


def test_snf_identity():
    res = smith_normal_form([[1, 0], [0, 1]])
    assert dense(res)[1] == ((1, 0), (0, 1))
    assert res.rank == 2


def test_snf_zero():
    res = smith_normal_form([[0]])
    assert dense(res)[1] == ((0,),)
    assert res.rank == 0


def test_snf_frozen_example():
    res = smith_normal_form([[2, 4], [6, 8]])
    assert res.diagonal == (2, 4)


def test_snf_empty_matrix():
    res = smith_normal_form([])
    assert dense(res)[1] == ()
    assert res.rank == 0


@settings(max_examples=120, deadline=None)
@given(matrices)
def test_snf_verified_against_minor_oracle(a):
    res = smith_normal_form(a)
    u, d, v, vinv = dense(res)
    u, v = [list(r) for r in u], [list(r) for r in v]
    assert to_sympy(u) * to_sympy(a) * to_sympy(v) == to_sympy(d)
    assert abs(exact_det(u)) == 1
    assert abs(exact_det(v)) == 1
    assert to_sympy(v) * to_sympy(vinv) == sympy.eye(len(v))
    diag = res.diagonal
    for x, y in zip(diag, diag[1:]):
        assert (x == 0 and y == 0) or (x != 0 and y % x == 0)
    if max(len(a), len(a[0])) <= 4:
        prod = 1
        for k, d in enumerate(diag, start=1):
            prod *= d
            assert abs(prod) == minor_gcd(a, k)


def nonzeros(rows) -> list[dict]:
    """Dense rows as dicts {j: x} of their nonzeros."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def certify(a, forms, uinv):
    """_verify_snf on the dense A, the dense (u, d, v, vinv) forms and the
    columns uinv of U^-1, handed over as the elimination keeps them: D, U
    and V^-1 by sparse rows, V and U^-1 by sparse columns."""
    u, d, v, vinv = forms
    a_map = SparseMap(nonzeros(a), len(a[0]) if a else 0)
    return _verify_snf(a_map, nonzeros(d), nonzeros(u), nonzeros(zip(*v)),
                       nonzeros(uinv), nonzeros(vinv))


def inverse_columns(u) -> list[list[int]]:
    """The columns of U^-1, U a dense unimodular matrix."""
    return [[int(x) for x in row] for row in to_sympy(u).inv().T.tolist()]


@settings(max_examples=40, deadline=None)
@given(matrices, st.data())
def test_verify_snf_refuses_a_bumped_inverse(a, data):
    """U U^-1 = I and V V^-1 = I certify unimodularity: one entry of
    either inverse off by one is refused.  U^-1 is passed by columns."""
    forms = dense(smith_normal_form(a))
    uinv = inverse_columns(forms[0])
    certify(a, forms, uinv)
    i, j = (data.draw(st.integers(0, len(uinv) - 1)) for _ in range(2))
    uinv[i][j] += 1
    with pytest.raises(AssertionError, match="U not unimodular"):
        certify(a, forms, uinv)
    uinv[i][j] -= 1
    vinv = forms[3]
    i, j = (data.draw(st.integers(0, len(vinv) - 1)) for _ in range(2))
    with pytest.raises(AssertionError, match="V not unimodular"):
        certify(a, forms[:3] + (bump(vinv, i, j),), uinv)


def bump(rows, i, j):
    """A copy of the tuple rows with entry (i, j) one larger."""
    out = [list(row) for row in rows]
    out[i][j] += 1
    return tuple(map(tuple, out))


@settings(max_examples=40, deadline=None)
@given(matrices, st.data())
def test_verify_snf_refuses_a_bumped_transform_or_form(a, data):
    """One entry of U, of V, or of D off its diagonal, off by one, is
    refused; D's bump is refused as a wrong product, and again as not
    diagonal when A is changed to match it."""
    forms = dense(smith_normal_form(a))
    u, d, v, vinv = forms
    m, n = len(a), len(a[0])
    uinv = inverse_columns(u)
    for k, size, unimodular in ((0, m, "U"), (2, n, "V")):
        i, j = (data.draw(st.integers(0, size - 1)) for _ in range(2))
        bumped = list(forms)
        bumped[k] = bump(forms[k], i, j)
        with pytest.raises(AssertionError, match=r"U\*A\*V != D|"
                           f"{unimodular} not unimodular"):
            certify(a, bumped, uinv)
    off = [(i, j) for i in range(m) for j in range(n) if i != j]
    if off:
        bumped_d = bump(d, *data.draw(st.sampled_from(off)))
        with pytest.raises(AssertionError, match=r"U\*A\*V != D"):
            certify(a, (u, bumped_d, v, vinv), uinv)
        a2 = to_sympy(u).inv() * to_sympy(bumped_d) * to_sympy(vinv)
        with pytest.raises(AssertionError, match="D not diagonal"):
            certify([[int(x) for x in row] for row in a2.tolist()],
                    (u, bumped_d, v, vinv), uinv)


def test_verify_snf_refuses_a_transform_of_the_wrong_shape():
    """U U^-1 = I is checked in Z^m: a U^-1 short of a column, or a U with
    a row too many, is refused though each product has e_j's one."""
    a = [[2, 4], [6, 8]]
    forms = dense(smith_normal_form(a))
    uinv = inverse_columns(forms[0])
    with pytest.raises(AssertionError, match="U not unimodular"):
        certify(a, forms, uinv[:-1])
    tall = (((1,), (1,)), ((0,), (0,)), ((1,),), ((1,),))
    with pytest.raises(AssertionError, match="U not unimodular"):
        certify([[0]], tall, [[1]])


@pytest.mark.parametrize("diag, message", [
    ((2, 3), "divisibility chain"),
    ((0, 1), "zero before nonzero")])
def test_verify_snf_refuses_a_broken_diagonal(diag, message):
    d = ((diag[0], 0), (0, diag[1]))
    eye = ((1, 0), (0, 1))
    with pytest.raises(AssertionError, match=message):
        certify([list(row) for row in d], (eye, d, eye, eye),
                [list(r) for r in eye])


@pytest.mark.parametrize("a, d, u, v", [
    ([[]], ((),), ((1,),), ()),
    ([[0, 0, 0]], ((0, 0, 0),), ((1,),),
     ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    ([[0], [0]], ((0,), (0,)), ((1, 0), (0, 1)), ((1,),))])
def test_snf_edge_shapes(a, d, u, v):
    res = smith_normal_form(a)
    assert dense(res) == (u, d, v, v)
    assert res.rank == 0


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_snf_diagonal_matches_sympy(a):
    theirs = sympy_snf(sympy.Matrix(a), domain=sympy.ZZ)
    mine = smith_normal_form(a).diagonal
    assert [abs(x) for x in mine] == \
        [abs(int(theirs[i, i])) for i in range(len(mine))]


SNF_DIGEST_FILE = Path(__file__).resolve().parent / "snf_digests.json"


def snf_corpus() -> list[list[list[int]]]:
    """400 seeded matrices: shapes 1..9 x 1..9, entries -9..9, mixed
    densities of nonzero entries."""
    rng = random.Random(2008)
    out = []
    for _ in range(400):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        density = rng.choice((0.2, 0.5, 0.8, 1.0))
        out.append([[rng.randint(-9, 9) if rng.random() < density else 0
                     for _ in range(n)] for _ in range(m)])
    return out


def structured(d) -> None:
    """Make a diagram's relation and jump forms."""
    s = diagram.diagram_index(d)
    s.h1, s.jump


def diagram_forms(build, run=homology) -> list[SNFResult]:
    """The form of one diagram's curve-graph boundary bd, whose cycle
    basis H1 reads off a contraction instead, then the Smith forms that
    run (homology by default) makes on it, in order."""
    d = build()
    forms, real = [smith_normal_form(curve_graph_boundary(d))], \
        exactalg.smith_normal_form

    def recorded(a):
        forms.append(real(a))
        return forms[-1]
    exactalg.smith_normal_form = diagram.smith_normal_form = recorded
    try:
        run(d)
    finally:
        exactalg.smith_normal_form = diagram.smith_normal_form = real
    return forms


def many_small() -> dict:
    """The 66 diagrams of the many_small benchmark workload, by label:
    T(p,q;n) for p <= 7, glued chains and stabilized diagrams."""
    def end(n):
        return f"e{(n - 2) // 2 - 1}_s2" if n > 2 else "s1"
    out = {f"T({p},{q};{n})": (lambda p=p, q=q, n=n: build_tpqn(p, q, n))
           for p in range(1, 8) for q in range(p) if gcd(p, q) == 1
           for n in (2, 4, 6)}
    for n1, p, q, m2 in ((2, 2, 1, 2), (4, 2, 1, 2), (4, 1, 0, 4),
                         (6, 2, 1, 2), (4, 3, 1, 2), (4, 2, 1, 4),
                         (2, 3, 2, 4), (4, 5, 2, 2)):
        out[f"T(1,0;{n1})+T({p},{q};{m2})"] = (
            lambda n1=n1, p=p, q=q, m2=m2: glue(
                build_tpqn(1, 0, n1), end(n1), build_tpqn(p, q, m2), end(m2)))
    for p, q, n, region in ((2, 1, 2, "r0"), (1, 0, 6, "e1_r3"),
                            (2, 1, 4, "e0_r1"), (3, 2, 4, "e0_r1")):
        out[f"T({p},{q};{n})@{region}"] = (
            lambda p=p, q=q, n=n, region=region: stabilize(
                build_tpqn(p, q, n), region))
    return out


SNF_SOURCES = {
    f"random(2008)[{k}:{k + 50}]":
        (lambda k=k: [smith_normal_form(a) for a in snf_corpus()[k:k + 50]])
    for k in range(0, 400, 50)}
SNF_SOURCES.update({
    "T(1,0;8)": lambda: diagram_forms(lambda: build_tpqn(1, 0, 8)),
    "T(7,1;6)": lambda: diagram_forms(lambda: build_tpqn(7, 1, 6)),
    'glue(T(2,1;2),"s0",T(2,1;2),"s0")': lambda: diagram_forms(
        lambda: glue(build_tpqn(2, 1, 2), "s0", build_tpqn(2, 1, 2), "s0")),
})
# incidence-shaped matrices, sparse as the diagrams make them
SNF_SOURCES.update({
    f"structured {name}": lambda build=build: diagram_forms(build, structured)
    for name, build in {
        **many_small(),
        **{f"T(1,0;{n})": lambda n=n: build_tpqn(1, 0, n)
           for n in range(8, 15, 2)},
        "G(5,2)": lambda: grid_knot(5, 2),
        "G(7,2)": lambda: grid_knot(7, 2)}.items()})


def snf_digest(forms: list[SNFResult]) -> str:
    """SHA-256 of the transforms and forms, (u, d, v, vinv) each."""
    return hashlib.sha256(repr([dense(r) for r in forms])
                          .encode()).hexdigest()


@pytest.mark.parametrize("name", SNF_SOURCES)
def test_snf_transforms_are_pinned(name):
    """Every pivot is pinned, not only the diagonal: U, D, V and V^-1 hash
    to digests written by running this file as a script
    (`PYTHONPATH=src python3 tests/test_exactalg.py`), never regenerated
    to make a change pass."""
    pinned = json.loads(SNF_DIGEST_FILE.read_text(encoding="utf-8"))
    assert set(pinned) == set(SNF_SOURCES)
    assert snf_digest(SNF_SOURCES[name]()) == pinned[name]


# ---------------------------------------------------------------------------
# the fraction-free elimination core, against sympy


@settings(max_examples=80, deadline=None)
@given(square(8, entries))
def test_det_matches_sympy_on_integers(a):
    assert exact_det(a) == as_fraction(sympy.Matrix(a).det())


@settings(max_examples=80, deadline=None)
@given(square(4, rationals))
def test_det_matches_sympy_on_cleared_rationals(a):
    # a rational matrix with each row times the lcm of its denominators:
    # integers with large minors
    a = cleared(a)
    assert exact_det(a) == as_fraction(to_sympy(a).det())


@settings(max_examples=80, deadline=None)
@given(low_rank())
def test_rank_matches_sympy(a):
    assert _rank(a) == to_sympy(a).rank()


def test_elimination_core_refuses_non_ints():
    half = [[Fraction(1, 2), 0], [0, 2]]
    for fn in (exact_det, _rank, smith_normal_form):
        with pytest.raises(TypeError):
            fn(half)
    # neither a float with an integer value nor one without is truncated
    for a in ([[2.5, 1]], [[2.0, 0], [0, 3]]):
        with pytest.raises(TypeError):
            smith_normal_form(a)
    assert half == [[Fraction(1, 2), 0], [0, 2]]
    # the core works on a copy of an integer matrix
    a = [[0, 1], [2, 3]]
    assert exact_det(a) == -2 and _rank(a) == 2
    assert a == [[0, 1], [2, 3]]


@settings(max_examples=60, deadline=None)
@given(unimodular(), st.data())
def test_unimodular_inverse_of_elementary_products(m, data):
    """A unimodular m has Smith form D = I, and the V^-1 tracked through
    the elimination is V's inverse; doubling a row or repeating one
    leaves a form that is not I."""
    n = len(m)
    _, d, v, vinv = dense(smith_normal_form(m))
    assert d == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert all(type(x) is int for row in vinv for x in row)
    assert to_sympy(vinv) == to_sympy(v).inv()
    i = data.draw(st.integers(0, n - 1))
    doubled = [row if k != i else [2 * x for x in row]
               for k, row in enumerate(m)]
    assert smith_normal_form(doubled).diagonal == (1,) * (n - 1) + (2,)
    if n > 1:
        j = (i + 1) % n
        repeated = [row if k != i else m[j] for k, row in enumerate(m)]
        assert smith_normal_form(repeated).rank == n - 1


def echelon_products(rng, count):
    """count seeded integer matrices L E: E is k x n in row echelon form
    with random pivot columns and random entries right of each pivot, so
    a free column often lies left of a later pivot; L is m x k."""
    for _ in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        k = rng.randint(0, min(m, n))
        cols = sorted(rng.sample(range(n), k))
        e = [[0] * n for _ in range(k)]
        for i, c in enumerate(cols):
            e[i][c] = rng.choice((-3, -2, -1, 1, 2, 3))
            for j in range(c + 1, n):
                e[i][j] = rng.randint(-4, 4)
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        yield [[sum(x * row[j] for x, row in zip(lrow, e)) for j in range(n)]
               for lrow in left]


def test_gauss_jordan_ends_at_last_pivot_times_rref():
    """With jordan, the first rank rows are the last pivot times sympy's
    reduced row echelon form, the rest are zero, and [A | B] with A
    invertible ends as [p I | p A^-1 B]."""
    rng = random.Random(1968)
    gaps = 0
    for a in echelon_products(rng, 400):
        rref, want = to_sympy(a).rref()
        w = [row[:] for row in a]
        cols, p, _ = _bareiss(w, len(a[0]), jordan=True)
        assert tuple(cols) == want
        assert to_sympy(w) == p * rref
        gaps += any(c not in cols for c in range(max(cols, default=0)))
    assert gaps > 50
    for _ in range(100):
        n, extra = rng.randint(1, 5), rng.randint(0, 4)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-5, 5) for _ in range(extra)] for _ in range(n)]
        if to_sympy(a).det() == 0:
            continue
        w = [x + y for x, y in zip(a, b)]
        cols, p, _ = _bareiss(w, n, jordan=True)
        assert cols == list(range(n))
        assert to_sympy(w) == p * sympy.eye(n).row_join(
            to_sympy(a).inv() * sympy.Matrix(n, extra, sum(b, [])))


# ---------------------------------------------------------------------------
# integer kernels and solves


def test_kernel_identity_empty():
    assert integer_kernel_basis([[1, 0], [0, 1]]) == []


def test_kernel_rank_nullity_line():
    basis = integer_kernel_basis([[1, 1]])
    assert basis in ([(1, -1)], [(-1, 1)])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=6, max_size=6),
                min_size=4, max_size=4))
def test_kernel_saturated(a):
    basis = integer_kernel_basis(a)
    assert len(basis) == 6 - smith_normal_form(a).rank
    for v in basis:
        assert all(x == 0 for x in mat_vec(a, v))
    if basis:
        stacked = smith_normal_form([list(v) for v in basis])
        assert all(d == 1 for d in stacked.diagonal)


def test_solve_identity():
    assert LinearSolver([[1, 0], [0, 1]]).solve((3, -1)) == (3, -1)


def test_solve_parity_infeasible():
    assert LinearSolver([[2]]).solve((1,)) is None


def test_solve_back_substitution():
    assert LinearSolver([[1, 1], [0, 2]]).solve((3, 4)) == (1, 2)


@settings(max_examples=60, deadline=None)
@given(matrices, st.data())
def test_solve_recovers_constructed_rhs(a, data):
    x0 = data.draw(st.lists(st.integers(-5, 5), min_size=len(a[0]),
                            max_size=len(a[0])))
    b = mat_vec(a, x0)
    x = LinearSolver(a).solve(b)
    assert x is not None
    assert mat_vec(a, x) == b


@settings(max_examples=60, deadline=None)
@given(matrices, st.data())
def test_sparse_map_products_match_dense(a, data):
    n = len(a[0])
    v = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    sparse = SparseMap(a)
    assert sparse @ v == mat_vec(a, v)
    with pytest.raises(ValueError, match="does not match"):
        sparse @ (v + [0])
    with pytest.raises(ValueError, match="not rectangular"):
        SparseMap([[1, 2], [3]])


@settings(max_examples=60, deadline=None)
@given(matrices, st.data())
def test_sparse_map_products_on_dicts_match_dense(a, data):
    """A vector given as a dict of its nonzeros, and a map built from dict
    rows or columns, give the dense product; an index outside range(n),
    negative ones included, is refused rather than wrapped."""
    m, n = len(a), len(a[0])
    v = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    want = mat_vec(a, v)
    sparse = SparseMap(a)
    assert sparse @ dict(enumerate(v)) == sparse @ nonzeros([v])[0] == want
    assert SparseMap(nonzeros(a), n) @ v == want
    assert SparseMap.by_columns(nonzeros(zip(*a)), m) @ v == want
    for bad in (n, -1, -n):
        with pytest.raises(ValueError, match="out of range"):
            sparse @ {0: 1, bad: 1}
    assert sparse @ {} == (0,) * m


@settings(max_examples=60, deadline=None)
@given(matrices, st.data())
def test_solver_parts_are_linear_and_decide_solvability(a, data):
    m = len(a)
    b1, b2 = (tuple(data.draw(st.lists(st.integers(-4, 4), min_size=m,
                                       max_size=m))) for _ in range(2))
    solver = LinearSolver(a)
    p1, p2 = solver.parts(b1), solver.parts(b2)
    both = solver.parts(tuple(x + y for x, y in zip(b1, b2)))
    assert both == tuple(tuple(x + y for x, y in zip(u, v))
                         for u, v in zip(p1, p2))
    x, f = p1
    feasible = not any(f) and all(y % solver.lcm == 0 for y in x)
    assert (solver.solve(b1) is not None) == feasible
    if feasible:
        assert mat_vec(a, solver.solve(b1)) == b1


# ---------------------------------------------------------------------------
# GF(2)


def bitmasks(a):
    """The 0/1 rows of a as GF(2) bitmasks, bit j for column j."""
    return [sum((x & 1) << j for j, x in enumerate(row)) for row in a]


def gf2_rank_sympy(rows, ncols):
    """Rank of bitmask rows by sympy's DomainMatrix over GF(2)."""
    if not rows:
        return 0
    field = GF(2)
    return DomainMatrix([[field(bits >> j & 1) for j in range(ncols)]
                         for bits in rows], (len(rows), ncols), field).rank()


def square_zero_block(rng, n, ones_per_row=6):
    """d = [[0, A], [0, 0]] under a random permutation: d^2 = 0 over GF(2).

    The shape of a class block of the differential, with rank d = rank A.
    """
    half = n // 2
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [0] * n
    for i in range(half):
        for j in rng.sample(range(half, n), min(ones_per_row, n - half)):
            rows[perm[i]] |= 1 << perm[j]
    return rows


def test_gf2_identity():
    assert gf2_rank_kernel([0b001, 0b010, 0b100]) == 3


def test_gf2_repeated_row():
    assert gf2_rank_kernel([0b11, 0b11]) == 1


def test_gf2_no_rows_has_rank_zero():
    # bitmask rows need no column count
    assert gf2_rank_kernel([]) == 0
    assert gf2_rank_kernel([0, 0]) == 0


@pytest.mark.parametrize("row", [-1, Fraction(1), 1.0, [1, 0], "1"])
def test_gf2_refuses_a_row_that_is_not_a_bitmask(row):
    with pytest.raises(TypeError):
        gf2_rank_kernel([0b10, row])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.integers(0, 1), min_size=8, max_size=8),
                min_size=8, max_size=8))
def test_gf2_matches_naive_oracle(a):
    rows = bitmasks(a)
    assert gf2_rank_kernel(rows) == gf2_rank_naive(a) \
        == gf2_rank_sympy(rows, 8)


def test_gf2_matches_sympy_on_rectangular_rows():
    rng = random.Random(11)
    for _ in range(150):
        ncols = rng.randint(1, 64)
        m = rng.randint(1, 70)
        # sparse, dense and low-rank row sets
        density = rng.choice((0.05, 0.3, 0.5))
        rows = [sum(1 << j for j in range(ncols) if rng.random() < density)
                for _ in range(m)]
        if rng.random() < 0.3:
            # sums of a few rows: rank at most len(basis)
            basis = rows[:rng.randint(1, 4)]
            rows = [reduce(xor, rng.sample(basis, rng.randint(0, len(basis))),
                           0) for _ in range(m)]
        want = gf2_rank_sympy(rows, ncols)
        assert gf2_rank_kernel(rows) == want
        a = [[bits >> j & 1 for j in range(ncols)] for bits in rows]
        assert gf2_rank_naive(a) == want


def test_gf2_matches_sympy_on_square_zero_blocks():
    rng = random.Random(12)
    for n in (2, 3, 7, 16, 31, 64, 90):
        for ones in (1, 2, 6):
            rows = square_zero_block(rng, n, ones)
            want = gf2_rank_sympy(rows, n)
            assert gf2_rank_kernel(rows) == want <= n // 2


# ---------------------------------------------------------------------------
# convex hulls


def test_hull_collinear():
    poly = convex_hull([(0,), (2,), (4,)])
    assert poly.vertices == ((Fraction(0),), (Fraction(4),))
    assert poly.dim == 1


def test_hull_square_with_center():
    poly = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1),
                        (Fraction(1, 2), Fraction(1, 2))])
    assert len(poly.vertices) == 4
    assert poly.dim == 2
    assert (Fraction(1, 2), Fraction(1, 2)) not in poly.vertices


def test_hull_empty_input():
    with pytest.raises(EmptyInput):
        convex_hull([])


def test_hull_single_point():
    poly = convex_hull([(7, -1)])
    assert poly.vertices == ((Fraction(7), Fraction(-1)),)
    assert poly.dim == 0 and poly.facets == ()


def test_hull_random_rational_3d():
    rng = random.Random(7)
    pts = [tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 4))
                 for _ in range(3)) for _ in range(20)]
    poly = convex_hull(pts)
    assert poly.dim == 3
    for p in pts:
        assert point_in_facets(p, poly)
    # extremality: every vertex is outside the hull of the other input points
    for v in poly.vertices:
        others = [p for p in pts if p != v]
        assert not point_in_facets(v, convex_hull(others)) or v in others


def test_hull_in_ambient_dimension_above_eight():
    # a triangle with an inner point, embedded in Z^10
    corners = [tuple(3 * (i == j) for i in range(10)) for j in range(3)]
    inner = tuple(int(i < 3) for i in range(10))
    poly = convex_hull(corners + [inner])
    assert poly.dim == 2 and poly.ambient_dim == 10
    assert sorted(poly.vertices) == sorted(corners)
    assert body_centroid(poly) == inner


def test_hull_idempotent():
    rng = random.Random(3)
    for _ in range(10):
        pts = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                     for _ in range(2)) for _ in range(9)]
        once = convex_hull(pts)
        twice = convex_hull(list(once.vertices))
        assert once.vertices == twice.vertices
        assert once.facets == twice.facets


def degenerate_base(rng, k):
    """Full-dimensional integer points in Z^k with duplicates, collinear
    and coplanar points among them."""
    while True:
        pts = [tuple(rng.randint(-3, 3) for _ in range(k))
               for _ in range(rng.randint(k + 1, 10))]
        if sympy.Matrix([[x - o for x, o in zip(p, pts[0])]
                         for p in pts[1:]]).rank() == k:
            break
    a, b, c = pts[:3]
    for _ in range(3):
        s, t = rng.randint(-2, 2), rng.randint(-2, 2)
        pts.append(tuple(x + s * (y - x) for x, y in zip(a, b)))
        pts.append(tuple(x + s * (y - x) + t * (z - x)
                         for x, y, z in zip(a, b, c)))
        pts.append(rng.choice(pts))
    rng.shuffle(pts)
    return pts


def integer_embedding(rng, k, ambient):
    """x -> offset + x M for a random integer k x ambient M of rank k."""
    while True:
        m = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(k)]
        if sympy.Matrix(m).rank() == k:
            break
    offset = [rng.randint(-3, 3) for _ in range(ambient)]
    return lambda x: tuple(o + sum(xi * row[j] for xi, row in zip(x, m))
                           for j, o in enumerate(offset))


def test_hull_against_qhull():
    spatial = pytest.importorskip("scipy.spatial")
    numpy = pytest.importorskip("numpy")
    for k, ambient in ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)):
        rng = random.Random(100 * k + ambient)
        for _ in range(4):
            base = degenerate_base(rng, k)
            embed = integer_embedding(rng, k, ambient)
            poly = convex_hull([embed(x) for x in base])
            assert poly.dim == k
            floats = numpy.array(base, dtype=float)

            qh = spatial.ConvexHull(floats)
            assert set(poly.vertices) == {embed(base[i]) for i in qh.vertices}
            planes = []
            for eq in qh.equations:
                if all(numpy.abs(eq - q).max() > 1e-9 for q in planes):
                    planes.append(eq)
            assert len(poly.facets) == len(planes)

            total, acc = 0.0, numpy.zeros(k)
            for simplex in spatial.Delaunay(floats).simplices:
                corners = floats[simplex]
                vol = abs(numpy.linalg.det(corners[1:] - corners[0]))
                total += vol
                acc += vol * corners.mean(axis=0)
            expected = embed(acc / total)
            centroid = body_centroid(poly)
            assert all(abs(float(c) - e) <= 1e-9
                       for c, e in zip(centroid, expected))


@pytest.mark.parametrize("ambient", [1, 2, 3, 4])
def test_hull_1d_min_max(ambient):
    rng = random.Random(ambient)
    embed = integer_embedding(rng, 1, ambient)
    base = [(rng.randint(-9, 9),) for _ in range(8)]
    lo, hi = min(base), max(base)
    poly = convex_hull([embed(x) for x in base])
    assert poly.dim == 1 and len(poly.facets) == 2
    assert set(poly.vertices) == {embed(lo), embed(hi)}
    assert body_centroid(poly) == embed((Fraction(lo[0] + hi[0], 2),))


def test_centroid_segment_midpoint():
    poly = convex_hull([(0,), (4,)])
    assert body_centroid(poly) == (Fraction(2),)


def test_centroid_single_point():
    poly = convex_hull([(7,)])
    assert body_centroid(poly) == (Fraction(7),)


def test_centroid_triangle():
    poly = convex_hull([(0, 0), (3, 0), (0, 3)])
    assert body_centroid(poly) == (Fraction(1), Fraction(1))


def test_centroid_weighted_not_vertex_average():
    # a thin spike changes the vertex average but barely moves the body mass
    poly = convex_hull([(0, 0), (4, 0), (4, 1), (0, 1)])
    assert body_centroid(poly) == (Fraction(2), Fraction(1, 2))


def test_centroid_inside_random_hulls():
    rng = random.Random(5)
    for dim in (1, 2, 3):
        for _ in range(6):
            pts = [tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 3))
                         for _ in range(dim)) for _ in range(dim + 4)]
            poly = convex_hull(pts)
            c = body_centroid(poly)
            assert point_in_facets(c, poly)


def test_hull_is_affine_equivariant():
    """hull(lam P + t) is lam hull(P) + t, for lam > 0 and rational t.

    Rational scales and shifts change the lcm by which the points and
    their reduced coordinates are brought to integers.
    """
    rng = random.Random(11)

    def rat(lo, hi, dens=(1, 2, 3, 5)):
        return Fraction(rng.randint(lo, hi), rng.choice(dens))

    for _ in range(40):
        ambient = rng.randint(1, 4)
        k = rng.randint(1, ambient)
        embed = integer_embedding(rng, k, ambient)
        base = [tuple(rat(-6, 6) for _ in range(k))
                for _ in range(rng.randint(k + 1, 9))]
        base += [base[0], tuple((x + y) / 2 for x, y in zip(base[0], base[1]))]
        pts = [embed(x) for x in base]
        lam = rat(1, 9, (1, 2, 4, 7))
        t = tuple(rat(-9, 9, (1, 3, 4)) for _ in range(ambient))
        poly = convex_hull(pts)
        moved = convex_hull([tuple(lam * x + s for x, s in zip(p, t))
                             for p in pts])
        assert moved.dim == poly.dim
        assert moved.vertices == tuple(tuple(lam * x + s for x, s in zip(v, t))
                                       for v in poly.vertices)
        assert [n for n, _ in moved.facets] == [n for n, _ in poly.facets]
        assert [off for _, off in moved.facets] == [
            lam * off + sum(a * s for a, s in zip(n, t))
            for n, off in poly.facets]
        assert body_centroid(moved) == tuple(
            lam * x + s for x, s in zip(body_centroid(poly), t))


HULL_DIGEST_FILE = Path(__file__).resolve().parent / "hull_digests.json"


def bench_hull_supports() -> dict:
    """The support points of the 24 `hull` benchmark inputs, seed 1."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    hull = workloads.Hull(SimpleNamespace(polytope=polytope), 1, False, None)
    return {inp.label: [pt for pt, _ in inp.support.points]
            for inp in hull.inputs}


def lower_dim_sweep(ambient: int) -> list[list[tuple[Fraction, ...]]]:
    """30 seeded rational point sets in Q^ambient, each in an affine
    subspace of dimension below ambient spanned by rational directions."""
    rng = random.Random(2010 + ambient)

    def rat():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5)))

    out = []
    for _ in range(30):
        k = rng.randint(0, ambient - 1)
        origin = [rat() for _ in range(ambient)]
        dirs = [[rat() for _ in range(ambient)] for _ in range(k)]
        out.append([tuple(o + sum(c * d[j] for c, d in zip(cs, dirs))
                          for j, o in enumerate(origin))
                    for cs in ([rat() for _ in range(k)]
                               for _ in range(rng.randint(k + 1, k + 8)))])
    return out


def admissibility_points(n: int, k: int) -> list[tuple[int, ...]]:
    """The origin and the lattice basis's region columns of G(n, k), the
    points whose hull `diagram.is_admissible` reads."""
    basis = diagram.periodic_lattice(grid_knot(n, k)).basis
    return [(0,) * len(basis), *zip(*basis)]


HULL_SOURCES = {
    **{f"bench hull seed 1: {label}": lambda pts=pts: [pts]
       for label, pts in bench_hull_supports().items()},
    **{f"dim < ambient {a}": lambda a=a: lower_dim_sweep(a)
       for a in range(1, 7)},
    **{f"admissibility G({n},{k})": lambda n=n, k=k: [admissibility_points(n, k)]
       for n, k in ((6, 3), (8, 4), (10, 5))},
}


def hull_digest(point_sets) -> str:
    """SHA-256 of the vertices, facets, dim and centroid of each hull."""
    hulls = [convex_hull(pts) for pts in point_sets]
    return hashlib.sha256(repr([(p.vertices, p.facets, p.dim, p.centroid)
                                for p in hulls]).encode()).hexdigest()


@pytest.mark.parametrize("name", HULL_SOURCES)
def test_hull_outputs_are_pinned(name):
    """Every hull output is pinned: vertices, facets, dim and centroid hash
    to digests written by running this file as a script with the argument
    `hull`, never regenerated to make a change pass."""
    pinned = json.loads(HULL_DIGEST_FILE.read_text(encoding="utf-8"))
    assert set(pinned) == set(HULL_SOURCES)
    assert hull_digest(HULL_SOURCES[name]()) == pinned[name]


def test_rectangular_check():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


if __name__ == "__main__":
    # `python3 tests/test_exactalg.py` prints the Smith-form digests,
    # `python3 tests/test_exactalg.py hull` the hull digests
    if sys.argv[1:] == ["hull"]:
        digests = {name: hull_digest(build())
                   for name, build in HULL_SOURCES.items()}
    else:
        digests = {name: snf_digest(build())
                   for name, build in SNF_SOURCES.items()}
    print(json.dumps(digests, indent=1))
