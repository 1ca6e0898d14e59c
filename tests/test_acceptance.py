"""Acceptance gate: one test and one printed pass/fail line per criterion.

All comparisons are exact (integer or Fraction); the only tolerances are
the wall-clock budgets stated inline.
"""

import io
import json
import random
import sys
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product
from math import comb

import sympy

from conftest import torus_grid
from sfhpoly.builders import (build_base, build_elementary_piece, build_tpqn,
                              glue, relabel, stabilize)
from sfhpoly.diagram import h1_presentation, periodic_lattice
from sfhpoly.exactalg import convex_hull, exact_det, smith_normal_form
from sfhpoly.floer import (Domain, Exact, NoDomain, connecting_domain,
                           differential, enumerate_generators, epsilon,
                           homology, maslov_index, partition_spinc)
from sfhpoly.polytope import (build_polytope, depth_upper_bound,
                              knot_depth_bound, seminorm_y, support_points)
from sfhpoly.shdcli import run_command
from test_exactalg import dense, minor_gcd

GOLDEN = ((1, 0, 2), (1, 0, 4), (1, 0, 6), (1, 0, 8), (2, 1, 2),
          (2, 1, 4), (3, 1, 2), (3, 2, 4), (5, 2, 2))


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL {name}", file=sys.__stdout__, flush=True)
        raise
    print(f"PASS {name}", file=sys.__stdout__, flush=True)


def positions_and_dims(table):
    """(position, dimension) rows sorted along the rank-1 free part."""
    assert table.b1 == 1
    rows = sorted(table.classes, key=lambda c: c.free_coords[0])
    return [(c.free_coords[0], c.dimension) for c in rows]


def canonical_dims(table):
    rows = positions_and_dims(table)
    pos = [p for p, _ in rows]
    assert pos == list(range(pos[0], pos[0] + len(pos)))
    dims = [d for _, d in rows]
    return min(dims, dims[::-1])


def test_criterion_1_golden_family(tmp_path):
    """Nine (p, q, n) cases through build + compute, zero tolerance."""
    with criterion("golden torus-suture family"):
        start = time.monotonic()
        for p, q, n in GOLDEN:
            f = tmp_path / f"t_{p}_{q}_{n}.shd"
            rc = run_command(["build", "tpqn", "--p", str(p), "--q", str(q),
                              "--n", str(n), "--out", str(f)], io.StringIO())
            assert rc == 0
            out = io.StringIO()
            assert run_command(["--json", "compute", str(f)], out) == 0
            data = json.loads(out.getvalue())
            k = (n - 2) // 2
            want = [comb(k, i // p) for i in range(p * (k + 1))]
            rows = sorted((c["position"][0], c["dimension"])
                          for c in data["classes"])
            pos = [x for x, _ in rows]
            assert pos == list(range(pos[0], pos[0] + len(pos)))
            dims = [d for _, d in rows]
            assert min(dims, dims[::-1]) == want
        assert time.monotonic() - start < 10.0


def test_criterion_2_tensor_law():
    """Glued pairs: dims convolve with the chain factor scaled by p."""
    with criterion("tensor law under gluing"):
        start = time.monotonic()

        def end(p, q, n):
            k = (n - 2) // 2
            return f"e{k - 1}_s2" if k else "s1"

        pairs = [(2, (2, 1, 2)), (4, (2, 1, 2)), (4, (1, 0, 4)),
                 (6, (2, 1, 2)), (4, (3, 1, 2)), (4, (2, 1, 4)),
                 (2, (3, 2, 4)), (4, (5, 2, 2))]
        for n1, (p, q, m2) in pairs:
            a = build_tpqn(1, 0, n1)
            b = build_tpqn(p, q, m2)
            glued = glue(a, end(1, 0, n1), b, end(p, q, m2))
            da = canonical_dims(homology(a))
            db = canonical_dims(homology(b))
            conv = [0] * (p * (len(da) - 1) + len(db))
            for i, x in enumerate(da):
                for j, y in enumerate(db):
                    conv[p * i + j] += x * y
            got = canonical_dims(homology(glued))
            assert got == min(conv, conv[::-1])
        assert time.monotonic() - start < 5.0


def test_criterion_3_maslov_checks():
    """Merged-region domain has index 0; gradings constant per class."""
    with criterion("Maslov index checks"):
        e = build_elementary_piece()
        g6 = glue(e, "s2", relabel(e, "m_"), "m_s1")
        gens = enumerate_generators(g6)
        assign = partition_spinc(g6, gens)
        mates = [gens[i] for i in range(len(gens))
                 if sum(a.class_id == assign[i].class_id for a in assign) == 2]
        x, y = mates
        dom = connecting_domain(g6, x, y)
        merged = next(i for i, r in enumerate(g6.regions)
                      if r.name == "r3_m_r2")
        assert dom.multiplicities[merged] == 1
        assert sum(map(abs, dom.multiplicities)) == 1
        assert maslov_index(g6, dom, x, y) == 0

        for p, q, n in GOLDEN:
            d = build_tpqn(p, q, n)
            table = homology(d)
            for row in table.classes:
                assert len(set(row.gradings)) == 1
            gens = enumerate_generators(d)
            assign = partition_spinc(d, gens)
            by_class: dict[int, list] = {}
            for g, a in zip(gens, assign):
                by_class.setdefault(a.class_id, []).append(g)
            for members in by_class.values():
                for u, v in combinations(members, 2):
                    dom = connecting_domain(d, u, v)
                    assert isinstance(dom, Domain)
                    assert maslov_index(d, dom, u, v) == 0


def test_criterion_4_polytope_suite():
    """Collinear supports, vertex bounds, subadditive homogeneous y."""
    with criterion("polytope and semi-norm suite"):
        for k in range(1, 4):
            table = homology(build_tpqn(1, 0, 2 * k + 2))
            supp = support_points(table)
            pts = sorted(p[0] for p, _ in supp.points)
            assert pts == [-2 * m for m in range(k, -1, -1)]
            assert len(pts) == k + 1
            poly = build_polytope(supp)
            assert poly.dim == 1 == poly.b1

        rng = random.Random(20260818)
        for p, q, n in GOLDEN:
            table = homology(build_tpqn(p, q, n))
            supp = support_points(table)
            poly = build_polytope(supp)
            assert len(poly.centered.vertices) <= poly.total_rank
            for _ in range(100):
                a = (Fraction(rng.randint(-20, 20), rng.randint(1, 9)),)
                b = (Fraction(rng.randint(-20, 20), rng.randint(1, 9)),)
                ya, yb = seminorm_y(poly, a), seminorm_y(poly, b)
                s = (a[0] + b[0],)
                assert seminorm_y(poly, s) <= ya + yb
                lam = Fraction(rng.randint(0, 12), rng.randint(1, 7))
                assert seminorm_y(poly, (lam * a[0],)) == lam * ya


def test_criterion_5_depth_bounds():
    """Frozen depth values from ranks 1, 2, 7 and the knot variant."""
    with criterion("depth bounds"):
        assert depth_upper_bound(1) == 0
        assert depth_upper_bound(2) == 2
        assert depth_upper_bound(7) == 4
        assert knot_depth_bound(1) == 1


def test_criterion_6_property_suites():
    """Differential, epsilon, domain, stabilization, and algebra suites."""
    with criterion("property suites"):
        start = time.monotonic()
        rng = random.Random(411)

        pool = [torus_grid(("S00", "S01", "S11")),
                torus_grid(("S00", "S01", "S10", "S11")),
                build_base(2, 1), build_base(3, 2), build_base(5, 2),
                build_elementary_piece(), build_tpqn(1, 0, 4),
                build_tpqn(1, 0, 6), build_tpqn(2, 1, 4)]

        # boundary squared on every combinatorial differential
        for d in pool:
            gens = enumerate_generators(d)
            assign = partition_spinc(d, gens)
            diff = differential(d, gens, assign)
            if isinstance(diff, Exact):
                paths = Counter((i, k) for i, j in diff.entries
                                for t, k in diff.entries if j == t)
                assert all(c % 2 == 0 for c in paths.values())

        # epsilon cocycle on random triples
        for d in pool:
            gens = enumerate_generators(d)
            h1 = h1_presentation(d)
            if len(gens) < 2:
                continue
            for _ in range(40):
                x, y, z = (rng.choice(gens) for _ in range(3))
                lhs = epsilon(d, x, z)
                mid = tuple(u + v for u, v in zip(epsilon(d, x, y),
                                                  epsilon(d, y, z)))
                assert lhs == h1.normalize(mid)

        # domain existence matches epsilon vanishing when the lattice is 0
        for d in pool:
            assert periodic_lattice(d).rank == 0
            gens = enumerate_generators(d)
            h1 = h1_presentation(d)
            zero = h1.normalize((0,) * h1.generator_count)
            for x, y in product(gens, repeat=2):
                dom = connecting_domain(d, x, y)
                assert isinstance(dom, (Domain, NoDomain))
                assert isinstance(dom, Domain) \
                    == (epsilon(d, x, y) == zero)

        # stabilization leaves every class dimension unchanged
        for make, region in [(lambda: build_base(2, 1), "r0"),
                             (lambda: build_tpqn(1, 0, 6), "e1_r3"),
                             (lambda: build_tpqn(2, 1, 4), "e0_r1"),
                             (lambda: build_tpqn(3, 2, 4), "e0_r1")]:
            d = make()
            before = canonical_dims(homology(d))
            after = canonical_dims(homology(stabilize(d, region)))
            assert after == before

        # hull idempotence and Smith form against independent oracles
        for _ in range(200):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            a = [[rng.randint(-6, 6) for _ in range(cols)]
                 for _ in range(rows)]
            u, dd, v, _ = dense(smith_normal_form(a))
            assert sympy.Matrix(u) * sympy.Matrix(a) * sympy.Matrix(v) \
                == sympy.Matrix(dd)
            assert abs(exact_det(u)) == 1
            assert abs(exact_det(v)) == 1
            diag = [dd[i][i] for i in range(min(rows, cols))]
            for x, y in zip(diag, diag[1:]):
                assert x >= 0 and (x == 0 or y % x == 0)
            prod = 1
            for kk in range(1, min(rows, cols) + 1):
                prod *= diag[kk - 1]
                assert abs(prod) == minor_gcd(a, kk)

            dim = rng.randint(1, 3)
            pts = {tuple(rng.randint(-5, 5) for _ in range(dim))
                   for _ in range(rng.randint(1, 7))}
            hull = convex_hull([tuple(map(Fraction, p)) for p in pts])
            again = convex_hull(hull.vertices)
            assert set(again.vertices) == set(hull.vertices)
            assert again.dim == hull.dim

        assert time.monotonic() - start < 60.0
