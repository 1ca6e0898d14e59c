"""Output checks that do not call the code under test.

Each check returns None when the output is right and a one-line reason
otherwise.  The diagram checks compare `shd --json` reports with the closed
forms of the torus-suture family; the hull check recomputes vertices and
the centroid with Qhull (scipy), and faces and semi-norms by brute force.
scipy is imported on first use, after the first pass has been measured,
because importing it adds tens of megabytes to the resident set.
"""

from __future__ import annotations

import json
from fractions import Fraction


def _report(res):
    rc, text = res
    if rc != 0:
        return None, f"exit code {rc}: {text.strip()[:200]}"
    return json.loads(text), None


def _mismatch(data: dict, expected: dict) -> str | None:
    for key, want in expected.items():
        if data.get(key) != want:
            return f"{key} is {data.get(key)!r}, expected {want!r}"
    return None


def check_validate(res) -> str | None:
    """A valid, connected, admissible diagram with b1 = 1 and no torsion."""
    data, err = _report(res)
    if err:
        return err
    if len(data.get("components", ())) != 1:
        return f"components {data.get('components')!r}, expected one"
    return _mismatch(data, {"ok": True, "violations": [], "b1": 1,
                            "torsion": [], "lattice_rank": 0,
                            "admissible": True})


def canonical(dims: list[int]) -> list[int]:
    """A dimension sequence up to reversal of the free coordinate."""
    return min(dims, dims[::-1])


def check_compute(res, dims: list[int], generators: int) -> str | None:
    """Consecutive positions, closed-form dimensions, constant gradings."""
    data, err = _report(res)
    if err:
        return err
    bad = _mismatch(data, {"ok": True, "b1": 1, "torsion": []})
    if bad:
        return bad
    rows = data["classes"]
    if any(len(r["position"]) != 1 for r in rows):
        return "a class position is not one coordinate"
    rows = sorted(rows, key=lambda r: r["position"][0])
    pos = [r["position"][0] for r in rows]
    if pos != list(range(pos[0], pos[0] + len(pos))):
        return f"class positions {pos} are not consecutive"
    got = [r["dimension"] for r in rows]
    if canonical(got) != canonical(dims):
        return f"dimensions {got}, expected {dims} up to reversal"
    if sum(r["generators"] for r in rows) != generators:
        return f"{sum(r['generators'] for r in rows)} generators, " \
               f"expected {generators}"
    for r in rows:
        if len(r["gradings"]) != r["generators"] \
                or len(set(r["gradings"])) != 1:
            return f"gradings {r['gradings']} of class {r['class']} " \
                   f"are not one constant per generator"
    if data["dims"] != [c["dimension"] for c in data["classes"]] \
            or data["total_dimension"] != sum(got):
        return "dims or total_dimension disagree with the classes"
    return None


# ---------------------------------------------------------------------------
# hulls


def _qhull_body(base: list[tuple[int, ...]]):
    """Vertex indices and float centroid of the hull of base points in Z^k."""
    import numpy as np
    from scipy.spatial import ConvexHull, Delaunay

    pts = np.array(base, dtype=float)
    if pts.shape[1] == 1:
        lo, hi = int(pts[:, 0].argmin()), int(pts[:, 0].argmax())
        return {lo, hi}, (pts[lo] + pts[hi]) / 2
    verts = sorted(ConvexHull(pts).vertices.tolist())
    k = pts.shape[1]
    total, acc = 0.0, np.zeros(k)
    for simplex in Delaunay(pts[verts]).simplices:
        corners = pts[verts][simplex]
        vol = abs(np.linalg.det(corners[1:] - corners[0]))
        total += vol
        acc += vol * corners.mean(axis=0)
    return set(verts), acc / total


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * (1 + abs(a) + abs(b))


def check_hull(res, inp) -> str | None:
    """Vertices, facets, centroid, faces and norms of one support."""
    poly, faces, norms = res
    points = [pt for pt, _ in inp.support.points]
    base_verts, base_centroid = _qhull_body(inp.base)
    want = {inp.embed(inp.base[i]) for i in base_verts}
    got = set()
    for v in poly.raw.vertices:
        if any(Fraction(x).denominator != 1 for x in v):
            return f"vertex {v} is not a lattice point"
        got.add(tuple(int(x) for x in v))
    if got != want:
        return f"vertices {sorted(got)} differ from Qhull's {sorted(want)}"
    if poly.dim != len(inp.base[0]):
        return f"dimension {poly.dim}, expected {len(inp.base[0])}"
    for normal, offset in poly.raw.facets:
        for pt in points:
            if sum(n * x for n, x in zip(normal, pt)) < offset:
                return f"point {pt} violates facet {normal} >= {offset}"

    # the affine embedding carries the base centroid to the support's
    centroid = [2 * (o + sum(float(c) * row[j] for c, row in
                             zip(base_centroid, inp.matrix)))
                for j, o in enumerate(inp.offset)]
    shift = [a - b for a, b in zip(poly.raw.vertices[0],
                                   poly.centered.vertices[0])]
    if not all(_close(float(s), c) for s, c in zip(shift, centroid)):
        return f"centroid {[float(s) for s in shift]}, Qhull gives {centroid}"

    for alpha, face in zip(inp.face_alphas, faces):
        pairings = [sum(a * x for a, x in zip(alpha, pt)) for pt in points]
        c_min = min(pairings)
        on_face = [i for i, v in enumerate(pairings) if v == c_min]
        if face.c_min != c_min \
                or list(face.face_points) != [points[i] for i in on_face] \
                or face.face_dimension != sum(inp.support.points[i][1]
                                              for i in on_face):
            return f"face query {alpha} gave {face}"

    def y(alpha):
        return max(-sum(float(a) * (float(x) - c)
                        for a, x, c in zip(alpha, v, centroid))
                   for v in want)

    for alpha, (got_y, got_z) in zip(inp.norm_alphas, norms):
        neg = tuple(-a for a in alpha)
        want_y = y(alpha)
        want_z = (want_y + y(neg)) / 2
        if not (_close(float(got_y), want_y) and _close(float(got_z), want_z)):
            return f"norms of {alpha}: y={got_y}, z={got_z}, " \
                   f"brute force y={want_y}, z={want_z}"
    return None
