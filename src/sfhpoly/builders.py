"""Constructors for the torus-suture family of diagrams.

build_base(p, q) presents a solid torus with two parallel (p, q) sutures
as a twice-punctured torus with one alpha and one beta curve meeting in
p points.  build_elementary_piece presents the four-suture solid torus
on a four-holed sphere.  glue identifies one boundary circle of each of
two diagrams, merging the host regions; build_tpqn chains k = (n-2)/2
elementary pieces onto a base.  stabilize adds a handle with one new
alpha/beta pair meeting once, which must not change any homology.
"""

from __future__ import annotations

from math import gcd

from .diagram import Curve, Diagram, Region, Segment, validate


class BadParams(ValueError):
    """Parameters violate p >= 1, gcd(p, q) = 1, or n even >= 2."""


class SameDiagramCircle(ValueError):
    """Gluing a diagram to itself is unsupported."""


class InvalidGlue(ValueError):
    """The glued diagram fails validation; carries the violations."""

    def __init__(self, violations: tuple[str, ...]):
        super().__init__("glued diagram is invalid: " + "; ".join(violations))
        self.violations = violations


def build_base(p: int, q: int) -> Diagram:
    """Twice-punctured torus: alpha meets beta in p points y0..y{p-1}.

    Along beta the points appear in the order y_{(s*q) mod p}.  Region
    r_j lies between alpha arcs j and j+q; the punctures s0 and s1 sit
    in the two regions adjacent to alpha arc p-1 (one region when p=1).
    """
    if p < 1 or gcd(p, q) != 1:
        raise BadParams(f"need p >= 1 and gcd(p, q) = 1, got ({p}, {q})")
    q %= p
    qinv = pow(q, -1, p) if p > 1 else 0
    alpha = Curve("alpha", "a", tuple(f"y{s}" for s in range(p)))
    beta = Curve("beta", "b", tuple(f"y{(s * q) % p}" for s in range(p)))
    s0_host, s1_host = p - 1, (p - 1 - q) % p
    regions = []
    for j in range(p):
        walk = (Segment("a", j, True),
                Segment("b", (qinv * (j + 1)) % p, True),
                Segment("a", (j + q) % p, False),
                Segment("b", (qinv * j) % p, False))
        cycles: list = [walk]
        if j == s0_host:
            cycles.append("s0")
        if j == s1_host:
            cycles.append("s1")
        regions.append(Region(f"r{j}", 0, tuple(cycles)))
    return Diagram((alpha,), (beta,), ("s0", "s1"), tuple(regions))


def build_elementary_piece() -> Diagram:
    """Four-holed sphere, one alpha/beta pair meeting in u and v.

    Four punctured bigons: r1 and r3 are the side bigons, r2 and r4 the
    top and bottom; circles s0..s3 in r1..r4 respectively.  Chains glue
    an r3 circle (s2) of one copy to an r2 circle (s1) of the next.
    """
    a = Curve("alpha", "a", ("u", "v"))
    b = Curve("beta", "b", ("u", "v"))
    regions = (
        Region("r1", 0, ((Segment("a", 0, True), Segment("b", 0, False)),
                         "s0")),
        Region("r2", 0, ((Segment("b", 0, True), Segment("a", 1, True)),
                         "s1")),
        Region("r3", 0, ((Segment("a", 1, False), Segment("b", 1, True)),
                         "s2")),
        Region("r4", 0, ((Segment("a", 0, False), Segment("b", 1, False)),
                         "s3")),
    )
    return Diagram((a,), (b,), ("s0", "s1", "s2", "s3"), regions)


def relabel(d: Diagram, prefix: str) -> Diagram:
    """Copy of d with every identifier prefixed."""

    def curve(c: Curve) -> Curve:
        return Curve(c.kind, prefix + c.name,
                     tuple(prefix + p for p in c.points))

    def cyc(cy):
        if isinstance(cy, str):
            return prefix + cy
        return tuple(Segment(prefix + s.curve, s.arc, s.forward) for s in cy)

    regions = tuple(Region(prefix + r.name, r.genus,
                           tuple(cyc(c) for c in r.boundary_cycles))
                    for r in d.regions)
    return Diagram(tuple(curve(c) for c in d.alpha_curves),
                   tuple(curve(c) for c in d.beta_curves),
                   tuple(prefix + s for s in d.boundary_circles), regions)


def _id_sets(d: Diagram):
    return ({p for c in d.curves for p in c.points},
            {c.name for c in d.curves},
            {r.name for r in d.regions},
            set(d.boundary_circles))


def glue(d1: Diagram, c: str, d2: Diagram, d: str) -> Diagram:
    """Identify boundary circle c of d1 with circle d of d2.

    The two host regions merge (cycles pooled minus the erased circles,
    genera added); everything else is carried over.  Identifiers of d2
    are prefixed with x_ as needed to avoid collisions.  Raises
    InvalidGlue when the glued diagram fails validation.
    """
    if d1 is d2:
        raise SameDiagramCircle("gluing a diagram to itself is unsupported")
    if c not in d1.boundary_circles:
        raise ValueError(f"no boundary circle {c} in the first diagram")
    if d not in d2.boundary_circles:
        raise ValueError(f"no boundary circle {d} in the second diagram")
    while any(a & b for a, b in zip(_id_sets(d1), _id_sets(d2))):
        d2 = relabel(d2, "x_")
        d = "x_" + d
    host1 = next(r for r in d1.regions if c in r.circles)
    host2 = next(r for r in d2.regions if d in r.circles)
    merged = Region(
        host1.name + "_" + host2.name,
        host1.genus + host2.genus,
        tuple(cy for cy in host1.boundary_cycles if cy != c)
        + tuple(cy for cy in host2.boundary_cycles if cy != d))
    regions = tuple(merged if r is host1 else r for r in d1.regions) \
        + tuple(r for r in d2.regions if r is not host2)
    out = Diagram(d1.alpha_curves + d2.alpha_curves,
                  d1.beta_curves + d2.beta_curves,
                  tuple(s for s in d1.boundary_circles if s != c)
                  + tuple(s for s in d2.boundary_circles if s != d),
                  regions)
    report = validate(out)
    if not report.ok:
        raise InvalidGlue(tuple(report.violations))
    return out


def build_tpqn(p: int, q: int, n: int) -> Diagram:
    """Base glued with (n-2)/2 elementary pieces in a chain."""
    if n < 2 or n % 2:
        raise BadParams(f"n must be even and at least 2, got {n}")
    d = build_base(p, q)
    out = "s1"
    for j in range((n - 2) // 2):
        piece = relabel(build_elementary_piece(), f"e{j}_")
        d = glue(d, out, piece, f"e{j}_s1")
        out = f"e{j}_s2"
    return d


def stabilize(d: Diagram, region: str) -> Diagram:
    """Add a handle inside a region, with one new alpha/beta pair."""
    if all(r.name != region for r in d.regions):
        raise ValueError(f"no region named {region}")
    points, curves, _, _ = _id_sets(d)
    k = 0
    while f"wst{k}" in points or f"ast{k}" in curves or f"bst{k}" in curves:
        k += 1
    w, an, bn = f"wst{k}", f"ast{k}", f"bst{k}"
    square = (Segment(an, 0, True), Segment(bn, 0, True),
              Segment(an, 0, False), Segment(bn, 0, False))
    regions = tuple(r if r.name != region else
                    Region(r.name, r.genus, r.boundary_cycles + (square,))
                    for r in d.regions)
    return Diagram(d.alpha_curves + (Curve("alpha", an, (w,)),),
                   d.beta_curves + (Curve("beta", bn, (w,)),),
                   d.boundary_circles, regions)
