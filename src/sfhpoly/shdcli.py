"""Plain-text diagram files and the command-line surface.

The .shd format is line-oriented: `boundary s0 s1`, `alpha a: y0 y1`,
`beta b: y0 y1`, then one `region` line per region listing its boundary
cycles, e.g. `region r0 genus 0: cycle(+a.0 +b.1 -a.1 -b.0) cycle(@s0)`.
A cycle is either a closed walk of signed arcs or a single boundary
circle marked with a leading `∂` (ASCII `@` also parses).  `#`
starts a comment; every identifier must be declared before use.
parse_shd and emit_shd are mutually inverse on canonical files.

Subcommands: validate, compute, polytope, face, norm, depth, build
tpqn, glue.  Exit codes: 0 success, 1 invalid or disconnected diagram
or a query with no answer (empty support, zero rank), 2 parse, read,
write or usage error, 3 computation obstructed (non-unique domains or an
undetermined differential).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .builders import BadParams, InvalidGlue, SameDiagramCircle, build_tpqn
from .builders import glue as glue_diagrams
from .diagram import (Curve, Diagram, Disconnected, Region, Segment,
                      UndecidedBeyondBound, h1_presentation, is_admissible,
                      is_nice, periodic_lattice, validate)
from .floer import DifferentialUndetermined, LatticeNotZero, homology
from .polytope import (EmptySupport, build_polytope, depth_upper_bound,
                       face_query, seminorm_y, support_points, symmetrized_z)


class ParseError(ValueError):
    """Syntax error with 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        where = f"line {line}, column {column}: " if line else ""
        super().__init__(where + message)
        self.message = message
        self.line = line
        self.column = column


class UndeclaredIdentifier(ParseError):
    """An identifier is used before any line declares it."""


class DuplicateIdentifier(ParseError):
    """An identifier is declared twice."""


_ID = r"[A-Za-z0-9_]+"
_ID_RE = re.compile(_ID)
_TOKEN = re.compile(r"\S+")
_HEAD = re.compile(r"\s*(\S+)")
_SEGMENT = re.compile(rf"([+-])({_ID})\.(\d+)\Z")
_CIRCLE_REF = re.compile(rf"[@∂]({_ID})\Z")
_CURVE_LINE = re.compile(rf"\s*(alpha|beta)\s+({_ID})\s*:\s*")
_REGION_LINE = re.compile(rf"\s*region\s+({_ID})\s+genus\s+(\d+)\s*:\s*")
_CYCLE_GROUP = re.compile(r"\s*cycle\(([^()]*)\)")


def _tokens(line: str, start: int = 0):
    for m in _TOKEN.finditer(line, start):
        yield m.group(0), m.start() + 1


def _number(digits: str, what: str, lineno: int, column: int) -> int:
    try:
        return int(digits)
    except ValueError:      # past the int <-> str conversion limit
        raise ParseError(f"{what} {digits[:8]}... has {len(digits)} digits",
                         lineno, column) from None


def parse_shd(text: str) -> Diagram:
    """Parse .shd text; raises ParseError and its subclasses."""
    circles: list[str] = []
    alphas: list[Curve] = []
    betas: list[Curve] = []
    regions: list[Region] = []
    points: set[str] = set()
    curve_map: dict[str, Curve] = {}
    region_names: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        head = _HEAD.match(line)
        keyword, col = head.group(1), head.start(1) + 1
        if keyword == "boundary":
            for tok, c in _tokens(line, head.end(1)):
                if not _ID_RE.fullmatch(tok):
                    raise ParseError(f"bad circle id {tok!r}", lineno, c)
                if tok in circles:
                    raise DuplicateIdentifier(f"circle {tok} declared twice",
                                              lineno, c)
                circles.append(tok)
        elif keyword in ("alpha", "beta"):
            m = _CURVE_LINE.match(line)
            if not m:
                raise ParseError(f"malformed {keyword} line", lineno, col)
            name = m.group(2)
            if name in curve_map:
                raise DuplicateIdentifier(f"curve {name} declared twice",
                                          lineno, m.start(2) + 1)
            pts: list[str] = []
            for tok, c in _tokens(line, m.end()):
                if not _ID_RE.fullmatch(tok):
                    raise ParseError(f"bad point id {tok!r}", lineno, c)
                if tok in pts:
                    raise DuplicateIdentifier(
                        f"point {tok} repeated on curve {name}", lineno, c)
                if keyword == "beta" and tok not in points:
                    raise UndeclaredIdentifier(f"unknown point id {tok!r}",
                                               lineno, c)
                pts.append(tok)
            if not pts:
                raise ParseError("curve needs at least one point",
                                 lineno, col)
            curve = Curve(keyword, name, tuple(pts))
            curve_map[name] = curve
            (alphas if keyword == "alpha" else betas).append(curve)
            if keyword == "alpha":
                points.update(pts)
        elif keyword == "region":
            m = _REGION_LINE.match(line)
            if not m:
                raise ParseError("malformed region line", lineno, col)
            name = m.group(1)
            if name in region_names:
                raise DuplicateIdentifier(f"region {name} declared twice",
                                          lineno, m.start(1) + 1)
            region_names.add(name)
            cycles: list = []
            pos = m.end()
            while pos < len(line) and line[pos:].strip():
                g = _CYCLE_GROUP.match(line, pos)
                if not g:
                    bad = _HEAD.match(line, pos)
                    raise ParseError(f"expected cycle(...), got "
                                     f"{bad.group(1)!r}",
                                     lineno, bad.start(1) + 1)
                cycles.append(_parse_cycle(g.group(1), curve_map, circles,
                                           lineno, g.start(1)))
                pos = g.end()
            if not cycles:
                raise ParseError("region needs at least one boundary cycle",
                                 lineno, col)
            genus = _number(m.group(2), "genus", lineno, m.start(2) + 1)
            regions.append(Region(name, genus, tuple(cycles)))
        else:
            raise ParseError(f"unknown declaration {keyword!r}", lineno, col)

    if not (circles or curve_map or regions):
        raise ParseError("no surface content", 1, 1)
    return Diagram(tuple(alphas), tuple(betas), tuple(circles),
                   tuple(regions))


def _parse_cycle(body: str, curve_map: dict[str, Curve],
                 circles: list[str], lineno: int, offset: int):
    elems = list(_tokens(body))
    if not elems:
        raise ParseError("empty cycle", lineno, offset + 1)
    first, fcol = elems[0]
    ref = _CIRCLE_REF.fullmatch(first)
    if ref:
        if len(elems) > 1:
            raise ParseError("a boundary circle is a whole cycle",
                             lineno, offset + elems[1][1])
        if ref.group(1) not in circles:
            raise UndeclaredIdentifier(
                f"unknown circle id {ref.group(1)!r}", lineno, offset + fcol)
        return ref.group(1)
    walk = []
    for tok, c in elems:
        m = _SEGMENT.fullmatch(tok)
        if not m:
            raise ParseError(f"bad cycle element {tok!r}",
                             lineno, offset + c)
        sign, cname = m.group(1), m.group(2)
        arc = _number(m.group(3), "arc", lineno, offset + c)
        curve = curve_map.get(cname)
        if curve is None:
            raise UndeclaredIdentifier(f"unknown curve id {cname!r}",
                                       lineno, offset + c)
        if arc >= len(curve.points):
            raise UndeclaredIdentifier(f"unknown arc {cname}.{arc}",
                                       lineno, offset + c)
        walk.append(Segment(cname, arc, sign == "+"))
    return tuple(walk)


def emit_shd(d: Diagram) -> str:
    """Canonical .shd text; parse_shd(emit_shd(d)) == d."""
    lines = []
    if d.boundary_circles:
        lines.append("boundary " + " ".join(d.boundary_circles))
    for kind, curves in (("alpha", d.alpha_curves), ("beta", d.beta_curves)):
        for c in curves:
            lines.append(f"{kind} {c.name}: " + " ".join(c.points))
    for r in d.regions:
        parts = []
        for cy in r.boundary_cycles:
            if isinstance(cy, str):
                parts.append(f"cycle(∂{cy})")
            else:
                parts.append("cycle(" + " ".join(str(s) for s in cy) + ")")
        lines.append(f"region {r.name} genus {r.genus}: " + " ".join(parts))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reports


def _scalar_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "(" + ",".join(_scalar_text(v) for v in value) + ")"
    if value is None:
        return "none"
    return str(value)


def _text_lines(data: dict, prefix: str = "") -> list[str]:
    out = []
    for key, value in data.items():
        name = prefix + key
        if isinstance(value, dict):
            out.extend(_text_lines(value, name + "."))
        elif isinstance(value, list) and value \
                and all(isinstance(v, dict) for v in value):
            for i, item in enumerate(value):
                fields = " ".join(f"{k}={_scalar_text(v)}"
                                  for k, v in item.items())
                out.append(f"{name}[{i}]: {fields}")
        elif isinstance(value, list):
            out.append(f"{name}: " + (" ".join(_scalar_text(v)
                                               for v in value)
                                      if value else "(none)"))
        else:
            out.append(f"{name}: {_scalar_text(value)}")
    return out


def _fraction_text(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not in a report")


def _report(data: dict, ns, out) -> None:
    try:
        text = json.dumps(data, indent=2, default=_fraction_text) if ns.json \
            else "\n".join(_text_lines(data))
    except ValueError:      # a number past the int <-> str conversion limit
        for key, value in data.items():
            try:
                json.dumps(value, default=_fraction_text)
            except ValueError:
                raise BadParams(f"{key} has too many digits") from None
        raise
    out.write(text + "\n")


def _load(path: str) -> Diagram:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as ex:
        raise ParseError(f"{path} is not UTF-8 text: {ex.reason} "
                         f"at byte {ex.start}", 0, 0) from None
    return parse_shd(text)


def _header(command: str) -> dict:
    return {"schema": 1, "command": command}


def _validated(path: str, ns, out):
    """Parsed diagram, or None after reporting the failure (exit 1)."""
    d = _load(path)
    rep = validate(d)
    if not rep.ok:
        data = _header(ns.cmd)
        data["ok"] = False
        data["violations"] = list(rep.violations)
        _report(data, ns, out)
        return None
    return d


def _table_rows(table) -> list[dict]:
    return [{"class": c.class_id,
             "position": list(c.free_coords),
             "generators": c.gen_count,
             "dimension": c.dimension,
             "gradings": list(c.gradings)} for c in table.classes]


def _cmd_validate(ns, out) -> int:
    d = _load(ns.file)
    rep = validate(d)
    data = _header("validate")
    data["ok"] = rep.ok
    data["violations"] = list(rep.violations)
    data["components"] = [{"euler": c.euler, "boundary": c.boundary_count,
                           "genus": c.genus} for c in rep.components]
    data["euler"] = rep.euler
    if rep.ok:
        h1 = h1_presentation(d)
        data["b1"] = h1.b1
        data["torsion"] = list(h1.torsion)
        data["lattice_rank"] = periodic_lattice(d).rank
        try:
            data["admissible"] = is_admissible(d).admissible
        except UndecidedBeyondBound:
            data["admissible"] = "undecided"
        data["nice"] = is_nice(d).nice
    _report(data, ns, out)
    return 0 if rep.ok else 1


def _cmd_compute(ns, out) -> int:
    d = _validated(ns.file, ns, out)
    if d is None:
        return 1
    table = homology(d)
    data = _header("compute")
    data["ok"] = True
    data["b1"] = table.b1
    data["torsion"] = list(table.torsion)
    data["classes"] = _table_rows(table)
    data["dims"] = list(table.dims)
    data["total_dimension"] = table.total_dim
    _report(data, ns, out)
    return 0


def _cmd_polytope(ns, out) -> int:
    d = _validated(ns.file, ns, out)
    if d is None:
        return 1
    table = homology(d)
    data = _header("polytope")
    data["ok"] = True
    data["b1"] = table.b1
    try:
        supp = support_points(table)
    except EmptySupport:
        data["support"] = []
        data["polytope"] = None
        _report(data, ns, out)
        return 0
    poly = build_polytope(supp)
    data["support"] = [{"point": list(p), "dimension": dim}
                       for p, dim in supp.points]
    data["polytope"] = {
        "dim": poly.dim,
        "full_dimensional": poly.full_dimensional,
        "total_rank": poly.total_rank,
        "vertices": [list(v) for v in poly.centered.vertices],
        "facets": [{"normal": list(n), "offset": off}
                   for n, off in poly.centered.facets],
    }
    _report(data, ns, out)
    return 0


def _parse_class(arg: str, ambient: int) -> tuple[Fraction, ...]:
    try:
        alpha = tuple(Fraction(tok) for tok in arg.split(","))
        list(map(str, alpha))           # each coordinate prints back
    except (ValueError, ZeroDivisionError) as ex:
        raise ParseError(f"bad --class value {arg!r}: {ex}", 0, 0)
    if len(alpha) != ambient:
        raise ParseError(f"--class needs {ambient} coordinates, "
                         f"got {len(alpha)}", 0, 0)
    return alpha


def _with_polytope(ns, out):
    """(support, polytope), or None after reporting the failure (exit 1)."""
    d = _validated(ns.file, ns, out)
    if d is None:
        return None
    try:
        supp = support_points(homology(d))
    except EmptySupport as ex:
        data = _header(ns.cmd)
        data["ok"] = False
        data["error"] = f"no polytope: {ex}"
        _report(data, ns, out)
        return None
    return supp, build_polytope(supp)


def _cmd_face(ns, out) -> int:
    loaded = _with_polytope(ns, out)
    if loaded is None:
        return 1
    supp, poly = loaded
    alpha = _parse_class(ns.klass, supp.ambient_dim)
    res = face_query(poly, supp, alpha)
    data = _header("face")
    data["ok"] = True
    data["class"] = list(alpha)
    data["c_min"] = res.c_min
    data["face_points"] = [list(p) for p in res.face_points]
    data["face_dimension"] = res.face_dimension
    _report(data, ns, out)
    return 0


def _cmd_norm(ns, out) -> int:
    loaded = _with_polytope(ns, out)
    if loaded is None:
        return 1
    supp, poly = loaded
    alpha = _parse_class(ns.klass, supp.ambient_dim)
    data = _header("norm")
    data["ok"] = True
    data["class"] = list(alpha)
    data["y"] = seminorm_y(poly, alpha)
    data["z"] = symmetrized_z(poly, alpha)
    _report(data, ns, out)
    return 0


def _cmd_depth(ns, out) -> int:
    d = _validated(ns.file, ns, out)
    if d is None:
        return 1
    table = homology(d)
    rank = table.total_dim
    data = _header("depth")
    data["ok"] = rank > 0
    data["total_rank"] = rank
    if rank:
        data["depth_bound"] = depth_upper_bound(rank)
        _report(data, ns, out)
        return 0
    data["error"] = "zero total rank admits no depth bound"
    _report(data, ns, out)
    return 1


def _write_diagram(d: Diagram, ns, out) -> int:
    text = emit_shd(d)
    if ns.out:
        Path(ns.out).write_text(text, encoding="utf-8")
    else:
        out.write(text)
    return 0


def _cmd_build(ns, out) -> int:
    return _write_diagram(build_tpqn(ns.p, ns.q, ns.n), ns, out)


def _cmd_glue(ns, out) -> int:
    d1 = _load(ns.file1)
    d2 = _load(ns.file2)
    try:
        glued = glue_diagrams(d1, ns.circle1, d2, ns.circle2)
    except InvalidGlue as ex:
        out.write(f"invalid diagram: {ex.violations[0]}\n")
        return 1
    except (SameDiagramCircle, ValueError) as ex:
        out.write(f"glue error: {ex}\n")
        return 2
    return _write_diagram(glued, ns, out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shd", description="sutured-diagram calculator")
    parser.add_argument("--json", action="store_true",
                        help="structured report output")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_json(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        # Accept the flag after the subcommand too; SUPPRESS keeps the
        # top-level value when the flag is absent here.
        p.add_argument("--json", action="store_true",
                       default=argparse.SUPPRESS,
                       help="structured report output")
        return p

    for name in ("validate", "compute", "polytope", "depth"):
        p = add_json(sub.add_parser(name))
        p.add_argument("file")
    for name in ("face", "norm"):
        p = add_json(sub.add_parser(name))
        p.add_argument("file")
        p.add_argument("--class", dest="klass", required=True,
                       help="comma-separated rational coordinates")
        # argparse reads a token starting with '-' as a value only where
        # this matcher matches; its default takes -7 but not -7/3 or -1,2
        p._negative_number_matcher = re.compile(r"-\.?\d")

    p = add_json(sub.add_parser("build"))
    p.add_argument("family", choices=["tpqn"])
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")

    p = add_json(sub.add_parser("glue"))
    p.add_argument("file1")
    p.add_argument("circle1")
    p.add_argument("file2")
    p.add_argument("circle2")
    p.add_argument("--out")
    return parser


_DISPATCH = {
    "validate": _cmd_validate,
    "compute": _cmd_compute,
    "polytope": _cmd_polytope,
    "face": _cmd_face,
    "norm": _cmd_norm,
    "depth": _cmd_depth,
    "build": _cmd_build,
    "glue": _cmd_glue,
}


_PARSER = _build_parser()


def run_command(argv: list[str], stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    try:
        ns = _PARSER.parse_args(argv)
    except SystemExit:
        return 2
    try:
        return _DISPATCH[ns.cmd](ns, out)
    except ParseError as ex:
        out.write(f"parse error: {ex}\n")
        return 2
    except FileNotFoundError as ex:
        out.write(f"no such file: {ex.filename}\n")
        return 2
    except IsADirectoryError as ex:
        out.write(f"is a directory: {ex.filename}\n")
        return 2
    except OSError as ex:
        out.write(f"cannot access {ex.filename}: {ex.strerror}\n")
        return 2
    except BadParams as ex:
        out.write(f"bad parameters: {ex}\n")
        return 2
    except Disconnected as ex:
        out.write(f"disconnected diagram: {ex}\n")
        return 1
    except (DifferentialUndetermined, LatticeNotZero) as ex:
        out.write(f"computation obstructed: "
                  f"{type(ex).__name__}: {ex}\n")
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
