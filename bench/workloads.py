"""The benchmark's three workloads: inputs, operations and expected results.

A workload is built once (the set-up) and then hands out one list of
operations per pass.  Every operation is a call into sfhpoly's public entry
points, looked up on the module at call time so that the tracer's wrappers
are used when they are installed.  Each operation carries a check that runs
outside the timed region and compares the output with a result computed
here, without calling the code under test.
"""

from __future__ import annotations

import io
import random
import string
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from pathlib import Path
from typing import Callable

import oracles


@dataclass
class Op:
    """One timed call and the check of its result."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]   # None when the output is right


# ---------------------------------------------------------------------------
# closed forms of the torus-suture family


def closed_dims(p: int, n: int) -> list[int]:
    """Class dimensions of T(p,q;n) along the rank-1 free part."""
    k = (n - 2) // 2
    return [comb(k, i // p) for i in range(p * (k + 1))]


def closed_generators(p: int, n: int) -> int:
    """p points on the base curve times two choices per elementary piece."""
    return p * 2 ** ((n - 2) // 2)


def convolved_dims(n1: int, p: int, m2: int) -> list[int]:
    """Tensor law: T(1,0;n1) glued to T(p,q;m2), chain factor scaled by p."""
    da, db = closed_dims(1, n1), closed_dims(p, m2)
    conv = [0] * (p * (len(da) - 1) + len(db))
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            conv[p * i + j] += x * y
    return conv


def chain_end(n: int) -> str:
    """The free boundary circle at the end of a T(p,q;n) chain."""
    k = (n - 2) // 2
    return f"e{k - 1}_s2" if k else "s1"


# ---------------------------------------------------------------------------
# command-line workloads


@dataclass
class Case:
    label: str
    diagram: object
    dims: list[int]
    generators: int


class CliWorkload:
    """Operations `shd --json <command> <file>`, one fresh file each.

    Every operation reads a diagram relabelled with a prefix used by no
    other operation, so the caches keyed on Diagram never hit across
    operations, as in separate `shd` invocations.  Files are rewritten in
    place at each pass, so disk use does not grow with the pass count.
    """

    commands: tuple[str, ...]
    largest: str                   # name of the op reported as largest_op_s

    def __init__(self, sfh, seed: int, smoke: bool, workdir: Path):
        self.sfh = sfh
        self.workdir = workdir
        rng = random.Random(seed)
        self.tag = "".join(rng.choice(string.ascii_lowercase)
                           for _ in range(2))
        self.cases = self.build_cases(smoke)
        self.slots = [(case, cmd) for case in self.cases
                      for cmd in self.commands]

    def build_cases(self, smoke: bool) -> list[Case]:
        raise NotImplementedError

    def prepare(self, pass_index: int) -> list[Op]:
        relabel = self.sfh.builders.relabel
        emit = self.sfh.shdcli.emit_shd
        ops = []
        for slot, (case, cmd) in enumerate(self.slots):
            prefix = f"{self.tag}{pass_index:03d}{slot:03d}_"
            path = self.workdir / f"op{slot:03d}.shd"
            path.write_text(emit(relabel(case.diagram, prefix)),
                            encoding="utf-8")
            ops.append(Op(f"{cmd} {case.label}",
                          self._runner(cmd, str(path)),
                          self._checker(cmd, case)))
        return ops

    def _runner(self, cmd: str, path: str):
        shdcli = self.sfh.shdcli

        def call():
            out = io.StringIO()
            rc = shdcli.run_command(["--json", cmd, path], out)
            return rc, out.getvalue()
        return call

    @staticmethod
    def _checker(cmd: str, case: Case):
        if cmd == "validate":
            return oracles.check_validate
        return lambda res: oracles.check_compute(res, case.dims,
                                                 case.generators)


class ChainLadder(CliWorkload):
    """`compute` on T(1,0;n): few large classes, pairwise domain solves."""

    commands = ("compute",)

    def build_cases(self, smoke):
        build = self.sfh.builders.build_tpqn
        ladder = (4, 6) if smoke else (8, 10, 12, 14)
        self.largest = f"compute T(1,0;{ladder[-1]})"
        return [Case(f"T(1,0;{n})", build(1, 0, n), closed_dims(1, n),
                     closed_generators(1, n)) for n in ladder]


class ManySmall(CliWorkload):
    """`validate` then `compute` on many small diagrams.

    The T(p,q;n) family for p <= 7, the glued pairs of the tensor law and
    the stabilized diagrams of the property suite; classes have one or two
    members, so the fixed cost per diagram dominates.
    """

    commands = ("validate", "compute")

    TPQN = tuple((p, q, n) for p in range(1, 8) for q in range(p)
                 if gcd(p, q) == 1 for n in (2, 4, 6))
    GLUED = ((2, 2, 1, 2), (4, 2, 1, 2), (4, 1, 0, 4), (6, 2, 1, 2),
             (4, 3, 1, 2), (4, 2, 1, 4), (2, 3, 2, 4), (4, 5, 2, 2))
    STABILIZED = ((2, 1, 2, "r0"), (1, 0, 6, "e1_r3"), (2, 1, 4, "e0_r1"),
                  (3, 2, 4, "e0_r1"))

    def build_cases(self, smoke):
        b = self.sfh.builders
        tpqn, glued, stab = self.TPQN, self.GLUED, self.STABILIZED
        self.largest = "compute T(7,1;6)"
        if smoke:
            tpqn, glued, stab = ((1, 0, 2), (3, 2, 4)), glued[:1], stab[:1]
            self.largest = "compute T(3,2;4)"
        cases = [Case(f"T({p},{q};{n})", b.build_tpqn(p, q, n),
                      closed_dims(p, n), closed_generators(p, n))
                 for p, q, n in tpqn]
        for n1, p, q, m2 in glued:
            d = b.glue(b.build_tpqn(1, 0, n1), chain_end(n1),
                       b.build_tpqn(p, q, m2), chain_end(m2))
            cases.append(Case(f"T(1,0;{n1})+T({p},{q};{m2})", d,
                              convolved_dims(n1, p, m2),
                              closed_generators(1, n1)
                              * closed_generators(p, m2)))
        for p, q, n, region in stab:
            d = b.stabilize(b.build_tpqn(p, q, n), region)
            cases.append(Case(f"T({p},{q};{n})@{region}", d,
                              closed_dims(p, n), closed_generators(p, n)))
        return cases


# ---------------------------------------------------------------------------
# hull workload


HULL_SHAPES = ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2),
               (4, 3))                     # (ambient dimension, hull dimension)
HULL_SIZES = (8, 13, 18)
SMOKE_SHAPES = ((2, 1), (3, 2), (4, 3))
SHAPE_SEED = 20080221                      # fixes the catalogue of shapes
COORD_RANGE = {1: 12, 2: 4, 3: 3}


def affine_rank(points: list[tuple[int, ...]]) -> int:
    """Rank of the differences from the first point, by exact elimination."""
    rows = [[Fraction(x - o) for x, o in zip(p, points[0])]
            for p in points[1:]]
    rank = 0
    for c in range(len(points[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def shape_catalogue(smoke: bool):
    """Full-dimensional point sets in Z^k, the same for every seed.

    Fixing the shapes fixes the combinatorics of every hull, and with it
    the cost of an operation; the seed then only places them (see Hull).
    """
    rng = random.Random(SHAPE_SEED)
    shapes = []
    for amb, k in HULL_SHAPES:
        for n in HULL_SIZES:
            while True:
                pts: set = set()
                while len(pts) < n:
                    pts.add(tuple(rng.randint(-COORD_RANGE[k], COORD_RANGE[k])
                                  for _ in range(k)))
                pts = sorted(pts)
                if affine_rank(pts) == k:
                    break
            shapes.append((amb, k, pts))
    if smoke:
        return [s for s in shapes
                if (s[0], s[1]) in SMOKE_SHAPES and len(s[2]) == 8]
    return shapes


@dataclass
class HullInput:
    label: str
    base: list[tuple[int, ...]]          # the shape in Z^k
    matrix: list[list[int]]              # k x ambient, rank k
    offset: list[int]
    support: object                      # polytope.Support
    face_alphas: list[tuple[int, ...]]
    norm_alphas: list[tuple[Fraction, ...]]

    def embed(self, x) -> tuple:
        """2 (offset + x M): the even lattice point of a base point x."""
        return tuple(2 * (o + sum(xi * row[j] for xi, row in
                                  zip(x, self.matrix)))
                     for j, o in enumerate(self.offset))


class Hull:
    """`build_polytope` then face, y and z queries on seeded supports.

    The seed draws, for every shape of the catalogue, an integer linear
    embedding of rank k into the ambient lattice, a translation, the
    multiplicities and the query classes.
    """

    QUERIES = 4

    def __init__(self, sfh, seed: int, smoke: bool, workdir: Path):
        self.sfh = sfh
        rng = random.Random(seed)
        self.inputs = []
        for amb, k, base in shape_catalogue(smoke):
            while True:
                matrix = [[rng.randint(-1, 1) for _ in range(amb)]
                          for _ in range(k)]
                if affine_rank([(0,) * amb] + [tuple(r) for r in matrix]) \
                        == k:
                    break
            offset = [rng.randint(-3, 3) for _ in range(amb)]
            inp = HullInput(f"hull {amb}-D dim {k} n={len(base)}", base,
                            matrix, offset, None, [], [])
            points = tuple((inp.embed(x), rng.randint(1, 3)) for x in base)
            inp.support = sfh.polytope.Support(points, 0)
            for _ in range(self.QUERIES):
                alpha = (0,) * amb
                while not any(alpha):
                    alpha = tuple(rng.randint(-5, 5) for _ in range(amb))
                inp.face_alphas.append(alpha)
                inp.norm_alphas.append(tuple(
                    Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                    for _ in range(amb)))
            self.inputs.append(inp)
        self.largest = "hull 4-D dim 3 n=8" if smoke else "hull 4-D dim 3 n=18"

    def prepare(self, pass_index: int) -> list[Op]:
        return [Op(inp.label, self._runner(inp),
                   lambda res, inp=inp: oracles.check_hull(res, inp))
                for inp in self.inputs]

    def _runner(self, inp: HullInput):
        polytope = self.sfh.polytope

        def call():
            poly = polytope.build_polytope(inp.support)
            faces = [polytope.face_query(poly, inp.support, a)
                     for a in inp.face_alphas]
            norms = [(polytope.seminorm_y(poly, a),
                      polytope.symmetrized_z(poly, a))
                     for a in inp.norm_alphas]
            return poly, faces, norms
        return call


WORKLOADS = {"chain_ladder": ChainLadder, "many_small": ManySmall,
             "hull": Hull}
