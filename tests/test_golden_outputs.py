"""Byte identity of `shd --json` output on a fixed family of diagrams.

`golden_outputs.json` holds, for every (diagram, command) pair, the SHA-256
of the command's standard output and its exit code.  Any change to an
output byte, to the order of classes, generators or gradings, or to an exit
code fails here.  The digests were written by running this file as a
script (`PYTHONPATH=src python3 tests/test_golden_outputs.py`) at a commit
whose outputs the acceptance and oracle tests had checked; they are not
regenerated to make a change pass.  A command added to the table later
has its digests written at the commit before the change it guards, with
the earlier entries left as they are.

`text_digests.json` pins the plain-text reports the same way on a subset
(rationals in `norm`, torsion, and the exit-3 diagram G(4,2)); it was
written by `PYTHONPATH=src python3 tests/test_golden_outputs.py --text`.
`genus_digests.json` pins both formats of one diagram with region genus,
written by `PYTHONPATH=src python3 tests/test_golden_outputs.py --genus`.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from math import gcd
from pathlib import Path

import pytest

from sfhpoly.builders import build_tpqn, glue, stabilize
from sfhpoly.shdcli import emit_shd, run_command

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))
from conftest import grid_knot, with_genus  # noqa: E402

DIAGRAMS = {
    f"T({p},{q};{n})": (lambda p=p, q=q, n=n: build_tpqn(p, q, n))
    for p in range(1, 6) for q in range(p) if gcd(p, q) == 1
    for n in (2, 4, 6)}
DIAGRAMS.update({f"T(1,0;{n})": (lambda n=n: build_tpqn(1, 0, n))
                 for n in (8, 10, 12, 14, 16)})
DIAGRAMS.update({f"G({n},{k})": (lambda n=n, k=k: grid_knot(n, k))
                 for n, k in ((3, 1), (4, 1), (5, 2), (4, 2))})
# glued diagrams, the first three with torsion in H1 (non-unit pivots in
# the relation Smith form), and a stabilization
DIAGRAMS.update({
    f"glue(T({p},{q};{n}),{c},T({r},{s};{m}),{e})":
        (lambda p=p, q=q, n=n, c=c, r=r, s=s, m=m, e=e:
         glue(build_tpqn(p, q, n), c, build_tpqn(r, s, m), e))
    for (p, q, n, c), (r, s, m, e) in (
        ((2, 1, 2, "s0"), (2, 1, 2, "s0")),
        ((2, 1, 4, "s0"), (2, 1, 4, "s0")),
        ((3, 1, 4, "s0"), (3, 1, 4, "s0")),
        ((1, 0, 4, "e0_s2"), (3, 1, 4, "s0")),
        ((5, 2, 4, "s0"), (3, 2, 2, "s1")),
        ((1, 0, 4, "e0_s2"), (2, 1, 4, "e0_s2")))})
DIAGRAMS["stabilize(T(1,0;6),e1_r3)"] = \
    lambda: stabilize(build_tpqn(1, 0, 6), "e1_r3")
# the H1 cycle basis orders its free coordinates as the curve-graph
# boundary's Smith form does; in another order the sign of the free
# coordinate flips on these two
DIAGRAMS["T(7,4;6)"] = lambda: build_tpqn(7, 4, 6)

COMMANDS = {
    "validate": ["validate"],
    "compute": ["compute"],
    "polytope": ["polytope"],
    "depth": ["depth"],
    "norm --class 3/2": ["norm", "--class", "3/2"],
    "face --class 1": ["face", "--class", "1"],
    # with "=": argparse reads a bare -7/3 as an option
    "norm --class=-7/3": ["norm", "--class=-7/3"],
    "face --class 5/2": ["face", "--class", "5/2"],
}

GOLDEN_FILE = HERE / "golden_outputs.json"

TEXT_DIAGRAMS = ("T(1,0;4)", "T(2,1;4)", "T(1,0;8)", "G(3,1)", "G(4,2)",
                 "glue(T(2,1;2),s0,T(2,1;2),s0)")
TEXT_FILE = HERE / "text_digests.json"


def genus_diagram():
    """Region genus 2 on a diagram with torsion, H1 = Z^5 + Z/2: four
    handle generators that no relation meets."""
    return with_genus(
        glue(build_tpqn(2, 1, 2), "s0", build_tpqn(2, 1, 2), "s0"), 2)


# queried with classes of its length, in both output formats
GENUS_COMMANDS = {
    **{k: COMMANDS[k] for k in ("validate", "compute", "polytope", "depth")},
    "norm --class 3/2,0,1,0,-1": ["norm", "--class", "3/2,0,1,0,-1"],
    "face --class 1,0,0,2,0": ["face", "--class", "1,0,0,2,0"],
}
GENUS_FILE = HERE / "genus_digests.json"
FORMATS = {"json": ("--json",), "text": ()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


def digests(build, workdir: Path, flags: tuple[str, ...] = ("--json",),
            commands: dict = COMMANDS) -> dict[str, list]:
    """[sha256 of stdout, exit code] per command on one emitted diagram."""
    path = workdir / "diagram.shd"
    path.write_text(emit_shd(build()), encoding="utf-8")
    out = {}
    for label, argv in commands.items():
        buf = io.StringIO()
        rc = run_command([*flags, argv[0], str(path), *argv[1:]], buf)
        out[label] = [hashlib.sha256(buf.getvalue().encode()).hexdigest(), rc]
    return out


def test_golden_table_covers_the_family(golden):
    assert set(golden) == set(DIAGRAMS) and len(DIAGRAMS) == 47
    assert all(set(v) == set(COMMANDS) for v in golden.values())


@pytest.mark.parametrize("name", DIAGRAMS)
def test_json_output_is_byte_identical(name, tmp_path, golden):
    assert digests(DIAGRAMS[name], tmp_path) == golden[name]


@pytest.mark.parametrize("name", TEXT_DIAGRAMS)
def test_text_output_is_byte_identical(name, tmp_path):
    pinned = json.loads(TEXT_FILE.read_text(encoding="utf-8"))
    assert set(pinned) == set(TEXT_DIAGRAMS)
    assert digests(DIAGRAMS[name], tmp_path, ()) == pinned[name]


@pytest.mark.parametrize("fmt", FORMATS)
def test_genus_output_is_byte_identical(fmt, tmp_path):
    pinned = json.loads(GENUS_FILE.read_text(encoding="utf-8"))
    assert digests(genus_diagram, tmp_path, FORMATS[fmt], GENUS_COMMANDS) \
        == pinned[fmt]


if __name__ == "__main__":
    text = sys.argv[1:] == ["--text"]
    with tempfile.TemporaryDirectory() as tmp:
        if sys.argv[1:] == ["--genus"]:
            table = {fmt: digests(genus_diagram, Path(tmp), flags,
                                  GENUS_COMMANDS)
                     for fmt, flags in FORMATS.items()}
        else:
            table = {name: digests(DIAGRAMS[name], Path(tmp),
                                   () if text else ("--json",))
                     for name in (TEXT_DIAGRAMS if text else DIAGRAMS)}
    print(json.dumps(table, indent=1, sort_keys=True))
