"""File format round trips, report determinism, and exit codes."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import grid_knot, torus_grid, with_genus
from sfhpoly.builders import (InvalidGlue, build_base, build_elementary_piece,
                              build_tpqn, glue, relabel, stabilize)
from sfhpoly.diagram import Diagram, is_admissible
from sfhpoly.shdcli import (DuplicateIdentifier, ParseError,
                            UndeclaredIdentifier, emit_shd, parse_shd,
                            run_command)

ELEMENTARY_TEXT = """\
boundary s0 s1 s2 s3
alpha a: u v
beta b: u v
region r1 genus 0: cycle(+a.0 -b.0) cycle(\u2202s0)
region r2 genus 0: cycle(+b.0 +a.1) cycle(\u2202s1)
region r3 genus 0: cycle(-a.1 +b.1) cycle(\u2202s2)
region r4 genus 0: cycle(-a.0 -b.1) cycle(\u2202s3)
"""

INVALID_TEXT = """\
boundary s0
alpha a: u
beta b: u
region r0 genus 0: cycle(+a.0 +b.0 +a.0 -b.0) cycle(\u2202s0)
"""

ANNULI_TEXT = """\
boundary s0 s1
alpha a: u v
beta b: u v
region big1 genus 0: cycle(+a.0 -b.0)
region big2 genus 0: cycle(-a.1 +b.1)
region outU genus 0: cycle(+b.0 +a.1) cycle(\u2202s0)
region outL genus 0: cycle(-a.0 -b.1) cycle(\u2202s1)
"""


def run(argv):
    out = io.StringIO()
    rc = run_command(argv, out)
    return rc, out.getvalue()


@pytest.mark.parametrize("make", [
    build_elementary_piece,
    lambda: build_base(5, 2),
    lambda: build_tpqn(1, 0, 6),
    lambda: build_tpqn(3, 2, 4),
    lambda: stabilize(build_base(2, 1), "r0"),
])
def test_round_trip_identity(make):
    d = make()
    text = emit_shd(d)
    assert parse_shd(text) == d
    assert emit_shd(parse_shd(text)) == text


def test_parse_handwritten_elementary():
    assert parse_shd(ELEMENTARY_TEXT) == build_elementary_piece()


def test_parse_tolerates_comments_aliases_whitespace():
    variant = ELEMENTARY_TEXT.replace("\u2202", "@") \
        .replace("boundary", "# header\nboundary") \
        .replace("alpha a:", "alpha   a :") \
        .replace(" cycle(\u2202s3)", "  cycle( @s3 )  # trailing")
    assert parse_shd(variant) == build_elementary_piece()


@pytest.mark.parametrize("text,exc,line,needle", [
    ("", ParseError, 1, "no surface content"),
    ("# only\n   \n", ParseError, 1, "no surface content"),
    ("regoin r0\n", ParseError, 1, "unknown declaration"),
    ("boundary s0 s0\n", DuplicateIdentifier, 1, "declared twice"),
    ("alpha a: u\nalpha a: v\n", DuplicateIdentifier, 2, "declared twice"),
    ("alpha a: u u\n", DuplicateIdentifier, 1, "repeated on curve"),
    ("alpha a:\n", ParseError, 1, "at least one point"),
    ("alpha a: u\nbeta b: w\n", UndeclaredIdentifier, 2, "'w'"),
    ("alpha a: u\nregion r0 genus 0: cycle(+c.0)\n",
     UndeclaredIdentifier, 2, "'c'"),
    ("alpha a: u\nregion r0 genus 0: cycle(+a.5)\n",
     UndeclaredIdentifier, 2, "a.5"),
    ("alpha a: u\nregion r0 genus 0: cycle(a.0)\n",
     ParseError, 2, "bad cycle element"),
    ("alpha a: u\nregion r0 genus 0: cycle()\n", ParseError, 2, "empty"),
    ("alpha a: u\nregion r0 genus 0:\n", ParseError, 2, "at least one"),
    ("alpha a: u\nregion r0 genus x: cycle(+a.0)\n",
     ParseError, 2, "malformed region"),
    ("alpha a: u\nregion r0 genus 0: stray cycle(+a.0)\n",
     ParseError, 2, "expected cycle"),
    ("boundary s0\nalpha a: u\nregion r0 genus 0: cycle(\u2202s0 +a.0)\n",
     ParseError, 3, "whole cycle"),
    ("alpha a: u\nregion r0 genus 0: cycle(\u2202s9)\n",
     UndeclaredIdentifier, 2, "s9"),
    ("alpha a: u\nregion r0 genus 0: cycle(+a.0)\n"
     "region r0 genus 0: cycle(-a.0)\n", DuplicateIdentifier, 3, "r0"),
])
def test_parse_errors(text, exc, line, needle):
    with pytest.raises(exc) as info:
        parse_shd(text)
    assert info.value.line == line
    assert needle in info.value.message
    assert info.value.column >= 1


def test_validate_a_high_genus_region(tmp_path):
    """A genus of 1000 in a .shd file is validated, H1 included, without
    the quadratic memory of dense Smith-form transforms."""
    path = tmp_path / "genus.shd"
    path.write_text(emit_shd(with_genus(build_tpqn(1, 0, 4), 1000)),
                    encoding="utf-8")
    rc, text = run(["--json", "validate", str(path)])
    assert rc == 0
    report = json.loads(text)
    assert (report["ok"], report["b1"], report["torsion"]) == (True, 2001, [])


def test_validate_grid_links(tmp_path):
    """Grid links with periodic lattices of rank 2 to 4 are admissible, and
    all four are decided in under 2 s together."""
    start = time.perf_counter()
    for (n, k), rank in (((6, 3), 2), ((9, 3), 2), ((8, 4), 3),
                         ((10, 5), 4)):
        d = grid_knot(n, k)
        assert is_admissible(d).admissible
        path = tmp_path / f"G{n}_{k}.shd"
        path.write_text(emit_shd(d), encoding="utf-8")
        rc, text = run(["--json", "validate", str(path)])
        assert rc == 0
        report = json.loads(text)
        assert (report["lattice_rank"], report["admissible"]) == (rank, True)
    assert time.perf_counter() - start < 2


def test_parse_error_column():
    with pytest.raises(DuplicateIdentifier) as info:
        parse_shd("boundary s0 s0\n")
    assert (info.value.line, info.value.column) == (1, 13)


def test_exit_codes(tmp_path):
    ok = tmp_path / "ok.shd"
    ok.write_text(emit_shd(build_tpqn(1, 0, 4)))
    assert run(["validate", str(ok)])[0] == 0
    assert run(["compute", str(ok)])[0] == 0

    bad = tmp_path / "bad.shd"
    bad.write_text(INVALID_TEXT)
    rc, text = run(["validate", str(bad)])
    assert rc == 1 and "ok: false" in text
    assert run(["compute", str(bad)])[0] == 1
    rc, text = run(["glue", str(bad), "s0", str(ok), "e0_s2"])
    assert rc == 1 and text.startswith("invalid diagram: ") \
        and text.count("\n") == 1

    garbage = tmp_path / "garbage.shd"
    garbage.write_text("what is this\n")
    rc, text = run(["compute", str(garbage)])
    assert rc == 2 and "parse error" in text
    assert run(["compute", str(tmp_path / "missing.shd")])[0] == 2
    rc, text = run(["compute", str(tmp_path)])
    assert rc == 2 and text.startswith("is a directory")
    latin = tmp_path / "latin.shd"
    latin.write_bytes(ELEMENTARY_TEXT.replace("\u2202", "\xb6")
                      .encode("latin-1"))
    rc, text = run(["validate", str(latin)])
    assert rc == 2 and "not UTF-8" in text and text.count("\n") == 1
    under_file = str(ok / "x")
    for argv in (["validate", under_file],
                 ["build", "tpqn", "--p", "1", "--q", "0", "--n", "4",
                  "--out", under_file],
                 ["validate", str(tmp_path / ("x" * 300))]):
        rc, text = run(argv)
        assert rc == 2 and text.startswith("cannot access ") \
            and text.count("\n") == 1

    one, two = relabel(build_tpqn(1, 0, 4), "p"), \
        relabel(build_tpqn(1, 0, 4), "q")
    apart = tmp_path / "apart.shd"
    apart.write_text(emit_shd(Diagram(
        one.alpha_curves + two.alpha_curves, one.beta_curves + two.beta_curves,
        one.boundary_circles + two.boundary_circles,
        one.regions + two.regions)))
    for cmd in ("validate", "compute"):
        rc, text = run([cmd, str(apart)])
        assert rc == 1 and text == "disconnected diagram: 2 components\n"

    undetermined = tmp_path / "und.shd"
    undetermined.write_text(
        emit_shd(stabilize(torus_grid(("S00", "S01", "S11")), "S10")))
    rc, text = run(["compute", str(undetermined)])
    assert rc == 3 and "DifferentialUndetermined" in text

    annuli = tmp_path / "ann.shd"
    annuli.write_text(ANNULI_TEXT)
    rc, text = run(["compute", str(annuli)])
    assert rc == 3 and "LatticeNotZero" in text

    assert run(["face", str(ok)])[0] == 2        # missing --class
    assert run(["face", str(ok), "--class", "1,2"])[0] == 2
    assert run(["build", "tpqn", "--p", "4", "--q", "2", "--n", "4"])[0] == 2


def test_glue_refuses_an_invalid_result():
    bad = parse_shd(INVALID_TEXT)
    with pytest.raises(InvalidGlue) as info:
        glue(bad, "s0", build_tpqn(1, 0, 4), "e0_s2")
    assert isinstance(info.value, ValueError)
    assert info.value.violations
    assert all(isinstance(v, str) for v in info.value.violations)


def test_module_entry_point_runs_without_warning(tmp_path):
    f = tmp_path / "t4.shd"
    f.write_text(emit_shd(build_tpqn(3, 1, 4)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "sfhpoly.shdcli", "--json", "validate", str(f)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True


def test_build_compute_pipeline(tmp_path):
    f = tmp_path / "t6.shd"
    rc, text = run(["build", "tpqn", "--p", "1", "--q", "0", "--n", "6",
                    "--out", str(f)])
    assert rc == 0 and text == ""
    rc, text = run(["--json", "compute", str(f)])
    data = json.loads(text)
    assert rc == 0
    assert data["schema"] == 1
    assert data["dims"] == [1, 2, 1]
    assert data["total_dimension"] == 4
    positions = sorted(c["position"][0] for c in data["classes"])
    assert positions == [-2, -1, 0]


def test_build_stdout_emits_diagram():
    rc, text = run(["build", "tpqn", "--p", "1", "--q", "0", "--n", "2"])
    assert rc == 0
    assert parse_shd(text) == build_tpqn(1, 0, 2)


def test_cli_glue(tmp_path):
    a, b = tmp_path / "a.shd", tmp_path / "b.shd"
    g = tmp_path / "g.shd"
    run(["build", "tpqn", "--p", "1", "--q", "0", "--n", "4",
         "--out", str(a)])
    run(["build", "tpqn", "--p", "2", "--q", "1", "--n", "2",
         "--out", str(b)])
    rc, _ = run(["glue", str(a), "e0_s2", str(b), "s1", "--out", str(g)])
    assert rc == 0
    rc, text = run(["--json", "compute", str(g)])
    assert rc == 0
    assert json.loads(text)["dims"] == [1, 1, 1, 1]
    rc, text = run(["glue", str(a), "zz", str(b), "s1"])
    assert rc == 2 and "zz" in text


def test_depth_example(tmp_path):
    f = tmp_path / "t4.shd"
    run(["build", "tpqn", "--p", "1", "--q", "0", "--n", "4",
         "--out", str(f)])
    rc, text = run(["--json", "depth", str(f)])
    data = json.loads(text)
    assert rc == 0
    assert (data["total_rank"], data["depth_bound"]) == (2, 2)


def test_face_and_norm(tmp_path):
    f = tmp_path / "t6.shd"
    run(["build", "tpqn", "--p", "1", "--q", "0", "--n", "6",
         "--out", str(f)])
    rc, text = run(["--json", "face", str(f), "--class", "1"])
    data = json.loads(text)
    assert rc == 0
    assert data["face_dimension"] == 1
    assert data["face_points"] == [[-4]]
    rc, text = run(["--json", "norm", str(f), "--class", "3/2"])
    data = json.loads(text)
    assert rc == 0
    assert (data["y"], data["z"]) == ("3", "3")


def test_validate_report_shape(tmp_path):
    f = tmp_path / "t6.shd"
    run(["build", "tpqn", "--p", "1", "--q", "0", "--n", "6",
         "--out", str(f)])
    rc, text = run(["--json", "validate", str(f)])
    data = json.loads(text)
    assert rc == 0
    assert list(data) == ["schema", "command", "ok", "violations",
                          "components", "euler", "b1", "torsion",
                          "lattice_rank", "admissible", "nice"]
    assert data["components"] == [{"euler": -6, "boundary": 6, "genus": 1}]
    assert data["nice"] is False and data["admissible"] is True


def test_polytope_report(tmp_path):
    f = tmp_path / "t6.shd"
    run(["build", "tpqn", "--p", "1", "--q", "0", "--n", "6",
         "--out", str(f)])
    rc, text = run(["--json", "polytope", str(f)])
    data = json.loads(text)
    assert rc == 0
    assert sorted(s["point"] for s in data["support"]) \
        == [[-4], [-2], [0]]
    assert data["polytope"]["dim"] == 1
    assert sorted(data["polytope"]["vertices"]) == [["-2"], ["2"]]

    empty = f.with_name("empty_support.shd")
    empty.write_text(
        "boundary s0 s1 s2\nalpha a: u v\nbeta b: u v\n"
        "region up genus 0: cycle(+a.0 -b.0) cycle(\u2202s2)\n"
        "region dn genus 0: cycle(-a.1 +b.1)\n"
        "region outU genus 0: cycle(+b.0 +a.1) cycle(\u2202s0)\n"
        "region outL genus 0: cycle(-a.0 -b.1) cycle(\u2202s1)\n")
    rc, text = run(["--json", "polytope", str(empty)])
    data = json.loads(text)
    assert rc == 0
    assert data["support"] == [] and data["polytope"] is None

    rc, text = run(["--json", "depth", str(empty)])
    data = json.loads(text)
    assert rc == 1
    assert data["ok"] is False and data["total_rank"] == 0


@pytest.mark.parametrize("cmd", ["face", "norm"])
@pytest.mark.parametrize("genus, value", [
    (0, "-7/3"), (0, "-2"), (0, "-.5"), (1, "-1,2,0"), (1, "-7/3,0,-1")])
def test_class_values_starting_with_a_minus(tmp_path, cmd, genus, value):
    """`--class V` with V starting with '-' prints the same bytes as
    `--class=V`; a missing value and a wrong coordinate count exit 2."""
    # genus 1 on one region adds two free H1 generators: b1 = 3
    f = tmp_path / "t.shd"
    f.write_text(emit_shd(build_tpqn(1, 0, 6)).replace(
        "genus 0", f"genus {genus}", 1))
    for flag in ([], ["--json"]):
        joined = run(flag + [cmd, str(f), f"--class={value}"])
        assert joined[0] == 0, joined[1]
        assert run(flag + [cmd, str(f), "--class", value]) == joined
    assert run([cmd, str(f), "--class"])[0] == 2
    assert run([cmd, str(f), "--class", "--json"])[0] == 2
    rc, text = run([cmd, str(f), "--class", "-1,2" if genus else "-1,2,0"])
    assert rc == 2 and text.startswith("parse error: --class needs ")


def test_polytope_beyond_eight_dimensions(tmp_path):
    # genus 5 on one region adds ten free H1 generators, so b1 = 11
    f = tmp_path / "high.shd"
    f.write_text(emit_shd(build_tpqn(1, 0, 4)).replace("genus 0", "genus 5",
                                                       1))
    rc, text = run(["--json", "polytope", str(f)])
    assert rc == 0 and json.loads(text)["b1"] == 11
    for cmd in ("face", "norm"):
        rc, text = run([cmd, str(f), "--class", ",".join(["1"] * 11)])
        assert rc == 0, text


@pytest.mark.parametrize("cmd", ["face", "norm"])
def test_empty_support_query(tmp_path, pants_bigon, cmd):
    f = tmp_path / "pants.shd"
    f.write_text(emit_shd(pants_bigon))
    rc, text = run(["--json", cmd, str(f), "--class", "1"])
    data = json.loads(text)
    assert rc == 1
    assert data["ok"] is False and "no polytope" in data["error"]
    rc, text = run([cmd, str(f), "--class", "1"])
    assert rc == 1 and "error: no polytope" in text


def test_json_flag_position(tmp_path):
    f = tmp_path / "t4.shd"
    run(["build", "tpqn", "--p", "1", "--q", "0", "--n", "4",
         "--out", str(f)])
    before = run(["--json", "compute", str(f)])
    after = run(["compute", str(f), "--json"])
    assert before == after
    assert json.loads(before[1])["schema"] == 1
    for argv in (["validate", str(f), "--json"],
                 ["polytope", str(f), "--json"],
                 ["depth", str(f), "--json"],
                 ["norm", str(f), "--class", "1", "--json"],
                 ["face", str(f), "--class", "1", "--json"]):
        rc, text = run(argv)
        json.loads(text)


def test_byte_determinism(tmp_path):
    f = tmp_path / "t8.shd"
    run(["build", "tpqn", "--p", "1", "--q", "0", "--n", "8",
         "--out", str(f)])
    for argv in (["compute", str(f)], ["--json", "compute", str(f)],
                 ["polytope", str(f)],
                 ["build", "tpqn", "--p", "3", "--q", "2", "--n", "4"]):
        assert run(argv) == run(argv)


LONG = "7" * 5000       # past CPython's 4300-digit int <-> str limit


@pytest.mark.parametrize("old, new, needle", [
    ("genus 0", f"genus {LONG}", "genus 77777777... has 5000 digits"),
    ("+a.0", f"+a.{LONG}", "arc 77777777... has 5000 digits")])
def test_numbers_past_the_digit_limit_are_parse_errors(tmp_path, old, new,
                                                       needle):
    text = emit_shd(build_tpqn(1, 0, 4)).replace(old, new, 1)
    with pytest.raises(ParseError, match=needle):
        parse_shd(text)
    f = tmp_path / "long.shd"
    f.write_text(text)
    for cmd in ("validate", "compute"):
        rc, out = run(["--json", cmd, str(f)])
        assert rc == 2 and out.startswith("parse error: line 6, column ")
        assert out.endswith(f"{needle}\n") and out.count("\n") == 1


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("cmd", ["face", "norm"])
def test_classes_past_the_digit_limit_end_in_exit_2(tmp_path, json_flag, cmd):
    f = tmp_path / "t4.shd"
    f.write_text(emit_shd(build_tpqn(1, 0, 4)))
    # parse side: the class itself does not print back
    rc, out = run(json_flag + [cmd, str(f), "--class", "1e5000"])
    assert rc == 2 and out.startswith("parse error: bad --class value "
                                      "'1e5000': ") and out.count("\n") == 1
    # report side: the class prints, but the face's c_min does not
    rc, out = run(json_flag + [cmd, str(f), "--class", "9e4299"])
    if cmd == "face":
        assert (rc, out) == (2, "bad parameters: c_min has too many digits\n")
    else:
        assert rc == 0 and len(out) > 4300
