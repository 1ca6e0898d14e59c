"""Fuzz of the .shd reader and the command line over mutated files.

The seeds are the canonical files of the golden T(p,q;n) diagrams and of
one stabilized diagram.  A mutant is a seed with a few edits at the
character, token or line level.  Every subcommand must end in an exit
code 0-3 with no exception escaping run_command, and every mutant that
parses emits a canonical file on which parse_shd and emit_shd are
mutually inverse.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings, strategies as st

from sfhpoly.builders import build_tpqn, stabilize
from sfhpoly.shdcli import ParseError, emit_shd, parse_shd, run_command

GOLDEN = ((1, 0, 2), (1, 0, 4), (1, 0, 6), (1, 0, 8), (2, 1, 2),
          (2, 1, 4), (3, 1, 2), (3, 2, 4), (5, 2, 2))
SEEDS = tuple(emit_shd(build_tpqn(p, q, n)) for p, q, n in GOLDEN) + (
    emit_shd(stabilize(build_tpqn(1, 0, 6), "e1_r3")),)
COMMANDS = (["validate"], ["compute"], ["polytope"], ["depth"],
            ["norm", "--class", "1"], ["face", "--class", "-1"])
# fragments of the format, so that edits often keep a line parseable
TOKENS = ("+", "-", ".", ":", "(", ")", " ", "\n", "#", "@", "∂", "0",
          "1", "7", "a", "b", "u", "s0", "e0_", "cycle(", "genus 1",
          "boundary ", "alpha ", "beta ", "region ", "\xff", "\t")


@st.composite
def mutants(draw) -> str:
    text = draw(st.sampled_from(SEEDS))
    for _ in range(draw(st.integers(1, 4))):
        lines = text.split("\n")
        kind = draw(st.sampled_from(("delete", "insert", "replace",
                                     "drop_line", "copy_line",
                                     "swap_lines")))
        if kind in ("drop_line", "copy_line", "swap_lines"):
            i = draw(st.integers(0, len(lines) - 1))
            j = draw(st.integers(0, len(lines) - 1))
            if kind == "drop_line":
                del lines[i]
            elif kind == "copy_line":
                lines.insert(j, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
            continue
        i = draw(st.integers(0, len(text)))
        j = min(len(text), i + draw(st.integers(0, 8)))
        piece = draw(st.sampled_from(TOKENS) | st.text(max_size=3))
        if kind == "delete":
            text = text[:i] + text[j:]
        elif kind == "insert":
            text = text[:i] + piece + text[i:]
        else:
            text = text[:i] + piece + text[i + 1:]
    return text


@pytest.fixture(scope="module")
def shd_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutant.shd"


@settings(max_examples=150, deadline=None)
@given(mutants())
def test_mutated_files_end_in_an_exit_code(shd_file, text):
    shd_file.write_text(text, encoding="utf-8")
    for argv in COMMANDS:
        rc = run_command(["--json", argv[0], str(shd_file)] + argv[1:],
                         io.StringIO())
        assert rc in (0, 1, 2, 3), (argv, rc)
    try:
        d = parse_shd(text)
    except ParseError:
        return
    canonical = emit_shd(d)
    assert parse_shd(canonical) == d
    assert emit_shd(parse_shd(canonical)) == canonical


@pytest.mark.parametrize("text", SEEDS)
def test_seed_files_are_canonical(text):
    assert emit_shd(parse_shd(text)) == text
