"""The .shd text format and the command-line pipeline.

emit_shd writes a diagram as one declaration per line; parse_shd reads
it back identically.  run_command drives the same subcommands the shd
script exposes: build, validate, compute, polytope, face, norm, depth,
glue.  Exit codes: 0 ok, 1 invalid diagram, 2 parse or usage error,
3 computation obstructed.
"""

import io
import sys
import tempfile
from pathlib import Path

from sfhpoly import build_tpqn
from sfhpoly.shdcli import emit_shd, parse_shd, run_command

d = build_tpqn(1, 0, 6)
text = emit_shd(d)
print(text)
assert parse_shd(text) == d

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "t6.shd"
    rc = run_command(["build", "tpqn", "--p", "1", "--q", "0", "--n", "6",
                      "--out", str(path)], sys.stdout)
    print("build exit:", rc)
    for argv in (["validate", str(path)],
                 ["compute", str(path)],
                 ["--json", "depth", str(path)],
                 ["norm", str(path), "--class", "1"]):
        out = io.StringIO()
        rc = run_command(argv, out)
        print(f"\n$ shd {' '.join(argv)}   (exit {rc})")
        print(out.getvalue(), end="")
