"""Guards on the package source itself."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sfhpoly"


def test_no_bare_asserts_in_src():
    # python -O strips assert statements; invariants must raise instead
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_root_exports_exactly_its_all():
    import sfhpoly
    public = {name for name, value in vars(sfhpoly).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(sfhpoly.__all__)
    assert len(sfhpoly.__all__) == len(set(sfhpoly.__all__))
    assert not hasattr(sfhpoly, "__getattr__")


def test_package_import_leaves_shdcli_unloaded():
    # `python -m sfhpoly.shdcli` warns when the package already loaded it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sfhpoly; print('sfhpoly.shdcli' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_src_imports_only_stdlib():
    # the package has no dependencies beyond the standard library
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names
                      and name.split(".")[0] != "sfhpoly"]
    assert found == []
