"""The package's public surface: every exported name resolves, once."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import tomoflow


def test_every_exported_name_resolves_and_is_listed_once():
    names = tomoflow.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [name for name in names if not hasattr(tomoflow, name)]
    assert missing == []


def test_import_does_not_load_scipy_ndimage():
    # only SSIM smooths with scipy.ndimage, and loading it is about a tenth of
    # a second of the import that every command and benchmark run pays
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, tomoflow; print('scipy.ndimage' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.strip() == "False"


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports names only to export them; every other module must
    # read each name that its module-level imports bind
    unused = []
    for path in sorted(Path(tomoflow.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in stmt.names]
            elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
                bound = [a.asname or a.name for a in stmt.names]
            else:
                continue
            unused += [f"{path.name}: {name}" for name in bound if name not in used]
    assert unused == []
