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


def test_every_private_function_and_class_is_used_by_the_library():
    # a private helper that only the tests call belongs in the tests; a use
    # counts only outside the helper's own definition, so recursion is none
    defs, uses = [], []
    for path in sorted(Path(tomoflow.__file__).parent.glob("*.py")):
        for i, stmt in enumerate(ast.parse(path.read_text()).body):
            where = (path.name, i)
            nodes = list(ast.walk(stmt))
            uses.append((where, {n.id for n in nodes if isinstance(n, ast.Name)}
                         | {n.attr for n in nodes if isinstance(n, ast.Attribute)}))
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and stmt.name.startswith("_")
                and not stmt.name.startswith("__")
            ):
                defs.append((where, stmt.name))
    unused = [
        f"{where[0]}: {name}" for where, name in defs
        if not any(name in names for other, names in uses if other != where)
    ]
    assert unused == []


def test_no_post_init_checks_finiteness_or_bools_itself():
    # a count or a real field is checked by errors._count or errors._real,
    # so every config and scan applies one rule to it
    found = []
    for path in sorted(Path(tomoflow.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"):
                continue
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                name = ast.unparse(call.func)
                if name in ("math.isfinite", "isfinite") or (
                    name == "isinstance" and "bool" in ast.unparse(call.args[1])
                ):
                    found.append(f"{path.name}:{call.lineno}: {ast.unparse(call)}")
    assert found == []
