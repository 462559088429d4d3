"""The package's public surface: every exported name resolves, once."""

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
