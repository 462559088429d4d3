"""The benchmark harness still runs and its traced call counts still hold.

perfbench/run.py checks every unit it runs, including that the traced
counts (projector A/A^T/bind/unbound calls, network and ODE calls) equal the
values computed from the workload's configuration.  One quick traced run of
fan-recon keeps the harness and those counts from rotting unnoticed.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quick_traced_fan_recon_is_correct():
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "fan-recon", "--quick", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=False, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0, out.stdout
    assert result["attempted"] >= 2
