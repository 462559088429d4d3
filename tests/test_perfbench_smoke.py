"""The benchmark harness still runs and its traced call counts still hold.

perfbench/run.py checks every unit it runs, including that the traced
counts (projector A/A^T/bind/unbound calls, network and ODE calls) equal the
values computed from the workload's configuration.  One quick traced run of
fan-recon keeps the harness and those counts from rotting unnoticed, and one
of fan-train does the same for the training path: the adjoint solve's aug
evaluations, the network VJP and the training spans.  One untraced and one
traced quick run of cone-recon take the 3D projector, with its rotation
blocks, through the bound and unbound adjoint checks and the 3D counts.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _quick_run(*args):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--quick", *args],
        capture_output=True, text=True, timeout=300, check=False, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0, out.stdout
    return result


def test_quick_traced_fan_recon_is_correct():
    assert _quick_run("--workload", "fan-recon", "--trace", "1")["attempted"] >= 2


def test_quick_traced_fan_train_is_correct():
    metrics = _quick_run("--workload", "fan-train", "--trace", "1")["metrics"]
    assert metrics["ode.aug.calls"]["value"] > 0
    assert metrics["network.vjp.calls"]["value"] > 0
    assert "training.sample.s" in metrics


def test_quick_cone_recon_is_correct():
    # the traced run also checks the 3D call counts: bind, unbound, FDK and
    # the ray_bundle-derived taps_per_A
    for trace in ("0", "1"):
        result = _quick_run("--workload", "cone-recon", "--trace", trace)
        assert result["attempted"] >= 1 + int(trace)
