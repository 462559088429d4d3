#!/usr/bin/env python3
"""The tomoflow benchmark.

    python3 perfbench/run.py --workload fan-recon --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fan-train --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload cone-recon --quick
    python3 perfbench/run.py --self-check

One closed-loop caller runs units of the workload back to back, in this
process, until --seconds have passed (at least one unit; two with --trace 1,
one untraced and one traced).  Set-up time is measured in fresh processes.
The last line of standard output is the result: correct, attempted, failed
and the metrics named in BENCHMARK.json (end_to_end with --trace 0,
per_layer with --trace 1).  A fuller report with the machine block, the
per-workload stage metrics, sample counts and tail percentiles comes before
it.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
PROBE_TIMEOUT_S = 120
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_blas() -> None:
    # One BLAS thread: on a small shared machine a second thread makes
    # run-to-run times depend on the load of the other CPUs.  This must
    # happen before numpy is imported; child processes inherit it.
    for var in BLAS_VARS:
        os.environ[var] = "1"


def _steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over all CPUs."""
    fields = _read("/proc/stat").split("\n", 1)[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_tomoflow():
    if not (SRC / "tomoflow" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tomoflow sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import tomoflow

    if Path(tomoflow.__file__).resolve().parent != SRC / "tomoflow":
        raise SystemExit(f"perfbench: imported tomoflow from {tomoflow.__file__}, not {SRC}")
    return tomoflow


# -- set-up ---------------------------------------------------------------

def probe(workload: str, seed: int) -> None:
    """Child process: import tomoflow and run one cold short unit.

    Prints the set-up time: the import plus the cold unit, without the
    generation of the unit's inputs.
    """
    t0 = time.perf_counter()
    _import_tomoflow()
    import workloads

    t_import = time.perf_counter() - t0
    wl = workloads.WORKLOADS[workload](seed, short=True)
    t1 = time.perf_counter()
    wl.unit(0)
    print(json.dumps({"setup_s": t_import + time.perf_counter() - t1}))


def measure_setup(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if out.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


# -- reporting ------------------------------------------------------------

def summarize(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n}
    if n > 10:
        out["tail"] = {"percentile": int(100 * (n - 10) / n), "value": xs[n - 11]}
    return out


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine(seed: int) -> dict:
    import numpy
    import scipy
    import tomoflow

    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        caches[f"L{level} {kind}"] = _read(f"{index}/size")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "tomoflow_default_threads": tomoflow.get_default_threads(),
        "seed": seed,
    }


def _samples(units, key: str, scale: float = 1.0) -> list[float]:
    return [x * scale for u in units for x in u.times.get(key, [])]


QUALITY_UNITS = {"val_loss": "1/mm", "gamma_last": "1", "rk4_stability_ratio": "1"}


def end_to_end(wl, units, setups: list[float]) -> tuple[dict, dict]:
    """(gated metrics, the workload's own stage and quality metrics).

    Each maps a name to its samples; the second also gives each unit.
    """
    quality_units = units[:1] if wl.quality_from_first_unit else units
    gated = {
        "setup_s": setups,
        "unit_s": _samples(units, "unit"),
        "analytic_ms": _samples(units, "analytic", 1e3),
        "node_s": _samples(units, "node"),
        "psnr_db": [u.quality["psnr_node"] for u in quality_units],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
    }
    named = {
        ("epoch_s" if wl.name == "fan-train" else "unit_s", "s"): gated["unit_s"],
        ("simulate_ms", "ms"): _samples(units, "simulate", 1e3),
        ("fdk_ms" if wl.dims == 3 else "fbp_ms", "ms"): gated["analytic_ms"],
        ("sirt_s", "s"): _samples(units, "sirt"),
        ("tv_s", "s"): _samples(units, "tv"),
        ("node_s", "s"): gated["node_s"],
    }
    for key in units[0].quality:
        if key.startswith("psnr_"):
            named[(f"{key}_db", "dB")] = [u.quality[key] for u in quality_units]
        elif key in QUALITY_UNITS:
            named[(key, QUALITY_UNITS[key])] = [u.quality[key] for u in quality_units]
    return gated, {k: v for k, v in named.items() if v}


# -- the measured loop ----------------------------------------------------

def run(args) -> int:
    spec = _spec()
    # set-up time is an end-to-end metric; a traced run does not report it
    setups = [] if args.trace else [measure_setup(args.workload, args.seed)
                                    for _ in range(1 if args.quick else SETUP_RUNS)]
    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    warm = cls(args.seed, short=True)
    warm.unit(0)  # lets lazy set-up finish before timing
    wl = warm if args.quick else cls(args.seed, short=False)
    tracer = tracing.Tracer()
    units, layers, failures = [], [], []
    attempted = failed = 0
    untraced_s, traced_s = [], []
    t_start, steal_start = time.perf_counter(), _steal_s()
    while True:
        k = attempted
        traced = bool(args.trace) and k % 2 == 1
        attempted += 1
        if traced:
            tracer.install()
        unit = None
        try:
            unit, outputs = wl.unit(k)
        except workloads.DivergenceError as exc:
            failed += 1
            failures.append(f"unit {k}: {exc}")
        finally:
            if traced:
                tracer.uninstall()
        if unit is not None:
            (traced_s if traced else untraced_s).append(unit.times["unit"][0])
            wl.check(k, unit, outputs)
            if traced:
                got = tracer.layer_metrics()
                if got["training.divergence_retries"] == 0:
                    for name, want in wl.expected_counts().items():
                        if got[name] != want:
                            unit.failures.append(f"traced {name} = {got[name]}, expected {want}")
                layers.append(got)
            if unit.failures:
                failed += 1
                failures.extend(f"unit {k}: {f}" for f in unit.failures)
            units.append(unit)
        enough = attempted >= (2 if args.trace else 1)
        if enough and (args.quick or time.perf_counter() - t_start >= args.seconds):
            break
    if not units or (args.trace and not (layers and untraced_s)):
        raise SystemExit("perfbench: no unit completed\n" + "\n".join(failures))

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units_of = {m["name"]: m["unit"] for m in spec["per_layer"]}
        samples = {name: [layer[name] for layer in layers] for name in tracing.LAYER_METRICS}
        samples.update({name: [v] for name, v in wl.computed().items()})
        samples["trace.overhead_pct"] = [
            100.0 * (statistics.median(traced_s) / statistics.median(untraced_s) - 1.0)]
        named = {}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units_of = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        samples, named = end_to_end(wl, units, setups)
    missing = [n for n in names if n not in samples]
    if missing:
        raise SystemExit(f"perfbench: no value for {missing}")

    report = {
        "workload": args.workload,
        "mode": "quick" if args.quick else "full",
        "trace": args.trace,
        "loop": "closed, one caller, next unit starts when the previous one ends",
        "machine": machine(args.seed),
        "measured_s": time.perf_counter() - t_start,
        "steal_s": _steal_s() - steal_start,
        "metrics": {n: {**summarize(samples[n]), "unit": units_of[n]} for n in names},
        "workload_metrics": {n: {**summarize(v), "unit": u} for (n, u), v in named.items()},
        "failures": failures,
    }
    print(json.dumps(report, indent=1))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": statistics.median(samples[n]), "unit": units_of[n]}
                    for n in names},
    }
    print(json.dumps(result))
    return 0


# -- self-check -----------------------------------------------------------

def _result_problems(stdout: str, want: dict) -> list[str]:
    """What is wrong with a run's result line, given the expected metric units."""
    result = json.loads(stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    problems = []
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"not correct\n{stdout}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted {result['attempted']!r}")
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metrics {sorted(set(got) ^ set(want))} differ")
    for name, m in got.items():
        ok = (set(m) == {"value", "unit"} and m["unit"] == want.get(name)
              and isinstance(m["value"], (int, float)) and math.isfinite(m["value"]))
        if not ok:
            problems.append(f"bad metric {name}: {m}")
    return problems


def self_check() -> int:
    """Run the quick mode of every workload, traced and untraced, and
    validate the result line against BENCHMARK.json."""
    spec = _spec()
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace_flag, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--quick",
                   "--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace_flag)]
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=2 * PROBE_TIMEOUT_S, check=False)
            if out.returncode != 0:
                problems = [f"exit {out.returncode}\n{out.stderr}"]
            else:
                problems = _result_problems(
                    out.stdout, {m["name"]: m["unit"] for m in spec[kind]})
            where = f"{workload} --trace {trace_flag}"
            print(f"{where}: {'FAILED' if problems else 'ok'}", flush=True)
            for p in problems:
                print(f"{where}: {p}", file=sys.stderr)
            failed = failed or bool(problems)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("fan-recon", "fan-train", "cone-recon"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one tiny unit (two with --trace 1), one set-up probe")
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload in quick mode and validate the output")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _pin_blas()
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    _import_tomoflow()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
