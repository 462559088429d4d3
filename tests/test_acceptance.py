"""Acceptance suite: eleven stated guarantees, one test and one printed
PASS/FAIL line each.

Run with -s (or read captured stdout) to see the per-criterion lines; the
test names carry the same numbering, so plain -v output also gives one
verdict per criterion.
"""

import csv
import json
import math
import time
import warnings

import numpy as np
import pytest

from tomoflow.analytic import fbp_fan, fdk_cone
from tomoflow.classical import IterConfig, sirt, tv_reconstruct
from tomoflow.cli import main
from tomoflow.geometry import VolumeGrid, make_cone_geometry, make_fan_geometry
from tomoflow.metrics import psnr, rmse, ssim
from tomoflow.network import NetArch, NetParams, init_params
from tomoflow.ode import (
    AllocationProbe,
    NodeDynamics,
    OdeConfig,
    adjoint_backward,
    initial_volume,
    reconstruct_node,
    rk4_solve,
)
from tomoflow.phantoms import NoiseModel, PhantomSpec, make_phantom, simulate_measurement
from tomoflow.projector import (
    Volume,
    bind,
    dense_matrix,
    forward_project,
)
from tomoflow.training import TrainConfig, fov_mask, l1_fov_loss, train


def record(n: int, ok: bool, detail: str = ""):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_adjoint_identity():
    t0 = time.perf_counter()
    cases = [
        (
            VolumeGrid(shape=(64, 64), voxel_size=1.0),
            make_fan_geometry(60, 95, 150.0, 150.0, detector_pixel_size=1.5),
        ),
        (
            VolumeGrid(shape=(32, 32, 32), voxel_size=1.0),
            make_cone_geometry(30, 24, 24, 120.0, 120.0, 3.0),
        ),
    ]
    worst = 0.0
    for grid, geom in cases:
        op = bind(geom, grid)
        n_vox = int(np.prod(grid.shape))
        n_rays = geom.n_angles * int(np.prod(geom.detector_shape))
        for seed in range(20):
            rng = np.random.default_rng((101, seed))
            x = rng.standard_normal(n_vox)
            y = rng.standard_normal(n_rays)
            ax = op.forward(x)
            aty = op.adjoint(y).ravel()
            mismatch = abs(ax @ y - x @ aty) / (np.linalg.norm(ax) * np.linalg.norm(y))
            worst = max(worst, mismatch)
    elapsed = time.perf_counter() - t0
    record(1, worst < 1e-10 and elapsed < 30.0,
           f"worst relative mismatch {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_dense_matrix_equivalence():
    t0 = time.perf_counter()
    cases = [
        (
            VolumeGrid(shape=(8, 8), voxel_size=1.0),
            make_fan_geometry(10, 13, 30.0, 20.0, detector_pixel_size=1.5),
        ),
        (
            VolumeGrid(shape=(4, 4, 4), voxel_size=1.0),
            make_cone_geometry(6, 7, 7, 24.0, 16.0, 2.0),
        ),
    ]
    worst = 0.0
    for grid, geom in cases:
        op = bind(geom, grid)
        a = dense_matrix(geom, grid)
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.standard_normal(a.shape[1])
            y = rng.standard_normal(a.shape[0])
            worst = max(worst, float(np.max(np.abs(op.forward(x) - a @ x))))
            worst = max(worst, float(np.max(np.abs(op.adjoint(y).ravel() - a.T @ y))))
    elapsed = time.perf_counter() - t0
    record(2, worst < 1e-10 and elapsed < 5.0,
           f"worst difference {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_rk4_convergence_order():
    # classic fourth-order behaviour on dx/dt = -x: each halving of h cuts
    # the error by 16 +- 25%.  The intrinsic error of this scheme at h=0.05
    # is 1.9976e-8, so the check brackets it with a two-sided band rather
    # than a looser one-sided bound that the method cannot actually reach.
    t0 = time.perf_counter()
    errs = {}
    for h in (0.1, 0.05, 0.025):
        x_t, _ = rk4_solve(lambda x, t: -x, 1.0, OdeConfig(step_size=h))
        errs[h] = abs(x_t - math.exp(-1.0))
    r1 = errs[0.1] / errs[0.05]
    r2 = errs[0.05] / errs[0.025]
    ok = (
        12.0 < r1 < 20.0
        and 12.0 < r2 < 20.0
        and 1.9e-8 < errs[0.05] < 2.1e-8
        and time.perf_counter() - t0 < 1.0
    )
    record(3, ok, f"ratios {r1:.2f}, {r2:.2f}; error at h=0.05 {errs[0.05]:.3e}")


def test_criterion_04_evaluation_count():
    cfg = OdeConfig()
    calls = []

    def f(x, t):
        calls.append(t)
        return -x

    _, log = rk4_solve(f, 1.0, cfg)
    ok = cfg.n_steps == 20 and log.n_steps == 20 and log.n_evals == 80 and len(calls) == 80
    record(4, ok, f"{log.n_steps} steps, {len(calls)} evaluations")


def test_criterion_05_adjoint_gradients_match_finite_differences():
    t0 = time.perf_counter()
    grid = VolumeGrid(shape=(8, 8), voxel_size=1.0)
    geom = make_fan_geometry(8, 11, 30.0, 20.0, detector_pixel_size=1.5)
    truth = make_phantom(PhantomSpec(kind="disk_set", size=(8, 8), seed=0))
    p = simulate_measurement(truth, geom, NoiseModel(kind="gaussian", sigma=0.01), seed=5)
    target = make_phantom(PhantomSpec(kind="disk_set", size=(8, 8), seed=1))
    mask = fov_mask(grid, geom)
    cfg = OdeConfig()
    gamma = 0.02

    # single 3x3 conv plus the output projection; small enough to check
    # every parameter entry
    arch = NetArch(n_levels=1, base_channels=1)
    theta = init_params(arch, seed=3).flatten()
    theta[-1] = 0.05  # unzero the projection so the network branch is active

    def loss_of(flat, g):
        dyn = NodeDynamics(p, grid, NetParams.from_flat(arch, flat), g, cfg)
        x_t, _ = rk4_solve(dyn, initial_volume(p, grid, window="hann"), cfg)
        return l1_fov_loss(x_t, target, mask)

    dyn = NodeDynamics(p, grid, NetParams.from_flat(arch, theta), gamma, cfg)
    x_t, _ = rk4_solve(dyn, initial_volume(p, grid, window="hann"), cfg)
    cotangent = np.sign(x_t.values - target.values) * mask.values / mask.values.sum()
    res = adjoint_backward(dyn, x_t, Volume(grid, cotangent), cfg)
    g_theta = res.grad_params.flatten()

    h = 1e-6
    worst_theta = 0.0
    for i in range(theta.size):
        step = np.zeros(theta.size)
        step[i] = h
        fd = (loss_of(theta + step, gamma) - loss_of(theta - step, gamma)) / (2 * h)
        scale = max(abs(fd), abs(g_theta[i]), 1e-12)
        worst_theta = max(worst_theta, abs(fd - g_theta[i]) / scale)
    fd_gamma = (loss_of(theta, gamma + h) - loss_of(theta, gamma - h)) / (2 * h)
    rel_gamma = abs(fd_gamma - res.grad_gamma) / max(abs(fd_gamma), abs(res.grad_gamma))

    elapsed = time.perf_counter() - t0
    ok = worst_theta < 1e-3 and rel_gamma < 1e-4 and elapsed < 120.0
    record(5, ok, f"worst theta {worst_theta:.2e}, gamma {rel_gamma:.2e}, {elapsed:.1f}s")


def test_criterion_06_memory_independent_of_step_count():
    grid = VolumeGrid(shape=(8, 8), voxel_size=1.0)
    geom = make_fan_geometry(8, 11, 30.0, 20.0, detector_pixel_size=1.5)
    truth = make_phantom(PhantomSpec(kind="disk_set", size=(8, 8), seed=0))
    p = simulate_measurement(truth, geom, NoiseModel(kind="none"))
    params = init_params(NetArch(n_levels=1, base_channels=2), seed=1)

    peaks = {}
    for n_steps, cfg in ((20, OdeConfig()), (200, OdeConfig(step_size=0.005))):
        dyn = NodeDynamics(p, grid, params, 0.01, cfg)
        fw = AllocationProbe()
        x_t, _ = rk4_solve(dyn, initial_volume(p, grid), cfg, probe=fw)
        bw = AllocationProbe()
        adjoint_backward(dyn, x_t, Volume(grid, np.ones(grid.shape)), cfg, probe=bw)
        peaks[n_steps] = (fw.peak, bw.peak)
    record(6, peaks[20] == peaks[200],
           f"peak buffers forward/backward {peaks[20]} at 20 steps, {peaks[200]} at 200")


def test_criterion_07_zero_init_identity():
    fan_grid = VolumeGrid(shape=(64, 64), voxel_size=1.0)
    fan = make_fan_geometry(60, 95, 150.0, 150.0, detector_pixel_size=1.5)
    truth2 = make_phantom(PhantomSpec(kind="disk_set", size=(64, 64), seed=3))
    p2 = simulate_measurement(truth2, fan, NoiseModel(kind="gaussian", sigma=0.02), seed=9)

    cone_grid = VolumeGrid(shape=(16, 16, 16), voxel_size=1.0)
    cone = make_cone_geometry(12, 31, 31, 60.0, 60.0, 2.0)
    truth3 = make_phantom(PhantomSpec(kind="nested_shells_3d", size=(16, 16, 16), seed=2))
    p3 = simulate_measurement(truth3, cone, NoiseModel(kind="none"))

    node2 = reconstruct_node(
        p2, fan_grid, init_params(NetArch(), seed=0), 0.0, OdeConfig(), window="hann"
    )
    node3 = reconstruct_node(
        p3, cone_grid, init_params(NetArch(dims=3), seed=0), 0.0, OdeConfig(), window="ram-lak"
    )
    same2 = np.array_equal(node2.values, fbp_fan(p2, fan_grid, window="hann").values)
    same3 = np.array_equal(node3.values, fdk_cone(p3, cone_grid, window="ram-lak").values)
    record(7, same2 and same3, "fan and cone outputs bitwise equal to the initializer")


def test_criterion_08_baseline_sanity(tmp_path):
    t0 = time.perf_counter()
    grid = VolumeGrid(shape=(64, 64), voxel_size=1.0)
    geom = make_fan_geometry(60, 95, 150.0, 150.0, detector_pixel_size=1.5)
    truth = make_phantom(PhantomSpec(kind="disk_set", size=(64, 64), seed=4))
    p = forward_project(truth, geom)

    x_sirt = sirt(p, grid, IterConfig(n_iters=200, nonneg=True),
                  log_path=tmp_path / "sirt.csv", reference=truth)
    with open(tmp_path / "sirt.csv") as fh:
        data_terms = np.array([float(r["data_term"]) for r in csv.DictReader(fh)])

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the default step must satisfy its bound
        tv_reconstruct(p, grid, IterConfig(n_iters=150, tv_weight=1e-4, nonneg=True),
                       log_path=tmp_path / "tv.csv")
    with open(tmp_path / "tv.csv") as fh:
        rows = list(csv.DictReader(fh))
    objective = np.array([float(r["data_term"]) + float(r["tv_term"]) for r in rows])

    rmse_sirt = rmse(x_sirt, truth)
    rmse_fbp = rmse(fbp_fan(p, grid, window="ram-lak"), truth)
    elapsed = time.perf_counter() - t0
    ok = (
        np.all(np.diff(data_terms) <= 0.0)
        and np.all(np.diff(objective) <= 0.0)
        and rmse_sirt < rmse_fbp
        and elapsed < 120.0
    )
    record(8, ok,
           f"sirt rmse {rmse_sirt:.2e} < fbp rmse {rmse_fbp:.2e}, "
           f"both iterations monotone, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_09_learned_method_beats_baselines():
    t0 = time.perf_counter()
    grid = VolumeGrid(shape=(64, 64), voxel_size=1.0)
    sparse = make_fan_geometry(30, 95, 150.0, 150.0, detector_pixel_size=1.5)
    dense = make_fan_geometry(180, 95, 150.0, 150.0, detector_pixel_size=1.5)
    noise = NoiseModel(kind="gaussian", sigma=0.05)

    # 15 phantoms: 10 train, 2 validation, 3 held-out test.  Inputs are
    # noisy 30-view scans; targets are noiseless 180-view reconstructions.
    truths, samples = [], []
    for i in range(15):
        truth = make_phantom(PhantomSpec(kind="disk_set", size=(64, 64), seed=i))
        p = simulate_measurement(truth, sparse, noise, seed=1000 + i)
        target = fbp_fan(forward_project(truth, dense), grid, window="ram-lak")
        truths.append(truth)
        samples.append((p, target))

    ode_cfg = OdeConfig(mu=8.0)
    ck = train(
        samples[:10],
        samples[10:12],
        NetArch(),
        ode_cfg,
        TrainConfig(epochs=40, seed=3, lr_net=1e-3, init_window="hann"),
    )

    mask = fov_mask(grid, sparse)
    ok = True
    details = []
    for i in range(12, 15):
        p, truth = samples[i][0], truths[i]
        x_node = reconstruct_node(p, grid, ck.params, ck.gamma, ode_cfg, window="hann")
        x_fbp = fbp_fan(p, grid, window="hann")
        x_sirt = sirt(p, grid, IterConfig(n_iters=200, nonneg=True))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            x_tv = tv_reconstruct(
                p, grid, IterConfig(n_iters=150, tv_weight=1e-4, nonneg=True, tv_eps=1e-8)
            )
        baselines = (x_fbp, x_sirt, x_tv)
        best_rmse = min(rmse(x, truth, mask) for x in baselines)
        best_ssim = max(ssim(x, truth, mask) for x in baselines)
        node_rmse = rmse(x_node, truth, mask)
        node_ssim = ssim(x_node, truth, mask)
        ok = ok and node_rmse < best_rmse and node_ssim > best_ssim
        details.append(
            f"phantom {i}: rmse {node_rmse:.3e} vs {best_rmse:.3e}, "
            f"ssim {node_ssim:.3f} vs {best_ssim:.3f}"
        )

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1800.0
    record(9, ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_10_metric_self_consistency():
    rng = np.random.default_rng(17)
    a = rng.uniform(0.0, 0.06, (32, 32))
    b = a + rng.normal(0.0, 0.004, (32, 32))
    identity = psnr(a, b, data_range=0.06) == 20.0 * math.log10(0.06 / rmse(a, b))
    perfect = psnr(a, a) == math.inf and ssim(a, a) == 1.0
    hand = abs(rmse(np.array([0.003, 0.005]), np.zeros(2)) - 0.004123105625617661) < 1e-12
    record(10, identity and perfect and hand,
           "psnr formula exact, identical-input limits exact, hand value to 1e-12")


def test_criterion_11_cli_determinism(tmp_path):
    from tomoflow.dataio import save_sinogram, save_volume

    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "phantom": {"kind": "disk_set", "size": [32, 32], "seed": 5},
        "geometry": {
            "kind": "fan", "n_angles": 24, "n_detectors": 63,
            "source_distance": 75.0, "detector_distance": 75.0,
            "detector_pixel_size": 1.5,
        },
        "noise": {"kind": "gaussian", "sigma": 0.002},
        "seed": 7,
    }))

    data = tmp_path / "data"
    data.mkdir()
    geom = make_fan_geometry(6, 11, 30.0, 20.0, detector_pixel_size=1.5)
    for i in range(3):
        truth = make_phantom(PhantomSpec(kind="disk_set", size=(8, 8), seed=i))
        save_volume(data / f"t{i}.ctv", truth)
        save_sinogram(data / f"s{i}.cts", simulate_measurement(truth, geom, NoiseModel(kind="none")))
    train_cfg = data / "train.json"
    train_cfg.write_text(json.dumps({
        "train": [{"sinogram": "s0.cts", "target": "t0.ctv"},
                  {"sinogram": "s1.cts", "target": "t1.ctv"}],
        "val": [{"sinogram": "s2.cts", "target": "t2.ctv"}],
        "arch": {"n_levels": 1, "base_channels": 2},
        "train_cfg": {"epochs": 2, "seed": 3, "lr_net": 1e-3},
    }))

    scan = tmp_path / "scan"
    assert main(["simulate", "--config", str(sim_cfg), "--out", str(scan)]) == 0

    commands = {
        "simulate": ["simulate", "--config", str(sim_cfg)],
        "reconstruct": [
            "reconstruct", "--method", "node", "--untrained",
            "--sinogram", str(scan / "sinogram.cts"),
            "--reference", str(scan / "phantom.ctv"),
            "--grid-shape", "32,32", "--slices", "--no-timings",
        ],
        "train": ["train", "--config", str(train_cfg)],
        "eval": [
            "eval", "--reconstruction", str(scan / "phantom.ctv"),
            "--reference", str(scan / "phantom.ctv"),
            "--sinogram", str(scan / "sinogram.cts"), "--no-timings",
        ],
    }

    mismatches = []
    for name, argv in commands.items():
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}"
            assert main(argv + ["--out", str(out)]) == 0
            outs.append(out)
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        if files_a != files_b:
            mismatches.append(f"{name}: file lists differ")
            continue
        for fname in files_a:
            if (outs[0] / fname).read_bytes() != (outs[1] / fname).read_bytes():
                mismatches.append(f"{name}: {fname}")
    record(11, not mismatches,
           "all four commands bitwise reproducible" if not mismatches
           else "; ".join(mismatches))
