"""The three benchmark workloads: inputs made from a seed, one unit of work,
and the correctness gate applied to every unit.

A unit is one scan reconstructed (fan-recon, cone-recon) or one training
epoch followed by a check of the trained model on the held-out scans
(fan-train).  Every call into tomoflow goes through a module attribute
(``classical.sirt``, ``phantoms.make_phantom``, ...) so that the traced run,
which replaces those attributes, sees it.

Each workload also has a short form with every iteration count set to one.
The short form builds every per-(geometry, grid) structure the full unit
builds, so it serves as the cold unit of the set-up measurement, as the
warm-up before timing, and as the quick mode.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from pathlib import Path

import numpy as np

from tomoflow import analytic, classical, ode, phantoms, projector, training
from tomoflow.errors import DivergenceError
from tomoflow.geometry import VolumeGrid, make_cone_geometry, make_fan_geometry, ray_bundle
from tomoflow.metrics import psnr
from tomoflow.network import NetArch, NetParams, init_params

FLOORS = json.loads((Path(__file__).with_name("floors.json")).read_text())

ADJOINT_RTOL = 1e-10
OP_NORM_ITERS = 20  # fixed inside classical.tv_reconstruct
STAGE_REPEATS = 5
# Classic RK4 is stable on the negative real axis up to h * rate = 2.785.
RK4_REAL_LIMIT = 2.785
ANALYTIC = {"fbp": "fbp_fan", "fdk": "fdk_cone"}
# Scale of the seeded perturbation added to the zero-initialised projection
# layer, so that the untrained N_theta is not the zero map.
PROJ_PERTURB = 1e-3

FAN = dict(n_angles=30, n_detectors=95, source_distance=150.0,
           detector_distance=150.0, detector_pixel_size=1.5)
CONE = dict(n_angles=30, detector_rows=24, detector_cols=24,
            source_distance=120.0, detector_distance=120.0,
            detector_pixel_size=3.0)


def _sub_seeds(seed: int, *key: int, n: int = 2) -> list[int]:
    """Independent 32-bit seeds for one unit or sample, derived from the run seed."""
    return [int(s) for s in np.random.SeedSequence([seed, *key]).generate_state(n)]


def _timed(times: dict, key: str, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    times.setdefault(key, []).append(time.perf_counter() - t0)
    return out


def _simulate(times: dict, kind: str, grid, geom, noise, phantom_seed: int, noise_seed: int):
    """Make the phantom and its noisy scan; timed together as one stage."""
    t0 = time.perf_counter()
    truth = phantoms.make_phantom(phantoms.PhantomSpec(kind, grid.shape, seed=phantom_seed))
    p = phantoms.simulate_measurement(truth, geom, noise, seed=noise_seed)
    times.setdefault("simulate", []).append(time.perf_counter() - t0)
    return truth, p


def _perturbed_params(arch: NetArch, seed: int) -> NetParams:
    params = init_params(arch, seed)
    rng = np.random.default_rng(seed)
    params.weights[-1] = PROJ_PERTURB * rng.standard_normal(params.weights[-1].shape)
    return params


def _short_ode(cfg: ode.OdeConfig) -> ode.OdeConfig:
    return ode.OdeConfig(t_end=cfg.step_size, step_size=cfg.step_size,
                         lam=cfg.lam, mu=cfg.mu)


def _adjoint_error(fwd, adj, x: np.ndarray, y: np.ndarray) -> float:
    """Relative mismatch of <Ax, y> and <x, A^T y>."""
    lhs = float(np.ravel(fwd(x)) @ y.ravel())
    rhs = float(x.ravel() @ np.ravel(adj(y)))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def _macs_per_forward(arch: NetArch, shape: tuple[int, ...]) -> int:
    """Multiply-accumulates of one network forward pass on a volume of shape."""
    k = arch.kernel_size ** arch.dims
    voxels = lambda lvl: int(np.prod(shape)) // (2 ** arch.dims) ** lvl
    width = lambda lvl: arch.base_channels * 2 ** lvl
    macs, prev = 0, 1
    for lvl in range(arch.n_levels - 1):
        macs += prev * width(lvl) * k * voxels(lvl)
        prev = width(lvl)
    bottom = arch.n_levels - 1
    macs += prev * width(bottom) * k * voxels(bottom)
    cur = width(bottom)
    for lvl in reversed(range(arch.n_levels - 1)):
        macs += (cur + width(lvl)) * width(lvl) * k * voxels(lvl)
        cur = width(lvl)
    return macs + cur * voxels(0)


class Unit:
    """What one unit produced: stage times (s, one or more samples each),
    quality, failed checks."""

    def __init__(self):
        self.times: dict[str, list[float]] = {}
        self.quality: dict[str, float] = {}
        self.failures: list[str] = []


class Workload:
    """Common parts: the operator check, the floors and the computed sizes."""

    name = ""
    dims = 2
    methods: tuple[str, ...] = ()
    # fan-train's quality changes as training proceeds, so it is taken from
    # the first measured epoch only, which keeps it independent of speed.
    quality_from_first_unit = False

    def __init__(self, seed: int, short: bool):
        self.seed = seed
        self.short = short
        self.arch = NetArch(dims=self.dims)
        self.ode_cfg = ode.OdeConfig(mu=8.0)
        if short:
            self.ode_cfg = _short_ode(self.ode_cfg)
        self._op = None

    # -- correctness gate ------------------------------------------------
    def check(self, k: int, unit: Unit, outputs: dict) -> None:
        """Append to unit.failures every check the unit's outputs fail."""
        rng = np.random.default_rng(_sub_seeds(self.seed, k, 99, n=1)[0])
        grid, geom = self.grid, self.geom
        x = rng.random(grid.shape)
        y = rng.random((geom.n_angles,) + geom.detector_shape)
        if self._op is None:
            self._op = projector.bind(geom, grid)
        err = _adjoint_error(self._op.forward, self._op.adjoint, x, y)
        if not err <= ADJOINT_RTOL:
            unit.failures.append(f"bound adjoint mismatch {err:.3g}")
        err = _adjoint_error(
            lambda v: projector.forward_project(projector.Volume(grid, v), geom).values,
            lambda v: projector.back_project(projector.Sinogram(geom, v), grid).values,
            x, y)
        if not err <= ADJOINT_RTOL:
            unit.failures.append(f"unbound adjoint mismatch {err:.3g}")
        for label, value in outputs.items():
            arr = value.values if hasattr(value, "values") else np.asarray(value)
            if not np.all(np.isfinite(arr)):
                unit.failures.append(f"{label}: non-finite output")
        if self.short:
            return
        floors = FLOORS[self.name]
        for method in self.methods:
            got = unit.quality.get(f"psnr_{method}", -math.inf)
            if not got >= floors[method]:
                unit.failures.append(
                    f"{method}: psnr {got:.2f} dB below floor {floors[method]} dB")

    # -- computed sizes --------------------------------------------------
    def computed(self) -> dict[str, float]:
        """Per-operator sizes computed from the geometry and the architecture.

        taps_per_A counts the interpolation taps of one forward projection by
        Joseph's method (one sample per slice along each ray's driving axis,
        2^(ndim-1) taps each, off-grid taps included).  bytes_per_A is those
        taps at 24 B each (index, weight, gathered value) plus 8 B per ray.
        """
        _, dirs = ray_bundle(self.geom)
        driving = np.argmax(np.abs(dirs), axis=1)
        slices = np.asarray(self.grid.shape)[driving]
        taps = int(slices.sum()) * 2 ** (self.grid.ndim - 1)
        return {
            "projector.taps_per_A": taps,
            "projector.bytes_per_A": 24 * taps + 8 * len(dirs),
            "network.macs_per_fwd": _macs_per_forward(self.arch, self.grid.shape),
        }


class _Recon(Workload):
    """One scan per unit: simulate, then reconstruct with every method.

    The analytic reconstruction, which is cheap, runs STAGE_REPEATS times
    per full unit, so that its median is steady.
    """

    phantom_kind = ""
    noise = None
    tv_cfg = None

    def __init__(self, seed: int, short: bool):
        super().__init__(seed, short)
        self.params = _perturbed_params(self.arch, seed)
        self.gamma = 0.01
        self.mask = training.fov_mask(self.grid, self.geom)

    def unit(self, k: int):
        unit = Unit()
        t = unit.times
        t0 = time.perf_counter()
        truth, p = _simulate(t, self.phantom_kind, self.grid, self.geom, self.noise,
                             *_sub_seeds(self.seed, k))
        analytic_method = self.methods[0]
        for _ in range(1 if self.short else STAGE_REPEATS):
            initial = _timed(t, "analytic", getattr(analytic, ANALYTIC[analytic_method]),
                             p, self.grid, "hann")
        out = {analytic_method: initial,
               "sirt": _timed(t, "sirt", classical.sirt, p, self.grid, self.sirt_cfg)}
        if self.tv_cfg is not None:
            with warnings.catch_warnings():
                # tv_eps = 1e-8 puts the default step far above the smoothed-TV
                # descent bound; tv_reconstruct says so on every call.
                warnings.filterwarnings("ignore", message="TV step size")
                out["tv"] = _timed(t, "tv", classical.tv_reconstruct, p, self.grid,
                                   self.tv_cfg)
        out["node"] = _timed(t, "node", ode.reconstruct_node, p, self.grid, self.params,
                             self.gamma, self.ode_cfg, window="hann")
        t["unit"] = [time.perf_counter() - t0]
        for method, vol in out.items():
            unit.quality[f"psnr_{method}"] = psnr(vol, truth, self.mask)
        return unit, out

    def expected_counts(self) -> dict[str, int]:
        evals = 4 * self.ode_cfg.n_steps
        n_tv = 0 if self.tv_cfg is None else self.tv_cfg.n_iters
        ops = 1 + self.sirt_cfg.n_iters + n_tv + evals
        return {"projector.A.calls": ops, "projector.AT.calls": ops,
                "projector.bind.calls": 2 + (n_tv > 0),
                "projector.unbound.calls": 1 + (2 * OP_NORM_ITERS if n_tv else 0),
                "ode.rhs.calls": evals, "ode.aug.calls": 0,
                "network.fwd.calls": evals, "network.vjp.calls": 0}


class FanRecon(_Recon):
    name = "fan-recon"
    dims = 2
    methods = ("fbp", "sirt", "tv", "node")
    phantom_kind = "disk_set"
    noise = phantoms.NoiseModel("gaussian", sigma=0.05)

    def __init__(self, seed: int, short: bool):
        self.grid = VolumeGrid((64, 64), 1.0)
        self.geom = make_fan_geometry(**FAN)
        self.sirt_cfg = classical.IterConfig(n_iters=1 if short else 200, nonneg=True)
        self.tv_cfg = classical.IterConfig(n_iters=1 if short else 150, tv_weight=1e-4,
                                           tv_eps=1e-8, nonneg=True)
        super().__init__(seed, short)


class ConeRecon(_Recon):
    name = "cone-recon"
    dims = 3
    methods = ("fdk", "sirt", "node")
    phantom_kind = "walnut_like_3d"
    noise = phantoms.NoiseModel("poisson", i0=1e4)

    def __init__(self, seed: int, short: bool):
        self.grid = VolumeGrid((32, 32, 32), 1.0)
        self.geom = make_cone_geometry(**CONE)
        self.sirt_cfg = classical.IterConfig(n_iters=1 if short else 50, nonneg=True)
        super().__init__(seed, short)


class FanTrain(Workload):
    """One epoch per unit, chained through the checkpoint, then a held-out check.

    Inputs are noisy 30-view scans of seeded disk_set phantoms; targets are
    FBP reconstructions of noiseless 180-view scans, made here and not
    timed.  The chain starts from the state train() starts from: the
    untrained model, zero Adam moments, and the untrained model's
    validation loss as the best so far.  After each epoch, every held-out
    test phantom is simulated, reconstructed by FBP and by the checkpoint
    train() returned, and scored against the phantom.
    """

    name = "fan-train"
    dims = 2
    methods = ("node",)
    quality_from_first_unit = True
    n_train, n_val, n_test = 6, 2, 4
    noise = phantoms.NoiseModel("gaussian", sigma=0.05)

    def __init__(self, seed: int, short: bool):
        self.grid = VolumeGrid((64, 64), 1.0)
        self.geom = make_fan_geometry(**FAN)
        super().__init__(seed, short)
        if short:
            self.n_train, self.n_val, self.n_test = 1, 1, 1
        dense = make_fan_geometry(**{**FAN, "n_angles": 180})
        self.mask = training.fov_mask(self.grid, self.geom)
        samples = []
        for i in range(self.n_train + self.n_val):
            truth, p = _simulate({}, "disk_set", self.grid, self.geom, self.noise,
                                 *_sub_seeds(seed, i))
            clean = phantoms.simulate_measurement(truth, dense, phantoms.NoiseModel("none"))
            samples.append((p, analytic.fbp_fan(clean, self.grid, "hann")))
        self.train_set = samples[: self.n_train]
        self.val_set = samples[self.n_train:]
        self.test_seeds = [_sub_seeds(seed, self.n_train + self.n_val + j)
                           for j in range(self.n_test)]
        self.cfg = training.TrainConfig(epochs=1, seed=seed % 2**31, lr_net=1e-3,
                                        init_window="hann")
        params = init_params(self.arch, self.cfg.seed)
        gamma = self.cfg.gamma_init
        val0 = np.mean([training.l1_fov_loss(
            ode.reconstruct_node(p, self.grid, params, gamma, self.ode_cfg,
                                 window=self.cfg.init_window), target, self.mask)
            for p, target in self.val_set])
        z = np.concatenate([params.flatten(), [gamma]])
        self.ck = training.Checkpoint(
            params=params, gamma=gamma, epoch=0, val_loss=float(val0),
            epochs_completed=0, seed=self.cfg.seed, ode_cfg=self.ode_cfg,
            train_cfg=self.cfg, adam=training.AdamState.zeros(z.size), latest_flat=z)
        # ||A||^2 for the report's RK4 stability ratio of the latest gamma
        self.norm_sq = 0.0 if short else projector.op_norm_estimate(
            self.geom, self.grid, OP_NORM_ITERS) ** 2

    def unit(self, k: int):
        unit = Unit()
        t = unit.times
        ck = _timed(t, "unit", training.train, self.train_set, self.val_set, self.arch,
                    self.ode_cfg, self.cfg, resume_from=self.ck)
        self.ck = ck
        out = {"params": ck.params.flatten(), "latest": ck.latest_flat}
        psnrs = []
        for j, seeds in enumerate(self.test_seeds):
            truth, p = _simulate(t, "disk_set", self.grid, self.geom, self.noise, *seeds)
            _timed(t, "analytic", analytic.fbp_fan, p, self.grid, "hann")
            rec = _timed(t, "node", ode.reconstruct_node, p, self.grid, ck.params, ck.gamma,
                         self.ode_cfg, window=self.cfg.init_window)
            out[f"node{j}"] = rec
            psnrs.append(psnr(rec, truth, self.mask))
        gamma_last = float(ck.latest_flat[-1])
        unit.quality.update({
            "psnr_node": float(np.mean(psnrs)),
            "val_loss": ck.val_loss,
            "gamma_last": gamma_last,
            "rk4_stability_ratio": self.ode_cfg.lam * gamma_last * self.norm_sq
            * self.ode_cfg.step_size / RK4_REAL_LIMIT,
        })
        return unit, out

    def expected_counts(self) -> dict[str, int]:
        evals = 4 * self.ode_cfg.n_steps
        solves = self.n_val + self.n_test  # validation in train(), then the test scans
        return {"projector.A.calls": (3 * self.n_train + solves) * evals,
                "projector.AT.calls": (3 * self.n_train + solves) * evals,
                "projector.bind.calls": self.n_train + solves,
                "projector.unbound.calls": self.n_test,
                "ode.rhs.calls": (self.n_train + solves) * evals,
                "ode.aug.calls": self.n_train * evals,
                "network.fwd.calls": (2 * self.n_train + solves) * evals,
                "network.vjp.calls": self.n_train * evals}


WORKLOADS = {w.name: w for w in (FanRecon, FanTrain, ConeRecon)}

__all__ = ["WORKLOADS", "DivergenceError", "Unit"]
