"""Field-of-view masking, the training loss, Adam, and the training loop.

Training minimizes the mean absolute reconstruction error inside the scan
field of view, sample by sample (batch size 1): solve the reconstruction
forward, integrate the adjoint system backward for gradients, take one Adam
step over (theta, gamma) with separate learning rates for the two blocks.
The sample's solve and adjoint run a float64 network.  A validation loss
scores reconstruct_node's solve (float32 network, float64 state), and is inf
when that solve diverges, as when its state leaves the float32 range.
The checkpoint retained is the state with the lowest mean validation loss;
epoch 0 (the untrained state) is eligible.  A fresh run is a resume from
epoch 0: it builds that state's checkpoint (untrained parameters, gamma_init,
zero Adam moments, its mean validation loss) and continues from it the way
a resumed run continues from a saved one.  A resume takes Adam's beta1,
beta2 and eps, like its learning rates, from the running TrainConfig, not
from the one the checkpoint records.  Gradients are clipped at a global norm
of 1.0 as a divergence guard; every clip is logged.  A norm beyond the
float64 range is taken of the gradient over its largest entry (_clip).

The loss history CSV has one row per epoch:
epoch, mean_train_loss, mean_val_loss, gamma, adam_t.  The adam_t column is
the optimizer's step counter, which makes resumed runs auditable (it must
increase across a resume boundary).
"""

from __future__ import annotations

import dataclasses
import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytic import _WINDOWS
from .dataio import (
    read_record,
    read_sidecar,
    record_values,
    sidecar_values,
    write_record,
    write_sidecar,
)
from .errors import ConfigError, DataFormatError, DivergenceError
from .geometry import Geometry, VolumeGrid
from .network import (
    NetArch,
    NetParams,
    init_params,
    load_net_params,
    save_net_params,
)
from .ode import NodeDynamics, OdeConfig, adjoint_backward, initial_volume, rk4_solve
from .ode import reconstruct_node
from .projector import Sinogram, Volume

logger = logging.getLogger(__name__)

OPT_MAGIC = b"CTOP"
# version, Adam step count t, entry count n; the payload is m, v, latest (n each)
OPT_HEADER = "<IQI"
_SIDECAR_FIELDS = (
    "gamma", "epoch", "val_loss", "epochs_completed", "seed", "n_params", "ode", "train"
)


def fov_mask(grid: VolumeGrid, geom) -> Volume:
    """Binary mask of the region every projection covers.

    The scan field of view is the disk (cylinder in 3D, axis = rotation
    axis) around the isocenter subtended by the detector from every source
    position; its radius is additionally capped by the grid so the mask
    never claims voxels the grid does not reach laterally.  A voxel is
    inside when its center distance is strictly below the radius.  Without
    a geometry (geom = None) only the grid cap applies.
    """
    lateral = grid.shape[:2] if grid.ndim == 3 else grid.shape
    r_grid = (min(lateral) - 1) / 2.0 * grid.voxel_size
    if geom is None:
        radius = r_grid
    else:
        if not isinstance(geom, Geometry):
            raise TypeError(f"unsupported geometry type {type(geom).__name__}")
        width = geom.detector_shape[-1] * geom.detector_pixel_size
        half_fan = math.atan2(width / 2.0, geom.source_distance + geom.detector_distance)
        r_geom = geom.source_distance * math.sin(half_fan)
        radius = min(r_geom, r_grid)

    xs = grid.axis_centers(0)
    ys = grid.axis_centers(1)
    rr = np.sqrt(xs[:, None] ** 2 + ys[None, :] ** 2)
    mask2d = (rr < radius).astype(np.float64)
    if grid.ndim == 3:
        values = np.broadcast_to(mask2d[:, :, None], grid.shape).copy()
    else:
        values = mask2d
    return Volume(grid, values)


def l1_fov_loss(pred: Volume, target: Volume, mask: Volume) -> float:
    """Mean absolute difference over masked voxels."""
    pv = pred.values
    tv = target.values
    mv = mask.values if isinstance(mask, Volume) else np.asarray(mask, dtype=np.float64)
    if pv.shape != tv.shape or pv.shape != mv.shape:
        raise ValueError(
            f"shape mismatch: pred {pv.shape}, target {tv.shape}, mask {mv.shape}"
        )
    total = mv.sum()
    if total == 0:
        raise ValueError("mask selects no voxels")
    return float(np.sum(mv * np.abs(pv - tv)) / total)


def _l1_fov_grad(pred: np.ndarray, target: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return np.sign(pred - target) * mask / mask.sum()


@dataclass
class AdamState:
    """First/second moment estimates plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int):
        return cls(np.zeros(n), np.zeros(n), 0)


def adam_step(params_flat: np.ndarray, grads_flat: np.ndarray, state: AdamState, lrs, cfg):
    """One bias-corrected Adam update with cfg's beta1, beta2 and eps; lrs may
    be a scalar or per-entry vector."""
    if params_flat.shape != grads_flat.shape:
        raise ValueError(
            f"params/grads length mismatch: {params_flat.shape} vs {grads_flat.shape}"
        )
    t = state.t + 1
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * grads_flat
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * grads_flat**2
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    updated = params_flat - np.asarray(lrs) * m_hat / (np.sqrt(v_hat) + cfg.eps)
    return updated, AdamState(m, v, t)


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; the two learning rates follow the two blocks."""

    epochs: int = 30
    lr_net: float = 1e-4
    lr_gamma: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    gamma_init: float = 0.01
    clip_norm: float = 1.0
    init_window: str = "ram-lak"

    def __post_init__(self):
        for name in ("epochs", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(name, f"must be an integer, got {value!r}")
        if self.epochs < 1:
            raise ConfigError("epochs", f"must be >= 1, got {self.epochs}")
        for name in ("lr_net", "lr_gamma", "eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(name, f"must be finite and > 0, got {value}")
        if not (math.isfinite(self.gamma_init) and self.gamma_init >= 0):
            raise ConfigError("gamma_init", f"must be finite and >= 0, got {self.gamma_init}")
        if self.init_window not in _WINDOWS:
            raise ConfigError("init_window", f"must be one of {_WINDOWS}, got {self.init_window!r}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(name, f"must be in [0, 1), got {getattr(self, name)}")
        if self.clip_norm is None or not (math.isfinite(self.clip_norm) and self.clip_norm > 0):
            raise ConfigError("clip_norm", f"must be finite and > 0, got {self.clip_norm}")


@dataclass
class Checkpoint:
    """Best-so-far model plus the latest optimizer state for resuming."""

    params: NetParams
    gamma: float
    epoch: int
    val_loss: float
    epochs_completed: int
    seed: int
    ode_cfg: OdeConfig
    train_cfg: TrainConfig
    adam: AdamState | None = None
    latest_flat: np.ndarray | None = None


def save_checkpoint(ck: Checkpoint, path) -> None:
    """Write the params binary, a JSON sidecar, and the optimizer state."""
    path = str(path)
    save_net_params(path, ck.params)
    sidecar = {
        "gamma": ck.gamma,
        "epoch": ck.epoch,
        "val_loss": ck.val_loss,
        "epochs_completed": ck.epochs_completed,
        "seed": ck.seed,
        "n_params": ck.params.n_params,
        "ode": dataclasses.asdict(ck.ode_cfg),
        "train": dataclasses.asdict(ck.train_cfg),
    }
    write_sidecar(path, sidecar)
    if ck.adam is not None and ck.latest_flat is not None:
        write_record(
            path + ".opt.bin",
            OPT_MAGIC,
            OPT_HEADER,
            (ck.adam.t, ck.latest_flat.size),
            np.concatenate([ck.adam.m, ck.adam.v, ck.latest_flat]),
            "<f8",
        )
    else:
        # an older file left here would pair this model with its Adam state
        Path(path + ".opt.bin").unlink(missing_ok=True)


def load_checkpoint(path) -> Checkpoint:
    path = str(path)
    params = load_net_params(path)
    sidecar = read_sidecar(path, _SIDECAR_FIELDS)
    if sidecar["n_params"] != params.n_params:
        raise DataFormatError(
            f"{path}: sidecar n_params {sidecar['n_params']!r} disagrees with the "
            f"{params.n_params} parameters in the file"
        )
    train_fields = sidecar["train"]
    # sidecars written while TrainConfig had a batch_size field record it as 1
    if isinstance(train_fields, dict) and train_fields.get("batch_size") == 1:
        del train_fields["batch_size"]
    with sidecar_values(path):
        ode_cfg = OdeConfig(**sidecar["ode"])
        train_cfg = TrainConfig(**train_fields)
        gamma = float(sidecar["gamma"])
        epoch = int(sidecar["epoch"])
        val_loss = float(sidecar["val_loss"])
        epochs_completed = int(sidecar["epochs_completed"])
        seed = int(sidecar["seed"])
    adam = None
    latest = None
    opt_path = path + ".opt.bin"
    if os.path.exists(opt_path):
        (t, n), payload = read_record(opt_path, OPT_MAGIC, OPT_HEADER)
        if n != params.n_params + 1:
            raise DataFormatError(
                f"{opt_path}: holds {n} entries, the model needs n_params + 1 = "
                f"{params.n_params + 1}"
            )
        m, v, latest = record_values(opt_path, payload, (3, n), "<f8")
        adam = AdamState(m, v, int(t))
    return Checkpoint(
        params=params,
        gamma=gamma,
        epoch=epoch,
        val_loss=val_loss,
        epochs_completed=epochs_completed,
        seed=seed,
        ode_cfg=ode_cfg,
        train_cfg=train_cfg,
        adam=adam,
        latest_flat=latest,
    )


def _check_dataset(name: str, samples) -> None:
    if not samples:
        raise ConfigError(name, "dataset is empty")
    for p, target in samples:
        if not isinstance(p, Sinogram) or not isinstance(target, Volume):
            raise ConfigError(name, "samples must be (Sinogram, Volume) pairs")


def _sample_loss_and_grads(p, target, params, gamma, ode_cfg, window, mask):
    # adjoint_backward needs the forward solve's float64 NodeDynamics
    dyn = NodeDynamics(p, target.grid, params, gamma, ode_cfg)
    x0 = initial_volume(p, target.grid, window)
    x_T, _ = rk4_solve(dyn, x0, ode_cfg)
    loss = l1_fov_loss(x_T, target, mask)
    dL = _l1_fov_grad(x_T.values, target.values, mask.values)
    res = adjoint_backward(dyn, x_T, Volume(target.grid, dL), ode_cfg)
    return loss, res.grad_params.flatten(), res.grad_gamma


def _val_loss(p, target, params, gamma, ode_cfg, window, mask):
    try:
        x_T = reconstruct_node(p, target.grid, params, gamma, ode_cfg, window)
    except DivergenceError:
        return math.inf
    return l1_fov_loss(x_T, target, mask)


def _clip(grads: np.ndarray, clip_norm: float) -> tuple[np.ndarray, float]:
    """(grads scaled to a 2-norm of at most clip_norm, their 2-norm before).

    The norm is taken directly wherever that is finite.  Finite entries above
    about 1e154 overflow their sum of squares; their norm is taken of
    grads / max|g| and scaled back, so that they are clipped, not zeroed by
    clip_norm / inf."""
    with np.errstate(over="ignore"):
        gnorm = float(np.linalg.norm(grads))
    scale = 1.0
    if math.isinf(gnorm) and np.isfinite(grads).all():
        scale = float(np.abs(grads).max())
        gnorm = float(np.linalg.norm(grads / scale))
    if scale * gnorm > clip_norm:
        return grads / scale * (clip_norm / gnorm), scale * gnorm
    return grads, scale * gnorm


def _record_epoch(history_path, epoch, train_loss, val_loss, gamma, adam_t):
    """Log one epoch and append its history row, after the header in a new file."""
    if train_loss is None:
        logger.info("epoch %d: val %.6e gamma %.6g", epoch, val_loss, gamma)
    else:
        logger.info(
            "epoch %d: train %.6e val %.6e gamma %.6g", epoch, train_loss, val_loss, gamma
        )
    if history_path is None:
        return
    train_str = "" if train_loss is None else repr(float(train_loss))
    with open(history_path, "a", newline="") as fh:
        if fh.tell() == 0:
            fh.write("epoch,mean_train_loss,mean_val_loss,gamma,adam_t\n")
        fh.write(f"{epoch},{train_str},{float(val_loss)!r},{float(gamma)!r},{adam_t}\n")


def train(
    train_set,
    val_set,
    arch: NetArch,
    ode_cfg: OdeConfig,
    cfg: TrainConfig,
    history_path=None,
    resume_from: Checkpoint | None = None,
) -> Checkpoint:
    """Run the training loop and return the lowest-validation checkpoint.

    A fresh run (no resume_from) starts a new history and builds the epoch-0
    checkpoint, the untrained model at gamma_init with zero Adam moments,
    then resumes from it.  A resumed run appends to the history.

    Divergent training solves are retried once with the data-consistency
    weight halved for that sample; a second failure skips the sample.  An
    epoch where more than 20% of samples diverge aborts the run.
    """
    _check_dataset("train_set", train_set)
    _check_dataset("val_set", val_set)

    masks_train = [fov_mask(t.grid, p.geom) for p, t in train_set]
    masks_val = [fov_mask(t.grid, p.geom) for p, t in val_set]

    def mean_val(params, gamma):
        return float(np.mean([
            _val_loss(p, t, params, gamma, ode_cfg, cfg.init_window, m)
            for (p, t), m in zip(val_set, masks_val)
        ]))

    if resume_from is None:
        if history_path is not None:
            open(history_path, "w").close()
        params = init_params(arch, seed=cfg.seed)
        z = np.concatenate([params.flatten(), [cfg.gamma_init]])
        resume_from = Checkpoint(
            params=params,
            gamma=cfg.gamma_init,
            epoch=0,
            val_loss=mean_val(params, cfg.gamma_init),
            epochs_completed=0,
            seed=cfg.seed,
            ode_cfg=ode_cfg,
            train_cfg=cfg,
            adam=AdamState.zeros(z.size),
            latest_flat=z,
        )
        _record_epoch(history_path, 0, None, resume_from.val_loss, cfg.gamma_init, 0)
    if resume_from.adam is None or resume_from.latest_flat is None:
        raise ConfigError("resume", "checkpoint has no optimizer state to resume from")

    best = resume_from
    z = resume_from.latest_flat.copy()
    params = NetParams.from_flat(arch, z[:-1])
    gamma = float(z[-1])
    adam = resume_from.adam
    start_epoch = resume_from.epochs_completed + 1
    lr_vec = np.full(z.size, cfg.lr_net)
    lr_vec[-1] = cfg.lr_gamma

    max_diverged = 0.2 * len(train_set)
    for epoch in range(start_epoch, start_epoch + cfg.epochs):
        order = np.random.default_rng((cfg.seed, epoch)).permutation(len(train_set))
        train_losses = []
        n_diverged = 0
        for idx in order:
            p, target = train_set[idx]
            for retry, g in enumerate((gamma, gamma / 2.0)):
                try:
                    loss, g_theta, g_gamma = _sample_loss_and_grads(
                        p, target, params, g, ode_cfg, cfg.init_window, masks_train[idx]
                    )
                    break
                except DivergenceError as exc:
                    if not retry:
                        logger.warning(
                            "epoch %d sample %d diverged (%s); retrying at gamma/2",
                            epoch,
                            idx,
                            exc,
                        )
                        continue
                    n_diverged += 1
                    logger.warning(
                        "epoch %d sample %d diverged again (%s); skipped", epoch, idx, exc
                    )
                    if n_diverged > max_diverged:
                        raise DivergenceError(
                            epoch,
                            math.inf,
                            f"training aborted: {n_diverged} of "
                            f"{len(train_set)} samples diverged in epoch {epoch}",
                        ) from exc
            else:
                continue
            grads, gnorm = _clip(np.concatenate([g_theta, [g_gamma]]), cfg.clip_norm)
            if gnorm > cfg.clip_norm:
                logger.info(
                    "epoch %d sample %d: gradient norm %.3g clipped to %.3g",
                    epoch,
                    idx,
                    gnorm,
                    cfg.clip_norm,
                )
            z, adam = adam_step(z, grads, adam, lr_vec, cfg)
            params = NetParams.from_flat(arch, z[:-1])
            gamma = float(z[-1])
            train_losses.append(loss)

        mean_train = float(np.mean(train_losses)) if train_losses else math.inf
        val = mean_val(params, gamma)
        _record_epoch(history_path, epoch, mean_train, val, gamma, adam.t)
        if val < best.val_loss:
            best = dataclasses.replace(best, params=params, gamma=gamma, epoch=epoch, val_loss=val)

    return dataclasses.replace(
        best,
        epochs_completed=start_epoch + cfg.epochs - 1,
        seed=cfg.seed,
        ode_cfg=ode_cfg,
        train_cfg=cfg,
        adam=adam,
        latest_flat=z.copy(),
    )
