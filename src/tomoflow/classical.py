"""Iterative baseline reconstructions: SIRT and TV-regularized gradient descent.

SIRT runs the row/column-normalized Landweber update

    x_{n+1} = clip_0( x_n + C A^T R (p - A x_n) )

with R = diag(1 / row-sums of A) and C = diag(1 / column-sums of A), the sums
computed by projecting all-ones fields; zero sums are replaced by 1 before
inversion so empty rays and unseen voxels stay inert.

TV reconstruction minimizes  D(x) + mu R(x)  with the data term
D = 0.5 ||Ax - p||^2 and the smoothed isotropic total variation
R(x) = sum_j sqrt(||(grad x)_j||^2 + eps^2)  (forward differences, Neumann
boundary), by plain gradient descent  x_{n+1} = x_n - lam (A^T(Ax_n - p)
+ mu grad R(x_n)).  With mu = 0 and no projection this is exactly Landweber.

Both drivers can append per-iteration CSV logs (iteration, data_term,
tv_term, rmse_vs_reference) when given a log path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import VolumeGrid
from .dataio import _write_csv
from .errors import _count, _real
from .projector import Sinogram, Volume, _values, bind, op_norm_estimate


@dataclass
class IterConfig:
    """Settings for the iterative baselines.

    step_size and tv_eps may be left as None to be resolved at reconstruct
    time: step_size defaults to 1 / ||A||^2 (power-iteration estimate) and
    tv_eps to 1e-6 times the dynamic range of the initializer (absolute 1e-6
    when that range is zero).  nonneg applies to SIRT only, tv_weight and
    tv_eps to TV only.
    """

    n_iters: int = 200
    step_size: float | None = None
    tv_weight: float = 0.0
    nonneg: bool = True
    tv_eps: float | None = None

    def __post_init__(self):
        self.n_iters = _count("n_iters", self.n_iters)
        self.tv_weight = _real("tv_weight", self.tv_weight, ge=0.0)
        for name in ("step_size", "tv_eps"):
            if getattr(self, name) is not None:
                setattr(self, name, _real(name, getattr(self, name), gt=0.0))


class _IterLog:
    """CSV writer for per-iteration diagnostics; no-op when path is None."""

    def __init__(self, path, reference: Volume | np.ndarray | None):
        self._rows = [] if path is not None else None
        self._path = path
        self._ref = None if reference is None else _values(reference)

    def record(self, iteration: int, data_term: float, tv_term: float, x: np.ndarray):
        if self._rows is None:
            return
        if self._ref is not None:
            rmse = float(np.sqrt(np.mean((x - self._ref) ** 2)))
        else:
            rmse = ""
        self._rows.append([iteration, float(data_term), float(tv_term), rmse])

    @property
    def enabled(self) -> bool:
        return self._rows is not None

    def flush(self):
        if self._rows is not None:
            header = ("iteration", "data_term", "tv_term", "rmse_vs_reference")
            _write_csv(self._path, header, self._rows)


def sirt(
    p: Sinogram,
    grid: VolumeGrid,
    cfg: IterConfig,
    x0: Volume | None = None,
    log_path=None,
    reference: Volume | np.ndarray | None = None,
) -> Volume:
    """SIRT reconstruction, optionally with a non-negativity constraint."""
    if not np.all(np.isfinite(p.values)):
        raise ValueError("sinogram contains non-finite values")
    op = bind(p.geom, grid)
    row_sums = op.forward(np.ones(grid.shape))
    row_sums[row_sums == 0.0] = 1.0
    col_sums = op.adjoint(np.ones(op.n_rays))
    col_sums[col_sums == 0.0] = 1.0
    r_inv = 1.0 / row_sums
    c_inv = 1.0 / col_sums

    x = np.zeros(grid.shape) if x0 is None else x0.values.copy()
    p_flat = p.values.reshape(-1)
    log = _IterLog(log_path, reference)
    # log rows hold the data term of iterate n, for n = 0 .. n_iters
    for it in range(cfg.n_iters):
        residual = p_flat - op.forward(x)
        log.record(it, 0.5 * float(residual @ residual), 0.0, x)
        x = x + c_inv * op.adjoint(r_inv * residual)
        if cfg.nonneg:
            np.maximum(x, 0.0, out=x)
    if log.enabled:
        residual = p_flat - op.forward(x)
        log.record(cfg.n_iters, 0.5 * float(residual @ residual), 0.0, x)
    log.flush()
    return Volume(grid, x)


def _tv_terms(values: np.ndarray, eps: float):
    """Forward differences, their Neumann-padded magnitudes, and R(x)."""
    grads = []
    for axis in range(values.ndim):
        g = np.zeros_like(values)
        src = [slice(None)] * values.ndim
        dst = [slice(None)] * values.ndim
        src[axis] = slice(1, None)
        dst[axis] = slice(0, -1)
        g[tuple(dst)] = values[tuple(src)] - values[tuple(dst)]
        grads.append(g)
    phi = np.sqrt(sum(g * g for g in grads) + eps * eps)
    return grads, phi


def tv_value(x: Volume | np.ndarray, eps: float) -> float:
    """Smoothed isotropic total variation R(x)."""
    _, phi = _tv_terms(_values(x), eps)
    return float(np.sum(phi))


def _tv_gradient_array(values: np.ndarray, eps: float) -> np.ndarray:
    """Gradient of the smoothed isotropic TV functional.

    R(x) = sum_j sqrt(sum_axes (x[j+e] - x[j])^2 + eps^2); the gradient is the
    negative discrete divergence of the normalized forward-difference flux.
    """
    grads, phi = _tv_terms(values, eps)
    out = np.zeros_like(values)
    for axis, g in enumerate(grads):
        flux = g / phi
        out -= flux
        src = [slice(None)] * values.ndim
        dst = [slice(None)] * values.ndim
        src[axis] = slice(0, -1)
        dst[axis] = slice(1, None)
        out[tuple(dst)] += flux[tuple(src)]
    return out


def _resolve_eps(cfg: IterConfig, x_init: np.ndarray) -> float:
    if cfg.tv_eps is not None:
        return float(cfg.tv_eps)
    dynamic_range = float(x_init.max() - x_init.min()) if x_init.size else 0.0
    return 1e-6 * dynamic_range if dynamic_range > 0 else 1e-6


def tv_reconstruct(
    p: Sinogram,
    grid: VolumeGrid,
    cfg: IterConfig,
    x0: Volume | None = None,
    log_path=None,
    reference: Volume | np.ndarray | None = None,
) -> Volume:
    """TV-regularized gradient descent reconstruction.

    Warns (without stopping) when the step size exceeds the descent bound
    2 / (||A||^2 + mu L_TV), with L_TV bounded by 4 ndim / eps, the squared
    norm of the discrete gradient operator over the smoothing scale.
    """
    if not np.all(np.isfinite(p.values)):
        raise ValueError("sinogram contains non-finite values")
    op = bind(p.geom, grid)
    x = np.zeros(grid.shape) if x0 is None else x0.values.copy()
    eps = _resolve_eps(cfg, x)
    norm_sq = op_norm_estimate(p.geom, grid, 20) ** 2
    lam = cfg.step_size if cfg.step_size is not None else 1.0 / max(norm_sq, 1e-30)
    lipschitz = norm_sq + cfg.tv_weight * 4.0 * grid.ndim / eps
    if lam >= 2.0 / lipschitz:
        warnings.warn(
            f"TV step size {lam:.3e} exceeds the descent bound "
            f"{2.0 / lipschitz:.3e}; the objective may not decrease",
            stacklevel=2,
        )
    p_flat = p.values.reshape(-1)
    mu = cfg.tv_weight
    log = _IterLog(log_path, reference)
    # log rows hold D + mu R evaluated at iterate n, for n = 0 .. n_iters
    for it in range(cfg.n_iters):
        residual = op.forward(x) - p_flat
        if log.enabled:
            tv_term = mu * tv_value(x, eps) if mu != 0.0 else 0.0
            log.record(it, 0.5 * float(residual @ residual), tv_term, x)
        grad = op.adjoint(residual)
        if mu != 0.0:
            grad += mu * _tv_gradient_array(x, eps)
        x = x - lam * grad
    if log.enabled:
        residual = op.forward(x) - p_flat
        tv_term = mu * tv_value(x, eps) if mu != 0.0 else 0.0
        log.record(cfg.n_iters, 0.5 * float(residual @ residual), tv_term, x)
    log.flush()
    return Volume(grid, x)
