"""Reconstruction quality metrics, evaluated inside an optional mask.

Conventions: the second argument is the reference; data_range defaults to
the reference maximum.  SSIM uses the standard 11-tap Gaussian window with
sigma 1.5 (separable, reflect boundary) and constants C1 = (0.01 L)^2,
C2 = (0.03 L)^2; the reported value is the mean of the local SSIM map over
window centers inside the mask.
"""

from __future__ import annotations

import math

import numpy as np

from .projector import Volume

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5


def _values(v) -> np.ndarray:
    return v.values if isinstance(v, Volume) else np.asarray(v, dtype=np.float64)


def _mask_array(mask, shape) -> np.ndarray:
    if mask is None:
        return np.ones(shape, dtype=bool)
    m = _values(mask).astype(bool)
    if m.shape != shape:
        raise ValueError(f"mask shape {m.shape} does not match volume shape {shape}")
    if not m.any():
        raise ValueError("mask selects no voxels")
    return m


def rmse(a, b, mask=None) -> float:
    """Root mean squared difference over masked voxels."""
    av, bv = _values(a), _values(b)
    if av.shape != bv.shape:
        raise ValueError(f"shape mismatch: {av.shape} vs {bv.shape}")
    m = _mask_array(mask, av.shape)
    diff = av[m] - bv[m]
    return float(np.sqrt(np.mean(diff * diff)))


def psnr(a, b, mask=None, data_range=None) -> float:
    """20 log10(data_range / rmse); infinity when the volumes match."""
    err = rmse(a, b, mask)
    rng = float(np.max(_values(b))) if data_range is None else float(data_range)
    if not rng > 0:
        raise ValueError(f"data_range must be > 0, got {rng}")
    if err == 0.0:
        return math.inf
    return 20.0 * math.log10(rng / err)


def _gaussian_taps(width: int, sigma: float) -> np.ndarray:
    half = (width - 1) / 2.0
    x = np.arange(width) - half
    taps = np.exp(-(x**2) / (2.0 * sigma**2))
    return taps / taps.sum()


def _smooth(arr: np.ndarray, taps: np.ndarray) -> np.ndarray:
    # imported here: scipy.ndimage is a tenth of a second of `import tomoflow`
    # and nothing but SSIM uses it
    from scipy.ndimage import correlate1d

    out = arr
    for axis in range(arr.ndim):
        out = correlate1d(out, taps, axis=axis, mode="reflect")
    return out


def ssim(a, b, mask=None, data_range=None) -> float:
    """Mean local structural similarity over window centers in the mask."""
    av, bv = _values(a), _values(b)
    if av.shape != bv.shape:
        raise ValueError(f"shape mismatch: {av.shape} vs {bv.shape}")
    m = _mask_array(mask, av.shape)
    rng = float(np.max(bv)) if data_range is None else float(data_range)
    if not rng > 0:
        raise ValueError(f"data_range must be > 0, got {rng}")
    c1 = (0.01 * rng) ** 2
    c2 = (0.03 * rng) ** 2
    taps = _gaussian_taps(SSIM_WINDOW, SSIM_SIGMA)

    mu_a = _smooth(av, taps)
    mu_b = _smooth(bv, taps)
    mu_aa = _smooth(av * av, taps)
    mu_bb = _smooth(bv * bv, taps)
    mu_ab = _smooth(av * bv, taps)
    var_a = mu_aa - mu_a * mu_a
    var_b = mu_bb - mu_b * mu_b
    cov = mu_ab - mu_a * mu_b

    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    ssim_map = num / den
    return float(np.mean(ssim_map[m]))


def compute_metrics(recon, reference, mask=None, data_range=None) -> dict:
    """The three standard metrics as a JSON-ready dict."""
    return {
        "rmse": rmse(recon, reference, mask),
        "psnr": psnr(recon, reference, mask, data_range),
        "ssim": ssim(recon, reference, mask, data_range),
    }
