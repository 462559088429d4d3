"""Analytic reconstruction: fan-beam FBP and cone-beam FDK through one backprojection.

The ramp filter is defined by the exact discrete spatial-domain taps of the
band-limited ramp (Ram-Lak),

    h[0] = 1 / (4 dx^2),   h[k] = 0 for even k,   h[k] = -1 / (pi^2 k^2 dx^2)
    for odd k,

applied via an FFT whose length is the next power of two >= 2x the row length
so the circular convolution never wraps.  Defining the filter in the spatial
domain (rather than as a |w| frequency ramp) keeps the DC response of the
sampled kernel, which shrinks like 1/n but is not zero; tests pin the measured
values.

FBP and FDK are one filtered backprojection, with a fan scan as a detector of
one row at v = 0: detector coordinates are rescaled onto a virtual detector
through the isocenter (factor D / (D + D_od)), rows are cosine-weighted by
D / sqrt(D^2 + s^2 + v^2), ramp-filtered along the detector row, and
backprojected with the fan-beam magnification weight 1/U^2 where
U = (D - x . beta_hat) / D.  The closing 0.5 accounts for every line being
measured twice over a full turn.  Interpolation is separable: columns first,
giving every row at each (x, y), then on a 3D grid those rows at each z.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidGeometryError
from .geometry import ConeGeometry, FanGeometry, VolumeGrid
from .projector import Sinogram, Volume, _linear_taps

_WINDOWS = ("ram-lak", "hann")


def _fft_length(n: int) -> int:
    length = 1
    while length < 2 * n:
        length *= 2
    return length


def _ramp_transfer(length: int, pixel_size: float, window: str) -> np.ndarray:
    """Real transfer function of the discrete ramp kernel at FFT length."""
    idx = np.arange(length)
    lag = ((idx + length // 2) % length) - length // 2
    taps = np.zeros(length)
    taps[lag == 0] = 1.0 / (4.0 * pixel_size**2)
    odd = np.abs(lag) % 2 == 1
    taps[odd] = -1.0 / (np.pi**2 * lag[odd].astype(np.float64) ** 2 * pixel_size**2)
    # taps are circularly even (length is a power of two, so the lag -L/2
    # entry is even and zero), hence the spectrum is real
    transfer = np.fft.rfft(taps).real
    if window == "hann":
        transfer = transfer * (0.5 * (1.0 + np.cos(2.0 * np.pi * np.fft.rfftfreq(length))))
    return transfer


def ramp_filter(row: np.ndarray, pixel_size: float, window: str = "ram-lak") -> np.ndarray:
    """Convolve detector data with the discrete ramp kernel along the last axis.

    Parameters
    ----------
    row : ndarray
        Detector signal; filtering applies along the last axis, leading axes
        are treated as a batch.
    pixel_size : float
        Detector sample spacing in mm.
    window : {"ram-lak", "hann"}
        Optional Hann apodization of the ramp's transfer function.

    Returns
    -------
    ndarray of the same shape.  Linear and shift-invariant.
    """
    if window not in _WINDOWS:
        raise ValueError(f"window must be one of {_WINDOWS}, got {window!r}")
    if not pixel_size > 0:
        raise ValueError(f"pixel_size must be > 0, got {pixel_size}")
    row = np.asarray(row, dtype=np.float64)
    if not np.all(np.isfinite(row)):
        raise ValueError("detector data contains non-finite values")
    n = row.shape[-1]
    length = _fft_length(n)
    transfer = _ramp_transfer(length, pixel_size, window)
    pad = [(0, 0)] * (row.ndim - 1) + [(0, length - n)]
    padded = np.pad(row, pad)
    out = np.fft.irfft(np.fft.rfft(padded, axis=-1) * transfer, n=length, axis=-1)
    return out[..., :n]


def _filtered_projections(p: Sinogram, window: str):
    """Cosine pre-weighting and row filtering shared by FBP and FDK.

    Returns (q, s0, v0, ds) with q the filtered data sampled on the virtual
    detector through the isocenter, laid out (angle, column, row).
    """
    geom = p.geom
    d_src = geom.source_distance
    rescale = d_src / (d_src + geom.detector_distance)
    ds = geom.detector_pixel_size * rescale
    s = geom.detector_u_offsets() * rescale
    v = geom.detector_v_offsets() * rescale
    weight = d_src / np.sqrt(d_src**2 + s[None] ** 2 + v[:, None] ** 2)
    rows = p.values.reshape(geom.n_angles, len(v), len(s))
    q = ramp_filter(rows * weight, ds, window) * (ds * 0.5)
    return np.ascontiguousarray(q.swapaxes(1, 2)), s[0], v[0], ds


def _lateral_coords(grid: VolumeGrid, angle: float, d_src: float):
    """Magnification U and virtual-detector coordinate s' for every (x, y)."""
    xs = grid.axis_centers(0)[:, None]
    ys = grid.axis_centers(1)[None, :]
    cos_b, sin_b = np.cos(angle), np.sin(angle)
    r_par = xs * cos_b + ys * sin_b
    r_perp = -xs * sin_b + ys * cos_b
    mag = (d_src - r_par) / d_src
    valid = mag > 1e-9
    safe = np.where(valid, mag, 1.0)
    s_virtual = r_perp / safe
    return safe, valid, s_virtual


def _backproject(p: Sinogram, grid: VolumeGrid, window: str) -> Volume:
    """Filtered backprojection of a fan scan onto a 2D grid or a cone scan onto a 3D one."""
    geom = p.geom
    if grid.ndim != geom.ndim:
        raise InvalidGeometryError(f"a {geom.ndim}D scan needs a {geom.ndim}D grid, got {grid.ndim}D")
    q, s0, v0, ds = _filtered_projections(p, window)
    n_cols, n_rows = q.shape[1:]
    acc = np.zeros(grid.shape).reshape(*grid.shape[:2], -1)
    for i, angle in enumerate(geom.angles):
        mag, valid, s_virtual = _lateral_coords(grid, float(angle), geom.source_distance)
        j0, w0, j1, w1 = _linear_taps((s_virtual - s0) / ds, n_cols, valid)
        mag = mag[..., None]
        # every detector row at each (x, y): (nx, ny, rows)
        val = q[i].take(j0, 0) * w0[..., None] + q[i].take(j1, 0) * w1[..., None]
        if grid.ndim == 3:
            zs = grid.axis_centers(2) - geom.trajectory_height
            r0, w0, r1, w1 = _linear_taps((zs / mag - v0) / ds, n_rows)
            val = np.take_along_axis(val, r0, 2) * w0 + np.take_along_axis(val, r1, 2) * w1
        acc += val / mag**2
    return Volume(grid, acc.reshape(grid.shape) * geom.angular_increment)


def fbp_fan(p: Sinogram, grid: VolumeGrid, window: str = "ram-lak") -> Volume:
    """Fan-beam filtered backprojection onto a 2D grid."""
    if not isinstance(p.geom, FanGeometry):
        raise InvalidGeometryError("fbp needs fan-beam data; use fdk for cone-beam")
    return _backproject(p, grid, window)


def fdk_cone(p: Sinogram, grid: VolumeGrid, window: str = "ram-lak") -> Volume:
    """FDK cone-beam reconstruction onto a 3D grid.

    Exact in the source midplane for midplane objects; off-plane slices show
    the usual cone-beam artifacts, increasingly so with distance from the
    trajectory plane.
    """
    if not isinstance(p.geom, ConeGeometry):
        raise InvalidGeometryError("fdk needs cone-beam data; use fbp for fan-beam")
    return _backproject(p, grid, window)
