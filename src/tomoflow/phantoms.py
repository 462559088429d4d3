"""Synthetic test objects and measurement simulation.

Phantoms are generated on a normalized coordinate cube: each axis is mapped
to [-1, 1] so shapes are resolution independent.  All generators are pure
functions of their spec (seeded generator, no global RNG state) and paint
values inside the configured range, default 0 to 0.06 per mm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import VolumeGrid
from .projector import Sinogram, Volume, forward_project

PHANTOM_KINDS_2D = ("disk_set", "shepp_logan_2d")
PHANTOM_KINDS_3D = ("nested_shells_3d", "walnut_like_3d")
PHANTOM_KINDS = PHANTOM_KINDS_2D + PHANTOM_KINDS_3D

NOISE_KINDS = ("none", "gaussian", "poisson")

# Standard Shepp-Logan ellipse table: (a, b, x0, y0, angle_deg, intensity).
SHEPP_LOGAN_ELLIPSES = (
    (0.69, 0.92, 0.0, 0.0, 0.0, 2.0),
    (0.6624, 0.8740, 0.0, -0.0184, 0.0, -0.98),
    (0.11, 0.31, 0.22, 0.0, -18.0, -0.02),
    (0.16, 0.41, -0.22, 0.0, 18.0, -0.02),
    (0.21, 0.25, 0.0, 0.35, 0.0, 0.01),
    (0.046, 0.046, 0.0, 0.1, 0.0, 0.01),
    (0.046, 0.046, 0.0, -0.1, 0.0, 0.01),
    (0.046, 0.023, -0.08, -0.605, 0.0, 0.01),
    (0.023, 0.023, 0.0, -0.606, 0.0, 0.01),
    (0.023, 0.046, 0.06, -0.605, 0.0, 0.01),
)


@dataclass(frozen=True)
class PhantomSpec:
    """Recipe for one deterministic phantom."""

    kind: str
    size: tuple
    seed: int = 0
    value_range: tuple = (0.0, 0.06)
    voxel_size: float = 1.0

    def __post_init__(self):
        if self.kind not in PHANTOM_KINDS:
            raise ValueError(
                f"unknown phantom kind {self.kind!r}; expected one of {PHANTOM_KINDS}"
            )
        ndim = 2 if self.kind in PHANTOM_KINDS_2D else 3
        size = tuple(int(n) for n in self.size)
        if len(size) != ndim or any(n < 1 for n in size):
            raise ValueError(f"kind {self.kind!r} needs a {ndim}-d positive size, got {self.size}")
        object.__setattr__(self, "size", size)
        lo, hi = self.value_range
        if not (lo < hi and math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"value_range must be finite and increasing, got {self.value_range}")
        if not (self.voxel_size > 0 and math.isfinite(self.voxel_size)):
            raise ValueError(f"voxel_size must be finite and > 0, got {self.voxel_size}")


def _unit_coords(grid: VolumeGrid):
    """Per-axis voxel-center coordinates mapped to [-1, 1), open mesh."""
    axes = []
    for axis, n in enumerate(grid.shape):
        c = grid.axis_centers(axis) * (2.0 / (n * grid.voxel_size))
        axes.append(c)
    return np.meshgrid(*axes, indexing="ij", sparse=True)


def _shepp_logan(grid: VolumeGrid, lo: float, hi: float) -> np.ndarray:
    xs, ys = _unit_coords(grid)
    out = np.zeros(grid.shape)
    for a, b, x0, y0, deg, val in SHEPP_LOGAN_ELLIPSES:
        phi = math.radians(deg)
        u = np.cos(phi) * (xs - x0) + np.sin(phi) * (ys - y0)
        v = -np.sin(phi) * (xs - x0) + np.cos(phi) * (ys - y0)
        out[(u / a) ** 2 + (v / b) ** 2 <= 1.0] += val
    # table intensities span [0, 2]; map 2 -> hi
    return lo + out * ((hi - lo) / 2.0)


def _disk_set(grid: VolumeGrid, rng, lo: float, hi: float) -> np.ndarray:
    xs, ys = _unit_coords(grid)
    rr = np.sqrt(xs**2 + ys**2)
    span = hi - lo
    out = np.full(grid.shape, lo)
    hull = rr < 0.88
    out[hull] = lo + span * rng.uniform(0.3, 0.5)
    for _ in range(int(rng.integers(4, 9))):
        cx, cy = rng.uniform(-0.55, 0.55, size=2)
        radius = rng.uniform(0.08, 0.3)
        value = lo + span * rng.uniform(0.0, 1.0)
        inside = hull & ((xs - cx) ** 2 + (ys - cy) ** 2 < radius**2)
        out[inside] = value
    return out


def _nested_shells(grid: VolumeGrid, rng, lo: float, hi: float) -> np.ndarray:
    xs, ys, zs = _unit_coords(grid)
    span = hi - lo
    out = np.full(grid.shape, lo)
    n_shells = int(rng.integers(3, 6))
    radii = np.sort(rng.uniform(0.15, 0.85, size=n_shells))[::-1]
    cx, cy, cz = rng.uniform(-0.05, 0.05, size=3)
    rr = np.sqrt((xs - cx) ** 2 + (ys - cy) ** 2 + (zs - cz) ** 2)
    for i, radius in enumerate(radii):
        frac = rng.uniform(0.55, 1.0) if i % 2 == 0 else rng.uniform(0.05, 0.4)
        out[rr < radius] = lo + span * frac
    return out


def _ellipsoid_mask(xs, ys, zs, center, semi):
    cx, cy, cz = center
    ax, ay, az = semi
    return ((xs - cx) / ax) ** 2 + ((ys - cy) / ay) ** 2 + ((zs - cz) / az) ** 2 < 1.0


def _walnut_like(grid: VolumeGrid, rng, lo: float, hi: float) -> np.ndarray:
    xs, ys, zs = _unit_coords(grid)
    span = hi - lo
    out = np.full(grid.shape, lo)
    # hard hull with a softer interior
    semi = rng.uniform(0.7, 0.88, size=3)
    outer = _ellipsoid_mask(xs, ys, zs, (0.0, 0.0, 0.0), semi)
    inner = _ellipsoid_mask(xs, ys, zs, (0.0, 0.0, 0.0), semi * 0.86)
    out[outer] = lo + span * rng.uniform(0.85, 1.0)
    out[inner] = lo + span * rng.uniform(0.25, 0.45)
    # interior lobes
    for _ in range(int(rng.integers(4, 9))):
        center = rng.uniform(-0.4, 0.4, size=3)
        lobe_semi = rng.uniform(0.08, 0.3, size=3)
        lobe = inner & _ellipsoid_mask(xs, ys, zs, center, lobe_semi)
        out[lobe] = lo + span * rng.uniform(0.4, 0.9)
    # air gap slicing through the interior
    normal = rng.normal(size=3)
    normal /= np.linalg.norm(normal)
    offset = rng.uniform(-0.15, 0.15)
    width = rng.uniform(0.02, 0.06)
    plane = xs * normal[0] + ys * normal[1] + zs * normal[2] - offset
    out[inner & (np.abs(plane) < width)] = lo
    return out


def make_phantom(spec: PhantomSpec) -> Volume:
    """Generate the phantom described by spec on its own grid."""
    grid = VolumeGrid(spec.size, spec.voxel_size)
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.value_range
    if spec.kind == "shepp_logan_2d":
        values = _shepp_logan(grid, lo, hi)
    elif spec.kind == "disk_set":
        values = _disk_set(grid, rng, lo, hi)
    elif spec.kind == "nested_shells_3d":
        values = _nested_shells(grid, rng, lo, hi)
    else:
        values = _walnut_like(grid, rng, lo, hi)
    return Volume(grid, values)


@dataclass(frozen=True)
class NoiseModel:
    """Measurement noise: none, additive gaussian, or poisson counting."""

    kind: str = "none"
    sigma: float = 0.0
    i0: float = 1e5

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected one of {NOISE_KINDS}")
        if not (self.sigma >= 0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not (self.i0 > 0 and math.isfinite(self.i0)):
            raise ValueError(f"i0 must be finite and > 0, got {self.i0}")


def simulate_measurement(x: Volume, geom, noise: NoiseModel, seed: int = 0) -> Sinogram:
    """Project x and apply the noise model; deterministic given seed."""
    p = forward_project(x, geom)
    if noise.kind == "none":
        return p
    rng = np.random.default_rng(seed)
    if noise.kind == "gaussian":
        values = p.values + rng.normal(0.0, noise.sigma, size=p.values.shape)
    else:
        counts = rng.poisson(noise.i0 * np.exp(-p.values)).astype(np.float64)
        np.maximum(counts, 1.0, out=counts)
        values = -np.log(counts / noise.i0)
    return Sinogram(p.geom, values)
