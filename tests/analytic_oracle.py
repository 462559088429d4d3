"""Separate-loop oracles for fan-beam FBP and cone-beam FDK.

analytic.py backprojects both scans through one loop: a fan is a detector
with one row at v = 0, and a cone's rows are interpolated after its columns.
These oracles keep the two loops it replaced, one per scan: FBP gathers one
detector row at each (x, y), and FDK makes one bilinear 4-tap gather per
voxel.  The tests check the merged loop against them.
"""

import numpy as np

from tomoflow.analytic import _lateral_coords, ramp_filter
from tomoflow.geometry import FanGeometry
from tomoflow.projector import _linear_taps


def _filtered(p, window):
    """Cosine-weighted, ramp-filtered data on the virtual detector: (q, s0, v0, ds)."""
    geom = p.geom
    d_src = geom.source_distance
    rescale = d_src / (d_src + geom.detector_distance)
    ds = geom.detector_pixel_size * rescale
    s = geom.detector_u_offsets() * rescale
    if isinstance(geom, FanGeometry):
        weight = d_src / np.sqrt(d_src**2 + s**2)
        v0 = 0.0
    else:
        v = geom.detector_v_offsets() * rescale
        weight = d_src / np.sqrt(d_src**2 + s[None, :] ** 2 + v[:, None] ** 2)
        v0 = v[0]
    q = ramp_filter(p.values * weight, ds, window) * (ds * 0.5)
    return q, s[0], v0, ds


def fbp_fan_oracle(p, grid, window="ram-lak"):
    """Fan-beam FBP onto a 2D grid, one detector row per view."""
    geom = p.geom
    q, s0, _, ds = _filtered(p, window)
    acc = np.zeros(grid.shape)
    for i, angle in enumerate(geom.angles):
        mag, valid, s_virtual = _lateral_coords(grid, float(angle), geom.source_distance)
        j0, w0, j1, w1 = _linear_taps((s_virtual - s0) / ds, q.shape[-1], valid)
        acc += (q[i][j0] * w0 + q[i][j1] * w1) / mag**2
    return acc * geom.angular_increment


def fdk_cone_oracle(p, grid, window="ram-lak"):
    """FDK onto a 3D grid with one bilinear 4-tap gather per voxel and view."""
    geom = p.geom
    q, s0, v0, ds = _filtered(p, window)
    n_rows, n_cols = geom.detector_rows, geom.detector_cols
    zs = grid.axis_centers(2) - geom.trajectory_height
    acc = np.zeros(grid.shape)
    for i, angle in enumerate(geom.angles):
        mag, valid, s_virtual = _lateral_coords(grid, float(angle), geom.source_distance)
        j0, cj0, j1, cj1 = (
            tap[:, :, None] for tap in _linear_taps((s_virtual - s0) / ds, n_cols, valid)
        )
        fv = (zs[None, None, :] / mag[:, :, None] - v0) / ds
        r0, cr0, r1, cr1 = _linear_taps(fv, n_rows)
        q_i = q[i]
        val = (
            q_i[r0, j0] * cr0 * cj0
            + q_i[r0, j1] * cr0 * cj1
            + q_i[r1, j0] * cr1 * cj0
            + q_i[r1, j1] * cr1 * cj1
        )
        acc += val / (mag**2)[:, :, None]
    return acc * geom.angular_increment
