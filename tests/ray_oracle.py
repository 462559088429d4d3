"""A scalar ray oracle: one source-to-pixel ray at a time, from the scan frame.

geometry.ray_bundle builds every ray at once from broadcast arrays.  The
oracle builds a single ray from the frame at its angle (source position,
detector centre, detector u and v axes), so the tests can check the two
against each other and re-derive line integrals ray by ray.
"""

import math
from dataclasses import dataclass

import numpy as np

from tomoflow import ConeGeometry


@dataclass
class Ray:
    """A single source-to-detector-pixel ray."""

    origin: np.ndarray
    direction: np.ndarray


def on_trajectory(geom, radius: float, angle: float) -> np.ndarray:
    """The point at signed radius along the source direction, at the trajectory height."""
    height = geom.trajectory_height if isinstance(geom, ConeGeometry) else 0.0
    point = [radius * math.cos(angle), radius * math.sin(angle), height]
    return np.array(point[: geom.ndim])


def source_position(geom, angle: float) -> np.ndarray:
    return on_trajectory(geom, geom.source_distance, angle)


def detector_center(geom, angle: float) -> np.ndarray:
    return on_trajectory(geom, -geom.detector_distance, angle)


def detector_u_axis(geom, angle: float) -> np.ndarray:
    return np.array([-math.sin(angle), math.cos(angle), 0.0][: geom.ndim])


def ray_for(geom, angle_index: int, detector_index) -> Ray:
    """The ray from the source at one angle to one detector pixel centre.

    detector_index is a column for a fan scan and a (row, column) pair for a
    cone scan.  The direction is the unit vector from the source towards the
    pixel.  Raises IndexError for out-of-range indices.
    """
    if not 0 <= angle_index < geom.n_angles:
        raise IndexError(f"angle_index {angle_index} out of range [0, {geom.n_angles})")
    cone = isinstance(geom, ConeGeometry)
    if cone:
        row, col = detector_index
        if not 0 <= row < geom.detector_rows:
            raise IndexError(f"detector row {row} out of range [0, {geom.detector_rows})")
    else:
        col = int(detector_index)
    n_cols = geom.detector_shape[-1]
    if not 0 <= col < n_cols:
        raise IndexError(f"detector col {col} out of range [0, {n_cols})")
    angle = float(geom.angles[angle_index])
    origin = source_position(geom, angle)
    u = geom.detector_u_offsets()[col]
    target = detector_center(geom, angle) + u * detector_u_axis(geom, angle)
    if cone:
        target = target + geom.detector_v_offsets()[row] * np.array([0.0, 0.0, 1.0])
    direction = target - origin
    return Ray(origin, direction / np.linalg.norm(direction))
