"""Acquisition geometries for fan-beam (2D) and circular cone-beam (3D) scans.

Both scans share one base class, because a fan scan is the one-row midplane
(z = 0) of a cone scan: the checks, angles, detector offsets and in-plane
rays are written once, and only the cone's detector rows and height differ.
detector_v_offsets lives on the base too, so a fan's detector is one row at
v = 0 and FBP and FDK backproject through one loop.

Conventions used throughout the toolkit:

* The source starts on the +x axis at angle 0 and rotates counter-clockwise.
* Lengths are millimetres, angles are radians; files and the CLI use degrees.
* Projection angles are uniformly spaced on the half-open interval
  [start, end): angle i = start + i * (end - start) / n_angles.  For a full
  turn this avoids duplicating the 0 = 2*pi view; the same rule is applied to
  partial arcs so the angular increment is always span / n_angles.
* The flat detector is centred on and perpendicular to the source-isocenter
  axis, at distance detector_distance behind the rotation centre.  Its u axis
  points along the rotation direction; in 3D the v axis is +z and row index
  increases with z.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import InvalidGeometryError, _count, _real

FULL_TURN = 2.0 * math.pi


def _centred(n: int, step: float) -> np.ndarray:
    """Centres of n cells of width step, symmetric about 0."""
    return (np.arange(n) - (n - 1) / 2.0) * step


@dataclass(frozen=True)
class VolumeGrid:
    """Regular voxel grid, centred on the rotation axis by default.

    Parameters
    ----------
    shape : tuple of int
        Voxel counts, (nx, ny) in 2D or (nx, ny, nz) in 3D.
    voxel_size : float
        Isotropic voxel edge length in mm.
    origin : tuple of float, optional
        World coordinates of the grid centre.  Defaults to the isocenter.
    """

    shape: tuple[int, ...]
    voxel_size: float
    origin: tuple[float, ...] = None

    def __post_init__(self):
        shape = tuple(_count("grid shape entry", n, error=InvalidGeometryError) for n in self.shape)
        if len(shape) not in (2, 3):
            raise InvalidGeometryError(
                f"grid must be 2D or 3D, got shape {shape}"
            )
        origin = (0.0,) * len(shape) if self.origin is None else self.origin
        origin = tuple(_real("origin", c, error=InvalidGeometryError) for c in origin)
        if len(origin) != len(shape):
            raise InvalidGeometryError(
                f"origin has {len(origin)} coordinates for a {len(shape)}D grid"
            )
        object.__setattr__(self, "shape", shape)
        voxel_size = _real("voxel_size", self.voxel_size, gt=0.0, error=InvalidGeometryError)
        object.__setattr__(self, "voxel_size", voxel_size)
        object.__setattr__(self, "origin", origin)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def n_voxels(self) -> int:
        return int(np.prod(self.shape))

    def axis_centers(self, axis: int) -> np.ndarray:
        """Voxel centre coordinates along one axis, in mm."""
        return self.origin[axis] + _centred(self.shape[axis], self.voxel_size)


class _Scan:
    """Checks, angles and detector offsets shared by the fan and cone scans.

    Subclasses are frozen dataclasses with the fields n_angles, the detector
    counts named in _detector_fields, source_distance, detector_distance,
    detector_pixel_size and angular_range, and a class attribute kind that
    names them in files and messages.
    """

    kind: str
    _detector_fields: tuple[str, ...]
    # each real field and its bound
    _reals = {"source_distance": {"gt": 0.0}, "detector_distance": {"ge": 0.0},
              "detector_pixel_size": {"gt": 0.0}}

    def __post_init__(self):
        for name in ("n_angles",) + self._detector_fields:
            value = _count(name, getattr(self, name), error=InvalidGeometryError)
            object.__setattr__(self, name, value)
        for name, bound in self._reals.items():
            value = _real(name, getattr(self, name), error=InvalidGeometryError, **bound)
            object.__setattr__(self, name, value)
        rng = self.angular_range
        if len(rng) != 2:
            raise InvalidGeometryError(f"angular_range must be (start, end), got {rng!r}")
        start, end = (_real("angular_range", a, error=InvalidGeometryError) for a in rng)
        if end <= start:
            raise InvalidGeometryError(
                f"angular_range must satisfy end > start, got ({start}, {end})"
            )
        object.__setattr__(self, "angular_range", (start, end))

    @property
    def detector_shape(self) -> tuple[int, ...]:
        return tuple(getattr(self, name) for name in self._detector_fields)

    @property
    def ndim(self) -> int:
        return len(self.detector_shape) + 1

    @property
    def angular_increment(self) -> float:
        start, end = self.angular_range
        return (end - start) / self.n_angles

    @property
    def angles(self) -> np.ndarray:
        start, _ = self.angular_range
        return start + np.arange(self.n_angles) * self.angular_increment

    @property
    def n_rays(self) -> int:
        return self.n_angles * math.prod(self.detector_shape)

    def detector_u_offsets(self) -> np.ndarray:
        """Signed u coordinates of detector column centres, in mm."""
        return _centred(self.detector_shape[-1], self.detector_pixel_size)

    def detector_v_offsets(self) -> np.ndarray:
        """Signed v coordinates of detector row centres, in mm; [0.0] for a fan."""
        return _centred(math.prod(self.detector_shape[:-1]), self.detector_pixel_size)


@dataclass(frozen=True)
class FanGeometry(_Scan):
    """2D fan-beam scan: point source, linear detector, circular trajectory."""

    n_angles: int
    n_detectors: int
    source_distance: float
    detector_distance: float
    angular_range: tuple[float, float] = (0.0, FULL_TURN)
    detector_pixel_size: float = 1.0

    kind = "fan"
    _detector_fields = ("n_detectors",)


@dataclass(frozen=True)
class ConeGeometry(_Scan):
    """3D circular cone-beam scan with a flat-panel detector."""

    n_angles: int
    detector_rows: int
    detector_cols: int
    source_distance: float
    detector_distance: float
    detector_pixel_size: float
    angular_range: tuple[float, float] = (0.0, FULL_TURN)
    trajectory_height: float = 0.0

    kind = "cone"
    _detector_fields = ("detector_rows", "detector_cols")
    _reals = {**_Scan._reals, "trajectory_height": {}}

    def __post_init__(self):
        super().__post_init__()
        if self.cone_angle >= math.pi / 2.0:
            raise InvalidGeometryError(
                f"cone angle {math.degrees(self.cone_angle):.2f} deg must be < 90 deg"
            )

    @property
    def cone_angle(self) -> float:
        """Full vertical opening angle of the beam, in radians."""
        half_height = 0.5 * self.detector_rows * self.detector_pixel_size
        return 2.0 * math.atan2(
            half_height, self.source_distance + self.detector_distance
        )


Geometry = FanGeometry | ConeGeometry

# the scan classes are their own builders, with uniformly spaced angles
make_fan_geometry = FanGeometry
make_cone_geometry = ConeGeometry
_SCANS = {cls.kind: cls for cls in (FanGeometry, ConeGeometry)}


def ray_bundle(geom: Geometry) -> tuple[np.ndarray, np.ndarray]:
    """All ray origins and unit directions, vectorised.

    Returns
    -------
    origins : ndarray, shape (R, ndim)
    directions : ndarray, shape (R, ndim)
        Rays are ordered angle-major, then detector row (3D), then column,
        matching ``Sinogram.values.reshape(-1)``.
    """
    angles = geom.angles
    cos_b = np.cos(angles)
    sin_b = np.sin(angles)
    src = geom.source_distance * np.stack([cos_b, sin_b], axis=1)
    det_c = -geom.detector_distance * np.stack([cos_b, sin_b], axis=1)
    e_u = np.stack([-sin_b, cos_b], axis=1)
    u = geom.detector_u_offsets()
    # in the trajectory plane: targets[a, c] = det_c[a] + u[c] * e_u[a]
    targets = det_c[:, None, :] + u[None, :, None] * e_u[:, None, :]
    origins = np.broadcast_to(src[:, None, :], targets.shape)
    if isinstance(geom, ConeGeometry):
        # each row repeats the in-plane rays; z is h at the source, h + v[r] at row r
        h = geom.trajectory_height
        v = geom.detector_v_offsets()
        targets = _lift_to_rows(targets, h + v)
        origins = _lift_to_rows(origins, np.full_like(v, h))
    d = targets - origins
    d = d / np.linalg.norm(d, axis=-1, keepdims=True)
    return origins.reshape(-1, geom.ndim).copy(), d.reshape(-1, geom.ndim)


def _lift_to_rows(plane: np.ndarray, z: np.ndarray) -> np.ndarray:
    """In-plane points (A, C, 2) copied to every detector row: (A, R, C, 3), z[r] in row r."""
    out = np.empty((plane.shape[0], len(z), plane.shape[1], 3))
    out[..., :2] = plane[:, None]
    out[..., 2] = z[:, None]
    return out


def geometry_to_dict(geom: Geometry) -> dict:
    """JSON-ready description: the kind and every field, angles in degrees."""
    doc = {"kind": geom.kind, **asdict(geom)}
    doc["angular_range"] = [math.degrees(a) for a in geom.angular_range]
    return doc


def geometry_from_dict(doc: dict) -> Geometry:
    """Inverse of geometry_to_dict; every field but a cone's trajectory_height
    is required, and a key that is neither kind nor a field is an error."""
    try:
        cls = _SCANS.get(doc["kind"])
        if cls is None:
            raise InvalidGeometryError(f"unknown geometry kind {doc['kind']!r}")
        unknown = sorted(set(doc) - {"kind"} - {f.name for f in fields(cls)})
        if unknown:
            raise InvalidGeometryError(
                f"{cls.kind} geometry has no field {', '.join(map(repr, unknown))}"
            )
        values = {
            f.name: doc[f.name]
            for f in fields(cls)
            if f.name != "trajectory_height" or f.name in doc
        }
    except KeyError as exc:
        raise InvalidGeometryError(f"geometry document missing field {exc}") from exc
    values["angular_range"] = tuple(math.radians(a) for a in values["angular_range"])
    return cls(**values)
