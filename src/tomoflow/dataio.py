"""Volume and sinogram files, slice images, and JSON reports.

Data files are a 64-byte fixed header (magic, version, dims, spacing as f32)
followed by the raw little-endian f32 payload in C order.  A JSON sidecar
(path + ".json") duplicates the metadata; because the header stores spacing
and geometry distances as f32, the loader prefers the sidecar when present
to keep metadata at full precision.  Payloads are f32 either way, so
round-trip comparisons of values are exact only to single precision.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .geometry import ConeGeometry, FanGeometry, VolumeGrid, geometry_from_dict, geometry_to_dict
from .projector import Sinogram, Volume

VOLUME_MAGIC = b"CTV1"
SINOGRAM_MAGIC = b"CTS1"
FORMAT_VERSION = 1
HEADER_SIZE = 64

DISPLAY_WINDOW = (0.0, 0.06)


def _pack_header(magic: bytes, dims, spacing: float, extra: bytes = b"") -> bytes:
    body = magic + struct.pack("<II", FORMAT_VERSION, len(dims))
    padded_dims = tuple(dims) + (0,) * (3 - len(dims))
    body += struct.pack("<III", *padded_dims)
    body += struct.pack("<f", spacing)
    body += extra
    if len(body) > HEADER_SIZE:
        raise DataFormatError(f"header overflow: {len(body)} bytes")
    return body + b"\x00" * (HEADER_SIZE - len(body))


def _read_header(raw: bytes, magic: bytes, path) -> tuple:
    if len(raw) < HEADER_SIZE:
        raise DataFormatError(f"{path}: file shorter than the {HEADER_SIZE}-byte header")
    if raw[:4] != magic:
        raise DataFormatError(
            f"{path}: bad magic {raw[:4]!r}, expected {magic.decode()}"
        )
    version, ndim = struct.unpack("<II", raw[4:12])
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported format version {version}")
    dims = struct.unpack("<III", raw[12:24])
    spacing = struct.unpack("<f", raw[24:28])[0]
    if ndim not in (2, 3):
        raise DataFormatError(f"{path}: invalid dimensionality {ndim}")
    return dims[:ndim], float(spacing)


def _read_payload(raw: bytes, shape, path) -> np.ndarray:
    expected = int(np.prod(shape))
    if len(raw) - HEADER_SIZE != 4 * expected:
        raise DataFormatError(
            f"{path}: payload has {len(raw) - HEADER_SIZE} bytes, header promises "
            f"{expected} f32 values"
        )
    return np.frombuffer(raw[HEADER_SIZE:], dtype="<f4").astype(np.float64).reshape(shape)


def _sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_volume(path, vol: Volume) -> None:
    header = _pack_header(VOLUME_MAGIC, vol.grid.shape, vol.grid.voxel_size)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(vol.values.astype("<f4").tobytes())
    _write_json(
        _sidecar_path(path),
        {
            "format": "CTV1",
            "shape": list(vol.grid.shape),
            "voxel_size": vol.grid.voxel_size,
            "origin": list(vol.grid.origin),
        },
    )


def load_volume(path) -> Volume:
    raw = Path(path).read_bytes()
    shape, spacing = _read_header(raw, VOLUME_MAGIC, path)
    origin = None
    sidecar = _sidecar_path(path)
    if sidecar.exists():
        doc = json.loads(sidecar.read_text())
        shape = tuple(doc["shape"])
        spacing = float(doc["voxel_size"])
        origin = tuple(doc.get("origin", ())) or None
    grid = VolumeGrid(tuple(shape), spacing, origin)
    return Volume(grid, _read_payload(raw, grid.shape, path))


def save_sinogram(path, sino: Sinogram) -> None:
    geom = sino.geom
    dims = (geom.n_angles,) + geom.detector_shape
    extra = struct.pack(
        "<Iffff",
        1 if isinstance(geom, FanGeometry) else 2,
        geom.source_distance,
        geom.detector_distance,
        geom.angular_range[0],
        geom.angular_range[1],
    )
    header = _pack_header(SINOGRAM_MAGIC, dims, geom.detector_pixel_size, extra)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(sino.values.astype("<f4").tobytes())
    _write_json(
        _sidecar_path(path),
        {"format": "CTS1", "geometry": geometry_to_dict(geom)},
    )


def load_sinogram(path) -> Sinogram:
    raw = Path(path).read_bytes()
    dims, pixel = _read_header(raw, SINOGRAM_MAGIC, path)
    sidecar = _sidecar_path(path)
    if sidecar.exists():
        doc = json.loads(sidecar.read_text())
        geom = geometry_from_dict(doc["geometry"])
    else:
        kind, d_src, d_det, a0, a1 = struct.unpack("<Iffff", raw[28:48])
        if (kind, len(dims)) not in ((1, 2), (2, 3)):
            raise DataFormatError(
                f"{path}: geometry kind {kind} does not fit {len(dims)} header dims"
            )
        if kind == 1:
            geom = FanGeometry(
                n_angles=dims[0],
                n_detectors=dims[1],
                source_distance=d_src,
                detector_distance=d_det,
                detector_pixel_size=pixel,
                angular_range=(a0, a1),
            )
        else:
            geom = ConeGeometry(
                n_angles=dims[0],
                detector_rows=dims[1],
                detector_cols=dims[2],
                source_distance=d_src,
                detector_distance=d_det,
                detector_pixel_size=pixel,
                angular_range=(a0, a1),
            )
    values = _read_payload(raw, (geom.n_angles,) + geom.detector_shape, path)
    return Sinogram(geom, values)


def write_pgm(path, image: np.ndarray, window=DISPLAY_WINDOW) -> None:
    """8-bit PGM of a 2D array under a fixed gray-value window."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"PGM export needs a 2D array, got shape {img.shape}")
    lo, hi = window
    if not hi > lo:
        raise ValueError(f"window must be increasing, got {window}")
    scaled = np.clip((img - lo) / (hi - lo), 0.0, 1.0)
    data = np.round(scaled * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def center_slices(vol: Volume):
    """(name, 2D array) pairs: the image itself in 2D, one mid-slice per axis in 3D."""
    v = vol.values
    if v.ndim == 2:
        return [("slice", v)]
    return [
        (f"slice_axis{axis}", np.take(v, v.shape[axis] // 2, axis=axis))
        for axis in range(3)
    ]


def write_metrics(path, doc: dict) -> None:
    """Metrics report; rmse/psnr/ssim plus method and optional runtime."""
    _write_json(path, doc)


def read_metrics(path) -> dict:
    return json.loads(Path(path).read_text())


def write_manifest(path, doc: dict) -> None:
    """Reproducibility record: every parameter and seed, no volatile fields."""
    _write_json(path, doc)
