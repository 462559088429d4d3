"""Record files, slice images, JSON reports and per-iteration CSV logs.

This module owns the one binary record layout that every tomoflow data file
shares: volumes (.ctv), sinograms (.cts), network parameters and the Adam
state (.opt.bin).  A record is a 4-byte magic, a little-endian header whose
first field is the u32 format version, then a little-endian payload whose
byte count the header fixes exactly.  ``write_record`` writes one;
``read_record`` checks the magic, version and header length, and
``record_values`` checks the payload length and decodes it.

Volumes and sinograms use a 64-byte zero-padded header (magic, version,
ndim, three dims, spacing as f32; sinograms add the geometry kind, source
and detector distance, and the angular range as f32) followed by the f32
payload in C order.  A JSON sidecar (path + ".json") duplicates the
metadata; because the header stores spacing and geometry distances as f32,
the loader prefers the sidecar when present to keep metadata at full
precision, after checking that its dims agree with the header.  Payloads are
f32 either way, so round-trip comparisons of values are exact only to single
precision.
"""

from __future__ import annotations

import csv
import json
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .geometry import ConeGeometry, FanGeometry, VolumeGrid, geometry_from_dict, geometry_to_dict
from .projector import Sinogram, Volume

VOLUME_MAGIC = b"CTV1"
SINOGRAM_MAGIC = b"CTS1"
FORMAT_VERSION = 1
HEADER_SIZE = 64
# version, ndim, three dims (zero-padded), spacing; sinograms add the kind
# (1 fan, 2 cone), source and detector distance, and the angular range
VOLUME_HEADER = "<IIIIIf"
SINOGRAM_HEADER = VOLUME_HEADER + "Iffff"

DISPLAY_WINDOW = (0.0, 0.06)


def write_record(path, magic: bytes, fmt: str, fields, payload, dtype: str, size: int = 0) -> None:
    """Magic, the ``fmt`` header (version, *fields) zero-padded to ``size``, then the payload."""
    header = magic + struct.pack(fmt, FORMAT_VERSION, *fields)
    with open(path, "wb") as fh:
        fh.write(header.ljust(size, b"\x00"))
        fh.write(payload.astype(dtype).tobytes())


def read_record(path, magic: bytes, fmt: str, size: int = 0) -> tuple[list, bytes]:
    """The header fields after the version, and the payload bytes."""
    raw = Path(path).read_bytes()
    size = max(size, 4 + struct.calcsize(fmt))
    if len(raw) < size:
        raise DataFormatError(f"{path}: file shorter than the {size}-byte header")
    if raw[:4] != magic:
        raise DataFormatError(f"{path}: bad magic {raw[:4]!r}, expected {magic.decode()}")
    version, *fields = struct.unpack_from(fmt, raw, 4)
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported format version {version}")
    return fields, raw[size:]


def record_values(path, payload: bytes, shape, dtype: str) -> np.ndarray:
    """The payload as f64 values of ``shape``, which must account for every byte."""
    count = int(np.prod(shape))
    if len(payload) != count * np.dtype(dtype).itemsize:
        raise DataFormatError(
            f"{path}: payload has {len(payload)} bytes, header promises {count} {dtype} values"
        )
    return np.frombuffer(payload, dtype=dtype).astype(np.float64).reshape(shape)


def _sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    """A per-iteration log: the header row, then one row per iteration."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_sidecar(path, doc: dict) -> None:
    _write_json(_sidecar_path(path), doc)


def read_sidecar(path, fields) -> dict:
    """The JSON object beside ``path``; it must hold every name in ``fields``."""
    sidecar = _sidecar_path(path)
    try:
        doc = json.loads(sidecar.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{sidecar}: sidecar is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError(f"{sidecar}: sidecar is not a JSON object")
    missing = [name for name in fields if name not in doc]
    if missing:
        raise DataFormatError(f"{sidecar}: sidecar lacks {', '.join(missing)}")
    return doc


@contextmanager
def sidecar_values(path):
    """Report a field of the sidecar beside ``path`` that has the wrong JSON
    type or value: the TypeError or ValueError raised while the block builds
    from it becomes a DataFormatError."""
    try:
        yield
    except DataFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{_sidecar_path(path)}: sidecar field is malformed: {exc}") from exc


def _dim_fields(dims) -> tuple:
    return (len(dims),) + tuple(dims) + (0,) * (3 - len(dims))


def _read_grid_record(path, magic: bytes, fmt: str):
    """(dims, spacing, extra header fields, payload) of a volume or sinogram file."""
    fields, payload = read_record(path, magic, fmt, HEADER_SIZE)
    ndim, d0, d1, d2, spacing, *extra = fields
    if ndim not in (2, 3):
        raise DataFormatError(f"{path}: invalid dimensionality {ndim}")
    return (d0, d1, d2)[:ndim], spacing, extra, payload


def _check_sidecar_dims(path, dims, header_dims) -> None:
    if dims != list(header_dims):
        raise DataFormatError(
            f"{path}: sidecar dims {dims} disagree with the header dims {list(header_dims)}"
        )


def save_volume(path, vol: Volume) -> None:
    grid = vol.grid
    fields = _dim_fields(grid.shape) + (grid.voxel_size,)
    write_record(path, VOLUME_MAGIC, VOLUME_HEADER, fields, vol.values, "<f4", HEADER_SIZE)
    write_sidecar(
        path,
        {
            "format": "CTV1",
            "shape": list(grid.shape),
            "voxel_size": grid.voxel_size,
            "origin": list(grid.origin),
        },
    )


def load_volume(path) -> Volume:
    shape, spacing, _, payload = _read_grid_record(path, VOLUME_MAGIC, VOLUME_HEADER)
    if _sidecar_path(path).exists():
        doc = read_sidecar(path, ("shape", "voxel_size"))
        _check_sidecar_dims(path, doc["shape"], shape)
        with sidecar_values(path):
            spacing = float(doc["voxel_size"])
            origin = tuple(doc.get("origin", ())) or None
            grid = VolumeGrid(shape, spacing, origin)
    else:
        grid = VolumeGrid(shape, spacing)
    return Volume(grid, record_values(path, payload, shape, "<f4"))


def save_sinogram(path, sino: Sinogram) -> None:
    geom = sino.geom
    fields = _dim_fields((geom.n_angles,) + geom.detector_shape) + (
        geom.detector_pixel_size,
        1 if isinstance(geom, FanGeometry) else 2,
        geom.source_distance,
        geom.detector_distance,
        *geom.angular_range,
    )
    write_record(path, SINOGRAM_MAGIC, SINOGRAM_HEADER, fields, sino.values, "<f4", HEADER_SIZE)
    write_sidecar(path, {"format": "CTS1", "geometry": geometry_to_dict(geom)})


def load_sinogram(path) -> Sinogram:
    dims, pixel, extra, payload = _read_grid_record(path, SINOGRAM_MAGIC, SINOGRAM_HEADER)
    kind, d_src, d_det, a0, a1 = extra
    scan = dict(
        n_angles=dims[0],
        source_distance=d_src,
        detector_distance=d_det,
        detector_pixel_size=pixel,
        angular_range=(a0, a1),
    )
    if _sidecar_path(path).exists():
        doc = read_sidecar(path, ("geometry",))
        with sidecar_values(path):
            geom = geometry_from_dict(doc["geometry"])
        _check_sidecar_dims(path, [geom.n_angles, *geom.detector_shape], dims)
    elif (kind, len(dims)) == (1, 2):
        geom = FanGeometry(n_detectors=dims[1], **scan)
    elif (kind, len(dims)) == (2, 3):
        geom = ConeGeometry(detector_rows=dims[1], detector_cols=dims[2], **scan)
    else:
        raise DataFormatError(
            f"{path}: geometry kind {kind} does not fit {len(dims)} header dims"
        )
    return Sinogram(geom, record_values(path, payload, dims, "<f4"))


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


def write_manifest(path, doc: dict) -> None:
    """Reproducibility record: every parameter and seed, no volatile fields."""
    _write_json(path, doc)
