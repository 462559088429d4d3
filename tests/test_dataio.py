"""Tests for volume/sinogram files, PGM export, and JSON reports.

The binary layout is pinned with a golden file assembled by hand from
struct.pack, independent of the writer.  Precision semantics are covered
both ways: payloads are exact after one f32 cast, and metadata keeps full
f64 precision through the sidecar but falls back to f32 header fields
when the sidecar is gone.
"""

import json
import math
import struct

import numpy as np
import pytest

from tomoflow import (
    DataFormatError,
    Sinogram,
    Volume,
    VolumeGrid,
    load_sinogram,
    load_volume,
    make_cone_geometry,
    make_fan_geometry,
    save_sinogram,
    save_volume,
)
from tomoflow.dataio import (
    center_slices,
    read_metrics,
    write_manifest,
    write_metrics,
    write_pgm,
)


def f32(values):
    return np.asarray(values).astype("<f4").astype(np.float64)


# --- volume files ---


@pytest.mark.parametrize("shape", [(16, 12), (6, 5, 4)])
def test_volume_round_trip_is_exact_after_f32_cast(tmp_path, shape):
    grid = VolumeGrid(shape, 0.73)
    vol = Volume(grid, np.random.default_rng(0).normal(0.0, 1.0, shape))
    path = tmp_path / "v.ctv"
    save_volume(path, vol)
    loaded = load_volume(path)
    assert loaded.grid.shape == vol.grid.shape
    assert loaded.grid.voxel_size == vol.grid.voxel_size
    assert np.array_equal(loaded.values, f32(vol.values))


def test_sidecar_keeps_full_metadata_precision(tmp_path):
    # 1/3 is not representable in f32; the sidecar preserves it anyway
    grid = VolumeGrid((4, 4), 1.0 / 3.0)
    vol = Volume(grid, np.zeros((4, 4)))
    path = tmp_path / "v.ctv"
    save_volume(path, vol)
    assert load_volume(path).grid.voxel_size == 1.0 / 3.0

    (tmp_path / "v.ctv.json").unlink()
    header_only = load_volume(path)
    assert header_only.grid.voxel_size == float(np.float32(1.0 / 3.0))


def test_volume_golden_bytes(tmp_path):
    # layout: magic, u32 version, u32 ndim, 3 u32 dims, f32 spacing, zero
    # padding to 64 bytes, then the C-order <f4 payload
    header = (
        b"CTV1"
        + struct.pack("<II", 1, 2)
        + struct.pack("<III", 2, 3, 0)
        + struct.pack("<f", 1.5)
    )
    header += b"\x00" * (64 - len(header))
    payload = np.arange(6, dtype="<f4").tobytes()
    path = tmp_path / "golden.ctv"
    path.write_bytes(header + payload)

    vol = load_volume(path)
    assert vol.grid.shape == (2, 3)
    assert vol.grid.voxel_size == 1.5
    assert np.array_equal(vol.values, np.arange(6.0).reshape(2, 3))


def test_written_volume_header_matches_the_documented_layout(tmp_path):
    grid = VolumeGrid((8, 6), 2.0)
    vol = Volume(grid, np.zeros((8, 6)))
    path = tmp_path / "v.ctv"
    save_volume(path, vol)
    raw = path.read_bytes()
    assert raw[:4] == b"CTV1"
    assert struct.unpack("<II", raw[4:12]) == (1, 2)
    assert struct.unpack("<III", raw[12:24]) == (8, 6, 0)
    assert struct.unpack("<f", raw[24:28])[0] == 2.0
    assert len(raw) == 64 + 8 * 6 * 4


@pytest.mark.parametrize(
    "geom, kind",
    [
        (make_fan_geometry(6, 7, 40.5, 25.25, (0.3, 3.9), detector_pixel_size=1.5), 1),
        (make_cone_geometry(5, 3, 4, 50.0, 30.0, 2.0, (-0.4, 2.9), 2.5), 2),
    ],
)
def test_written_sinogram_header_matches_the_documented_layout(tmp_path, geom, kind):
    # after the volume's 28 bytes: u32 geometry kind (1 fan, 2 cone), then f32
    # source distance, detector distance, angular range start and end
    path = tmp_path / "s.cts"
    dims = (geom.n_angles,) + geom.detector_shape
    save_sinogram(path, Sinogram(geom, np.zeros(dims)))
    raw = path.read_bytes()
    assert raw[:4] == b"CTS1"
    assert struct.unpack("<II", raw[4:12]) == (1, len(dims))
    assert struct.unpack("<III", raw[12:24]) == dims + (0,) * (3 - len(dims))
    assert struct.unpack("<f", raw[24:28])[0] == geom.detector_pixel_size
    words = struct.unpack("<Iffff", raw[28:48])
    assert words[0] == kind
    expected = (
        geom.source_distance,
        geom.detector_distance,
        geom.angular_range[0],
        geom.angular_range[1],
    )
    assert words[1:] == tuple(float(np.float32(x)) for x in expected)
    assert raw[48:64] == b"\x00" * 16
    assert len(raw) == 64 + 4 * int(np.prod(dims))


def test_volume_loader_rejects_corrupt_files(tmp_path):
    grid = VolumeGrid((4, 4), 1.0)
    path = tmp_path / "v.ctv"
    save_volume(path, Volume(grid, np.zeros((4, 4))))
    raw = bytearray(path.read_bytes())
    (tmp_path / "v.ctv.json").unlink()

    bad_magic = tmp_path / "magic.ctv"
    bad_magic.write_bytes(b"NOPE" + bytes(raw[4:]))
    with pytest.raises(DataFormatError):
        load_volume(bad_magic)

    bad_version = tmp_path / "version.ctv"
    bad_version.write_bytes(bytes(raw[:4]) + struct.pack("<I", 9) + bytes(raw[8:]))
    with pytest.raises(DataFormatError):
        load_volume(bad_version)

    short = tmp_path / "short.ctv"
    short.write_bytes(bytes(raw[:40]))
    with pytest.raises(DataFormatError):
        load_volume(short)

    trimmed = tmp_path / "trimmed.ctv"
    trimmed.write_bytes(bytes(raw[:-8]))  # payload no longer matches the dims
    with pytest.raises(DataFormatError):
        load_volume(trimmed)

    ragged = tmp_path / "ragged.ctv"
    ragged.write_bytes(bytes(raw[:-3]))  # not a whole number of f32 values
    with pytest.raises(DataFormatError):
        load_volume(ragged)


# --- sinogram files ---


def test_fan_sinogram_round_trip(tmp_path):
    geom = make_fan_geometry(12, 9, 40.0, 25.0, detector_pixel_size=1.3)
    values = np.random.default_rng(1).normal(0.0, 1.0, (12, 9))
    path = tmp_path / "s.cts"
    save_sinogram(path, Sinogram(geom, values))
    loaded = load_sinogram(path)
    assert loaded.geom == geom
    assert np.array_equal(loaded.values, f32(values))


def test_cone_sinogram_round_trip(tmp_path):
    geom = make_cone_geometry(5, 4, 6, 50.0, 30.0, detector_pixel_size=2.0)
    values = np.random.default_rng(2).normal(0.0, 1.0, (5, 4, 6))
    path = tmp_path / "s.cts"
    save_sinogram(path, Sinogram(geom, values))
    loaded = load_sinogram(path)
    assert loaded.geom == geom
    assert np.array_equal(loaded.values, f32(values))


def test_sinogram_loads_from_header_alone(tmp_path):
    geom = make_fan_geometry(6, 7, 40.0, 25.0, detector_pixel_size=1.5)
    values = np.random.default_rng(3).normal(0.0, 1.0, (6, 7))
    path = tmp_path / "s.cts"
    save_sinogram(path, Sinogram(geom, values))
    (tmp_path / "s.cts.json").unlink()

    loaded = load_sinogram(path)
    assert loaded.geom.n_angles == 6
    assert loaded.geom.n_detectors == 7
    assert loaded.geom.source_distance == 40.0  # f32 exact for these values
    assert loaded.geom.detector_pixel_size == 1.5
    assert np.array_equal(loaded.values, f32(values))


@pytest.mark.parametrize(
    "geom, kind",
    [
        (make_fan_geometry(6, 7, 40.0, 25.0, detector_pixel_size=1.5), 0),
        (make_fan_geometry(6, 7, 40.0, 25.0, detector_pixel_size=1.5), 2),
        (make_fan_geometry(6, 7, 40.0, 25.0, detector_pixel_size=1.5), 7),
        (make_cone_geometry(6, 1, 7, 40.0, 25.0, detector_pixel_size=1.5), 1),
    ],
)
def test_header_kind_word_must_match_the_dims(tmp_path, geom, kind):
    # without a sidecar the kind word (bytes 28-32) selects the geometry:
    # 1 (fan) needs 2 header dims and 2 (cone) needs 3, anything else is corrupt
    path = tmp_path / "s.cts"
    save_sinogram(path, Sinogram(geom, np.zeros((6,) + geom.detector_shape)))
    (tmp_path / "s.cts.json").unlink()
    raw = bytearray(path.read_bytes())
    raw[28:32] = struct.pack("<I", kind)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="geometry kind"):
        load_sinogram(path)


def test_sinogram_loader_rejects_bad_magic(tmp_path):
    geom = make_fan_geometry(4, 5, 30.0, 20.0, detector_pixel_size=1.0)
    path = tmp_path / "s.cts"
    save_sinogram(path, Sinogram(geom, np.zeros((4, 5))))
    raw = bytearray(path.read_bytes())
    path.write_bytes(b"CTV1" + bytes(raw[4:]))  # volume magic on a sinogram
    with pytest.raises(DataFormatError):
        load_sinogram(path)


# --- sidecars ---


def saved_volume(tmp_path):
    path = tmp_path / "v.ctv"
    save_volume(path, Volume(VolumeGrid((8, 4), 1.0), np.zeros((8, 4))))
    return path, load_volume


def saved_sinogram(tmp_path):
    path = tmp_path / "s.cts"
    geom = make_fan_geometry(6, 7, 40.0, 25.0, detector_pixel_size=1.5)
    save_sinogram(path, Sinogram(geom, np.zeros((6, 7))))
    return path, load_sinogram


@pytest.mark.parametrize("saved", [saved_volume, saved_sinogram])
@pytest.mark.parametrize(
    "text",
    ["not json", "[1, 2]", "{}", '{"format": "CTV1", "voxel_size": 1.0}'],
    ids=["not-json", "not-an-object", "empty-object", "missing-field"],
)
def test_broken_sidecar_is_a_data_format_error(tmp_path, saved, text):
    path, load = saved(tmp_path)
    (tmp_path / (path.name + ".json")).write_text(text)
    with pytest.raises(DataFormatError, match="sidecar"):
        load(path)


@pytest.mark.parametrize(
    "saved, field, value",
    [
        (saved_volume, "voxel_size", [1.0]),
        (saved_volume, "origin", 3),
        (saved_sinogram, "geometry", [1, 2]),
        (saved_sinogram, "geometry", "fan"),
    ],
    ids=["voxel-size-list", "origin-number", "geometry-list", "geometry-string"],
)
def test_sidecar_field_of_wrong_type_is_a_data_format_error(tmp_path, saved, field, value):
    path, load = saved(tmp_path)
    sidecar = tmp_path / (path.name + ".json")
    doc = json.loads(sidecar.read_text())
    doc[field] = value
    sidecar.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="sidecar"):
        load(path)


def test_volume_sidecar_shape_must_match_the_header(tmp_path):
    path, _ = saved_volume(tmp_path)
    sidecar = tmp_path / "v.ctv.json"
    doc = json.loads(sidecar.read_text())
    doc["shape"] = [4, 8]  # same voxel count, transposed
    sidecar.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="header"):
        load_volume(path)


def test_sinogram_sidecar_dims_must_match_the_header(tmp_path):
    path, _ = saved_sinogram(tmp_path)
    sidecar = tmp_path / "s.cts.json"
    doc = json.loads(sidecar.read_text())
    doc["geometry"]["n_angles"], doc["geometry"]["n_detectors"] = 7, 6
    sidecar.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="header"):
        load_sinogram(path)


def test_sinogram_sidecar_text(tmp_path):
    # the sidecar's bytes, pinned by a hand-written document: keys sorted,
    # angles in degrees, and a cone's trajectory_height beside its scan
    path = tmp_path / "s.cts"
    geom = make_cone_geometry(3, 2, 4, 50.0, 30.0, 2.0, (0.0, math.pi / 2.0), 0.5)
    save_sinogram(path, Sinogram(geom, np.zeros((3, 2, 4))))
    expected = """{
  "format": "CTS1",
  "geometry": {
    "angular_range": [
      0.0,
      90.0
    ],
    "detector_cols": 4,
    "detector_distance": 30.0,
    "detector_pixel_size": 2.0,
    "detector_rows": 2,
    "kind": "cone",
    "n_angles": 3,
    "source_distance": 50.0,
    "trajectory_height": 0.5
  }
}
"""
    assert (tmp_path / "s.cts.json").read_text() == expected


@pytest.mark.parametrize(
    "field, value",
    [("detector_distance", float("nan")), ("source_distance", float("inf"))],
)
def test_sinogram_sidecar_non_finite_value_is_a_data_format_error(tmp_path, field, value):
    path, _ = saved_sinogram(tmp_path)
    sidecar = tmp_path / "s.cts.json"
    doc = json.loads(sidecar.read_text())
    doc["geometry"][field] = value
    sidecar.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=field):
        load_sinogram(path)


def test_sinogram_sidecar_unknown_geometry_key_is_a_data_format_error(tmp_path):
    path, _ = saved_sinogram(tmp_path)
    sidecar = tmp_path / "s.cts.json"
    doc = json.loads(sidecar.read_text())
    doc["geometry"]["detector_pixelsize"] = 2.0
    sidecar.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="detector_pixelsize"):
        load_sinogram(path)


# --- image export ---


def test_pgm_bytes_under_the_default_window(tmp_path):
    # window [0, 0.06]: midpoint rounds to 128, clipping applies both ways
    img = np.array([[0.0, 0.03, 0.06], [-0.5, 0.1, 0.045]])
    path = tmp_path / "x.pgm"
    write_pgm(path, img)
    raw = path.read_bytes()
    assert raw[:11] == b"P5\n3 2\n255\n"  # width 3, height 2
    assert list(raw[11:]) == [0, 128, 255, 0, 255, 191]


def test_pgm_custom_window(tmp_path):
    img = np.array([[1.0, 3.0]])
    path = tmp_path / "x.pgm"
    write_pgm(path, img, window=(1.0, 3.0))
    assert list(path.read_bytes()[-2:]) == [0, 255]


def test_pgm_rejects_bad_inputs(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2)), window=(0.06, 0.0))


def test_center_slices_2d_and_3d():
    grid2 = VolumeGrid((4, 6), 1.0)
    v2 = Volume(grid2, np.random.default_rng(4).normal(0.0, 1.0, (4, 6)))
    slices = center_slices(v2)
    assert len(slices) == 1
    assert slices[0][0] == "slice"
    assert np.array_equal(slices[0][1], v2.values)

    grid3 = VolumeGrid((4, 6, 8), 1.0)
    v3 = Volume(grid3, np.random.default_rng(5).normal(0.0, 1.0, (4, 6, 8)))
    slices = center_slices(v3)
    assert [name for name, _ in slices] == ["slice_axis0", "slice_axis1", "slice_axis2"]
    assert np.array_equal(slices[0][1], v3.values[2, :, :])
    assert np.array_equal(slices[1][1], v3.values[:, 3, :])
    assert np.array_equal(slices[2][1], v3.values[:, :, 4])


# --- JSON reports ---


def test_metrics_survive_infinite_psnr(tmp_path):
    path = tmp_path / "metrics.json"
    write_metrics(path, {"rmse": 0.0, "psnr": math.inf, "ssim": 1.0})
    assert "Infinity" in path.read_text()
    loaded = read_metrics(path)
    assert loaded["psnr"] == math.inf
    assert loaded["rmse"] == 0.0


def test_manifest_is_sorted_and_newline_terminated(tmp_path):
    path = tmp_path / "manifest.json"
    write_manifest(path, {"zeta": 1, "alpha": {"b": 2, "a": 3}, "mid": [1, 2]})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"alpha"') < text.index('"mid"') < text.index('"zeta"')
    assert json.loads(text) == {"zeta": 1, "alpha": {"b": 2, "a": 3}, "mid": [1, 2]}
