"""Fan and cone geometry construction, ray generation, and serialization."""

import json
import math

import numpy as np
import pytest

from tomoflow import (
    ConeGeometry,
    FanGeometry,
    InvalidGeometryError,
    VolumeGrid,
    geometry_from_dict,
    geometry_to_dict,
    make_cone_geometry,
    make_fan_geometry,
    ray_bundle,
)
from ray_oracle import detector_center, ray_for


def test_single_angle_fan_starts_at_zero():
    geom = make_fan_geometry(1, 1, 100.0, 100.0)
    assert geom.angles.shape == (1,)
    assert geom.angles[0] == 0.0


def test_three_degree_increment():
    geom = make_fan_geometry(120, 243, 200.0, 200.0)
    assert geom.n_angles == 120
    assert math.degrees(geom.angular_increment) == pytest.approx(3.0, abs=1e-12)
    assert geom.angular_increment == pytest.approx(0.0523599, abs=1e-7)


def test_four_angle_fan_detector_at_isocenter():
    geom = make_fan_geometry(4, 3, 100.0, 0.0)
    expected = np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    assert np.allclose(geom.angles, expected, atol=1e-15)
    assert geom.detector_distance == 0.0
    # detector centre sits on the rotation centre at every angle
    for a in geom.angles:
        assert np.allclose(detector_center(geom, a), 0.0)


def test_full_turn_excludes_end_angle():
    geom = make_fan_geometry(8, 5, 50.0, 50.0)
    assert geom.angles.max() < 2.0 * math.pi


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_angles": 0},
        {"n_detectors": 0},
        {"n_angles": -3},
        {"source_distance": 0.0},
        {"source_distance": -10.0},
        {"detector_distance": -1.0},
        {"detector_pixel_size": 0.0},
    ],
)
def test_fan_rejects_bad_arguments(kwargs):
    base = dict(
        n_angles=4, n_detectors=3, source_distance=100.0, detector_distance=50.0
    )
    base.update(kwargs)
    with pytest.raises(InvalidGeometryError):
        FanGeometry(**base)


def test_fan_rejects_empty_angular_range():
    with pytest.raises(InvalidGeometryError):
        make_fan_geometry(4, 3, 100.0, 50.0, angular_range=(1.0, 1.0))


def test_cone_angle_forty_degrees():
    # rows * pixel sized so the full vertical opening is exactly 40 degrees
    rows = 16
    total = 200.0
    pixel = 2.0 * total * math.tan(math.radians(20.0)) / rows
    geom = make_cone_geometry(120, rows, rows, 100.0, 100.0, pixel)
    assert math.degrees(geom.cone_angle) == pytest.approx(40.0, abs=1e-9)


def test_cone_angle_ninety_rejected():
    with pytest.raises(InvalidGeometryError):
        # half-height far beyond the source-detector distance
        make_cone_geometry(4, 64, 64, 10.0, 0.0, 100.0)


def test_single_row_cone_reduces_to_fan():
    fan = make_fan_geometry(12, 9, 80.0, 40.0, detector_pixel_size=1.5)
    cone = make_cone_geometry(12, 1, 9, 80.0, 40.0, 1.5)
    for i in range(12):
        for j in range(9):
            rf = ray_for(fan, i, j)
            rc = ray_for(cone, i, (0, j))
            assert np.max(np.abs(rc.origin[:2] - rf.origin)) < 1e-12
            assert abs(rc.origin[2]) < 1e-12
            assert np.max(np.abs(rc.direction[:2] - rf.direction)) < 1e-12
            assert abs(rc.direction[2]) < 1e-12


def test_fan_detector_is_one_row_at_v_zero():
    fan = make_fan_geometry(12, 9, 80.0, 40.0, detector_pixel_size=1.5)
    assert fan.detector_v_offsets().tolist() == [0.0]
    cone = make_cone_geometry(12, 4, 9, 80.0, 40.0, 1.5)
    assert cone.detector_v_offsets().tolist() == [-2.25, -0.75, 0.75, 2.25]


def test_cone_ray_count_and_source_circle():
    geom = make_cone_geometry(8, 4, 4, 50.0, 50.0, 2.0)
    origins, dirs = ray_bundle(geom)
    assert origins.shape == (128, 3)
    assert dirs.shape == (128, 3)
    radii = np.linalg.norm(origins[:, :2], axis=1)
    assert np.max(np.abs(radii - 50.0)) < 1e-10
    assert np.max(np.abs(origins[:, 2])) < 1e-10


def test_fan_center_ray_points_back_along_x():
    geom = make_fan_geometry(6, 7, 100.0, 100.0)
    ray = ray_for(geom, 0, 3)
    assert np.max(np.abs(ray.direction - np.array([-1.0, 0.0]))) < 1e-12
    assert np.allclose(ray.origin, [100.0, 0.0])


def test_ray_directions_are_unit():
    rng = np.random.default_rng(7)
    fan = make_fan_geometry(10, 11, 75.0, 30.0)
    cone = make_cone_geometry(10, 5, 7, 75.0, 30.0, 1.2)
    for _ in range(25):
        i = int(rng.integers(10))
        j = int(rng.integers(11))
        assert abs(np.linalg.norm(ray_for(fan, i, j).direction) - 1.0) < 1e-12
        r = int(rng.integers(5))
        c = int(rng.integers(7))
        assert abs(np.linalg.norm(ray_for(cone, i, (r, c)).direction) - 1.0) < 1e-12


def test_ray_index_errors():
    fan = make_fan_geometry(4, 3, 100.0, 50.0)
    cone = make_cone_geometry(4, 3, 3, 100.0, 50.0, 1.0)
    with pytest.raises(IndexError):
        ray_for(fan, -1, 0)
    with pytest.raises(IndexError):
        ray_for(fan, 4, 0)
    with pytest.raises(IndexError):
        ray_for(fan, 0, 3)
    with pytest.raises(IndexError):
        ray_for(cone, 0, (3, 0))
    with pytest.raises(IndexError):
        ray_for(cone, 0, (0, -1))


def test_cone_center_ray_hits_isocenter():
    geom = make_cone_geometry(9, 5, 7, 120.0, 60.0, 1.7)
    for i in range(9):
        ray = ray_for(geom, i, (2, 3))
        # distance from the line to the origin
        t = -ray.origin @ ray.direction
        closest = ray.origin + t * ray.direction
        assert np.linalg.norm(closest) < 1e-9


def test_rotational_consistency():
    geom = make_fan_geometry(16, 9, 90.0, 45.0)
    da = geom.angular_increment
    rot = np.array(
        [[math.cos(da), -math.sin(da)], [math.sin(da), math.cos(da)]]
    )
    rng = np.random.default_rng(3)
    for _ in range(10):
        i = int(rng.integers(1, 16))
        j = int(rng.integers(9))
        prev = ray_for(geom, i - 1, j)
        cur = ray_for(geom, i, j)
        assert np.max(np.abs(rot @ prev.origin - cur.origin)) < 1e-10
        assert np.max(np.abs(rot @ prev.direction - cur.direction)) < 1e-10


def test_sources_on_trajectory_circle():
    geom = make_fan_geometry(24, 5, 66.0, 20.0)
    origins, _ = ray_bundle(geom)
    assert np.max(np.abs(np.linalg.norm(origins, axis=1) - 66.0)) < 1e-10


def test_ray_bundle_matches_ray_for():
    # fan and cone share ray_bundle's in-plane rays; the partial-arc cone at
    # a non-zero height also checks the per-row z coordinates
    for geom in (
        make_cone_geometry(5, 3, 4, 70.0, 35.0, 2.0),
        make_fan_geometry(7, 6, 70.0, 35.0, angular_range=(0.4, 2.5), detector_pixel_size=1.7),
        make_cone_geometry(6, 3, 5, 80.0, 20.0, 1.5, angular_range=(-0.7, 1.9),
                           trajectory_height=2.5),
    ):
        origins, dirs = ray_bundle(geom)
        assert origins.shape == dirs.shape == (geom.n_rays, geom.ndim)
        k = 0
        for i in range(geom.n_angles):
            for idx in np.ndindex(*geom.detector_shape):
                ray = ray_for(geom, i, idx if geom.ndim == 3 else idx[0])
                assert np.allclose(origins[k], ray.origin, atol=1e-12)
                assert np.allclose(dirs[k], ray.direction, atol=1e-12)
                k += 1


def test_grid_axis_centers():
    grid = VolumeGrid((4, 4), 1.0)
    assert np.allclose(grid.axis_centers(0), [-1.5, -0.5, 0.5, 1.5])
    shifted = VolumeGrid((3, 3), 2.0, origin=(1.0, 0.0))
    assert np.allclose(shifted.axis_centers(0), [-1.0, 1.0, 3.0])
    assert np.allclose(shifted.axis_centers(1), [-2.0, 0.0, 2.0])


def test_grid_validation():
    with pytest.raises(InvalidGeometryError):
        VolumeGrid((0, 4), 1.0)
    with pytest.raises(InvalidGeometryError):
        VolumeGrid((4, 4), 0.0)
    with pytest.raises(InvalidGeometryError):
        VolumeGrid((4,), 1.0)
    with pytest.raises(InvalidGeometryError):
        VolumeGrid((4, 4), 1.0, origin=(0.0, 0.0, 0.0))
    for origin in [(math.nan, 0.0), (0.0, 0.0, -math.inf)]:
        with pytest.raises(InvalidGeometryError, match="origin"):
            VolumeGrid((4,) * len(origin), 1.0, origin=origin)


def test_dict_round_trip_fan():
    geom = make_fan_geometry(30, 95, 150.0, 150.0, detector_pixel_size=1.5)
    doc = geometry_to_dict(geom)
    assert doc["kind"] == "fan"
    # stored in degrees
    assert doc["angular_range"] == [0.0, 360.0]
    back = geometry_from_dict(doc)
    assert back.n_angles == geom.n_angles
    assert back.n_detectors == geom.n_detectors
    assert back.source_distance == geom.source_distance
    assert np.allclose(back.angles, geom.angles, atol=1e-12)


def test_dict_round_trip_cone():
    geom = make_cone_geometry(12, 6, 8, 90.0, 60.0, 1.25, trajectory_height=2.0)
    back = geometry_from_dict(geometry_to_dict(geom))
    assert isinstance(back, ConeGeometry)
    assert back.detector_rows == 6
    assert back.detector_cols == 8
    assert back.trajectory_height == 2.0
    assert np.allclose(back.angles, geom.angles, atol=1e-12)


def test_dict_missing_field():
    doc = geometry_to_dict(make_fan_geometry(4, 3, 100.0, 50.0))
    del doc["detector_pixel_size"]
    with pytest.raises(InvalidGeometryError):
        geometry_from_dict(doc)
    with pytest.raises(InvalidGeometryError):
        geometry_from_dict({"kind": "spiral"})


@pytest.mark.parametrize(
    "geom, key",
    [
        (make_fan_geometry(4, 3, 100.0, 50.0), "detector_pixelsize"),
        (make_fan_geometry(4, 3, 100.0, 50.0), "trajectory_height"),
        (make_cone_geometry(4, 2, 3, 90.0, 60.0, 1.25), "n_detectors"),
    ],
)
def test_dict_unknown_key(geom, key):
    # a misspelled or foreign key would otherwise be dropped without a word
    doc = dict(geometry_to_dict(geom), **{key: 1.5})
    with pytest.raises(InvalidGeometryError, match=key):
        geometry_from_dict(doc)


def test_geometry_json_round_trip_partial_arc():
    geom = make_fan_geometry(7, 5, 110.0, 40.0, angular_range=(0.0, math.pi))
    back = geometry_from_dict(json.loads(json.dumps(geometry_to_dict(geom))))
    assert back.n_angles == 7
    assert np.allclose(back.angles, geom.angles, atol=1e-12)


@pytest.mark.parametrize(
    "build, field, value",
    [
        (make_fan_geometry, "detector_distance", math.nan),
        (make_fan_geometry, "source_distance", math.inf),
        (make_fan_geometry, "detector_pixel_size", math.inf),
        (make_cone_geometry, "detector_distance", -math.inf),
        (make_cone_geometry, "detector_pixel_size", math.nan),
        (make_cone_geometry, "trajectory_height", math.nan),
        (make_cone_geometry, "trajectory_height", -math.inf),
    ],
)
def test_scans_reject_non_finite_values(build, field, value):
    detector = (
        {"n_detectors": 3} if build is make_fan_geometry
        else {"detector_rows": 3, "detector_cols": 3}
    )
    args = dict(n_angles=4, source_distance=100.0, detector_distance=50.0,
                detector_pixel_size=1.0, **detector)
    args[field] = value
    with pytest.raises(InvalidGeometryError, match=field):
        build(**args)


def test_fan_dict_schema():
    geom = make_fan_geometry(7, 5, 110.0, 40.0, angular_range=(0.0, math.pi),
                             detector_pixel_size=1.5)
    assert geometry_to_dict(geom) == {
        "kind": "fan",
        "n_angles": 7,
        "n_detectors": 5,
        "source_distance": 110.0,
        "detector_distance": 40.0,
        "detector_pixel_size": 1.5,
        "angular_range": [0.0, 180.0],
    }


def test_cone_dict_schema():
    geom = make_cone_geometry(12, 6, 8, 90.0, 60.0, 1.25, trajectory_height=2.0)
    assert geometry_to_dict(geom) == {
        "kind": "cone",
        "n_angles": 12,
        "detector_rows": 6,
        "detector_cols": 8,
        "source_distance": 90.0,
        "detector_distance": 60.0,
        "detector_pixel_size": 1.25,
        "angular_range": [0.0, 360.0],
        "trajectory_height": 2.0,
    }


def test_cone_dict_without_trajectory_height_is_at_zero():
    doc = geometry_to_dict(make_cone_geometry(4, 2, 3, 90.0, 60.0, 1.25))
    del doc["trajectory_height"]
    assert geometry_from_dict(doc).trajectory_height == 0.0


def test_builders_bind_positional_arguments():
    fan = make_fan_geometry(5, 3, 30.0, 10.0, (0.2, 1.8), 2.0)
    assert (fan.n_angles, fan.n_detectors) == (5, 3)
    assert (fan.source_distance, fan.detector_distance) == (30.0, 10.0)
    assert fan.angular_range == (0.2, 1.8)
    assert fan.detector_pixel_size == 2.0
    cone = make_cone_geometry(5, 2, 3, 30.0, 10.0, 1.5, (0.2, 1.8), 0.75)
    assert (cone.n_angles, cone.detector_rows, cone.detector_cols) == (5, 2, 3)
    assert (cone.source_distance, cone.detector_distance) == (30.0, 10.0)
    assert cone.detector_pixel_size == 1.5
    assert cone.angular_range == (0.2, 1.8)
    assert cone.trajectory_height == 0.75


def test_cone_builder_needs_a_pixel_size():
    with pytest.raises(TypeError):
        make_cone_geometry(5, 2, 3, 30.0, 10.0)
