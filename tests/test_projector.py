"""Forward projector, exact adjoint, and operator norm estimation.

The reference oracles below re-derive the 2D and 3D interpolating line
integrals directly from the ray description (march along the dominant axis,
linear or bilinear interpolation across the others, out-of-grid taps dropped)
so the projector is checked against independent arithmetic, not against
itself.
"""

import tracemalloc

import numpy as np
import pytest

from tomoflow import projector
from tomoflow import (
    ShapeMismatchError,
    Sinogram,
    Volume,
    VolumeGrid,
    back_project,
    bind,
    dense_matrix,
    forward_project,
    make_cone_geometry,
    make_fan_geometry,
    op_norm_estimate,
)
from tomoflow.geometry import geometry_from_dict
from ray_oracle import ray_for


def reference_integral_2d(values, grid, origin, direction):
    """Line integral of a 2D volume along one ray, re-derived from scratch."""
    axis = int(np.argmax(np.abs(direction)))
    other = 1 - axis
    total = 0.0
    other_c0 = grid.origin[other] - (grid.shape[other] - 1) / 2.0 * grid.voxel_size
    for i, c in enumerate(grid.axis_centers(axis)):
        t = (c - origin[axis]) / direction[axis]
        pos = origin[other] + t * direction[other]
        f = (pos - other_c0) / grid.voxel_size
        j = int(np.floor(f))
        w_hi = f - j
        sample = 0.0
        if 0 <= j < grid.shape[other]:
            vox = (i, j) if axis == 0 else (j, i)
            sample += (1.0 - w_hi) * values[vox]
        if 0 <= j + 1 < grid.shape[other]:
            vox = (i, j + 1) if axis == 0 else (j + 1, i)
            sample += w_hi * values[vox]
        total += sample
    return total * grid.voxel_size / abs(direction[axis])


def reference_integral_3d(values, grid, origin, direction):
    """Line integral of a 3D volume along one ray, re-derived from scratch."""
    axis = int(np.argmax(np.abs(direction)))
    o1, o2 = [a for a in range(3) if a != axis]
    c0 = [grid.origin[a] - (grid.shape[a] - 1) / 2.0 * grid.voxel_size for a in range(3)]
    total = 0.0
    for i, c in enumerate(grid.axis_centers(axis)):
        t = (c - origin[axis]) / direction[axis]
        f1 = (origin[o1] + t * direction[o1] - c0[o1]) / grid.voxel_size
        f2 = (origin[o2] + t * direction[o2] - c0[o2]) / grid.voxel_size
        j1, j2 = int(np.floor(f1)), int(np.floor(f2))
        for k1, w1 in ((j1, 1.0 - (f1 - j1)), (j1 + 1, f1 - j1)):
            for k2, w2 in ((j2, 1.0 - (f2 - j2)), (j2 + 1, f2 - j2)):
                if 0 <= k1 < grid.shape[o1] and 0 <= k2 < grid.shape[o2]:
                    vox = [0, 0, 0]
                    vox[axis], vox[o1], vox[o2] = i, k1, k2
                    total += w1 * w2 * values[tuple(vox)]
    return total * grid.voxel_size / abs(direction[axis])


def disk_volume(grid, radius, value):
    xs = grid.axis_centers(0)[:, None]
    ys = grid.axis_centers(1)[None, :]
    return Volume(grid, np.where(xs**2 + ys**2 <= radius**2, value, 0.0))


def test_zero_volume_projects_to_zero():
    grid = VolumeGrid((16, 16), 1.0)
    geom = make_fan_geometry(8, 11, 100.0, 50.0)
    p = forward_project(Volume.zeros(grid), geom)
    assert np.all(p.values == 0.0)


def test_single_pixel_chord_length():
    # axis-aligned central ray through a lone pixel: integral = value * size
    grid = VolumeGrid((1, 1), 2.0)
    geom = make_fan_geometry(1, 1, 100.0, 100.0)
    p = forward_project(Volume(grid, np.array([[3.0]])), geom)
    assert p.values[0, 0] == pytest.approx(6.0, abs=1e-12)


def test_disk_center_ray_chord():
    grid = VolumeGrid((64, 64), 1.0)
    radius, value = 12.0, 0.02
    geom = make_fan_geometry(1, 9, 200.0, 200.0, detector_pixel_size=0.5)
    p = forward_project(disk_volume(grid, radius, value), geom)
    center = p.values[0, 4]
    assert abs(center - 2.0 * radius * value) < 2.0 * grid.voxel_size * value


# Scans for the oracle tests below.  The second detector is wider than the
# grid: its outer rays miss the grid, and rays grazing its edge get
# interpolation taps of weight 0.
ORACLE_FANS = (
    make_fan_geometry(12, 9, 40.0, 20.0, detector_pixel_size=1.3),
    make_fan_geometry(12, 15, 40.0, 20.0, detector_pixel_size=1.5),
)
ORACLE_CONES = (
    make_cone_geometry(8, 5, 7, 20.0, 10.0, 1.3),
    make_cone_geometry(8, 7, 15, 20.0, 10.0, 1.5),
)


def test_forward_matches_reference_oracle():
    rng = np.random.default_rng(11)
    grid = VolumeGrid((7, 7), 1.0)
    values = rng.random(grid.shape)
    for geom in ORACLE_FANS:
        p = forward_project(Volume(grid, values), geom)
        for i in range(0, 12, 3):
            for j in range(geom.n_detectors):
                ray = ray_for(geom, i, j)
                want = reference_integral_2d(values, grid, ray.origin, ray.direction)
                assert p.values[i, j] == pytest.approx(want, abs=1e-10)
    assert np.any(p.values == 0.0)


def test_forward_matches_reference_oracle_3d():
    # x- and y-driven rays cross different slice counts on this grid
    rng = np.random.default_rng(12)
    grid = VolumeGrid((7, 5, 6), 1.0, origin=(0.4, -0.3, 0.2))
    values = rng.random(grid.shape)
    for geom in ORACLE_CONES:
        p = forward_project(Volume(grid, values), geom)
        driving = set()
        for i in range(8):
            for j, k in [(0, 0), (2, 3), (4, 6), (1, 5), (6, 4), (3, 10), (0, 14)]:
                if j >= geom.detector_rows or k >= geom.detector_cols:
                    continue
                ray = ray_for(geom, i, (j, k))
                driving.add(int(np.argmax(np.abs(ray.direction))))
                want = reference_integral_3d(values, grid, ray.origin, ray.direction)
                assert p.values[i, j, k] == pytest.approx(want, abs=1e-10)
        assert driving == {0, 1}
    assert np.any(p.values == 0.0)


def test_zero_sinogram_backprojects_to_zero():
    grid = VolumeGrid((8, 8), 1.0)
    geom = make_fan_geometry(4, 5, 60.0, 30.0)
    vol = back_project(Sinogram.zeros(geom), grid)
    assert np.all(vol.values == 0.0)


def test_adjoint_dot_product_2d():
    grid = VolumeGrid((32, 32), 1.0)
    geom = make_fan_geometry(16, 47, 60.0, 60.0)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = Volume(grid, rng.standard_normal(grid.shape))
        y = rng.standard_normal((16, 47))
        ax = forward_project(x, geom)
        aty = back_project(Sinogram(geom, y), grid)
        lhs = float(ax.values.ravel() @ y.ravel())
        rhs = float(x.values.ravel() @ aty.values.ravel())
        denom = np.linalg.norm(ax.values) * np.linalg.norm(y)
        assert abs(lhs - rhs) / denom < 1e-10


def test_adjoint_dot_product_3d():
    grid = VolumeGrid((16, 16, 16), 1.0)
    geom = make_cone_geometry(10, 12, 12, 40.0, 40.0, 2.0)
    rng = np.random.default_rng(1)
    for _ in range(3):
        x = Volume(grid, rng.standard_normal(grid.shape))
        y = rng.standard_normal((10, 12, 12))
        ax = forward_project(x, geom)
        aty = back_project(Sinogram(geom, y), grid)
        lhs = float(ax.values.ravel() @ y.ravel())
        rhs = float(x.values.ravel() @ aty.values.ravel())
        denom = np.linalg.norm(ax.values) * np.linalg.norm(y)
        assert abs(lhs - rhs) / denom < 1e-10


def test_single_ray_backprojection_weights():
    # unit sinogram entry smears exactly the interpolation weights of the ray
    grid = VolumeGrid((4, 4), 1.0)
    geom = make_fan_geometry(1, 1, 100.0, 100.0)
    vol = back_project(Sinogram(geom, np.ones((1, 1))), grid)
    # central horizontal ray at y = 0 falls midway between rows 1 and 2:
    # every x column gets 0.5 in each of those rows, scaled by the step length
    expected = np.zeros((4, 4))
    expected[:, 1] = 0.5
    expected[:, 2] = 0.5
    assert np.allclose(vol.values, expected, atol=1e-12)
    # off-ray voxels are exactly zero
    assert np.all(vol.values[:, 0] == 0.0)
    assert np.all(vol.values[:, 3] == 0.0)


def test_single_ray_tilted_matches_oracle():
    grid = VolumeGrid((5, 5), 1.0)
    geom = make_fan_geometry(5, 1, 30.0, 10.0, angular_range=(0.2, 1.8))
    p = np.zeros((5, 1))
    p[2, 0] = 1.0
    vol = back_project(Sinogram(geom, p), grid)
    # adjoint column = forward row: check <A^T e_r, x> = (Ax)_r on random x
    rng = np.random.default_rng(5)
    x = rng.random(grid.shape)
    ray = ray_for(geom, 2, 0)
    want = reference_integral_2d(x, grid, ray.origin, ray.direction)
    assert float(vol.values.ravel() @ x.ravel()) == pytest.approx(want, abs=1e-10)


def test_linearity():
    grid = VolumeGrid((16, 16), 1.0)
    geom = make_fan_geometry(9, 13, 50.0, 25.0)
    rng = np.random.default_rng(2)
    x1 = Volume(grid, rng.standard_normal(grid.shape))
    x2 = Volume(grid, rng.standard_normal(grid.shape))
    a, b = 2.5, -1.25
    combo = forward_project(Volume(grid, a * x1.values + b * x2.values), geom)
    split = a * forward_project(x1, geom).values + b * forward_project(x2, geom).values
    assert np.max(np.abs(combo.values - split)) < 1e-12 * max(1.0, np.max(np.abs(split)))


def test_nonnegative_inputs_give_nonnegative_projections():
    grid = VolumeGrid((12, 12), 1.0)
    geom = make_fan_geometry(7, 9, 45.0, 20.0)
    rng = np.random.default_rng(3)
    x = Volume(grid, rng.random(grid.shape))
    assert np.all(forward_project(x, geom).values >= 0.0)
    # the kernel weights themselves are non-negative
    mat = dense_matrix(geom, grid)
    assert mat.min() >= 0.0


def test_dense_equivalence_2d():
    grid = VolumeGrid((8, 8), 1.0)
    geom = make_fan_geometry(6, 9, 30.0, 15.0)
    mat = dense_matrix(geom, grid)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(grid.shape)
    y = rng.standard_normal(geom.n_rays)
    fwd = forward_project(Volume(grid, x), geom).values.ravel()
    assert np.max(np.abs(fwd - mat @ x.ravel())) < 1e-10
    adj = back_project(Sinogram(geom, y.reshape(6, 9)), grid).values.ravel()
    assert np.max(np.abs(adj - mat.T @ y)) < 1e-10


def test_dense_equivalence_3d():
    grid = VolumeGrid((4, 4, 4), 1.0)
    geom = make_cone_geometry(5, 4, 4, 20.0, 10.0, 1.5)
    mat = dense_matrix(geom, grid)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(grid.shape)
    y = rng.standard_normal(geom.n_rays)
    fwd = forward_project(Volume(grid, x), geom).values.ravel()
    assert np.max(np.abs(fwd - mat @ x.ravel())) < 1e-10
    adj = back_project(
        Sinogram(geom, y.reshape(5, 4, 4)), grid
    ).values.ravel()
    assert np.max(np.abs(adj - mat.T @ y)) < 1e-10


def test_op_norm_degenerate_single_ray():
    grid = VolumeGrid((1, 1), 2.0)
    geom = make_fan_geometry(1, 1, 100.0, 100.0)
    est = op_norm_estimate(geom, grid, 10)
    assert est == pytest.approx(2.0, rel=1e-12)
    for n_power_iters in (0, 1.5, True):
        with pytest.raises(ValueError, match="n_power_iters"):
            op_norm_estimate(geom, grid, n_power_iters)


def test_op_norm_monotone_in_iterations():
    grid = VolumeGrid((8, 8), 1.0)
    geom = make_fan_geometry(8, 11, 30.0, 15.0)
    assert op_norm_estimate(geom, grid, 50) >= op_norm_estimate(geom, grid, 5) - 1e-9


def test_op_norm_against_dense_svd():
    grid = VolumeGrid((8, 8), 1.0)
    geom = make_fan_geometry(8, 11, 30.0, 15.0)
    sigma = np.linalg.svd(dense_matrix(geom, grid), compute_uv=False)[0]
    est = op_norm_estimate(geom, grid, 60)
    assert abs(est - sigma) / sigma < 0.01


def test_bound_projector_matches_functions():
    grid = VolumeGrid((12, 12), 1.0)
    geom = make_fan_geometry(6, 9, 40.0, 20.0)
    op = bind(geom, grid)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(grid.shape)
    y = rng.standard_normal(geom.n_rays)
    assert np.array_equal(
        op.forward(x), forward_project(Volume(grid, x), geom).values.ravel()
    )
    assert np.array_equal(
        op.adjoint(y), back_project(Sinogram(geom, y.reshape(6, 9)), grid).values
    )


def test_dimension_mismatch_rejected():
    grid3 = VolumeGrid((4, 4, 4), 1.0)
    fan = make_fan_geometry(4, 5, 30.0, 15.0)
    with pytest.raises(ShapeMismatchError):
        forward_project(Volume.zeros(grid3), fan)
    cone = make_cone_geometry(4, 4, 4, 30.0, 15.0, 1.0)
    with pytest.raises(ShapeMismatchError):
        back_project(Sinogram.zeros(cone), VolumeGrid((8, 8), 1.0))


def test_nonfinite_volume_rejected():
    grid = VolumeGrid((4, 4), 1.0)
    geom = make_fan_geometry(2, 3, 30.0, 15.0)
    bad = np.zeros(grid.shape)
    bad[1, 1] = np.nan
    with pytest.raises(ValueError):
        forward_project(Volume(grid, bad), geom)


def test_equal_setups_share_one_matrix(monkeypatch):
    monkeypatch.setattr(projector, "_MATRICES", {})
    builds = []
    ray_bundle = projector.ray_bundle

    def counting_ray_bundle(geom):
        builds.append(geom)
        return ray_bundle(geom)

    monkeypatch.setattr(projector, "ray_bundle", counting_ray_bundle)
    op1 = bind(make_fan_geometry(7, 13, 41.0, 19.0), VolumeGrid((10, 9), 1.0))
    op2 = bind(make_fan_geometry(7, 13, 41.0, 19.0), VolumeGrid((10, 9), 1.0))
    assert op1.geom is not op2.geom and op1.grid is not op2.grid
    assert op2._matrix is op1._matrix
    assert len(builds) == 1


@pytest.mark.parametrize(
    "other", [VolumeGrid((10, 10), 1.0, origin=(0.5, 0.0)), VolumeGrid((10, 10), 1.25)]
)
def test_grid_differing_in_placement_gets_its_own_matrix(other):
    geom = make_fan_geometry(6, 11, 40.0, 20.0)
    base = bind(geom, VolumeGrid((10, 10), 1.0))
    op = bind(geom, other)
    assert op._matrix is not base._matrix
    x = np.random.default_rng(13).random((10, 10))
    assert not np.allclose(op.forward(x), base.forward(x))


def test_outputs_never_alias_the_cached_matrix():
    grid = VolumeGrid((9, 9), 1.0)
    geom = make_fan_geometry(5, 11, 40.0, 20.0)
    op = bind(geom, grid)
    mat = op._matrix
    # the held adjoint is a view on the cached arrays, not a second copy
    assert np.shares_memory(op._matrix_t.data, mat.data)
    rng = np.random.default_rng(14)
    x = rng.random(grid.shape)
    y = rng.random(geom.n_rays)
    before = mat.toarray()
    outs = [
        op.forward(x),
        op.adjoint(y),
        projector.forward_project_array(x, grid, geom),
        projector.back_project_array(y, grid, geom),
    ]
    for out in outs:
        for arr in (mat.data, mat.indices, mat.indptr):
            assert not np.shares_memory(out, arr)
        out[...] = -1.0
    assert np.array_equal(mat.toarray(), before)
    # every caller shares the matrix, so it cannot be written through
    with pytest.raises(ValueError):
        mat.data[0] = 0.0


def test_cold_build_memory_is_bounded_by_matrix_size(monkeypatch):
    # a 180-view scan: the matrix is about 20 MB; building it from the taps
    # of all rays at once peaked near 7x that
    monkeypatch.setattr(projector, "_MATRICES", {})
    grid = VolumeGrid((64, 64), 1.0)
    geom = make_fan_geometry(180, 95, 150.0, 150.0, detector_pixel_size=1.5)
    tracemalloc.start()
    try:
        op = bind(geom, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    mat = op._matrix
    nbytes = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    assert peak <= 3 * nbytes


def test_forward_matches_reference_oracle_3d_on_rotation_blocks():
    # a centred grid with a square in-plane shape and odd sides: 8 views make
    # 4 blocks, and views 2-7 come from the first block's rows turned in-plane
    rng = np.random.default_rng(15)
    grid = VolumeGrid((7, 7, 5), 1.0)
    values = rng.random(grid.shape)
    geom = make_cone_geometry(8, 5, 7, 20.0, 10.0, 1.3)
    assert projector._rotation_blocks(geom, grid) == 4
    p = forward_project(Volume(grid, values), geom)
    driving = set()
    for i in range(8):
        for j, k in [(0, 0), (2, 3), (4, 6), (1, 5), (3, 1)]:
            ray = ray_for(geom, i, (j, k))
            driving.add(int(np.argmax(np.abs(ray.direction))))
            want = reference_integral_3d(values, grid, ray.origin, ray.direction)
            assert p.values[i, j, k] == pytest.approx(want, abs=1e-10)
    assert driving == {0, 1}


@pytest.mark.parametrize("shape", [(5, 5), (4, 4, 3)])
def test_turn_matches_rot90(shape):
    x = np.arange(np.prod(shape), dtype=float).reshape(shape)
    for q in range(-4, 5):
        assert np.array_equal(projector._turn(x, q), np.rot90(x, q, axes=(0, 1)))


def _full_rows(geom, grid):
    """The g = 1 matrix: every ray's row, with no rotation blocks."""
    org, dirs = projector.ray_bundle(geom)
    return projector._matrix_rows(grid, org, dirs)


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


FAN_64 = dict(n_detectors=95, source_distance=150.0, detector_distance=150.0,
              detector_pixel_size=1.5)
CONE_16 = dict(detector_rows=12, detector_cols=12, source_distance=60.0,
               detector_distance=60.0, detector_pixel_size=2.0)


@pytest.mark.parametrize(
    "geom, grid, g",
    [(make_fan_geometry(n, **FAN_64), VolumeGrid((64, 64), 1.0), g)
     for n, g in [(30, 2), (32, 4), (180, 4)]]
    + [(make_cone_geometry(n, **CONE_16), VolumeGrid((16, 16, 16), 1.0), g)
       for n, g in [(30, 2), (32, 4)]]
    + [
        # the cone-recon benchmark setup: 8640 of 17280 rows
        (make_cone_geometry(30, 24, 24, 120.0, 120.0, 3.0), VolumeGrid((32, 32, 32), 1.0), 2),
        # a full turn from any start, given in degrees: its span in radians
        # is off 2 pi by rounding
        (geometry_from_dict({"kind": "fan", "n_angles": 32, "n_detectors": 11,
                             "angular_range": [123.4, 483.4], "source_distance": 40.0,
                             "detector_distance": 20.0, "detector_pixel_size": 1.0}),
         VolumeGrid((10, 10), 1.0), 4),
        # the z origin and side do not matter
        (make_cone_geometry(32, 4, 5, 40.0, 20.0, 1.5),
         VolumeGrid((6, 6, 3), 1.0, origin=(0.0, 0.0, 0.7)), 4),
    ],
)
def test_rotation_blocks_agree_with_every_ray_built(geom, grid, g):
    op = bind(geom, grid)
    assert op._n_blocks == g
    assert op._matrix.shape == (geom.n_rays // g, grid.n_voxels)
    full = _full_rows(geom, grid)
    rng = np.random.default_rng(16)
    x = rng.standard_normal(grid.shape)
    y = rng.standard_normal(geom.n_rays)
    assert _rel(op.forward(x), full @ x.ravel()) < 1e-13
    assert _rel(op.adjoint(y).ravel(), full.T @ y) < 1e-13


@pytest.mark.parametrize(
    "geom, grid",
    [(make_fan_geometry(n, 23, 40.0, 40.0, detector_pixel_size=1.0), VolumeGrid((16, 16), 1.0))
     for n in (30, 32, 180)]
    + [(make_cone_geometry(n, 6, 6, 30.0, 30.0, 2.0), VolumeGrid((8, 8, 8), 1.0))
       for n in (30, 32)],
)
def test_dense_matrix_expands_the_rotation_blocks(geom, grid):
    # the same view counts as above on smaller grids: dense 64^2 fan
    # matrices are 93 MB at 30 views and 560 MB at 180
    assert projector._rotation_blocks(geom, grid) > 1
    assert _rel(dense_matrix(geom, grid), _full_rows(geom, grid).toarray()) < 1e-13


@pytest.mark.parametrize(
    "geom, grid",
    [
        # a partial arc
        (make_fan_geometry(32, 11, 40.0, 20.0, angular_range=(0.0, np.pi)),
         VolumeGrid((10, 10), 1.0)),
        # an odd view count
        (make_fan_geometry(31, 11, 40.0, 20.0), VolumeGrid((10, 10), 1.0)),
        # an in-plane origin off the rotation axis
        (make_fan_geometry(32, 11, 40.0, 20.0), VolumeGrid((10, 10), 1.0, origin=(0.5, 0.0))),
        (make_cone_geometry(32, 4, 5, 40.0, 20.0, 1.5),
         VolumeGrid((6, 6, 4), 1.0, origin=(0.0, -0.5, 0.0))),
        # a non-square in-plane shape
        (make_fan_geometry(32, 11, 40.0, 20.0), VolumeGrid((10, 9), 1.0)),
        (make_cone_geometry(32, 4, 5, 40.0, 20.0, 1.5), VolumeGrid((6, 5, 6), 1.0)),
    ],
)
def test_setups_without_the_symmetry_store_every_row(geom, grid):
    op = bind(geom, grid)
    assert op._n_blocks == 1
    assert op._matrix.shape[0] == geom.n_rays


@pytest.mark.parametrize(
    "geom, grid, g",
    [
        (make_fan_geometry(31, **FAN_64), VolumeGrid((64, 64), 1.0), 1),
        (make_fan_geometry(30, **FAN_64), VolumeGrid((64, 64), 1.0), 2),
        (make_fan_geometry(180, **FAN_64), VolumeGrid((64, 64), 1.0), 4),
        (make_cone_geometry(30, **CONE_16), VolumeGrid((16, 16, 16), 1.0), 2),
        (make_cone_geometry(32, **CONE_16), VolumeGrid((16, 16, 16), 1.0), 4),
    ],
    ids=["fan-31-g1", "fan-30-g2", "fan-180-g4", "cone-30-g2", "cone-32-g4"],
)
def test_adjoint_is_the_per_block_sum_bitwise(geom, grid, g):
    # A^T is one multi-column product M^T Y; column k must be the mat-vec
    # M^T y_k bit for bit, summed over the blocks in order
    op = bind(geom, grid)
    assert op._n_blocks == g
    y = np.random.default_rng(17).standard_normal(geom.n_rays)
    n = op._matrix.shape[0]
    want = (op._matrix_t @ y[:n]).reshape(grid.shape)
    for k in range(1, g):
        block = (op._matrix_t @ y[k * n:(k + 1) * n]).reshape(grid.shape)
        want += np.rot90(block, 4 * k // g, axes=(0, 1))
    before = y.copy()
    got = op.adjoint(y)
    assert got.shape == grid.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    # it owns its data: writing to it changes neither the input nor a later
    # result
    assert not np.shares_memory(got, y)
    got[...] = np.nan
    assert np.array_equal(y, before)
    assert op.adjoint(y).tobytes() == want.tobytes()


def test_cache_evicts_the_least_recently_used_setup(monkeypatch):
    monkeypatch.setattr(projector, "_MATRICES", {})
    builds = []
    ray_bundle = projector.ray_bundle

    def counting_ray_bundle(geom):
        builds.append(geom)
        return ray_bundle(geom)

    monkeypatch.setattr(projector, "ray_bundle", counting_ray_bundle)
    grid = VolumeGrid((10, 10), 1.0)
    geom_a, geom_b, geom_c = (make_fan_geometry(8, 13, d, 19.0) for d in (41.0, 43.0, 47.0))
    sizes = [projector._matrix_bytes(bind(geom, grid)._matrix) for geom in (geom_a, geom_b, geom_c)]
    projector._MATRICES.clear()
    builds.clear()
    # room for two of the three setups
    monkeypatch.setattr(projector, "_CACHE_BYTES", sum(sizes) - 1)
    bind(geom_a, grid)
    op_b = bind(geom_b, grid)
    x = np.random.default_rng(18).random(grid.shape)
    before = op_b.forward(x)
    bind(geom_a, grid)  # a is now more recently used than b
    bind(geom_c, grid)
    assert list(projector._MATRICES) == [(geom_a, grid), (geom_c, grid)]
    assert len(builds) == 3
    # the evicted block lives on in the projector that holds it
    assert np.array_equal(op_b.forward(x), before)
    again = bind(geom_b, grid)
    assert len(builds) == 4
    assert np.array_equal(again.forward(x), before)
    bind(geom_b, grid)
    assert len(builds) == 4
    assert list(projector._MATRICES) == [(geom_c, grid), (geom_b, grid)]
