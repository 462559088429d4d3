"""Ramp filtering, fan-beam FBP, and cone-beam FDK reconstruction."""

import numpy as np
import pytest

from tomoflow import (
    InvalidGeometryError,
    Sinogram,
    Volume,
    VolumeGrid,
    fbp_fan,
    fdk_cone,
    forward_project,
    make_cone_geometry,
    make_fan_geometry,
    ramp_filter,
)
from analytic_oracle import fbp_fan_oracle, fdk_cone_oracle


def disk_2d(grid, radius, value):
    xs = grid.axis_centers(0)[:, None]
    ys = grid.axis_centers(1)[None, :]
    return np.where(xs**2 + ys**2 <= radius**2, value, 0.0)


def test_ramp_zero_row():
    assert np.all(ramp_filter(np.zeros(33), 1.0) == 0.0)


def test_ramp_impulse_taps():
    # discrete spatial-domain kernel: 1/(4s^2) at 0, 0 at even lags,
    # -1/(pi^2 k^2 s^2) at odd lags
    n, s = 9, 2.0
    imp = np.zeros(n)
    imp[4] = 1.0
    out = ramp_filter(imp, s)
    assert out[4] == pytest.approx(1.0 / (4.0 * s * s), rel=1e-12)
    for k in (1, 3):
        want = -1.0 / (np.pi**2 * k**2 * s * s)
        assert out[4 + k] == pytest.approx(want, rel=1e-12)
        assert out[4 - k] == pytest.approx(want, rel=1e-12)
    for k in (2, 4):
        assert abs(out[4 + k]) < 1e-15


def test_ramp_dc_suppression_decays_with_length():
    # the truncated kernel keeps a small positive DC response that shrinks
    # roughly like 1/n; at 64 samples it sits just above 1e-2 of the input
    ratios = []
    for n in (64, 256, 1024):
        out = ramp_filter(np.ones(n), 1.0)
        ratios.append(abs(np.mean(out)))
    assert ratios[0] < 1.1e-2
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < 1e-3


def test_ramp_linearity_and_shift_invariance():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(32)
    b = rng.standard_normal(32)
    lhs = ramp_filter(2.0 * a - 3.0 * b, 1.0)
    rhs = 2.0 * ramp_filter(a, 1.0) - 3.0 * ramp_filter(b, 1.0)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    # interior response to a shifted impulse is the shifted response
    imp = np.zeros(64)
    imp[30] = 1.0
    shifted = np.zeros(64)
    shifted[33] = 1.0
    r0 = ramp_filter(imp, 1.0)
    r1 = ramp_filter(shifted, 1.0)
    assert np.max(np.abs(r1[13:53] - r0[10:50])) < 1e-12


def test_hann_window_softens_center_tap():
    imp = np.zeros(33)
    imp[16] = 1.0
    ram = ramp_filter(imp, 1.0)
    han = ramp_filter(imp, 1.0, window="hann")
    assert 0.0 < han[16] < ram[16]
    with pytest.raises(ValueError):
        ramp_filter(imp, 1.0, window="butterworth")


def test_fbp_zero_sinogram():
    grid = VolumeGrid((16, 16), 1.0)
    geom = make_fan_geometry(12, 17, 60.0, 30.0)
    rec = fbp_fan(Sinogram.zeros(geom), grid)
    assert np.all(rec.values == 0.0)


def test_fbp_disk_interior_value():
    grid = VolumeGrid((256, 256), 1.0)
    radius, value = 26.0, 0.02
    truth = disk_2d(grid, radius, value)
    geom = make_fan_geometry(360, 367, 250.0, 250.0, detector_pixel_size=0.75)
    p = forward_project(Volume(grid, truth), geom)
    rec = fbp_fan(p, grid, window="ram-lak")
    xs = grid.axis_centers(0)[:, None]
    ys = grid.axis_centers(1)[None, :]
    interior = xs**2 + ys**2 <= (0.7 * radius) ** 2
    mean = rec.values[interior].mean()
    assert abs(mean - value) / value < 0.05


def test_fbp_sparse_view_degrades():
    grid = VolumeGrid((128, 128), 1.0)
    truth = disk_2d(grid, 20.0, 0.02)
    dense = make_fan_geometry(360, 185, 130.0, 130.0, detector_pixel_size=0.75)
    sparse = make_fan_geometry(30, 185, 130.0, 130.0, detector_pixel_size=0.75)
    rec_d = fbp_fan(forward_project(Volume(grid, truth), dense), grid)
    rec_s = fbp_fan(forward_project(Volume(grid, truth), sparse), grid)
    rmse_d = np.sqrt(np.mean((rec_d.values - truth) ** 2))
    rmse_s = np.sqrt(np.mean((rec_s.values - truth) ** 2))
    assert rmse_s > rmse_d


def test_fbp_linearity():
    grid = VolumeGrid((32, 32), 1.0)
    geom = make_fan_geometry(24, 47, 80.0, 40.0)
    rng = np.random.default_rng(1)
    p1 = rng.standard_normal((24, 47))
    p2 = rng.standard_normal((24, 47))
    combo = fbp_fan(Sinogram(geom, 1.5 * p1 - 0.5 * p2), grid).values
    split = (
        1.5 * fbp_fan(Sinogram(geom, p1), grid).values
        - 0.5 * fbp_fan(Sinogram(geom, p2), grid).values
    )
    assert np.max(np.abs(combo - split)) < 1e-10 * np.max(np.abs(split))


def test_fdk_zero_projections():
    grid = VolumeGrid((8, 8, 8), 1.0)
    geom = make_cone_geometry(6, 8, 8, 40.0, 20.0, 1.5)
    rec = fdk_cone(Sinogram.zeros(geom), grid)
    assert np.all(rec.values == 0.0)


def test_fdk_ball_interior_value():
    grid = VolumeGrid((64, 64, 64), 1.0)
    xs = grid.axis_centers(0)[:, None, None]
    ys = grid.axis_centers(1)[None, :, None]
    zs = grid.axis_centers(2)[None, None, :]
    radius, value = 14.0, 0.02
    truth = np.where(xs**2 + ys**2 + zs**2 <= radius**2, value, 0.0)
    geom = make_cone_geometry(120, 48, 48, 150.0, 150.0, 3.0)
    p = forward_project(Volume(grid, truth), geom)
    rec = fdk_cone(p, grid, window="ram-lak")
    interior = xs**2 + ys**2 + zs**2 <= (0.6 * radius) ** 2
    mean = rec.values[interior].mean()
    assert abs(mean - value) / value < 0.10


def test_fdk_single_row_equals_fbp():
    grid2 = VolumeGrid((32, 32), 1.0)
    truth2 = disk_2d(grid2, 8.0, 0.02)
    fan = make_fan_geometry(40, 47, 80.0, 40.0, detector_pixel_size=1.2)
    cone = make_cone_geometry(40, 1, 47, 80.0, 40.0, 1.2)
    grid3 = VolumeGrid((32, 32, 1), 1.0)
    pf = forward_project(Volume(grid2, truth2), fan)
    pc = forward_project(Volume(grid3, truth2[:, :, None]), cone)
    rf = fbp_fan(pf, grid2, window="ram-lak")
    rc = fdk_cone(pc, grid3, window="ram-lak")
    scale = np.max(np.abs(rf.values))
    assert np.max(np.abs(rc.values[:, :, 0] - rf.values)) < 1e-8 * scale


def test_fdk_off_midplane_artifacts():
    # structure far above and below the trajectory plane reconstructs worse
    # than the (empty) midplane: the top slice carries the cone-beam error
    grid = VolumeGrid((48, 48, 48), 1.0)
    xs = grid.axis_centers(0)[:, None, None]
    ys = grid.axis_centers(1)[None, :, None]
    zs = grid.axis_centers(2)[None, None, :]
    rr = xs**2 + ys**2
    truth = np.zeros(grid.shape)
    for zc in (-16.0, 16.0):
        truth += np.where((rr <= 12.0**2) & (np.abs(zs - zc) <= 1.5), 0.03, 0.0)
    geom = make_cone_geometry(90, 48, 48, 120.0, 120.0, 2.6)
    rec = fdk_cone(forward_project(Volume(grid, truth), geom), grid)
    err = rec.values - truth
    per_slice = np.sqrt(np.mean(err**2, axis=(0, 1)))
    top = per_slice[40]
    central = per_slice[24]
    assert top > 1e-4
    assert top > central


def test_fdk_midplane_matches_2d_problem():
    # a phantom confined to the central slices reconstructs nearly as well
    # as the equivalent 2D scan at the same sampling
    grid3 = VolumeGrid((32, 32, 32), 1.0)
    grid2 = VolumeGrid((32, 32), 1.0)
    disk = disk_2d(grid2, 9.0, 0.02)
    truth3 = np.zeros(grid3.shape)
    truth3[:, :, 15] = disk
    truth3[:, :, 16] = disk
    cone = make_cone_geometry(60, 32, 32, 90.0, 45.0, 1.8)
    fan = make_fan_geometry(60, 32, 90.0, 45.0, detector_pixel_size=1.8)
    rec3 = fdk_cone(forward_project(Volume(grid3, truth3), cone), grid3)
    rec2 = fbp_fan(forward_project(Volume(grid2, disk), fan), grid2)
    rmse_mid = np.sqrt(np.mean((rec3.values[:, :, 15] - disk) ** 2))
    rmse_2d = np.sqrt(np.mean((rec2.values - disk) ** 2))
    assert rmse_mid < 1.5 * rmse_2d


def test_geometry_type_mismatch():
    fan = make_fan_geometry(4, 5, 30.0, 15.0)
    cone = make_cone_geometry(4, 4, 4, 30.0, 15.0, 1.0)
    with pytest.raises(InvalidGeometryError):
        fbp_fan(Sinogram.zeros(cone), VolumeGrid((4, 4, 4), 1.0))
    with pytest.raises(InvalidGeometryError):
        fdk_cone(Sinogram.zeros(fan), VolumeGrid((4, 4), 1.0))
    # the right scan onto a grid of the wrong dimension
    with pytest.raises(InvalidGeometryError):
        fbp_fan(Sinogram.zeros(fan), VolumeGrid((4, 4, 4), 1.0))
    with pytest.raises(InvalidGeometryError):
        fdk_cone(Sinogram.zeros(cone), VolumeGrid((4, 4), 1.0))


# The cone-recon benchmark scan, and variants that move each term of the
# row interpolation: the trajectory height (z offset), a partial arc (angles)
# and a non-square, off-centre grid (magnification and z at every voxel).
CONE_RECON = dict(
    n_angles=30, detector_rows=24, detector_cols=24,
    source_distance=120.0, detector_distance=120.0, detector_pixel_size=3.0,
)
CONE_VARIANTS = {
    "cone-recon": ({}, ((32, 32, 32), 1.0, None)),
    "raised-trajectory": ({"trajectory_height": 7.5}, ((32, 32, 32), 1.0, None)),
    "partial-arc": ({"angular_range": (0.3, 0.3 + 0.6 * np.pi)}, ((32, 32, 32), 1.0, None)),
    "non-square-grid": ({}, ((20, 28, 12), 1.25, (1.5, -2.0, 4.0))),
}


@pytest.mark.parametrize("window", ["ram-lak", "hann"])
@pytest.mark.parametrize("setup", sorted(CONE_VARIANTS))
def test_fdk_matches_the_four_tap_oracle(setup, window):
    geom_kw, (shape, voxel, origin) = CONE_VARIANTS[setup]
    geom = make_cone_geometry(**{**CONE_RECON, **geom_kw})
    grid = VolumeGrid(shape, voxel, origin)
    rng = np.random.default_rng(12)
    p = Sinogram(geom, rng.standard_normal((geom.n_angles,) + geom.detector_shape))
    want = fdk_cone_oracle(p, grid, window)
    got = fdk_cone(p, grid, window).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("window", ["ram-lak", "hann"])
@pytest.mark.parametrize(
    "geom, grid",
    [
        # the fan-recon benchmark scan
        (make_fan_geometry(30, 95, 150.0, 150.0, detector_pixel_size=1.5), VolumeGrid((64, 64), 1.0)),
        (
            make_fan_geometry(17, 40, 70.0, 20.0, (0.5, 2.5), detector_pixel_size=1.25),
            VolumeGrid((24, 36), 0.8, (2.0, -1.0)),
        ),
    ],
    ids=["fan-recon", "partial-arc-off-centre"],
)
def test_fbp_is_bitwise_the_one_row_formula(geom, grid, window):
    rng = np.random.default_rng(13)
    p = Sinogram(geom, rng.standard_normal((geom.n_angles,) + geom.detector_shape))
    assert np.array_equal(fbp_fan(p, grid, window).values, fbp_fan_oracle(p, grid, window))
