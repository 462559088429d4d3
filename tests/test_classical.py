"""Tests for the iterative baselines: SIRT and TV-regularized gradient descent.

The SIRT update is checked against a one-ray problem it must solve in a
single iteration, against its own per-iteration log (the data term must
never increase), and against FBP on a well-posed scan it should beat.
The TV path is checked against finite differences of tv_value, against a
hand-rolled Landweber loop it must reproduce bitwise when the weight is
zero, and against SIRT on a noisy sparse-view scan where flat regions
must come out flatter.
"""

import csv
import math
import warnings

import numpy as np
import pytest

from tomoflow import (
    IterConfig,
    Sinogram,
    Volume,
    VolumeGrid,
    bind,
    fbp_fan,
    forward_project,
    make_fan_geometry,
    sirt,
    tv_reconstruct,
    tv_value,
)
from tomoflow.classical import _tv_gradient_array


def disk_volume(grid, radius, value):
    xs = grid.axis_centers(0)[:, None]
    ys = grid.axis_centers(1)[None, :]
    return np.where(xs**2 + ys**2 <= radius**2, value, 0.0)


def interior_mask(grid, radius):
    xs = grid.axis_centers(0)[:, None]
    ys = grid.axis_centers(1)[None, :]
    return xs**2 + ys**2 <= radius**2


def rmse_to(values, truth):
    return float(np.sqrt(np.mean((values - truth) ** 2)))


def read_log(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# --- SIRT ---


def test_sirt_single_voxel_single_ray_converges_in_one_iteration():
    # 1x1 grid, one central ray: R and C both equal 1/chord, so the first
    # update lands exactly on the solution of A x = p.
    grid = VolumeGrid((1, 1), 2.0)
    geom = make_fan_geometry(1, 1, 50.0, 50.0, detector_pixel_size=3.0)
    op = bind(geom, grid)
    chord = op.forward(np.ones((1, 1)))[0]
    assert chord == pytest.approx(2.0, abs=1e-12)

    rec = sirt(Sinogram(geom, np.array([[6.0]])), grid, IterConfig(n_iters=1))
    assert abs(rec.values[0, 0] - 3.0) < 1e-12


def test_sirt_zero_sinogram_stays_zero():
    grid = VolumeGrid((16, 16), 1.0)
    geom = make_fan_geometry(8, 21, 60.0, 40.0, detector_pixel_size=2.0)
    rec = sirt(Sinogram(geom, np.zeros((8, 21))), grid, IterConfig(n_iters=10))
    assert np.array_equal(rec.values, np.zeros((16, 16)))


def test_sirt_residual_monotone_and_beats_fbp(tmp_path):
    grid = VolumeGrid((64, 64), 1.0)
    truth = disk_volume(grid, 14.0, 0.03)
    geom = make_fan_geometry(60, 95, 150.0, 150.0, detector_pixel_size=1.5)
    p = forward_project(Volume(grid, truth), geom)

    log_path = tmp_path / "sirt.csv"
    rec = sirt(
        p,
        grid,
        IterConfig(n_iters=200, nonneg=True),
        log_path=log_path,
        reference=truth,
    )

    rows = read_log(log_path)
    assert len(rows) == 201
    assert list(rows[0].keys()) == ["iteration", "data_term", "tv_term", "rmse_vs_reference"]
    data_terms = np.array([float(r["data_term"]) for r in rows])
    assert np.all(np.diff(data_terms) <= 0.0)
    # logged rmse of the last iterate is the rmse of the returned volume
    assert float(rows[-1]["rmse_vs_reference"]) == pytest.approx(
        rmse_to(rec.values, truth), abs=1e-15
    )

    rec_fbp = fbp_fan(p, grid, window="ram-lak")
    assert rmse_to(rec.values, truth) < rmse_to(rec_fbp.values, truth)


def test_sirt_nonneg_clips_exactly():
    grid = VolumeGrid((64, 64), 1.0)
    truth = disk_volume(grid, 14.0, 0.03)
    geom = make_fan_geometry(30, 95, 150.0, 150.0, detector_pixel_size=1.5)
    p = forward_project(Volume(grid, truth), geom)
    negated = Sinogram(geom, -np.abs(p.values))

    clipped = sirt(negated, grid, IterConfig(n_iters=5, nonneg=True))
    free = sirt(negated, grid, IterConfig(n_iters=5, nonneg=False))
    assert clipped.values.min() == 0.0
    assert free.values.min() < 0.0


def test_sirt_log_without_reference_leaves_rmse_empty(tmp_path):
    grid = VolumeGrid((8, 8), 1.0)
    geom = make_fan_geometry(4, 11, 30.0, 20.0, detector_pixel_size=2.0)
    p = forward_project(Volume(grid, disk_volume(grid, 2.5, 1.0)), geom)
    log_path = tmp_path / "plain.csv"
    sirt(p, grid, IterConfig(n_iters=3), log_path=log_path)
    rows = read_log(log_path)
    assert len(rows) == 4
    assert all(r["rmse_vs_reference"] == "" for r in rows)


def test_sirt_rejects_non_finite_sinogram():
    grid = VolumeGrid((4, 4), 1.0)
    geom = make_fan_geometry(2, 3, 20.0, 10.0, detector_pixel_size=2.0)
    values = np.zeros((2, 3))
    values[1, 1] = np.inf
    with pytest.raises(ValueError):
        sirt(Sinogram(geom, values), grid, IterConfig(n_iters=1))


# --- TV functional ---


def test_tv_gradient_of_constant_is_zero():
    g = _tv_gradient_array(np.full((12, 12), 0.7), eps=1e-3)
    assert np.array_equal(g, np.zeros((12, 12)))


def test_tv_gradient_of_ramp_vanishes_in_interior():
    # constant slope means constant flux, so the divergence cancels away
    # from the two boundary rows
    ramp = np.arange(16.0)[:, None] * 0.01 * np.ones((1, 16))
    g = _tv_gradient_array(ramp, eps=1e-6)
    assert np.max(np.abs(g[1:-1, :])) < 1e-8
    assert np.max(np.abs(g[0, :])) > 0.5


def test_tv_gradient_matches_finite_differences_of_tv_value():
    rng = np.random.default_rng(7)
    eps, h = 0.05, 1e-6
    for _ in range(5):
        x = rng.normal(0.0, 1.0, (8, 8))
        v = rng.normal(0.0, 1.0, (8, 8))
        fd = (tv_value(x + h * v, eps) - tv_value(x - h * v, eps)) / (2.0 * h)
        analytic = float(np.sum(_tv_gradient_array(x, eps) * v))
        assert abs(fd - analytic) < 1e-6 * abs(analytic)


def test_tv_value_of_constant_is_eps_per_site():
    values = np.full((5, 9), 2.5)
    assert tv_value(values, eps=0.01) == pytest.approx(5 * 9 * 0.01, rel=1e-12)


# --- TV reconstruction ---


def test_tv_with_zero_weight_is_landweber_bitwise():
    grid = VolumeGrid((8, 8), 1.0)
    geom = make_fan_geometry(6, 11, 40.0, 25.0, detector_pixel_size=1.5)
    rng = np.random.default_rng(3)
    p = Sinogram(geom, rng.normal(0.0, 1.0, (6, 11)))
    lam = 1e-4

    rec = tv_reconstruct(p, grid, IterConfig(n_iters=25, step_size=lam, tv_weight=0.0))

    op = bind(geom, grid)
    x = np.zeros((8, 8))
    p_flat = p.values.reshape(-1)
    for _ in range(25):
        x = x - lam * op.adjoint(op.forward(x) - p_flat)
    assert np.array_equal(rec.values, x)


def test_tv_zero_weight_drives_residual_to_zero_on_consistent_data():
    # mu = 0 gradient descent is Landweber; on a consistent system the
    # residual decays geometrically
    grid = VolumeGrid((4, 4), 1.0)
    geom = make_fan_geometry(3, 2, 20.0, 15.0, detector_pixel_size=4.0)
    rng = np.random.default_rng(11)
    truth = rng.uniform(0.0, 1.0, (4, 4))
    p = forward_project(Volume(grid, truth), geom)

    rec = tv_reconstruct(p, grid, IterConfig(n_iters=4000, tv_weight=0.0))
    residual = forward_project(rec, geom).values - p.values
    assert np.max(np.abs(residual)) < 1e-8


def test_tv_zero_sinogram_stays_zero():
    grid = VolumeGrid((8, 8), 1.0)
    geom = make_fan_geometry(4, 9, 30.0, 20.0, detector_pixel_size=2.0)
    rec = tv_reconstruct(
        Sinogram(geom, np.zeros((4, 9))),
        grid,
        IterConfig(n_iters=10, tv_weight=1e-3, tv_eps=1e-2),
    )
    assert np.array_equal(rec.values, np.zeros((8, 8)))


def test_tv_objective_non_increasing(tmp_path):
    grid = VolumeGrid((64, 64), 1.0)
    truth = disk_volume(grid, 14.0, 0.03)
    geom = make_fan_geometry(30, 95, 150.0, 150.0, detector_pixel_size=1.5)
    clean = forward_project(Volume(grid, truth), geom)
    noisy = Sinogram(
        geom, clean.values + np.random.default_rng(42).normal(0.0, 0.02, clean.values.shape)
    )

    log_path = tmp_path / "tv.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # default step must respect the descent bound
        tv_reconstruct(
            noisy, grid, IterConfig(n_iters=150, tv_weight=1e-4), log_path=log_path
        )

    rows = read_log(log_path)
    assert len(rows) == 151
    objective = np.array([float(r["data_term"]) + float(r["tv_term"]) for r in rows])
    assert np.all(np.diff(objective) <= 0.0)


def test_tv_beats_fbp_and_flattens_regions_on_noisy_sparse_scan():
    # 30 angles with mild Gaussian noise: TV should land closer to the
    # phantom than FBP and leave the disk interior flatter than SIRT does
    grid = VolumeGrid((64, 64), 1.0)
    truth = disk_volume(grid, 14.0, 0.03)
    geom = make_fan_geometry(30, 95, 150.0, 150.0, detector_pixel_size=1.5)
    clean = forward_project(Volume(grid, truth), geom)
    noisy = Sinogram(
        geom, clean.values + np.random.default_rng(42).normal(0.0, 0.02, clean.values.shape)
    )

    rec_fbp = fbp_fan(noisy, grid, window="ram-lak")
    rec_sirt = sirt(noisy, grid, IterConfig(n_iters=200, nonneg=True))
    rec_tv = tv_reconstruct(noisy, grid, IterConfig(n_iters=150, tv_weight=1e-4))

    assert rmse_to(rec_tv.values, truth) < rmse_to(rec_fbp.values, truth)

    interior = interior_mask(grid, 0.7 * 14.0)
    assert rec_tv.values[interior].var() < rec_sirt.values[interior].var()


def test_tv_warns_when_step_exceeds_descent_bound():
    grid = VolumeGrid((16, 16), 1.0)
    geom = make_fan_geometry(8, 21, 60.0, 40.0, detector_pixel_size=2.0)
    p = forward_project(Volume(grid, disk_volume(grid, 4.0, 1.0)), geom)
    with pytest.warns(UserWarning, match="descent bound"):
        tv_reconstruct(
            p, grid, IterConfig(n_iters=2, step_size=1.0, tv_weight=1e-4, tv_eps=1e-8)
        )


def test_tv_rejects_non_finite_sinogram():
    grid = VolumeGrid((4, 4), 1.0)
    geom = make_fan_geometry(2, 3, 20.0, 10.0, detector_pixel_size=2.0)
    values = np.zeros((2, 3))
    values[0, 2] = np.nan
    with pytest.raises(ValueError):
        tv_reconstruct(Sinogram(geom, values), grid, IterConfig(n_iters=1))


def test_warm_start_from_x0_is_used():
    grid = VolumeGrid((8, 8), 1.0)
    geom = make_fan_geometry(4, 9, 30.0, 20.0, detector_pixel_size=2.0)
    truth = disk_volume(grid, 2.5, 1.0)
    p = forward_project(Volume(grid, truth), geom)
    x0 = Volume(grid, truth.copy())

    # starting at the answer with consistent data, the first residual is zero
    rec = sirt(p, grid, IterConfig(n_iters=1), x0=x0)
    assert np.max(np.abs(rec.values - truth)) < 1e-12
    rec_tv = tv_reconstruct(p, grid, IterConfig(n_iters=1, tv_weight=0.0), x0=x0)
    assert np.max(np.abs(rec_tv.values - truth)) < 1e-12


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_iters": 0},
        {"n_iters": -3},
        {"step_size": 0.0},
        {"step_size": -1.0},
        {"tv_weight": -1e-9},
        {"tv_eps": 0.0},
        {"tv_eps": -1e-8},
        {"n_iters": True},
        {"step_size": math.inf},
        {"step_size": math.nan},
        {"tv_weight": math.inf},
        {"tv_weight": math.nan},
        {"tv_eps": math.inf},
        {"tv_eps": math.nan},
        {"n_iters": 2.5},
        {"n_iters": 3.0},
        {"step_size": True},
        {"tv_weight": True},
        {"tv_eps": True},
    ],
)
def test_iter_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        IterConfig(**kwargs)
    # a numpy integer is a count, stored as an int
    assert type(IterConfig(n_iters=np.int64(3)).n_iters) is int
