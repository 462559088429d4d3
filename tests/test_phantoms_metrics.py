"""Tests for phantom generation, measurement simulation, and quality metrics.

The Shepp-Logan generator is compared voxel by voxel against a test-local
point-in-ellipse evaluation of the same table.  Noise models are checked
statistically over a large ray count with fixed seeds, and the metric
functions against hand-computed values.
"""

import math

import numpy as np
import pytest

from tomoflow import (
    NoiseModel,
    PhantomSpec,
    Volume,
    VolumeGrid,
    compute_metrics,
    forward_project,
    make_fan_geometry,
    make_phantom,
    psnr,
    rmse,
    simulate_measurement,
    ssim,
)

# standard Shepp-Logan table: (a, b, x0, y0, angle_deg, intensity)
ELLIPSES = (
    (0.69, 0.92, 0.0, 0.0, 0.0, 2.0),
    (0.6624, 0.8740, 0.0, -0.0184, 0.0, -0.98),
    (0.11, 0.31, 0.22, 0.0, -18.0, -0.02),
    (0.16, 0.41, -0.22, 0.0, 18.0, -0.02),
    (0.21, 0.25, 0.0, 0.35, 0.0, 0.01),
    (0.046, 0.046, 0.0, 0.1, 0.0, 0.01),
    (0.046, 0.046, 0.0, -0.1, 0.0, 0.01),
    (0.046, 0.023, -0.08, -0.605, 0.0, 0.01),
    (0.023, 0.023, 0.0, -0.606, 0.0, 0.01),
    (0.023, 0.046, 0.06, -0.605, 0.0, 0.01),
)


def ellipse_sum(x, y):
    """Sum of table intensities over ellipses containing the point."""
    total = 0.0
    for a, b, x0, y0, deg, val in ELLIPSES:
        phi = math.radians(deg)
        u = math.cos(phi) * (x - x0) + math.sin(phi) * (y - y0)
        v = -math.sin(phi) * (x - x0) + math.cos(phi) * (y - y0)
        if (u / a) ** 2 + (v / b) ** 2 <= 1.0:
            total += val
    return total


# --- phantoms ---


def test_shepp_logan_center_voxel():
    # odd size puts a voxel center exactly at the origin, where the two big
    # ellipses overlap: 2.0 - 0.98 = 1.02, mapped onto [0, 0.06] via /2
    ph = make_phantom(PhantomSpec("shepp_logan_2d", (65, 65)))
    assert abs(ph.values[32, 32] - 1.02 * 0.06 / 2.0) < 1e-15


def test_shepp_logan_matches_pointwise_ellipse_sum():
    lo, hi = 0.002, 0.05
    ph = make_phantom(PhantomSpec("shepp_logan_2d", (65, 65), value_range=(lo, hi)))
    grid = VolumeGrid((65, 65), 1.0)
    rng = np.random.default_rng(0)
    for _ in range(30):
        i, j = rng.integers(0, 65, 2)
        ux = grid.axis_centers(0)[i] * 2.0 / 65.0
        uy = grid.axis_centers(1)[j] * 2.0 / 65.0
        expected = lo + ellipse_sum(ux, uy) * (hi - lo) / 2.0
        assert ph.values[i, j] == pytest.approx(expected, abs=1e-15)


def test_phantoms_are_deterministic_and_seed_sensitive():
    spec = PhantomSpec("disk_set", (32, 32), seed=4)
    a = make_phantom(spec)
    b = make_phantom(spec)
    c = make_phantom(PhantomSpec("disk_set", (32, 32), seed=5))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize(
    "kind,size",
    [
        ("disk_set", (32, 32)),
        ("shepp_logan_2d", (32, 32)),
        ("nested_shells_3d", (16, 16, 16)),
        ("walnut_like_3d", (32, 32, 32)),
    ],
)
def test_phantom_values_stay_inside_value_range(kind, size):
    lo, hi = 0.01, 0.05
    ph = make_phantom(PhantomSpec(kind, size, seed=2, value_range=(lo, hi)))
    assert ph.values.shape == size
    assert ph.values.min() >= lo - 1e-15
    assert ph.values.max() <= hi + 1e-15
    assert ph.values.max() > lo  # something was painted


@pytest.mark.parametrize("kind, size", [("disk_set", (16, 16)), ("walnut_like_3d", (8, 8, 8))])
def test_integer_value_range_paints_like_floats(kind, size):
    # before, an integer low end made the phantom an integer array, so every
    # painted value was truncated: a (0, 1) disk set was all zeros
    ints = make_phantom(PhantomSpec(kind, size, seed=1, value_range=(0, 1)))
    floats = make_phantom(PhantomSpec(kind, size, seed=1, value_range=(0.0, 1.0)))
    assert np.array_equal(ints.values, floats.values)
    assert ints.values.max() > 0.5


def test_phantom_grid_uses_requested_voxel_size():
    ph = make_phantom(PhantomSpec("disk_set", (16, 16), voxel_size=0.5))
    assert ph.grid.voxel_size == 0.5
    # shapes live in normalized coordinates, so the pattern is unchanged
    ref = make_phantom(PhantomSpec("disk_set", (16, 16), voxel_size=2.0))
    assert np.array_equal(ph.values, ref.values)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "unknown", "size": (8, 8)},
        {"kind": "disk_set", "size": (8, 8, 8)},
        {"kind": "walnut_like_3d", "size": (8, 8)},
        {"kind": "disk_set", "size": (0, 8)},
        {"kind": "disk_set", "size": (8, 8), "value_range": (0.06, 0.0)},
        {"kind": "disk_set", "size": (8, 8), "voxel_size": 0.0},
        {"kind": "disk_set", "size": (8, 8), "value_range": (0.0, math.inf)},
        {"kind": "disk_set", "size": (8, 8), "value_range": (math.nan, 0.06)},
        {"kind": "disk_set", "size": (8, 8), "voxel_size": math.inf},
        {"kind": "disk_set", "size": (8, 8), "voxel_size": math.nan},
        {"kind": "disk_set", "size": (8.5, 8)},
        {"kind": "disk_set", "size": (8, True)},
        {"kind": "disk_set", "size": (8, 8), "seed": 1.5},
        {"kind": "disk_set", "size": (8, 8), "seed": -3},
        {"kind": "disk_set", "size": (8, 8), "voxel_size": True},
        {"kind": "disk_set", "size": (8, 8), "value_range": (0.0, True)},
    ],
)
def test_phantom_spec_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        PhantomSpec(**kwargs)


# --- measurement simulation ---


def scan_setup():
    truth = make_phantom(PhantomSpec("disk_set", (64, 64), seed=3))
    geom = make_fan_geometry(120, 95, 150.0, 150.0, detector_pixel_size=1.5)
    return truth, geom, forward_project(truth, geom)


def test_noiseless_simulation_equals_forward_projection():
    truth, geom, clean = scan_setup()
    sim = simulate_measurement(truth, geom, NoiseModel("none"), seed=123)
    assert np.array_equal(sim.values, clean.values)


def test_gaussian_noise_statistics():
    truth, geom, clean = scan_setup()
    sigma = 0.05
    noisy = simulate_measurement(truth, geom, NoiseModel("gaussian", sigma=sigma), seed=7)
    delta = noisy.values - clean.values
    assert delta.size == 120 * 95
    assert abs(delta.std() - sigma) < 0.03 * sigma
    assert abs(delta.mean()) < 3.0 * sigma / math.sqrt(delta.size)


def test_noise_is_deterministic_per_seed():
    truth, geom, _ = scan_setup()
    model = NoiseModel("gaussian", sigma=0.05)
    a = simulate_measurement(truth, geom, model, seed=7)
    b = simulate_measurement(truth, geom, model, seed=7)
    c = simulate_measurement(truth, geom, model, seed=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_poisson_noise_vanishes_at_high_flux():
    # at i0 = 1e12 the relative count fluctuation is ~1e-5, so the log
    # measurement stays within 1e-4 of the clean line integrals
    truth, geom, clean = scan_setup()
    noisy = simulate_measurement(truth, geom, NoiseModel("poisson", i0=1e12), seed=9)
    assert np.max(np.abs(noisy.values - clean.values)) < 1e-4
    assert not np.array_equal(noisy.values, clean.values)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "salt"},
        {"kind": "gaussian", "sigma": -0.1},
        {"kind": "poisson", "i0": 0.0},
        {"kind": "poisson", "i0": -10.0},
        {"kind": "gaussian", "sigma": math.nan},
        {"kind": "gaussian", "sigma": math.inf},
        {"kind": "poisson", "i0": math.inf},
        {"kind": "poisson", "i0": math.nan},
        {"kind": "gaussian", "sigma": True},
        {"kind": "poisson", "i0": True},
    ],
)
def test_noise_model_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        NoiseModel(**kwargs)


@pytest.mark.parametrize(
    "kind, field, value",
    [("none", "sigma", 0.5), ("poisson", "sigma", 0.1), ("none", "i0", 1e4), ("gaussian", "i0", 1e4)],
)
def test_noise_model_rejects_fields_its_kind_does_not_read(kind, field, value):
    # before, NoiseModel("none", sigma=0.5) simulated a noiseless scan
    with pytest.raises(ValueError, match=field):
        NoiseModel(kind, **{field: value})
    # the default, given explicitly, changes nothing and is accepted
    NoiseModel(kind, **{field: getattr(NoiseModel(), field)})


# --- metrics ---


def test_rmse_hand_computed_value():
    a = np.array([0.01, 0.02])
    b = np.array([0.013, 0.025])
    # sqrt((0.003^2 + 0.005^2) / 2)
    assert abs(rmse(a, b) - 0.004123105625617661) < 1e-12


def test_rmse_identities():
    a = np.random.default_rng(0).uniform(0.0, 1.0, (16, 16))
    b = a + np.random.default_rng(1).normal(0.0, 0.1, (16, 16))
    assert rmse(a, a) == 0.0
    assert rmse(a, b) == rmse(b, a)
    assert rmse(a + 0.25, b + 0.25) == pytest.approx(rmse(a, b), rel=1e-12)


def test_psnr_identity_is_infinite():
    a = np.random.default_rng(2).uniform(0.0, 1.0, (8, 8))
    assert psnr(a, a) == math.inf


def test_psnr_hand_computed_value():
    a = np.array([0.0, 0.0])
    b = np.array([2.0, 2.0])  # reference max 2.0 is the default data_range
    assert psnr(a, b) == pytest.approx(20.0 * math.log10(2.0 / 2.0), abs=1e-12)
    assert psnr(a, b, data_range=4.0) == pytest.approx(20.0 * math.log10(4.0 / 2.0), abs=1e-12)


def test_psnr_rejects_bad_data_range():
    a = np.ones((4, 4))
    with pytest.raises(ValueError):
        psnr(a, np.zeros((4, 4)))  # reference max is 0
    with pytest.raises(ValueError):
        psnr(a, a, data_range=-1.0)


def test_ssim_of_identical_volumes_is_exactly_one():
    a = np.random.default_rng(1).uniform(-1.0, 1.0, (32, 32))
    assert ssim(a, a, data_range=2.0) == 1.0


def test_ssim_symmetric_with_explicit_data_range():
    a = np.random.default_rng(1).uniform(-1.0, 1.0, (32, 32))
    b = a + np.random.default_rng(2).normal(0.0, 0.1, (32, 32))
    forward = ssim(a, b, data_range=2.0)
    assert forward == ssim(b, a, data_range=2.0)
    assert 0.0 < forward < 1.0


def test_ssim_penalizes_heavier_distortion():
    a = np.random.default_rng(3).uniform(0.0, 1.0, (32, 32))
    mild = a + np.random.default_rng(4).normal(0.0, 0.02, (32, 32))
    harsh = a + np.random.default_rng(4).normal(0.0, 0.2, (32, 32))
    assert ssim(harsh, a, data_range=1.0) < ssim(mild, a, data_range=1.0)


def test_ssim_works_in_3d():
    a = np.random.default_rng(5).uniform(0.0, 1.0, (16, 16, 16))
    assert ssim(a, a, data_range=1.0) == 1.0
    b = a + np.random.default_rng(6).normal(0.0, 0.05, (16, 16, 16))
    assert 0.0 < ssim(a, b, data_range=1.0) < 1.0


def test_masked_rmse_equals_subset_rmse():
    a = np.random.default_rng(7).uniform(0.0, 1.0, (12, 12))
    b = np.random.default_rng(8).uniform(0.0, 1.0, (12, 12))
    mask = np.zeros((12, 12), dtype=bool)
    mask[3:9, 3:9] = True
    direct = float(np.sqrt(np.mean((a[3:9, 3:9] - b[3:9, 3:9]) ** 2)))
    assert rmse(a, b, mask=mask) == pytest.approx(direct, rel=1e-15)
    # voxels outside the mask must not influence the result
    a2 = a.copy()
    a2[0, 0] += 100.0
    assert rmse(a2, b, mask=mask) == rmse(a, b, mask=mask)


def test_metrics_reject_bad_masks_and_shapes():
    a = np.ones((8, 8))
    with pytest.raises(ValueError):
        rmse(a, a, mask=np.zeros((8, 8), dtype=bool))  # empty mask
    with pytest.raises(ValueError):
        rmse(a, a, mask=np.ones((4, 4), dtype=bool))  # wrong mask shape
    with pytest.raises(ValueError):
        rmse(a, np.ones((8, 9)))
    with pytest.raises(ValueError):
        ssim(a, np.ones((4, 4)))


def test_metrics_accept_volume_objects():
    grid = VolumeGrid((16, 16), 1.0)
    a = Volume(grid, np.random.default_rng(9).uniform(0.0, 1.0, (16, 16)))
    b = Volume(grid, a.values + 0.01)
    assert rmse(a, b) == pytest.approx(0.01, rel=1e-12)


def test_compute_metrics_bundles_the_three_numbers():
    a = np.random.default_rng(10).uniform(0.0, 1.0, (16, 16))
    b = a + np.random.default_rng(11).normal(0.0, 0.05, (16, 16))
    out = compute_metrics(a, b, data_range=1.0)
    assert set(out) == {"rmse", "psnr", "ssim"}
    assert out["rmse"] == rmse(a, b)
    assert out["psnr"] == psnr(a, b, data_range=1.0)
    assert out["ssim"] == ssim(a, b, data_range=1.0)
