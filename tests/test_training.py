"""Tests for the field-of-view mask, Adam, and the training loop.

The loop's bookkeeping is checked against externally recomputed values:
the epoch-0 and epoch-1 validation rows must equal reconstruct_node run by
hand, the checkpoint must hold the minimum of the history's validation
column, and a run split by a checkpoint resume must reproduce the
uninterrupted run's history file byte for byte.
"""

import csv
import dataclasses
import json
import logging
import math
import struct

import numpy as np
import pytest

from tomoflow import (
    ConfigError,
    DataFormatError,
    DivergenceError,
    NetArch,
    NetParams,
    NoiseModel,
    OdeConfig,
    PhantomSpec,
    TrainConfig,
    VolumeGrid,
    fov_mask,
    init_params,
    l1_fov_loss,
    load_checkpoint,
    make_cone_geometry,
    make_fan_geometry,
    make_phantom,
    reconstruct_node,
    save_checkpoint,
    simulate_measurement,
    train,
)
from tomoflow import ode, training
from tomoflow.training import AdamState, Checkpoint, adam_step


def tiny_sets(n_train=2, n_val=1, sigma=0.01):
    """Small noisy scans of disk phantoms with exact-truth targets."""
    grid = VolumeGrid((8, 8), 1.0)
    geom = make_fan_geometry(6, 11, 30.0, 20.0, detector_pixel_size=1.5)
    samples = []
    for seed in range(n_train + n_val):
        truth = make_phantom(PhantomSpec("disk_set", (8, 8), seed=seed))
        p = simulate_measurement(
            truth, geom, NoiseModel("gaussian", sigma=sigma), seed=100 + seed
        )
        samples.append((p, truth))
    return grid, geom, samples[:n_train], samples[n_train:]


def read_history(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# --- field-of-view mask ---


def test_mask_without_geometry_is_capped_by_the_grid():
    # 4x4 grid: radius 1.5, so only the four centermost voxels qualify
    mask = fov_mask(VolumeGrid((4, 4), 1.0), None)
    expected = np.zeros((4, 4))
    expected[1:3, 1:3] = 1.0
    assert np.array_equal(mask.values, expected)


def test_mask_is_rotation_symmetric_on_odd_grids():
    mask = fov_mask(VolumeGrid((9, 9), 1.0), None)
    assert mask.values.sum() == 45.0
    assert np.array_equal(mask.values, np.rot90(mask.values))
    assert mask.values[4, 4] == 1.0
    assert mask.values[0, 0] == 0.0


def test_narrow_detector_shrinks_the_mask():
    # one 2mm detector pixel at 100mm total distance subtends a ~0.5mm
    # radius at the isocenter: only the central voxel stays inside
    geom = make_fan_geometry(4, 1, 50.0, 50.0, detector_pixel_size=2.0)
    mask = fov_mask(VolumeGrid((5, 5), 1.0), geom)
    assert mask.values.sum() == 1.0
    assert mask.values[2, 2] == 1.0


def test_cone_mask_is_a_cylinder():
    geom = make_cone_geometry(6, 9, 8, 40.0, 30.0, detector_pixel_size=2.0)
    mask = fov_mask(VolumeGrid((8, 8, 6), 1.0), geom)
    for k in range(1, 6):
        assert np.array_equal(mask.values[:, :, k], mask.values[:, :, 0])
    assert 0.0 < mask.values[:, :, 0].sum() < 64.0


def test_mask_rejects_unknown_geometry_objects():
    with pytest.raises(TypeError):
        fov_mask(VolumeGrid((4, 4), 1.0), object())


# --- loss ---


def test_l1_loss_hand_value():
    grid = VolumeGrid((2, 2), 1.0)
    from tomoflow import Volume

    pred = Volume(grid, np.array([[1.0, 2.0], [3.0, 4.0]]))
    target = Volume(grid, np.zeros((2, 2)))
    mask = Volume(grid, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert l1_fov_loss(pred, target, mask) == pytest.approx(2.5, abs=1e-15)


def test_l1_loss_rejects_bad_inputs():
    grid = VolumeGrid((2, 2), 1.0)
    from tomoflow import Volume

    vol = Volume(grid, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        l1_fov_loss(vol, vol, Volume(grid, np.zeros((2, 2))))  # empty mask
    small = Volume(VolumeGrid((3, 3), 1.0), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        l1_fov_loss(vol, small, Volume(grid, np.ones((2, 2))))


# --- Adam ---


def test_adam_zero_gradient_leaves_parameters_bitwise():
    params = np.array([1.0, -2.0, 0.5])
    updated, state = adam_step(params, np.zeros(3), AdamState.zeros(3), 0.1, TrainConfig())
    assert np.array_equal(updated, params)
    assert state.t == 1


def test_adam_first_step_closed_form():
    # bias correction makes the first step lr * g/(|g| + eps) regardless of
    # the gradient magnitude
    updated, _ = adam_step(np.array([1.0]), np.array([1.0]), AdamState.zeros(1), 0.1, TrainConfig())
    assert updated[0] == 1.0 - 0.1 / (1.0 + 1e-8)
    big, _ = adam_step(np.array([1.0]), np.array([1e6]), AdamState.zeros(1), 0.1, TrainConfig())
    assert big[0] == pytest.approx(0.9, abs=1e-9)


def test_adam_moves_against_the_gradient():
    params = np.array([1.0, 1.0])
    updated, _ = adam_step(params, np.array([2.0, -2.0]), AdamState.zeros(2), 0.1, TrainConfig())
    assert updated[0] < 1.0 < updated[1]


def test_adam_per_entry_learning_rates():
    updated, _ = adam_step(
        np.array([1.0, 1.0]),
        np.array([3.0, 3.0]),
        AdamState.zeros(2),
        np.array([0.1, 0.2]),
        TrainConfig(),
    )
    d1, d2 = 1.0 - updated[0], 1.0 - updated[1]
    assert d2 == pytest.approx(2.0 * d1, rel=1e-12)


def test_adam_rejects_length_mismatch():
    with pytest.raises(ValueError):
        adam_step(np.zeros(3), np.zeros(4), AdamState.zeros(3), 0.1, TrainConfig())


# --- training loop ---


def test_training_history_and_checkpoint_bookkeeping(tmp_path):
    grid, geom, train_set, val_set = tiny_sets()
    arch = NetArch(n_levels=1, base_channels=2)
    ode_cfg = OdeConfig()
    cfg = TrainConfig(epochs=4, seed=3, lr_net=1e-3)
    history = tmp_path / "history.csv"

    ck = train(train_set, val_set, arch, ode_cfg, cfg, history_path=history)

    raw = history.read_text().splitlines()
    assert raw[0] == "epoch,mean_train_loss,mean_val_loss,gamma,adam_t"
    rows = read_history(history)
    assert [r["epoch"] for r in rows] == ["0", "1", "2", "3", "4"]
    assert rows[0]["mean_train_loss"] == ""  # untrained state has no train loss

    # epoch 0 is the untrained model, recomputable from outside the loop
    params0 = init_params(arch, seed=cfg.seed)
    mask = fov_mask(grid, geom)
    val0 = np.mean(
        [
            l1_fov_loss(
                reconstruct_node(p, grid, params0, cfg.gamma_init, ode_cfg), t, mask
            )
            for p, t in val_set
        ]
    )
    assert float(rows[0]["mean_val_loss"]) == float(val0)

    # checkpoint holds the minimum of the validation column
    vals = [float(r["mean_val_loss"]) for r in rows]
    assert ck.val_loss == min(vals)
    assert ck.epoch == int(rows[int(np.argmin(vals))]["epoch"])
    assert ck.epochs_completed == 4

    # nothing diverged: the optimizer stepped once per train sample
    assert [int(r["adam_t"]) for r in rows] == [0, 2, 4, 6, 8]
    assert ck.adam.t == 8

    # gamma column tracks the live value; the final row is the latest state
    for r in rows:
        g = float(r["gamma"])
        assert np.isfinite(g) and g > 0
    assert float(rows[-1]["gamma"]) == ck.latest_flat[-1]


def test_training_is_bitwise_deterministic(tmp_path):
    _, _, train_set, val_set = tiny_sets()
    arch = NetArch(n_levels=1, base_channels=2)
    cfg = TrainConfig(epochs=2, seed=7, lr_net=1e-3)

    h1, h2 = tmp_path / "a.csv", tmp_path / "b.csv"
    ck1 = train(train_set, val_set, arch, OdeConfig(), cfg, history_path=h1)
    ck2 = train(train_set, val_set, arch, OdeConfig(), cfg, history_path=h2)

    assert h1.read_bytes() == h2.read_bytes()
    assert np.array_equal(ck1.params.flatten(), ck2.params.flatten())
    assert ck1.gamma == ck2.gamma
    assert np.array_equal(ck1.latest_flat, ck2.latest_flat)
    assert np.array_equal(ck1.adam.m, ck2.adam.m)


def test_training_runs_the_network_in_float64(monkeypatch):
    # the training sample and its adjoint pass run float64 parameters; the
    # validation solves are reconstruct_node's, on a float32 copy
    seen = []
    phase = ["none"]
    apply, vjp = ode.net_apply_array, ode.net_vjp_array

    def recording_apply(params, x):
        seen.append((phase[0], "apply", params.dtype, x.dtype))
        return apply(params, x)

    def recording_vjp(params, tape, gy):
        seen.append((phase[0], "vjp", params.dtype, gy.dtype))
        return vjp(params, tape, gy)

    def in_phase(name, fn):
        def run(*args):
            phase[0] = name
            try:
                return fn(*args)
            finally:
                phase[0] = "none"
        return run

    monkeypatch.setattr(ode, "net_apply_array", recording_apply)
    monkeypatch.setattr(ode, "net_vjp_array", recording_vjp)
    monkeypatch.setattr(training, "_sample_loss_and_grads",
                        in_phase("sample", training._sample_loss_and_grads))
    monkeypatch.setattr(training, "_val_loss", in_phase("val", training._val_loss))
    _, _, train_set, val_set = tiny_sets()
    train(train_set, val_set, NetArch(n_levels=1, base_channels=2), OdeConfig(),
          TrainConfig(epochs=1, seed=7, lr_net=1e-3))

    sample = [(kind, p, x) for ph, kind, p, x in seen if ph == "sample"]
    val = [(kind, p, x) for ph, kind, p, x in seen if ph == "val"]
    assert len(sample) + len(val) == len(seen)
    assert {kind for kind, _, _ in sample} == {"apply", "vjp"}
    assert all(p == np.float64 and x == np.float64 for _, p, x in sample)
    # two validation passes (epochs 0 and 1) of one scan, 80 evaluations each
    assert len(val) == 2 * 80
    assert all(kind == "apply" and p == np.float32 and x == np.float64 for kind, p, x in val)


def test_validation_loss_is_the_loss_of_reconstruct_node(tmp_path):
    # after one epoch the projection layer is live, so a float64 validation
    # solve would differ from reconstruct_node's float32-network solve
    grid, geom, train_set, val_set = tiny_sets(n_val=2)
    arch = NetArch(n_levels=1, base_channels=2)
    ode_cfg = OdeConfig()
    cfg = TrainConfig(epochs=1, seed=4, lr_net=1e-3, init_window="hann")
    history = tmp_path / "history.csv"
    ck = train(train_set, val_set, arch, ode_cfg, cfg, history_path=history)

    params = NetParams.from_flat(arch, ck.latest_flat[:-1])
    gamma = float(ck.latest_flat[-1])
    assert np.any(params.weights[-1] != 0.0)
    mask = fov_mask(grid, geom)
    val1 = np.mean([
        l1_fov_loss(reconstruct_node(p, grid, params, gamma, ode_cfg, window="hann"), t, mask)
        for p, t in val_set
    ])
    assert float(read_history(history)[1]["mean_val_loss"]) == float(val1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_validation_solve_beyond_float32_range_scores_inf(tmp_path):
    # at gamma 1.0 every solve on this 16x16, 12-view scan grows past the
    # float32 maximum while staying finite in float64; validation must not
    # report such a solve's loss (about 1e47) as a finite number
    geom = make_fan_geometry(12, 23, 30.0, 20.0, detector_pixel_size=1.5)
    samples = []
    for seed in range(4):
        truth = make_phantom(PhantomSpec("disk_set", (16, 16), seed=seed))
        p = simulate_measurement(truth, geom, NoiseModel("gaussian", sigma=0.01), seed=seed)
        samples.append((p, truth))
    history = tmp_path / "history.csv"
    ck = train(samples[:2], samples[2:], NetArch(n_levels=1, base_channels=2), OdeConfig(),
               TrainConfig(epochs=1, seed=3, lr_net=1e-3, gamma_init=1.0),
               history_path=history)

    rows = read_history(history)
    assert rows[0]["epoch"] == "0"
    assert float(rows[0]["mean_val_loss"]) == math.inf
    assert ck.val_loss == math.inf


def test_resumed_run_reproduces_the_uninterrupted_history(tmp_path):
    _, _, train_set, val_set = tiny_sets()
    arch = NetArch(n_levels=1, base_channels=2)
    ode_cfg = OdeConfig()

    straight = tmp_path / "straight.csv"
    ck_full = train(
        train_set,
        val_set,
        arch,
        ode_cfg,
        TrainConfig(epochs=4, seed=3, lr_net=1e-3),
        history_path=straight,
    )

    split = tmp_path / "split.csv"
    ck_half = train(
        train_set,
        val_set,
        arch,
        ode_cfg,
        TrainConfig(epochs=2, seed=3, lr_net=1e-3),
        history_path=split,
    )
    ck_path = tmp_path / "ck.bin"
    save_checkpoint(ck_half, ck_path)
    loaded = load_checkpoint(ck_path)
    ck_resumed = train(
        train_set,
        val_set,
        arch,
        ode_cfg,
        TrainConfig(epochs=2, seed=3, lr_net=1e-3),
        history_path=split,
        resume_from=loaded,
    )

    assert split.read_bytes() == straight.read_bytes()
    assert np.array_equal(ck_resumed.latest_flat, ck_full.latest_flat)
    assert ck_resumed.val_loss == ck_full.val_loss
    assert ck_resumed.epoch == ck_full.epoch
    assert ck_resumed.adam.t == ck_full.adam.t == 8  # 4 epochs x 2 samples


def test_resume_requires_optimizer_state(tmp_path):
    _, _, train_set, val_set = tiny_sets()
    arch = NetArch(n_levels=1, base_channels=2)
    ck = train(
        train_set, val_set, arch, OdeConfig(), TrainConfig(epochs=1, seed=0, lr_net=1e-3)
    )
    ck.adam = None  # simulate a model-only checkpoint
    with pytest.raises(ConfigError):
        train(
            train_set,
            val_set,
            arch,
            OdeConfig(),
            TrainConfig(epochs=1, seed=0, lr_net=1e-3),
            resume_from=ck,
        )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unstable_gain_aborts_the_run():
    _, _, train_set, val_set = tiny_sets()
    arch = NetArch(n_levels=1, base_channels=2)
    cfg = TrainConfig(epochs=1, seed=0, gamma_init=1e6)
    with pytest.raises(DivergenceError, match="aborted"):
        train(train_set, val_set, arch, OdeConfig(), cfg)


# A real solve does not land between "diverges at gamma" and "converges at
# gamma/2" (or "diverges on one sample only") on these tiny scans, so the two
# tests below substitute the per-sample solve.


def test_diverged_sample_is_retried_at_half_gamma(monkeypatch, caplog):
    _, _, train_set, val_set = tiny_sets()
    real = training._sample_loss_and_grads
    gammas = []

    def first_call_diverges(p, target, params, gamma, *args):
        gammas.append(gamma)
        if len(gammas) == 1:
            raise DivergenceError(3, 1e30)
        return real(p, target, params, gamma, *args)

    monkeypatch.setattr(training, "_sample_loss_and_grads", first_call_diverges)
    cfg = TrainConfig(epochs=1, seed=0, lr_net=1e-3)
    with caplog.at_level(logging.WARNING, logger="tomoflow.training"):
        ck = train(train_set, val_set, NetArch(n_levels=1, base_channels=2), OdeConfig(), cfg)

    assert gammas[:2] == [cfg.gamma_init, cfg.gamma_init / 2.0]
    assert len(gammas) == 3  # the retry, then the second sample once
    assert ck.adam.t == 2  # the retried sample's gradients stepped Adam
    assert "retrying at gamma/2" in caplog.text


def test_a_skipped_sample_does_not_abort_the_run(monkeypatch, caplog, tmp_path):
    _, _, train_set, val_set = tiny_sets(n_train=5)
    real = training._sample_loss_and_grads
    bad = train_set[2][0]

    def one_sample_diverges(p, *args):
        if p is bad:
            raise DivergenceError(3, 1e30)
        return real(p, *args)

    monkeypatch.setattr(training, "_sample_loss_and_grads", one_sample_diverges)
    history = tmp_path / "history.csv"
    with caplog.at_level(logging.WARNING, logger="tomoflow.training"):
        ck = train(
            train_set,
            val_set,
            NetArch(n_levels=1, base_channels=2),
            OdeConfig(),
            TrainConfig(epochs=2, seed=0, lr_net=1e-3),
            history_path=history,
        )

    # 1 of 5 samples is within the 20 % an epoch may lose; the other 4 step Adam
    assert [int(r["adam_t"]) for r in read_history(history)] == [0, 4, 8]
    assert ck.adam.t == 8
    assert caplog.text.count("diverged again") == 2


def test_checkpoint_round_trip(tmp_path):
    _, _, train_set, val_set = tiny_sets()
    arch = NetArch(n_levels=1, base_channels=2)
    ck = train(
        train_set, val_set, arch, OdeConfig(), TrainConfig(epochs=2, seed=1, lr_net=1e-3)
    )
    path = tmp_path / "model.bin"
    save_checkpoint(ck, path)

    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.params.flatten(), ck.params.flatten())
    assert loaded.gamma == ck.gamma
    assert loaded.epoch == ck.epoch
    assert loaded.val_loss == ck.val_loss
    assert loaded.epochs_completed == ck.epochs_completed
    assert loaded.ode_cfg == ck.ode_cfg
    assert loaded.train_cfg == ck.train_cfg
    assert loaded.adam.t == ck.adam.t
    assert np.array_equal(loaded.adam.m, ck.adam.m)
    assert np.array_equal(loaded.adam.v, ck.adam.v)
    assert np.array_equal(loaded.latest_flat, ck.latest_flat)


def test_checkpoint_without_optimizer_file_loads_model_only(tmp_path):
    _, _, train_set, val_set = tiny_sets()
    arch = NetArch(n_levels=1, base_channels=2)
    ck = train(
        train_set, val_set, arch, OdeConfig(), TrainConfig(epochs=1, seed=1, lr_net=1e-3)
    )
    path = tmp_path / "model.bin"
    save_checkpoint(ck, path)
    (tmp_path / "model.bin.opt.bin").unlink()
    loaded = load_checkpoint(path)
    assert loaded.adam is None
    assert loaded.latest_flat is None
    assert np.array_equal(loaded.params.flatten(), ck.params.flatten())


def test_corrupt_optimizer_state_is_rejected(tmp_path):
    _, _, train_set, val_set = tiny_sets()
    arch = NetArch(n_levels=1, base_channels=2)
    ck = train(
        train_set, val_set, arch, OdeConfig(), TrainConfig(epochs=1, seed=1, lr_net=1e-3)
    )
    path = tmp_path / "model.bin"
    save_checkpoint(ck, path)

    opt_path = tmp_path / "model.bin.opt.bin"
    raw = bytearray(opt_path.read_bytes())
    opt_path.write_bytes(b"YYYY" + bytes(raw[4:]))
    with pytest.raises(DataFormatError):
        load_checkpoint(path)

    opt_path.write_bytes(bytes(raw[:-24]))  # truncate the payload
    with pytest.raises(DataFormatError):
        load_checkpoint(path)

    # cut inside the header, and to a payload that is not whole f8 values
    for cut in (10, len(raw) - 3):
        opt_path.write_bytes(bytes(raw[:cut]))
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    opt_path.write_bytes(bytes(raw) + bytes(24))  # trailing bytes
    with pytest.raises(DataFormatError):
        load_checkpoint(path)

    # a whole, well-formed file whose n is not the model's n_params + 1
    n = ck.params.n_params  # one entry short
    opt_path.write_bytes(
        b"CTOP" + struct.pack("<IQI", 1, ck.adam.t, n) + np.zeros(3 * n).tobytes()
    )
    with pytest.raises(DataFormatError, match="n_params"):
        load_checkpoint(path)


def hand_checkpoint():
    """A checkpoint with recognisable optimizer arrays, built without training."""
    params = init_params(NetArch(n_levels=1, base_channels=2), 3)
    n = params.n_params + 1
    return Checkpoint(
        params=params,
        gamma=0.25,
        epoch=1,
        val_loss=0.5,
        epochs_completed=2,
        seed=4,
        ode_cfg=OdeConfig(),
        train_cfg=TrainConfig(),
        adam=AdamState(np.arange(n) * 0.5, np.arange(n) * 0.25 + 1.0, 7),
        latest_flat=-np.arange(n) / 3.0,
    )


def test_optimizer_file_layout(tmp_path):
    # magic, then <IQI version, step count t, entry count n, then m, v and
    # the latest (theta, gamma) vector as <f8
    ck = hand_checkpoint()
    path = tmp_path / "model.bin"
    save_checkpoint(ck, path)
    raw = (tmp_path / "model.bin.opt.bin").read_bytes()
    n = ck.params.n_params + 1
    assert raw[:4] == b"CTOP"
    assert struct.unpack("<IQI", raw[4:20]) == (1, 7, n)
    assert len(raw) == 20 + 3 * 8 * n
    m, v, latest = np.frombuffer(raw[20:], "<f8").reshape(3, n)
    assert np.array_equal(m, ck.adam.m)
    assert np.array_equal(v, ck.adam.v)
    assert np.array_equal(latest, ck.latest_flat)


def test_saving_without_optimizer_state_removes_a_stale_one(tmp_path):
    path = tmp_path / "model.bin"
    ck = hand_checkpoint()
    save_checkpoint(ck, path)
    ck.adam, ck.latest_flat, ck.gamma = None, None, 0.5
    save_checkpoint(ck, path)
    assert not (tmp_path / "model.bin.opt.bin").exists()
    loaded = load_checkpoint(path)
    assert loaded.gamma == 0.5
    assert loaded.adam is None
    assert loaded.latest_flat is None


@pytest.mark.parametrize(
    "field, value",
    [
        ("ode", [1]),
        ("train", "adam"),
        ("gamma", [0.25]),
        ("ode", {"t_end": "one"}),
        ("ode", {"t_end": math.inf}),
        ("ode", {"step_size": 0.05, "mu": math.nan}),
        ("train", {"gamma_init": -0.5}),
    ],
    ids=[
        "ode-list", "train-string", "gamma-list", "ode-value-string", "ode-t_end-inf",
        "ode-mu-nan", "train-gamma_init-negative",
    ],
)
def test_checkpoint_sidecar_field_of_wrong_type_is_rejected(tmp_path, field, value):
    path = tmp_path / "model.bin"
    save_checkpoint(hand_checkpoint(), path)
    sidecar = tmp_path / "model.bin.json"
    doc = json.loads(sidecar.read_text())
    doc[field] = value
    sidecar.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="sidecar"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "text",
    ["not json", "[1, 2]", '{"gamma": 0.25}'],
    ids=["not-json", "not-an-object", "missing-field"],
)
def test_broken_checkpoint_sidecar_is_rejected(tmp_path, text):
    path = tmp_path / "model.bin"
    save_checkpoint(hand_checkpoint(), path)
    (tmp_path / "model.bin.json").write_text(text)
    with pytest.raises(DataFormatError, match="sidecar"):
        load_checkpoint(path)


def test_checkpoint_sidecar_with_the_old_batch_size_field_loads(tmp_path):
    # every train section written while TrainConfig had a batch_size field
    # holds it, as 1
    written = {
        "epochs": 3, "batch_size": 1, "lr_net": 2e-3, "lr_gamma": 5e-3, "beta1": 0.8,
        "beta2": 0.99, "eps": 1e-7, "seed": 9, "gamma_init": 0.02, "clip_norm": 0.5,
        "init_window": "hann",
    }
    path = tmp_path / "model.bin"
    save_checkpoint(hand_checkpoint(), path)
    sidecar = tmp_path / "model.bin.json"
    doc = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({**doc, "train": written}))
    loaded = dataclasses.asdict(load_checkpoint(path).train_cfg)
    assert loaded == {k: v for k, v in written.items() if k != "batch_size"}
    for fields in ({"batch_size": 2}, {"clip_norm": None}, {"clip_norm": math.inf}):
        sidecar.write_text(json.dumps({**doc, "train": {**written, **fields}}))
        with pytest.raises(DataFormatError, match="sidecar"):
            load_checkpoint(path)


def test_checkpoint_sidecar_n_params_must_match_the_parameter_file(tmp_path):
    path = tmp_path / "model.bin"
    ck = hand_checkpoint()
    save_checkpoint(ck, path)
    sidecar = tmp_path / "model.bin.json"
    doc = json.loads(sidecar.read_text())
    assert doc["n_params"] == ck.params.n_params
    for wrong in (ck.params.n_params + 1, 0, "777"):
        doc["n_params"] = wrong
        sidecar.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="n_params"):
            load_checkpoint(path)


def test_fresh_run_equals_a_resume_from_a_hand_built_epoch_zero(tmp_path):
    # the epoch-0 checkpoint is built the way the fan-train benchmark builds
    # it: untrained params, gamma_init, zero Adam moments, mean validation loss
    grid, geom, train_set, val_set = tiny_sets(n_train=3, n_val=2)
    arch = NetArch(n_levels=1, base_channels=2)
    ode_cfg = OdeConfig()
    cfg = TrainConfig(epochs=3, seed=5, lr_net=1e-3, init_window="hann")
    mask = fov_mask(grid, geom)
    params = init_params(arch, cfg.seed)
    gamma = cfg.gamma_init
    val0 = np.mean([
        l1_fov_loss(reconstruct_node(p, grid, params, gamma, ode_cfg, window=cfg.init_window),
                    target, mask)
        for p, target in val_set
    ])
    z = np.concatenate([params.flatten(), [gamma]])
    epoch0 = Checkpoint(
        params=params, gamma=gamma, epoch=0, val_loss=float(val0), epochs_completed=0,
        seed=cfg.seed, ode_cfg=ode_cfg, train_cfg=cfg, adam=AdamState.zeros(z.size),
        latest_flat=z,
    )

    fresh_hist, resumed_hist = tmp_path / "fresh.csv", tmp_path / "resumed.csv"
    fresh = train(train_set, val_set, arch, ode_cfg, cfg, history_path=fresh_hist)
    resumed = train(train_set, val_set, arch, ode_cfg, cfg, history_path=resumed_hist,
                    resume_from=epoch0)

    assert np.array_equal(fresh.latest_flat, resumed.latest_flat)
    assert np.array_equal(fresh.params.flatten(), resumed.params.flatten())
    assert fresh.gamma == resumed.gamma
    assert fresh.epoch == resumed.epoch
    assert fresh.val_loss == resumed.val_loss
    assert fresh.adam.t == resumed.adam.t == 9
    fresh_rows = fresh_hist.read_text().splitlines()
    assert fresh_rows[1] == f"0,,{float(val0)!r},{gamma!r},0"
    assert resumed_hist.read_text().splitlines() == [fresh_rows[0]] + fresh_rows[2:]


def test_resume_uses_the_running_configs_adam_settings(tmp_path):
    # the saved run used beta1 0.9; a resume that records beta1 0.5 must step with it
    grid, geom, train_set, val_set = tiny_sets()
    arch = NetArch(n_levels=1, base_channels=2)
    cfg = TrainConfig(epochs=1, seed=2, lr_net=1e-3)
    path = tmp_path / "model.bin"
    save_checkpoint(train(train_set, val_set, arch, OdeConfig(), cfg), path)

    same = train(train_set, val_set, arch, OdeConfig(), cfg, resume_from=load_checkpoint(path))
    changed_cfg = TrainConfig(epochs=1, seed=2, lr_net=1e-3, beta1=0.5)
    changed = train(
        train_set, val_set, arch, OdeConfig(), changed_cfg, resume_from=load_checkpoint(path)
    )
    assert changed.train_cfg.beta1 == 0.5
    assert same.adam.t == changed.adam.t == 4
    assert not np.array_equal(same.latest_flat, changed.latest_flat)
    assert not np.array_equal(same.adam.m, changed.adam.m)


def test_datasets_are_validated():
    grid, geom, train_set, val_set = tiny_sets()
    arch = NetArch(n_levels=1, base_channels=2)
    cfg = TrainConfig(epochs=1)
    with pytest.raises(ConfigError):
        train([], val_set, arch, OdeConfig(), cfg)
    with pytest.raises(ConfigError):
        train(train_set, [], arch, OdeConfig(), cfg)
    p, t = train_set[0]
    with pytest.raises(ConfigError):
        train([(p, p)], val_set, arch, OdeConfig(), cfg)  # target is not a Volume


@pytest.mark.parametrize(
    "kwargs,field",
    [
        ({"epochs": 0}, "epochs"),
        ({"clip_norm": None}, "clip_norm"),
        ({"lr_net": 0.0}, "lr_net"),
        ({"lr_gamma": -1.0}, "lr_gamma"),
        ({"beta1": 1.0}, "beta1"),
        ({"beta2": -0.1}, "beta2"),
        ({"eps": 0.0}, "eps"),
        ({"clip_norm": 0.0}, "clip_norm"),
        ({"epochs": 1.5}, "epochs"),
        ({"epochs": True}, "epochs"),
        ({"seed": 0.5}, "seed"),
        ({"seed": False}, "seed"),
        ({"gamma_init": -0.5}, "gamma_init"),
        ({"gamma_init": math.nan}, "gamma_init"),
        ({"gamma_init": math.inf}, "gamma_init"),
        ({"lr_net": math.inf}, "lr_net"),
        ({"lr_gamma": math.inf}, "lr_gamma"),
        ({"eps": math.inf}, "eps"),
        ({"init_window": "shepp-logan"}, "init_window"),
        ({"clip_norm": math.inf}, "clip_norm"),
    ],
)
def test_train_config_rejects_bad_values(kwargs, field):
    with pytest.raises(ConfigError) as excinfo:
        TrainConfig(**kwargs)
    assert excinfo.value.field == field
