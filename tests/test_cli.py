"""End-to-end tests for the command-line interface.

Every command runs in-process through main(argv) so exit codes, stdout, and
stderr can be checked directly; the one test about numpy's warning output
runs it in a fresh interpreter, whose warning filters are the defaults.
File outputs land in pytest tmp dirs.
"""

import csv
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tomoflow import __version__
from tomoflow.cli import main
from tomoflow.dataio import save_sinogram, save_volume
from tomoflow.geometry import VolumeGrid, make_fan_geometry
from tomoflow.network import NetArch, init_params, save_net_params
from tomoflow.phantoms import NoiseModel, PhantomSpec, make_phantom, simulate_measurement
from tomoflow.projector import Volume
from tomoflow.training import load_checkpoint


def cli(*argv):
    return main([str(a) for a in argv])


FAN_SCAN_CONFIG = {
    "phantom": {"kind": "disk_set", "size": [32, 32], "seed": 5},
    "geometry": {
        "kind": "fan",
        "n_angles": 24,
        "n_detectors": 63,
        "source_distance": 75.0,
        "detector_distance": 75.0,
        "detector_pixel_size": 1.5,
    },
    "noise": {"kind": "gaussian", "sigma": 0.002},
    "seed": 7,
}

CONE_SCAN_CONFIG = {
    "phantom": {"kind": "nested_shells_3d", "size": [16, 16, 16], "seed": 2},
    "geometry": {
        "kind": "cone",
        "n_angles": 12,
        "detector_rows": 31,
        "detector_cols": 31,
        "source_distance": 60.0,
        "detector_distance": 60.0,
        "detector_pixel_size": 2.0,
    },
    "seed": 1,
}


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def fan_scan(tmp_path_factory):
    """Simulated fan-beam scan reused by the reconstruct and eval tests."""
    root = tmp_path_factory.mktemp("fan_scan")
    cfg = write_config(root / "sim.json", FAN_SCAN_CONFIG)
    assert cli("simulate", "--config", cfg, "--out", root / "scan") == 0
    return root / "scan"


@pytest.fixture(scope="module")
def cone_scan(tmp_path_factory):
    root = tmp_path_factory.mktemp("cone_scan")
    cfg = write_config(root / "sim.json", CONE_SCAN_CONFIG)
    assert cli("simulate", "--config", cfg, "--out", root / "scan") == 0
    return root / "scan"


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory):
    """Three tiny sinogram/target pairs plus one- and two-epoch configs."""
    root = tmp_path_factory.mktemp("train_data")
    geom = make_fan_geometry(6, 11, 30.0, 20.0, detector_pixel_size=1.5)
    for i in range(3):
        truth = make_phantom(PhantomSpec(kind="disk_set", size=(8, 8), seed=i))
        sino = simulate_measurement(truth, geom, NoiseModel(kind="none"))
        save_volume(root / f"t{i}.ctv", truth)
        save_sinogram(root / f"s{i}.cts", sino)
    for epochs in (1, 2):
        write_config(
            root / f"cfg{epochs}.json",
            {
                "train": [
                    {"sinogram": "s0.cts", "target": "t0.ctv"},
                    {"sinogram": "s1.cts", "target": "t1.ctv"},
                ],
                "val": [{"sinogram": "s2.cts", "target": "t2.ctv"}],
                "arch": {"n_levels": 1, "base_channels": 2},
                "train_cfg": {"epochs": epochs, "seed": 3, "lr_net": 1e-3},
            },
        )
    return root


# --- simulate ---


def test_simulate_writes_scan_files_and_manifest(fan_scan):
    for name in ("phantom.ctv", "sinogram.cts", "manifest.json"):
        assert (fan_scan / name).exists()
    man = json.loads((fan_scan / "manifest.json").read_text())
    assert man["command"] == "simulate"
    assert man["version"] == __version__
    assert man["phantom"]["kind"] == "disk_set"
    assert man["geometry"]["kind"] == "fan"
    assert man["geometry"]["n_angles"] == 24
    assert man["noise"] == {"kind": "gaussian", "sigma": 0.002, "i0": 1e5}
    assert man["seed"] == 7
    assert man["outputs"] == {"phantom": "phantom.ctv", "sinogram": "sinogram.cts"}
    assert man["angular_increment_deg"] == 15.0


def test_simulate_is_bitwise_reproducible(fan_scan, tmp_path):
    cfg = write_config(tmp_path / "sim.json", FAN_SCAN_CONFIG)
    assert cli("simulate", "--config", cfg, "--out", tmp_path / "again") == 0
    for name in ("phantom.ctv", "sinogram.cts", "manifest.json"):
        assert (tmp_path / "again" / name).read_bytes() == (fan_scan / name).read_bytes()


def test_simulate_manifest_angular_increment_for_120_views(tmp_path):
    doc = dict(FAN_SCAN_CONFIG, geometry=dict(FAN_SCAN_CONFIG["geometry"], n_angles=120))
    cfg = write_config(tmp_path / "sim.json", doc)
    assert cli("simulate", "--config", cfg, "--out", tmp_path / "scan") == 0
    man = json.loads((tmp_path / "scan" / "manifest.json").read_text())
    assert man["angular_increment_deg"] == 3.0


def test_simulate_rejects_negative_sigma(tmp_path, capsys):
    doc = dict(FAN_SCAN_CONFIG, noise={"kind": "gaussian", "sigma": -1.0})
    cfg = write_config(tmp_path / "sim.json", doc)
    assert cli("simulate", "--config", cfg, "--out", tmp_path / "scan") == 2
    err = capsys.readouterr().err
    assert "sigma" in err
    assert not (tmp_path / "scan" / "sinogram.cts").exists()


def test_simulate_rejects_2d_phantom_with_cone_geometry(tmp_path, capsys):
    doc = dict(FAN_SCAN_CONFIG, geometry=CONE_SCAN_CONFIG["geometry"])
    cfg = write_config(tmp_path / "sim.json", doc)
    assert cli("simulate", "--config", cfg, "--out", tmp_path / "scan") == 3
    assert "cone" in capsys.readouterr().err


@pytest.mark.parametrize(
    "base, section, field, value",
    [
        (FAN_SCAN_CONFIG, "geometry", "detector_distance", math.nan),
        (FAN_SCAN_CONFIG, "geometry", "source_distance", math.inf),
        (FAN_SCAN_CONFIG, "geometry", "detector_pixel_size", math.inf),
        (CONE_SCAN_CONFIG, "geometry", "trajectory_height", math.nan),
        (FAN_SCAN_CONFIG, "noise", "sigma", math.nan),
        (FAN_SCAN_CONFIG, "noise", "sigma", math.inf),
        (FAN_SCAN_CONFIG, "noise", "i0", math.inf),
        (FAN_SCAN_CONFIG, "phantom", "value_range", [0.0, math.inf]),
        (FAN_SCAN_CONFIG, "phantom", "voxel_size", math.inf),
    ],
    ids=[
        "fan-detector_distance-nan", "fan-source_distance-inf", "fan-detector_pixel_size-inf",
        "cone-trajectory_height-nan", "sigma-nan", "sigma-inf", "i0-inf",
        "value_range-inf", "voxel_size-inf",
    ],
)
def test_simulate_rejects_non_finite_config_values(tmp_path, capsys, base, section, field, value):
    # json writes NaN and Infinity, which json.loads reads back as floats
    doc = dict(base, **{section: dict(base.get(section, {}), **{field: value})})
    cfg = write_config(tmp_path / "sim.json", doc)
    assert cli("simulate", "--config", cfg, "--out", tmp_path / "scan") == 2
    err = capsys.readouterr().err
    assert section in err and field in err
    assert not (tmp_path / "scan" / "sinogram.cts").exists()


@pytest.mark.parametrize(
    "key, value", [("detector_pixelsize", 1.5), ("trajectory_height", 0.5)]
)
def test_simulate_rejects_unknown_geometry_key(tmp_path, capsys, key, value):
    # before, the key was dropped: the scan ran with 1.0 mm pixels and exit 0
    geometry = dict(FAN_SCAN_CONFIG["geometry"], **{key: value})
    if key == "detector_pixelsize":
        del geometry["detector_pixel_size"]
    cfg = write_config(tmp_path / "sim.json", dict(FAN_SCAN_CONFIG, geometry=geometry))
    assert cli("simulate", "--config", cfg, "--out", tmp_path / "scan") == 2
    err = capsys.readouterr().err
    assert "geometry" in err and key in err
    assert not (tmp_path / "scan" / "sinogram.cts").exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert cli("simulate", "--config", tmp_path / "nope.json", "--out", tmp_path / "o") == 2
    assert "not found" in capsys.readouterr().err


def test_invalid_json_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{oops")
    assert cli("simulate", "--config", cfg, "--out", tmp_path / "o") == 2
    assert "not valid JSON" in capsys.readouterr().err


# --- reconstruct ---


def test_reconstruct_fbp_with_reference_writes_metrics_and_slices(fan_scan, tmp_path, capsys):
    code = cli(
        "reconstruct", "--method", "fbp",
        "--sinogram", fan_scan / "sinogram.cts",
        "--reference", fan_scan / "phantom.ctv",
        "--slices", "--no-timings", "--out", tmp_path,
    )
    assert code == 0
    report = json.loads((tmp_path / "metrics_fbp.json").read_text())
    assert report["method"] == "fbp"
    for key in ("rmse", "psnr", "ssim"):
        assert math.isfinite(report[key])
    assert 0.0 < report["rmse"] < 0.02
    assert "runtime_seconds" not in report
    assert (tmp_path / "recon_fbp.ctv").exists()
    assert (tmp_path / "fbp_slice.pgm").read_bytes().startswith(b"P5\n")
    man = json.loads((tmp_path / "manifest_fbp.json").read_text())
    assert man["outputs"] == {
        "reconstruction": "recon_fbp.ctv",
        "metrics": "metrics_fbp.json",
        "slices": ["fbp_slice.pgm"],
    }
    assert "rmse" in capsys.readouterr().out


def test_reconstruct_without_no_timings_reports_runtime(fan_scan, tmp_path):
    code = cli(
        "reconstruct", "--method", "fbp",
        "--sinogram", fan_scan / "sinogram.cts",
        "--reference", fan_scan / "phantom.ctv", "--out", tmp_path,
    )
    assert code == 0
    report = json.loads((tmp_path / "metrics_fbp.json").read_text())
    assert report["runtime_seconds"] >= 0.0


def test_untrained_node_with_zero_gamma_reproduces_fbp_bytes(fan_scan, tmp_path):
    # gamma 0 plus a fresh network gives zero dynamics, so the ODE output is
    # exactly its initial state: the hann-window FBP both methods default to
    assert cli(
        "reconstruct", "--method", "fbp",
        "--sinogram", fan_scan / "sinogram.cts",
        "--grid-shape", "32,32", "--out", tmp_path / "fbp",
    ) == 0
    assert cli(
        "reconstruct", "--method", "node", "--untrained", "--gamma", "0.0",
        "--sinogram", fan_scan / "sinogram.cts",
        "--grid-shape", "32,32", "--out", tmp_path / "node",
    ) == 0
    fbp = (tmp_path / "fbp" / "recon_fbp.ctv").read_bytes()
    node = (tmp_path / "node" / "recon_node.ctv").read_bytes()
    assert fbp[64:] == node[64:]  # identical payloads behind the two headers


def test_untrained_node_runs_on_cone_data(cone_scan, tmp_path):
    # the untrained network must take the scan's dimension: at gamma 0 the
    # 3D solve stays at its initial state, the FDK volume
    assert cli(
        "reconstruct", "--method", "fdk",
        "--sinogram", cone_scan / "sinogram.cts",
        "--grid-shape", "16,16,16", "--out", tmp_path / "fdk",
    ) == 0
    assert cli(
        "reconstruct", "--method", "node", "--untrained", "--gamma", "0.0",
        "--sinogram", cone_scan / "sinogram.cts",
        "--grid-shape", "16,16,16", "--out", tmp_path / "node",
    ) == 0
    fdk = (tmp_path / "fdk" / "recon_fdk.ctv").read_bytes()
    node = (tmp_path / "node" / "recon_node.ctv").read_bytes()
    assert fdk[64:] == node[64:]


def test_untrained_node_defaults_gamma(fan_scan, tmp_path):
    assert cli(
        "reconstruct", "--method", "node", "--untrained",
        "--sinogram", fan_scan / "sinogram.cts",
        "--grid-shape", "32,32", "--out", tmp_path,
    ) == 0
    man = json.loads((tmp_path / "manifest_node.json").read_text())
    assert man["gamma"] == 0.01
    assert man["untrained"] is True


def test_reconstruct_rerun_is_bitwise_with_threads_1(fan_scan, tmp_path):
    argv = (
        "reconstruct", "--method", "node", "--untrained",
        "--sinogram", fan_scan / "sinogram.cts",
        "--reference", fan_scan / "phantom.ctv", "--grid-shape", "32,32",
        "--no-timings",
    )
    assert cli(*argv, "--out", tmp_path / "a") == 0
    assert cli(*argv, "--out", tmp_path / "b") == 0
    for name in ("recon_node.ctv", "metrics_node.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


NODE_ARGV = ("reconstruct", "--method", "node", "--untrained", "--grid-shape", "32,32")


def test_solve_log_has_one_row_per_step(fan_scan, tmp_path):
    log = tmp_path / "solve.csv"
    assert cli(
        *NODE_ARGV, "--sinogram", fan_scan / "sinogram.cts",
        "--solve-log", log, "--out", tmp_path / "out",
    ) == 0
    with open(log) as fh:
        rows = list(csv.DictReader(fh))
    # the default OdeConfig takes 20 steps of 0.05; a last row holds the end state
    assert [int(r["step"]) for r in rows] == list(range(21))
    assert [float(r["t"]) for r in rows] == [0.05 * i for i in range(21)]
    assert all(float(r["residual_norm"]) > 0.0 for r in rows)
    assert all(r["f_norm"] for r in rows[:-1]) and rows[-1]["f_norm"] == ""
    man = json.loads((tmp_path / "out" / "manifest_node.json").read_text())
    assert man["solve_log"] == str(log)


def test_solve_log_leaves_the_volume_unchanged(fan_scan, tmp_path):
    for name, extra in (("plain", ()), ("logged", ("--solve-log", tmp_path / "solve.csv"))):
        assert cli(
            *NODE_ARGV, "--sinogram", fan_scan / "sinogram.cts", *extra,
            "--out", tmp_path / name,
        ) == 0
    plain = (tmp_path / "plain" / "recon_node.ctv").read_bytes()
    assert (tmp_path / "logged" / "recon_node.ctv").read_bytes() == plain


def test_solve_log_needs_the_node_method(fan_scan, tmp_path, capsys):
    code = cli(
        "reconstruct", "--method", "fbp", "--sinogram", fan_scan / "sinogram.cts",
        "--grid-shape", "32,32", "--solve-log", tmp_path / "solve.csv", "--out", tmp_path,
    )
    assert code == 2
    assert "solve-log" in capsys.readouterr().err
    assert not (tmp_path / "solve.csv").exists()


def test_node_without_checkpoint_exits_2(fan_scan, tmp_path, capsys):
    code = cli(
        "reconstruct", "--method", "node",
        "--sinogram", fan_scan / "sinogram.cts",
        "--grid-shape", "32,32", "--out", tmp_path,
    )
    assert code == 2
    assert "--checkpoint or --untrained" in capsys.readouterr().err


def test_node_checkpoint_untrained_conflict_exits_2(fan_scan, tmp_path, capsys):
    code = cli(
        "reconstruct", "--method", "node", "--untrained",
        "--checkpoint", tmp_path / "whatever.ckpt",
        "--sinogram", fan_scan / "sinogram.cts",
        "--grid-shape", "32,32", "--out", tmp_path,
    )
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_truncated_checkpoint_exits_3(fan_scan, tmp_path, capsys):
    ckpt = tmp_path / "short.ckpt"
    save_net_params(ckpt, init_params(NetArch(), seed=0))
    ckpt.write_bytes(ckpt.read_bytes()[:10])
    code = cli(
        "reconstruct", "--method", "node", "--checkpoint", ckpt,
        "--sinogram", fan_scan / "sinogram.cts",
        "--grid-shape", "32,32", "--out", tmp_path / "out",
    )
    assert code == 3
    assert "short.ckpt" in capsys.readouterr().err


@pytest.mark.parametrize("broken", ["sinogram", "reference"])
@pytest.mark.parametrize("text", ["{}", "not json"], ids=["empty-object", "not-json"])
def test_broken_sidecar_exits_3(fan_scan, tmp_path, capsys, broken, text):
    files = {"sinogram": "sinogram.cts", "reference": "phantom.ctv"}
    for name in files.values():
        for suffix in ("", ".json"):
            (tmp_path / (name + suffix)).write_bytes((fan_scan / (name + suffix)).read_bytes())
    (tmp_path / (files[broken] + ".json")).write_text(text)
    code = cli(
        "reconstruct", "--method", "fbp",
        "--sinogram", tmp_path / files["sinogram"],
        "--reference", tmp_path / files["reference"],
        "--out", tmp_path / "out",
    )
    assert code == 3
    assert files[broken] + ".json" in capsys.readouterr().err


def test_sinogram_sidecar_geometry_of_wrong_type_exits_3(fan_scan, tmp_path, capsys):
    sino = tmp_path / "sinogram.cts"
    sino.write_bytes((fan_scan / "sinogram.cts").read_bytes())
    (tmp_path / "sinogram.cts.json").write_text(json.dumps({"geometry": [1, 2]}))
    code = cli(
        "reconstruct", "--method", "fbp", "--sinogram", sino,
        "--grid-shape", "32,32", "--out", tmp_path / "out",
    )
    assert code == 3
    assert "sinogram.cts.json" in capsys.readouterr().err


def test_sinogram_sidecar_non_finite_geometry_exits_3(fan_scan, tmp_path, capsys):
    sino = tmp_path / "sinogram.cts"
    sino.write_bytes((fan_scan / "sinogram.cts").read_bytes())
    doc = json.loads((fan_scan / "sinogram.cts.json").read_text())
    doc["geometry"]["detector_distance"] = math.nan
    (tmp_path / "sinogram.cts.json").write_text(json.dumps(doc))
    code = cli(
        "reconstruct", "--method", "fbp", "--sinogram", sino,
        "--grid-shape", "32,32", "--out", tmp_path / "out",
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "sinogram.cts.json" in err and "detector_distance" in err
    assert not (tmp_path / "out" / "recon_fbp.ctv").exists()


def saved_checkpoint(train_dir, tmp_path):
    assert cli("train", "--config", train_dir / "cfg1.json", "--out", tmp_path / "train") == 0
    return tmp_path / "train" / "checkpoint.ckpt"


def reconstruct_node_from(ckpt, fan_scan, out, *extra):
    return cli(
        "reconstruct", "--method", "node", "--checkpoint", ckpt, *extra,
        "--sinogram", fan_scan / "sinogram.cts", "--grid-shape", "32,32", "--out", out,
    )


def test_checkpoint_sidecar_ode_of_wrong_type_exits_3(train_dir, fan_scan, tmp_path, capsys):
    ckpt = saved_checkpoint(train_dir, tmp_path)
    sidecar = ckpt.parent / "checkpoint.ckpt.json"
    doc = json.loads(sidecar.read_text())
    doc["ode"] = [1]
    sidecar.write_text(json.dumps(doc))
    assert reconstruct_node_from(ckpt, fan_scan, tmp_path / "out") == 3
    assert "checkpoint.ckpt.json" in capsys.readouterr().err


def test_checkpoint_with_out_of_range_arch_word_exits_3(train_dir, fan_scan, tmp_path, capsys):
    ckpt = saved_checkpoint(train_dir, tmp_path)
    raw = bytearray(ckpt.read_bytes())
    raw[8:12] = bytes(4)  # n_levels 0
    ckpt.write_bytes(bytes(raw))
    assert reconstruct_node_from(ckpt, fan_scan, tmp_path / "out") == 3
    assert "checkpoint.ckpt" in capsys.readouterr().err


def test_checkpoint_written_with_instance_norm_exits_3(train_dir, fan_scan, tmp_path, capsys):
    # the files as a network with instance norm wrote them: norm word 1 and a
    # unit scale and zero shift after the 2-channel bottom conv's bias, ahead
    # of the 1x1 projection's 3 values; no optimizer state
    ckpt = saved_checkpoint(train_dir, tmp_path)
    (ckpt.parent / "checkpoint.ckpt.opt.bin").unlink()
    raw = ckpt.read_bytes()
    flat = np.frombuffer(raw[28:], "<f8")
    normed = np.concatenate([flat[:-3], [1.0, 1.0, 0.0, 0.0], flat[-3:]]).astype("<f8")
    ckpt.write_bytes(raw[:24] + struct.pack("<I", 1) + normed.tobytes())
    sidecar = ckpt.parent / "checkpoint.ckpt.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "n_params": normed.size}))
    assert reconstruct_node_from(ckpt, fan_scan, tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert "checkpoint.ckpt" in err and "instance_norm word" in err
    assert not (tmp_path / "out" / "recon_node.ctv").exists()


def test_checkpoint_sidecar_n_params_mismatch_exits_3(train_dir, fan_scan, tmp_path, capsys):
    ckpt = saved_checkpoint(train_dir, tmp_path)
    sidecar = ckpt.parent / "checkpoint.ckpt.json"
    doc = json.loads(sidecar.read_text())
    doc["n_params"] += 1
    sidecar.write_text(json.dumps(doc))
    assert reconstruct_node_from(ckpt, fan_scan, tmp_path / "out") == 3
    assert "n_params" in capsys.readouterr().err


def test_checkpoint_sidecar_with_the_old_batch_size_field(train_dir, fan_scan, tmp_path, capsys):
    # sidecars written while TrainConfig had a batch_size field hold it as 1:
    # they reconstruct as before; any other value, or the old clip_norm null,
    # is malformed
    ckpt = saved_checkpoint(train_dir, tmp_path)
    sidecar = ckpt.parent / "checkpoint.ckpt.json"
    doc = json.loads(sidecar.read_text())
    assert reconstruct_node_from(ckpt, fan_scan, tmp_path / "new") == 0
    for fields, code in [
        ({"batch_size": 1}, 0),
        ({"batch_size": 2}, 3),
        ({"clip_norm": None}, 3),
        ({"clip_norm": math.inf}, 3),
    ]:
        sidecar.write_text(json.dumps({**doc, "train": {**doc["train"], **fields}}))
        assert reconstruct_node_from(ckpt, fan_scan, tmp_path / "old") == code
    assert "checkpoint.ckpt.json" in capsys.readouterr().err
    old, new = (tmp_path / side / "recon_node.ctv" for side in ("old", "new"))
    assert old.read_bytes() == new.read_bytes()


def test_checkpoint_node_starts_from_the_training_window(train_dir, fan_scan, tmp_path):
    # every training and validation solve starts from the FBP with the
    # checkpoint's train.init_window; so does its node reconstruct, unless
    # --window overrides it, and the manifest names the window it used
    ckpt = saved_checkpoint(train_dir, tmp_path)
    sidecar = ckpt.parent / "checkpoint.ckpt.json"
    doc = json.loads(sidecar.read_text())
    assert doc["train"]["init_window"] == "ram-lak"
    assert reconstruct_node_from(ckpt, fan_scan, tmp_path / "ram-lak-default") == 0
    for window in ("ram-lak", "hann"):
        assert reconstruct_node_from(ckpt, fan_scan, tmp_path / window, "--window", window) == 0
    sidecar.write_text(json.dumps({**doc, "train": {**doc["train"], "init_window": "hann"}}))
    assert reconstruct_node_from(ckpt, fan_scan, tmp_path / "hann-default") == 0

    def used(out):
        man = json.loads((tmp_path / out / "manifest_node.json").read_text())
        return man["window"], (tmp_path / out / "recon_node.ctv").read_bytes()

    assert used("ram-lak-default") == used("ram-lak")
    assert used("hann-default") == used("hann")
    assert used("ram-lak")[0] == "ram-lak" and used("hann")[0] == "hann"
    assert used("ram-lak")[1] != used("hann")[1]


def test_checkpoint_node_manifest_records_the_gamma_used(train_dir, fan_scan, tmp_path):
    ckpt = saved_checkpoint(train_dir, tmp_path)
    assert reconstruct_node_from(ckpt, fan_scan, tmp_path / "checkpoint") == 0
    assert reconstruct_node_from(ckpt, fan_scan, tmp_path / "flag", "--gamma", "0.02") == 0
    gamma = lambda out: json.loads((tmp_path / out / "manifest_node.json").read_text())["gamma"]
    assert gamma("checkpoint") == load_checkpoint(ckpt).gamma > 0.0
    assert gamma("flag") == 0.02


def test_fdk_rejects_fan_data(fan_scan, tmp_path, capsys):
    code = cli(
        "reconstruct", "--method", "fdk",
        "--sinogram", fan_scan / "sinogram.cts",
        "--grid-shape", "32,32", "--out", tmp_path,
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "cone-beam" in err
    assert "use fbp" in err
    assert not (tmp_path / "recon_fdk.ctv").exists()


def test_fbp_rejects_cone_data(cone_scan, tmp_path, capsys):
    code = cli(
        "reconstruct", "--method", "fbp",
        "--sinogram", cone_scan / "sinogram.cts",
        "--grid-shape", "16,16,16", "--out", tmp_path,
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "fan-beam" in err
    assert "use fdk" in err
    assert not (tmp_path / "recon_fbp.ctv").exists()


def test_reconstruct_missing_sinogram_exits_2(tmp_path, capsys):
    code = cli(
        "reconstruct", "--method", "fbp",
        "--sinogram", tmp_path / "nope.cts",
        "--grid-shape", "32,32", "--out", tmp_path,
    )
    assert code == 2
    assert "file not found" in capsys.readouterr().err


def test_reconstruct_needs_grid_shape_without_reference(fan_scan, tmp_path, capsys):
    code = cli(
        "reconstruct", "--method", "fbp",
        "--sinogram", fan_scan / "sinogram.cts", "--out", tmp_path,
    )
    assert code == 2
    assert "grid-shape" in capsys.readouterr().err


def test_reconstruct_rejects_malformed_grid_shape(fan_scan, tmp_path, capsys):
    code = cli(
        "reconstruct", "--method", "fbp",
        "--sinogram", fan_scan / "sinogram.cts",
        "--grid-shape", "a,b", "--out", tmp_path,
    )
    assert code == 2
    assert "comma-separated integers" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["sirt", "tv"])
def test_iterative_methods_smoke(fan_scan, tmp_path, method):
    code = cli(
        "reconstruct", "--method", method, "--iters", "10",
        "--sinogram", fan_scan / "sinogram.cts",
        "--reference", fan_scan / "phantom.ctv",
        "--no-timings", "--out", tmp_path,
    )
    assert code == 0
    report = json.loads((tmp_path / f"metrics_{method}.json").read_text())
    assert 0.0 < report["rmse"] < 0.02
    assert math.isfinite(report["psnr"])
    assert 0.0 < report["ssim"] <= 1.0
    man = json.loads((tmp_path / f"manifest_{method}.json").read_text())
    assert man["iters"] == 10


@pytest.mark.parametrize(
    "method, scan, grid, extra, own",
    [
        ("fbp", "fan_scan", "32,32", (), {"window": "hann"}),
        ("fdk", "cone_scan", "16,16,16", ("--window", "ram-lak"), {"window": "ram-lak"}),
        ("sirt", "fan_scan", "32,32", ("--iters", "3"), {"iters": 3}),
        (
            "tv", "fan_scan", "32,32", ("--iters", "3", "--tv-eps", "0.01"),
            {"iters": 3, "tv_weight": 1e-4, "step_size": None, "tv_eps": 0.01},
        ),
        (
            "node", "fan_scan", "32,32", ("--untrained",),
            {"window": "hann", "checkpoint": None, "untrained": True, "gamma": 0.01,
             "solve_log": None},
        ),
    ],
    ids=["fbp", "fdk", "sirt", "tv", "node"],
)
def test_reconstruct_manifest_records_only_what_the_method_reads(
    request, tmp_path, method, scan, grid, extra, own
):
    sinogram = request.getfixturevalue(scan) / "sinogram.cts"
    assert cli(
        "reconstruct", "--method", method, *extra,
        "--sinogram", sinogram, "--grid-shape", grid, "--out", tmp_path,
    ) == 0
    man = json.loads((tmp_path / f"manifest_{method}.json").read_text())
    common = {
        "command", "version", "method", "sinogram", "reference", "grid", "fov_mask", "outputs"
    }
    assert set(man) == common | set(own)
    assert {key: man[key] for key in own} == own
    assert man["sinogram"] == str(sinogram) and man["reference"] is None


@pytest.mark.parametrize(
    "method, flag, value",
    [
        ("tv", "--tv-weight", "nan"),
        ("tv", "--tv-weight", "inf"),
        ("tv", "--step-size", "inf"),
        ("tv", "--tv-eps", "nan"),
        ("sirt", "--iters", "0"),
        ("tv", "--iters", "0"),
    ],
)
def test_iterative_config_value_rejected_exits_2(fan_scan, tmp_path, capsys, method, flag, value):
    code = cli(
        "reconstruct", "--method", method, flag, value,
        "--sinogram", fan_scan / "sinogram.cts",
        "--grid-shape", "32,32", "--out", tmp_path,
    )
    assert code == 2
    assert "iters" in capsys.readouterr().err
    assert not (tmp_path / f"recon_{method}.ctv").exists()


@pytest.mark.parametrize("gamma", ["nan", "inf", "-inf", "-5", "-0.001"])
def test_node_gamma_must_be_finite_and_nonnegative(tmp_path, capsys, gamma):
    # the sinogram path does not exist: gamma is checked before any file is read
    code = cli(
        "reconstruct", "--method", "node", "--untrained", f"--gamma={gamma}",
        "--sinogram", tmp_path / "nope.cts",
        "--grid-shape", "32,32", "--out", tmp_path,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "gamma" in err
    assert "file not found" not in err


def test_fdk_cone_roundtrip_with_slices(cone_scan, tmp_path):
    code = cli(
        "reconstruct", "--method", "fdk",
        "--sinogram", cone_scan / "sinogram.cts",
        "--reference", cone_scan / "phantom.ctv",
        "--slices", "--no-timings", "--out", tmp_path,
    )
    assert code == 0
    report = json.loads((tmp_path / "metrics_fdk.json").read_text())
    assert math.isfinite(report["rmse"])
    man = json.loads((tmp_path / "manifest_fdk.json").read_text())
    assert man["outputs"]["slices"] == [
        "fdk_slice_axis0.pgm",
        "fdk_slice_axis1.pgm",
        "fdk_slice_axis2.pgm",
    ]
    for name in man["outputs"]["slices"]:
        assert (tmp_path / name).read_bytes().startswith(b"P5\n")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_node_divergence_exits_4(fan_scan, tmp_path, capsys):
    code = cli(
        "reconstruct", "--method", "node", "--untrained", "--gamma", "1e6",
        "--sinogram", fan_scan / "sinogram.cts",
        "--grid-shape", "32,32", "--out", tmp_path,
    )
    assert code == 4
    assert "ODE step" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_node_state_beyond_float32_range_exits_4(fan_scan, tmp_path, capsys):
    # the state passes float32's range within the 20 steps; a float64 network
    # let the solve finish, and the volume file held infinities (exit 0)
    code = cli(
        "reconstruct", "--method", "node", "--untrained", "--gamma", "40",
        "--sinogram", fan_scan / "sinogram.cts",
        "--grid-shape", "32,32", "--out", tmp_path,
    )
    assert code == 4
    assert "ODE step" in capsys.readouterr().err
    assert not (tmp_path / "recon_node.ctv").exists()


def test_node_divergence_prints_no_numpy_warnings(fan_scan, tmp_path):
    # a fresh interpreter with default warning filters: the overflowing float32
    # cast and the NaN matmul of the diverging rates must not print numpy
    # RuntimeWarnings ahead of the exit-4 message
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run(
        [
            sys.executable, "-c", "import sys; from tomoflow.cli import main; sys.exit(main())",
            "reconstruct", "--method", "node", "--untrained", "--gamma", "40",
            "--sinogram", str(fan_scan / "sinogram.cts"),
            "--grid-shape", "32,32", "--out", str(tmp_path),
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 4
    assert "RuntimeWarning" not in result.stderr
    assert result.stderr.startswith("error: non-finite value during ODE step")


# --- eval ---


def test_eval_matches_reconstruct_metrics(fan_scan, tmp_path):
    # both paths score the f32 artifact on disk under the same FOV mask, so
    # the numbers must agree exactly
    assert cli(
        "reconstruct", "--method", "fbp",
        "--sinogram", fan_scan / "sinogram.cts",
        "--reference", fan_scan / "phantom.ctv",
        "--no-timings", "--out", tmp_path / "rec",
    ) == 0
    assert cli(
        "eval", "--reconstruction", tmp_path / "rec" / "recon_fbp.ctv",
        "--reference", fan_scan / "phantom.ctv",
        "--sinogram", fan_scan / "sinogram.cts",
        "--no-timings", "--out", tmp_path / "ev",
    ) == 0
    from_recon = json.loads((tmp_path / "rec" / "metrics_fbp.json").read_text())
    from_eval = json.loads((tmp_path / "ev" / "metrics.json").read_text())
    for key in ("rmse", "psnr", "ssim"):
        assert from_eval[key] == from_recon[key]


def test_eval_identical_volumes(fan_scan, tmp_path, capsys):
    code = cli(
        "eval", "--reconstruction", fan_scan / "phantom.ctv",
        "--reference", fan_scan / "phantom.ctv",
        "--no-timings", "--out", tmp_path,
    )
    assert code == 0
    raw = (tmp_path / "metrics.json").read_text()
    assert "Infinity" in raw  # psnr of an exact match survives serialization
    report = json.loads(raw)
    assert report["rmse"] == 0.0
    assert report["psnr"] == math.inf
    assert report["ssim"] == 1.0
    assert "psnr inf" in capsys.readouterr().out


def test_eval_shape_mismatch_exits_3(fan_scan, tmp_path, capsys):
    grid = VolumeGrid(shape=(8, 8), voxel_size=1.0)
    save_volume(tmp_path / "small.ctv", Volume(grid, np.zeros((8, 8))))
    code = cli(
        "eval", "--reconstruction", tmp_path / "small.ctv",
        "--reference", fan_scan / "phantom.ctv", "--out", tmp_path,
    )
    assert code == 3
    assert "does not match" in capsys.readouterr().err


def test_fov_mask_excludes_corners(tmp_path):
    # a defect in a corner voxel sits outside the scan FOV: masked metrics
    # ignore it, --no-fov-mask sees it
    grid = VolumeGrid(shape=(32, 32), voxel_size=1.0)
    corner = np.zeros((32, 32))
    corner[0, 0] = 1.0
    save_volume(tmp_path / "corner.ctv", Volume(grid, corner))
    save_volume(tmp_path / "zeros.ctv", Volume(grid, np.zeros((32, 32))))
    argv = (
        "eval", "--reconstruction", tmp_path / "zeros.ctv",
        "--reference", tmp_path / "corner.ctv", "--no-timings",
    )
    assert cli(*argv, "--out", tmp_path / "masked") == 0
    assert cli(*argv, "--no-fov-mask", "--out", tmp_path / "plain") == 0
    masked = json.loads((tmp_path / "masked" / "metrics.json").read_text())
    plain = json.loads((tmp_path / "plain" / "metrics.json").read_text())
    assert masked["rmse"] == 0.0
    assert masked["psnr"] == math.inf
    assert plain["rmse"] == 1.0 / 32  # one bad voxel out of 1024
    assert plain["ssim"] < masked["ssim"]
    man = json.loads((tmp_path / "plain" / "manifest_eval.json").read_text())
    assert man["fov_mask"] is False


# --- train ---


def test_train_writes_checkpoint_history_manifest(train_dir, tmp_path):
    assert cli("train", "--config", train_dir / "cfg2.json", "--out", tmp_path) == 0
    assert (tmp_path / "checkpoint.ckpt").exists()
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["epochs_completed"] == 2
    assert man["selected_epoch"] in (0, 1, 2)
    assert math.isfinite(man["validation_loss"])
    assert man["gamma"] > 0.0
    lines = (tmp_path / "history.csv").read_text().splitlines()
    assert lines[0] == "epoch,mean_train_loss,mean_val_loss,gamma,adam_t"
    assert len(lines) == 4  # header, untrained row, one per epoch
    assert lines[1].startswith("0,,")
    ck = load_checkpoint(tmp_path / "checkpoint.ckpt")
    assert ck.adam.t == 4  # 2 epochs x 2 training samples
    assert ck.val_loss == man["validation_loss"]


def test_train_rerun_is_bitwise(train_dir, tmp_path):
    assert cli("train", "--config", train_dir / "cfg2.json", "--out", tmp_path / "a") == 0
    assert cli("train", "--config", train_dir / "cfg2.json", "--out", tmp_path / "b") == 0
    for name in ("history.csv", "checkpoint.ckpt", "checkpoint.ckpt.opt.bin", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_train_resume_continues_history_and_optimizer(train_dir, tmp_path):
    assert cli("train", "--config", train_dir / "cfg2.json", "--out", tmp_path / "full") == 0
    assert cli("train", "--config", train_dir / "cfg1.json", "--out", tmp_path / "half") == 0
    assert cli(
        "train", "--config", train_dir / "cfg1.json",
        "--resume", tmp_path / "half" / "checkpoint.ckpt",
        "--out", tmp_path / "rest",
    ) == 0

    ck_half = load_checkpoint(tmp_path / "half" / "checkpoint.ckpt")
    ck_full = load_checkpoint(tmp_path / "full" / "checkpoint.ckpt")
    assert ck_half.adam.t == 2
    assert ck_full.adam.t == 4
    # the resumed run must land exactly where the uninterrupted one did
    resumed = (tmp_path / "rest" / "checkpoint.ckpt").read_bytes()
    assert resumed == (tmp_path / "full" / "checkpoint.ckpt").read_bytes()

    full_rows = (tmp_path / "full" / "history.csv").read_text().splitlines()
    half_rows = (tmp_path / "half" / "history.csv").read_text().splitlines()
    rest_rows = (tmp_path / "rest" / "history.csv").read_text().splitlines()
    assert half_rows == full_rows[:3]
    assert rest_rows[0] == full_rows[0]
    assert rest_rows[1:] == full_rows[3:]

    man = json.loads((tmp_path / "rest" / "manifest.json").read_text())
    assert man["epochs_completed"] == 2
    assert man["resume"] == str(tmp_path / "half" / "checkpoint.ckpt")


def test_train_exits_4_when_the_selected_validation_loss_is_not_finite(tmp_path, capsys):
    # at gamma_init 1.0 every validation solve on this 16x16, 12-view scan
    # leaves the float32 range and scores inf, so even the selected epoch has
    # no finite loss; such a run must not exit 0 with a checkpoint
    geom = make_fan_geometry(12, 23, 30.0, 20.0, detector_pixel_size=1.5)
    entries = []
    for seed in range(4):
        truth = make_phantom(PhantomSpec("disk_set", (16, 16), seed=seed))
        sino = simulate_measurement(truth, geom, NoiseModel("gaussian", sigma=0.01), seed=seed)
        save_volume(tmp_path / f"t{seed}.ctv", truth)
        save_sinogram(tmp_path / f"s{seed}.cts", sino)
        entries.append({"sinogram": f"s{seed}.cts", "target": f"t{seed}.ctv"})
    cfg = write_config(tmp_path / "cfg.json", {
        "train": entries[:2],
        "val": entries[2:],
        "arch": {"n_levels": 1, "base_channels": 2},
        "train_cfg": {"epochs": 1, "seed": 3, "lr_net": 1e-3, "gamma_init": 1.0},
    })
    out = tmp_path / "out"
    assert cli("train", "--config", cfg, "--out", out) == 4
    assert "selected epoch 0" in capsys.readouterr().err
    rows = list(csv.DictReader((out / "history.csv").open()))
    assert [r["epoch"] for r in rows] == ["0", "1"]
    assert all(float(r["mean_val_loss"]) == math.inf for r in rows)
    assert not (out / "checkpoint.ckpt").exists()


def test_train_missing_data_file_exits_2(train_dir, tmp_path, capsys):
    doc = json.loads((train_dir / "cfg1.json").read_text())
    doc["train"][0]["sinogram"] = "nope.cts"
    cfg = write_config(tmp_path / "bad.json", doc)
    assert cli("train", "--config", cfg, "--out", tmp_path) == 2
    assert "nope.cts" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, values",
    [
        ("ode", {"t_end": math.inf}),
        ("ode", {"lam": math.nan}),
        ("train_cfg", {"epochs": 1.5}),
        ("train_cfg", {"seed": 0.5}),
        ("train_cfg", {"gamma_init": -0.5}),
        ("train_cfg", {"gamma_init": math.nan}),
        ("train_cfg", {"lr_gamma": math.inf}),
        ("train_cfg", {"init_window": "shepp-logan"}),
        ("train_cfg", {"batch_size": 1}),
        ("train_cfg", {"clip_norm": None}),
        ("train_cfg", {"clip_norm": math.inf}),
        ("arch", {"instance_norm": True}),
    ],
    ids=[
        "ode-t_end-inf", "ode-lam-nan", "train-epochs-float", "train-seed-float",
        "train-gamma_init-negative", "train-gamma_init-nan", "train-lr_gamma-inf",
        "train-init_window-unknown", "train-batch_size", "train-clip_norm-null",
        "train-clip_norm-inf", "arch-instance_norm",
    ],
)
def test_train_config_value_rejected_before_training_exits_2(
    train_dir, tmp_path, capsys, section, values
):
    doc = json.loads((train_dir / "cfg1.json").read_text())
    doc[section] = {**doc.get(section, {}), **values}
    for entry in doc["train"] + doc["val"]:
        for key in entry:
            entry[key] = str(train_dir / entry[key])
    cfg = write_config(tmp_path / "bad.json", doc)
    assert cli("train", "--config", cfg, "--out", tmp_path / "out") == 2
    assert next(iter(values)) in capsys.readouterr().err
    assert not (tmp_path / "out" / "history.csv").exists()


def test_train_resume_missing_checkpoint_exits_2(train_dir, tmp_path, capsys):
    code = cli(
        "train", "--config", train_dir / "cfg1.json",
        "--resume", tmp_path / "gone.ckpt", "--out", tmp_path,
    )
    assert code == 2
    assert "gone.ckpt" in capsys.readouterr().err


# --- global flags ---


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli("--version")
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == f"tomoflow {__version__}"
