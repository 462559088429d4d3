"""Command-line interface: simulate, reconstruct, train, eval.

Every command takes --out and writes its products there along with a
manifest JSON recording the parameters and seeds that produced them; with
fixed seeds, reruns reproduce the data files bitwise.
Metric reports include a wall-clock runtime_seconds field by default, which
is inherently machine-dependent; pass --no-timings to omit it when byte
stable reports are needed.

Exit codes: 0 success, 2 configuration or usage error, 3 data or shape
error, 4 numerical divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .classical import IterConfig, sirt, tv_reconstruct
from .dataio import (
    DISPLAY_WINDOW,
    center_slices,
    load_sinogram,
    load_volume,
    save_sinogram,
    save_volume,
    write_manifest,
    write_metrics,
    write_pgm,
)
from .errors import (
    ConfigError,
    DataFormatError,
    DivergenceError,
    InvalidGeometryError,
    ShapeMismatchError,
)
from .analytic import _WINDOWS, fbp_fan, fdk_cone
from .geometry import VolumeGrid, geometry_from_dict, geometry_to_dict
from .metrics import compute_metrics
from .network import NetArch, init_params
from .ode import OdeConfig, reconstruct_node
from .phantoms import NoiseModel, PhantomSpec, make_phantom, simulate_measurement
from .projector import Volume
from .training import TrainConfig, fov_mask, load_checkpoint, save_checkpoint, train

logger = logging.getLogger(__name__)

# the reconstruct manifest keys each method reads, beyond the ones that every
# manifest records; the keys are the names of the command-line values
METHOD_KEYS = {
    "fbp": ("window",),
    "fdk": ("window",),
    "sirt": ("iters",),
    "tv": ("iters", "tv_weight", "step_size", "tv_eps"),
    "node": ("window", "checkpoint", "untrained", "gamma", "solve_log"),
}
METHODS = tuple(METHOD_KEYS)


def _load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError("config", f"file not found: {path}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config", f"{path} must contain a JSON object")
    return doc


def _section(doc: dict, name: str, required: bool = True) -> dict:
    sec = doc.get(name)
    if sec is None:
        if required:
            raise ConfigError(name, "section is missing")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(name, "section must be a JSON object")
    return sec


def _build(field: str, ctor, doc: dict):
    try:
        return ctor(**doc)
    except ConfigError:
        raise
    except TypeError as exc:
        raise ConfigError(field, str(exc)) from exc
    except (ValueError, InvalidGeometryError) as exc:
        raise ConfigError(field, str(exc)) from exc


def _phantom_spec(doc: dict) -> PhantomSpec:
    doc = dict(doc)
    if "size" in doc:
        doc["size"] = tuple(doc["size"])
    if "value_range" in doc:
        doc["value_range"] = tuple(doc["value_range"])
    return _build("phantom", PhantomSpec, doc)


def _geometry(doc: dict):
    doc = {"angular_range": [0.0, 360.0], "detector_pixel_size": 1.0, **doc}
    try:
        return geometry_from_dict(doc)
    except (InvalidGeometryError, ValueError, TypeError, KeyError) as exc:
        raise ConfigError("geometry", str(exc)) from exc


def _noise(doc: dict) -> NoiseModel:
    return _build("noise", NoiseModel, doc)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    doc = _load_config(args.config)
    spec = _phantom_spec(_section(doc, "phantom"))
    geom = _geometry(_section(doc, "geometry"))
    noise = _noise(_section(doc, "noise", required=False) or {"kind": "none"})
    seed = int(doc.get("seed", 0))
    out = _out_dir(args)

    truth = make_phantom(spec)
    if truth.values.ndim != len(geom.detector_shape) + 1:
        raise ShapeMismatchError(
            f"{spec.kind} is {truth.values.ndim}D but the geometry is {geom.kind} beam"
        )
    p = simulate_measurement(truth, geom, noise, seed=seed)

    save_volume(out / "phantom.ctv", truth)
    save_sinogram(out / "sinogram.cts", p)
    write_manifest(
        out / "manifest.json",
        {
            "command": "simulate",
            "version": __version__,
            "phantom": dataclasses.asdict(spec),
            "geometry": geometry_to_dict(geom),
            "angular_increment_deg": math.degrees(
                geom.angular_range[1] - geom.angular_range[0]
            )
            / geom.n_angles,
            "noise": dataclasses.asdict(noise),
            "seed": seed,
            "outputs": {"phantom": "phantom.ctv", "sinogram": "sinogram.cts"},
        },
    )
    print(f"wrote phantom.ctv and sinogram.cts to {out}")
    return 0


def _recon_grid(args, reference):
    if reference is not None:
        return reference.grid
    if args.grid_shape is None:
        raise ConfigError("grid-shape", "required when no --reference is given")
    try:
        shape = tuple(int(s) for s in args.grid_shape.split(","))
    except ValueError as exc:
        raise ConfigError("grid-shape", f"expected comma-separated integers, got {args.grid_shape!r}") from exc
    return _build("grid-shape", VolumeGrid, {"shape": shape, "voxel_size": args.voxel_size})


def _reconstruct_volume(args, p, grid):
    """The reconstruction by args.method.  Sets args.window and args.gamma to
    the values the method used, for the manifest: where no flag gives them, a
    node solve from a checkpoint takes the checkpoint's gamma and its
    train.init_window (the FBP its training and validation solves started
    from), an untrained one gamma 0.01, and every other window is hann."""
    method = args.method
    if method != "node" or args.checkpoint is None:
        args.window = args.window or "hann"
    if method == "fbp":
        return fbp_fan(p, grid, window=args.window)
    if method == "fdk":
        return fdk_cone(p, grid, window=args.window)
    if method == "sirt":
        n_iters = 200 if args.iters is None else args.iters
        cfg = _build("iters", IterConfig, {"n_iters": n_iters, "nonneg": True})
        return sirt(p, grid, cfg)
    if method == "tv":
        cfg = _build(
            "iters",
            IterConfig,
            {
                "n_iters": 150 if args.iters is None else args.iters,
                "tv_weight": args.tv_weight,
                "step_size": args.step_size,
                "tv_eps": args.tv_eps,
            },
        )
        return tv_reconstruct(p, grid, cfg)
    # node
    if args.checkpoint is None and not args.untrained:
        raise ConfigError("checkpoint", "node needs --checkpoint or --untrained")
    if args.checkpoint is not None and args.untrained:
        raise ConfigError("checkpoint", "--checkpoint and --untrained are mutually exclusive")
    if args.untrained:
        params = init_params(NetArch(dims=grid.ndim), seed=0)
        ode_cfg, gamma = OdeConfig(), 0.01
    else:
        ck = load_checkpoint(args.checkpoint)
        params, ode_cfg, gamma = ck.params, ck.ode_cfg, ck.gamma
        if args.window is None:
            args.window = ck.train_cfg.init_window
    if args.gamma is None:
        args.gamma = gamma
    return reconstruct_node(
        p, grid, params, args.gamma, ode_cfg, window=args.window, log_path=args.solve_log
    )


def cmd_reconstruct(args) -> int:
    if args.solve_log is not None and args.method != "node":
        raise ConfigError("solve-log", "only --method node writes a solve log")
    if args.gamma is not None and not (math.isfinite(args.gamma) and args.gamma >= 0):
        raise ConfigError("gamma", f"must be finite and >= 0, got {args.gamma}")
    out = _out_dir(args)
    p = load_sinogram(args.sinogram)
    reference = load_volume(args.reference) if args.reference else None
    grid = _recon_grid(args, reference)

    t0 = time.perf_counter()
    recon = _reconstruct_volume(args, p, grid)
    runtime = time.perf_counter() - t0

    recon_name = f"recon_{args.method}.ctv"
    save_volume(out / recon_name, recon)
    # metrics describe the artifact on disk, so round through its f32 payload
    recon = Volume(grid, recon.values.astype("<f4").astype(np.float64))

    outputs = {"reconstruction": recon_name}
    if reference is not None:
        if reference.values.shape != recon.values.shape:
            raise ShapeMismatchError(
                f"reference shape {reference.values.shape} does not match "
                f"reconstruction shape {recon.values.shape}"
            )
        mask = None if args.no_fov_mask else fov_mask(grid, p.geom)
        report = {"method": args.method}
        report.update(compute_metrics(recon, reference, mask))
        if not args.no_timings:
            report["runtime_seconds"] = runtime
        metrics_name = f"metrics_{args.method}.json"
        write_metrics(out / metrics_name, report)
        outputs["metrics"] = metrics_name
        print(
            f"{args.method}: rmse {report['rmse']:.6e} psnr {report['psnr']:.3f} "
            f"ssim {report['ssim']:.4f}"
        )
    if args.slices:
        slice_names = []
        for name, img in center_slices(recon):
            fname = f"{args.method}_{name}.pgm"
            write_pgm(out / fname, img, DISPLAY_WINDOW)
            slice_names.append(fname)
        outputs["slices"] = slice_names

    manifest = {
        "command": "reconstruct",
        "version": __version__,
        "method": args.method,
        "sinogram": str(args.sinogram),
        "reference": str(args.reference) if args.reference else None,
        "grid": {"shape": list(grid.shape), "voxel_size": grid.voxel_size},
        "fov_mask": not args.no_fov_mask,
        "outputs": outputs,
    }
    manifest.update((key, getattr(args, key)) for key in METHOD_KEYS[args.method])
    write_manifest(out / f"manifest_{args.method}.json", manifest)
    print(f"wrote {recon_name} to {out}")
    return 0


def _dataset(doc, name, base: Path):
    entries = doc.get(name)
    if not isinstance(entries, list) or not entries:
        raise ConfigError(name, "must be a non-empty list of {sinogram, target} pairs")
    samples = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "sinogram" not in entry or "target" not in entry:
            raise ConfigError(f"{name}[{i}]", "needs 'sinogram' and 'target' paths")
        pair = []
        for key, loader in (("sinogram", load_sinogram), ("target", load_volume)):
            path = base / entry[key]
            if not path.exists():
                raise ConfigError(f"{name}[{i}].{key}", f"file not found: {path}")
            pair.append(loader(path))
        samples.append(tuple(pair))
    return samples


def cmd_train(args) -> int:
    doc = _load_config(args.config)
    base = Path(args.config).parent
    train_set = _dataset(doc, "train", base)
    val_set = _dataset(doc, "val", base)
    arch = _build("arch", NetArch, _section(doc, "arch", required=False))
    ode_cfg = _build("ode", OdeConfig, _section(doc, "ode", required=False))
    cfg = _build("train_cfg", TrainConfig, _section(doc, "train_cfg", required=False))
    out = _out_dir(args)

    resume = None
    if args.resume is not None:
        if not Path(args.resume).exists():
            raise ConfigError("resume", f"file not found: {args.resume}")
        resume = load_checkpoint(args.resume)

    ck = train(
        train_set,
        val_set,
        arch,
        ode_cfg,
        cfg,
        history_path=out / "history.csv",
        resume_from=resume,
    )
    if not math.isfinite(ck.val_loss):
        # the lowest mean validation loss is inf only when a validation solve
        # diverged at every epoch: no state is worth a checkpoint
        raise DivergenceError(
            ck.epoch,
            math.inf,
            f"selected epoch {ck.epoch} has validation loss {ck.val_loss}: a validation "
            f"solve diverged at every epoch, so no checkpoint was written "
            f"(history: {out / 'history.csv'})",
        )
    save_checkpoint(ck, out / "checkpoint.ckpt")
    write_manifest(
        out / "manifest.json",
        {
            "command": "train",
            "version": __version__,
            "config": doc,
            "resume": str(args.resume) if args.resume else None,
            "selected_epoch": ck.epoch,
            "validation_loss": ck.val_loss,
            "gamma": ck.gamma,
            "epochs_completed": ck.epochs_completed,
            "outputs": {"checkpoint": "checkpoint.ckpt", "history": "history.csv"},
        },
    )
    print(f"selected epoch {ck.epoch} (validation loss {ck.val_loss:.6e})")
    return 0


def cmd_eval(args) -> int:
    out = _out_dir(args)
    recon = load_volume(args.reconstruction)
    reference = load_volume(args.reference)
    if recon.values.shape != reference.values.shape:
        raise ShapeMismatchError(
            f"reconstruction shape {recon.values.shape} does not match "
            f"reference shape {reference.values.shape}"
        )
    geom = None
    if args.sinogram is not None:
        geom = load_sinogram(args.sinogram).geom
    mask = None if args.no_fov_mask else fov_mask(recon.grid, geom)

    t0 = time.perf_counter()
    report = {"method": "eval"}
    report.update(compute_metrics(recon, reference, mask))
    if not args.no_timings:
        report["runtime_seconds"] = time.perf_counter() - t0
    write_metrics(out / "metrics.json", report)
    write_manifest(
        out / "manifest_eval.json",
        {
            "command": "eval",
            "version": __version__,
            "reconstruction": str(args.reconstruction),
            "reference": str(args.reference),
            "sinogram": str(args.sinogram) if args.sinogram else None,
            "fov_mask": not args.no_fov_mask,
            "outputs": {"metrics": "metrics.json"},
        },
    )
    print(f"rmse {report['rmse']:.6e} psnr {report['psnr']:.3f} ssim {report['ssim']:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tomoflow",
        description="Tomographic reconstruction toolkit: simulate, reconstruct, train, eval.",
    )
    parser.add_argument("--version", action="version", version=f"tomoflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("simulate", help="generate a phantom and its measured sinogram")
    sp.add_argument("--config", required=True, help="JSON: phantom, geometry, noise, seed")
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("reconstruct", help="reconstruct a volume from a sinogram file")
    sp.add_argument("--method", required=True, choices=METHODS)
    sp.add_argument("--sinogram", required=True)
    sp.add_argument("--reference", default=None, help="ground-truth volume; enables metrics output")
    sp.add_argument("--grid-shape", default=None, help="comma-separated voxel counts, e.g. 64,64")
    sp.add_argument("--voxel-size", type=float, default=1.0)
    sp.add_argument(
        "--window", default=None, choices=_WINDOWS,
        help="FBP/FDK window (default hann; a node checkpoint's train.init_window)",
    )
    sp.add_argument("--iters", type=int, default=None, help="iteration count for sirt/tv")
    sp.add_argument("--tv-weight", type=float, default=1e-4)
    sp.add_argument("--step-size", type=float, default=None)
    sp.add_argument("--tv-eps", type=float, default=None)
    sp.add_argument("--checkpoint", default=None, help="trained model for method=node")
    sp.add_argument("--untrained", action="store_true", help="run node with freshly initialized weights")
    sp.add_argument("--gamma", type=float, default=None, help="data-consistency weight override (untrained default 0.01)")
    sp.add_argument("--solve-log", default=None, help="method=node: CSV of the ODE state per step")
    sp.add_argument("--slices", action="store_true", help="export center-slice PGM images")
    sp.add_argument("--no-fov-mask", action="store_true", help="compute metrics without the scan FOV mask")
    sp.add_argument("--no-timings", action="store_true", help="omit runtime_seconds from metric reports")
    common(sp)
    sp.set_defaults(func=cmd_reconstruct)

    sp = sub.add_parser("train", help="train the learned reconstruction on simulated pairs")
    sp.add_argument("--config", required=True, help="JSON: train/val sample paths, arch, ode, train_cfg")
    sp.add_argument("--resume", default=None, help="checkpoint to continue from")
    common(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="compute metrics between two volume files")
    sp.add_argument("--reconstruction", required=True)
    sp.add_argument("--reference", required=True)
    sp.add_argument("--sinogram", default=None, help="supplies the scan geometry for the FOV mask")
    sp.add_argument("--no-fov-mask", action="store_true")
    sp.add_argument("--no-timings", action="store_true", help="omit runtime_seconds from metrics.json")
    common(sp)
    sp.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, ShapeMismatchError, InvalidGeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
