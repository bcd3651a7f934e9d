"""Command-line interface: train, animate, ablate, diagnose.

Artifacts are deterministic: given the same config, seed, inputs and BLAS
build, every file a command writes is byte-identical across reruns, and on
OpenBLAS builds also on any number of cores, since every command runs
under ``numerics.one_blas_thread``.  Wall-clock timings are therefore kept
out of result files and go to a separate ``run.log``, which also records
the BLAS build and the BLAS thread count in force.  Exit codes: 0 success,
1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, _input_file, load_config, parse_enum
from .diffusion import Condition, FrameLatent, VideoLatent
from .metrics import diagnose_video
from .motion import label_id
from .numerics import blas_threads, one_blas_thread, read_ltn1, write_ltn1
from .pipeline import PipelineVariant, animate, run_ablation
from .proxy import FileProvider, SyntheticProvider, load_proxy, write_pgm
from .rng import stream
from .toydenoiser import ToyDenoiser, generate_dataset, load_checkpoint, save_checkpoint, schedule_digest, train


def _usable_cores() -> int:
    """The cores this process may run on: its affinity mask, which taskset
    and cpusets narrow, or the machine's count where there is no mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS and Windows have no sched_getaffinity
        return os.cpu_count() or 1


def _blas_line() -> str:
    """The BLAS build and the thread count in force: the artifact bytes
    depend on both."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # numpy < 1.26 only prints its build configuration
        build = "unknown"
    threads = blas_threads()
    if threads is None:
        threads = "not controlled (no OpenBLAS thread control found)"
    return f"blas: {build}; threads: {threads}"


def _write_log(out_dir: Path, lines: list[str]) -> None:
    # Timings and timestamps live here, never in the deterministic artifacts.
    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    (out_dir / "run.log").write_text("\n".join([f"[{stamp}]", _blas_line()] + lines) + "\n")


def _out_dir(path) -> Path:
    """``path`` as an output directory, not yet made: refused if a file
    stands where it or one of its parents would be."""
    path = Path(path)
    for part in (path, *path.parents):
        if part.exists() and not part.is_dir():
            raise ConfigError(f"output directory {path}: {part} is not a directory")
    return path


def _load_model(ckpt: str, cfg: ExperimentConfig, labels) -> ToyDenoiser:
    """Load a checkpoint and refuse it if it was trained under another
    schedule, never saw one of ``labels``, or differs from the config in a
    model dimension the config sets."""
    ckpt_path = Path(ckpt)
    if not ckpt_path.exists():
        raise ConfigError(f"checkpoint not found: {ckpt_path}")
    model, manifest = load_checkpoint(ckpt_path)
    trained, configured = manifest["schedule_digest"], schedule_digest(cfg.schedule())
    if trained != configured:
        raise ConfigError(
            f"checkpoint {ckpt_path} was trained under schedule digest {trained}, "
            f"but the config's schedule has digest {configured}"
        )
    trained_labels = manifest["dataset"]["labels"]
    missing = [label for label in labels if label not in trained_labels]
    if missing:
        raise ConfigError(f"checkpoint {ckpt_path} was never trained on label(s) {missing}; it knows {trained_labels}")
    for key in ("dataset.frames", "dataset.channels", "dataset.height", "dataset.width",
                "denoiser.hidden", "denoiser.t_embed"):
        dim = key.split(".")[1]
        configured, trained = cfg[key], getattr(model, dim)
        if configured != trained:
            raise ConfigError(f"config key {key!r} is {configured}, the checkpoint's {dim} is {trained}")
    return model


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    out_dir = _out_dir(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    params = cfg.dataset_params()
    sched = cfg.schedule()
    dataset = generate_dataset(cfg["dataset.n"], params, seed=stream(cfg["seed"], "dataset/train"))
    model = ToyDenoiser(
        frames=params.frames,
        channels=params.channels,
        height=params.height,
        width=params.width,
        hidden=cfg["denoiser.hidden"],
        t_embed=cfg["denoiser.t_embed"],
        seed=cfg["seed"],
    )
    t0 = time.perf_counter()
    model, result = train(
        model, dataset, sched,
        epochs=cfg["train.epochs"], lr=cfg["train.lr"], seed=cfg["seed"], batch_size=cfg["train.batch"],
    )
    elapsed = time.perf_counter() - t0

    save_checkpoint(model, out_dir, params, sched, extra={"final_loss": result.final_loss})
    loss_rows = [f"{epoch + 1},{float(loss)!r}" for epoch, loss in enumerate(result.losses)]
    (out_dir / "loss.csv").write_text("epoch,loss\n" + "\n".join(loss_rows) + "\n")
    _write_log(out_dir, [f"train: {elapsed:.2f}s for {cfg['train.epochs']} epochs over {len(dataset)} samples"])
    print(f"checkpoint written to {out_dir} (final loss {result.final_loss:.3f})")
    return 0


def _load_image(path, frame_shape: tuple[int, int, int], shape_name: str) -> FrameLatent:
    """The input image at ``path`` (PGM or LTN1), refused unless it has ``frame_shape``."""
    image = load_proxy(_input_file(path, "input image"))
    if image.shape != tuple(frame_shape):
        raise ConfigError(f"input image shape {image.shape} does not match the {shape_name} {tuple(frame_shape)}")
    return image


def cmd_animate(args) -> int:
    cfg = load_config(args.config)
    out_dir = _out_dir(args.out)
    model = _load_model(args.ckpt, cfg, [args.label])
    image = _load_image(args.image, (model.channels, model.height, model.width), "checkpoint's frame shape")
    cond = Condition(image, label_id(args.label))
    variant = parse_enum(PipelineVariant, args.variant)
    if args.proxy:  # refuse a proxy of another shape before any compute, for every variant
        provider = FileProvider(args.proxy)
        provider.synthesize(image, cond)
    else:
        provider = SyntheticProvider(cfg.proxy_params())

    run = animate(
        image, cond, variant, model, cfg.schedule(),
        vsds_cfg=cfg.vsds_config(), fusion_cfg=cfg.fusion_config(),
        proxy_provider=provider, seed=cfg["seed"],
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    write_ltn1(out_dir / "video.ltn1", run.output.frames)
    frame_files = []
    for l in range(run.output.frame_count):
        name = f"frame_{l:02d}.pgm"
        write_pgm(out_dir / name, run.output.frame(l))
        frame_files.append(name)
    result = {
        "variant": variant.value,
        "label": args.label,
        **_settings_record(cfg),
        "frames": run.output.frame_count,
        "video": "video.ltn1",
        "frame_files": frame_files,
        "image_sha256": hashlib.sha256(Path(args.image).read_bytes()).hexdigest(),
        "proxy_sha256": hashlib.sha256(Path(args.proxy).read_bytes()).hexdigest() if args.proxy else None,
    }
    (out_dir / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    _write_log(out_dir, [f"{name}: {secs:.3f}s" for name, secs in run.timing.items()])
    print(f"wrote {out_dir / 'video.ltn1'} and {len(frame_files)} frames")
    return 0


def _settings_record(cfg: ExperimentConfig) -> dict:
    """The canonical settings lines and their hash: sha256 of the lines
    joined by newlines, with a final newline, is ``config_hash``."""
    return {"config": cfg.canonical().splitlines(), "config_hash": cfg.config_hash()}


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    out_dir = _out_dir(args.out)
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    model = _load_model(args.ckpt, cfg, cfg["dataset.labels"])
    threads = _usable_cores()

    bench = generate_dataset(args.n, cfg.dataset_params(), seed=stream(cfg["seed"], "ablate/bench"))
    benchmark = [(s.cond.image, s.cond) for s in bench.samples]
    reference = [s.video for s in bench.samples]

    t0 = time.perf_counter()
    report = run_ablation(
        benchmark, cfg["ablate.rows"], model, cfg.schedule(), cfg.vsds_config(), cfg.fusion_config(),
        SyntheticProvider(cfg.proxy_params()), cfg["seed"], reference, threads,
    )
    elapsed = time.perf_counter() - t0

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "ablation.csv").write_text(report.to_csv())
    (out_dir / "ablation.json").write_text(report.to_json(extra=_settings_record(cfg)))
    _write_log(out_dir, [
        f"ablate: {elapsed:.2f}s over {args.n} items, {report.workers} task thread(s) on {threads} core(s)"
    ])
    print(f"wrote {out_dir / 'ablation.csv'} ({len(report.rows)} rows)")
    return 0


def cmd_diagnose(args) -> int:
    video = VideoLatent(read_ltn1(_input_file(args.video, "video file")))
    reference = _load_image(args.image, video.frame_shape, "video's frame shape") if args.image else None
    cond = Condition(reference if reference is not None else video.frame(0), label_id(args.label))
    report = diagnose_video(video, cond, reference)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="latent-awaken", description="Animate still images at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the toy denoiser on procedural videos")
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--out", default="runs/train", help="checkpoint output directory")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("animate", help="generate a video latent from one image")
    p.add_argument("--config", required=True)
    p.add_argument("--ckpt", required=True, help="checkpoint directory from `train`")
    p.add_argument("--image", required=True, help="input image (PGM or LTN1)")
    p.add_argument("--label", required=True, help="motion label (static/right/left/up/down/grow)")
    p.add_argument("--variant", default="VS", help="pipeline variant (Baseline/V/S/VU/VS)")
    p.add_argument("--proxy", default=None, help="optional pre-rendered proxy image (PGM or LTN1)")
    p.add_argument("--out", default="runs/animate")
    p.set_defaults(fn=cmd_animate)

    p = sub.add_parser("ablate", help="score pipeline variants over a procedural benchmark")
    p.add_argument("--config", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--n", type=int, default=16, help="benchmark size")
    p.add_argument("--out", default="runs/ablate")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("diagnose", help="print metrics for a stored video latent")
    p.add_argument("--video", required=True, help="LTN1 video latent")
    p.add_argument("--label", required=True)
    p.add_argument("--image", default=None, help="optional reference image for fidelity")
    p.set_defaults(fn=cmd_diagnose)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    try:
        with one_blas_thread():
            return args.fn(args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failure boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
