"""Command-line interface: artifacts, determinism, exit codes."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import latent_awaken
from latent_awaken import metrics
from latent_awaken.cli import main
from latent_awaken.config import parse_config
from latent_awaken.diffusion import FrameLatent, VideoLatent, replicate_static
from latent_awaken.motion import MOTION_LABELS
from latent_awaken.numerics import read_ltn1, write_ltn1
from latent_awaken.pipeline import AblationReport, PipelineVariant, run_ablation
from latent_awaken.proxy import SyntheticProvider, write_pgm
from latent_awaken.toydenoiser import MODEL_DIMS, DatasetParams, generate_dataset, load_checkpoint, render_pattern
from latent_awaken.vsds import CurveKind

CFG_TEXT = """\
seed = 42
dataset.n = 16
schedule.steps = 40
schedule.beta_end = 0.25
denoiser.hidden = 32
train.epochs = 3
"""


def quantized_blob(side=16):
    # snap the pattern onto the 8-bit lattice so PGM round trips are exact
    grid = 2.0 * render_pattern("blob", [5.0], [9.0], [2.0], side, side) - 1.0
    ks = np.rint((grid + 1.0) / 2.0 * 255.0)
    return FrameLatent(2.0 * ks / 255.0 - 1.0)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(CFG_TEXT)
    ckpt = root / "ckpt"
    assert main(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
    image = root / "input.pgm"
    write_pgm(image, quantized_blob())
    return {"root": root, "cfg": cfg, "ckpt": ckpt, "image": image}


def read_bytes_map(directory, suffixes=(".ltn1", ".json", ".csv")):
    return {
        p.name: p.read_bytes()
        for p in sorted(directory.iterdir())
        if p.suffix in suffixes
    }


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_artifacts(workspace):
    ckpt = workspace["ckpt"]
    manifest = json.loads((ckpt / "manifest.json").read_text())
    assert manifest["format"] == "toydenoiser-v1"
    assert manifest["hidden"] == 32
    # The config hash also covers keys that do not shape the model, so it
    # describes runs (result.json, ablation.json), not checkpoints.
    assert "config_hash" not in manifest

    lines = (ckpt / "loss.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,loss"
    assert len(lines) == 4  # header + 3 epochs
    for line in lines[1:]:
        epoch, loss = line.split(",")
        float(loss)  # parses as a plain decimal
        assert int(epoch) >= 1
    assert (ckpt / "run.log").exists()


def test_manifest_records_the_training_labels_once(tmp_path):
    # The labels a checkpoint knows are its dataset's; the manifest has no
    # second, top-level list of them.
    cfg = tmp_path / "labels.cfg"
    cfg.write_text(CFG_TEXT.replace("train.epochs = 3", "train.epochs = 1") + "dataset.labels = right, left\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "ckpt")]) == 0
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    assert "labels" not in manifest
    assert manifest["dataset"]["labels"] == ["right", "left"]


def test_train_rerun_is_byte_identical(workspace, tmp_path):
    out2 = tmp_path / "ckpt2"
    assert main(["train", "--config", str(workspace["cfg"]), "--out", str(out2)]) == 0
    assert read_bytes_map(workspace["ckpt"]) == read_bytes_map(out2)


# ---------------------------------------------------------------------------
# animate
# ---------------------------------------------------------------------------


def animate_args(ws, out, variant=None, proxy=None, label="right"):
    args = [
        "animate", "--config", str(ws["cfg"]), "--ckpt", str(ws["ckpt"]),
        "--image", str(ws["image"]), "--label", label, "--out", str(out),
    ]
    if variant:
        args += ["--variant", variant]
    if proxy:
        args += ["--proxy", str(proxy)]
    return args


def test_animate_writes_video_and_frames(workspace, tmp_path):
    out = tmp_path / "anim"
    assert main(animate_args(workspace, out, variant="baseline")) == 0

    video = read_ltn1(out / "video.ltn1")
    assert video.shape == (16, 1, 16, 16)
    frame_names = sorted(p.name for p in out.glob("frame_*.pgm"))
    assert len(frame_names) == 16
    assert frame_names[0] == "frame_00.pgm"

    result = json.loads((out / "result.json").read_text())
    assert set(result) == {
        "config", "config_hash", "frame_files", "frames", "image_sha256", "label", "proxy_sha256", "variant", "video",
    }
    assert result["variant"] == "Baseline"  # case-insensitive parse
    assert "seed = 42" in result["config"]
    assert result["frames"] == 16
    assert result["frame_files"] == frame_names


def test_animate_default_variant_is_vs(workspace, tmp_path):
    out = tmp_path / "anim"
    assert main(animate_args(workspace, out)) == 0
    assert json.loads((out / "result.json").read_text())["variant"] == "VS"


def test_animate_rerun_is_byte_identical(workspace, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(animate_args(workspace, a)) == 0
    assert main(animate_args(workspace, b)) == 0
    assert (a / "video.ltn1").read_bytes() == (b / "video.ltn1").read_bytes()
    assert (a / "result.json").read_bytes() == (b / "result.json").read_bytes()


def test_animate_accepts_proxy_file(workspace, tmp_path):
    proxy = tmp_path / "proxy.ltn1"
    write_ltn1(proxy, np.roll(quantized_blob().grid, 3, axis=2))
    with_file = tmp_path / "with_proxy"
    without = tmp_path / "without"
    assert main(animate_args(workspace, with_file, proxy=proxy)) == 0
    assert main(animate_args(workspace, without)) == 0
    a = read_ltn1(with_file / "video.ltn1")
    b = read_ltn1(without / "video.ltn1")
    assert not np.array_equal(a, b)  # the proxy actually steers the run


def test_result_names_its_input_files_by_hash(workspace, tmp_path):
    # Two VS runs that differ only in the bytes of the proxy file must not
    # write the same result.json.
    results = []
    for shift in (3, 5):
        proxy = tmp_path / f"proxy{shift}.ltn1"
        write_ltn1(proxy, np.roll(quantized_blob().grid, shift, axis=2))
        out = tmp_path / f"shift{shift}"
        assert main(animate_args(workspace, out, proxy=proxy)) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["proxy_sha256"] == hashlib.sha256(proxy.read_bytes()).hexdigest()
        assert result["image_sha256"] == hashlib.sha256(workspace["image"].read_bytes()).hexdigest()
        results.append((out / "result.json").read_bytes())
    assert results[0] != results[1]
    without = tmp_path / "without"
    assert main(animate_args(workspace, without)) == 0
    assert json.loads((without / "result.json").read_text())["proxy_sha256"] is None


@pytest.mark.parametrize("variant", ["VS", "Baseline"])
@pytest.mark.parametrize("kind", ["missing", "malformed", "wrong-shape"])
def test_bad_proxy_is_usage_error_for_every_variant(workspace, tmp_path, capsys, kind, variant):
    # The proxy file is checked before any compute, also for variants that
    # never read it.
    proxy = tmp_path / "proxy.ltn1"
    if kind == "malformed":
        proxy.write_bytes(b"not an image")
    elif kind == "wrong-shape":
        write_ltn1(proxy, np.zeros((1, 8, 8)))
    out = tmp_path / "out"
    assert main(animate_args(workspace, out, variant=variant, proxy=proxy)) == 2
    assert "proxy" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------


def test_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # At hidden 600 multi-threaded OpenBLAS kernels round differently.  The
    # CLI runs every command on one BLAS thread, so the caller's
    # OPENBLAS_NUM_THREADS cannot change a byte; run.log says what was used.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG_TEXT.replace("dataset.n = 16", "dataset.n = 8")
                   .replace("denoiser.hidden = 32", "denoiser.hidden = 600")
                   .replace("train.epochs = 3", "train.epochs = 1"))
    image = tmp_path / "input.pgm"
    write_pgm(image, quantized_blob())
    src = str(Path(latent_awaken.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    artifacts = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        for args in (
            ["train", "--config", cfg, "--out", out / "ckpt"],
            ["animate", "--config", cfg, "--ckpt", out / "ckpt", "--image", image, "--label", "right",
             "--out", out / "anim"],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "latent_awaken.cli", *map(str, args)],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": pythonpath},
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
        for log in (out / "ckpt" / "run.log", out / "anim" / "run.log"):
            assert "threads: 1\n" in log.read_text()
        artifacts[threads] = [(out / name).read_bytes() for name in ("ckpt/w1.ltn1", "ckpt/loss.csv", "anim/video.ltn1")]
    assert artifacts["1"] == artifacts["2"]


@pytest.mark.parametrize(
    "module, unwanted",
    [
        # numpy is the only runtime dependency; scipy is the tests' reference.
        ("latent_awaken.cli", "scipy"),
        # The method meets a model only through diffusion.Denoiser.
        ("latent_awaken.pipeline", "latent_awaken.toydenoiser"),
        ("latent_awaken.metrics", "latent_awaken.toydenoiser"),
        ("latent_awaken.proxy", "latent_awaken.toydenoiser"),
    ],
)
def test_import_leaves_module_unloaded(module, unwanted):
    src = str(Path(latent_awaken.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import {module}, sys; "
         f"print(sorted(m for m in sys.modules if m == {unwanted!r} or m.startswith({unwanted + '.'!r})))"],
        env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def test_diagnose_static_video(tmp_path, capsys):
    image = quantized_blob()
    video = tmp_path / "static.ltn1"
    write_ltn1(video, replicate_static(image, 16).frames)
    image_path = tmp_path / "ref.pgm"
    write_pgm(image_path, image)

    assert main(["diagnose", "--video", str(video), "--label", "static"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"alignment", "fidelity", "frechet", "linearity", "motion_energy"}
    assert report["motion_energy"] == 0.0
    assert report["alignment"] == 1.0
    assert report["linearity"] == {"variance_ratio": 0.0, "monotonicity": 0.0}
    assert report["frechet"] is None
    assert report["fidelity"] is None

    assert main(["diagnose", "--video", str(video), "--label", "static", "--image", str(image_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["fidelity"] == 0.0


def test_diagnose_moving_video(tmp_path, capsys):
    sample = generate_dataset(1, DatasetParams(shapes=("blob",), labels=("right",)), seed=6).samples[0]
    video = tmp_path / "right.ltn1"
    write_ltn1(video, sample.video.frames)
    assert main(["diagnose", "--video", str(video), "--label", "right"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["alignment"] == 1.0
    assert report["motion_energy"] > 0.0


def test_diagnose_missing_image_is_named_as_the_image(tmp_path, capsys):
    video = tmp_path / "static.ltn1"
    write_ltn1(video, replicate_static(quantized_blob(8), 4).frames)
    missing = tmp_path / "missing.pgm"
    assert main(["diagnose", "--video", str(video), "--label", "static", "--image", str(missing)]) == 2
    err = capsys.readouterr().err
    assert f"input image not found: {missing}" in err
    assert "proxy" not in err


@pytest.mark.parametrize("command", ["diagnose", "animate"])
def test_image_of_another_shape_names_both_shapes(workspace, tmp_path, capsys, command):
    image = tmp_path / "small.pgm"
    write_pgm(image, quantized_blob(6))
    if command == "diagnose":
        video = tmp_path / "static.ltn1"
        write_ltn1(video, replicate_static(quantized_blob(8), 4).frames)
        args = ["diagnose", "--video", str(video), "--label", "static", "--image", str(image)]
        expected = "input image shape (1, 6, 6) does not match the video's frame shape (1, 8, 8)"
    else:
        args = ["animate", "--config", str(workspace["cfg"]), "--ckpt", str(workspace["ckpt"]),
                "--image", str(image), "--label", "right", "--out", str(tmp_path / "out")]
        expected = "input image shape (1, 6, 6) does not match the checkpoint's frame shape (1, 16, 16)"
    assert main(args) == 2
    err = capsys.readouterr().err
    assert expected in err
    assert "proxy" not in err


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------


def test_ablate_variant_sweep(workspace, tmp_path):
    out = tmp_path / "ablate"
    args = ["ablate", "--config", str(workspace["cfg"]), "--ckpt", str(workspace["ckpt"]),
            "--n", "2", "--out", str(out)]
    assert main(args) == 0
    lines = (out / "ablation.csv").read_text().strip().splitlines()
    assert lines[0].startswith("variant,frechet,alignment")
    assert [line.split(",")[0] for line in lines[1:]] == ["Baseline", "V", "S", "VU", "VS"]

    payload = json.loads((out / "ablation.json").read_text())
    assert "ablate.rows = Baseline,V,S,VU,VS" in payload["config"]
    assert "seed = 42" in payload["config"]
    assert payload["config_hash"]
    assert payload["n_items"] == 2

    # same invocation again: byte-identical tables
    out2 = tmp_path / "ablate2"
    assert main(args[:-1] + [str(out2)]) == 0
    assert (out / "ablation.csv").read_bytes() == (out2 / "ablation.csv").read_bytes()
    assert (out / "ablation.json").read_bytes() == (out2 / "ablation.json").read_bytes()


def test_ablate_p_sweep(workspace, tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(CFG_TEXT + "ablate.rows = 0.2, 0.4, 0.6, 0.8, 1.0\n")
    out = tmp_path / "out"
    assert main(["ablate", "--config", str(cfg), "--ckpt", str(workspace["ckpt"]),
                 "--n", "2", "--out", str(out)]) == 0
    lines = (out / "ablation.csv").read_text().strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0.2", "0.4", "0.6", "0.8", "1.0"]


def test_ablate_curve_sweep(workspace, tmp_path):
    cfg = tmp_path / "curves.cfg"
    cfg.write_text(CFG_TEXT + "ablate.rows = LD, SD, SI, LI\n")
    out = tmp_path / "out"
    assert main(["ablate", "--config", str(cfg), "--ckpt", str(workspace["ckpt"]),
                 "--n", "2", "--out", str(out)]) == 0
    lines = (out / "ablation.csv").read_text().strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["LD", "SD", "SI", "LI"]


@pytest.mark.parametrize(
    "rows, keys", [("0.5, 0.5", ["0.5"]), ("SI, LD, si", ["SI", "LD"])], ids=["p", "curves"],
)
def test_ablate_runs_each_grid_value_once(workspace, tmp_path, rows, keys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(CFG_TEXT + f"ablate.rows = {rows}\n")
    out = tmp_path / "out"
    assert main(["ablate", "--config", str(cfg), "--ckpt", str(workspace["ckpt"]),
                 "--n", "2", "--out", str(out)]) == 0
    lines = (out / "ablation.csv").read_text().strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == keys


def test_ablate_writes_rows_in_listed_order(workspace, tmp_path):
    # Variants, curves and stop fractions mix in one list; each row runs
    # once, in the order first listed, with the bytes it has in a list of
    # its own kind.
    csv = {}
    for name, rows in [("mixed", "vs, 0.4, ld, Baseline, 0.40, LD"), ("variants", "Baseline, V, S, VU, VS"),
                       ("p", "0.4"), ("curves", "LD")]:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(CFG_TEXT + f"ablate.rows = {rows}\n")
        out = tmp_path / name
        assert main(["ablate", "--config", str(cfg), "--ckpt", str(workspace["ckpt"]),
                     "--n", "2", "--out", str(out)]) == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        csv[name] = {line.split(",")[0]: line for line in lines[1:]}
        if name == "mixed":
            assert "ablate.rows = VS,0.4,LD,Baseline" in json.loads((out / "ablation.json").read_text())["config"]
    assert list(csv["mixed"]) == ["VS", "0.4", "LD", "Baseline"]
    for key, line in csv["mixed"].items():
        assert line == {**csv["variants"], **csv["p"], **csv["curves"]}[key]


def test_run_artifacts_record_the_settings_they_hash(workspace, tmp_path):
    # Every setting is recorded, so two runs that differ in one key differ in
    # their record; and the record rehashes to the artifact's config_hash.
    records = {}
    for strength in ("0.25", "0.75"):
        cfg = tmp_path / f"strength_{strength}.cfg"
        cfg.write_text(CFG_TEXT + f"ablate.rows = VS\nproxy.strength = {strength}\n")
        anim, ablate = tmp_path / f"anim_{strength}", tmp_path / f"ablate_{strength}"
        assert main(animate_args(dict(workspace, cfg=cfg), anim)) == 0
        assert main(ablate_args(cfg, workspace["ckpt"], ablate)) == 0
        for artifact in (anim / "result.json", ablate / "ablation.json"):
            payload = json.loads(artifact.read_text())
            text = "\n".join(payload["config"]) + "\n"
            assert hashlib.sha256(text.encode()).hexdigest() == payload["config_hash"]
            assert f"proxy.strength = {strength}" in payload["config"]
            records.setdefault(strength, []).append(payload["config"])
    assert records["0.25"][0] == records["0.25"][1]
    assert records["0.75"][0] == records["0.75"][1]
    assert records["0.25"][0] != records["0.75"][0]


class FailsAboveCutoff:
    """Zero-noise denoiser that raises at every level above ``cutoff``."""

    def __init__(self, frames, cutoff):
        self.frames = frames
        self.cutoff = cutoff

    def predict_noise(self, z_t, cond, t):
        if t > self.cutoff:
            raise RuntimeError(f"level {t} above the cut-off")
        return VideoLatent(np.zeros_like(z_t.frames))


@pytest.mark.parametrize(
    "rows, keys",
    [
        ("0.4, 0.8", ["0.4", "0.8"]),
        ("LD, SI", ["LD", "SI"]),
        # rows take the curves' canonical names, however the list spells them
        ("ld, si", ["LD", "SI"]),
    ],
    ids=["p", "curves", "curves-any-case"],
)
def test_sweep_failures_name_their_sweep_point(rows, keys):
    # Every refinement starts at T, above the cut-off, so each item of each
    # sweep point fails; each failure must say which point it belongs to.
    cfg = parse_config(CFG_TEXT + f"ablate.rows = {rows}\n")
    samples = generate_dataset(2, cfg.dataset_params(), seed=1).samples
    model = FailsAboveCutoff(cfg.dataset_params().frames, cutoff=cfg["schedule.steps"] // 2)
    report = run_ablation(
        [(s.cond.image, s.cond) for s in samples], cfg["ablate.rows"], model, cfg.schedule(), cfg.vsds_config(),
        cfg.fusion_config(), SyntheticProvider(cfg.proxy_params()), cfg["seed"],
    )
    assert [(row.key, row.n_ok, row.n_failed) for row in report.rows] == [(key, 0, 2) for key in keys]
    assert [(f["item"], f["variant"]) for f in report.failures] == [(i, key) for key in keys for i in (0, 1)]
    assert all("above the cut-off" in f["error"] for f in report.failures)


class FailsOnCondition:
    """Forwards to ``model`` but raises for one item's condition, so that
    item fails at every sweep point and the others succeed."""

    def __init__(self, model, cond):
        self.model, self.cond, self.frames = model, cond, model.frames

    def predict_noise(self, z_t, cond, t):
        if cond is self.cond:
            raise RuntimeError("refused condition")
        return self.model.predict_noise(z_t, cond, t)


def per_point_reports(cfg, model, benchmark, reference):
    """The sweep as one ``run_ablation`` call per point, its rows and
    failures re-keyed by the point: the reference for one call over all
    the points."""
    base = cfg.vsds_config()
    points = [
        (row.value, replace(base, curve=replace(base.curve, kind=row)))
        if isinstance(row, CurveKind) else (repr(row), replace(base, p=row))
        for row in cfg["ablate.rows"]
    ]
    rows, failures = [], []
    for key, vsds_cfg in points:
        report = run_ablation(
            benchmark, [PipelineVariant.VS], model, cfg.schedule(), vsds_cfg, cfg.fusion_config(),
            SyntheticProvider(cfg.proxy_params()), cfg["seed"], reference,
        )
        rows.append(replace(report.rows[0], key=key))
        failures.extend({**failure, "variant": key} for failure in report.failures)
    return AblationReport(rows, report.feature_dim, report.n_items, failures)


@pytest.mark.parametrize("rows", ["0.2, 0.4, 0.6, 0.8, 1.0", "LD, SD, SI, LI"], ids=["p", "curves"])
def test_sweep_is_one_task_list_with_the_per_point_results(workspace, monkeypatch, rows):
    # One task list for the whole sweep gives the rows, counts and failure
    # records of one run per point, and fits the reference features once.
    cfg = parse_config(CFG_TEXT + f"ablate.rows = {rows}\n")
    samples = generate_dataset(3, cfg.dataset_params(), seed=5).samples
    benchmark = [(s.cond.image, s.cond) for s in samples]
    reference = [s.video for s in samples]
    model = FailsOnCondition(load_checkpoint(workspace["ckpt"])[0], benchmark[1][1])
    expected = per_point_reports(cfg, model, benchmark, reference)

    calls = []

    def counted(video, featurize=metrics.video_features):
        calls.append(video)
        return featurize(video)

    monkeypatch.setattr(metrics, "video_features", counted)
    report = run_ablation(
        benchmark, cfg["ablate.rows"], model, cfg.schedule(), cfg.vsds_config(), cfg.fusion_config(),
        SyntheticProvider(cfg.proxy_params()), cfg["seed"], reference, threads=2,
    )
    assert [(row.key, row.n_ok, row.n_failed) for row in report.rows] == [
        (row.key, 2, 1) for row in expected.rows
    ]
    assert report.failures == expected.failures
    assert report.to_csv() == expected.to_csv()
    assert report.to_json() == expected.to_json()
    assert len(calls) == len(reference) + len(report.rows) * 2


@pytest.mark.parametrize(
    "command, line",
    [("animate", "dataset.height = 12"), ("animate", "denoiser.hidden = 64"), ("animate", "denoiser.t_embed = 8"),
     ("ablate", "denoiser.hidden = 64"), ("ablate", "denoiser.t_embed = 8")],
)
def test_config_of_another_model_is_refused(workspace, tmp_path, capsys, command, line):
    # Every model dimension the config sets must be the checkpoint's; one
    # that differs is refused by name before anything is written.
    key = line.split(" = ")[0]
    cfg = tmp_path / "model.cfg"
    cfg.write_text("".join(l for l in CFG_TEXT.splitlines(keepends=True) if not l.startswith(key)) + line + "\n")
    out = tmp_path / "out"
    if command == "animate":
        args = animate_args(dict(workspace, cfg=cfg), out)
    else:
        args = ablate_args(cfg, workspace["ckpt"], out)
    assert main(args) == 2
    assert f"config key '{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_pool_size_follows_the_affinity_mask(workspace, tmp_path, monkeypatch):
    # The task pool takes the cores the process may run on, with a floor of
    # two workers; its size must not change a byte.  run.log names the
    # threads the tasks ran on, which is not the core count.
    csv = {}
    for cores in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: set(range(cores)), raising=False)
        out = tmp_path / str(cores)
        assert main(["ablate", "--config", str(workspace["cfg"]), "--ckpt", str(workspace["ckpt"]),
                     "--n", "2", "--out", str(out)]) == 0
        assert f"2 task thread(s) on {cores} core(s)" in (out / "run.log").read_text()
        csv[cores] = (out / "ablation.csv").read_bytes()
    assert csv[1] == csv[2]
    # A single (item, variant) task runs on the caller's thread alone.
    cfg = tmp_path / "one.cfg"
    cfg.write_text(CFG_TEXT + "ablate.rows = VS\n")
    out = tmp_path / "one"
    assert main(["ablate", "--config", str(cfg), "--ckpt", str(workspace["ckpt"]), "--n", "1", "--out", str(out)]) == 0
    assert "1 task thread(s) on 2 core(s)" in (out / "run.log").read_text()


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


def test_missing_config_is_usage_error(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "nope.cfg" in err


@pytest.mark.parametrize("line", ["denoiser.t_embed = 3", "denoiser.t_embed = 0", "denoiser.hidden = 0"])
def test_unusable_denoiser_size_exits_before_any_compute(tmp_path, capsys, monkeypatch, line):
    generated = []
    monkeypatch.setattr("latent_awaken.cli.generate_dataset", lambda *args, **kwargs: generated.append(args))
    key = line.split(" = ")[0]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(l for l in CFG_TEXT.splitlines(keepends=True) if not l.startswith(key)) + line + "\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err and "duplicate" not in err
    assert not generated
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line",
    ["dataset.blob_sigma = 1.0", "dataset.blob_sigma = 3.0, 2.0", "dataset.blob_sigma = 0.0, 0.0",
     "dataset.square_half = -3"],
)
def test_unusable_dataset_size_exits_before_any_compute(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG_TEXT + line + "\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert line.split(" = ")[0].removeprefix("dataset.") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line, needle",
    [("fusion.angle_scope = global", "unknown config key 'fusion.angle_scope'"),
     ("vsds.curve = constant", "unknown weight curve 'constant'"),
     ("pipeline.variants = VS", "unknown config key 'pipeline.variants'"),
     ("ablate.sweep = p", "unknown config key 'ablate.sweep'"),
     ("ablate.p_grid = 0.4", "unknown config key 'ablate.p_grid'"),
     ("ablate.curve_grid = LD", "unknown config key 'ablate.curve_grid'")],
)
def test_removed_settings_are_usage_errors(tmp_path, capsys, line, needle):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG_TEXT + line + "\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option, command, kind", [
    ("--config", "train", "dir"), ("--image", "animate", "dir"), ("--video", "diagnose", "dir"),
    ("--proxy", "animate", "dir"), ("--proxy", "animate", "missing"),
    *[("--out", command, kind) for command in ("train", "animate", "ablate") for kind in ("file", "under-a-file")],
])
def test_path_of_the_wrong_kind_is_usage_error(workspace, tmp_path, capsys, monkeypatch, option, command, kind):
    # An input file that is a directory, or an output directory that is a
    # file or lies below one, is refused by path before any compute.
    computed = []
    monkeypatch.setattr("latent_awaken.cli.generate_dataset", lambda *args, **kwargs: computed.append(args))
    monkeypatch.setattr("latent_awaken.cli.animate", lambda *args, **kwargs: computed.append(args))
    (tmp_path / "file").write_text("")
    bad = {"dir": tmp_path / "dir", "file": tmp_path / "file", "under-a-file": tmp_path / "file" / "sub",
           "missing": tmp_path / "missing"}[kind]
    if kind == "dir":
        bad.mkdir()
    video = tmp_path / "video.ltn1"
    write_ltn1(video, replicate_static(quantized_blob(), 4).frames)
    paths = {"--config": workspace["cfg"], "--image": workspace["image"], "--video": video,
             "--out": tmp_path / "out", "--proxy": workspace["image"], option: bad}
    args = {
        "train": ["train", "--config", paths["--config"], "--out", paths["--out"]],
        "animate": ["animate", "--config", paths["--config"], "--ckpt", workspace["ckpt"], "--image", paths["--image"],
                    "--label", "right", "--proxy", paths["--proxy"], "--out", paths["--out"]],
        "ablate": ["ablate", "--config", paths["--config"], "--ckpt", workspace["ckpt"], "--n", "1",
                   "--out", paths["--out"]],
        "diagnose": ["diagnose", "--video", paths["--video"], "--label", "right", "--image", paths["--image"]],
    }[command]
    assert main([str(a) for a in args]) == 2
    assert str(bad) in capsys.readouterr().err
    assert not computed


def test_missing_checkpoint_is_usage_error(workspace, tmp_path):
    rc = main(["animate", "--config", str(workspace["cfg"]), "--ckpt", str(tmp_path / "none"),
               "--image", str(workspace["image"]), "--label", "right", "--out", str(tmp_path / "out")])
    assert rc == 2


def test_unknown_label_is_usage_error(workspace, tmp_path, capsys):
    # The label is refused as unknown before the checkpoint is asked about it.
    rc = main(animate_args(workspace, tmp_path / "out", label="diagonal"))
    assert rc == 2
    assert f"unknown motion label 'diagonal'; known: {MOTION_LABELS}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, content",
    [("manifest.json", None), ("w2.ltn1", None), ("manifest.json", b"not json\n"),
     ("manifest.json", b"\xff{}\n"), ("run.cfg", b"\xffseed = 42\n")],
    ids=["manifest-dir", "parameter-dir", "manifest-not-json", "manifest-not-utf8", "config-not-utf8"],
)
def test_malformed_input_file_is_refused_by_name(workspace, tmp_path, capsys, name, content):
    # A checkpoint or config file that is a directory, or whose bytes do not
    # decode, is a usage error that names the file, not a runtime failure.
    ckpt = tmp_path / "ckpt"
    shutil.copytree(workspace["ckpt"], ckpt)
    cfg = tmp_path / "run.cfg"
    shutil.copy(workspace["cfg"], cfg)
    bad = cfg if name == "run.cfg" else ckpt / name
    bad.unlink()
    if content is None:
        bad.mkdir()
    else:
        bad.write_bytes(content)
    assert main(animate_args(dict(workspace, cfg=cfg, ckpt=ckpt), tmp_path / "anim")) == 2
    assert str(bad) in capsys.readouterr().err
    assert not (tmp_path / "anim").exists()


def ablate_args(cfg, ckpt, out):
    return ["ablate", "--config", str(cfg), "--ckpt", str(ckpt), "--n", "1", "--out", str(out)]


def test_checkpoint_from_another_schedule_is_refused(workspace, tmp_path, capsys):
    cfg = tmp_path / "steps.cfg"
    cfg.write_text(CFG_TEXT.replace("schedule.steps = 40", "schedule.steps = 60"))
    assert main(animate_args(dict(workspace, cfg=cfg), tmp_path / "anim")) == 2
    assert "schedule digest" in capsys.readouterr().err
    assert main(ablate_args(cfg, workspace["ckpt"], tmp_path / "ablate")) == 2
    assert "schedule digest" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line", ["dataset.frames = 6", "dataset.channels = 2", "dataset.height = 12", "dataset.width = 20"]
)
def test_ablate_refuses_a_checkpoint_of_another_frame_shape(workspace, tmp_path, capsys, line):
    cfg = tmp_path / "shape.cfg"
    cfg.write_text(CFG_TEXT + line + "\n")
    out = tmp_path / "ablate"
    assert main(ablate_args(cfg, workspace["ckpt"], out)) == 2
    assert f"'{line.split(' = ')[0]}'" in capsys.readouterr().err
    assert not out.exists()


def test_label_the_checkpoint_never_saw_is_refused(workspace, tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(workspace["ckpt"], ckpt)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["dataset"]["labels"] = ["right", "left"]
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    ws = dict(workspace, ckpt=ckpt)
    assert main(animate_args(ws, tmp_path / "known", label="left")) == 0
    assert main(animate_args(ws, tmp_path / "unknown", label="up")) == 2
    assert "['up']" in capsys.readouterr().err
    assert main(ablate_args(workspace["cfg"], ckpt, tmp_path / "ablate")) == 2
    assert "['static', 'up', 'down', 'grow']" in capsys.readouterr().err


def copy_with_manifest_edit(workspace, ckpt, edit):
    shutil.copytree(workspace["ckpt"], ckpt)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    edit(manifest)
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    return dict(workspace, ckpt=ckpt)


@pytest.mark.parametrize("null", [False, True], ids=["absent", "null"])
@pytest.mark.parametrize("key", ["schedule_digest", "dataset"])
def test_checkpoint_without_provenance_is_refused(workspace, tmp_path, capsys, key, null):
    # Without its schedule digest or dataset a checkpoint cannot be checked
    # against the config, so it is refused rather than trusted.
    ws = copy_with_manifest_edit(
        workspace, tmp_path / "ckpt", lambda m: m.update({key: None}) if null else m.pop(key)
    )
    assert main(animate_args(ws, tmp_path / "anim")) == 2
    assert repr(key) in capsys.readouterr().err
    assert main(ablate_args(ws["cfg"], ws["ckpt"], tmp_path / "ablate")) == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize(
    "manifest, key",
    [
        (lambda m: {**m, "dataset": {k: v for k, v in m["dataset"].items() if k != "labels"}}, "'dataset.labels'"),
        (lambda m: {**m, "dataset": list(m["dataset"].values())}, "'dataset.labels'"),
        (lambda m: {**m, "dataset": {**m["dataset"], "labels": "right,left"}}, "'dataset.labels'"),
        (lambda m: {**m, "dataset": {**m["dataset"], "labels": ["right", "sideways"]}}, "'dataset.labels'"),
        (lambda m: [m], "not a JSON object"),
        (lambda m: {**m, "format": "something-else-v9"}, "'format'"),
        (lambda m: {k: v for k, v in m.items() if k != "format"}, "'format'"),
    ],
    ids=["labels-absent", "dataset-list", "labels-string", "labels-unknown", "manifest-list", "format-other",
         "format-absent"],
)
def test_checkpoint_with_malformed_provenance_is_usage_error(workspace, tmp_path, capsys, manifest, key):
    # A manifest whose provenance has the wrong form cannot be checked
    # against the config; it is refused by path and key, not used or
    # failed on at runtime.
    ckpt = tmp_path / "ckpt"
    shutil.copytree(workspace["ckpt"], ckpt)
    (ckpt / "manifest.json").write_text(json.dumps(manifest(json.loads((ckpt / "manifest.json").read_text()))))
    assert main(animate_args(dict(workspace, ckpt=ckpt), tmp_path / "anim", label="right")) == 2
    err = capsys.readouterr().err
    assert f"checkpoint manifest {ckpt / 'manifest.json'}" in err
    assert key in err
    assert not (tmp_path / "anim").exists()


@pytest.mark.parametrize("dim", MODEL_DIMS)
def test_checkpoint_without_a_dimension_is_usage_error(workspace, tmp_path, capsys, dim):
    ws = copy_with_manifest_edit(workspace, tmp_path / "ckpt", lambda m: m.pop(dim))
    assert main(animate_args(ws, tmp_path / "anim")) == 2
    assert repr(dim) in capsys.readouterr().err


@pytest.mark.parametrize("value", ["64", 64.0, 16.5, True, 0], ids=["str", "integral-float", "float", "bool", "zero"])
def test_checkpoint_with_a_dimension_that_is_not_a_positive_integer_is_usage_error(workspace, tmp_path, capsys, value):
    ws = copy_with_manifest_edit(workspace, tmp_path / "ckpt", lambda m: m.update(hidden=value))
    assert main(animate_args(ws, tmp_path / "anim")) == 2
    assert "'hidden'" in capsys.readouterr().err


@pytest.mark.parametrize("n_labels", [4, len(MOTION_LABELS)])
def test_checkpoint_that_records_a_label_count(workspace, tmp_path, capsys, n_labels):
    # A manifest written before the label count was fixed carries "n_labels".
    # At the vocabulary's count the checkpoint animates to the same bytes; a
    # W1 built for another count is refused by its shape.
    ws = copy_with_manifest_edit(workspace, tmp_path / "ckpt", lambda m: m.update(n_labels=n_labels))
    w1 = read_ltn1(ws["ckpt"] / "w1.ltn1")
    shape = (w1.shape[0] - len(MOTION_LABELS) + n_labels, w1.shape[1])
    write_ltn1(ws["ckpt"] / "w1.ltn1", w1[: shape[0]])
    rc = main(animate_args(ws, tmp_path / "anim"))
    if n_labels == len(MOTION_LABELS):
        assert rc == 0
        assert main(animate_args(workspace, tmp_path / "fresh")) == 0
        assert read_bytes_map(tmp_path / "anim") == read_bytes_map(tmp_path / "fresh")
    else:
        assert rc == 2
        assert f"'w1' has shape {shape}, the manifest's model needs {w1.shape}" in capsys.readouterr().err
        assert not (tmp_path / "anim").exists()


def test_checkpoint_missing_a_parameter_file_is_usage_error(workspace, tmp_path, capsys):
    ws = dict(workspace, ckpt=tmp_path / "ckpt")
    shutil.copytree(workspace["ckpt"], ws["ckpt"])
    (ws["ckpt"] / "w2.ltn1").unlink()
    assert main(animate_args(ws, tmp_path / "anim")) == 2
    assert "w2.ltn1" in capsys.readouterr().err


def test_corrupt_video_is_usage_error(tmp_path, capsys):
    path = tmp_path / "corrupt.ltn1"
    path.write_bytes(b"XXXXnot a tensor")
    rc = main(["diagnose", "--video", str(path), "--label", "static"])
    assert rc == 2
    assert "corrupt.ltn1" in capsys.readouterr().err


def test_ablate_rejects_empty_benchmark(workspace, tmp_path, capsys):
    rc = main(["ablate", "--config", str(workspace["cfg"]), "--ckpt", str(workspace["ckpt"]),
               "--n", "0", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "--n" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()  # swallow argparse's usage text
