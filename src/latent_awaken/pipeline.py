"""End-to-end image-to-video runs and the variant-comparison harness.

``animate`` turns one still image into a video latent by composing the
stages: replicate the image into a static video, fabricate a proxy image,
score-distill both latents, fuse them into a hybrid latent, push the result
back out to an intermediate noise level and finish with a variance-zeroed
reverse pass.  Five variants cover the ablation grid, from the plain sampler
(Baseline) to the full method (VS).  ``VARIANT_STAGES`` is the one place that
says which refinement and which fusion each variant runs:

    Baseline  no refinement, no fusion  -> noise to T   -> sample from T
    V         refine real path only     -> noise to tau -> sample
    S         fuse the two *un-refined* statics (slerp)  -> sample
    VU        dual-path refine + uniform (linear) fusion -> sample
    VS        dual-path refine + spherical fusion        -> sample

``run_ablation`` scores variants over a benchmark set with the metrics
module and serializes a fixed-column table.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from . import metrics
from .diffusion import (
    Condition,
    Denoiser,
    FrameLatent,
    NoiseSchedule,
    VideoLatent,
    forward_noise,
    replicate_static,
    reverse_sample,
)
from .fusion import FusionConfig, slerp_fuse, uniform_fuse
from .numerics import one_blas_thread
from .proxy import ProxyProvider, SyntheticProvider
from .rng import stream
from .vsds import VsdsConfig, _keep_paths_serial, dual_path_refine, tau_step, vsds_refine


class PipelineVariant(Enum):
    BASELINE = "Baseline"
    V = "V"
    S = "S"
    VU = "VU"
    VS = "VS"


# Ablation rows follow the enum's definition order.
VARIANT_ORDER = tuple(PipelineVariant)


def ordered_variants(variants) -> tuple[PipelineVariant, ...]:
    """``variants`` in VARIANT_ORDER, each once, however they were listed.
    Anything that is not a ``PipelineVariant`` is refused."""
    variants = tuple(variants)
    for v in variants:
        if not isinstance(v, PipelineVariant):
            raise ValueError(f"not a pipeline variant: {v!r}")
    return tuple(v for v in VARIANT_ORDER if v in variants)


# variant -> (refinement: None/"real"/"dual", fusion: None/"slerp"/"uniform").
# The proxy is made whenever a fusion runs; the row with neither is the plain
# sampler and restarts from T.
VARIANT_STAGES = {
    PipelineVariant.BASELINE: (None, None),
    PipelineVariant.V: ("real", None),
    PipelineVariant.S: (None, "slerp"),
    PipelineVariant.VU: ("dual", "uniform"),
    PipelineVariant.VS: ("dual", "slerp"),
}


class StageError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


@dataclass(eq=False)
class RunResult:
    output: VideoLatent
    timing: dict[str, float]
    stages: dict[str, VideoLatent | FrameLatent] = field(default_factory=dict)


@one_blas_thread()
def animate(
    image: FrameLatent,
    cond: Condition,
    variant: PipelineVariant,
    denoiser: Denoiser,
    sched: NoiseSchedule,
    vsds_cfg: VsdsConfig = VsdsConfig(),
    fusion_cfg: FusionConfig = FusionConfig(),
    proxy_provider: ProxyProvider = SyntheticProvider(),
    seed: int = 42,
) -> RunResult:
    """Run one variant end to end; fully deterministic in (inputs, seed).

    All randomness flows through labeled streams derived from ``seed``: each
    refinement path and the re-noising draw have their own stream, so
    identical calls are bit-identical.  The final reverse pass is
    variance-zeroed — it tracks the posterior mean, so the output
    reflects the prepared latent rather than fresh sampling noise (the toy
    denoiser is too small to scrub late-step noise the way a large model
    would).  The reverse pass starts at the stopping level tau of
    ``vsds_cfg`` after a refinement or a fusion, and at the top T for
    Baseline, which has neither.  Intermediate latents are kept in
    ``RunResult.stages``.
    """
    frames = getattr(denoiser, "frames", None)
    if frames is None:
        raise ValueError("denoiser must expose its frame count")

    timing: dict[str, float] = {}
    stages: dict[str, VideoLatent | FrameLatent] = {}

    def run_stage(name, fn):
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            raise StageError(f"stage {name!r}: {exc}") from exc
        timing[name] = time.perf_counter() - t0
        return result

    refinement, fusion = VARIANT_STAGES[variant]
    real = run_stage("replicate", lambda: replicate_static(image, frames))
    stages["static"] = real

    if fusion is not None:
        proxy_image = run_stage("proxy", lambda: proxy_provider.synthesize(image, cond))
        proxy = replicate_static(proxy_image, frames)
        stages["proxy_image"] = proxy_image

    if refinement == "real":
        real = run_stage(
            "vsds", lambda: vsds_refine(real, cond, denoiser, sched, vsds_cfg, rng=stream(seed, "vsds/real"))
        )
        stages["refined_real"] = real
    elif refinement == "dual":
        real, proxy = run_stage(
            "vsds",
            lambda: dual_path_refine(
                real,
                proxy,
                cond,
                denoiser,
                sched,
                vsds_cfg,
                rng_real=stream(seed, "vsds/real"),
                rng_proxy=stream(seed, "vsds/proxy"),
            ),
        )
        stages["refined_real"] = real
        stages["refined_proxy"] = proxy

    if fusion == "slerp":
        pre_latent = run_stage("fusion", lambda: slerp_fuse(real, proxy, fusion_cfg))
    elif fusion == "uniform":
        pre_latent = run_stage("fusion", lambda: uniform_fuse(real, proxy))
    else:
        pre_latent = real
    stages["pre_latent"] = pre_latent

    if (refinement, fusion) == (None, None):
        t_start = sched.steps
    else:
        t_start = tau_step(sched.steps, vsds_cfg.p)

    def renoise():
        eps = stream(seed, "resample").standard_normal(pre_latent.shape)
        return forward_noise(pre_latent, t_start, eps, sched)

    z_t = run_stage("resample", renoise)
    output = run_stage(
        "reverse",
        lambda: reverse_sample(z_t, t_start, cond, denoiser, sched),
    )

    return RunResult(output=output, timing=timing, stages=stages)


# ---------------------------------------------------------------------------
# Ablation harness
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("variant",) + tuple(f.name for f in fields(metrics.MetricReport))


@dataclass(eq=False)
class AblationRow:
    key: str
    report: metrics.MetricReport
    n_ok: int
    n_failed: int


@dataclass(eq=False)
class AblationReport:
    rows: list[AblationRow]
    feature_dim: int
    n_items: int
    failures: list[dict]
    # Threads the (item, variant) tasks ran on; 1 is the caller's own.  Kept
    # out of both artifacts, whose bytes must not depend on the pool.
    workers: int = 1

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            values = (getattr(row.report, name) for name in CSV_COLUMNS[1:])
            lines.append(",".join([row.key] + ["" if v is None else repr(float(v)) for v in values]))
        return "\n".join(lines) + "\n"

    def to_json(self, extra: dict | None = None) -> str:
        payload = {
            "feature_dim": self.feature_dim,
            "n_items": self.n_items,
            "rows": [
                {"key": row.key, "n_ok": row.n_ok, "n_failed": row.n_failed, **row.report.to_dict()}
                for row in self.rows
            ],
            "failures": self.failures,
        }
        if extra:
            payload.update(extra)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _score_outputs(
    key: str,
    outputs: list[tuple[VideoLatent, Condition, FrameLatent]],
    reference_stats: metrics.FeatureStats | None,
    n_failed: int,
) -> AblationRow:
    """Per-item metrics averaged, ``frechet`` from the fit over all items;
    every field is None when no item succeeded."""
    if not outputs:
        return AblationRow(key, metrics.MetricReport(**dict.fromkeys(CSV_COLUMNS[1:])), 0, n_failed)
    feats = np.stack([metrics.video_features(v) for v, _, _ in outputs])
    frechet = None
    if reference_stats is not None and len(outputs) >= 2:
        frechet = metrics.frechet_distance(metrics.FeatureStats.from_features(feats), reference_stats)
    per_item = [metrics.diagnose_video(v, cond, image) for v, cond, image in outputs]
    means = {n: float(np.mean([getattr(r, n) for r in per_item])) for n in CSV_COLUMNS[1:] if n != "frechet"}
    return AblationRow(key, metrics.MetricReport(frechet=frechet, **means), len(outputs), n_failed)


def _animate_items(
    items: list[tuple[FrameLatent, Condition]], runs: dict, denoiser: Denoiser, sched: NoiseSchedule,
    base_seed: int = 42, threads: int = 1, **settings,
) -> tuple[dict[tuple[int, object], VideoLatent | Exception], int]:
    """``animate`` output of every (item, key) pair, or the exception its
    run raised, and the number of threads the runs shared.  ``runs`` maps
    each row key to the ``(variant, VsdsConfig)`` it runs.  Item ``i`` runs
    with seed ``base_seed + i`` and ``settings``, the rest of ``animate``'s
    keyword arguments.

    Each pair is one task, and the tasks share one pool of
    ``max(threads, 2)`` workers, capped at the number of tasks.  The floor
    of two is what a single VS or VU run already takes for its two
    refinement paths, so ``threads`` 1 and 2 behave the same.  Pool workers
    run a dual refinement's paths one after the other, since the pool has
    the cores.  A run of exactly one task stays on the caller's thread,
    which keeps its two paths concurrent.  Each output is the bytes of the
    same ``animate`` call made on its own.
    """

    def run_task(task):
        i, key = task
        image, cond = items[i]
        variant, vsds_cfg = runs[key]
        try:
            return animate(image, cond, variant, denoiser, sched, vsds_cfg, seed=base_seed + i, **settings).output
        except Exception as exc:  # noqa: BLE001 - returned, not silenced
            return exc

    tasks = [(i, key) for i in range(len(items)) for key in runs]
    workers = min(max(threads, 2), len(tasks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers, initializer=_keep_paths_serial) as pool:
            return dict(zip(tasks, pool.map(run_task, tasks))), workers
    return dict(zip(tasks, map(run_task, tasks))), workers


@one_blas_thread()
def _run_rows(
    benchmark: list[tuple[FrameLatent, Condition]], runs: dict[str, tuple[PipelineVariant, VsdsConfig]],
    denoiser: Denoiser, sched: NoiseSchedule, reference_videos: list[VideoLatent] | None,
    base_seed: int, threads: int, **settings,
) -> AblationReport:
    """Score each row of ``runs``, a map from row key to the ``(variant,
    VsdsConfig)`` it runs, over the benchmark; rows follow ``runs``, and
    ``settings`` are the rest of ``animate``'s keyword arguments.

    Every (item, row) pair is one task of ``_animate_items``'s pool, and the
    reference features are fitted once for all rows.  Results are taken
    back in item order and scored on the caller's thread, so the report
    does not depend on the pool.  Failures name the row key.
    """
    if not benchmark:
        raise ValueError("benchmark must be non-empty")
    if not runs:
        raise ValueError("need at least one variant or sweep point")
    frames = denoiser.frames
    if frames < metrics.LINEARITY_MIN_FRAMES:
        raise ValueError(f"scoring needs at least {metrics.LINEARITY_MIN_FRAMES} frames; the model makes {frames}")
    clip = (frames, *benchmark[0][0].shape)
    for i, video in enumerate(reference_videos or ()):
        if video.shape != clip:
            raise ValueError(f"reference video {i} has shape {video.shape}, the benchmark's clips have {clip}")

    reference_stats = None
    if reference_videos is not None and len(reference_videos) >= 2:
        ref_feats = np.stack([metrics.video_features(v) for v in reference_videos])
        reference_stats = metrics.FeatureStats.from_features(ref_feats)

    results, workers = _animate_items(benchmark, runs, denoiser, sched, base_seed, threads, **settings)

    rows, failures = [], []
    for key in runs:
        outputs, n_failed = [], 0
        for i, (image, cond) in enumerate(benchmark):
            value = results[i, key]
            if isinstance(value, Exception):
                failures.append({"item": i, "variant": key, "error": str(value)})
                n_failed += 1
            else:
                outputs.append((value, cond, image))
        rows.append(_score_outputs(key, outputs, reference_stats, n_failed))

    return AblationReport(rows, metrics.feature_length(frames), len(benchmark), failures, workers)


def run_ablation(
    benchmark: list[tuple[FrameLatent, Condition]],
    variants: list[PipelineVariant],
    denoiser: Denoiser,
    sched: NoiseSchedule,
    vsds_cfg: VsdsConfig = VsdsConfig(),
    fusion_cfg: FusionConfig = FusionConfig(),
    proxy_provider: ProxyProvider = SyntheticProvider(),
    base_seed: int = 42,
    reference_videos: list[VideoLatent] | None = None,
    threads: int = 1,
) -> AblationReport:
    """Score each variant over the benchmark; rows follow VARIANT_ORDER.

    Item ``i`` runs with seed ``base_seed + i`` for every variant, so variants
    see identical noise streams and differ only in pipeline structure.  Items
    whose run raises are recorded in ``failures`` and excluded from that
    variant's aggregates.
    """
    return _run_rows(
        benchmark, {v.value: (v, vsds_cfg) for v in ordered_variants(variants)}, denoiser, sched,
        reference_videos, base_seed, threads,
        fusion_cfg=fusion_cfg, proxy_provider=proxy_provider,
    )
