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

``run_ablation`` scores rows over a benchmark set with the metrics module
and serializes a fixed-column table.  A row is a variant, a weight curve or
a stop fraction p; ``ablation_runs`` says what each runs, and rows that run
the same way share their tasks and their score.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
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
from .vsds import CurveKind, VsdsConfig, dual_path_refine, tau_step, vsds_refine


class PipelineVariant(Enum):
    BASELINE = "Baseline"
    V = "V"
    S = "S"
    VU = "VU"
    VS = "VS"


# The paper's table order: the default ``ablate.rows`` and the benchmark's rows.
VARIANT_ORDER = tuple(PipelineVariant)


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


def ablation_runs(rows, vsds_cfg: VsdsConfig) -> dict[str, tuple[PipelineVariant, VsdsConfig]]:
    """Row key -> the ``(variant, VsdsConfig)`` the row runs, in listed
    order; a repeated key keeps its first place.  A ``PipelineVariant`` runs
    with ``vsds_cfg`` under its value, a ``CurveKind`` runs VS with that
    curve under its value, and a float p runs VS with that p under
    ``repr(float(p))``.  Anything else is refused by name."""
    runs = {}
    for row in rows:
        if isinstance(row, PipelineVariant):
            key, run = row.value, (row, vsds_cfg)
        elif isinstance(row, CurveKind):
            key, run = row.value, (PipelineVariant.VS, replace(vsds_cfg, curve=replace(vsds_cfg.curve, kind=row)))
        elif isinstance(row, float):
            key, run = repr(float(row)), (PipelineVariant.VS, replace(vsds_cfg, p=float(row)))
        else:
            raise ValueError(f"not a pipeline variant, a weight curve or a stop fraction p: {row!r}")
        runs.setdefault(key, run)
    return runs


class StageError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


def _frame_count(denoiser: Denoiser) -> int:
    frames = getattr(denoiser, "frames", None)
    if frames is None:
        raise ValueError("denoiser must expose its frame count")
    return frames


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
    if not isinstance(variant, PipelineVariant):
        raise ValueError(f"not a pipeline variant: {variant!r}")
    frames = _frame_count(denoiser)

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
    # Threads the (item, run) tasks ran on; 1 is the caller's own.  Kept
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


def _score_run(
    outcomes: list[VideoLatent | Exception],
    benchmark: list[tuple[FrameLatent, Condition]],
    reference_stats: metrics.FeatureStats | None,
) -> tuple[metrics.MetricReport, int, int]:
    """One run's (report, n_ok, n_failed) from its outcome per benchmark
    item: per-item metrics averaged over the items that did not raise,
    ``frechet`` from the fit over them; all None when none succeeded."""
    outputs = [(v, cond, image) for v, (image, cond) in zip(outcomes, benchmark) if not isinstance(v, Exception)]
    n_failed = len(outcomes) - len(outputs)
    if not outputs:
        return metrics.MetricReport(**dict.fromkeys(CSV_COLUMNS[1:])), 0, n_failed
    feats = np.stack([metrics.video_features(v) for v, _, _ in outputs])
    frechet = None
    if reference_stats is not None and len(outputs) >= 2:
        frechet = metrics.frechet_distance(metrics.FeatureStats.from_features(feats), reference_stats)
    per_item = [metrics.diagnose_video(v, cond, image) for v, cond, image in outputs]
    means = {n: float(np.mean([getattr(r, n) for r in per_item])) for n in CSV_COLUMNS[1:] if n != "frechet"}
    return metrics.MetricReport(frechet=frechet, **means), len(outputs), n_failed


def _animate_items(
    items: list[tuple[FrameLatent, Condition]], runs, denoiser: Denoiser, sched: NoiseSchedule,
    base_seed: int = 42, threads: int = 1, **settings,
) -> tuple[dict[tuple[PipelineVariant, VsdsConfig], list[VideoLatent | Exception]], int]:
    """``{run: [animate output or the exception it raised, per item]}``
    for each distinct ``(variant, VsdsConfig)`` of ``runs`` in first-listed
    order, and the number of threads the runs shared.  Item ``i`` runs with
    seed ``base_seed + i`` and ``settings``, the rest of ``animate``'s
    keyword arguments.

    Each item and distinct run is one task, in item-major order; the tasks
    share one pool of ``max(threads, 2)`` workers, capped at the number of
    tasks.  The floor of two is what a single VS or VU run already takes
    for its two refinement paths, so ``threads`` 1 and 2 behave the same.
    On a pool worker, as on any thread but the main one, a dual refinement
    runs its paths one after the other.  A run of exactly one task stays
    on the caller's thread.  Each output is the bytes of the same
    ``animate`` call made on its own.
    """

    def run_task(task):
        i, (variant, vsds_cfg) = task
        image, cond = items[i]
        try:
            return animate(image, cond, variant, denoiser, sched, vsds_cfg, seed=base_seed + i, **settings).output
        except Exception as exc:  # noqa: BLE001 - returned, not silenced
            return exc

    runs = list(dict.fromkeys(runs))
    tasks = [(i, run) for i in range(len(items)) for run in runs]
    workers = min(max(threads, 2), len(tasks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(run_task, tasks))
    else:
        done = list(map(run_task, tasks))
    return {run: done[k :: len(runs)] for k, run in enumerate(runs)}, workers


@one_blas_thread()
def run_ablation(
    benchmark: list[tuple[FrameLatent, Condition]],
    rows: list,
    denoiser: Denoiser,
    sched: NoiseSchedule,
    vsds_cfg: VsdsConfig = VsdsConfig(),
    fusion_cfg: FusionConfig = FusionConfig(),
    proxy_provider: ProxyProvider = SyntheticProvider(),
    base_seed: int = 42,
    reference_videos: list[VideoLatent] | None = None,
    threads: int = 1,
) -> AblationReport:
    """Score each row of ``rows``, the kinds of entry ``ablate.rows``
    parses to, over the benchmark, in listed order; ``ablation_runs`` says
    what each row runs.  Item ``i`` runs with seed ``base_seed + i`` in
    every row, on ``_animate_items``'s pool.  The reference features are
    fitted once, and each distinct run is scored once, on the caller's
    thread in item order, so the report does not depend on the pool; rows
    that name one run share its score.  Items whose run raises are recorded
    in ``failures`` under each key that names the run, key-major and
    item-minor, and left out of that run's aggregates.
    """
    runs = ablation_runs(rows, vsds_cfg)
    if not benchmark:
        raise ValueError("benchmark must be non-empty")
    if not runs:
        raise ValueError("need at least one variant or sweep point")
    frames = _frame_count(denoiser)
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

    outcomes, workers = _animate_items(benchmark, runs.values(), denoiser, sched, base_seed, threads,
                                       fusion_cfg=fusion_cfg, proxy_provider=proxy_provider)
    scores = {run: _score_run(out, benchmark, reference_stats) for run, out in outcomes.items()}
    report_rows = [AblationRow(key, *scores[run]) for key, run in runs.items()]
    failures = [{"item": i, "variant": key, "error": str(out)}
                for key, run in runs.items() for i, out in enumerate(outcomes[run]) if isinstance(out, Exception)]
    return AblationReport(report_rows, metrics.feature_length(frames), len(benchmark), failures, workers)
