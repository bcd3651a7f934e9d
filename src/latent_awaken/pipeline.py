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
from dataclasses import dataclass, field
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
from .proxy import ProxyProvider, SyntheticProvider
from .rng import stream
from .vsds import VsdsConfig, _keep_paths_serial, dual_path_refine, tau_step, vsds_refine


class PipelineVariant(Enum):
    BASELINE = "Baseline"
    V = "V"
    S = "S"
    VU = "VU"
    VS = "VS"


VARIANT_ORDER = (
    PipelineVariant.BASELINE,
    PipelineVariant.V,
    PipelineVariant.S,
    PipelineVariant.VU,
    PipelineVariant.VS,
)

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


def parse_variant(name: str) -> PipelineVariant:
    key = name.strip().lower()
    for v in PipelineVariant:
        if v.value.lower() == key:
            return v
    raise ValueError(f"unknown pipeline variant {name!r}; known: {[v.value for v in PipelineVariant]}")


class StageError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


@dataclass(eq=False)
class RunResult:
    output: VideoLatent
    variant: PipelineVariant
    config: dict
    timing: dict[str, float]
    seed: int
    stages: dict[str, VideoLatent | FrameLatent] = field(default_factory=dict)


def _config_snapshot(variant, seed, sched, vsds_cfg, fusion_cfg, resume_from) -> dict:
    return {
        "variant": variant.value,
        "seed": seed,
        "resume_from": resume_from,
        "schedule_steps": sched.steps,
        "beta_start": float(sched.betas[0]),
        "beta_end": float(sched.betas[-1]),
        "vsds": {
            "p": vsds_cfg.p,
            "curve": vsds_cfg.curve.kind.value,
            "w_hi": vsds_cfg.curve.w_hi,
            "w_lo": vsds_cfg.curve.w_lo,
            "omega_mode": vsds_cfg.omega_mode,
            "shared_noise": vsds_cfg.shared_noise,
        },
        "fusion": {
            "angle_scope": fusion_cfg.angle_scope.value,
            "epsilon_theta": fusion_cfg.epsilon_theta,
        },
    }


def animate(
    image: FrameLatent,
    cond: Condition,
    variant: PipelineVariant,
    denoiser: Denoiser,
    sched: NoiseSchedule,
    vsds_cfg: VsdsConfig = VsdsConfig(),
    fusion_cfg: FusionConfig = FusionConfig(),
    proxy_provider: ProxyProvider | None = None,
    seed: int = 42,
    resume_from: str = "tau",
) -> RunResult:
    """Run one variant end to end; fully deterministic in (inputs, seed).

    All randomness flows through labeled streams derived from ``seed``: each
    refinement path and the re-noising draw have their own stream, so
    identical calls are bit-identical.  The final reverse pass is
    variance-zeroed — it tracks the posterior mean, so the output
    reflects the prepared latent rather than fresh sampling noise (the toy
    denoiser is too small to scrub late-step noise the way a large model
    would).  Intermediate latents are kept in ``RunResult.stages``.
    """
    if resume_from not in ("tau", "T"):
        raise ValueError(f"resume_from must be 'tau' or 'T', got {resume_from!r}")
    frames = getattr(denoiser, "frames", None)
    if frames is None:
        raise ValueError("denoiser must expose its frame count")
    if proxy_provider is None:
        proxy_provider = SyntheticProvider()

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
                rng_real=stream(seed, "vsds/shared" if vsds_cfg.shared_noise else "vsds/real"),
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

    if (refinement, fusion) == (None, None) or resume_from == "T":
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

    return RunResult(
        output=output,
        variant=variant,
        config=_config_snapshot(variant, seed, sched, vsds_cfg, fusion_cfg, resume_from),
        timing=timing,
        seed=seed,
        stages=stages,
    )


# ---------------------------------------------------------------------------
# Ablation harness
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("variant", "frechet", "alignment", "linearity_vr", "linearity_mono", "motion_energy", "fidelity")


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

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            r = row.report
            cells = [row.key] + [
                "" if value is None else repr(float(value))
                for value in (r.frechet, r.alignment, r.linearity_vr, r.linearity_mono, r.motion_energy, r.fidelity)
            ]
            lines.append(",".join(cells))
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
    outputs: list[tuple[int, VideoLatent, Condition, FrameLatent]],
    reference_stats: metrics.FeatureStats | None,
    n_failed: int,
) -> AblationRow:
    feats = np.stack([metrics.video_features(v) for _, v, _, _ in outputs])
    frechet = None
    if reference_stats is not None and len(outputs) >= 2:
        frechet = metrics.frechet_distance(metrics.FeatureStats.from_features(feats), reference_stats)
    per_item = [metrics.diagnose_video(v, cond, image) for _, v, cond, image in outputs]
    report = metrics.MetricReport(
        frechet=frechet,
        alignment=float(np.mean([r.alignment for r in per_item])),
        linearity_vr=float(np.mean([r.linearity_vr for r in per_item])),
        linearity_mono=float(np.mean([r.linearity_mono for r in per_item])),
        motion_energy=float(np.mean([r.motion_energy for r in per_item])),
        fidelity=float(np.mean([r.fidelity for r in per_item])),
    )
    return AblationRow(key, report, len(outputs), n_failed)


def run_ablation(
    benchmark: list[tuple[FrameLatent, Condition]],
    variants: list[PipelineVariant],
    denoiser: Denoiser,
    sched: NoiseSchedule,
    vsds_cfg: VsdsConfig = VsdsConfig(),
    fusion_cfg: FusionConfig = FusionConfig(),
    proxy_provider: ProxyProvider | None = None,
    base_seed: int = 42,
    resume_from: str = "tau",
    reference_videos: list[VideoLatent] | None = None,
    threads: int = 1,
) -> AblationReport:
    """Score each variant over the benchmark; rows follow VARIANT_ORDER.

    Item ``i`` runs with seed ``base_seed + i`` for every variant, so variants
    see identical noise streams and differ only in pipeline structure.  Items
    whose run raises are recorded in ``failures`` and excluded from that
    variant's aggregates.  With ``threads > 1`` and more than one item, up to
    ``threads`` items run concurrently, each with its two refinement paths
    serial, since the pool has the cores; results are re-sorted by item
    index, so the report is identical.  A single item runs on the caller's
    thread, which keeps its two paths concurrent.
    """
    if not benchmark:
        raise ValueError("benchmark must be non-empty")
    if not variants:
        raise ValueError("variant list must be non-empty")
    variants = [v for v in VARIANT_ORDER if v in set(variants)]

    reference_stats = None
    if reference_videos is not None and len(reference_videos) >= 2:
        ref_feats = np.stack([metrics.video_features(v) for v in reference_videos])
        reference_stats = metrics.FeatureStats.from_features(ref_feats)

    def run_item(args):
        i, (image, cond) = args
        results = {}
        for variant in variants:
            try:
                run = animate(
                    image, cond, variant, denoiser, sched, vsds_cfg, fusion_cfg,
                    proxy_provider, seed=base_seed + i, resume_from=resume_from,
                )
                results[variant] = run.output
            except Exception as exc:  # noqa: BLE001 - recorded, not silenced
                results[variant] = exc
        return i, results

    tasks = list(enumerate(benchmark))
    workers = min(threads, len(tasks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers, initializer=_keep_paths_serial) as pool:
            item_results = sorted(pool.map(run_item, tasks), key=lambda r: r[0])
    else:
        item_results = [run_item(t) for t in tasks]

    rows, failures = [], []
    for variant in variants:
        outputs, n_failed = [], 0
        for i, results in item_results:
            value = results[variant]
            if isinstance(value, Exception):
                failures.append({"item": i, "variant": variant.value, "error": str(value)})
                n_failed += 1
            else:
                outputs.append((i, value, benchmark[i][1], benchmark[i][0]))
        if not outputs:
            rows.append(AblationRow(variant.value, metrics.MetricReport(None, 0.0, 0.0, 0.0, 0.0, None), 0, n_failed))
            continue
        rows.append(_score_outputs(variant.value, outputs, reference_stats, n_failed))

    return AblationReport(
        rows=rows,
        feature_dim=metrics.feature_length(denoiser.frames),
        n_items=len(benchmark),
        failures=failures,
    )
