"""Frozen recipe for the benchmark fixtures shared by the test suite.

Everything the acceptance tests compare against (trained priors, benchmark
items, per-item run seeds, refinement settings, the held-out runs) is pinned
here, and ``scripts/freeze_fixtures.py`` uses the *same* functions to record
the committed thresholds in ``tests/fixtures/``.  Any change here invalidates
the recorded numbers and the freeze script must be re-run.

Design notes on the choices below:

* The schedule is shortened to 120 steps with a hotter beta_end so a full
  reverse pass stays cheap while the final alpha_bar still lands under 0.01.
* Benchmark motion uses sub-pixel velocities (0.15..0.25).  At velocity 1.0
  a 16-frame clip wraps the whole torus, which caps the ground-truth
  linearity variance_ratio around 0.45; slower motion keeps trajectories on
  a clean line (>0.9) as the procedural reference should be.
* Refinement weights are small (0.1/0.05).  The default 2.0/1.0 injects a
  visible imprint of the frozen noise draw into the latent, which inflates
  the per-frame energy features and swamps the distribution distance.
"""

from __future__ import annotations

import time

from latent_awaken.diffusion import NoiseSchedule, VideoLatent
from latent_awaken.fusion import FusionConfig
from latent_awaken.pipeline import PipelineVariant, _animate_items
from latent_awaken.proxy import SyntheticProvider, SyntheticProviderParams
from latent_awaken.toydenoiser import (
    DatasetParams,
    MotionDataset,
    ToyDenoiser,
    generate_dataset,
    train,
)
from latent_awaken.vsds import CurveKind, VsdsConfig, WeightCurve

SCHEDULE_STEPS = 120
SCHEDULE_BETA_START = 1e-4
SCHEDULE_BETA_END = 0.08

MOTION_PARAMS = DatasetParams(
    shapes=("blob",),
    labels=("right", "left", "up", "down"),
    velocities=(0.15, 0.2, 0.25),
    blob_sigma=(2.0, 2.8),
)
STATIC_PARAMS = DatasetParams(
    shapes=("blob",),
    labels=("static",),
    blob_sigma=(2.0, 2.8),
)

VSDS_CFG = VsdsConfig(
    p=0.6,
    curve=WeightCurve(CurveKind.STEPWISE_DECREASING, w_hi=0.1, w_lo=0.05),
    seed=0,
)
FUSION_CFG = FusionConfig()
PROXY_PARAMS = SyntheticProviderParams(motion_hint_strength=1.0)

# Benchmark of moving-label items (ordering comparisons) and a disjoint
# held-out set (motion-injection thresholds).  Per-item animate seeds are
# BENCH_RUN_SEED + i / HELD_OUT_RUN_SEED + i.
BENCH_N = 50
BENCH_DATA_SEED = 300
BENCH_RUN_SEED = 1000

HELD_OUT_N = 20
HELD_OUT_DATA_SEED = 400
HELD_OUT_RUN_SEED = 2000


def schedule() -> NoiseSchedule:
    return NoiseSchedule.linear(SCHEDULE_STEPS, SCHEDULE_BETA_START, SCHEDULE_BETA_END)


def motion_benchmark(n: int = BENCH_N, seed: int = BENCH_DATA_SEED) -> MotionDataset:
    return generate_dataset(n, MOTION_PARAMS, seed=seed)


def held_out_set() -> MotionDataset:
    return generate_dataset(HELD_OUT_N, MOTION_PARAMS, seed=HELD_OUT_DATA_SEED)


def outputs_in_order(results, n_items, variants) -> dict[PipelineVariant, list[VideoLatent]]:
    """``_animate_items`` results as one output list per variant; raises the
    failure a loop over the items, each running ``variants`` in order, would
    meet first, naming its item and variant."""
    for i in range(n_items):
        for variant in variants:
            failure = results[i, variant]
            if isinstance(failure, Exception):
                raise RuntimeError(f"item {i}, variant {variant.value}: {failure}") from failure
    return {variant: [results[i, variant] for i in range(n_items)] for variant in variants}


def held_out_runs(motion_model, static_model, sched) -> tuple[list[VideoLatent], list[VideoLatent]]:
    """VS (motion prior) and Baseline (static prior) outputs per held-out
    item; item i runs with seed HELD_OUT_RUN_SEED + i under the full
    refinement/fusion settings."""
    items = [(s.cond.image, s.cond) for s in held_out_set().samples]
    vs, base = PipelineVariant.VS, PipelineVariant.BASELINE
    vs_runs, _ = _animate_items(
        items, {vs: (vs, VSDS_CFG)}, motion_model, sched, HELD_OUT_RUN_SEED,
        fusion_cfg=FUSION_CFG, proxy_provider=SyntheticProvider(PROXY_PARAMS),
    )
    base_runs, _ = _animate_items(items, {base: (base, VsdsConfig())}, static_model, sched, HELD_OUT_RUN_SEED)
    runs = outputs_in_order({**vs_runs, **base_runs}, len(items), (vs, base))
    return runs[vs], runs[base]


def _train_two_phase(model: ToyDenoiser, dataset, sched, seeds: tuple[int, int]):
    # A short high-rate phase does the bulk of the fitting and a low-rate
    # phase settles it; both phases are seeded so the result is reproducible.
    train(model, dataset, sched, epochs=30, lr=0.5, seed=seeds[0])
    _, result = train(model, dataset, sched, epochs=30, lr=0.1, seed=seeds[1])
    return result


def train_motion_model() -> tuple[ToyDenoiser, float]:
    """Prior trained on moving blobs only; returns (model, wall seconds)."""
    t0 = time.perf_counter()
    data = generate_dataset(256, MOTION_PARAMS, seed=21)
    model = ToyDenoiser(hidden=600, t_embed=16, seed=21)
    _train_two_phase(model, data, schedule(), seeds=(22, 23))
    return model, time.perf_counter() - t0


def train_static_model() -> tuple[ToyDenoiser, float]:
    """Prior trained on static clips only (the no-motion failure mode)."""
    t0 = time.perf_counter()
    data = generate_dataset(256, STATIC_PARAMS, seed=12)
    # Wider timestep embedding: the static prior must denoise accurately at
    # every level for the plain-sampling baseline to come out truly static.
    model = ToyDenoiser(hidden=600, t_embed=32, seed=12)
    _train_two_phase(model, data, schedule(), seeds=(13, 14))
    return model, time.perf_counter() - t0
