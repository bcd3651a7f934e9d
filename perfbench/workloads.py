"""The benchmark's three workloads, built on latent_awaken's public API only.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Inputs come from ``generate_dataset``
and no checkpoint is read from disk.  The settings are the acceptance-fixture
recipe of ``tests/fixture_recipe.py``, copied rather than imported so that a
change to the test recipe cannot silently change what the benchmark measures.

An operation returns its result from ``op(k)``; ``check(k, result)`` is run
outside the timed region and returns the problems it found.  An operation
that raises is a failed operation, counted by the caller.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from latent_awaken import pipeline
from latent_awaken.diffusion import NoiseSchedule
from latent_awaken.fusion import FusionConfig
from latent_awaken.proxy import SyntheticProvider, SyntheticProviderParams
from latent_awaken.rng import stream
from latent_awaken.toydenoiser import DatasetParams, ToyDenoiser, generate_dataset, train
from latent_awaken.vsds import CurveKind, VsdsConfig, WeightCurve

# Acceptance-fixture recipe: 120-step schedule with beta_end 0.08, slow
# moving blobs, VSDS weights 0.1/0.05 at p = 0.6, proxy strength 1.0, and a
# 600-wide prior with a 16-wide time embedding.
SCHEDULE = NoiseSchedule.linear(120, 1e-4, 0.08)
MOTION_PARAMS = DatasetParams(
    shapes=("blob",),
    labels=("right", "left", "up", "down"),
    velocities=(0.15, 0.2, 0.25),
    blob_sigma=(2.0, 2.8),
)
VSDS_CFG = VsdsConfig(p=0.6, curve=WeightCurve(CurveKind.STEPWISE_DECREASING, w_hi=0.1, w_lo=0.05), seed=0)
FUSION_CFG = FusionConfig()
PROXY_PARAMS = SyntheticProviderParams(motion_hint_strength=1.0)
HIDDEN = 600
T_EMBED = 16
TRAIN_SAMPLES = 256

# The prior is trained in process for a few epochs only: inference cost
# depends on the model's shape, not on how long it was trained.
PRIOR_SEED = 21
PRIOR_EPOCHS = 3

# animate and ablate draw their items from a fixed pool whose VS outputs are
# recorded in the reference file; the workload seed sets the order.
POOL_SIZE = 256
POOL_DATA_SEED = 7
POOL_RUN_SEED = 1000
ABLATE_BATCH = 4

REFERENCE = Path(__file__).parent / "reference" / "animate_vs.json"
SKETCH_ROWS = 8
SKETCH_SEED = 5


def recipe() -> dict:
    """What the reference outputs depend on; stored with them and checked."""
    return {
        "schedule": [SCHEDULE.steps, float(SCHEDULE.betas[0]), float(SCHEDULE.betas[-1])],
        "hidden": HIDDEN,
        "t_embed": T_EMBED,
        "prior_seed": PRIOR_SEED,
        "prior_epochs": PRIOR_EPOCHS,
        "pool_size": POOL_SIZE,
        "pool_data_seed": POOL_DATA_SEED,
        "pool_run_seed": POOL_RUN_SEED,
        "vsds": [VSDS_CFG.p, VSDS_CFG.curve.kind.value, VSDS_CFG.curve.w_hi, VSDS_CFG.curve.w_lo],
        "proxy_strength": PROXY_PARAMS.motion_hint_strength,
        "sketch": [SKETCH_ROWS, SKETCH_SEED],
    }


def build_prior() -> ToyDenoiser:
    data = generate_dataset(TRAIN_SAMPLES, MOTION_PARAMS, seed=PRIOR_SEED)
    model = ToyDenoiser(hidden=HIDDEN, t_embed=T_EMBED, seed=PRIOR_SEED)
    train(model, data, SCHEDULE, epochs=PRIOR_EPOCHS, lr=0.5, seed=PRIOR_SEED + 1)
    return model


def pool_samples():
    return generate_dataset(POOL_SIZE, MOTION_PARAMS, seed=POOL_DATA_SEED).samples


def animate_vs(sample, j: int, denoiser, provider):
    """The full method on pool item ``j``, called through the module so a
    traced run sees it."""
    return pipeline.animate(
        sample.cond.image, sample.cond, pipeline.PipelineVariant.VS, denoiser, SCHEDULE,
        VSDS_CFG, FUSION_CFG, provider, seed=POOL_RUN_SEED + j,
    ).output


def sketch(frames: np.ndarray) -> np.ndarray:
    """[norm, 8 unit-vector projections] of a flattened output.

    Any perturbation much larger than the tolerance moves some projection
    by more than the tolerance, except with negligible probability.
    """
    flat = frames.reshape(-1)
    basis = stream(SKETCH_SEED, "perfbench/sketch").standard_normal((SKETCH_ROWS, flat.size))
    basis /= np.linalg.norm(basis, axis=1, keepdims=True)
    return np.concatenate([[np.linalg.norm(flat)], basis @ flat])


def load_reference() -> tuple[np.ndarray, float]:
    ref = json.loads(REFERENCE.read_text())
    if ref["recipe"] != recipe():
        raise ValueError(f"{REFERENCE.name} was recorded for another recipe; rerun make_reference.py")
    return np.asarray(ref["sketches"]), float(ref["tolerance"])


class _Inference:
    """Set-up shared by the two inference workloads: the prior is built
    anew each time; ``denoiser`` and ``provider`` may be swapped for traced
    wrappers."""

    setup_repeats = 3

    def __init__(self, seed: int):
        self.samples = pool_samples()
        self.order = stream(seed, "perfbench/order").permutation(POOL_SIZE)

    def setup(self) -> None:
        self.model = build_prior()
        self.denoiser = self.model
        self.provider = SyntheticProvider(PROXY_PARAMS)


class Animate(_Inference):
    """``pipeline.animate`` with the VS variant, one pool item per operation."""

    items_per_op = 1

    def __init__(self, seed: int):
        super().__init__(seed)
        self.reference, self.tolerance = load_reference()
        self.outputs: dict[int, bytes] = {}

    def op(self, k: int):
        j = int(self.order[k % POOL_SIZE])
        return animate_vs(self.samples[j], j, self.denoiser, self.provider)

    def check(self, k: int, out) -> list[str]:
        j = int(self.order[k % POOL_SIZE])
        where = f"animate op {k} (pool item {j})"
        if out.shape != self.model.video_shape:
            return [f"{where}: shape {out.shape} != {self.model.video_shape}"]
        if not np.isfinite(out.frames).all():
            return [f"{where}: non-finite output"]
        problems = []
        ref = self.reference[j]
        worst = float(np.abs(sketch(out.frames) - ref).max() / ref[0])
        if worst > self.tolerance:
            problems.append(f"{where}: off the reference by {worst:.3e} of its norm (tolerance {self.tolerance:.0e})")
        data = out.frames.tobytes()
        if self.outputs.setdefault(k, data) != data:
            problems.append(f"{where}: rerun gave different bytes")
        return problems


class Ablate(_Inference):
    """``pipeline.run_ablation`` over a batch of pool items: all five
    variants, reference-set scoring, one thread."""

    items_per_op = ABLATE_BATCH

    def __init__(self, seed: int):
        super().__init__(seed)
        self.reports: dict[int, str] = {}

    def op(self, k: int):
        batch = [self.samples[int(self.order[(k * ABLATE_BATCH + b) % POOL_SIZE])] for b in range(ABLATE_BATCH)]
        report = pipeline.run_ablation(
            [(s.cond.image, s.cond) for s in batch], list(pipeline.VARIANT_ORDER), self.denoiser, SCHEDULE,
            VSDS_CFG, FUSION_CFG, self.provider, base_seed=POOL_RUN_SEED + k * ABLATE_BATCH,
            reference_videos=[s.video for s in batch], threads=1,
        )
        if report.failures:
            raise RuntimeError("; ".join(f"{f['variant']} item {f['item']}: {f['error']}" for f in report.failures))
        return report

    def check(self, k: int, report) -> list[str]:
        where = f"ablate op {k}"
        problems = []
        if [row.key for row in report.rows] != [v.value for v in pipeline.VARIANT_ORDER]:
            problems.append(f"{where}: rows {[row.key for row in report.rows]}")
        for row in report.rows:
            r = row.report
            values = (r.frechet, r.alignment, r.linearity_vr, r.linearity_mono, r.motion_energy, r.fidelity)
            if row.n_failed or row.n_ok != ABLATE_BATCH:
                problems.append(f"{where}: {row.key} has {row.n_ok} ok, {row.n_failed} failed")
            if any(v is None or not np.isfinite(v) for v in values):
                problems.append(f"{where}: {row.key} has missing or non-finite metrics {values}")
        csv = report.to_csv()
        if self.reports.setdefault(k, csv) != csv:
            problems.append(f"{where}: rerun gave a different table")
        return problems


class Train:
    """``toydenoiser.train`` for one epoch per operation on one model."""

    items_per_op = 1
    setup_repeats = 11  # a set-up takes about 0.1 s, so its median needs more of them

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.data = generate_dataset(TRAIN_SAMPLES, MOTION_PARAMS, seed=self.seed)
        self.model = ToyDenoiser(hidden=HIDDEN, t_embed=T_EMBED, seed=PRIOR_SEED)

    def op(self, k: int):
        _, result = train(self.model, self.data, SCHEDULE, epochs=1, seed=k)
        return result

    def check(self, k: int, result) -> list[str]:
        return [] if np.isfinite(result.final_loss) else [f"train epoch {k}: loss {result.final_loss}"]


WORKLOADS = {"animate": Animate, "ablate": Ablate, "train": Train}
