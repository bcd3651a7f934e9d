"""Record the committed fixture thresholds used by the acceptance tests.

Re-run this after any change to tests/fixture_recipe.py:

    python3 scripts/freeze_fixtures.py

It trains the two fixture priors, measures the motion-injection energies on
the held-out set, runs the noise calibration for the linearity metric, and
writes tests/fixtures/acceptance_thresholds.json.  The margins (0.8x / 1.25x)
leave headroom for cross-platform floating-point drift while staying far from
the 10x ratio the acceptance bound asks for.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from latent_awaken.diffusion import VideoLatent, replicate_static
from latent_awaken.metrics import linearity_score, motion_energy
from latent_awaken.numerics import one_blas_thread
from latent_awaken.rng import stream
from latent_awaken.vsds import vsds_refine

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import fixture_recipe as recipe  # noqa: E402


def motion_injection_energies(motion_model, static_model, sched):
    vs, base = recipe.held_out_runs(motion_model, static_model, sched)
    return np.array([motion_energy(v) for v in vs]), np.array([motion_energy(v) for v in base])


def refinement_energy_and_anchor(motion_model, sched, held_out):
    """Single-path refinement on each held-out item: energy + frame anchoring."""
    energies = []
    anchor_pass = 0
    anchor_total = 0
    for i, sample in enumerate(held_out.samples):
        image = sample.cond.image
        static = replicate_static(image, motion_model.frames)
        refined = vsds_refine(
            static, sample.cond, motion_model, sched, recipe.VSDS_CFG,
            rng=stream(recipe.HELD_OUT_RUN_SEED + i, "vsds/real"),
        )
        energies.append(motion_energy(refined))
        d_first = np.abs(refined.frames[0] - image.grid).mean()
        d_last = np.abs(refined.frames[-1] - image.grid).mean()
        anchor_total += 1
        anchor_pass += int(d_first < d_last)
    return np.array(energies), anchor_pass, anchor_total


def linearity_noise_calibration(n_trials=1000, frame_count=16, side=16, bound=0.6):
    """|rho| of pure-noise videos: how often it stays under the bound."""
    below = 0
    monos = []
    for trial in range(n_trials):
        gen = stream(trial, "linearity-calibration")
        v = VideoLatent(gen.standard_normal((frame_count, 1, side, side)))
        _, mono = linearity_score(v)
        monos.append(mono)
        below += int(mono < bound)
    return below, n_trials, float(np.max(monos))


@one_blas_thread()  # so the recorded numbers do not depend on the core count
def main():
    t0 = time.perf_counter()
    sched = recipe.schedule()

    print("training motion prior ...", flush=True)
    motion_model, t_motion = recipe.train_motion_model()
    print(f"  done in {t_motion:.1f}s", flush=True)

    print("training static prior ...", flush=True)
    static_model, t_static = recipe.train_static_model()
    print(f"  done in {t_static:.1f}s", flush=True)

    print("running held-out motion-injection fixture ...", flush=True)
    vs, base = motion_injection_energies(motion_model, static_model, sched)
    print(f"  VS energy   mean {vs.mean():.6f}  min {vs.min():.6f}")
    print(f"  base energy mean {base.mean():.8f}  max {base.max():.8f}")
    print(f"  ratio of means: {vs.mean() / base.mean():.1f}")

    print("measuring single-path refinement energies ...", flush=True)
    refine_energy, anchor_pass, anchor_total = refinement_energy_and_anchor(
        motion_model, sched, recipe.held_out_set()
    )
    print(f"  refined energy min {refine_energy.min():.6f}")
    print(f"  first-frame anchor holds on {anchor_pass}/{anchor_total} items")

    print("calibrating linearity monotonicity on pure noise ...", flush=True)
    below, trials, worst = linearity_noise_calibration()
    print(f"  |rho| < 0.6 in {below}/{trials} trials (worst {worst:.3f})")

    payload = {
        "recipe": {
            "schedule": [recipe.SCHEDULE_STEPS, recipe.SCHEDULE_BETA_START, recipe.SCHEDULE_BETA_END],
            "held_out": [recipe.HELD_OUT_N, recipe.HELD_OUT_DATA_SEED, recipe.HELD_OUT_RUN_SEED],
            "bench": [recipe.BENCH_N, recipe.BENCH_DATA_SEED, recipe.BENCH_RUN_SEED],
        },
        "motion_injection": {
            "vs_energy_mean": float(vs.mean()),
            "baseline_energy_mean": float(base.mean()),
            "vs_energy_min": float(0.8 * vs.mean()),
            "baseline_energy_max": float(1.25 * base.mean()),
            "baseline_energy_item_max": float(1.25 * base.max()),
        },
        "refinement": {
            "energy_min": float(0.5 * refine_energy.min()),
            "anchor_pass": anchor_pass,
            "anchor_total": anchor_total,
        },
        "linearity_noise": {
            "trials": trials,
            "below_bound": below,
            "bound": 0.6,
            "worst_mono": worst,
        },
    }

    out = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
    out.mkdir(parents=True, exist_ok=True)
    path = out / "acceptance_thresholds.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path} ({time.perf_counter() - t0:.1f}s total)")


if __name__ == "__main__":
    main()
