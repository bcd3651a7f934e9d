"""Acceptance gate: the eight checks the package has to clear, end to end.

Each test prints one ``[PASS]/[FAIL] criterion N`` line with the measured
numbers so a plain ``pytest -s tests/test_acceptance.py`` reads as a report.
The expensive inputs (trained priors, benchmark runs) come from the session
fixtures in ``conftest.py``, which follow the frozen recipe in
``fixture_recipe.py``; their wall-clock cost is charged against the runtime
budgets below rather than hidden in fixture setup.
"""

from __future__ import annotations

import time

import numpy as np

import fixture_recipe as recipe
from doubles import FRAME_SHAPE, CountingGen, EchoOracle, ZeroDenoiser, tiled_video, unit_pair
from latent_awaken.cli import main
from latent_awaken.diffusion import Condition, FrameLatent, NoiseSchedule, VideoLatent
from latent_awaken.fusion import AngleScope, FusionConfig, slerp_fuse, uniform_fuse
from latent_awaken.metrics import FeatureStats, frechet_distance, linearity_score, motion_energy
from latent_awaken.pipeline import PipelineVariant
from latent_awaken.rng import stream
from latent_awaken.toydenoiser import ToyDenoiser, generate_dataset
from latent_awaken.vsds import VsdsConfig, dual_path_refine, update_count, vsds_refine
from training_checks import evaluate_loss, gradient_check

PER_FRAME = FusionConfig(angle_scope=AngleScope.PER_FRAME)

CFG_TEXT = """\
seed = 42
dataset.n = 16
schedule.steps = 40
schedule.beta_end = 0.25
denoiser.hidden = 32
train.epochs = 3
"""


def report(n: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. spherical interpolation invariants
# ---------------------------------------------------------------------------


def test_criterion_1_slerp_invariants():
    t0 = time.perf_counter()
    gen = stream(5, "acceptance/slerp")
    n_pairs = 1000
    worst_endpoint = 0.0
    worst_norm = 0.0
    dominant = 0
    for _ in range(n_pairs):
        theta = 0.1 + 2.9 * gen.uniform()
        u, v = unit_pair(gen, theta)
        r = 0.5 + 2.0 * gen.uniform()
        a = tiled_video(r * u)
        b = tiled_video(r * v)
        arc = slerp_fuse(a, b, PER_FRAME)
        chord = uniform_fuse(a, b)
        worst_endpoint = max(
            worst_endpoint,
            float(np.abs(arc.frames[0] - a.frames[0]).max()),
            float(np.abs(arc.frames[-1] - b.frames[-1]).max()),
        )
        norms = np.linalg.norm(arc.frames.reshape(3, -1), axis=1)
        worst_norm = max(worst_norm, float(np.abs(norms - r).max()))
        dominant += int(
            np.linalg.norm(arc.frames[1]) > np.linalg.norm(chord.frames[1])
        )
    # endpoint reproduction must also hold for unconstrained inputs
    for seed in range(50):
        g = stream(seed, "acceptance/slerp-endpoints")
        a = VideoLatent(g.standard_normal((4, *FRAME_SHAPE)))
        b = VideoLatent(g.standard_normal((4, *FRAME_SHAPE)) * 1.7)
        for cfg in (FusionConfig(), PER_FRAME):
            arc = slerp_fuse(a, b, cfg)
            worst_endpoint = max(
                worst_endpoint,
                float(np.abs(arc.frames[0] - a.frames[0]).max()),
                float(np.abs(arc.frames[-1] - b.frames[-1]).max()),
            )
    elapsed = time.perf_counter() - t0
    ok = (
        worst_endpoint <= 1e-12
        and worst_norm <= 1e-9
        and dominant == n_pairs
        and elapsed < 5.0
    )
    assert report(
        1,
        ok,
        f"endpoints {worst_endpoint:.1e} (<=1e-12), norm drift {worst_norm:.1e} "
        f"(<=1e-9), dominance {dominant}/{n_pairs}, {elapsed:.2f}s (<5s)",
    )


# ---------------------------------------------------------------------------
# 2. refinement fixed point and noise budget
# ---------------------------------------------------------------------------


def test_criterion_2_refinement_fixed_point():
    t0 = time.perf_counter()
    sched = NoiseSchedule.linear(1000, 1e-4, 0.02)
    cfg = VsdsConfig(p=0.6, seed=0)
    shape = (4, 1, 8, 8)
    z0 = VideoLatent(stream(3, "acceptance/vsds").standard_normal(shape) * 0.1)
    cond = Condition(FrameLatent(z0.frames[0]), 0)

    eps = stream(11, "vsds/real").standard_normal(shape)
    oracle = EchoOracle(eps, frames=shape[0])
    counter = CountingGen(stream(11, "vsds/real").bit_generator)
    out = vsds_refine(z0, cond, oracle, sched, cfg, rng=counter)
    bit_identical = out.frames.tobytes() == z0.frames.tobytes()

    real = CountingGen(stream(21, "a").bit_generator)
    proxy = CountingGen(stream(22, "b").bit_generator)
    dual_path_refine(
        z0, z0, cond, ZeroDenoiser(shape[0]), sched, cfg,
        rng_real=real, rng_proxy=proxy,
    )
    elapsed = time.perf_counter() - t0
    ok = (
        bit_identical
        and oracle.calls == 401 == update_count(sched.steps, cfg.p)
        and counter.draws == 1
        and real.draws == 1
        and proxy.draws == 1
        and elapsed < 10.0
    )
    assert report(
        2,
        ok,
        f"fixed point bit-identical={bit_identical}, calls {oracle.calls} (==401), "
        f"draws/path {counter.draws}/{real.draws}/{proxy.draws} (==1), "
        f"{elapsed:.2f}s (<10s)",
    )


# ---------------------------------------------------------------------------
# 3. denoiser training
# ---------------------------------------------------------------------------


def test_criterion_3_training(motion_model, sched):
    model, train_secs = motion_model
    t0 = time.perf_counter()
    probe = generate_dataset(64, recipe.MOTION_PARAMS, seed=500)
    worst_grad = gradient_check(model, probe, sched, n_coords=20, seed=0)
    trained = evaluate_loss(model, probe, sched, seed=11)
    zero = evaluate_loss(
        ToyDenoiser(hidden=600, t_embed=16, seed=999), probe, sched, seed=11
    )
    elapsed = train_secs + (time.perf_counter() - t0)
    ok = worst_grad < 1e-4 and trained < 0.7 * zero and elapsed < 600.0
    assert report(
        3,
        ok,
        f"gradcheck {worst_grad:.2e} (<1e-4), held-out loss {trained:.1f} vs "
        f"zero-predictor {zero:.1f} (ratio {trained / zero:.3f} < 0.7), "
        f"{elapsed:.1f}s (<600s incl. training)",
    )


# ---------------------------------------------------------------------------
# 4. motion injection on held-out items
# ---------------------------------------------------------------------------


def test_criterion_4_motion_injection(held_out_runs, thresholds):
    vs = np.array([motion_energy(v) for v in held_out_runs["vs"]])
    base = np.array([motion_energy(v) for v in held_out_runs["baseline"]])
    frozen = thresholds["motion_injection"]
    ratio = float(vs.mean() / base.mean())
    elapsed = held_out_runs["run_seconds"] + held_out_runs["train_seconds"]
    ok = (
        ratio > 10.0
        and vs.mean() >= frozen["vs_energy_min"]
        and base.mean() <= frozen["baseline_energy_max"]
        and base.max() <= frozen["baseline_energy_item_max"]
        and elapsed < 300.0
    )
    assert report(
        4,
        ok,
        f"energy ratio {ratio:.1f} (>10), refined mean {vs.mean():.5f} "
        f"(>={frozen['vs_energy_min']:.5f}), baseline mean {base.mean():.6f} "
        f"(<={frozen['baseline_energy_max']:.6f}), {elapsed:.1f}s (<300s incl. training)",
    )


# ---------------------------------------------------------------------------
# 5. benchmark ordering: alignment and distribution distance
# ---------------------------------------------------------------------------


def test_criterion_5_benchmark_ordering(bench_runs):
    vs, vu, base = (bench_runs["rows"][v] for v in (PipelineVariant.VS, PipelineVariant.VU, PipelineVariant.BASELINE))
    elapsed = bench_runs["run_seconds"] + bench_runs["train_seconds"]
    ok = vs.alignment > base.alignment and vs.frechet < base.frechet and vs.frechet <= vu.frechet and elapsed < 900.0
    assert report(
        5,
        ok,
        f"alignment {vs.alignment:.3f} > {base.alignment:.3f}, distance {vs.frechet:.3f} < base "
        f"{base.frechet:.3f} and <= uniform {vu.frechet:.3f}, {elapsed:.1f}s (<900s incl. training)",
    )


# ---------------------------------------------------------------------------
# 6. trajectory linearity ordering
# ---------------------------------------------------------------------------


def test_criterion_6_linearity_ordering(bench_runs):
    mono_vs, mono_base = (bench_runs["rows"][v].linearity_mono for v in (PipelineVariant.VS, PipelineVariant.BASELINE))
    gt_vr = np.array([linearity_score(s.video)[0] for s in bench_runs["bench"].samples])
    ok = mono_vs >= mono_base + 0.1 and bool(gt_vr.min() > 0.9)
    assert report(
        6,
        ok,
        f"monotonicity {mono_vs:.3f} >= baseline {mono_base:.3f} + 0.1, "
        f"ground-truth variance_ratio min {gt_vr.min():.3f} (>0.9)",
    )


# ---------------------------------------------------------------------------
# 7. distribution distance against Monte Carlo transport
# ---------------------------------------------------------------------------


def test_criterion_7_frechet_oracle():
    gen = stream(17, "acceptance/frechet-mc")
    worst_rel = 0.0
    for _ in range(10):
        d = int(gen.integers(2, 7))
        q, _ = np.linalg.qr(gen.standard_normal((d, d)))
        la = gen.uniform(0.3, 3.0, size=d)
        lb = gen.uniform(0.3, 3.0, size=d)
        mu_a = gen.standard_normal(d)
        mu_b = mu_a + gen.standard_normal(d)
        cov_a = (q * la) @ q.T
        cov_b = (q * lb) @ q.T
        analytic = frechet_distance(
            FeatureStats(mu_a, (cov_a + cov_a.T) / 2.0),
            FeatureStats(mu_b, (cov_b + cov_b.T) / 2.0),
        )
        # Gaussians with commuting covariances have a known optimal transport
        # map, so averaging |T(x) - x|^2 over draws estimates the squared
        # 2-Wasserstein distance directly.
        amap = (q * np.sqrt(lb / la)) @ q.T
        x = mu_a + gen.standard_normal((20000, d)) @ (q * np.sqrt(la)).T
        y = mu_b + (x - mu_a) @ amap.T
        mc = float(np.sqrt(np.mean(np.sum((y - x) ** 2, axis=1))))
        worst_rel = max(worst_rel, abs(mc - analytic) / analytic)

    same = FeatureStats(np.zeros(3), np.eye(3))
    zero_err = frechet_distance(same, same)
    shift_err = abs(
        frechet_distance(
            FeatureStats(np.array([0.0]), np.array([[2.0]])),
            FeatureStats(np.array([1.0]), np.array([[2.0]])),
        )
        - 1.0
    )
    ok = worst_rel <= 0.05 and zero_err <= 1e-9 and shift_err <= 1e-9
    assert report(
        7,
        ok,
        f"MC agreement worst {worst_rel:.4f} (<=0.05), identical-stats "
        f"{zero_err:.1e} and unit mean-shift {shift_err:.1e} (<=1e-9)",
    )


# ---------------------------------------------------------------------------
# 8. end-to-end determinism of the ablation command
# ---------------------------------------------------------------------------


def test_criterion_8_ablate_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG_TEXT)  # seed = 42
    ckpt = tmp_path / "ckpt"
    rc_train = main(["train", "--config", str(cfg), "--out", str(ckpt)])
    first, second = tmp_path / "a", tmp_path / "b"
    rc_a = main(["ablate", "--config", str(cfg), "--ckpt", str(ckpt),
                 "--n", "4", "--out", str(first)])
    rc_b = main(["ablate", "--config", str(cfg), "--ckpt", str(ckpt),
                 "--n", "4", "--out", str(second)])
    identical = (first / "ablation.csv").read_bytes() == (second / "ablation.csv").read_bytes()
    ok = rc_train == rc_a == rc_b == 0 and identical
    assert report(
        8,
        ok,
        f"exit codes {rc_train}/{rc_a}/{rc_b} (==0), rerun CSV byte-identical={identical}",
    )
