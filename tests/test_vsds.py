"""Score-distillation refinement: weight curves, fixed point, noise budget."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixture_recipe as recipe
from doubles import CountingGen, EchoOracle, IdentityProvider, ThreadLog, ZeroDenoiser
from latent_awaken.diffusion import Condition, FrameLatent, NoiseSchedule, VideoLatent, replicate_static
from latent_awaken.metrics import motion_energy
from latent_awaken.pipeline import PipelineVariant, StageError, animate
from latent_awaken.rng import stream
from latent_awaken.toydenoiser import ToyDenoiser
from latent_awaken.vsds import (
    CurveKind,
    OmegaMode,
    RefinementDiverged,
    VsdsConfig,
    WeightCurve,
    _keep_paths_serial,
    alpha_at,
    dual_path_refine,
    tau_step,
    update_count,
    vsds_refine,
)

SHAPE = (3, 1, 6, 6)


def small_sched():
    return NoiseSchedule.linear(40, 1e-3, 0.3)


def small_latent(seed=8, scale=0.1):
    return VideoLatent(stream(seed, "test-init").standard_normal(SHAPE) * scale)


def cond_for(z0, label=0):
    return Condition(FrameLatent(z0.frames[0]), label)


class CondCapture(ZeroDenoiser):
    def __init__(self, frames):
        super().__init__(frames)
        self.seen = []

    def predict_noise(self, z_t, cond, t):
        self.seen.append(cond)
        return super().predict_noise(z_t, cond, t)


# ---------------------------------------------------------------------------
# weight curves
# ---------------------------------------------------------------------------


def test_alpha_at_stepwise_decreasing():
    curve = WeightCurve(CurveKind.STEPWISE_DECREASING, w_hi=2.0, w_lo=1.0)
    assert alpha_at(curve, 2, 10) == 2.0
    assert alpha_at(curve, 7, 10) == 1.0
    # the break sits at n/2: i=4 is still high, i=5 already low
    assert alpha_at(curve, 4, 10) == 2.0
    assert alpha_at(curve, 5, 10) == 1.0


def test_alpha_at_stepwise_increasing():
    curve = WeightCurve(CurveKind.STEPWISE_INCREASING, w_hi=2.0, w_lo=1.0)
    assert alpha_at(curve, 2, 10) == 1.0
    assert alpha_at(curve, 7, 10) == 2.0


def test_alpha_at_linear_curves():
    ld = WeightCurve(CurveKind.LINEAR_DECREASING, w_hi=2.0, w_lo=0.5)
    li = WeightCurve(CurveKind.LINEAR_INCREASING, w_hi=2.0, w_lo=0.5)
    n = 11
    assert alpha_at(ld, 0, n) == 2.0
    assert alpha_at(ld, n - 1, n) == 0.5
    assert alpha_at(li, 0, n) == 0.5
    assert alpha_at(li, n - 1, n) == 2.0
    assert abs(alpha_at(ld, 5, n) - 1.25) < 1e-12
    # a single-iteration run sits at the curve's left end
    assert alpha_at(ld, 0, 1) == 2.0
    assert alpha_at(li, 0, 1) == 0.5


def test_alpha_at_constant_uses_w_lo():
    curve = WeightCurve(CurveKind.CONSTANT, w_hi=5.0, w_lo=0.25)
    assert all(alpha_at(curve, i, 7) == 0.25 for i in range(7))


def test_alpha_at_validates_indices():
    curve = WeightCurve()
    with pytest.raises(ValueError):
        alpha_at(curve, 0, 0)
    with pytest.raises(ValueError):
        alpha_at(curve, 5, 5)
    with pytest.raises(ValueError):
        alpha_at(curve, -1, 5)


def test_weight_curve_validation():
    WeightCurve(w_hi=1.0, w_lo=1.0)  # equal ends are fine
    with pytest.raises(ValueError):
        WeightCurve(w_hi=1.0, w_lo=2.0)
    with pytest.raises(ValueError):
        WeightCurve(w_hi=1.0, w_lo=0.0)
    with pytest.raises(ValueError):
        WeightCurve(w_hi=-1.0, w_lo=-2.0)


# ---------------------------------------------------------------------------
# stopping step
# ---------------------------------------------------------------------------


def test_tau_step_examples():
    assert tau_step(1000, 0.6) == 600
    assert tau_step(120, 0.6) == 72
    assert tau_step(10, 1.0) == 10
    assert tau_step(3, 0.5) == 2  # 1.5 rounds half-up
    assert tau_step(10, 0.04) == 1  # clamped to the lowest level


def test_tau_step_validation():
    with pytest.raises(ValueError):
        tau_step(0, 0.5)
    with pytest.raises(ValueError):
        tau_step(10, 0.0)
    with pytest.raises(ValueError):
        tau_step(10, 1.5)


def test_update_count():
    assert update_count(1000, 0.6) == 401
    assert update_count(10, 1.0) == 1
    assert update_count(120, 0.6) == 49


def test_vsds_config_validation():
    assert VsdsConfig(p=1.0).p == 1.0
    with pytest.raises(ValueError):
        VsdsConfig(p=0.0)
    with pytest.raises(ValueError):
        VsdsConfig(p=1.2)
    # omega is converted once, at construction: a value becomes its member,
    # and anything else is refused there.
    assert VsdsConfig(omega_mode="one").omega_mode is OmegaMode.ONE
    assert VsdsConfig().omega_mode is OmegaMode.ONE_MINUS_ALPHA_BAR
    with pytest.raises(ValueError):
        VsdsConfig(omega_mode="cosine")


# ---------------------------------------------------------------------------
# fixed point and noise budget
# ---------------------------------------------------------------------------


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**16),
    p=st.floats(0.01, 1.0),
    kind=st.sampled_from(CurveKind),
    omega_mode=st.sampled_from(OmegaMode),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 2), st.integers(1, 6), st.integers(1, 6)),
)
def test_oracle_fixed_point(seed, p, kind, omega_mode, shape):
    # When the denoiser predicts the injected noise exactly, every gradient
    # is zero and the latent must come back bit-for-bit, whatever the curve,
    # weighting, stopping level or shape.
    sched = small_sched()
    cfg = VsdsConfig(p=p, curve=WeightCurve(kind), omega_mode=omega_mode, seed=0)
    z0 = VideoLatent(stream(seed, "test-init").standard_normal(shape) * 0.1)
    eps = stream(seed, "vsds/real").standard_normal(shape)
    oracle = EchoOracle(eps, frames=shape[0])
    out = vsds_refine(z0, cond_for(z0), oracle, sched, cfg, rng=stream(seed, "vsds/real"))
    assert np.array_equal(out.frames, z0.frames)
    assert out is not z0
    assert oracle.calls == update_count(sched.steps, cfg.p)


def test_single_noise_draw_per_path():
    sched = small_sched()
    cfg = VsdsConfig(p=0.5)
    z0 = small_latent()
    cond = cond_for(z0)
    model = ZeroDenoiser(frames=SHAPE[0])

    gen = CountingGen(stream(11, "vsds/real").bit_generator)
    vsds_refine(z0, cond, model, sched, cfg, rng=gen)
    assert gen.draws == 1

    gen_r = CountingGen(stream(11, "vsds/real").bit_generator)
    gen_p = CountingGen(stream(11, "vsds/proxy").bit_generator)
    dual_path_refine(z0, z0, cond, model, sched, cfg, rng_real=gen_r, rng_proxy=gen_p)
    assert gen_r.draws == 1
    assert gen_p.draws == 1

    shared_cfg = VsdsConfig(p=0.5, shared_noise=True)
    gen_s = CountingGen(stream(11, "vsds/shared").bit_generator)
    gen_unread = CountingGen(stream(11, "vsds/proxy").bit_generator)
    dual_path_refine(z0, z0, cond, model, sched, shared_cfg, rng_real=gen_s, rng_proxy=gen_unread)
    assert gen_s.draws == 1
    assert gen_unread.draws == 0


def test_refine_leaves_input_untouched():
    sched = small_sched()
    z0 = small_latent()
    before = z0.frames.copy()
    vsds_refine(z0, cond_for(z0), ZeroDenoiser(frames=SHAPE[0]), sched, VsdsConfig(p=0.5), stream(0, "vsds/real"))
    assert np.array_equal(z0.frames, before)


# ---------------------------------------------------------------------------
# dual-path refinement
# ---------------------------------------------------------------------------


def test_dual_path_reruns_are_bit_identical():
    sched = small_sched()
    cfg = VsdsConfig(p=0.5)
    zr, zs = small_latent(1), small_latent(2)
    cond = cond_for(zr)
    model = ZeroDenoiser(frames=SHAPE[0])

    def run():
        return dual_path_refine(
            zr, zs, cond, model, sched, cfg,
            rng_real=stream(5, "vsds/real"), rng_proxy=stream(5, "vsds/proxy"),
        )

    r1, p1 = run()
    r2, p2 = run()
    assert np.array_equal(r1.frames, r2.frames)
    assert np.array_equal(p1.frames, p2.frames)


def test_dual_path_draws_are_independent_unless_shared():
    # Feed both paths the *same* input; with a zero denoiser the outputs are
    # input + c*eps, so they differ exactly when the paths drew different noise.
    sched = small_sched()
    z0 = small_latent()
    cond = cond_for(z0)
    model = ZeroDenoiser(frames=SHAPE[0])

    r, p = dual_path_refine(
        z0, z0, cond, model, sched, VsdsConfig(p=0.5),
        rng_real=stream(3, "vsds/real"), rng_proxy=stream(3, "vsds/proxy"),
    )
    assert not np.array_equal(r.frames, p.frames)

    shared_cfg = VsdsConfig(p=0.5, shared_noise=True)
    r, p = dual_path_refine(
        z0, z0, cond, model, sched, shared_cfg,
        rng_real=stream(3, "vsds/shared"), rng_proxy=stream(3, "vsds/proxy"),
    )
    assert np.array_equal(r.frames, p.frames)


def test_dual_path_proxy_conditions_on_its_own_frame():
    sched = small_sched()
    cfg = VsdsConfig(p=0.5)
    zr, zs = small_latent(1), small_latent(2)
    cond = cond_for(zr, label=1)
    model = CondCapture(frames=SHAPE[0])
    dual_path_refine(
        zr, zs, cond, model, sched, cfg, rng_real=stream(0, "vsds/real"), rng_proxy=stream(0, "vsds/proxy")
    )

    # The paths may interleave, so the calls are told apart by condition.
    n = update_count(sched.steps, cfg.p)
    assert len(model.seen) == 2 * n
    proxy_seen = [c for c in model.seen if c is not cond]
    assert len(proxy_seen) == n
    for c in proxy_seen:
        assert np.array_equal(c.image.grid, zs.frames[0])
        assert c.motion_label == cond.motion_label


def test_dual_path_shape_mismatch():
    sched = small_sched()
    other = VideoLatent(np.zeros((3, 1, 8, 8)))
    z0 = small_latent()
    with pytest.raises(ValueError, match="shape mismatch"):
        dual_path_refine(
            z0, other, cond_for(z0), ZeroDenoiser(frames=3), sched, VsdsConfig(p=0.5),
            rng_real=stream(0, "vsds/real"), rng_proxy=stream(0, "vsds/proxy"),
        )


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_refinement_diverged_on_overflow():
    # Latent containers reject non-finite values outright, so the failure a
    # refinement run can actually hit is overflow in the update step: a huge
    # (finite) prediction times the curve weight goes to inf.
    sched = small_sched()
    z0 = small_latent()

    class HugeDenoiser(ZeroDenoiser):
        def predict_noise(self, z_t, cond, t):
            return VideoLatent(np.full_like(z_t.frames, 1e308))

    with pytest.raises(RefinementDiverged, match="non-finite"):
        vsds_refine(z0, cond_for(z0), HugeDenoiser(frames=SHAPE[0]), sched, VsdsConfig(p=0.5), stream(0, "vsds/real"))


class DivergesOnPath(ZeroDenoiser):
    """Predicts a huge (finite) noise at step ``real_t`` of the path given
    ``real_cond`` and at step ``proxy_t`` of the other, so that path's update
    overflows there; ``None`` never diverges."""

    def __init__(self, frames, real_cond, real_t, proxy_t):
        super().__init__(frames)
        self.real_cond = real_cond
        self.real_t = real_t
        self.proxy_t = proxy_t

    def predict_noise(self, z_t, cond, t):
        if t == (self.real_t if cond is self.real_cond else self.proxy_t):
            return VideoLatent(np.full_like(z_t.frames, 1e308))
        return super().predict_noise(z_t, cond, t)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize(
    "real_t, proxy_t",
    [(None, 37), (38, None), (36, 39), (39, 36)],
    ids=["proxy", "real", "both-proxy-first", "both-real-first"],
)
def test_dual_path_raises_what_the_serial_order_raises(real_t, proxy_t):
    # The two paths run on two threads, but the error is the one the serial
    # order raises: the real path's whenever it fails, even when the proxy
    # path fails at an earlier step, else the proxy path's.  The worker
    # thread is joined before the error surfaces.
    sched = small_sched()
    cfg = VsdsConfig(p=0.5)
    zr, zs = small_latent(1), small_latent(2)
    cond = cond_for(zr, label=1)
    model = DivergesOnPath(SHAPE[0], cond, real_t, proxy_t)
    step = f"non-finite latent at refinement step t={real_t if real_t is not None else proxy_t}"
    before = threading.active_count()

    with pytest.raises(RefinementDiverged) as err:
        dual_path_refine(
            zr, zs, cond, model, sched, cfg, rng_real=stream(0, "vsds/real"), rng_proxy=stream(0, "vsds/proxy")
        )
    assert str(err.value) == step
    assert threading.active_count() == before

    with pytest.raises(StageError) as err:
        animate(zr.frame(0), cond, PipelineVariant.VS, model, sched, vsds_cfg=cfg,
                proxy_provider=IdentityProvider(), seed=0)
    assert str(err.value) == f"stage 'vsds': {step}"
    assert isinstance(err.value.__cause__, RefinementDiverged)
    assert threading.active_count() == before


def test_paths_share_a_thread_only_where_keep_paths_serial_says_so():
    # The proxy path gets its own thread whether the caller is the main
    # thread or not; a pool thread marked by _keep_paths_serial (run_ablation
    # marks its task pool so) runs both paths itself.
    sched, cfg = small_sched(), VsdsConfig(p=0.5)
    zr, zs = small_latent(1), small_latent(2)

    def threads_used():
        model = ThreadLog(SHAPE[0])
        dual_path_refine(
            zr, zs, cond_for(zr), model, sched, cfg, rng_real=stream(0, "vsds/real"), rng_proxy=stream(0, "vsds/proxy")
        )
        return len(model.threads)

    assert threads_used() == 2
    with ThreadPoolExecutor(max_workers=1) as plain:
        assert plain.submit(threads_used).result() == 2
    with ThreadPoolExecutor(max_workers=1, initializer=_keep_paths_serial) as marked:
        assert marked.submit(threads_used).result() == 1
    assert threads_used() == 2


def perturbed_model(seed, shape, hidden):
    """A ``ToyDenoiser`` whose prediction depends on every input, with its
    memo still cold (``w2`` starts at zero, which would predict zero)."""
    model = ToyDenoiser(*shape, hidden=hidden, seed=seed)
    gen = stream(seed, "test-weights")
    model.b1 = gen.standard_normal(model.b1.shape) * 0.1
    model.w2 = gen.standard_normal(model.w2.shape) * 0.05
    return model


@pytest.mark.parametrize("shared_noise", [False, True], ids=["own-noise", "shared-noise"])
def test_concurrent_paths_match_the_serial_bytes(shared_noise):
    # Each round, both paths race on a fresh model's cold memo.  The model is
    # wide enough that its matmuls release the GIL for long stretches, so
    # the paths overlap; a tiny switch interval interleaves their Python
    # code too.  Each path must come out byte for byte as vsds_refine
    # computes it alone.
    shape, hidden = (16, 1, 16, 16), 256
    sched = small_sched()
    cfg = VsdsConfig(p=0.5, shared_noise=shared_noise)
    zr, zs = (VideoLatent(stream(seed, "test-init").standard_normal(shape) * 0.1) for seed in (1, 2))
    cond = cond_for(zr, label=2)
    proxy_cond = Condition(FrameLatent(zs.frames[0]), cond.motion_label)
    real_label, proxy_label = ("vsds/shared", "vsds/shared") if shared_noise else ("vsds/real", "vsds/proxy")
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(10):
            reference = perturbed_model(seed, shape, hidden)
            want_real = vsds_refine(zr, cond, reference, sched, cfg, rng=stream(seed, real_label))
            want_proxy = vsds_refine(zs, proxy_cond, reference, sched, cfg, rng=stream(seed, proxy_label))
            got_real, got_proxy = dual_path_refine(
                zr, zs, cond, perturbed_model(seed, shape, hidden), sched, cfg,
                rng_real=stream(seed, real_label), rng_proxy=stream(seed, proxy_label),
            )
            assert got_real.frames.tobytes() == want_real.frames.tobytes(), f"real path, seed {seed}"
            assert got_proxy.frames.tobytes() == want_proxy.frames.tobytes(), f"proxy path, seed {seed}"
            assert threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# behaviour with the trained prior
# ---------------------------------------------------------------------------


def test_refinement_injects_motion(motion_model, sched, thresholds):
    # A static replication of a held-out image must come out of refinement
    # with real frame-to-frame motion, at least as much as the frozen run saw.
    model, _ = motion_model
    sample = recipe.held_out_set().samples[0]
    static = replicate_static(sample.cond.image, model.frames)
    assert motion_energy(static) == 0.0

    refined = vsds_refine(
        static, sample.cond, model, sched, recipe.VSDS_CFG,
        rng=stream(recipe.HELD_OUT_RUN_SEED, "vsds/real"),
    )
    energy = motion_energy(refined)
    assert energy > 1e-6
    assert energy >= thresholds["refinement"]["energy_min"]
