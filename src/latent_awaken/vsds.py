"""Score-distillation refinement of clean video latents.

Instead of sampling, the latent itself is treated as the optimization
variable: a single Gaussian noise tensor is drawn once per path, the latent
is repeatedly pushed to decreasing noise levels t = T, T-1, ..., tau, and at
each level the gap between the denoiser's prediction and that fixed noise is
applied as a weighted gradient step on the clean latent.  Because the noise
is sampled only once, a perfect prediction leaves the latent exactly
unchanged (the procedure is a fixed-point iteration around the model's
idea of a plausible video).

``dual_path_refine`` runs the procedure independently on the real-image
latent and on a synthetic proxy latent, each path conditioned on its own
first frame, so the two refined results stay anchored to their respective
images and can be fused downstream.  The two paths share nothing but the
read-only denoiser, so they run on two threads.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .diffusion import Condition, Denoiser, FrameLatent, NoiseSchedule, VideoLatent, forward_noise


class CurveKind(Enum):
    """Shape of the per-iteration update-weight curve."""

    LINEAR_DECREASING = "LD"
    STEPWISE_DECREASING = "SD"
    STEPWISE_INCREASING = "SI"
    LINEAR_INCREASING = "LI"
    CONSTANT = "constant"


@dataclass(frozen=True)
class WeightCurve:
    """Update-weight profile over the refinement iterations.

    Stepwise curves hold ``w_hi`` on one half of the iterations and ``w_lo``
    on the other; linear curves interpolate between the two ends; constant
    stays at ``w_lo`` throughout.
    """

    kind: CurveKind = CurveKind.STEPWISE_DECREASING
    w_hi: float = 2.0
    w_lo: float = 1.0

    def __post_init__(self):
        if not (self.w_hi >= self.w_lo > 0.0):
            raise ValueError(f"need w_hi >= w_lo > 0, got w_hi={self.w_hi}, w_lo={self.w_lo}")


def alpha_at(curve: WeightCurve, i: int, n: int) -> float:
    """Update weight at iteration ``i`` of ``n`` (0-based)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= i < n:
        raise ValueError(f"iteration {i} outside [0, {n})")
    kind, hi, lo = curve.kind, curve.w_hi, curve.w_lo
    if kind is CurveKind.CONSTANT:
        return lo
    if kind is CurveKind.STEPWISE_DECREASING:
        return hi if i < n / 2 else lo
    if kind is CurveKind.STEPWISE_INCREASING:
        return lo if i < n / 2 else hi
    frac = i / (n - 1) if n > 1 else 0.0
    if kind is CurveKind.LINEAR_DECREASING:
        return hi + (lo - hi) * frac
    return lo + (hi - lo) * frac  # LINEAR_INCREASING


class OmegaMode(Enum):
    """Noise-level weighting omega(t) of the refinement gradient."""

    ONE = "one"
    ONE_MINUS_ALPHA_BAR = "one_minus_alpha_bar"


@dataclass(frozen=True)
class VsdsConfig:
    """Refinement hyper-parameters.

    ``p`` sets the stopping level tau = round(T * p); ``omega_mode`` chooses
    the noise-level weighting of the gradient, ``one`` (constant 1) or
    ``one_minus_alpha_bar`` (1 - alpha_bar_t), given as an ``OmegaMode`` or
    its value; ``shared_noise`` makes both paths of a dual refinement reuse
    one noise draw instead of drawing independently.

    ``seed`` is read by nothing: every refinement draws from the generator
    its caller passes.  The field stays only because the benchmark's
    workloads still construct ``VsdsConfig(..., seed=0)``; it goes when
    they stop.
    """

    p: float = 0.6
    curve: WeightCurve = WeightCurve()
    omega_mode: OmegaMode = OmegaMode.ONE_MINUS_ALPHA_BAR
    seed: int = 42
    shared_noise: bool = False

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        object.__setattr__(self, "omega_mode", OmegaMode(self.omega_mode))


def tau_step(steps: int, p: float) -> int:
    """Stopping step tau = round-half-up(T * p), clamped to at least 1."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    return max(1, int(np.floor(steps * p + 0.5)))


def update_count(steps: int, p: float) -> int:
    """Number of refinement iterations: one per level in [tau, T]."""
    return steps - tau_step(steps, p) + 1


# Set on the workers of ``pipeline._animate_items``'s task pool, whose cores
# the pool already keeps busy: there the two paths of ``dual_path_refine``
# run one after the other instead of starting a thread each.
_pool_thread = threading.local()


def _keep_paths_serial() -> None:
    """Make ``dual_path_refine`` run its paths serially on this thread
    (a thread-pool initializer for pools that already use every core)."""
    _pool_thread.serial = True


class RefinementDiverged(RuntimeError):
    """Raised when a refinement update stops being finite."""


def _omega(sched: NoiseSchedule, t: int, mode: OmegaMode) -> float:
    return 1.0 if mode is OmegaMode.ONE else 1.0 - sched.alpha_bars[t - 1]


def _refine(
    z: VideoLatent,
    cond: Condition,
    denoiser: Denoiser,
    sched: NoiseSchedule,
    cfg: VsdsConfig,
    eps: np.ndarray,
) -> VideoLatent:
    steps = sched.steps
    tau = tau_step(steps, cfg.p)
    n = steps - tau + 1
    for i, t in enumerate(range(steps, tau - 1, -1)):
        z_t = forward_noise(z, t, eps, sched)
        pred = denoiser.predict_noise(z_t, cond, t)
        grad = _omega(sched, t, cfg.omega_mode) * (pred.frames - eps)
        frames = z.frames - alpha_at(cfg.curve, i, n) * grad
        if not np.isfinite(frames).all():
            raise RefinementDiverged(f"non-finite latent at refinement step t={t}")
        z = VideoLatent(frames)
    return z


def vsds_refine(
    z0: VideoLatent,
    cond: Condition,
    denoiser: Denoiser,
    sched: NoiseSchedule,
    cfg: VsdsConfig,
    rng: np.random.Generator,
) -> VideoLatent:
    """Refine one clean latent; draws exactly one noise tensor from ``rng``."""
    return _refine(z0, cond, denoiser, sched, cfg, rng.standard_normal(z0.shape))


def dual_path_refine(
    real_static: VideoLatent,
    proxy_static: VideoLatent,
    cond: Condition,
    denoiser: Denoiser,
    sched: NoiseSchedule,
    cfg: VsdsConfig,
    rng_real: np.random.Generator,
    rng_proxy: np.random.Generator,
) -> tuple[VideoLatent, VideoLatent]:
    """Refine the real and proxy latents independently.

    The real path uses ``cond`` as given; the proxy path swaps in the proxy's
    own first frame as conditioning image (same motion label), so each path
    is anchored to its own source.  With ``cfg.shared_noise`` both paths see
    the one draw from ``rng_real``, and ``rng_proxy`` is not read; otherwise
    the real path draws first, then the proxy path, each exactly once.

    The noise draws stay on the caller's thread.  The proxy path then runs
    on one worker thread while the real path runs on the caller's, so
    ``denoiser.predict_noise`` sees the two conditions from two threads at
    once; the worker is joined before this returns or raises.  On a thread
    marked by ``_keep_paths_serial`` (a worker of ``_animate_items``'s task
    pool, which already has the cores) the paths run one after the other.
    Either way each path's result is computed exactly as it is serially,
    and a failure is the one the serial order raises first: the real
    path's, else the proxy path's.
    """
    if real_static.shape != proxy_static.shape:
        raise ValueError(f"path shape mismatch: {real_static.shape} vs {proxy_static.shape}")
    proxy_cond = Condition(FrameLatent(proxy_static.frames[0]), cond.motion_label)

    eps_real = rng_real.standard_normal(real_static.shape)
    eps_proxy = eps_real if cfg.shared_noise else rng_proxy.standard_normal(proxy_static.shape)

    real_args = (real_static, cond, denoiser, sched, cfg, eps_real)
    proxy_args = (proxy_static, proxy_cond, denoiser, sched, cfg, eps_proxy)
    if getattr(_pool_thread, "serial", False):
        return _refine(*real_args), _refine(*proxy_args)
    # Leaving the ``with`` joins the worker, also when the real path raises.
    with ThreadPoolExecutor(max_workers=1) as pool:
        proxy_future = pool.submit(_refine, *proxy_args)
        return _refine(*real_args), proxy_future.result()
