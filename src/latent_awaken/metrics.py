"""Desk-scale evaluation metrics for generated video latents.

A hand-rolled feature extractor summarizes each video as a short vector
(per-frame statistics plus an estimated motion vector); Gaussian fits over
those features feed a Fréchet distance that plays the role a learned video
embedding would at full scale.  Alignment compares estimated motion against
the requested label, and linearity quantifies how orderly the frames are
arranged along their dominant feature-space axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diffusion import Condition, FrameLatent, VideoLatent
from .numerics import principal_axis_stats, spearman_rho, sqrtm_psd
from .toydenoiser import DIRECTIONS, MOTION_LABELS, wrapped_delta


def feature_length(frame_count: int) -> int:
    """video_features dimensionality: 2L per-frame stats + 3 motion stats."""
    return 2 * frame_count + 3


def _frame_weights(frame: np.ndarray) -> np.ndarray | None:
    """Non-negative intensity weights for centroid estimation.

    Channels are averaged and the per-frame minimum subtracted, which makes
    every downstream estimate invariant to uniform brightness offsets.
    Returns None for constant frames, where no centroid is defined.
    """
    w = frame.mean(axis=0)
    w = w - w.min()
    total = w.sum()
    if total <= 0.0:
        return None
    return w / total


def _circular_centroid(weights: np.ndarray) -> tuple[float, float]:
    """Intensity centroid on a torus, via the mean resultant angle per axis."""
    height, width = weights.shape
    ang_x = 2.0 * np.pi * np.arange(width) / width
    ang_y = 2.0 * np.pi * np.arange(height) / height
    wx = weights.sum(axis=0)
    wy = weights.sum(axis=1)
    cx = np.arctan2((wx * np.sin(ang_x)).sum(), (wx * np.cos(ang_x)).sum()) * width / (2.0 * np.pi)
    cy = np.arctan2((wy * np.sin(ang_y)).sum(), (wy * np.cos(ang_y)).sum()) * height / (2.0 * np.pi)
    return cx % width, cy % height


def per_frame_centroids(v: VideoLatent) -> np.ndarray:
    """(L, 2) array of (cx, cy); constant frames inherit the previous centroid."""
    out = np.zeros((v.frame_count, 2))
    last = (0.0, 0.0)
    for l in range(v.frame_count):
        w = _frame_weights(v.frames[l])
        if w is not None:
            last = _circular_centroid(w)
        out[l] = last
    return out


def displacement_estimate(v: VideoLatent) -> tuple[float, float]:
    """Mean per-frame (dx, dy) of the dominant pattern, torus-unwrapped."""
    if v.frame_count < 2:
        return 0.0, 0.0
    cents = per_frame_centroids(v)
    _, _, height, width = v.shape
    dx = np.mean([wrapped_delta(cents[l + 1, 0], cents[l, 0], width) for l in range(v.frame_count - 1)])
    dy = np.mean([wrapped_delta(cents[l + 1, 1], cents[l, 1], height) for l in range(v.frame_count - 1)])
    return float(dx), float(dy)


def per_frame_sizes(v: VideoLatent) -> np.ndarray:
    """Weighted RMS radius of each frame's pattern about its centroid."""
    sizes = np.zeros(v.frame_count)
    _, _, height, width = v.shape
    xs = np.arange(width, dtype=np.float64)[None, :]
    ys = np.arange(height, dtype=np.float64)[:, None]
    for l in range(v.frame_count):
        w = _frame_weights(v.frames[l])
        if w is None:
            continue
        cx, cy = _circular_centroid(w)
        dx = wrapped_delta(xs, cx, width)
        dy = wrapped_delta(ys, cy, height)
        sizes[l] = np.sqrt((w * (dx**2 + dy**2)).sum())
    return sizes


def motion_energy(v: VideoLatent) -> float:
    """Mean squared difference between consecutive frames; 0 for L=1."""
    if v.frame_count < 2:
        return 0.0
    return float(((v.frames[1:] - v.frames[:-1]) ** 2).mean())


def fidelity(v: VideoLatent, reference: FrameLatent) -> float:
    """Per-pixel MSE between the first frame and a reference image."""
    if v.frame_shape != reference.shape:
        raise ValueError(f"frame shape {v.frame_shape} != reference shape {reference.shape}")
    return float(((v.frames[0] - reference.grid) ** 2).mean())


def video_features(v: VideoLatent) -> np.ndarray:
    """Fixed-length descriptor of a video latent.

    Concatenates per-frame means, per-frame mean-square energies, the mean
    absolute consecutive-frame difference, and the per-axis displacement
    estimate; length is ``feature_length(L)``.
    """
    if v.frame_count < 2:
        raise ValueError("video_features requires at least 2 frames")
    means = v.frames.reshape(v.frame_count, -1).mean(axis=1)
    energies = (v.frames.reshape(v.frame_count, -1) ** 2).mean(axis=1)
    mean_abs_diff = float(np.abs(v.frames[1:] - v.frames[:-1]).mean())
    dx, dy = displacement_estimate(v)
    return np.concatenate([means, energies, [mean_abs_diff, dx, dy]])


# ---------------------------------------------------------------------------
# Gaussian-fit Fréchet distance
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FeatureStats:
    """Gaussian fit (mean, covariance, sample count) over feature vectors."""

    mean: np.ndarray
    covariance: np.ndarray
    n: int

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.covariance, dtype=np.float64)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError(f"inconsistent stats shapes: mean {mean.shape}, covariance {cov.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("non-finite statistics")
        if not np.allclose(cov, cov.T, atol=1e-12 * max(1.0, float(np.abs(cov).max()))):
            raise ValueError("covariance must be symmetric")
        # Same round-off allowance as numerics.sqrtm_psd: relative to the top
        # eigenvalue, since the projection's error scales with the matrix.
        vals = np.linalg.eigvalsh((cov + cov.T) / 2.0)
        if vals.min() < -1e-10 * max(1.0, float(vals.max())):
            raise ValueError("covariance must be PSD within tolerance")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @classmethod
    def from_features(cls, features) -> "FeatureStats":
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 2:
            raise ValueError("need an (N, d) feature matrix with N >= 2")
        cov = np.atleast_2d(np.cov(feats, rowvar=False, ddof=1))
        # Sample covariances with N <= d are singular; round-off can leave
        # eigenvalues a hair below zero, so project back onto the PSD cone.
        vals, vecs = np.linalg.eigh((cov + cov.T) / 2.0)
        cov = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
        cov = (cov + cov.T) / 2.0
        return cls(feats.mean(axis=0), cov, feats.shape[0])


def frechet_distance(a: FeatureStats, b: FeatureStats) -> float:
    """Fréchet (Gaussian 2-Wasserstein) distance between two fits.

    d^2 = |mu_a - mu_b|^2 + Tr(S_a + S_b - 2 (S_a S_b)^{1/2}); the cross term
    is evaluated through the symmetric product sqrt(S_a) S_b sqrt(S_a), whose
    eigenvalues are computed directly.
    """
    if a.mean.size != b.mean.size:
        raise ValueError(f"feature dimensions differ: {a.mean.size} vs {b.mean.size}")
    delta = a.mean - b.mean
    root_a = sqrtm_psd(a.covariance)
    inner = root_a @ b.covariance @ root_a
    vals = np.linalg.eigvalsh((inner + inner.T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    d2 = float(delta @ delta + np.trace(a.covariance) + np.trace(b.covariance) - 2.0 * np.sqrt(vals).sum())
    return float(np.sqrt(max(d2, 0.0)))


# ---------------------------------------------------------------------------
# Alignment and linearity
# ---------------------------------------------------------------------------


def alignment_score(v: VideoLatent, cond: Condition) -> float:
    """How well estimated motion matches the requested label, in [-1, 1].

    Translation labels: cosine between the estimated displacement and the
    label's canonical direction (0 if the estimate is numerically zero).
    Static: 1 - 2 me / (me + ref), a motion-energy score normalized by the
    video's own spatial variance, so a perfectly still video scores 1.
    Grow: Pearson correlation between per-frame pattern size and frame index.
    """
    if not 0 <= cond.motion_label < len(MOTION_LABELS):
        raise ValueError(f"unknown motion label id {cond.motion_label}")
    label = MOTION_LABELS[cond.motion_label]

    if label == "static":
        me = motion_energy(v)
        ref = float(v.frames.reshape(v.frame_count, -1).var(axis=1).mean())
        if me == 0.0:
            return 1.0
        return 1.0 - 2.0 * me / (me + ref) if (me + ref) > 0.0 else 1.0

    if label == "grow":
        sizes = per_frame_sizes(v)
        if np.ptp(sizes) == 0.0:
            return 0.0
        r = np.corrcoef(sizes, np.arange(v.frame_count))[0, 1]
        return float(r) if np.isfinite(r) else 0.0

    dx, dy = displacement_estimate(v)
    magnitude = np.hypot(dx, dy)
    if magnitude < 1e-12:
        return 0.0
    ux, uy = DIRECTIONS[label]
    return float((dx * ux + dy * uy) / magnitude)


def linearity_score(v: VideoLatent) -> tuple[float, float]:
    """(variance_ratio, monotonicity) of the frame trajectory.

    Frames are flattened to L points; variance_ratio is the leading-axis
    share of variance, monotonicity the absolute Spearman correlation
    between leading-axis projections and frame index.  A degenerate video
    (all frames equal) reports (0.0, 0.0).
    """
    if v.frame_count < 3:
        raise ValueError("linearity_score requires at least 3 frames")
    points = v.frames.reshape(v.frame_count, -1)
    ratio, projections = principal_axis_stats(points)
    if ratio == 0.0:
        return 0.0, 0.0
    rho = spearman_rho(projections, np.arange(v.frame_count))
    if not np.isfinite(rho):
        return float(ratio), 0.0
    return float(ratio), float(abs(rho))


# ---------------------------------------------------------------------------
# Report container
# ---------------------------------------------------------------------------


@dataclass
class MetricReport:
    """One row of evaluation output; ``frechet``/``fidelity`` may be absent
    when no reference distribution or image is available."""

    frechet: Optional[float]
    alignment: float
    linearity_vr: float
    linearity_mono: float
    motion_energy: float
    fidelity: Optional[float]

    def to_dict(self) -> dict:
        return {
            "frechet": self.frechet,
            "alignment": self.alignment,
            "linearity": {"variance_ratio": self.linearity_vr, "monotonicity": self.linearity_mono},
            "motion_energy": self.motion_energy,
            "fidelity": self.fidelity,
        }


def diagnose_video(v: VideoLatent, cond: Condition, reference: FrameLatent | None = None) -> MetricReport:
    """Single-video metrics; Fréchet needs a population so it stays None."""
    vr, mono = linearity_score(v)
    return MetricReport(
        frechet=None,
        alignment=alignment_score(v, cond),
        linearity_vr=vr,
        linearity_mono=mono,
        motion_energy=motion_energy(v),
        fidelity=fidelity(v, reference) if reference is not None else None,
    )
