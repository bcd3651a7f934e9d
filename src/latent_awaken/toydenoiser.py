"""A tiny trainable video denoiser and the procedural dataset it learns from.

The dataset renders single-shape videos (wrapped Gaussian blobs or soft
squares) on a toroidal grid, moving according to a small motion vocabulary.
The denoiser is a two-layer tanh MLP applied per frame — each frame sees its
own noised latent plus the conditioning image, a sinusoidal timestep
embedding and a one-hot motion label — followed by a learned L x L temporal
mixing matrix that lets frames exchange information.  Gradients are derived
by hand and optimized with plain SGD; no autograd framework is involved.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
from collections.abc import Iterator, Sequence
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import nullcontext, suppress
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .diffusion import Condition, FrameLatent, NoiseSchedule, VideoLatent
from .motion import DIRECTIONS, MOTION_LABELS, label_id, wrapped_delta
from .numerics import one_blas_thread, read_input, read_ltn1, read_only, write_ltn1
from .rng import stream

# ---------------------------------------------------------------------------
# Procedural dataset
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetParams:
    """Knobs for the procedural video generator."""

    channels: int = 1
    height: int = 16
    width: int = 16
    frames: int = 16
    shapes: tuple[str, ...] = ("blob", "square")
    labels: tuple[str, ...] = MOTION_LABELS
    velocities: tuple[float, ...] = (1.0,)
    blob_sigma: tuple[float, float] = (1.6, 2.6)
    square_half: tuple[int, ...] = (1, 2)
    grow_rate: float = 0.06

    def __post_init__(self):
        for name, least in (("channels", 1), ("height", 2), ("width", 2), ("frames", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        for name in ("shapes", "labels"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        if not set(self.shapes) <= {"blob", "square"}:
            raise ValueError(f"shapes holds an unknown shape kind: {self.shapes}; known: blob, square")
        if not set(self.labels) <= set(MOTION_LABELS):
            raise ValueError(f"labels holds an unknown motion label: {self.labels}; known: {MOTION_LABELS}")
        if not self.velocities or any(not v > 0 for v in self.velocities):
            raise ValueError("velocities must be positive")
        if len(self.blob_sigma) != 2 or not 0 < self.blob_sigma[0] <= self.blob_sigma[1]:
            raise ValueError(f"blob_sigma must be a pair lo, hi with 0 < lo <= hi, got {self.blob_sigma}")
        if not self.square_half or any(h < 0 for h in self.square_half):
            raise ValueError(f"square_half must be non-negative, got {self.square_half}")
        if not self.grow_rate > 0:
            raise ValueError("grow_rate must be positive")


@dataclass(frozen=True, eq=False)
class Clip:
    """The draws that define one procedural clip: its motion label, start
    (cx, cy), velocity, shape kind and size, and the generator settings."""

    label: str
    start: tuple[float, float]
    velocity: float
    kind: str
    size: float
    params: DatasetParams

    def __post_init__(self):
        if self.label not in MOTION_LABELS:
            raise ValueError(f"unknown motion label {self.label!r}")

    @property
    def video_shape(self) -> tuple[int, int, int, int]:
        p = self.params
        return (p.frames, p.channels, p.height, p.width)

    @property
    def video(self) -> VideoLatent:
        """The clip's frames, rendered anew on each access."""
        return VideoLatent(render_clips([self])[0])


@dataclass(frozen=True, eq=False)
class VideoSample(Clip):
    """A clip's recipe plus its condition; the frames are not stored."""

    cond: Condition


@dataclass(frozen=True, eq=False)
class MotionDataset:
    samples: tuple[VideoSample, ...]

    def __len__(self) -> int:
        return len(self.samples)


def render_pattern(kind: str, cx, cy, size, height: int, width: int) -> np.ndarray:
    """Render a shape as an (L, H, W) stack of intensity fields in [0, 1],
    frame l centred at (``cx[l]``, ``cy[l]``) with size ``size[l]``.  Each
    frame equals, byte for byte, the one-frame call on those values.

    Patterns wrap toroidally and are symmetric about their (possibly
    fractional) center, so the intensity centroid equals the center exactly.
    """
    if not np.shape(cx) == np.shape(cy) == np.shape(size) or np.ndim(size) != 1:
        raise ValueError("cx, cy and size must be three sequences of one length")
    sizes = np.reshape(size, -1).tolist()
    dx = wrapped_delta(np.arange(width, dtype=np.float64)[None, :], np.reshape(cx, (-1, 1, 1)), width)
    dy = wrapped_delta(np.arange(height, dtype=np.float64)[:, None], np.reshape(cy, (-1, 1, 1)), height)
    if kind == "blob":
        # Each frame's denominator is a Python float: CPython's pow can round
        # size**2 one ulp away from numpy's square of the same value.
        neg_denom = np.reshape([-2.0 * s**2 for s in sizes], (-1, 1, 1))
        # exp(-(dx² + dy²) / denom), in place: clip-sized temporaries would
        # fragment the heap and raise a training run's peak RSS.  Dividing
        # by the negated denominator gives the same bits as negating first.
        fields = dx**2 + dy**2
        fields /= neg_denom
        np.exp(fields, out=fields)
    elif kind == "square":
        # Soft box: full intensity inside the half-width, linear 1-px skirt.
        half = np.reshape(sizes, (-1, 1, 1)) + 0.5
        fields = np.clip(half - np.abs(dx), 0.0, 1.0) * np.clip(half - np.abs(dy), 0.0, 1.0)
    else:
        raise ValueError(f"unknown shape kind {kind!r}")
    return fields


def render_clips(clips: Sequence[Clip], frames: int | None = None) -> np.ndarray:
    """Render clips of one shape into an (n, L, C, H, W) array of latents,
    with one ``render_pattern`` pass per shape kind.

    Translation labels move the shape ``velocity`` cells per frame along the
    label's axis (toroidal wrap); ``static`` keeps it fixed; ``grow`` scales
    the size by ``1 + grow_rate * l``.  Intensities in [0, 1] map to latents
    in [-1, 1].  Each frame's centre and size take the same float operations
    as a scalar per-frame loop would, so clip i is byte-equal to rendering
    ``clips[i]`` alone.  ``frames`` renders only the first that many frames
    of each clip.
    """
    shapes = {c.video_shape for c in clips}
    if len(shapes) != 1:
        raise ValueError(f"clips must share one video shape, got {sorted(shapes)}")
    ((length, channels, height, width),) = shapes
    length = length if frames is None else frames
    draws = np.array(
        [(*c.start, *DIRECTIONS.get(c.label, (0.0, 0.0)), c.velocity, c.size, c.params.grow_rate) for c in clips]
    )
    start, unit = draws[:, None, 0:2], draws[:, None, 2:4]
    velocity, size, grow_rate = draws[:, 4:, None].transpose(1, 0, 2)
    moving = np.array([c.label in DIRECTIONS for c in clips])[:, None, None]
    growing = np.array([c.label == "grow" for c in clips])[:, None]
    l = np.arange(length, dtype=np.float64)
    # (n, L, 2) centres and (n, L) sizes, frame by frame.
    centres = np.where(moving, (start + l[:, None] * velocity[..., None] * unit) % (width, height), start)
    sizes = np.where(growing, size * (1.0 + grow_rate * l), size)
    kinds = np.array([c.kind for c in clips])
    out = np.empty((len(clips), length, channels, height, width))
    for kind in dict.fromkeys(kinds):
        rows = kinds == kind
        cxs, cys = centres[rows].reshape(-1, 2).T
        fields = render_pattern(kind, cxs, cys, sizes[rows].ravel(), height, width)
        # In place, and channels by broadcasting, for the same reason as the blob.
        fields *= 2.0
        fields -= 1.0
        out[rows] = fields.reshape(-1, length, 1, height, width)
    return out


def generate_dataset(
    n: int,
    params: DatasetParams = DatasetParams(),
    seed: int | np.random.Generator = 0,
) -> MotionDataset:
    """Draw ``n`` labelled clips; the condition of each is its own first
    frame, the only frame rendered here."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else stream(seed, "dataset")
    clips = []
    for _ in range(n):
        label = params.labels[rng.integers(len(params.labels))]
        kind = params.shapes[rng.integers(len(params.shapes))]
        velocity = float(params.velocities[rng.integers(len(params.velocities))])
        if kind == "blob":
            lo, hi = params.blob_sigma
            size = float(rng.uniform(lo, hi))
        else:
            size = float(params.square_half[rng.integers(len(params.square_half))])
        start = (float(rng.uniform(0, params.width)), float(rng.uniform(0, params.height)))
        clips.append(Clip(label, start, velocity, kind, size, params))
    first = render_clips(clips, frames=1)
    return MotionDataset(
        tuple(VideoSample(**vars(c), cond=Condition(FrameLatent(f[0]), label_id(c.label))) for c, f in zip(clips, first))
    )


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


def time_embedding(t, dim: int) -> np.ndarray:
    """Sinusoidal embedding of a diffusion step, dim/2 sin + dim/2 cos; one row per step of an array."""
    if dim % 2 != 0 or dim < 2:
        raise ValueError("embedding dim must be even and >= 2")
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    ang = np.multiply.outer(t, freqs)
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


PARAMETER_NAMES = ("w1", "b1", "w2", "b2", "mix")
# The constructor arguments a checkpoint manifest records.
MODEL_DIMS = ("frames", "channels", "height", "width", "hidden", "t_embed")


def dims_problem(hidden: int, t_embed: int) -> tuple[str, str] | None:
    """The first of the sizes ``hidden`` and ``t_embed`` that the forward
    pass cannot use, as (name, reason), or None when both are usable."""
    if hidden < 1:
        return "hidden", f"must be >= 1, got {hidden}"
    if t_embed < 2 or t_embed % 2:
        return "t_embed", f"must be even and >= 2, got {t_embed}"
    return None


def _context_rows(w1: np.ndarray, b1: np.ndarray, frame_dim: int, t_embed: int):
    """The two parts of ``[cond image | t-embed | one-hot] @ W1[frame_dim:]
    + b1`` as cached functions: ``cond_row(cond)`` projects the cond image,
    label and b1, for the last two conditions used, and ``t_row(t)`` the
    t-embed, for every t.  Both caches are safe to call from several
    threads; a race can only project a row twice."""
    fd, te = frame_dim, t_embed

    # A Condition hashes by identity, and the cache holds the conditions it
    # keys, so a collected object's id is never mistaken for a live one.
    @functools.lru_cache(maxsize=2)
    def cond_row(cond: Condition) -> np.ndarray:
        return cond.image.grid.reshape(-1) @ w1[fd : 2 * fd] + w1[2 * fd + te + cond.motion_label] + b1

    @functools.cache
    def t_row(t: int) -> np.ndarray:
        return time_embedding(t, te) @ w1[2 * fd : 2 * fd + te]

    return cond_row, t_row


class ToyDenoiser:
    """Per-frame tanh MLP with a learned temporal mixing matrix.

    Per frame l the input row is [flat z_t frame | flat cond image | t-embed
    | one-hot label]; hidden H1 = tanh(X W1 + b1); per-frame output
    Y = H1 W2 + b2; the final prediction mixes frames: OUT = M Y.  W2 starts
    at zero so an untrained model predicts exactly zero noise, and M starts
    at identity so early training is frame-local.

    The one-hot spans ``MOTION_LABELS``, so W1's row count is the label
    count and a checkpoint's manifest records no other.  ``Condition``
    range-checks a label id when it is made; the model checks only a
    condition's image shape.

    The context columns [cond image | t-embed | one-hot] are the same for
    every frame of a video, so layer 1 is evaluated by row block of W1: the
    frame block multiplies each frame's latent, while the context block is
    projected once per video and broadcast across the L frames.

    Parameters are read-only arrays; an update replaces an array instead of
    writing into it, and assigning one stores a read-only copy unless the
    array is already read-only and owns its memory, in which case it is
    handed over and its owner must not turn writing back on.  Assigning
    ``w1`` or ``b1`` rebuilds the context cache (``_context_rows``), so a
    cached row is never read with weights other than its own.
    """

    def __init__(
        self,
        frames: int = 16,
        channels: int = 1,
        height: int = 16,
        width: int = 16,
        hidden: int = 128,
        t_embed: int = 16,
        seed: int = 0,
    ):
        if min(frames, channels, height, width) < 1:
            raise ValueError("all model dimensions must be >= 1")
        problem = dims_problem(hidden, t_embed)
        if problem:
            raise ValueError("{} {}".format(*problem))
        self.frames = frames
        self.channels = channels
        self.height = height
        self.width = width
        self.hidden = hidden
        self.t_embed = t_embed
        self.frame_dim = channels * height * width
        self.in_dim = 2 * self.frame_dim + t_embed + len(MOTION_LABELS)

        rng = stream(seed, "denoiser-init")
        initial = {
            "w1": rng.standard_normal((self.in_dim, hidden)) / np.sqrt(self.in_dim),
            "b1": np.zeros(hidden),
            "w2": np.zeros((hidden, self.frame_dim)),
            "b2": np.zeros(self.frame_dim),
            "mix": np.eye(frames),
        }
        for name, p in initial.items():
            p.flags.writeable = False  # nothing else holds p, so it need not be copied
            setattr(self, name, p)

    def __setattr__(self, name, value):
        if name in PARAMETER_NAMES:
            value = read_only(value)
        object.__setattr__(self, name, value)
        if name in ("w1", "b1") and hasattr(self, "b1"):  # __init__ assigns w1 first
            self._context = _context_rows(self.w1, self.b1, self.frame_dim, self.t_embed)

    def parameters(self) -> dict[str, np.ndarray]:
        """Read-only parameter arrays, keyed by layer name.

        Writing into one raises ``ValueError``; to change a parameter, assign
        a new array to the attribute of the same name.
        """
        return {name: getattr(self, name) for name in PARAMETER_NAMES}

    @property
    def video_shape(self) -> tuple[int, int, int, int]:
        return (self.frames, self.channels, self.height, self.width)

    def _check_cond(self, cond: Condition) -> None:
        if cond.image.shape != (self.channels, self.height, self.width):
            raise ValueError(f"condition image shape {cond.image.shape} != {(self.channels, self.height, self.width)}")

    def _forward(self, z: np.ndarray, ctx_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """z: (..., L, frame_dim) latents; ctx_rows: (..., hidden), each
        video's context already projected through W1's context block plus b1.

        Returns (out, h1, y), with out mixed across frames.
        """
        fd = self.frame_dim
        # One matmul over all (B*L) frame rows beats B stacked (L)-row ones.
        lead = z.shape[:-1]
        proj = (z.reshape(-1, fd) @ self.w1[:fd]).reshape(*lead, self.hidden)
        proj += ctx_rows[..., None, :]
        h1 = np.tanh(proj, out=proj)
        y = h1.reshape(-1, self.hidden) @ self.w2
        y += self.b2
        y = y.reshape(*lead, fd)
        out = self.mix @ y
        return out, h1, y

    def predict_noise(self, z_t: VideoLatent, cond: Condition, t: int) -> VideoLatent:
        if z_t.shape != self.video_shape:
            raise ValueError(f"latent shape {z_t.shape} != model shape {self.video_shape}")
        self._check_cond(cond)
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
        cond_row, t_row = self._context
        out, _, _ = self._forward(z_t.frames.reshape(self.frames, -1), cond_row(cond) + t_row(int(t)))
        return VideoLatent(out.reshape(self.video_shape))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


class TrainingDiverged(RuntimeError):
    """Raised when a loss or parameter stops being finite during training."""


@dataclass
class TrainResult:
    losses: np.ndarray  # per-epoch mean per-sample loss
    final_loss: float


def _batch_loss(
    model: ToyDenoiser,
    z: np.ndarray,  # (B, L, frame_dim)
    ctx: np.ndarray,  # (B, ctx_dim)
    eps_flat: np.ndarray,  # (B, L, frame_dim)
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forward pass and mean-squared-error loss over a batch: (loss,
    residual, h1, y, out), what the backward pass needs and the output.

    The scalar objective is the mean over every output element; the reported
    per-sample loss elsewhere is this value times L * frame_dim.
    """
    out, h1, y = model._forward(z, ctx @ model.w1[model.frame_dim :] + model.b1)
    resid = out - eps_flat
    return float((resid**2).sum() / resid.size), resid, h1, y, out


def _layer2_grads(h1_rows: np.ndarray, dy_rows: np.ndarray, d_w2: np.ndarray) -> np.ndarray:
    """Write dJ/dW2 into ``d_w2`` and return dJ/db2."""
    np.matmul(h1_rows.T, dy_rows, out=d_w2)
    return dy_rows.sum(axis=0)


def _batch_loss_and_grads(
    model: ToyDenoiser,
    z: np.ndarray,  # (B, L, frame_dim)
    ctx: np.ndarray,  # (B, ctx_dim)
    eps_flat: np.ndarray,  # (B, L, frame_dim)
    worker: Executor | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """``_batch_loss``'s loss and its exact parameter gradients.

    With a ``worker``, the layer-2 gradients are computed on it while this
    thread runs the ``da -> d_w1`` chain; both branches only read what the
    forward pass left, and the bytes are the same either way.
    """
    fd, hid = model.frame_dim, model.hidden
    # ``out`` is held until the gradients are done.  Freed here instead, it
    # moved glibc's heap so that each one-thread step at hidden 600, batch 8
    # trimmed and re-faulted ~2.6 MB: 668 minor page faults per step
    # against 24, and a slower epoch.
    loss, resid, h1, y, out = _batch_loss(model, z, ctx, eps_flat)
    g = 2.0 * resid / resid.size  # dJ/d(out)
    d_mix = (g @ y.swapaxes(1, 2)).sum(axis=0)
    dy = model.mix.T @ g
    dy_rows = dy.reshape(-1, fd)
    h1_rows = h1.reshape(-1, hid)
    d_w2 = np.empty((hid, fd))
    layer2 = worker.submit(_layer2_grads, h1_rows, dy_rows, d_w2) if worker else None
    da = (dy_rows @ model.w2.T) * (1.0 - h1_rows**2)
    # Written block by block in place: a concatenation would hold a second
    # (in_dim, H) copy.  The context block sees each video's rows summed.
    d_w1 = np.empty_like(model.w1)
    np.matmul(z.reshape(-1, fd).T, da, out=d_w1[:fd])
    np.matmul(ctx.T, da.reshape(*z.shape[:2], hid).sum(axis=1), out=d_w1[fd:])
    d_b1 = da.sum(axis=0)
    d_b2 = layer2.result() if layer2 else _layer2_grads(h1_rows, dy_rows, d_w2)
    return loss, {"w1": d_w1, "b1": d_b1, "w2": d_w2, "b2": d_b2, "mix": d_mix}


def _check_samples(model: ToyDenoiser, dataset: MotionDataset) -> None:
    """Refuse, before any step, a dataset ``model`` cannot learn from: one
    with no samples, a clip of another shape, or a condition image of
    another shape.  Shapes are read from each clip's settings; nothing is
    rendered."""
    if len(dataset) == 0:
        raise ValueError("dataset has no samples")
    for s in dataset.samples:
        if s.video_shape != model.video_shape:
            raise ValueError(f"video shape {s.video_shape} != model shape {model.video_shape}")
        model._check_cond(s.cond)


def _stack_samples(
    model: ToyDenoiser,
    samples: Sequence[VideoSample],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten ``samples`` into (videos, cond images, label one-hots),
    rendering the videos straight into their stack."""
    z0 = render_clips(samples).reshape(len(samples), model.frames, -1)
    cond_img = np.stack([s.cond.image.grid.reshape(-1) for s in samples])
    onehot = np.eye(len(MOTION_LABELS))[[s.cond.motion_label for s in samples]]
    return z0, cond_img, onehot


def _assemble_batch(
    model: ToyDenoiser,
    z0: np.ndarray,
    cond_img: np.ndarray,
    onehot: np.ndarray,
    rng: np.random.Generator,
    sched: NoiseSchedule,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw a step t per sample, then the noise, and noise each sample to
    its t: (B, L, frame_dim) z_t, (B, ctx_dim) context, and the noise."""
    ts = rng.integers(1, sched.steps + 1, size=len(z0))
    eps = rng.standard_normal((len(z0), model.frames, model.frame_dim))
    ab = sched.alpha_bars[ts - 1][:, None, None]
    z_t = np.sqrt(ab) * z0 + np.sqrt(1.0 - ab) * eps
    temb = time_embedding(ts, model.t_embed)
    return z_t, np.concatenate([cond_img, temb, onehot], axis=1), eps


def _cpus_apart_from_caller() -> set[int] | None:
    """The CPUs ``train``'s worker is kept to: the calling thread's affinity
    mask less the CPU it is running on, or None, and then no worker, where
    the platform cannot tell or no other CPU is allowed.

    Left to itself, Linux woke the worker, which runs in bursts of about a
    millisecond, on the caller's own CPU every time, so the two threads took
    turns instead of overlapping: on a 2-vCPU VM at hidden 600 an epoch
    with the unpinned worker was 5-7 % slower than on one thread, and with
    the pinned one about a fifth faster.  Under ``taskset -c 0`` a worker
    had no other CPU and made ``train`` 6 % slower, with 4 % more memory.
    The caller's own affinity is left alone.
    """
    try:
        mask = os.sched_getaffinity(0)
        sched_getcpu = ctypes.CDLL(None).sched_getcpu
    except (AttributeError, OSError, TypeError):  # not Linux, or no glibc-style libc
        return None
    sched_getcpu.argtypes = []
    sched_getcpu.restype = ctypes.c_int
    return (mask - {sched_getcpu()}) or None


def _pin(cpus: set[int]) -> None:
    """Keep the calling thread to ``cpus``.  Pinning is only a speed-up, so
    a mask the host refuses (the cpuset may have shrunk since it was read)
    leaves the thread unpinned instead of breaking its pool."""
    with suppress(OSError):
        os.sched_setaffinity(0, cpus)


def _prefetched(items: Iterator, worker: Executor | None) -> Iterator:
    """``items`` in order; with a ``worker``, each is drawn there while the
    caller works on the one before."""
    if worker is None:
        yield from items
        return
    step = worker.submit(next, items, None)
    while (item := step.result()) is not None:
        step = worker.submit(next, items, None)
        yield item


@one_blas_thread()
def train(
    model: ToyDenoiser,
    dataset: MotionDataset,
    sched: NoiseSchedule,
    epochs: int = 10,
    lr: float = 0.5,
    seed: int = 0,
    batch_size: int = 8,
) -> tuple[ToyDenoiser, TrainResult]:
    """SGD on noise prediction: for random (sample, t, eps) predict eps.

    Returns the same model object, whose parameter arrays each step has
    replaced, plus the per-epoch loss curve, where loss is the mean
    per-sample sum of squared errors.

    Every sample is checked before the first step.  Each batch's clips are
    then rendered straight into its stack from the samples it draws, so
    the call holds a batch or two of clips, never the whole dataset's
    (8.4 MB for 256 default clips).

    Where the caller may run on another CPU than its current one (see
    ``_cpus_apart_from_caller``), the call keeps one worker thread there,
    joined before it returns or raises.  The worker renders and noises batch
    k+1 while this thread computes step k, and computes each step's layer-2
    gradient while this thread runs the rest of the backward pass.  With
    no other CPU, or where the platform cannot tell, the call runs on this
    thread alone: a worker sharing its CPU made an epoch slower.  Every
    draw comes from the one ``train`` stream in serial order, and updates
    and finiteness checks run here, so the parameters and losses are
    byte-identical either way.
    """
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be >= 1")
    if not lr > 0:
        raise ValueError(f"lr must be positive, got {lr}")
    _check_samples(model, dataset)
    rng = stream(seed, "train")
    n = len(dataset)
    per_sample_scale = model.frames * model.frame_dim

    def batches():
        """(epoch, batch size, batch) in draw order."""
        for epoch in range(epochs):
            order = rng.permutation(n)
            for lo in range(0, n, batch_size):
                idx = order[lo : lo + batch_size]
                batch = _stack_samples(model, [dataset.samples[i] for i in idx])
                yield epoch, idx.size, _assemble_batch(model, *batch, rng, sched)

    epoch_loss = np.zeros(epochs)
    cpus = _cpus_apart_from_caller()
    with ThreadPoolExecutor(max_workers=1, initializer=_pin, initargs=(cpus,)) if cpus else nullcontext() as worker:
        for epoch, size, batch in _prefetched(batches(), worker):
            loss, grads = _batch_loss_and_grads(model, *batch, worker=worker)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch + 1}")
            for name, g in grads.items():
                # p - lr * g, written into the gradient's own buffer, which
                # then becomes the parameter: no array is allocated.
                np.subtract(getattr(model, name), np.multiply(g, lr, out=g), out=g)
                if not np.isfinite(g).all():
                    raise TrainingDiverged(f"non-finite parameter {name!r} at epoch {epoch + 1}")
                g.flags.writeable = False
                setattr(model, name, g)
            epoch_loss[epoch] += loss * size
    curve = epoch_loss / n * per_sample_scale
    return model, TrainResult(curve, float(curve[-1]))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def schedule_digest(sched: NoiseSchedule) -> str:
    import hashlib

    return hashlib.sha256(sched.betas.tobytes()).hexdigest()[:16]


def save_checkpoint(
    model: ToyDenoiser,
    ckpt_dir,
    dataset_params: DatasetParams,
    sched: NoiseSchedule,
    extra: dict | None = None,
) -> Path:
    """Write one LTN1 file per parameter plus a JSON manifest of the model's
    dimensions and its provenance (training dataset and schedule digest);
    returns the dir."""
    ckpt_dir = Path(ckpt_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    for name, p in model.parameters().items():
        write_ltn1(ckpt_dir / f"{name}.ltn1", p)
    manifest = {
        "format": "toydenoiser-v1",
        **{dim: getattr(model, dim) for dim in MODEL_DIMS},
        "dataset": asdict(dataset_params),
        "schedule_digest": schedule_digest(sched),
        **(extra or {}),
    }
    (ckpt_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return ckpt_dir


def load_checkpoint(ckpt_dir) -> tuple[ToyDenoiser, dict]:
    """Rebuild a ToyDenoiser from ``save_checkpoint`` output.

    The manifest must name the format ``toydenoiser-v1`` and give every
    dimension and the provenance, with the training labels as a list; the
    model those dimensions build decides which parameter files are read and
    what shape each must have.
    """
    ckpt_dir = Path(ckpt_dir)
    manifest_path = ckpt_dir / "manifest.json"
    raw = read_input(manifest_path, "checkpoint manifest")
    try:
        manifest = json.loads(raw.decode())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"checkpoint manifest {manifest_path} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"checkpoint manifest {manifest_path} is not a JSON object")
    if manifest.get("format") != "toydenoiser-v1":
        raise ValueError(f"checkpoint manifest {manifest_path} gives 'format' as {manifest.get('format')!r}, "
                         "not 'toydenoiser-v1'")
    for key in MODEL_DIMS + ("dataset", "schedule_digest"):
        if manifest.get(key) is None:
            raise ValueError(f"checkpoint manifest {manifest_path} has no value for {key!r}")
    labels = manifest["dataset"].get("labels") if isinstance(manifest["dataset"], dict) else None
    if not isinstance(labels, list) or not all(label in MOTION_LABELS for label in labels):
        raise ValueError(f"checkpoint manifest {manifest_path} has no list of motion labels under 'dataset.labels'")
    for key in MODEL_DIMS:
        # not isinstance: a JSON true would pass as 1
        if type(manifest[key]) is not int or manifest[key] < 1:
            raise ValueError(f"checkpoint manifest {manifest_path} gives {key!r} as {manifest[key]!r}, "
                             "not an integer >= 1")
    model = ToyDenoiser(**{dim: manifest[dim] for dim in MODEL_DIMS})
    for name, p in model.parameters().items():
        arr = read_ltn1(ckpt_dir / f"{name}.ltn1", "checkpoint parameter file")
        if arr.shape != p.shape:
            raise ValueError(f"checkpoint parameter {name!r} has shape {arr.shape}, the manifest's model needs {p.shape}")
        arr.flags.writeable = False
        setattr(model, name, arr)
    return model, manifest
