"""Training checks shared by several test modules.

``evaluate_loss`` measures a model's noise-prediction loss on a dataset,
and ``gradient_check`` compares ``train``'s analytic gradients with central
differences.  Both reuse the training code's own batch helpers, so they
check the loss and gradients that ``train`` steps on.
"""

from __future__ import annotations

from latent_awaken.diffusion import NoiseSchedule
from latent_awaken.rng import stream
from latent_awaken.toydenoiser import (
    PARAMETER_NAMES,
    MotionDataset,
    ToyDenoiser,
    _assemble_batch,
    _batch_loss,
    _batch_loss_and_grads,
    _check_samples,
    _stack_samples,
)


def evaluate_loss(
    model: ToyDenoiser,
    dataset: MotionDataset,
    sched: NoiseSchedule,
    seed: int = 0,
    rounds: int = 4,
) -> float:
    """Mean per-sample noise-prediction loss over fresh (t, eps) draws."""
    _check_samples(model, dataset)
    rng = stream(seed, "eval")
    inputs = _stack_samples(model, dataset.samples)
    total = 0.0
    for _ in range(rounds):
        z_t, ctx, eps = _assemble_batch(model, *inputs, rng, sched)
        total += _batch_loss(model, z_t, ctx, eps)[0]
    return total / rounds * model.frames * model.frame_dim


def gradient_check(
    model: ToyDenoiser,
    dataset: MotionDataset,
    sched: NoiseSchedule,
    n_coords: int = 20,
    step: float = 1e-5,
    seed: int = 0,
) -> float:
    """Compare analytic gradients against central differences.

    Probes ``n_coords`` randomly chosen parameter coordinates on a single
    fixed batch and returns the worst relative error.
    """
    _check_samples(model, dataset)
    rng = stream(seed, "gradcheck")
    idx = rng.permutation(len(dataset))[: min(4, len(dataset))]
    batch = _stack_samples(model, [dataset.samples[i] for i in idx])
    z_t, ctx, eps = _assemble_batch(model, *batch, rng, sched)
    _, grads = _batch_loss_and_grads(model, z_t, ctx, eps)

    names = sorted(PARAMETER_NAMES)
    worst = 0.0
    for _ in range(n_coords):
        name = names[rng.integers(len(names))]
        p = getattr(model, name)
        flat_i = int(rng.integers(p.size))
        losses = []
        for delta in (step, -step):
            probe = p.copy()
            probe.flat[flat_i] += delta
            setattr(model, name, probe)
            losses.append(_batch_loss(model, z_t, ctx, eps)[0])
        setattr(model, name, p)
        numeric = (losses[0] - losses[1]) / (2.0 * step)
        analytic = grads[name].flat[flat_i]
        denom = max(abs(numeric) + abs(analytic), 1e-8)
        worst = max(worst, abs(numeric - analytic) / denom)
    return worst
