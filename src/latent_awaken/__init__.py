"""latent-awaken: training-free image animation at desk scale.

A still image becomes a short video latent through three steps on top of a
tiny video diffusion model: score-distillation refinement of the replicated
image (injecting the model's motion prior), fabrication of a synthetic
"future" proxy image, and spherical interpolation between the two refined
latents before the final sampling pass.  Everything runs on numpy arrays in
seconds and is deterministic from a single seed.
"""

__version__ = "0.1.0"
