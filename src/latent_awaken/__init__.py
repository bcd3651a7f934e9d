"""latent-awaken: training-free image animation at desk scale.

A still image becomes a short video latent through three steps on top of a
tiny video diffusion model: score-distillation refinement of the replicated
image (injecting the model's motion prior), fabrication of a synthetic
"future" proxy image, and spherical interpolation between the two refined
latents before the final sampling pass.  Everything runs on numpy arrays in
seconds and is deterministic from a single seed.
"""

from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .diffusion import (
    Condition,
    Denoiser,
    FrameLatent,
    IdentityCodec,
    NoiseSchedule,
    VideoLatent,
    forward_noise,
    replicate_static,
    reverse_sample,
)
from .fusion import (
    AngleScope,
    FusionConfig,
    FusionMode,
    beta_schedule,
    fuse,
    slerp_fuse,
    uniform_fuse,
)
from .metrics import (
    FeatureStats,
    MetricReport,
    alignment_score,
    diagnose_video,
    fidelity,
    frechet_distance,
    linearity_score,
    motion_energy,
    video_features,
)
from .numerics import read_ltn1, write_ltn1
from .pipeline import PipelineVariant, RunResult, StageError, animate, run_ablation
from .proxy import (
    FileProvider,
    SyntheticProvider,
    SyntheticProviderParams,
    load_proxy,
    read_pgm,
    synthesize_proxy,
    write_pgm,
)
from .rng import stream
from .toydenoiser import (
    MOTION_LABELS,
    DatasetParams,
    MotionDataset,
    ToyDenoiser,
    TrainingDiverged,
    generate_dataset,
    gradient_check,
    load_checkpoint,
    render_video,
    save_checkpoint,
    train,
)
from .vsds import (
    CurveKind,
    RefinementDiverged,
    VsdsConfig,
    WeightCurve,
    alpha_at,
    dual_path_refine,
    tau_step,
    update_count,
    vsds_refine,
)

__version__ = "0.1.0"
