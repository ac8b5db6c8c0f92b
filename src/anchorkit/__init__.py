"""anchorkit: compress latent token matrices into learned semantic anchors.

A small assignment network gives every token a categorical distribution
over anchors; responsibility-weighted pooling turns those assignments
into a compact anchor matrix that can stand in for the full token set,
most usefully as the key/value side of attention. Training couples a
top-k contrastive objective with a divergence penalty that keeps anchor
usage from collapsing. Deterministic diffusion-step kernels (sampling,
inversion, classifier-free guidance) round out the toolkit.
"""

from .assignnet import (
    AdamParams,
    AdamState,
    AssignmentNetwork,
    adam_step,
    backward,
    forward,
    init_adam,
    init_network,
    load_checkpoint,
    save_checkpoint,
)
from .attention import (
    AttentionProjection,
    align,
    anchor_attention,
    attention_weights,
    flop_count,
    full_attention,
    init_projection,
    unalign,
)
from .baselines import KMeansResult, kmeans, quantization_error
from .compressor import (
    CompressResult,
    TrainConfig,
    TrainingDivergedError,
    TrainReport,
    anchor_means,
    anchor_usage_entropy,
    compress,
    train,
)
from .core import (
    AnchorKitError,
    BadMagicError,
    ConfigError,
    DimensionError,
    ExtentOverflowError,
    FormatError,
    LatentTensor,
    NumericalError,
    Provenance,
    TokenMatrix,
    TruncatedPayloadError,
    flatten,
    load_array,
    load_latent,
    load_tokens,
    save_array,
    save_latent,
    save_tokens,
    seeded_rng,
    unflatten,
)
from .ddim import (
    ConstantPredictor,
    DiffusionSchedule,
    GuidanceConfig,
    GuidedPredictor,
    LinearPredictor,
    NoisePredictor,
    TimeOnlyPredictor,
    ZeroPredictor,
    cfg_combine,
    denoise_step,
    invert_step,
    linear_beta_schedule,
    run_trajectory,
)
from .objective import (
    AnchorConfig,
    ObjectiveValue,
    anchor_moments,
    contrastive_grad,
    contrastive_loss,
    contrastive_value_and_grad,
    cosine_sim,
    gaussian_kl_closed_form,
    gaussian_prior_value_and_grad,
    kl_uniform,
    kl_uniform_grad,
    kl_uniform_value_and_grad,
    pool_anchors,
    soft_assign,
    total_loss,
)
from .synth import (
    DriftVideoSpec,
    MixtureData,
    MixtureSpec,
    drift_video,
    gaussian_mixture,
    min_center_separation,
)

__version__ = "0.1.0"
