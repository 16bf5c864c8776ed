"""nomadlite: a non-matching-reference perceptual audio distance.

Pipeline: synthesize degraded speech at controlled intensities, compute NSIM
against the clean counterpart, train a triplet-loss embedding network guided
by NSIM ordering, and score audio quality as embedding distance to arbitrary
clean references.
"""

from .audio_core import (
    CANONICAL_RATE,
    Spectrogram,
    SpectrogramConfig,
    Waveform,
    load_wav,
    log_band_spectrogram,
    resample,
    save_wav,
)
from .net import EmbeddingModel, EncoderConfig, embed, init_model, load_checkpoint, save_checkpoint
from .nsim import NsimScore, nsim, utterance_nsim
from .score import ReferencePool, feature_loss, full_reference_score, nomad_distance, pooled_score

__version__ = "0.1.0"

__all__ = [
    "CANONICAL_RATE",
    "EmbeddingModel",
    "EncoderConfig",
    "NsimScore",
    "ReferencePool",
    "Spectrogram",
    "SpectrogramConfig",
    "Waveform",
    "embed",
    "feature_loss",
    "full_reference_score",
    "init_model",
    "load_checkpoint",
    "load_wav",
    "log_band_spectrogram",
    "nomad_distance",
    "nsim",
    "pooled_score",
    "resample",
    "save_checkpoint",
    "save_wav",
    "utterance_nsim",
]
