"""Embedding-distance scoring against matching or non-matching references."""

from dataclasses import dataclass, field

import numpy as np

from .audio_core import Waveform, log_band_spectrogram
from .errors import EmptyPoolError
from .net import EmbeddingModel, _weights, embed, embed_batch, feature_loss_spec
from .table import column, read_table, write_table


def _embed_wav(model: EmbeddingModel, w: Waveform) -> np.ndarray:
    return embed(model, log_band_spectrogram(w))


@dataclass
class ReferencePool:
    """Clean reference clips. Their embeddings are computed in one batch and
    cached for the last model seen, keyed by the prepared weights that the
    model memoizes for its current config and parameters."""

    references: list[Waveform]
    pool_id: str = "pool"
    # (weights, embeddings), replaced whole so readers see one model's
    _cache: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def embeddings(self, model: EmbeddingModel) -> np.ndarray:
        if not self.references:
            raise EmptyPoolError(f"pool {self.pool_id!r} is empty")
        weights = _weights(model)
        cached, emb = self._cache
        if cached is weights:
            return emb
        emb = embed_batch(model, [log_band_spectrogram(w) for w in self.references])
        self._cache = (weights, emb)
        return emb


def nomad_distance(model: EmbeddingModel, a: Waveform, b: Waveform) -> float:
    """Euclidean distance of the clips' embeddings (bounded by 2), reduced as in pooled_score."""
    return float(np.linalg.norm(_embed_wav(model, a) - _embed_wav(model, b), axis=-1))


# a clip's distance to its own clean counterpart
full_reference_score = nomad_distance


def pooled_score(model: EmbeddingModel, test: Waveform, pool: ReferencePool) -> float:
    """Mean embedding distance from the test clip to every pool member."""
    refs = pool.embeddings(model)
    e = _embed_wav(model, test)
    return float(np.mean(np.linalg.norm(refs - e, axis=-1)))


def feature_loss(model: EmbeddingModel, clean: Waveform, estimate: Waveform):
    """Waveform-level wrapper of ``feature_loss_spec``; durations are trimmed
    to the common frame count and the gradient is taken wrt the estimate's
    spectrogram."""
    sc = log_band_spectrogram(clean)
    se = log_band_spectrogram(estimate)
    t = min(sc.values.shape[0], se.values.shape[0])
    return feature_loss_spec(model, sc.values[:t], se.values[:t])


@dataclass
class ScoreRow:
    clip_path: str
    nomad: float = column(".12f")
    mode: str      # "nmr" or "fr"
    pool_id: str   # pool name, or the reference path in fr mode


def write_scores(rows: list[ScoreRow], path) -> None:
    write_table(path, ScoreRow, rows)


def read_scores(path) -> list[ScoreRow]:
    return read_table(path, ScoreRow)
