"""Embedding-distance scoring against matching or non-matching references."""

from dataclasses import astuple, dataclass, field

import numpy as np

from .audio_core import SpectrogramConfig, Waveform, log_band_spectrogram
from .errors import EmptyPoolError
from .net import EmbeddingModel, _backward, _forward, embed, embed_batch
from .table import read_table, write_table

SCORE_COLUMNS = (
    ("clip_path", str, ""), ("nomad", float, ".12f"), ("mode", str, ""), ("pool_id", str, ""),
)


def _embed_wav(model: EmbeddingModel, w: Waveform, spec_cfg=None) -> np.ndarray:
    return embed(model, log_band_spectrogram(w, spec_cfg))


@dataclass
class ReferencePool:
    """Clean reference clips. Their embeddings are computed in one batch and
    cached for the last model seen, keyed by its exact config and parameters."""

    references: list[Waveform]
    pool_id: str = "pool"
    spec_cfg: SpectrogramConfig | None = None
    # (config, parameters, embeddings), replaced whole so readers see one model's
    _cache: tuple = field(default=(None, None, None), init=False, repr=False, compare=False)

    def embeddings(self, model: EmbeddingModel) -> np.ndarray:
        if not self.references:
            raise EmptyPoolError(f"pool {self.pool_id!r} is empty")
        config, parameters, emb = self._cache
        if config == model.config and np.array_equal(parameters, model.parameters):
            return emb
        snapshot = EmbeddingModel(model.parameters.copy(), model.config)
        emb = embed_batch(snapshot, [log_band_spectrogram(w, self.spec_cfg) for w in self.references])
        self._cache = (snapshot.config, snapshot.parameters, emb)
        return emb


def nomad_distance(model: EmbeddingModel, a: Waveform, b: Waveform) -> float:
    """Euclidean distance between the two clips' embeddings (bounded by 2)."""
    return float(np.linalg.norm(_embed_wav(model, a) - _embed_wav(model, b)))


def pooled_score(model: EmbeddingModel, test: Waveform, pool: ReferencePool) -> float:
    """Mean embedding distance from the test clip to every pool member."""
    refs = pool.embeddings(model)
    e = _embed_wav(model, test, pool.spec_cfg)
    return float(np.mean(np.linalg.norm(refs - e, axis=1)))


def full_reference_score(model: EmbeddingModel, test: Waveform, clean_counterpart: Waveform) -> float:
    return nomad_distance(model, test, clean_counterpart)


def feature_loss_spec(model: EmbeddingModel, clean_values: np.ndarray, est_values: np.ndarray):
    """Deep feature L1 loss between two (T, bands) spectrograms.

    Per conv layer: mean over frames of the per-frame L1 distance between
    activations, truncated to the common frame count; plus the L1 distance
    between the final embeddings. Returns (loss, gradient wrt est_values)."""
    theta = model.parameters.astype(np.float64)
    cfg = model.config
    e_c, cache_c = _forward(theta, cfg, [clean_values])
    e_e, cache_e = _forward(theta, cfg, [est_values])

    loss = 0.0
    layer_grads = []
    for a_c, a_e in zip(cache_c["xs"][1:], cache_e["xs"][1:]):
        t = min(a_c.shape[1], a_e.shape[1])
        diff = a_e[:, :t] - a_c[:, :t]
        loss += float(np.sum(np.abs(diff))) / t
        g = np.zeros_like(a_e)
        g[:, :t] = np.sign(diff) / t
        layer_grads.append(g)
    emb_diff = e_e - e_c
    loss += float(np.sum(np.abs(emb_diff)))

    _, input_grad = _backward(
        cache_e, cfg, np.sign(emb_diff), layer_grads=layer_grads, want_input_grad=True
    )
    input_grad = input_grad[0, : len(est_values)]  # drop min_frames padding
    return loss, input_grad


def feature_loss(model: EmbeddingModel, clean: Waveform, estimate: Waveform,
                 spec_cfg: SpectrogramConfig | None = None):
    """Waveform-level wrapper; durations are trimmed to the common frame count
    and the gradient is taken wrt the estimate's spectrogram."""
    sc = log_band_spectrogram(clean, spec_cfg)
    se = log_band_spectrogram(estimate, spec_cfg)
    t = min(sc.values.shape[0], se.values.shape[0])
    return feature_loss_spec(model, sc.values[:t], se.values[:t])


@dataclass
class ScoreRow:
    clip_path: str
    nomad: float
    mode: str      # "nmr" or "fr"
    pool_id: str   # pool name, or the reference path in fr mode


def write_scores(rows: list[ScoreRow], path) -> None:
    write_table(path, SCORE_COLUMNS, map(astuple, rows))


def read_scores(path) -> list[ScoreRow]:
    return [ScoreRow(*rec) for rec in read_table(path, SCORE_COLUMNS)]
