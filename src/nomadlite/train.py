"""Triplet training loop: plain SGD, validation early stopping, lr decay."""

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .audio_core import (
    Spectrogram, _check_nonnegative_int, _check_positive_int, load_wav, log_band_spectrogram,
)
from .errors import DataError
from .net import (
    EmbeddingModel,
    EncoderConfig,
    embed,
    index_triples,
    init_model,
    loss_and_gradients,
    triplet_loss,
)
from .table import column, write_table
from .triplets import TripletRecord

log = logging.getLogger(__name__)

# The learning rate is multiplied by LR_DECAY after every DECAY_INTERVAL
# epochs without a validation improvement.
LR_DECAY = 0.9
DECAY_INTERVAL = 20



@dataclass
class TrainConfig:
    margin: float = 0.2
    batch_size: int = 8
    lr: float = 1e-3
    patience: int = 50         # desk default; published protocol used 200
    max_epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        _check_positive_int("batch_size", self.batch_size)
        for name in ("max_epochs", "patience", "seed"):
            _check_nonnegative_int(name, getattr(self, name))
        for name in ("margin", "lr"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        if self.patience > self.max_epochs and self.max_epochs > 0:
            log.warning("patience %d exceeds max_epochs %d", self.patience, self.max_epochs)


@dataclass
class EpochRow:
    epoch: int
    train_loss: float = column(".12f")
    val_loss: float = column(".12f")
    lr: float = column(".12g")


@dataclass
class TrainReport:
    epochs: list[EpochRow] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")
    initial_val_loss: float = float("nan")
    wall_time_s: float = 0.0

    def write_csv(self, path) -> None:
        write_table(path, EpochRow, self.epochs)


class SpectrogramCache:
    """Loads and caches the spectrogram of each clip path once."""

    def __init__(self):
        self._cache: dict[str, Spectrogram] = {}

    def get(self, path: str) -> Spectrogram:
        if path not in self._cache:
            self._cache[path] = log_band_spectrogram(load_wav(path))
        return self._cache[path]

    def triple(self, r: TripletRecord):
        return (self.get(r.anchor_path), self.get(r.positive_path), self.get(r.negative_path))


def _sgd_step(model: EmbeddingModel, grad: np.ndarray, lr: float) -> None:
    theta = model.parameters.astype(np.float64)
    theta -= lr * grad
    model.parameters = theta.astype(np.float32)


def train_epoch(model: EmbeddingModel, triples, cfg: TrainConfig,
                rng: np.random.Generator, lr: float | None = None) -> float:
    """One pass over seeded-shuffled batches with per-batch SGD updates.
    Returns the triplet-weighted mean batch loss."""
    if not triples:
        raise DataError("no training triplets")
    if lr is None:
        lr = cfg.lr
    order = rng.permutation(len(triples))
    total = 0.0
    for start in range(0, len(order), cfg.batch_size):
        batch = [triples[i] for i in order[start : start + cfg.batch_size]]
        loss, grad = loss_and_gradients(model, batch, cfg.margin)
        if lr > 0:
            _sgd_step(model, grad, lr)
        total += loss * len(batch)
    return total / len(order)


def validate(model: EmbeddingModel, triples, margin: float) -> float:
    """Mean triplet loss without parameter updates; each distinct clip is
    embedded once."""
    if not triples:
        raise DataError("no validation triplets")
    specs, ia, ip, ineg = index_triples(triples)
    emb = np.array([embed(model, spec) for spec in specs])
    return float(np.mean(triplet_loss(emb[ia], emb[ip], emb[ineg], margin)))


def fit(
    train_records: list[TripletRecord],
    val_records: list[TripletRecord],
    cfg: TrainConfig,
    encoder_cfg: EncoderConfig | None = None,
    cache: SpectrogramCache | None = None,
) -> tuple[EmbeddingModel, TrainReport]:
    """Train from triplet records, returning the best-validation model."""
    overlap = {r.source_id for r in train_records} & {r.source_id for r in val_records}
    if overlap:
        raise DataError(f"train/validation sources overlap: {sorted(overlap)[:5]}")
    if not train_records or not val_records:
        raise DataError("train and validation sets must be nonempty")

    encoder_cfg = encoder_cfg or EncoderConfig(init_seed=cfg.seed)
    cache = cache or SpectrogramCache()
    train_triples = [cache.triple(r) for r in train_records]
    val_triples = [cache.triple(r) for r in val_records]

    model = init_model(encoder_cfg)
    report = TrainReport()
    t0 = time.monotonic()
    report.initial_val_loss = validate(model, val_triples, cfg.margin)
    best_params = model.parameters.copy()
    report.best_val_loss = report.initial_val_loss
    report.best_epoch = 0

    rng = np.random.default_rng(cfg.seed)
    lr = cfg.lr
    since_improve = 0
    for epoch in range(1, cfg.max_epochs + 1):
        train_loss = train_epoch(model, train_triples, cfg, rng, lr=lr)
        val_loss = validate(model, val_triples, cfg.margin)
        report.epochs.append(EpochRow(epoch, train_loss, val_loss, lr))
        if val_loss < report.best_val_loss:
            report.best_val_loss = val_loss
            report.best_epoch = epoch
            best_params = model.parameters.copy()
            since_improve = 0
        else:
            since_improve += 1
            if since_improve % DECAY_INTERVAL == 0:
                lr *= LR_DECAY
            if since_improve >= cfg.patience:
                log.info("early stop at epoch %d (no improvement for %d)", epoch, since_improve)
                break
    report.wall_time_s = time.monotonic() - t0
    return EmbeddingModel(best_params, encoder_cfg), report
