"""Triplet construction from NSIM-annotated sample sets.

The positive is always the entry with NSIM closest to the anchor. Negatives
come from one of two strategies: "easy" draws uniformly among entries whose
NSIM distance to the anchor exceeds the positive's by at least a margin s;
"hard" takes the closest entry strictly beyond the positive's distance.
Each rule reads only the anchor's distance vector from ``distances``.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .audio_core import _check_finite_nonnegative, _check_nonnegative_int, _check_positive_int
from .degrade import CLEAN_FAMILY, ManifestRow
from .errors import (
    DataError,
    EmptyNegativeSetError,
    ExhaustedSamplerError,
    TooFewEntriesError,
)
from .table import by_clip_path, column, read_table, write_table

MIN_ENTRIES = 3  # degraded rows a source needs to form triplets
MAX_ATTEMPTS_PER_TRIPLET = 100


@dataclass(eq=False)
class SampleSet:
    source_id: str
    clip_refs: list[str]
    q: np.ndarray  # each clip's NSIM, in clip_refs order

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64)
        if self.q.shape != (len(self.clip_refs),):
            raise ValueError(f"q has shape {self.q.shape}, expected ({len(self.clip_refs)},)")


@dataclass
class TripletRecord:
    source_id: str
    anchor_path: str
    positive_path: str
    negative_path: str
    q_a: float = column(".17g")
    q_p: float = column(".17g")
    q_n: float = column(".17g")
    strategy: str


@dataclass
class SamplerConfig:
    s: float = 0.05          # easy-negative margin in NSIM units
    strategy_mix: float = 0.5  # fraction of easy triplets
    rng_seed: int = 0

    def __post_init__(self):
        _check_nonnegative_int("rng_seed", self.rng_seed)
        _check_finite_nonnegative("s", self.s)
        if not 0.0 <= self.strategy_mix <= 1.0:
            raise ValueError("strategy_mix must be in [0, 1]")


def build_sample_sets(manifest: list[ManifestRow]) -> list[SampleSet]:
    """Group degraded manifest rows per source; clean rows are excluded from
    triplet pools. Sources with fewer than MIN_ENTRIES rows are skipped."""
    by_source: dict[str, tuple[list[str], list[float]]] = {}
    for row in by_clip_path(manifest, "manifest").values():
        if row.family == CLEAN_FAMILY:
            continue
        refs, q = by_source.setdefault(row.source_id, ([], []))
        refs.append(row.clip_path)
        q.append(row.nsim)
    sets = []
    for source_id in sorted(by_source):
        refs, q = by_source[source_id]
        if len(refs) < MIN_ENTRIES:
            logging.getLogger(__name__).warning(
                "source %s has only %d degraded rows; skipped", source_id, len(refs)
            )
            continue
        sets.append(SampleSet(source_id, refs, q))
    return sets


def distances(sample_set: SampleSet, anchor_idx: int) -> np.ndarray:
    """|q - q_anchor| per clip, with the anchor's own entry at +inf."""
    q = sample_set.q
    d = np.abs(q - q[anchor_idx])
    d[anchor_idx] = np.inf
    return d


def pick_positive(d: np.ndarray) -> int:
    """Index of the smallest distance; ties go to the lower index."""
    if len(d) < 2:
        raise TooFewEntriesError("sample set needs at least 2 entries")
    return int(np.argmin(d))


def sample_easy_negative(
    d: np.ndarray, positive_idx: int, s: float, rng: np.random.Generator,
) -> int:
    candidates = np.flatnonzero((d > d[positive_idx] + s) & (d < np.inf))
    if not len(candidates):
        raise EmptyNegativeSetError("no entry beyond the easy margin")
    return int(candidates[rng.integers(len(candidates))])


def sample_hard_negative(d: np.ndarray, positive_idx: int) -> int:
    beyond = np.flatnonzero((d > d[positive_idx]) & (d < np.inf))
    if not len(beyond):
        raise EmptyNegativeSetError("no entry strictly beyond the positive's distance")
    return int(beyond[np.argmin(d[beyond])])


def generate_triplets(sets: list[SampleSet], cfg: SamplerConfig, count: int) -> list[TripletRecord]:
    """Draw count triplets: source uniform, anchor uniform within its set,
    strategy Bernoulli(strategy_mix). Deterministic for a fixed rng_seed."""
    _check_positive_int("count", count)
    if not sets:
        raise DataError("no sample sets available")
    rng = np.random.default_rng(cfg.rng_seed)
    records: list[TripletRecord] = []
    for _ in range(count):
        for attempt in range(MAX_ATTEMPTS_PER_TRIPLET):
            st = sets[rng.integers(len(sets))]
            anchor_idx = int(rng.integers(len(st.clip_refs)))
            strategy = "easy" if rng.random() < cfg.strategy_mix else "hard"
            d = distances(st, anchor_idx)
            try:
                positive_idx = pick_positive(d)
                if strategy == "easy":
                    negative_idx = sample_easy_negative(d, positive_idx, cfg.s, rng)
                else:
                    negative_idx = sample_hard_negative(d, positive_idx)
            except (EmptyNegativeSetError, TooFewEntriesError):
                continue
            idx = (anchor_idx, positive_idx, negative_idx)
            records.append(TripletRecord(st.source_id, *(st.clip_refs[i] for i in idx),
                                         *(float(st.q[i]) for i in idx), strategy))
            break
        else:
            raise ExhaustedSamplerError(
                f"gave up after {MAX_ATTEMPTS_PER_TRIPLET} attempts "
                f"({len(records)}/{count} triplets found)"
            )
    return records


def split_by_source(
    records: list[TripletRecord], train_fraction: float, rng_seed: int = 0,
) -> tuple[list[TripletRecord], list[TripletRecord]]:
    """Source-disjoint train/validation split (no clean source appears in both)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    sources = sorted({r.source_id for r in records})
    if len(sources) < 2:
        raise DataError("need at least 2 sources for a source-disjoint split")
    rng = np.random.default_rng(rng_seed)
    order = [sources[i] for i in rng.permutation(len(sources))]
    n_train = max(1, min(len(order) - 1, int(round(train_fraction * len(order)))))
    train_sources = set(order[:n_train])
    train = [r for r in records if r.source_id in train_sources]
    val = [r for r in records if r.source_id not in train_sources]
    return train, val


def write_triplets(records: list[TripletRecord], path) -> None:
    write_table(path, TripletRecord, records)


def read_triplets(path) -> list[TripletRecord]:
    return read_table(path, TripletRecord)
