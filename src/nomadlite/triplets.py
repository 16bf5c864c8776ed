"""Triplet construction from NSIM-annotated sample sets.

The positive is always the entry with NSIM closest to the anchor. Negatives
come from one of two strategies: "easy" draws uniformly among entries whose
NSIM distance to the anchor exceeds the positive's by at least a margin s;
"hard" takes the closest entry strictly beyond the positive's distance.
"""

import logging
from dataclasses import astuple, dataclass, field

import numpy as np

from .audio_core import _check_nonnegative_int
from .degrade import ManifestRow
from .errors import (
    DataError,
    EmptyNegativeSetError,
    ExhaustedSamplerError,
    TooFewEntriesError,
)
from .table import by_clip_path, read_table, write_table

TRIPLET_COLUMNS = (
    ("source_id", str, ""), ("anchor_path", str, ""), ("positive_path", str, ""),
    ("negative_path", str, ""), ("q_a", float, ".17g"), ("q_p", float, ".17g"),
    ("q_n", float, ".17g"), ("strategy", str, ""),
)
MIN_ENTRIES = 3  # degraded rows a source needs to form triplets
MAX_ATTEMPTS_PER_TRIPLET = 100


@dataclass
class SampleEntry:
    clip_ref: str
    q: float


@dataclass
class SampleSet:
    source_id: str
    entries: list[SampleEntry]
    q: np.ndarray = field(init=False, repr=False, compare=False)  # entries' NSIM, in order

    def __post_init__(self):
        self.q = np.array([e.q for e in self.entries], dtype=np.float64)


@dataclass
class TripletRecord:
    source_id: str
    anchor_ref: str
    positive_ref: str
    negative_ref: str
    q_a: float
    q_p: float
    q_n: float
    strategy: str


@dataclass
class SamplerConfig:
    s: float = 0.05          # easy-negative margin in NSIM units
    strategy_mix: float = 0.5  # fraction of easy triplets
    rng_seed: int = 0

    def __post_init__(self):
        _check_nonnegative_int("rng_seed", self.rng_seed)
        if not (np.isfinite(self.s) and self.s >= 0):
            raise ValueError(f"s must be finite and >= 0, got {self.s!r}")
        if not 0.0 <= self.strategy_mix <= 1.0:
            raise ValueError("strategy_mix must be in [0, 1]")


def build_sample_sets(manifest: list[ManifestRow]) -> list[SampleSet]:
    """Group degraded manifest rows per source; clean rows are excluded from
    triplet pools. Sources with fewer than MIN_ENTRIES rows are skipped."""
    by_source: dict[str, list[SampleEntry]] = {}
    for row in by_clip_path(manifest, "manifest").values():
        if row.family == "clean":
            continue
        by_source.setdefault(row.source_id, []).append(SampleEntry(row.clip_path, row.nsim))
    sets = []
    for source_id in sorted(by_source):
        entries = by_source[source_id]
        if len(entries) < MIN_ENTRIES:
            logging.getLogger(__name__).warning(
                "source %s has only %d degraded rows; skipped", source_id, len(entries)
            )
            continue
        sets.append(SampleSet(source_id, entries))
    return sets


def _distances(sample_set: SampleSet, anchor_idx: int) -> np.ndarray:
    """|q - q_anchor| per entry, with the anchor's own entry at +inf."""
    q = sample_set.q
    d = np.abs(q - q[anchor_idx])
    d[anchor_idx] = np.inf
    return d


def pick_positive(sample_set: SampleSet, anchor_idx: int) -> int:
    """Index of the entry with NSIM closest to the anchor's; ties go to the
    lower index."""
    if len(sample_set.entries) < 2:
        raise TooFewEntriesError("sample set needs at least 2 entries")
    return int(np.argmin(_distances(sample_set, anchor_idx)))


def sample_easy_negative(
    sample_set: SampleSet, anchor_idx: int, positive_idx: int, s: float,
    rng: np.random.Generator,
) -> int:
    d = _distances(sample_set, anchor_idx)
    candidates = np.flatnonzero((d > d[positive_idx] + s) & (d < np.inf))
    if not len(candidates):
        raise EmptyNegativeSetError("no entry beyond the easy margin")
    return int(candidates[rng.integers(len(candidates))])


def sample_hard_negative(sample_set: SampleSet, anchor_idx: int, positive_idx: int) -> int:
    d = _distances(sample_set, anchor_idx)
    beyond = np.flatnonzero((d > d[positive_idx]) & (d < np.inf))
    if not len(beyond):
        raise EmptyNegativeSetError("no entry strictly beyond the positive's distance")
    return int(beyond[np.argmin(d[beyond])])


def generate_triplets(sets: list[SampleSet], cfg: SamplerConfig, count: int) -> list[TripletRecord]:
    """Draw count triplets: source uniform, anchor uniform within its set,
    strategy Bernoulli(strategy_mix). Deterministic for a fixed rng_seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if not sets:
        raise DataError("no sample sets available")
    rng = np.random.default_rng(cfg.rng_seed)
    records: list[TripletRecord] = []
    for _ in range(count):
        for attempt in range(MAX_ATTEMPTS_PER_TRIPLET):
            st = sets[rng.integers(len(sets))]
            anchor_idx = int(rng.integers(len(st.entries)))
            strategy = "easy" if rng.random() < cfg.strategy_mix else "hard"
            try:
                positive_idx = pick_positive(st, anchor_idx)
                if strategy == "easy":
                    negative_idx = sample_easy_negative(st, anchor_idx, positive_idx, cfg.s, rng)
                else:
                    negative_idx = sample_hard_negative(st, anchor_idx, positive_idx)
            except (EmptyNegativeSetError, TooFewEntriesError):
                continue
            a, p, n = st.entries[anchor_idx], st.entries[positive_idx], st.entries[negative_idx]
            records.append(
                TripletRecord(st.source_id, a.clip_ref, p.clip_ref, n.clip_ref,
                              a.q, p.q, n.q, strategy)
            )
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
    write_table(path, TRIPLET_COLUMNS, map(astuple, records))


def read_triplets(path) -> list[TripletRecord]:
    return [TripletRecord(*rec) for rec in read_table(path, TRIPLET_COLUMNS)]
