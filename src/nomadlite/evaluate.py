"""Correlation and ranking evaluation: Pearson/Spearman, per-condition MOS
aggregation, and per-family monotonicity reports."""

import logging
from dataclasses import dataclass

import numpy as np

from .degrade import ManifestRow
from .errors import DegenerateInputError, JoinEmptyError
from .score import ScoreRow
from .table import by_clip_path, read_table

log = logging.getLogger(__name__)

MOS_COLUMNS = (("clip_path", str, ""), ("condition_id", str, ""), ("mos", float, ""))
CONDITION_COLUMNS = (
    ("condition_id", str, ""), ("mean_score", float, ".12f"), ("mean_mos", float, ".12f"),
)


@dataclass
class MosRecord:
    clip_path: str
    condition_id: str
    mos: float


@dataclass
class ConditionRow:
    condition_id: str
    mean_score: float
    mean_mos: float


@dataclass
class EvalReport:
    pc: float
    sc: float
    n_conditions: int
    per_condition: list[ConditionRow]
    dropped_clips: int = 0


def _rank(x: np.ndarray) -> np.ndarray:
    """Average (fractional) ranks, 1-based, ties share their mean rank."""
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # 1-based rank of each group's last member
    return ((ends - counts + 1 + ends) / 2)[group]


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("inputs must be equal-length 1-d with >= 2 points")
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(np.sum(xc**2))
    syy = float(np.sum(yc**2))
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInputError("constant input: correlation undefined")
    return float(np.dot(xc, yc) / np.sqrt(sxx * syy))


def spearman(x, y) -> float:
    """Pearson correlation of fractional ranks."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("inputs must be equal-length 1-d with >= 2 points")
    return pearson(_rank(x), _rank(y))


def read_mos(path) -> list[MosRecord]:
    return [MosRecord(*rec) for rec in read_table(path, MOS_COLUMNS)]


def aggregate_per_condition(scores: list[ScoreRow], mos: list[MosRecord]) -> EvalReport:
    """Join scores with MOS by clip path, average both per condition, then
    correlate the condition means. A clip listed twice in either table raises
    DataError."""
    mos_by_clip = by_clip_path(mos, "MOS file")
    per_cond: dict[str, list[tuple[float, float]]] = {}
    dropped = 0
    for s in by_clip_path(scores, "score file").values():
        m = mos_by_clip.get(s.clip_path)
        if m is None:
            dropped += 1
            continue
        per_cond.setdefault(m.condition_id, []).append((s.nomad, m.mos))
    if dropped:
        log.info("dropped %d clips with no MOS match", dropped)
    if not per_cond:
        raise JoinEmptyError("no clip paths in common between scores and MOS")
    rows = [
        ConditionRow(cid,
                     float(np.mean([p[0] for p in pairs])),
                     float(np.mean([p[1] for p in pairs])))
        for cid, pairs in sorted(per_cond.items())
    ]
    xs = [r.mean_score for r in rows]
    ys = [r.mean_mos for r in rows]
    return EvalReport(pearson(xs, ys), spearman(xs, ys), len(rows), rows, dropped)


def monotonicity_report(scores: list[ScoreRow], manifest: list[ManifestRow]) -> dict[str, float | None]:
    """Per-family Spearman of score vs level parameter. Raw signed values;
    the sign convention (level direction) is the family's own. Families whose
    correlation is undefined map to None. Raises JoinEmptyError if no score
    matches a degraded manifest row, and DataError if either table lists a
    clip twice."""
    by_clip = by_clip_path(manifest, "manifest")
    per_family: dict[str, list[tuple[float, float]]] = {}
    for s in by_clip_path(scores, "score file").values():
        row = by_clip.get(s.clip_path)
        if row is None or row.family == "clean":
            continue
        per_family.setdefault(row.family, []).append((row.level_param, s.nomad))
    if not per_family:
        raise JoinEmptyError("no clip paths in common between scores and degraded manifest rows")
    out: dict[str, float | None] = {}
    for family, pairs in sorted(per_family.items()):
        if len(pairs) < 2:
            out[family] = None
            continue
        try:
            out[family] = spearman([p[0] for p in pairs], [p[1] for p in pairs])
        except DegenerateInputError:
            out[family] = None
    return out
