"""Acceptance criteria 5-7 at several seeds, written to one JSON file.

Runs the acceptance gate's desk pipeline (``test_acceptance.run_desk``) at
each seed and records what criteria 5-7 measure, each criterion's verdict
(from the acceptance tests themselves), and two embedding-geometry probes:
the distance between the two reference pools' mean clean embeddings, and the
spread of the 20 clean sources' embeddings against the distance of each
held-out source's degraded clips to its own clean clip.

    PYTHONPATH=src python tests/acceptance_sweep.py --seeds 1-8 --out tests/acceptance_sweep.json

One seed takes about a minute on two cores. OpenBLAS runs one thread unless
OPENBLAS_NUM_THREADS is set. pytest does not collect this file.
"""

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402 - after the thread count is fixed

import test_acceptance as acc  # noqa: E402
from nomadlite.audio_core import load_wav, log_band_spectrogram  # noqa: E402
from nomadlite.net import embed_batch  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """``1-8`` or ``1,3,5`` (or a mix) as a sorted list of distinct seeds."""
    seeds = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return sorted(seeds)


def verdict(test, desk) -> bool:
    try:
        test(desk)
    except AssertionError:
        return False
    return True


def percent(values, spread: float) -> dict:
    v = np.asarray(list(values))
    return {"median": round(100 * float(np.median(v)) / spread, 2),
            "max": round(100 * float(v.max()) / spread, 2)}


def sweep_seed(seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        desk = acc.run_desk(Path(tmp), seed)
        model = desk["model"]
        clean_rows = [r for r in desk["rows"] if r.family == "clean"]
        clean_emb = embed_batch(model, [log_band_spectrogram(load_wav(r.clip_path))
                                        for r in clean_rows])

    diffs = acc.pool_differences(desk)
    spread = acc.score_range(desk)
    by_family, to_own_clean = {}, {}
    for r in desk["held"]:
        by_family.setdefault(r.family, []).append(diffs[r.clip_path])
        to_own_clean.setdefault(r.source_id, []).append(desk["scores_fr"][r.clip_path])
    pool_gap = np.linalg.norm(desk["pool_a"].embeddings(model).mean(axis=0)
                              - desk["pool_b"].embeddings(model).mean(axis=0))
    centroid_dist = np.linalg.norm(clean_emb - clean_emb.mean(axis=0), axis=1)

    return {
        "seed": seed,
        "c5_val_loss_ratio": round(acc.val_loss_ratio(desk), 4),
        "c6_spearman": {f: round(v, 4) for f, v in acc.family_spearman(desk).items()},
        "c7_pool_diff_pct_of_range": {
            **percent(diffs.values(), spread),
            "per_family": {f: percent(v, spread) for f, v in sorted(by_family.items())},
        },
        "c7_fr_nmr_spearman": round(acc.fr_nmr_spearman(desk), 4),
        "passes": {
            "5": verdict(acc.test_5_end_to_end_training, desk),
            "6": verdict(acc.test_6_learned_metric_monotonicity, desk),
            "7": verdict(acc.test_7_reference_invariance, desk),
        },
        "pool_mean_embedding_gap": round(float(pool_gap), 4),
        "clean_source_distance_to_centroid_mean": round(float(centroid_dist.mean()), 4),
        "held_out_degraded_distance_to_own_clean_mean": {
            s: round(float(np.mean(v)), 4) for s, v in sorted(to_own_clean.items())},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-8", help="e.g. 1-8 or 1,3,5 (default %(default)s)")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    results = []
    for seed in seeds:
        results.append(sweep_seed(seed))
        print(json.dumps({k: results[-1][k] for k in ("seed", "passes")}), file=sys.stderr)
    doc = {
        "pipeline": "tests/test_acceptance.py run_desk(root, seed); verdicts from its tests 5-7",
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]},
        "seeds": results,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
