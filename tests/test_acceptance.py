"""End-to-end acceptance gate.

Each criterion prints one ``ACCEPTANCE n: PASS/FAIL`` line (run with ``-s``
to see them). Criteria 5-7 share one desk-scale pipeline: synthesized corpus,
NSIM-supervised triplets, a fully trained embedding model, and pooled
scoring on held-out sources.
"""

import time

import numpy as np
import pytest

from conftest import make_utterance

from nomadlite.audio_core import Waveform, load_wav, save_wav
from nomadlite.cli import main
from nomadlite.degrade import (
    DEFAULT_FAMILIES,
    DegradationCondition,
    LEVEL_TABLES,
    apply_condition,
    synth_dataset,
)
from nomadlite.evaluate import (
    MosRecord,
    aggregate_per_condition,
    pearson,
    spearman,
)
from nomadlite.net import EncoderConfig, init_model
from nomadlite.nsim import utterance_nsim
from nomadlite.score import (
    ReferencePool,
    ScoreRow,
    feature_loss_spec,
    full_reference_score,
    pooled_score,
)
from nomadlite.train import TrainConfig, SpectrogramCache, fit
from nomadlite.triplets import (
    SampleSet,
    SamplerConfig,
    build_sample_sets,
    distances,
    generate_triplets,
    pick_positive,
    sample_easy_negative,
    sample_hard_negative,
    split_by_source,
)
from nomadlite.errors import EmptyNegativeSetError
from nomadlite.net import EmbeddingModel, loss_and_gradients


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared desk-scale pipeline for criteria 5-7

N_SOURCES = 20
SEED = 7


@pytest.fixture(scope="session")
def desk(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    clean = root / "clean"
    clean.mkdir()
    for i in range(N_SOURCES):
        save_wav(make_utterance(seed=i, duration_s=3.0), clean / f"s{i:02d}.wav")

    data = root / "data"
    rows = synth_dataset(clean, data, seed=SEED)

    sets = build_sample_sets(rows)
    # easy-heavy mix: hard negatives sit just beyond the positive in NSIM,
    # so their hinge has an irreducible floor near the margin
    records = generate_triplets(sets, SamplerConfig(s=0.05, strategy_mix=0.8,
                                                    rng_seed=SEED), 800)
    train_recs, val_recs = split_by_source(records, 0.8, rng_seed=SEED)

    cache = SpectrogramCache()
    cfg = TrainConfig(margin=0.2, batch_size=8, lr=1e-3, patience=40,
                      max_epochs=40, seed=SEED)
    t0 = time.monotonic()
    model, train_report = fit(train_recs, val_recs, cfg,
                              EncoderConfig(init_seed=SEED), cache)
    train_time = time.monotonic() - t0

    val_sources = sorted({r.source_id for r in val_recs})
    held = [r for r in rows if r.source_id in val_sources and r.family != "clean"]
    pool_a = ReferencePool(
        [make_utterance(seed=1000 + i, duration_s=3.0) for i in range(10)], "A")
    pool_b = ReferencePool(
        [make_utterance(seed=1100 + i, duration_s=3.0) for i in range(10)], "B")

    scores_a, scores_b, scores_fr = {}, {}, {}
    for r in held:
        w = load_wav(data / r.clip_path)
        scores_a[r.clip_path] = pooled_score(model, w, pool_a)
        scores_b[r.clip_path] = pooled_score(model, w, pool_b)
        cw = load_wav(data / f"{r.source_id}__clean.wav")
        scores_fr[r.clip_path] = full_reference_score(model, w, cw)

    return {
        "root": root, "rows": rows, "model": model, "report": train_report,
        "train_time": train_time, "held": held,
        "scores_a": scores_a, "scores_b": scores_b, "scores_fr": scores_fr,
    }


# ---------------------------------------------------------------------------


def test_1_nsim_identity_and_bounds():
    t0 = time.monotonic()
    clips = [make_utterance(seed=200 + i, duration_s=1.5) for i in range(50)]
    worst = max(abs(utterance_nsim(w, w) - 1.0) for w in clips)
    in_bounds = True
    rng = np.random.default_rng(0)
    for w in clips[:10]:
        noisy = Waveform(np.clip(
            w.samples + 0.1 * rng.standard_normal(len(w.samples)), -1, 1),
            w.sample_rate)
        q = utterance_nsim(w, noisy)
        in_bounds = in_bounds and 0.0 <= q <= 1.0
    elapsed = time.monotonic() - t0
    report(1, worst < 1e-9 and in_bounds and elapsed < 60,
           f"identity error {worst:.2e}, bounds hold, {elapsed:.1f}s")


def test_2_nsim_monotonicity():
    t0 = time.monotonic()
    clips = [make_utterance(seed=300 + i, duration_s=1.5) for i in range(10)]
    # NSIM direction per family: clipping % up -> down; SNR up -> up;
    # bitrate up -> up
    direction = {"clip": -1, "noise": +1,
                 "codec_proxy_mp3like": +1, "codec_proxy_opuslike": +1}
    failures = []
    means = {}
    for family in DEFAULT_FAMILIES:
        series = []
        for li in range(len(LEVEL_TABLES[family])):
            cond = DegradationCondition.from_table(family, li)
            vals = [utterance_nsim(w, apply_condition(w, cond, seed=1,
                                                      source_id=f"u{i}"))
                    for i, w in enumerate(clips)]
            series.append(float(np.mean(vals)))
        means[family] = series
        diffs = np.diff(series) * direction[family]
        if not np.all(diffs > 0):
            failures.append(f"{family}: {series}")
    elapsed = time.monotonic() - t0
    report(2, not failures and elapsed < 300,
           f"per-family means strictly monotone ({elapsed:.1f}s)"
           + (f"; failed {failures}" if failures else ""))


def test_3_sampler_vs_brute_force():
    t0 = time.monotonic()
    # hand-worked example: anchor 0.80 among {0.78, 0.70, 0.83, 0.95}, s=0.05
    hand = distances(SampleSet("h", [f"c{i}" for i in range(5)], [0.80, 0.78, 0.70, 0.83, 0.95]), 0)
    ok = pick_positive(hand) == 1
    picks = {sample_easy_negative(hand, 1, 0.05, np.random.default_rng(s))
             for s in range(50)}
    ok = ok and picks == {2, 4} and sample_hard_negative(hand, 1) == 3

    mismatches = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        n = rng.integers(3, 13)
        q = [float(rng.random()) for j in range(n)]
        st = SampleSet("s", [f"c{j}" for j in range(n)], q)
        anchor = int(rng.integers(len(q)))
        q_a = q[anchor]
        d = [abs(x - q_a) for x in q]
        others = [i for i in range(len(q)) if i != anchor]
        d_p = min(d[i] for i in others)
        exp_pos = [i for i in others if d[i] == d_p]
        exp_easy = [i for i in others if d[i] > d_p + 0.05]
        beyond = [i for i in others if d[i] > d_p]
        exp_hard = [i for i in beyond if d[i] == min(d[j] for j in beyond)] if beyond else []

        d_st = distances(st, anchor)
        p = pick_positive(d_st)
        if p != exp_pos[0]:
            mismatches += 1
        try:
            if sample_easy_negative(d_st, p, 0.05, rng) not in exp_easy:
                mismatches += 1
        except EmptyNegativeSetError:
            if exp_easy:
                mismatches += 1
        try:
            if sample_hard_negative(d_st, p) != exp_hard[0]:
                mismatches += 1
        except EmptyNegativeSetError:
            if exp_hard:
                mismatches += 1
        except IndexError:
            mismatches += 1
    elapsed = time.monotonic() - t0
    report(3, ok and mismatches == 0 and elapsed < 60,
           f"hand example exact, 1000 randomized sets, {mismatches} mismatches, "
           f"{elapsed:.1f}s")


def test_4_gradient_gate():
    t0 = time.monotonic()
    tiny = EncoderConfig(bands=2, conv_channels=(4, 8), kernel=3, stride=2,
                         embed_dim=8, init_seed=0)
    model = init_model(tiny)
    rng = np.random.default_rng(0)

    def rand_spec(t=12):
        from nomadlite.audio_core import Spectrogram
        return Spectrogram(rng.standard_normal((t, 2)))

    batch = [tuple(rand_spec() for _ in range(3)) for _ in range(2)]
    theta0 = model.parameters.astype(np.float64)
    _, grad = loss_and_gradients(model, batch, 1.0)

    def loss_at(theta):
        probe = EmbeddingModel(theta.astype(np.float32), tiny)
        probe.parameters = theta
        return loss_and_gradients(probe, batch, 1.0)[0]

    h = 1e-6
    worst_triplet = 0.0
    for i in range(tiny.param_count):  # 204 coordinates
        tp, tm = theta0.copy(), theta0.copy()
        tp[i] += h
        tm[i] -= h
        fd = (loss_at(tp) - loss_at(tm)) / (2 * h)
        denom = max(abs(fd), abs(grad[i]), 1e-4)
        worst_triplet = max(worst_triplet, abs(fd - grad[i]) / denom)

    clean = rng.standard_normal((100, 2))
    est = rng.standard_normal((100, 2))
    _, fgrad = feature_loss_spec(model, clean, est)
    worst_feat = 0.0
    for i in range(est.shape[0]):  # 200 coordinates
        for j in range(est.shape[1]):
            ep, em = est.copy(), est.copy()
            ep[i, j] += h
            em[i, j] -= h
            fd = (feature_loss_spec(model, clean, ep)[0]
                  - feature_loss_spec(model, clean, em)[0]) / (2 * h)
            denom = max(abs(fd), abs(fgrad[i, j]), 1e-4)
            worst_feat = max(worst_feat, abs(fd - fgrad[i, j]) / denom)
    elapsed = time.monotonic() - t0
    report(4, worst_triplet < 1e-4 and worst_feat < 1e-4 and elapsed < 120,
           f"max rel err: triplet {worst_triplet:.2e} (204 coords), "
           f"feature {worst_feat:.2e} (200 coords), {elapsed:.1f}s")


def test_5_end_to_end_training(desk):
    r = desk["report"]
    ratio = r.best_val_loss / r.initial_val_loss
    report(5, ratio < 0.5 and desk["train_time"] < 1800,
           f"best val {r.best_val_loss:.4f} vs epoch-0 {r.initial_val_loss:.4f} "
           f"(ratio {ratio:.3f}), trained in {desk['train_time']:.0f}s")


def test_6_learned_metric_monotonicity(desk):
    held, scores = desk["held"], desk["scores_a"]
    sc = {}
    for family in sorted({r.family for r in held}):
        pairs = [(r.level_param, scores[r.clip_path])
                 for r in held if r.family == family]
        sc[family] = spearman([p[0] for p in pairs], [p[1] for p in pairs])
    others = [f for f in sc if f not in ("noise", "clip")]
    ok = abs(sc["noise"]) >= 0.8 and any(abs(sc[f]) >= 0.8 for f in others)
    detail = ", ".join(f"{f}: {v:+.3f}" for f, v in sc.items())
    report(6, ok, f"per-family Spearman vs level ({detail}); "
                  f"clipping exception tolerated")


def test_7_reference_invariance(desk):
    a, b, fr = desk["scores_a"], desk["scores_b"], desk["scores_fr"]
    vals = np.array(list(a.values()))
    score_range = vals.max() - vals.min()
    max_diff = max(abs(a[k] - b[k]) for k in a)
    ratio = max_diff / score_range

    conds = {}
    for r in desk["held"]:
        conds.setdefault((r.family, r.level_index), []).append(r.clip_path)
    fr_means = [np.mean([fr[k] for k in ks]) for _, ks in sorted(conds.items())]
    nmr_means = [np.mean([a[k] for k in ks]) for _, ks in sorted(conds.items())]
    sc = spearman(fr_means, nmr_means)
    report(7, ratio < 0.10 and sc >= 0.9,
           f"disjoint-pool per-clip diff {max_diff:.4f} = {100 * ratio:.1f}% of "
           f"range {score_range:.4f}; FR-vs-NMR condition Spearman {sc:+.3f}")


def test_8_correlation_fixtures():
    ok = spearman([1, 2, 3], [3, 1, 2]) == -0.5
    x = [1.0, 4.0, 2.0, 8.0, 5.0]
    y = [2.0, 1.0, 7.0, 3.0, 4.0]
    ok = ok and abs(pearson([3.7 * v - 1.2 for v in x], y) - pearson(x, y)) < 1e-12

    scores = [ScoreRow(f"c{i}.wav", s, "nmr", "p") for i, s in
              enumerate([0.1, 0.2, 0.3, 0.8, 0.9, 1.0])]
    mos = [MosRecord(f"c{i}.wav", "mild" if i < 3 else "severe", m)
           for i, m in enumerate([4.5, 4.3, 4.4, 2.0, 1.8, 1.9])]
    rep = aggregate_per_condition(scores, mos)
    by_id = {r.condition_id: r for r in rep.per_condition}
    ok = (ok and rep.n_conditions == 2
          and abs(by_id["mild"].mean_score - 0.2) < 1e-15
          and abs(by_id["mild"].mean_mos - 4.4) < 1e-15
          and abs(by_id["severe"].mean_score - 0.9) < 1e-15
          and abs(rep.pc + 1.0) < 1e-12 and abs(rep.sc + 1.0) < 1e-12)
    report(8, ok, "spearman fixture exact, Pearson affine-invariant to 1e-12, "
                  "6-row aggregation matches hand computation")


def test_9_determinism(tmp_path):
    clean = tmp_path / "clean"
    clean.mkdir()
    for i in range(3):
        save_wav(make_utterance(seed=400 + i, duration_s=1.0), clean / f"s{i}.wav")

    def run(tag):
        out = tmp_path / tag
        assert main(["--quiet", "--seed", "11", "synth", "--clean-dir", str(clean),
                     "--out", str(out / "data"), "--families", "clip,noise"]) == 0
        assert main(["--quiet", "--seed", "11", "triplets",
                     "--manifest", str(out / "data" / "manifest.csv"),
                     "--count", "30", "--out", str(out)]) == 0
        assert main(["--quiet", "--seed", "11", "train",
                     "--triplets", str(out / "triplets_train.csv"),
                     "--val", str(out / "triplets_val.csv"),
                     "--max-epochs", "2", "--patience", "2",
                     "--out", str(out / "model.ckpt")]) == 0
        assert main(["--quiet", "score", "--model", str(out / "model.ckpt"),
                     "--input-dir", str(out / "data"), "--pool-dir", str(clean),
                     "--mode", "nmr", "--out", str(out / "scores.csv")]) == 0
        return out

    r1, r2 = run("run1"), run("run2")
    identical = []
    for rel in ["data/manifest.csv", "triplets_train.csv", "triplets_val.csv",
                "model.ckpt", "scores.csv"]:
        b1 = (r1 / rel).read_bytes()
        # CSVs embed absolute paths; normalize the run directory out
        b2 = (r2 / rel).read_bytes().replace(str(r2).encode(), str(r1).encode())
        identical.append(b1 == b2)
    wavs_ok = all((r2 / "data" / p.name).read_bytes() == p.read_bytes()
                  for p in sorted((r1 / "data").glob("*.wav")))
    report(9, all(identical) and wavs_ok,
           "synth/triplets/train/score re-runs byte-identical "
           f"(files: {identical}, wavs: {wavs_ok})")
