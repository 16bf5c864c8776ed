"""The benchmark's workloads.

Each workload builds its inputs from the run seed in ``setup`` (timed as
``setup_s``), runs one timed phase per ``run`` call through nomadlite's
public functions (the calls the CLI makes, with ``--jobs 1``), and verifies
that phase's outputs in ``check``, outside the timed region and untraced.
All paths are relative to the run's working directory, so the digests of
the outputs do not depend on where the checkout lives.

Why these three: ``desk-train`` is the acceptance desk corpus and spends
most of its time training, where a batched encoder lands; ``score-nmr`` is
forward-only and exercises the front end, the reference-pool cache and the
parameter hash with no backward pass; ``synth-mixed-rate`` feeds the
resampler fractional rate ratios and uses no network. Every input of the
first two is 16 kHz, so they bypass the resampler that the third stresses.
"""

import hashlib
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from nomadlite import audio_core, degrade, evaluate, net, score, train, triplets
from nomadlite.net import EncoderConfig
from nomadlite.train import TrainConfig
from nomadlite.triplets import SamplerConfig

from inputs import sine, write_sources

ROWS_PER_SOURCE = 1 + sum(len(degrade.LEVEL_TABLES[f]) for f in degrade.DEFAULT_FAMILIES)
DESK_SOURCES = [(16000, 3.0)] * 20


class Laps:
    """Back-to-back stage timings of one phase: each lap starts where the
    previous one ended, so the laps add up to the phase's wall time."""

    def __init__(self):
        self.start = self.last = perf_counter()
        self.stages: dict[str, float] = {}

    def lap(self, name: str) -> float:
        now = perf_counter()
        self.stages[name] = now - self.last
        self.last = now
        return self.stages[name]


@dataclass
class Phase:
    """What one timed phase measured and produced."""

    wall_s: float
    stages: dict            # stage name -> seconds, in phase order
    rates: dict             # named per-phase measurements (per-second rates, ms)
    latencies: dict         # name -> per-operation seconds, pooled across phases
    attempted: int
    failed: int             # skipped manifest rows, non-finite losses or scores
    rows_skipped: int = 0
    state: dict = field(default_factory=dict)  # outputs that check() reads


def fresh_dir(path) -> Path:
    path = Path(path)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def synth(clean_dir: Path, out_dir: Path, seed: int, n_sources: int):
    """One ``synth_dataset`` call into an empty ``out_dir``; returns the rows
    and the number of rows skipped."""
    rows = degrade.synth_dataset(clean_dir, out_dir, seed=seed)
    return rows, n_sources * ROWS_PER_SOURCE - len(rows)


def manifest_checks(rows, n_sources: int) -> list:
    clean_q = [r.nsim for r in rows if r.family == "clean"]
    return [
        ("manifest rows == sources x 21", len(rows) == n_sources * ROWS_PER_SOURCE,
         f"{len(rows)} rows from {n_sources} sources"),
        ("clean rows have NSIM == 1", len(clean_q) == n_sources and all(q == 1.0 for q in clean_q),
         f"{len(clean_q)} clean rows"),
        ("every NSIM in [0, 1]", all(0.0 <= r.nsim <= 1.0 for r in rows), ""),
    ]


class DeskTrain:
    name = "desk-train"
    expected_spans = (
        "degrade.synth_dataset", "degrade.apply_condition", "nsim.utterance_nsim",
        "audio_core.resample", "audio_core.log_band_spectrogram", "audio_core.load_wav",
        "audio_core.save_wav", "triplets.generate_triplets", "train.SpectrogramCache.get",
        "train.train_epoch", "train.validate", "net.loss_and_gradients", "net.embed",
        "net.save_checkpoint",
    )
    TRIPLETS = 800
    STRATEGY_MIX = 0.8
    EPOCHS = 1   # a short phase, so that a run holds several of them

    def setup(self, seed: int) -> None:
        self.seed = seed
        write_sources(fresh_dir("clean"), seed, DESK_SOURCES)

    def run(self) -> Phase:
        seed = self.seed
        shutil.rmtree("data", ignore_errors=True)
        laps = Laps()
        rows, skipped = synth(Path("clean"), Path("data"), seed, len(DESK_SOURCES))
        synth_s = laps.lap("synth")
        sets = triplets.build_sample_sets(rows)
        records = triplets.generate_triplets(
            sets, SamplerConfig(s=0.05, strategy_mix=self.STRATEGY_MIX, rng_seed=seed), self.TRIPLETS)
        train_recs, val_recs = triplets.split_by_source(records, 0.8, rng_seed=seed)
        laps.lap("triplets")
        cache = train.SpectrogramCache()
        train_triples = [cache.triple(r) for r in train_recs]
        val_triples = [cache.triple(r) for r in val_recs]
        laps.lap("spectrogram_cache")

        # the acceptance config cut to EPOCHS; patience never triggers in so few
        cfg = TrainConfig(margin=0.2, batch_size=8, lr=1e-3, patience=self.EPOCHS,
                          max_epochs=self.EPOCHS, seed=seed)
        model = net.init_model(EncoderConfig(init_seed=seed))
        rng = np.random.default_rng(seed)
        val_losses = [train.validate(model, val_triples, cfg.margin)]
        val_s = laps.lap("validate_0")
        train_losses = []
        train_s = 0.0
        for epoch in range(1, self.EPOCHS + 1):
            train_losses.append(train.train_epoch(model, train_triples, cfg, rng))
            train_s += laps.lap(f"train_epoch_{epoch}")
            val_losses.append(train.validate(model, val_triples, cfg.margin))
            val_s += laps.lap(f"validate_{epoch}")
        net.save_checkpoint(model, Path("model.ckpt"))
        laps.lap("checkpoint")

        losses = train_losses + val_losses
        return Phase(
            wall_s=laps.last - laps.start,
            stages=laps.stages,
            rates={
                "synth_clips_per_s": len(rows) / synth_s,
                "train_triplets_per_s": len(train_triples) * self.EPOCHS / train_s,
                "val_triplets_per_s": len(val_triples) * (self.EPOCHS + 1) / val_s,
            },
            latencies={},
            attempted=len(DESK_SOURCES) * ROWS_PER_SOURCE + len(losses),
            failed=skipped + sum(1 for x in losses if not math.isfinite(x)),
            rows_skipped=skipped,
            state={"rows": rows, "model": model, "train_losses": train_losses,
                   "val_losses": val_losses},
        )

    def check(self, phase: Phase):
        s = phase.state
        model = s["model"]
        val = s["val_losses"]
        loaded = net.load_checkpoint(Path("model.ckpt"))
        checks = manifest_checks(s["rows"], len(DESK_SOURCES)) + [
            ("losses finite", all(math.isfinite(x) for x in s["train_losses"] + val),
             f"train {s['train_losses']}"),
            ("final val loss below initial", val[-1] < val[0], f"{val[0]!r} -> {val[-1]!r}"),
            ("checkpoint round-trips bit-exactly",
             loaded.config == model.config
             and loaded.parameters.tobytes() == model.parameters.tobytes(), ""),
        ]
        digests = {"manifest": sha256_file("data/manifest.csv"),
                   "checkpoint": sha256_file("model.ckpt")}
        return checks, digests


class ScoreNmr:
    name = "score-nmr"
    expected_spans = (
        "net.load_checkpoint", "score.ReferencePool.embeddings", "score.pooled_score",
        "audio_core.load_wav", "audio_core.log_band_spectrogram", "net.embed",
        "score.full_reference_score", "score.feature_loss", "score.feature_loss_spec",
        "evaluate.monotonicity_report",
    )
    POOL_SIZE = 10
    SUBSET_EVERY = 10   # full-reference and feature-loss on every 10th degraded clip

    def setup(self, seed: int) -> None:
        self.seed = seed
        root = fresh_dir("inputs")
        write_sources(root / "clean", seed, DESK_SOURCES)
        self.rows = degrade.synth_dataset(root / "clean", root / "data", seed=seed)
        self.pool_paths = write_sources(root / "pool", seed, [(16000, 3.0)] * self.POOL_SIZE,
                                        first=500)
        self.checkpoint = root / "model.ckpt"
        # weights do not change the dense numpy cost, so an untrained model serves
        net.save_checkpoint(net.init_model(EncoderConfig(init_seed=seed)), self.checkpoint)

    def run(self) -> Phase:
        rows = self.rows
        clean_of = {r.source_id: r.clip_path for r in rows if r.family == "clean"}
        subset = [r for r in rows if r.family != "clean"][:: self.SUBSET_EVERY]

        laps = Laps()
        model = net.load_checkpoint(self.checkpoint)
        pool = score.ReferencePool([audio_core.load_wav(p) for p in self.pool_paths], "pool")
        t = perf_counter()
        pool.embeddings(model)
        pool_ms = (perf_counter() - t) * 1e3
        laps.lap("pool")

        clip_s = []
        score_rows = []
        for r in rows:
            t = perf_counter()
            w = audio_core.load_wav(r.clip_path)
            value = score.pooled_score(model, w, pool)
            clip_s.append(perf_counter() - t)
            score_rows.append(score.ScoreRow(r.clip_path, value, "nmr", pool.pool_id))
        laps.lap("pooled_scores")

        fr_s, fl_s, fr_values, features = [], [], [], []
        for r in subset:
            deg = audio_core.load_wav(r.clip_path)
            clean = audio_core.load_wav(clean_of[r.source_id])
            t = perf_counter()
            fr_values.append(score.full_reference_score(model, deg, clean))
            fr_s.append(perf_counter() - t)
            t = perf_counter()
            loss, grad = score.feature_loss(model, clean, deg)
            fl_s.append(perf_counter() - t)
            features.append((loss, grad, len(clean.samples), len(deg.samples)))
        laps.lap("reference_scores")
        mono = evaluate.monotonicity_report(score_rows, rows)
        laps.lap("monotonicity")

        values = [s.nomad for s in score_rows] + fr_values
        bad = sum(1 for v in values if not math.isfinite(v))
        bad += sum(1 for loss, grad, _, _ in features
                   if not (math.isfinite(loss) and np.all(np.isfinite(grad))))
        return Phase(
            wall_s=laps.last - laps.start,
            stages=laps.stages,
            rates={"score_clips_per_s": len(rows) / sum(clip_s), "pool_build_ms": pool_ms},
            latencies={"score_clip": clip_s, "fr_clip": fr_s, "feature_loss": fl_s},
            attempted=len(values) + len(features),
            failed=bad,
            state={"model": model, "pool": pool, "score_rows": score_rows, "values": values,
                   "subset": subset, "features": features, "mono": mono},
        )

    def check(self, phase: Phase):
        s = phase.state
        model, pool = s["model"], s["pool"]
        w = audio_core.load_wav(s["subset"][0].clip_path)
        pooled = score.pooled_score(model, w, pool)
        direct = float(np.mean([score.nomad_distance(model, w, ref) for ref in pool.references]))
        order = np.random.default_rng(self.seed).permutation(len(pool.references))
        shuffled = score.pooled_score(
            model, w, score.ReferencePool([pool.references[i] for i in order], "shuffled"))

        spec_cfg = audio_core.SpectrogramConfig()

        def frames(n):
            return (n - spec_cfg.window) // spec_cfg.hop + 1

        grads_ok = all(
            grad.shape == (min(frames(n_c), frames(n_d)), spec_cfg.bands)
            and np.all(np.isfinite(grad))
            for _, grad, n_c, n_d in s["features"])
        families = {r.family for r in self.rows if r.family != "clean"}
        checks = [
            ("every score finite and in [0, 2]",
             all(math.isfinite(v) and 0.0 <= v <= 2.0 for v in s["values"]),
             f"{len(s['values'])} scores"),
            ("pooled_score == mean nomad_distance within 1e-9", abs(pooled - direct) <= 1e-9,
             f"{pooled!r} vs {direct!r}"),
            ("pooled_score unchanged by a shuffled pool", abs(pooled - shuffled) <= 1e-9,
             f"{pooled!r} vs {shuffled!r}"),
            ("feature_loss gradient finite and shaped (T, bands)", grads_ok,
             f"{len(s['features'])} clips"),
            ("monotonicity report covers every family", set(s["mono"]) == families,
             f"{sorted(s['mono'])}"),
        ]
        score.write_scores(s["score_rows"], "scores.csv")
        return checks, {"scores": sha256_file("scores.csv")}


class SynthMixedRate:
    name = "synth-mixed-rate"
    expected_spans = (
        "degrade.synth_dataset", "degrade.apply_condition", "nsim.utterance_nsim",
        "audio_core.resample", "audio_core.log_band_spectrogram", "audio_core.load_wav",
        "audio_core.save_wav",
    )
    # 44.1 and 22.05 kHz cost seconds per fraction of a second of audio today,
    # so those sources are short; they are never dropped
    SOURCES = ([(48000, 3.0)] * 3 + [(8000, 3.0)] * 3 + [(16000, 3.0)] * 2
               + [(44100, 0.25), (22050, 0.15)])
    SINE_SECONDS = {44100: 0.01, 22050: 0.01}   # others: 0.03 s

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.sine_checked = False
        write_sources(fresh_dir("clean"), seed, self.SOURCES)

    def run(self) -> Phase:
        shutil.rmtree("data", ignore_errors=True)
        laps = Laps()
        rows, skipped = synth(Path("clean"), Path("data"), self.seed, len(self.SOURCES))
        wall = laps.lap("synth")
        return Phase(
            wall_s=wall,
            stages=laps.stages,
            rates={"synth_clips_per_s": len(rows) / wall},
            latencies={},
            attempted=len(self.SOURCES) * ROWS_PER_SOURCE,
            failed=skipped,
            rows_skipped=skipped,
            state={"rows": rows},
        )

    def sine_checks(self) -> list:
        """A 1 kHz sine resampled to 16 kHz from each source rate keeps its
        length round(n * 16000 / sr) and its amplitude within 1% (measured
        on the middle half, past the filter's edge transients)."""
        out = []
        for sr in sorted({sr for sr, _ in self.SOURCES}):
            x = sine(1000.0, 0.5, self.SINE_SECONDS.get(sr, 0.03), sr)
            y = audio_core.resample(x, audio_core.CANONICAL_RATE).samples
            n_want = int(round(len(x.samples) * audio_core.CANONICAL_RATE / sr))
            mid = y[len(y) // 4: 3 * len(y) // 4]
            amplitude = float(np.sqrt(np.mean(mid**2)) * np.sqrt(2.0))
            out.append((f"1 kHz sine from {sr} Hz keeps length and amplitude",
                        len(y) == n_want and abs(amplitude / 0.5 - 1.0) <= 0.01,
                        f"{len(y)} samples (want {n_want}), amplitude {amplitude!r}"))
        return out

    def check(self, phase: Phase):
        checks = manifest_checks(phase.state["rows"], len(self.SOURCES))
        if not self.sine_checked:
            checks += self.sine_checks()
            self.sine_checked = True
        return checks, {"manifest": sha256_file("data/manifest.csv")}


WORKLOADS = {w.name: w for w in (DeskTrain, ScoreNmr, SynthMixedRate)}
