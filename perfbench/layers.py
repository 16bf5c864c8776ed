"""Per-layer metrics: the functions the traced run wraps, and what each
layer reports from their spans.

Layers are nomadlite's modules. ``_accel`` is reached only through
``audio_core``, ``nsim`` and ``net`` and is due to be folded into them, so
it has no metric of its own. A function is wrapped at every name a caller
looks it up by, and every wrapper of one function records the same span
name. A layer a workload does not exercise reports 0; a span a workload is
expected to produce but did not is counted in ``trace.missing_spans`` and
named in the run's detail record, so a call site that a refactor removes
reads as missing rather than as a silent zero.
"""

import importlib
import weakref

from nomadlite import audio_core, degrade, evaluate, net, score, train, triplets

from tracing import Tracer, percentile

RESAMPLE_RATES = (8000, 22050, 44100, 48000)
CONDITION_FAMILIES = ("clip", "noise", "codec_proxy_mp3like", "codec_proxy_opuslike")

# name, unit, better, the end-to-end metric it should move (workload)
METRICS = [
    ("audio_core.resample.busy_s", "s", "lower", "synth_clips_per_s, wall_s (synth-mixed-rate)"),
    *[(f"audio_core.resample.s_per_audio_s.{r}", "s/s", "lower", "synth_clips_per_s (synth-mixed-rate)")
      for r in RESAMPLE_RATES],
    ("audio_core.log_band_spectrogram.calls", "count", "lower", "score_clip_ms_p50, synth_clips_per_s"),
    ("audio_core.log_band_spectrogram.ms_p50", "ms", "lower", "score_clip_ms_p50, synth_clips_per_s"),
    ("audio_core.log_band_spectrogram.busy_s", "s", "lower", "score_clip_ms_p50, synth_clips_per_s"),
    ("audio_core.load_wav.busy_s", "s", "lower", "score_clips_per_s, synth_clips_per_s"),
    ("audio_core.save_wav.busy_s", "s", "lower", "synth_clips_per_s"),
    ("audio_core.save_wav.bytes", "bytes", "lower", "synth_clips_per_s (computed, not measured)"),
    ("nsim.utterance_nsim.calls", "count", "lower", "synth_clips_per_s"),
    ("nsim.utterance_nsim.ms_p50", "ms", "lower", "synth_clips_per_s"),
    ("nsim.utterance_nsim.self_ms_p50", "ms", "lower", "synth_clips_per_s"),
    *[(f"degrade.apply_condition.ms_p50.{f}", "ms", "lower", "synth_clips_per_s")
      for f in CONDITION_FAMILIES],
    ("degrade.rows_skipped", "count", "lower", "failed_fraction"),
    ("triplets.generate_triplets.ms", "ms", "lower", "wall_s (desk-train)"),
    ("triplets.records", "count", "higher", "wall_s (desk-train)"),
    ("net.loss_and_gradients.calls", "count", "lower", "train_triplets_per_s"),
    ("net.loss_and_gradients.ms_per_triplet", "ms", "lower", "train_triplets_per_s"),
    ("net.loss_and_gradients.busy_s", "s", "lower", "train_triplets_per_s"),
    ("net.embed.calls", "count", "lower", "val_triplets_per_s, score_clip_ms_p50"),
    ("net.embed.ms_p50", "ms", "lower", "val_triplets_per_s, score_clip_ms_p50"),
    ("net.embed.unique_fraction", "ratio", "higher", "val_triplets_per_s"),
    ("net.embed.gflop_per_s", "GFLOP/s", "higher", "train_triplets_per_s, score_clips_per_s (FLOPs computed)"),
    ("train.train_epoch.busy_s", "s", "lower", "train_triplets_per_s"),
    ("train.train_epoch.self_s", "s", "lower", "train_triplets_per_s"),
    ("train.validate.busy_s", "s", "lower", "val_triplets_per_s"),
    ("train.SpectrogramCache.clips", "count", "lower", "wall_s (desk-train)"),
    ("train.SpectrogramCache.busy_s", "s", "lower", "wall_s (desk-train)"),
    ("score.ReferencePool.embeddings.cold_ms", "ms", "lower", "pool_build_ms"),
    ("score.ReferencePool.embeddings.warm_ms", "ms", "lower", "score_clip_ms_p50"),
    ("score.pooled_score.self_ms_p50", "ms", "lower", "score_clip_ms_p50"),
    ("score.feature_loss_spec.ms_p50", "ms", "lower", "feature_loss_ms_p50"),
    ("evaluate.monotonicity_report.ms", "ms", "lower", "wall_s (score-nmr)"),
    ("trace.overhead_fraction", "ratio", "lower", "none"),
    ("trace.missing_spans", "count", "lower", "none"),
]


def forward_flops(cfg: net.EncoderConfig, frames: int) -> int:
    """Multiply-add FLOPs of one encoder forward pass at ``frames`` input
    frames: the four strided convs and the head, from the config's shapes."""
    t = max(frames, cfg.min_frames)
    flops = 0
    for c_in, c_out in cfg.layer_dims():
        t = (t - cfg.kernel) // cfg.stride + 1
        flops += 2 * c_out * c_in * cfg.kernel * t
    return flops + 2 * cfg.embed_dim * cfg.conv_channels[-1]


def instrument(tracer: Tracer) -> None:
    """Wrap every traced function at each name its callers look it up by."""
    seen: dict[int, weakref.ref] = {}

    def wav_in(args, kwargs, result):
        return (args[0].sample_rate, len(args[0].samples))

    def wav_bytes(args, kwargs, result):
        return 44 + 2 * len(args[0].samples)  # RIFF header + PCM-16 frames

    def family(args, kwargs, result):
        return args[1].family

    def batch_len(args, kwargs, result):
        return len(args[1])

    def result_len(args, kwargs, result):
        return len(result)

    def embed_attrs(args, kwargs, result):
        model, spec = args[0], args[1]
        ref = seen.get(id(spec))
        new = ref is None or ref() is not spec
        if new:
            seen[id(spec)] = weakref.ref(spec)
        return (new, forward_flops(model.config, spec.values.shape[0]))

    # the package namespace binds ``nsim`` to the function, not the module
    nsim = importlib.import_module("nomadlite.nsim")
    table = [
        (audio_core, "resample", "audio_core.resample", wav_in),
        (degrade, "resample", "audio_core.resample", wav_in),
        (audio_core, "load_wav", "audio_core.load_wav", None),
        (degrade, "load_wav", "audio_core.load_wav", None),
        (train, "load_wav", "audio_core.load_wav", None),
        (audio_core, "save_wav", "audio_core.save_wav", wav_bytes),
        (degrade, "save_wav", "audio_core.save_wav", wav_bytes),
        (nsim, "log_band_spectrogram", "audio_core.log_band_spectrogram", None),
        (train, "log_band_spectrogram", "audio_core.log_band_spectrogram", None),
        (score, "log_band_spectrogram", "audio_core.log_band_spectrogram", None),
        (degrade, "utterance_nsim", "nsim.utterance_nsim", None),
        (degrade, "apply_condition", "degrade.apply_condition", family),
        (degrade, "synth_dataset", "degrade.synth_dataset", None),
        (triplets, "generate_triplets", "triplets.generate_triplets", result_len),
        (train, "embed", "net.embed", embed_attrs),
        (score, "embed", "net.embed", embed_attrs),
        (train, "loss_and_gradients", "net.loss_and_gradients", batch_len),
        (net, "save_checkpoint", "net.save_checkpoint", None),
        (net, "load_checkpoint", "net.load_checkpoint", None),
        (train, "train_epoch", "train.train_epoch", None),
        (train, "validate", "train.validate", None),
        (train.SpectrogramCache, "get", "train.SpectrogramCache.get", None),
        (score.ReferencePool, "embeddings", "score.ReferencePool.embeddings", None),
        (score, "pooled_score", "score.pooled_score", None),
        (score, "full_reference_score", "score.full_reference_score", None),
        (score, "feature_loss", "score.feature_loss", None),
        (score, "feature_loss_spec", "score.feature_loss_spec", None),
        (evaluate, "monotonicity_report", "evaluate.monotonicity_report", None),
    ]
    for owner, attr, name, attrs in table:
        tracer.patch(owner, attr, name, attrs)


def _p50_ms(durations) -> float:
    return percentile(durations, 50) * 1e3 if durations else 0.0


def layer_metrics(tracer: Tracer, rows_skipped: int) -> dict[str, float]:
    """Every per-layer metric of METRICS except the two ``trace.*`` ones,
    from the spans of one traced iteration."""
    def durations(name):
        return [s.duration for s in tracer.named(name)]

    m = {}
    resamples = tracer.named("audio_core.resample")
    m["audio_core.resample.busy_s"] = sum(s.duration for s in resamples)
    for rate in RESAMPLE_RATES:
        at_rate = [s for s in resamples if s.attrs[0] == rate]
        audio_s = sum(s.attrs[1] for s in at_rate) / rate
        m[f"audio_core.resample.s_per_audio_s.{rate}"] = (
            sum(s.duration for s in at_rate) / audio_s if at_rate else 0.0)

    spec = durations("audio_core.log_band_spectrogram")
    m["audio_core.log_band_spectrogram.calls"] = len(spec)
    m["audio_core.log_band_spectrogram.ms_p50"] = _p50_ms(spec)
    m["audio_core.log_band_spectrogram.busy_s"] = sum(spec)
    m["audio_core.load_wav.busy_s"] = sum(durations("audio_core.load_wav"))
    saves = tracer.named("audio_core.save_wav")
    m["audio_core.save_wav.busy_s"] = sum(s.duration for s in saves)
    m["audio_core.save_wav.bytes"] = sum(s.attrs for s in saves)

    nsim_d = durations("nsim.utterance_nsim")
    m["nsim.utterance_nsim.calls"] = len(nsim_d)
    m["nsim.utterance_nsim.ms_p50"] = _p50_ms(nsim_d)
    m["nsim.utterance_nsim.self_ms_p50"] = _p50_ms(tracer.self_times("nsim.utterance_nsim"))

    conditions = tracer.named("degrade.apply_condition")
    for f in CONDITION_FAMILIES:
        m[f"degrade.apply_condition.ms_p50.{f}"] = _p50_ms(
            [s.duration for s in conditions if s.attrs == f])
    m["degrade.rows_skipped"] = rows_skipped

    sampler = tracer.named("triplets.generate_triplets")
    m["triplets.generate_triplets.ms"] = sum(s.duration for s in sampler) * 1e3
    m["triplets.records"] = sum(s.attrs for s in sampler)

    steps = tracer.named("net.loss_and_gradients")
    step_s = sum(s.duration for s in steps)
    step_triplets = sum(s.attrs for s in steps)
    m["net.loss_and_gradients.calls"] = len(steps)
    m["net.loss_and_gradients.ms_per_triplet"] = step_s * 1e3 / step_triplets if steps else 0.0
    m["net.loss_and_gradients.busy_s"] = step_s

    embeds = tracer.named("net.embed")
    embed_s = sum(s.duration for s in embeds)
    m["net.embed.calls"] = len(embeds)
    m["net.embed.ms_p50"] = _p50_ms([s.duration for s in embeds])
    m["net.embed.unique_fraction"] = (
        sum(1 for s in embeds if s.attrs[0]) / len(embeds) if embeds else 0.0)
    m["net.embed.gflop_per_s"] = (
        sum(s.attrs[1] for s in embeds) / embed_s / 1e9 if embeds else 0.0)

    m["train.train_epoch.busy_s"] = sum(durations("train.train_epoch"))
    m["train.train_epoch.self_s"] = sum(tracer.self_times("train.train_epoch"))
    m["train.validate.busy_s"] = sum(durations("train.validate"))
    kids = tracer.children()
    gets = [(i, s) for i, s in enumerate(tracer.spans) if s.name == "train.SpectrogramCache.get"]
    m["train.SpectrogramCache.clips"] = sum(1 for i, _ in gets if i in kids)  # misses load a clip
    m["train.SpectrogramCache.busy_s"] = sum(s.duration for _, s in gets)

    pool = [(i in kids, s.duration) for i, s in enumerate(tracer.spans)
            if s.name == "score.ReferencePool.embeddings"]
    m["score.ReferencePool.embeddings.cold_ms"] = _p50_ms([d for cold, d in pool if cold])
    m["score.ReferencePool.embeddings.warm_ms"] = _p50_ms([d for cold, d in pool if not cold])
    m["score.pooled_score.self_ms_p50"] = _p50_ms(tracer.self_times("score.pooled_score"))
    m["score.feature_loss_spec.ms_p50"] = _p50_ms(durations("score.feature_loss_spec"))
    m["evaluate.monotonicity_report.ms"] = sum(durations("evaluate.monotonicity_report")) * 1e3
    return m
