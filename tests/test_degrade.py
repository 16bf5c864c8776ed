import dataclasses
import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_utterance
from nomadlite import degrade
from nomadlite.audio_core import Waveform, _quantize, load_wav, save_wav
from nomadlite.degrade import (
    CLEAN_FAMILY,
    DEFAULT_FAMILIES,
    PINK_ROWS,
    _analyzed,
    _brickwall_lowpass,
    LEVEL_TABLES,
    DegradationCondition,
    apply_condition,
    clean_name,
    clip_signal,
    codec_proxy,
    condition_rng,
    degraded_name,
    mix_noise_at_snr,
    pink_noise,
    read_manifest,
    reverb_decay_rate,
    reverb_probe,
    source_id_of,
    synth_dataset,
    white_noise,
)
from nomadlite.errors import (
    DegenerateSignalError,
    EmptyCorpusError,
    EncoderFailedError,
    MissingEncoderError,
    NomadError,
    SilentInputError,
    UnsupportedBitrateError,
)
from nomadlite.nsim import utterance_nsim


class TestClip:
    def test_published_level_table(self):
        assert LEVEL_TABLES["clip"] == [5.0, 10.0, 25.0, 40.0, 60.0]
        assert LEVEL_TABLES["noise"] == [0.0, 8.0, 15.0, 25.0, 40.0]
        assert LEVEL_TABLES["codec_proxy_mp3like"] == [8.0, 16.0, 32.0, 64.0, 128.0]

    def test_tiny_percent_is_identity(self):
        rng = np.random.default_rng(0)
        w = Waveform(rng.uniform(-0.9, 0.9, 1000), 16000)
        out = clip_signal(w, 1e-6)
        assert np.array_equal(out.samples, w.samples)

    def test_ramp_threshold_enumeration(self):
        # 11-sample ramp, 2/11 of samples to clip: threshold is 0.9
        w = Waveform(np.linspace(0.0, 1.0, 11), 16000)
        out = clip_signal(w, 100 * 2 / 11)
        assert out.samples[-1] == pytest.approx(0.9)
        assert out.samples[-2] == pytest.approx(0.9)
        assert np.array_equal(out.samples[:-2], w.samples[:-2])

    def test_no_renormalization(self):
        w = Waveform(np.linspace(-1, 1, 100), 16000)
        out = clip_signal(w, 50)
        assert np.max(np.abs(out.samples)) < 1.0

    def test_constant_signal_rejected(self):
        with pytest.raises(DegenerateSignalError):
            clip_signal(Waveform(np.full(100, 0.5), 16000), 10)

    def test_bad_percent(self):
        with pytest.raises(ValueError):
            clip_signal(Waveform(np.linspace(0, 1, 10), 16000), 100.0)


class TestNoiseMix:
    def test_unit_gain_at_zero_snr(self):
        x = Waveform(np.sin(np.linspace(0, 100, 4000)) * 0.3, 16000)
        s = Waveform(np.random.default_rng(1).standard_normal(4000) * 0.3, 16000)
        p_x = np.mean(x.samples**2)
        s = Waveform(s.samples * math.sqrt(p_x / np.mean(s.samples**2)), 16000)
        y = mix_noise_at_snr(x, s, 0.0)
        resid = y.samples - x.samples
        peak = np.max(np.abs(x.samples + s.samples))
        if peak <= 1.0:
            assert np.allclose(resid, s.samples)

    def test_gain_formula_at_20db(self):
        rng = np.random.default_rng(2)
        x = Waveform(rng.uniform(-0.3, 0.3, 5000), 16000)
        s = Waveform(rng.uniform(-0.3, 0.3, 5000), 16000)
        p_x, p_s = np.mean(x.samples**2), np.mean(s.samples**2)
        y = mix_noise_at_snr(x, s, 20.0)
        g = math.sqrt(p_x / (p_s * 100.0))
        assert np.allclose(y.samples - x.samples, g * s.samples)

    def test_measured_snr_matches_request(self):
        rng = np.random.default_rng(3)
        x = Waveform(rng.uniform(-0.2, 0.2, 8000), 16000)
        s = Waveform(rng.uniform(-0.2, 0.2, 8000), 16000)
        for snr in (0.0, 10.0, 35.5):
            y = mix_noise_at_snr(x, s, snr)
            resid = y.samples - x.samples
            measured = 10 * np.log10(np.mean(x.samples**2) / np.mean(resid**2))
            assert abs(measured - snr) < 1e-6

    def test_noise_looped_to_length(self):
        x = Waveform(np.random.default_rng(4).uniform(-0.2, 0.2, 10000), 16000)
        s = Waveform(np.random.default_rng(5).uniform(-0.2, 0.2, 3000), 16000)
        y = mix_noise_at_snr(x, s, 10.0)
        assert len(y.samples) == 10000

    def test_silent_inputs_rejected(self):
        x = Waveform(np.zeros(100), 16000)
        s = Waveform(np.ones(100) * 0.1, 16000)
        with pytest.raises(SilentInputError):
            mix_noise_at_snr(x, s, 10.0)
        with pytest.raises(SilentInputError):
            mix_noise_at_snr(s, x, 10.0)

    def test_overflow_normalized(self):
        x = Waveform(np.full(1000, 0.9) * np.sign(np.sin(np.arange(1000))), 16000)
        s = Waveform(np.random.default_rng(6).standard_normal(1000), 16000)
        y = mix_noise_at_snr(x, s, 0.0)
        assert np.max(np.abs(y.samples)) <= 0.99 + 1e-12


class TestCodecProxy:
    def test_unsupported_bitrate(self):
        w = Waveform(np.random.default_rng(7).uniform(-0.5, 0.5, 4000), 16000)
        with pytest.raises(UnsupportedBitrateError):
            codec_proxy(w, 24)

    def test_8kbps_cutoff_and_bits(self):
        # cutoff ~792 Hz: the lowpass stage removes everything above it, and
        # the output sits on the 7-bit quantization grid
        rng = np.random.default_rng(8)
        w = Waveform(rng.uniform(-0.5, 0.5, 16000), 16000)
        lp = _brickwall_lowpass(_analyzed(w), 280 * math.sqrt(8))
        spec = np.abs(np.fft.rfft(lp))
        freqs = np.fft.rfftfreq(len(lp), 1 / 16000)
        assert np.max(spec[freqs > 800]) < 1e-9 * np.max(spec)
        y = codec_proxy(w, 8, "mp3like")
        assert np.allclose(y.samples * 64, np.round(y.samples * 64))
        # quantization noise dominates above the cutoff but stays far below
        # the passband energy
        spec_y = np.abs(np.fft.rfft(y.samples)) ** 2
        assert spec_y[freqs > 850].mean() < 1e-3 * spec_y[freqs < 790].mean()

    def test_128kbps_near_transparent_vs_8kbps(self, utterances):
        u = utterances[0]
        q_hi = utterance_nsim(u, codec_proxy(u, 128))
        q_lo = utterance_nsim(u, codec_proxy(u, 8))
        assert q_hi > q_lo

    def test_nsim_increases_with_bitrate(self, utterances):
        u = utterances[1]
        for flavor in ("mp3like", "opuslike"):
            scores = [utterance_nsim(u, codec_proxy(u, k, flavor)) for k in (8, 16, 32, 64, 128)]
            assert all(a < b for a, b in zip(scores, scores[1:]))

    def test_deterministic(self):
        w = Waveform(np.random.default_rng(9).uniform(-0.5, 0.5, 4000), 16000)
        assert np.array_equal(codec_proxy(w, 32).samples, codec_proxy(w, 32).samples)

    def test_lowpass_equals_zeroed_spectrum(self):
        # irfft pads the kept bins with zeros: the same bits as zeroing the
        # bins above the cutoff in the full spectrum
        for n in (4000, 4001):
            x = np.random.default_rng(n).uniform(-0.5, 0.5, n)
            a = _analyzed(Waveform(x, 16000))
            for cutoff in (100.0, 792.0, 7600.0, 8000.0):
                spec = np.fft.rfft(x)
                spec[np.fft.rfftfreq(n, 1 / 16000) > cutoff] = 0.0
                assert np.array_equal(_brickwall_lowpass(a, cutoff), np.fft.irfft(spec, n=n))

    def test_output_is_the_lowpass_on_the_bits_grid(self, utterances):
        # the requantizer is audio_core._quantize, save_wav's: bit for bit the formula
        # degrade used to own, except that its zeros are +0.0 (a WAV stores no sign)
        u = utterances[0]
        for flavor, bw in (("mp3like", 280.0), ("opuslike", 340.0)):
            for kbps in LEVEL_TABLES[f"codec_proxy_{flavor}"]:
                y = _brickwall_lowpass(_analyzed(u), min(7600.0, bw * math.sqrt(kbps)))
                scale = 2.0 ** (int(min(14, max(4, math.floor(3 + 1.5 * math.log2(kbps))))) - 1)
                expected = np.clip(np.round(y * scale) / scale, -1.0, 1.0 - 1.0 / scale)
                assert codec_proxy(u, kbps, flavor).samples.tobytes() == (expected + 0.0).tobytes()

    def test_analyzed_clip_shares_one_spectrum(self):
        w = Waveform(np.random.default_rng(10).uniform(-0.5, 0.5, 4000), 16000)
        a = _analyzed(w)
        assert _analyzed(a) is a
        for flavor in ("mp3like", "opuslike"):
            for kbps in LEVEL_TABLES[f"codec_proxy_{flavor}"]:
                assert np.array_equal(codec_proxy(a, kbps, flavor).samples, codec_proxy(w, kbps, flavor).samples)
        assert a.spectrum is a.spectrum
        # the clip and its spectrum cannot be changed apart
        for array in (a.samples, *a.spectrum):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


class TestInputsUnchanged:
    """The operations compute in place on their own arrays, never on an input."""

    def test_each_operation_leaves_its_input(self, utterances):
        u = utterances[2]
        noise = Waveform(np.random.default_rng(3).standard_normal(1000), u.sample_rate)
        loud = Waveform(u.samples * 4.0, u.sample_rate)  # overflows, so the peak limiter scales
        calls = [
            (lambda: _quantize(u.samples, 7), [u.samples]),
            (lambda: codec_proxy(u, 8), [u.samples]),
            (lambda: codec_proxy(loud, 128, "opuslike"), [loud.samples]),
            (lambda: mix_noise_at_snr(u, noise, 0.0), [u.samples, noise.samples]),
            (lambda: mix_noise_at_snr(loud, noise, 0.0), [loud.samples, noise.samples]),
            (lambda: clip_signal(u, 25.0), [u.samples]),
            (lambda: reverb_probe(loud, 0.3, np.random.default_rng(1)), [loud.samples]),
        ]
        for call, inputs in calls:
            before = [a.copy() for a in inputs]
            call()
            for a, b in zip(inputs, before):
                assert np.array_equal(a, b)

    def test_white_noise_is_scaled_draws(self):
        expected = np.random.default_rng(4).standard_normal(500) * 0.1
        assert np.array_equal(white_noise(500, np.random.default_rng(4)), expected)

    def test_quantize_and_limit_match_out_of_place(self, utterances):
        x = utterances[3].samples * 3.0
        for bits in (4, 7, 14, 16):
            scale = 2.0 ** (bits - 1)
            expected = np.clip(np.round(x * scale) / scale, -1.0, 1.0 - 1.0 / scale)
            # bit for bit, except that a rounded -0.0 comes back as 0.0
            assert np.signbit(expected[expected == 0.0]).any()
            assert _quantize(x, bits).tobytes() == (expected + 0.0).tobytes()
        s = Waveform(np.random.default_rng(5).standard_normal(len(x)), 16000)
        y = mix_noise_at_snr(Waveform(x, 16000), s, 0.0)
        g = math.sqrt(np.mean(x**2) / np.mean(s.samples**2))
        mixed = x + g * s.samples
        assert np.max(np.abs(mixed)) > 1.0
        assert np.array_equal(y.samples, mixed * (0.99 / np.max(np.abs(mixed))))


class TestReverb:
    def test_envelope_decays_60db_at_rt60(self):
        for rt60 in (0.2, 1.0, 3.0):
            rate = reverb_decay_rate(rt60)
            energy_drop = math.exp(-rate * rt60) ** 2
            assert energy_drop == pytest.approx(1e-6, rel=1e-9)

    def test_near_delta_for_tiny_rt60(self, utterances):
        u = utterances[2]
        out = reverb_probe(u, 5e-5, np.random.default_rng(10))
        assert utterance_nsim(u, out) > 0.95

    def test_more_reverb_less_similar(self, utterances):
        u = utterances[3]
        q_short = utterance_nsim(u, reverb_probe(u, 0.2, np.random.default_rng(11)))
        q_long = utterance_nsim(u, reverb_probe(u, 1.0, np.random.default_rng(11)))
        assert q_long < q_short

    def test_bad_rt60(self):
        with pytest.raises(ValueError):
            reverb_probe(Waveform(np.zeros(100) + 0.1, 16000), 4.0)

    @pytest.mark.parametrize("rt60", [5e-5, 0.15, 0.3, 0.6, 1.0, 1.5])
    def test_equals_direct_convolution(self, utterances, rt60):
        # the FFT convolution is not bit-exact: np.convolve is the reference,
        # within 1e-12 absolute (the largest difference seen is about 1e-15)
        u = utterances[6]
        rng = np.random.default_rng(14)
        n_ir = max(int(0.8 * rt60 * u.sample_rate), 1)
        ir = rng.standard_normal(n_ir) * np.exp(-reverb_decay_rate(rt60) * np.arange(n_ir) / u.sample_rate)
        direct = np.convolve(u.samples, ir / math.sqrt(float(np.sum(ir**2))))[: len(u.samples)]
        peak = np.max(np.abs(direct))
        expected = direct * (0.99 / peak) if peak > 1.0 else direct
        out = reverb_probe(u, rt60, np.random.default_rng(14))
        assert np.max(np.abs(out.samples - expected)) < 1e-12


class TestApplyCondition:
    def test_bit_identical_reruns(self, utterances):
        u = utterances[4]
        for family in DEFAULT_FAMILIES + ("reverb_probe",):
            c = DegradationCondition(family, 2)
            a = apply_condition(u, c, seed=7, source_id="u4")
            b = apply_condition(u, c, seed=7, source_id="u4")
            assert np.array_equal(a.samples, b.samples), family

    def test_noise_level_index_maps_to_snr(self, utterances):
        u = utterances[5]
        c = DegradationCondition("noise", 4)
        assert c.level_param == 40.0
        y = apply_condition(u, c, seed=1, source_id="u5")
        resid = y.samples - u.samples
        measured = 10 * np.log10(np.mean(u.samples**2) / np.mean(resid**2))
        assert abs(measured - 40.0) < 1e-6

    def test_missing_external_encoder(self, utterances):
        c = DegradationCondition("external_codec", 0)
        with pytest.raises(MissingEncoderError):
            apply_condition(utterances[0], c, seed=0, source_id="x")

    def test_external_codec_nonzero_exit(self, utterances, tmp_path):
        c = DegradationCondition("external_codec", 0)
        with pytest.raises(EncoderFailedError, match="exited 1"):
            apply_condition(utterances[0], c, seed=0, source_id="x",
                            external_codec_cmd="false {in} {out}", workdir=tmp_path)

    def test_external_codec_executable_not_found(self, utterances, tmp_path):
        c = DegradationCondition("external_codec", 0)
        with pytest.raises(MissingEncoderError, match="not found"):
            apply_condition(utterances[0], c, seed=0, source_id="x",
                            external_codec_cmd=f"{tmp_path / 'no-such-encoder'} {{in}} {{out}}",
                            workdir=tmp_path)

    @pytest.mark.parametrize("template, message", [
        ("cp {input} {out}", "unknown placeholder {input}"),
        ('cp "{in} {out}', "No closing quotation"),
        ("cp {} {out}", "bad external codec command"),
        ("cp {in.stem} {out}", "bad external codec command"),
        ("cp {kbps[0]} {out}", "bad external codec command"),
    ])
    def test_external_codec_bad_template(self, utterances, tmp_path, template, message):
        c = DegradationCondition("external_codec", 0)
        with pytest.raises(NomadError, match=message):
            apply_condition(utterances[0], c, seed=0, source_id="x",
                            external_codec_cmd=template, workdir=tmp_path)

    def test_external_codec_passthrough(self, utterances, tmp_path):
        c = DegradationCondition("external_codec", 0)
        out = apply_condition(
            utterances[0], c, seed=0, source_id="x",
            external_codec_cmd="cp {in} {out}", workdir=tmp_path,
        )
        # 16-bit quantization is the only loss through the cp round-trip
        assert np.max(np.abs(out.samples - utterances[0].samples)) < 1 / 32768

    def test_external_codec_workdir_with_space(self, utterances, tmp_path):
        # each substituted temp path must stay one argument to the command
        c = DegradationCondition("external_codec", 0)
        workdir = tmp_path / "with space"
        workdir.mkdir()
        out = apply_condition(
            utterances[0], c, seed=0, source_id="x",
            external_codec_cmd="cp {in} {out}", workdir=workdir,
        )
        assert np.max(np.abs(out.samples - utterances[0].samples)) < 1 / 32768

    @pytest.mark.parametrize("family, level, message", [
        ("bogus", 0, "unknown family 'bogus', expected one of ['clip',"),
        ("clip", 5, "clip has levels 0-4, got 5"),
        ("clip", -1, "clip has levels 0-4, got -1"),  # used to be the 60 % level
    ])
    def test_constructor_rejects_unknown_condition(self, family, level, message):
        with pytest.raises(NomadError) as e:
            DegradationCondition(family, level)
        assert message in str(e.value)

    def test_level_param_reads_table(self):
        for family, table in LEVEL_TABLES.items():
            for i, level in enumerate(table):
                assert DegradationCondition(family, i).level_param == level

    def test_condition_outside_table_cannot_be_built(self):
        with pytest.raises(TypeError):
            DegradationCondition("clip", 0, 99.0)  # a level of its own used to be accepted
        with pytest.raises(NomadError, match="clip has levels 0-4, got 5"):
            dataclasses.replace(DegradationCondition("clip", 4), level_index=5)
        with pytest.raises(NomadError, match="unknown family 'clean'"):
            DegradationCondition(CLEAN_FAMILY, 0)

    def test_unknown_noise_kind(self, utterances):
        with pytest.raises(NomadError) as e:
            apply_condition(utterances[0], DegradationCondition("noise", 1), seed=0,
                            noise_kind="brown")
        assert "'brown'" in str(e.value) and "'pink'" in str(e.value)

    def test_condition_rng_depends_on_all_keys(self):
        c0 = DegradationCondition("noise", 0)
        c1 = DegradationCondition("noise", 1)
        a = condition_rng(1, "s", c0).integers(1 << 30)
        assert a != condition_rng(2, "s", c0).integers(1 << 30)
        assert a != condition_rng(1, "t", c0).integers(1 << 30)
        assert a != condition_rng(1, "s", c1).integers(1 << 30)


def pink_noise_loop(n, rng):
    """Voss-McCartney as a per-sample loop: the reference for ``pink_noise``."""
    values = rng.standard_normal(PINK_ROWS + 1)
    out = np.empty(n)
    for i in range(n):
        if i > 0:
            # rows toggle at octave-spaced intervals
            bit = (i & -i).bit_length() - 1
            row = min(bit, PINK_ROWS - 1)
            values[row] = rng.standard_normal()
        values[PINK_ROWS] = rng.standard_normal()
        out[i] = values.sum()
    return out / (PINK_ROWS + 1) * 0.3


class TestNoiseGenerators:
    @pytest.mark.parametrize("n", [1, 2, 5, 1000, 48000])
    def test_pink_noise_equals_loop(self, n):
        for seed in range(3):
            expected = pink_noise_loop(n, np.random.default_rng(seed))
            assert np.array_equal(pink_noise(n, np.random.default_rng(seed)), expected)

    def test_pink_noise_rolls_off(self):
        x = pink_noise(16384, np.random.default_rng(12))
        spec = np.abs(np.fft.rfft(x)) ** 2
        low = spec[5:50].mean()
        high = spec[4000:8000].mean()
        assert low > 5 * high

    def test_white_noise_deterministic(self):
        a = white_noise(100, np.random.default_rng(13))
        b = white_noise(100, np.random.default_rng(13))
        assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    clean = tmp_path_factory.mktemp("clean")
    for i in range(2):
        save_wav(make_utterance(20 + i, duration_s=1.5), clean / f"src{i}.wav")
    return clean


def test_source_id_of_reads_both_clip_names():
    # a source name may itself hold "__"; no condition name and no "clean" does
    conditions = [DegradationCondition(family, i)
                  for family, table in LEVEL_TABLES.items() for i in range(len(table))]
    for source_id in ("take_2", "a__b", "spk1__utt3"):
        names = [degraded_name(source_id, c) for c in conditions] + [clean_name(source_id)]
        assert [source_id_of(Path("/corpus") / name) for name in names] == [source_id] * len(names)


class TestSynthDataset:
    @pytest.mark.parametrize("families, noise_kind, bad, allowed", [
        (["clip", "bogus"], "white", "'bogus'", "'codec_proxy_mp3like'"),
        (["clip", "noise", "clip"], "white", "'clip', 'noise', 'clip'", "'codec_proxy_mp3like'"),
        ([], "white", "got []", "'codec_proxy_mp3like'"),
        (["noise"], "brown", "'brown'", "'pink'"),
    ])
    def test_bad_vocabulary_rejected_before_writing(self, corpus, tmp_path, families, noise_kind,
                                                    bad, allowed):
        out = tmp_path / "out"
        with pytest.raises(NomadError) as e:
            synth_dataset(corpus, out, seed=0, families=families, noise_kind=noise_kind)
        assert bad in str(e.value) and allowed in str(e.value)
        assert not out.exists()

    @pytest.mark.parametrize("template, error, message", [
        (None, MissingEncoderError, "no external codec command configured"),
        ("cp {input} {out}", NomadError, "unknown placeholder {input}"),
        ('cp "{in} {out}', NomadError, "No closing quotation"),
    ])
    def test_bad_codec_template_rejected_before_writing(self, corpus, tmp_path, template, error,
                                                        message):
        out = tmp_path / "out"
        with pytest.raises(error, match=message):
            synth_dataset(corpus, out, seed=0, families=["clip", "external_codec"],
                          external_codec_cmd=template)
        assert not out.exists()

    def test_manifest_count_law(self, corpus, tmp_path):
        rows = synth_dataset(corpus, tmp_path / "out", seed=3)
        # 2 sources x (4 families x 5 levels + 1 clean row)
        assert len(rows) == 42
        per_source = {}
        for r in rows:
            per_source.setdefault(r.source_id, []).append(r)
        for source_rows in per_source.values():
            assert sum(1 for r in source_rows if r.family == "clean") == 1
            assert sum(1 for r in source_rows if r.family != "clean") == 20

    def test_manifest_contents(self, corpus, tmp_path):
        out = tmp_path / "out"
        rows = synth_dataset(corpus, out, seed=3)
        persisted = read_manifest(out / "manifest.csv")
        assert len(persisted) == len(rows)
        for r in persisted:
            assert 0.0 <= r.nsim <= 1.0
            assert load_wav(r.clip_path) is not None
        clean_rows = [r for r in persisted if r.family == "clean"]
        assert all(r.nsim == 1.0 for r in clean_rows)

    def test_rerun_byte_identical(self, corpus, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        synth_dataset(corpus, out_a, seed=9)
        synth_dataset(corpus, out_b, seed=9)
        ma = (out_a / "manifest.csv").read_bytes()
        mb = (out_b / "manifest.csv").read_bytes().replace(
            str(out_b).encode(), str(out_a).encode()
        )
        assert ma == mb

    def test_nsim_matches_clips_on_disk(self, tmp_path):
        # both sides are read back from disk: the reference is the written
        # clean clip, whatever the source's rate
        clean = tmp_path / "clean"
        clean.mkdir()
        save_wav(make_utterance(30, duration_s=1.5), clean / "a.wav")
        save_wav(make_utterance(31, duration_s=1.5, sr=22050), clean / "b.wav")
        save_wav(make_utterance(32, duration_s=1.5, sr=8000), clean / "c.wav")
        save_wav(make_utterance(33, duration_s=1.5, sr=48000), clean / "d.wav")
        out = tmp_path / "out"
        rows = synth_dataset(clean, out, seed=4)
        assert {r.source_id for r in rows} == {"a", "b", "c", "d"}
        for r in rows:
            if r.family == "clean":
                assert r.nsim == 1.0
                continue
            ref = load_wav(out / clean_name(r.source_id))
            assert r.nsim == utterance_nsim(ref, load_wav(r.clip_path))

    def test_conditions_degrade_the_written_clean_clip(self, tmp_path):
        clean = tmp_path / "clean"
        clean.mkdir()
        save_wav(make_utterance(100, duration_s=1.0, sr=8000), clean / "a.wav")
        out = tmp_path / "out"
        rows = synth_dataset(clean, out, seed=7)
        written = load_wav(out / clean_name("a"))
        assert {r.family for r in rows} == {"clean", *DEFAULT_FAMILIES}
        for r in rows:
            if r.family == "clean":
                continue
            c = DegradationCondition(r.family, r.level_index)
            save_wav(apply_condition(written, c, 7, "a"), tmp_path / "expected.wav")
            assert Path(r.clip_path).read_bytes() == (tmp_path / "expected.wav").read_bytes(), r.clip_path

    def test_one_reference_spectrogram_per_source(self, corpus, tmp_path, monkeypatch):
        # the package namespace binds ``nsim`` to the function, not the module
        nsim_module = importlib.import_module("nomadlite.nsim")
        calls = {}

        def count_calls(module, name):
            original = getattr(module, name)
            key = f"{module.__name__}.{name}"

            def counting(*args, **kwargs):
                calls[key] = calls.get(key, 0) + 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)

        count_calls(degrade, "log_band_spectrogram")
        count_calls(degrade, "load_wav")
        count_calls(nsim_module, "log_band_spectrogram")
        rows = synth_dataset(corpus, tmp_path / "out", seed=3)
        degraded = sum(1 for r in rows if r.family != "clean")
        assert degraded == 40
        # one reference spectrogram and one read per source; no clip read back
        assert calls == {
            "nomadlite.degrade.log_band_spectrogram": 2,
            "nomadlite.degrade.load_wav": 2,
            "nomadlite.nsim.log_band_spectrogram": degraded,
        }

    def test_one_clean_analysis_per_source(self, corpus, tmp_path, monkeypatch):
        # each source's rFFT serves its 10 codec levels and its prepared NSIM
        # reference its 20 labels, also when two threads render the sources
        spectrum = degrade._Analyzed.__dict__["spectrum"]
        calls = []  # list.append is atomic, so no count is lost between threads
        rfft, prepare = spectrum.func, degrade.prepare_reference

        def counting_rfft(w):
            calls.append("rfft")
            return rfft(w)

        def counting_prepare(spec):
            calls.append("reference")
            return prepare(spec)

        monkeypatch.setattr(spectrum, "func", counting_rfft)
        monkeypatch.setattr(degrade, "prepare_reference", counting_prepare)
        for jobs in (1, 2):
            calls.clear()
            rows = synth_dataset(corpus, tmp_path / f"out{jobs}", seed=3, jobs=jobs)
            assert len(rows) == 42
            assert sorted(calls) == ["reference", "reference", "rfft", "rfft"]
        calls.clear()
        synth_dataset(corpus, tmp_path / "no-codec", seed=3, families=["clip", "noise"])
        assert calls == ["reference", "reference"]

    def test_source_too_short_for_reference_skipped_whole(self, corpus, tmp_path):
        clean = tmp_path / "clean2"
        clean.mkdir()
        for f in corpus.glob("*.wav"):
            (clean / f.name).write_bytes(f.read_bytes())
        save_wav(Waveform(make_utterance(32, duration_s=0.1).samples[:300], 16000), clean / "short.wav")
        rows = synth_dataset(clean, tmp_path / "out", seed=0)
        assert {r.source_id for r in rows} == {"src0", "src1"}
        assert not (tmp_path / "out" / "short__clean.wav").exists()

    def test_skipped_condition_leaves_no_file(self, corpus, tmp_path):
        # the codec appends 0.1 s of silence, so every external_codec level is
        # written and then skipped: its frame count is not the clean clip's
        pad = tmp_path / "pad.py"
        pad.write_text("import sys, wave\n"
                       "with wave.open(sys.argv[1], 'rb') as f:\n"
                       "    params, frames = f.getparams(), f.readframes(f.getnframes())\n"
                       "with wave.open(sys.argv[2], 'wb') as f:\n"
                       "    f.setparams(params)\n"
                       "    f.writeframes(frames + bytes(params.sampwidth * params.framerate // 10))\n")
        out = tmp_path / "out"
        synth_dataset(corpus, out, seed=0, families=["clip", "external_codec"],
                      external_codec_cmd=f'"{sys.executable}" "{pad}" {{in}} {{out}}')
        rows = read_manifest(out / "manifest.csv")
        assert sorted(r.family for r in rows) == ["clean"] * 2 + ["clip"] * 10
        assert sorted(str(p) for p in out.glob("*.wav")) == sorted(r.clip_path for r in rows)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, corpus, tmp_path, jobs):
        with pytest.raises(ValueError, match="jobs"):
            synth_dataset(corpus, tmp_path / "out", seed=0, jobs=jobs)

    def test_empty_corpus(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(EmptyCorpusError):
            synth_dataset(tmp_path / "empty", tmp_path / "out", seed=0)

    def test_empty_corpus_writes_nothing(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(EmptyCorpusError, match="no WAV files in"):
            synth_dataset(tmp_path / "empty", tmp_path / "out", seed=0)
        assert not (tmp_path / "out").exists()

    def test_bad_source_skipped(self, corpus, tmp_path):
        clean = tmp_path / "clean2"
        clean.mkdir()
        for f in corpus.glob("*.wav"):
            (clean / f.name).write_bytes(f.read_bytes())
        (clean / "broken.wav").write_bytes(b"RIFF not a wav")
        rows = synth_dataset(clean, tmp_path / "out", seed=0)
        assert {r.source_id for r in rows} == {"src0", "src1"}
