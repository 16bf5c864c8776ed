import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from conftest import write_raw_wav
from nomadlite.audio_core import (
    SpectrogramConfig,
    _design_lowpass,
    _HANN,
    _MEL_FILTERBANK,
    _mel_filterbank,
    Waveform,
    load_wav,
    log_band_spectrogram,
    resample,
    save_wav,
)
from nomadlite.errors import CorruptHeaderError, SignalTooShortError, UnsupportedFormatError


def zero_stuff_reference(x, rate, target):
    """Resampling as defined: insert up-1 zeros after each sample, convolve
    with the package's lowpass and keep every down-th sample from the group
    delay on."""
    g = np.gcd(rate, target)
    up, down = target // g, rate // g
    h = _design_lowpass(up, down)
    stuffed = np.zeros(len(x) * up)
    stuffed[::up] = x
    full = np.convolve(stuffed, h)
    n_out = round(len(x) * up / down)
    return full[np.arange(n_out) * down + (len(h) - 1) // 2]


def one_shot_reference(w):
    """The front end as one expression: every frame windowed and transformed
    at once, then pooled and floored."""
    cfg = SpectrogramConfig()
    if w.sample_rate != cfg.sample_rate:
        w = resample(w, cfg.sample_rate)
    frames = sliding_window_view(w.samples, cfg.window)[:: cfg.hop]
    spec = np.fft.rfft(frames * np.hanning(cfg.window), axis=1)
    power = spec.real**2 + spec.imag**2
    fb = _mel_filterbank(cfg.bands, cfg.window, cfg.sample_rate, cfg.fmin, cfg.fmax)
    return np.log10(np.maximum(power @ fb.T, cfg.power_floor))


class TestLoadWav:
    def test_one_second_mono_16k(self, tmp_path):
        path = tmp_path / "a.wav"
        save_wav(Waveform(np.zeros(16000), 16000), path)
        w = load_wav(path)
        assert len(w.samples) == 16000
        assert w.sample_rate == 16000

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "st.wav"
        write_raw_wav(path, b"\x00\x00" * 200, channels=2)
        with pytest.raises(UnsupportedFormatError):
            load_wav(path)

    def test_wrong_bit_depth_rejected(self, tmp_path):
        path = tmp_path / "b24.wav"
        write_raw_wav(path, b"\x00\x00\x00" * 100, sampwidth=3)
        with pytest.raises(UnsupportedFormatError):
            load_wav(path)

    @pytest.mark.parametrize("rate", [1, 7999, 192001])
    def test_rate_outside_supported_range_rejected(self, tmp_path, rate):
        # a 1 Hz header used to reach the resampler, which asked for 16000
        # output samples per input sample
        path = tmp_path / "rate.wav"
        write_raw_wav(path, b"\x00\x00" * 2000, rate=rate)
        with pytest.raises(UnsupportedFormatError, match=rf"{re.escape(str(path))}.* {rate} Hz"):
            load_wav(path)

    def test_full_scale_negative_maps_to_minus_one(self, tmp_path):
        path = tmp_path / "fs.wav"
        pcm = np.array([-32768, 0, 32767], dtype="<i2")
        write_raw_wav(path, pcm.tobytes())
        w = load_wav(path)
        assert w.samples[0] == -1.0
        assert w.samples[1] == 0.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_wav(tmp_path / "nope.wav")

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFFgarbage-not-a-wave-file")
        with pytest.raises(CorruptHeaderError):
            load_wav(path)

    def test_data_cut_mid_sample(self, tmp_path):
        # a file one byte short used to leak numpy's "buffer size must be a
        # multiple of element size", and one cut at a sample boundary loaded
        # its remaining frames; a header whose data size is odd still loads
        # its whole frames
        whole = tmp_path / "whole.wav"
        write_raw_wav(whole, b"\x01\x00" * 1000)
        cut = tmp_path / "cut.wav"
        cut.write_bytes(whole.read_bytes()[:-1])
        with pytest.raises(CorruptHeaderError, match=re.escape(str(cut))):
            load_wav(cut)
        boundary = tmp_path / "boundary.wav"
        boundary.write_bytes(whole.read_bytes()[:-200])
        with pytest.raises(CorruptHeaderError,
                           match=re.escape(f"{boundary}: header declares 1000 frames, data holds 900")):
            load_wav(boundary)
        odd = tmp_path / "odd.wav"
        write_raw_wav(odd, b"\x01\x00" * 999 + b"\x01")
        assert np.array_equal(load_wav(odd).samples, np.full(999, 1 / 32768.0))

    def test_roundtrip_values(self, tmp_path):
        rng = np.random.default_rng(0)
        w = Waveform(rng.uniform(-0.9, 0.9, 1000), 16000)
        path = tmp_path / "rt.wav"
        save_wav(w, path)
        back = load_wav(path)
        assert np.max(np.abs(back.samples - w.samples)) < 1 / 32768

    def test_save_returns_what_load_reads(self, tmp_path):
        # includes samples past full scale, which both sides clip alike
        rng = np.random.default_rng(1)
        w = Waveform(rng.uniform(-1.2, 1.2, 1000), 22050)
        path = tmp_path / "rt.wav"
        written = save_wav(w, path)
        back = load_wav(path)
        assert written.sample_rate == back.sample_rate == 22050
        assert np.array_equal(written.samples, back.samples)

    def test_every_int16_value_scales_as_division(self, tmp_path):
        pcm = np.arange(-32768, 32768, dtype="<i2")
        expected = pcm.astype(np.float64) / 32768.0
        path = tmp_path / "all.wav"
        write_raw_wav(path, pcm.tobytes())
        assert np.array_equal(load_wav(path).samples, expected)
        written = save_wav(Waveform(expected, 16000), tmp_path / "back.wav")
        assert np.array_equal(written.samples, expected)
        assert np.array_equal(load_wav(tmp_path / "back.wav").samples, expected)


class TestResample:
    def test_identity_is_bit_exact(self):
        rng = np.random.default_rng(1)
        w = Waveform(rng.uniform(-1, 1, 4321), 16000)
        out = resample(w, 16000)
        assert np.array_equal(out.samples, w.samples)
        assert out.samples is not w.samples

    def test_halving_sample_count(self):
        w = Waveform(np.random.default_rng(2).uniform(-0.5, 0.5, 32000), 32000)
        out = resample(w, 16000)
        assert abs(len(out.samples) - 16000) <= 1
        assert out.sample_rate == 16000

    def test_sine_survives_downsampling(self):
        # FFT-peak oracle: a 1 kHz tone must stay the dominant bin at 16 kHz
        t = np.arange(48000) / 48000
        w = Waveform(0.5 * np.sin(2 * np.pi * 1000 * t), 48000)
        out = resample(w, 16000)
        spec = np.abs(np.fft.rfft(out.samples))
        peak_hz = np.argmax(spec) * 16000 / len(out.samples)
        assert abs(peak_hz - 1000) < 2

    def test_upsampling_preserves_duration(self):
        w = Waveform(np.random.default_rng(3).uniform(-0.5, 0.5, 16000), 16000)
        out = resample(w, 48000)
        assert abs(len(out.samples) - 48000) <= 1

    @pytest.mark.parametrize("rate", [44100, 22050, 8000, 24000])
    def test_to_canonical_length(self, rate):
        for n in (1000, 4411, 7919):
            out = resample(Waveform(np.ones(n) * 0.1, rate), 16000)
            assert len(out.samples) == round(n * 16000 / rate)

    @pytest.mark.parametrize("rate", [44100, 22050, 8000, 24000])
    def test_to_canonical_keeps_sine_amplitude(self, rate):
        t = np.arange(int(0.25 * rate)) / rate
        out = resample(Waveform(0.5 * np.sin(2 * np.pi * 1000 * t), rate), 16000)
        mid = out.samples[len(out.samples) // 4 : 3 * len(out.samples) // 4]
        assert abs(np.max(np.abs(mid)) - 0.5) < 0.005

    @pytest.mark.parametrize("rate", [44100, 22050, 8000, 24000])
    def test_to_canonical_matches_direct_formula(self, rate):
        x = np.random.default_rng(rate).uniform(-1, 1, int(0.02 * rate))
        out = resample(Waveform(x, rate), 16000)
        assert np.max(np.abs(out.samples - zero_stuff_reference(x, rate, 16000))) < 1e-12

    def test_bad_rate(self):
        w = Waveform(np.zeros(10), 16000)
        with pytest.raises(ValueError):
            resample(w, 0)


class TestSpectrogram:
    def test_silence_hits_log_floor(self):
        w = Waveform(np.zeros(16000), 16000)
        s = log_band_spectrogram(w)
        assert np.all(s.values == -10.0)

    def test_single_frame(self):
        w = Waveform(np.random.default_rng(4).uniform(-0.5, 0.5, 400), 16000)
        s = log_band_spectrogram(w)
        assert s.values.shape[0] == 1

    def test_too_short(self):
        with pytest.raises(SignalTooShortError):
            log_band_spectrogram(Waveform(np.zeros(399), 16000))

    @given(st.integers(min_value=400, max_value=20000))
    @settings(max_examples=30, deadline=None)
    def test_framing_count_law(self, n):
        w = Waveform(np.random.default_rng(n).uniform(-0.5, 0.5, n), 16000)
        s = log_band_spectrogram(w)
        assert s.values.shape[0] == (n - 400) // 160 + 1
        assert np.array_equal(s.values, one_shot_reference(w))

    @pytest.mark.parametrize("frames", [1, 31, 32, 33, 64, 65, 298, 1000])
    def test_blocked_stft_equals_one_shot(self, frames):
        # block edges fall every 32 frames of the default 400-sample window
        n = 400 + (frames - 1) * 160
        w = Waveform(np.random.default_rng(frames).uniform(-0.5, 0.5, n), 16000)
        s = log_band_spectrogram(w)
        assert s.values.shape[0] == frames
        assert np.array_equal(s.values, one_shot_reference(w))

    def test_blocked_stft_equals_one_shot_resampled(self):
        rate = 22050
        w = Waveform(np.random.default_rng(rate).uniform(-0.5, 0.5, rate), rate)
        s = log_band_spectrogram(w)
        assert np.array_equal(s.values, one_shot_reference(w))

    def test_peak_temporaries_of_a_3s_clip(self):
        w = Waveform(np.random.default_rng(11).uniform(-0.5, 0.5, 48000), 16000)
        log_band_spectrogram(w)  # builds the cached window and filterbank
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            log_band_spectrogram(w)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 2**20

    def test_scale_shift_law(self):
        rng = np.random.default_rng(5)
        w = Waveform(rng.uniform(-0.4, 0.4, 8000), 16000)
        g = 0.5
        s1 = log_band_spectrogram(w)
        s2 = log_band_spectrogram(Waveform(w.samples * g, w.sample_rate))
        above = s2.values > -10.0  # entries the floor did not touch
        assert np.any(above)
        diff = s2.values[above] - s1.values[above]
        assert np.max(np.abs(diff - 2 * np.log10(g))) < 1e-9

    def test_white_noise_half_amplitude(self):
        # closed form: power ratio 0.25 -> uniform log10 shift
        rng = np.random.default_rng(6)
        w = Waveform(rng.uniform(-0.5, 0.5, 16000), 16000)
        s1 = log_band_spectrogram(w)
        s2 = log_band_spectrogram(Waveform(w.samples * 0.5, w.sample_rate))
        assert np.allclose(s2.values - s1.values, np.log10(0.25), atol=1e-9)

    def test_resamples_on_entry(self):
        w = Waveform(np.random.default_rng(7).uniform(-0.5, 0.5, 32000), 32000)
        s = log_band_spectrogram(w)
        assert s.values.shape == ((16000 - 400) // 160 + 1, 32)

    def test_config_takes_no_arguments(self):
        with pytest.raises(TypeError):
            SpectrogramConfig(window=512)
        cfg = SpectrogramConfig()
        assert (cfg.window, cfg.hop, cfg.bands) == (400, 160, 32)

    def test_cached_tables_are_read_only_and_exact(self):
        cfg = SpectrogramConfig()
        args = (cfg.bands, cfg.window, cfg.sample_rate, cfg.fmin, cfg.fmax)
        assert not _MEL_FILTERBANK.flags.writeable
        assert np.array_equal(_MEL_FILTERBANK, _mel_filterbank(*args))
        assert not _HANN.flags.writeable
        assert np.array_equal(_HANN, np.hanning(cfg.window))
        with pytest.raises(ValueError):
            _MEL_FILTERBANK[0, 0] = 1.0
        with pytest.raises(ValueError):
            _HANN[0] = 1.0
