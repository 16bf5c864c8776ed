import wave

import numpy as np
import pytest

from nomadlite import audio_core
from nomadlite.audio_core import Waveform
from nomadlite.net import EncoderConfig

# small enough for finite differences, same structure as the default
TINY = EncoderConfig(bands=2, conv_channels=(4, 8), kernel=3, stride=2,
                     embed_dim=8, init_seed=0)
# full-width input, two narrow layers, so real waveforms embed quickly
SMALL = EncoderConfig(bands=32, conv_channels=(8, 16), kernel=3, stride=2,
                      embed_dim=16, init_seed=0)


def write_raw_wav(path, pcm_bytes, channels=1, sampwidth=2, rate=16000):
    with wave.open(str(path), "wb") as f:
        f.setnchannels(channels)
        f.setsampwidth(sampwidth)
        f.setframerate(rate)
        f.writeframes(pcm_bytes)


def make_utterance(seed: int, duration_s: float = 3.0, sr: int = 16000) -> Waveform:
    """Synthetic speech-like clean signal: vibrato harmonics, broadband noise
    floor, and syllabic amplitude modulation."""
    rng = np.random.default_rng(seed)
    n = int(duration_s * sr)
    t = np.arange(n) / sr
    f0 = rng.uniform(100.0, 240.0)
    f_inst = f0 * (1.0 + 0.02 * np.sin(2 * np.pi * rng.uniform(4.0, 7.0) * t))
    phase = 2 * np.pi * np.cumsum(f_inst) / sr
    x = np.zeros(n)
    for k in range(1, 9):
        x += rng.uniform(0.3, 1.0) / k * np.sin(k * phase + rng.uniform(0, 2 * np.pi))
    x += 0.15 * rng.standard_normal(n)
    syllables = 0.55 + 0.45 * np.sin(2 * np.pi * rng.uniform(2.0, 4.0) * t + rng.uniform(0, 2 * np.pi))
    x *= syllables
    x *= 0.8 / np.max(np.abs(x))
    return Waveform(x, sr)


@pytest.fixture(scope="session")
def utterances():
    return [make_utterance(seed) for seed in range(10)]


@pytest.fixture
def front_end_passes(monkeypatch):
    """The ids of the waveforms that the front end computes a spectrogram
    of, in call order; a memoized ``log_band_spectrogram`` call adds none."""
    passes = []
    compute = audio_core._log_band_values
    monkeypatch.setattr(audio_core, "_log_band_values", lambda w: passes.append(id(w)) or compute(w))
    return passes
