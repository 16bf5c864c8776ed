"""Seeded inputs for the benchmark workloads.

Every waveform is synthesized here, natively at its own sample rate, so the
program under test only ever sees generated WAV files and waveforms and its
own resampler is never used to make an input.
"""

from pathlib import Path

import numpy as np

from nomadlite.audio_core import Waveform, save_wav


def make_utterance(seed: int, duration_s: float = 3.0, sr: int = 16000) -> Waveform:
    """Speech-like clean signal: vibrato harmonics, a broadband noise floor
    and syllabic amplitude modulation (the formula of the test suite's
    corpus, so the benchmark measures the acceptance desk corpus)."""
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


def source_seed(seed: int, index: int) -> int:
    """Per-source seed; distinct for every (run seed, source index) pair."""
    return seed * 1000 + index


def write_sources(directory: Path, seed: int, specs, first: int = 0) -> list[Path]:
    """Write one clean WAV per (sample_rate, duration_s) in ``specs``; the
    i-th file uses source index ``first + i``."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, (sr, duration_s) in enumerate(specs, start=first):
        path = directory / f"s{i:03d}_{sr}.wav"
        save_wav(make_utterance(source_seed(seed, i), duration_s, sr), path)
        paths.append(path)
    return paths


def sine(freq_hz: float, amplitude: float, duration_s: float, sr: int) -> Waveform:
    n = int(round(duration_s * sr))
    return Waveform(amplitude * np.sin(2 * np.pi * freq_hz * np.arange(n) / sr), sr)
