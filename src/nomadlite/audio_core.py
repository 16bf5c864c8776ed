"""Audio I/O, resampling, and the log mel-band spectrogram front-end.

Canonical sample rate is 16 kHz: every spectrogram-producing entry point
resamples its input first.
"""

import numbers
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CorruptHeaderError, EmptyCorpusError, SignalTooShortError, UnsupportedFormatError

CANONICAL_RATE = 16000
# Header sample rates load_wav accepts. Outside it, resampling to 16 kHz
# would take memory in proportion to the ratio (a 1 Hz header asks for
# 16000 output samples per input sample) before any later check could fail.
MIN_RATE = 8000
MAX_RATE = 192000

# Samples per block of frames that log_band_spectrogram windows and
# transforms at once (32 frames of the front end's 400-sample window). Each
# block temporary then stays near 100 KiB: below glibc's default 128 KiB
# mmap threshold, so it is reused from the heap instead of being mapped and
# faulted in again on every call, and small enough to stay in L2.
FFT_BLOCK_SAMPLES = 12800


def _check_positive_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass
class Waveform:
    """Mono PCM audio, amplitudes in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise ValueError("waveform must be a nonempty 1-d array")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")


@dataclass
class Spectrogram:
    """T x B matrix of log10 band power."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("spectrogram must be 2-d")


@dataclass(frozen=True)
class SpectrogramConfig:
    """The one front end: 25 ms Hann frames every 10 ms at 16 kHz, pooled
    into 32 mel bands over 0-8 kHz. It takes no arguments."""

    sample_rate: int = field(default=CANONICAL_RATE, init=False)
    window: int = field(default=400, init=False)
    hop: int = field(default=160, init=False)
    bands: int = field(default=32, init=False)
    fmin: float = field(default=0.0, init=False)
    fmax: float = field(default=8000.0, init=False)
    power_floor: float = field(default=1e-10, init=False)


FRONT_END = SpectrogramConfig()


def wav_files(directory) -> list[Path]:
    """The ``*.wav`` files of a directory, sorted; none is an EmptyCorpusError."""
    if files := sorted(Path(directory).glob("*.wav")):
        return files
    raise EmptyCorpusError(f"no WAV files in {directory}")


def load_wav(path) -> Waveform:
    """Read a RIFF PCM 16-bit mono WAV file, scaled to [-1, 1] by 1/32768."""
    try:
        with wave.open(str(path), "rb") as f:
            channels, sampwidth, rate, n = f.getparams()[:4]
            raw = f.readframes(n)
    except (wave.Error, EOFError) as e:
        raise CorruptHeaderError(f"{path}: {e}") from e
    if channels != 1:
        raise UnsupportedFormatError(f"{path}: expected mono, got {channels} channels")
    if sampwidth != 2:
        raise UnsupportedFormatError(f"{path}: expected 16-bit PCM, got {8 * sampwidth}-bit")
    if not MIN_RATE <= rate <= MAX_RATE:
        raise UnsupportedFormatError(
            f"{path}: sample rate {rate} Hz outside {MIN_RATE}-{MAX_RATE} Hz"
        )
    pcm = np.frombuffer(raw, dtype="<i2")
    if pcm.size < 1:
        raise CorruptHeaderError(f"{path}: no audio frames")
    return Waveform(np.multiply(pcm, 1 / 32768.0, dtype=np.float64), rate)


def save_wav(w: Waveform, path) -> Waveform:
    """Write 16-bit PCM mono, clipping to the representable range.

    Returns the waveform as written, equal to what ``load_wav(path)`` reads
    back."""
    pcm = np.clip(np.round(w.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(w.sample_rate)
        f.writeframes(pcm.tobytes())
    return Waveform(np.multiply(pcm, 1 / 32768.0, dtype=np.float64), w.sample_rate)


def _design_lowpass(up: int, down: int) -> np.ndarray:
    # windowed sinc, Kaiser beta=8, ~64 taps per polyphase branch (odd length
    # so the group delay is an integer number of upsampled samples)
    n_taps = 64 * up + 1
    fc = 1.0 / (2 * max(up, down))  # cycles/sample at the upsampled rate
    n = np.arange(n_taps) - (n_taps - 1) / 2
    h = 2 * fc * np.sinc(2 * fc * n) * np.kaiser(n_taps, 8.0)
    return h * (up / h.sum())


def resample(w: Waveform, target_rate: int) -> Waveform:
    """Windowed-sinc polyphase resampling; identity is a bit-exact copy.

    Equivalent to zero-stuffing by ``up``, convolving with the lowpass ``h``
    and keeping every ``down``-th sample, without building the stuffed
    signal: output ``m`` lands on upsampled index ``u = m*down + delay``,
    where only the taps ``h[u % up :: up]`` meet nonzero input, namely the
    ``k`` samples ending at ``x[u // up]``. With ``up`` and ``down`` coprime,
    the outputs ``m0::up`` share one phase and read input windows ``down``
    apart, so each phase is one matmul over a strided window view.
    """
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if target_rate == w.sample_rate:
        return Waveform(w.samples.copy(), w.sample_rate)
    g = np.gcd(target_rate, w.sample_rate)
    up = target_rate // g
    down = w.sample_rate // g
    h = _design_lowpass(up, down)
    delay = (len(h) - 1) // 2
    n_out = int(round(len(w.samples) * up / down))
    k = -(-len(h) // up)
    phases = np.zeros(k * up)
    phases[: len(h)] = h
    # row p holds h[p::up] reversed, to dot with an input window in time order
    phases = np.ascontiguousarray(phases.reshape(k, up).T[:, ::-1])
    last = ((n_out - 1) * down + delay) // up
    x = np.concatenate(
        [np.zeros(k - 1), w.samples, np.zeros(max(last + 1 - len(w.samples), 0))]
    )
    windows = sliding_window_view(x, k)  # windows[i] ends at input sample i
    y = np.empty(n_out)
    for m0 in range(min(up, n_out)):
        u0 = m0 * down + delay
        count = len(range(m0, n_out, up))
        y[m0::up] = windows[u0 // up :: down][:count] @ phases[u0 % up]
    return Waveform(y, target_rate)


def _mel_filterbank(bands: int, nfft: int, sr: int, fmin: float, fmax: float) -> np.ndarray:
    """Read-only triangular mel filterbank (bands, nfft // 2 + 1)."""
    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)

    edges = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), bands + 2))
    freqs = np.fft.rfftfreq(nfft, 1.0 / sr)
    fb = np.zeros((bands, len(freqs)))
    for j in range(bands):
        lo, mid, hi = edges[j], edges[j + 1], edges[j + 2]
        rising = (freqs - lo) / max(mid - lo, 1e-12)
        falling = (hi - freqs) / max(hi - mid, 1e-12)
        fb[j] = np.clip(np.minimum(rising, falling), 0.0, 1.0)
    fb.flags.writeable = False
    return fb


_HANN = np.hanning(FRONT_END.window)
_HANN.flags.writeable = False
_MEL_FILTERBANK = _mel_filterbank(
    FRONT_END.bands, FRONT_END.window, FRONT_END.sample_rate, FRONT_END.fmin, FRONT_END.fmax)


def log_band_spectrogram(w: Waveform) -> Spectrogram:
    """Hann-windowed STFT power pooled into mel bands, log10 with a floor,
    over the one front end ``FRONT_END``.

    Frames are windowed and transformed ``FFT_BLOCK_SAMPLES`` at a time into
    one power array; rfft rows are independent, so this equals transforming
    all frames at once. The mel pooling stays one GEMM over the whole array:
    a GEMM per block would let BLAS pick other kernels for the short blocks
    and change the last bits."""
    cfg = FRONT_END
    if w.sample_rate != cfg.sample_rate:
        w = resample(w, cfg.sample_rate)
    x = w.samples
    if len(x) < cfg.window:
        raise SignalTooShortError(
            f"signal of {len(x)} samples shorter than window {cfg.window}"
        )
    frames = sliding_window_view(x, cfg.window)[:: cfg.hop]
    power = np.empty((len(frames), cfg.window // 2 + 1))
    step = FFT_BLOCK_SAMPLES // cfg.window
    for i in range(0, len(frames), step):
        spec = np.fft.rfft(frames[i : i + step] * _HANN, axis=1)
        block = power[i : i + step]
        np.multiply(spec.real, spec.real, out=block)
        block += spec.imag**2
    values = power @ _MEL_FILTERBANK.T
    np.maximum(values, cfg.power_floor, out=values)
    np.log10(values, out=values)
    return Spectrogram(values)
