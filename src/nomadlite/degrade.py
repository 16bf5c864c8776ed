"""Deterministic speech degradation synthesis and dataset manifests.

Each degradation family has a fixed level table; ``synth_dataset`` renders
every (family, level) for every clean source and records utterance NSIM in a
CSV manifest. All randomness is derived from a stable per-(source, condition)
hash so re-runs are byte-identical.
"""

import hashlib
import logging
import math
import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .audio_core import (
    CANONICAL_RATE, Waveform, _check_positive_int, _quantize, load_wav, log_band_spectrogram, resample, save_wav,
    wav_files)
from .errors import (
    DegenerateSignalError,
    EmptyCorpusError,
    EncoderFailedError,
    MissingEncoderError,
    NomadError,
    SilentInputError,
    UnsupportedBitrateError,
)
from .nsim import prepare_reference, utterance_nsim
from .table import column, read_table, write_table

log = logging.getLogger(__name__)

# level tables; index 0 is the mildest-numbered entry of each published table
LEVEL_TABLES = {
    "clip": [5.0, 10.0, 25.0, 40.0, 60.0],          # percent of samples clipped
    "noise": [0.0, 8.0, 15.0, 25.0, 40.0],          # SNR dB
    "codec_proxy_mp3like": [8.0, 16.0, 32.0, 64.0, 128.0],   # kbps
    "codec_proxy_opuslike": [8.0, 16.0, 32.0, 64.0, 128.0],  # kbps
    "reverb_probe": [0.15, 0.3, 0.6, 1.0, 1.5],     # RT60 s
    "external_codec": [8.0, 16.0, 32.0, 64.0, 128.0],        # kbps
}
DEFAULT_FAMILIES = ("clip", "noise", "codec_proxy_mp3like", "codec_proxy_opuslike")
CLEAN_FAMILY = "clean"  # the manifest family of each source's clean clip
DEFAULT_NOISE_KIND = "white"  # a key of NOISE_KINDS
PINK_ROWS = 12  # Voss-McCartney generator rows


@dataclass(frozen=True)
class DegradationCondition:
    """One level of one family's LEVEL_TABLES entry; it cannot name any other."""
    family: str
    level_index: int

    def __post_init__(self):
        if self.family not in LEVEL_TABLES:
            raise NomadError(f"unknown family {self.family!r}, expected one of {sorted(LEVEL_TABLES)}")
        table = LEVEL_TABLES[self.family]
        if not 0 <= self.level_index < len(table):
            raise NomadError(f"{self.family} has levels 0-{len(table) - 1}, got {self.level_index!r}")

    @property
    def level_param(self) -> float:
        return LEVEL_TABLES[self.family][self.level_index]


@dataclass
class ManifestRow:
    clip_path: str
    source_id: str
    family: str
    level_index: int
    level_param: float = column(".6g")
    nsim: float = column(".17g")


def clip_signal(w: Waveform, percent: float) -> Waveform:
    """Hard-clip so that the loudest ~percent% of samples hit the threshold.

    The threshold is the k-th largest magnitude with k = ceil(percent% * n),
    and the output is left at the clipped scale (no renormalization)."""
    if not 0.0 < percent < 100.0:
        raise ValueError("percent must be in (0, 100)")
    x = w.samples
    if np.ptp(x) == 0.0:
        raise DegenerateSignalError("cannot clip a constant signal")
    n = len(x)
    k = int(math.ceil(percent / 100.0 * n - 1e-9))
    k = max(k, 1)
    a = np.abs(x)
    a.partition(n - k)
    tau = a[n - k]
    return Waveform(np.clip(x, -tau, tau), w.sample_rate)


def _limit_peak(y: np.ndarray) -> np.ndarray:
    """Scale y in place to a 0.99 peak, only when some sample overflows [-1, 1]."""
    peak = np.max(np.abs(y))
    if peak > 1.0:
        y *= 0.99 / peak
    return y


def mix_noise_at_snr(x: Waveform, s: Waveform, snr_db: float) -> Waveform:
    """Add noise scaled to the requested full-utterance SNR; noise is looped
    or truncated to the signal length. Peak-normalized to 0.99 only on
    overflow."""
    if x.sample_rate != s.sample_rate:
        raise ValueError("sample rates must match")
    n = len(x.samples)
    noise = s.samples
    if len(noise) < n:
        noise = np.tile(noise, n // len(noise) + 1)
    noise = noise[:n]
    p_x = float(np.mean(x.samples**2))
    p_s = float(np.mean(noise**2))
    if p_x == 0.0 or p_s == 0.0:
        raise SilentInputError("signal and noise must both carry energy")
    g = math.sqrt(p_x / (p_s * 10.0 ** (snr_db / 10.0)))
    y = g * noise
    y += x.samples
    return Waveform(_limit_peak(y), x.sample_rate)


class _Analyzed(Waveform):
    """A waveform whose rFFT is taken on first use and then shared, as by
    every codec_proxy level of one clean clip in ``synth_dataset``. Only
    ``_analyzed`` makes one, over read-only samples, so the spectrum always
    belongs to the samples it travels with."""

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """The rFFT of the samples and its bins' frequencies in Hz, read-only."""
        spectrum = np.fft.rfft(self.samples), np.fft.rfftfreq(len(self.samples), 1.0 / self.sample_rate)
        for a in spectrum:
            a.flags.writeable = False
        return spectrum


def _analyzed(w: Waveform) -> _Analyzed:
    if isinstance(w, _Analyzed):
        return w
    samples = w.samples.view()
    samples.flags.writeable = False
    return _Analyzed(samples, w.sample_rate)


def _brickwall_lowpass(w: _Analyzed, cutoff_hz: float) -> np.ndarray:
    """Zero every rFFT bin above cutoff_hz and transform back. irfft pads the
    bins up to cutoff_hz with zeros, so the transform is that of the zeroed
    spectrum, without copying it."""
    spec, freqs = w.spectrum
    return np.fft.irfft(spec[: np.searchsorted(freqs, cutoff_hz, side="right")], n=len(w.samples))


def codec_proxy(w: Waveform, kbps: float, flavor: str = "mp3like") -> Waveform:
    """Bitrate proxy: lowpass then uniform requantization. Not a real codec,
    just a deterministic stand-in with the right quality ordering."""
    if f"codec_proxy_{flavor}" not in LEVEL_TABLES:
        raise ValueError(f"unknown flavor {flavor!r}")
    if kbps not in LEVEL_TABLES[f"codec_proxy_{flavor}"]:
        raise UnsupportedBitrateError(f"unsupported bitrate {kbps} kbps")
    bw = 280.0 if flavor == "mp3like" else 340.0
    cutoff = min(7600.0, bw * math.sqrt(kbps))
    bits = int(min(14, max(4, math.floor(3 + 1.5 * math.log2(kbps)))))
    y = _brickwall_lowpass(_analyzed(w), cutoff)
    return Waveform(_quantize(y, bits), w.sample_rate)


def reverb_decay_rate(rt60_s: float) -> float:
    """Amplitude decay rate (1/s) putting the envelope energy 60 dB down at RT60."""
    return 3.0 * math.log(10.0) / rt60_s


def reverb_probe(w: Waveform, rt60_s: float, rng: np.random.Generator | None = None) -> Waveform:
    """Convolve (by FFT at a power-of-two length) with an exponentially decaying
    white-noise impulse response of length 0.8*RT60, trimmed back to the input length."""
    if not 0.0 < rt60_s <= 3.0:
        raise ValueError("rt60_s must be in (0, 3]")
    rng = rng or np.random.default_rng(0)
    n_ir = max(int(0.8 * rt60_s * w.sample_rate), 1)
    t = np.arange(n_ir) / w.sample_rate
    ir = rng.standard_normal(n_ir) * np.exp(-reverb_decay_rate(rt60_s) * t)
    ir /= math.sqrt(float(np.sum(ir**2)))
    n_fft = 1 << (len(w.samples) + n_ir - 2).bit_length()  # exact lengths can be slow FFT sizes
    y = np.fft.irfft(np.fft.rfft(w.samples, n_fft) * np.fft.rfft(ir, n_fft), n_fft)
    return Waveform(_limit_peak(y[: len(w.samples)]), w.sample_rate)


def white_noise(n: int, rng: np.random.Generator) -> np.ndarray:
    y = rng.standard_normal(n)
    y *= 0.1
    return y


def pink_noise(n: int, rng: np.random.Generator) -> np.ndarray:
    """Voss-McCartney pink noise: PINK_ROWS held rows, sample i > 0 redrawing
    row min(trailing zero bits of i, PINK_ROWS - 1), plus a white row redrawn
    every sample. One bulk draw is a per-sample loop's stream: PINK_ROWS + 1
    initial values, one at sample 0, then the row and the white row."""
    draws = rng.standard_normal(2 * n + PINK_ROWS)
    j = np.arange(1, n)
    idx = np.tile(np.arange(PINK_ROWS + 1), (n, 1))  # draws[idx[i, r]] is row r at sample i
    idx[j, np.minimum(np.frexp(j & -j)[1] - 1, PINK_ROWS - 1)] = PINK_ROWS + 2 * j
    np.maximum.accumulate(idx, axis=0, out=idx)  # each row holds its last redraw
    idx[:, PINK_ROWS] = PINK_ROWS + 1 + 2 * np.arange(n)
    return draws[idx].sum(axis=1) / (PINK_ROWS + 1) * 0.3


NOISE_KINDS = {"white": white_noise, "pink": pink_noise}


def _noise_generator(kind: str):
    if kind not in NOISE_KINDS:
        raise NomadError(f"unknown noise kind {kind!r}, expected one of {sorted(NOISE_KINDS)}")
    return NOISE_KINDS[kind]


def condition_rng(seed: int, source_id: str, c: DegradationCondition) -> np.random.Generator:
    """Stable per-(seed, source, condition) stream; independent of process hash
    randomization."""
    key = f"{seed}|{source_id}|{c.family}|{c.level_index}".encode()
    digest = hashlib.sha256(key).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def apply_condition(
    w: Waveform,
    c: DegradationCondition,
    seed: int,
    source_id: str = "",
    noise_kind: str = DEFAULT_NOISE_KIND,
    external_codec_cmd: str | None = None,
    workdir: Path | None = None,
) -> Waveform:
    """Dispatch to the family operation with a deterministic per-condition RNG."""
    rng = condition_rng(seed, source_id, c)
    if c.family == "clip":
        return clip_signal(w, c.level_param)
    if c.family == "noise":
        noise = Waveform(_noise_generator(noise_kind)(len(w.samples), rng), w.sample_rate)
        return mix_noise_at_snr(w, noise, c.level_param)
    if c.family.startswith("codec_proxy_"):
        return codec_proxy(w, c.level_param, c.family.removeprefix("codec_proxy_"))
    if c.family == "reverb_probe":
        return reverb_probe(w, c.level_param, rng)
    if c.family == "external_codec":
        return _run_external_codec(w, c.level_param, external_codec_cmd, workdir)
    raise ValueError(f"unknown degradation family {c.family!r}")


def _external_codec_argv(cmd_template: str | None, in_path, out_path, kbps: float) -> list[str]:
    """The one reader of the codec template: it is split like a shell line, then
    ``{in}``, ``{out}`` and ``{kbps}`` are put into each token, so a path with
    spaces stays one argument."""
    if not cmd_template:
        raise MissingEncoderError("no external codec command configured")
    fields = {"in": str(in_path), "out": str(out_path), "kbps": int(kbps)}
    try:
        return [token.format(**fields) for token in shlex.split(cmd_template)]
    except KeyError as e:
        raise NomadError(f"external codec command {cmd_template!r} has unknown placeholder "
                         f"{{{e.args[0]}}}, expected {{in}}, {{out}} or {{kbps}}") from e
    except (ValueError, IndexError, AttributeError, TypeError) as e:
        raise NomadError(f"bad external codec command {cmd_template!r}: {e}") from e


def _run_external_codec(w: Waveform, kbps: float, cmd_template: str | None, workdir: Path | None) -> Waveform:
    workdir = Path(workdir) if workdir else Path.cwd()
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        in_path = Path(tmp) / "in.wav"
        out_path = Path(tmp) / "out.wav"
        cmd = _external_codec_argv(cmd_template, in_path, out_path, kbps)
        save_wav(w, in_path)
        try:
            proc = subprocess.run(cmd, capture_output=True)
        except FileNotFoundError as e:
            raise MissingEncoderError(f"encoder executable not found: {e}") from e
        if proc.returncode != 0:
            raise EncoderFailedError(
                f"encoder exited {proc.returncode}: {proc.stderr.decode(errors='replace')[:500]}"
            )
        y = load_wav(out_path)
    return resample(y, w.sample_rate) if y.sample_rate != w.sample_rate else y


def degraded_name(source_id: str, c: DegradationCondition) -> str:
    return f"{source_id}__{c.family}_l{c.level_index}.wav"


def clean_name(source_id: str) -> str:
    return f"{source_id}__clean.wav"


def source_id_of(path) -> str:
    """The source id of a clip named by ``degraded_name`` or ``clean_name``."""
    return Path(path).stem.rsplit("__", 1)[0]


def synth_dataset(
    clean_dir,
    out_dir,
    seed: int = 0,
    families=DEFAULT_FAMILIES,
    noise_kind: str = DEFAULT_NOISE_KIND,
    external_codec_cmd: str | None = None,
    jobs: int = 1,
) -> list[ManifestRow]:
    """Render every (family, level) per source, compute NSIM against the clean
    counterpart, and write ``manifest.csv`` plus all WAVs under out_dir.

    Per-file failures are skipped with a warning; an empty result is an error.
    Repeated or unknown families, an unknown noise kind, a missing or malformed
    external codec template (when that family is asked for) or a clean_dir
    without WAV files are rejected before anything is written.
    """
    _check_positive_int("jobs", jobs)
    if not families or len(LEVEL_TABLES.keys() & set(families)) < len(families):
        raise NomadError(f"families must be distinct names from {sorted(LEVEL_TABLES)}, "
                         f"got {list(families)}")
    _noise_generator(noise_kind)
    if "external_codec" in families:
        _external_codec_argv(external_codec_cmd, "in.wav", "out.wav", LEVEL_TABLES["external_codec"][0])
    sources = wav_files(clean_dir)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    conditions = [
        DegradationCondition(fam, i)
        for fam in families
        for i in range(len(LEVEL_TABLES[fam]))
    ]

    def render_source(src: Path) -> list[ManifestRow]:
        source_id = src.stem
        clean_path = out_dir / clean_name(source_id)
        try:
            # the clean clip as written (16-bit) is every condition's input and NSIM
            # reference; its rFFT and NSIM patch statistics are shared by them all
            clean = _analyzed(save_wav(resample(load_wav(src), CANONICAL_RATE), clean_path))
            reference = prepare_reference(log_band_spectrogram(clean))
        except Exception as e:  # noqa: BLE001 - skip-and-log policy
            clean_path.unlink(missing_ok=True)  # a skipped source leaves no file
            log.warning("skipping source %s: %s", src, e)
            return []
        rows = [ManifestRow(str(clean_path), source_id, CLEAN_FAMILY, 0, 0.0, 1.0)]
        for c in conditions:
            path = out_dir / degraded_name(source_id, c)
            try:
                deg = apply_condition(
                    clean, c, seed, source_id,
                    noise_kind=noise_kind,
                    external_codec_cmd=external_codec_cmd,
                    workdir=out_dir,
                )
                # NSIM measured on what lands on disk (post 16-bit quantization)
                q = utterance_nsim(reference, save_wav(deg, path))
                rows.append(ManifestRow(str(path), source_id, c.family, c.level_index, c.level_param, q))
            except Exception as e:  # noqa: BLE001 - skip-and-log policy
                path.unlink(missing_ok=True)  # a skipped condition leaves no file
                log.warning("skipping %s %s level %d: %s", source_id, c.family, c.level_index, e)
        return rows

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as ex:
            per_source = list(ex.map(render_source, sources))
    else:
        per_source = [render_source(s) for s in sources]

    rows = [r for rs in per_source for r in rs]
    if not rows or all(len(rs) <= 1 for rs in per_source):
        raise EmptyCorpusError("all degradation syntheses failed")
    write_manifest(rows, out_dir / "manifest.csv")
    return rows


def write_manifest(rows: list[ManifestRow], path) -> None:
    write_table(path, ManifestRow, rows)


def read_manifest(path) -> list[ManifestRow]:
    return read_table(path, ManifestRow)
