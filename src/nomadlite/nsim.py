"""Neurogram similarity (NSIM) between clean and degraded spectrograms.

Patchwise luminance x structure scores averaged into an utterance score.
Constants follow the SSIM convention with the same C1 in numerator and
denominator of the luminance term, so a signal scores exactly 1 against
itself: C1 = 0.01*L, C3 = (0.03*L)^2 with L the reference intensity range.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .audio_core import Spectrogram, Waveform, log_band_spectrogram
from .errors import PatchTooLargeError, ShapeMismatchError

log = logging.getLogger(__name__)

C1_SCALE = 0.01
C23_SCALE = 0.03
PATCH_T = 3  # frames per patch
PATCH_B = 3  # bands per patch


@dataclass
class NsimScore:
    utterance: float
    patch_scores: np.ndarray  # clamped to [0, 1]
    max_excursion: float = 0.0  # largest pre-clamp overshoot beyond [0, 1]


def _box_mean(a, pt=PATCH_T, pb=PATCH_B):
    """Mean of ``a`` over every pt x pb window (stride 1)."""
    tt = a.shape[0] - pt + 1
    bb = a.shape[1] - pb + 1
    # separable window sum, band taps first and then time taps: up to 7x7,
    # with more than one window across the bands, this order gives the same
    # bits as numpy's sum over a 4-d sliding-window view
    h = a[:, 0:bb]
    for j in range(1, pb):
        h = h + a[:, j : j + bb]
    s = h[0:tt]
    for i in range(1, pt):
        s = s + h[i : i + tt]
    return s / (pt * pb)


def _patch_moments(a, pt=PATCH_T, pb=PATCH_B):
    """Per-window population mean and variance of ``a``."""
    mu = _box_mean(a, pt, pb)
    return mu, _box_mean(a * a, pt, pb) - mu * mu


@dataclass(frozen=True)
class NsimReference:
    """A reference spectrogram prepared for NSIM: its values, intensity range
    L and per-patch mean and sigma. Every clip scored against one reference
    shares them; only ``prepare_reference`` makes one."""

    values: np.ndarray
    L: float
    mu: np.ndarray
    sigma: np.ndarray


def prepare_reference(ref: Spectrogram) -> NsimReference:
    """``ref`` with the statistics that every clip scored against it reads."""
    r = ref.values
    if r.shape[0] < PATCH_T or r.shape[1] < PATCH_B:
        raise PatchTooLargeError(f"patch {PATCH_T}x{PATCH_B} exceeds spectrogram {r.shape}")
    mu, var = _patch_moments(r)
    return NsimReference(r, float(r.max() - r.min()), mu, np.sqrt(np.maximum(var, 0.0)))


def _score(ref: NsimReference, d: np.ndarray) -> NsimScore:
    """NSIM of degraded values ``d``, shaped like ``ref.values``."""
    r = ref.values
    if ref.L == 0.0:
        # constant reference: similarity is all-or-nothing
        log.warning("constant reference spectrogram; NSIM degenerates to equality check")
        q = 1.0 if np.array_equal(r, d) else 0.0
        return NsimScore(q, np.full(ref.mu.shape, q))

    mu_r = ref.mu
    mu_d, var_d = _patch_moments(d)
    cov = _box_mean(r * d) - mu_r * mu_d
    sig_d = np.sqrt(np.maximum(var_d, 0.0))
    c1 = C1_SCALE * ref.L
    c3 = (C23_SCALE * ref.L) ** 2
    luminance = (2 * mu_r * mu_d + c1) / (mu_r**2 + mu_d**2 + c1)
    structure = (cov + c3) / (ref.sigma * sig_d + c3)
    q = luminance * structure

    # excursion tracks overshoot above 1 (patch level) and out-of-range
    # utterance means; negative patch scores are expected for anticorrelated
    # structure and simply clamp to 0
    utt_raw = float(np.mean(q))
    excursion = max(float(np.max(q)) - 1.0, -utt_raw, utt_raw - 1.0, 0.0)
    if excursion > 0:
        log.debug("NSIM pre-clamp excursion %.4g beyond [0,1]", excursion)
    patch_scores = np.clip(q, 0.0, 1.0)
    utterance = float(min(max(utt_raw, 0.0), 1.0))
    return NsimScore(utterance, patch_scores, excursion)


def nsim(ref: Spectrogram, deg: Spectrogram) -> NsimScore:
    """NSIM over PATCH_T x PATCH_B patches, with the intensity range L taken
    from the reference."""
    if ref.values.shape != deg.values.shape:
        raise ShapeMismatchError(f"spectrogram shapes differ: {ref.values.shape} vs {deg.values.shape}")
    return _score(prepare_reference(ref), deg.values)


def utterance_nsim(ref: Waveform | NsimReference, deg_wav: Waveform) -> float:
    """NSIM of two waveforms through the shared front-end, trimmed to the
    common frame count (frame counts may differ by at most one).

    ``ref`` may also be prepared by ``prepare_reference`` from the
    reference's ``log_band_spectrogram``, so that many clips scored against
    one reference share its front-end pass and patch statistics. When the
    degraded clip is a frame shorter, the reference is prepared again from
    its trimmed values."""
    r = ref.values if isinstance(ref, NsimReference) else log_band_spectrogram(ref).values
    d = log_band_spectrogram(deg_wav).values
    t = min(r.shape[0], d.shape[0])
    if max(r.shape[0], d.shape[0]) - t > 1:
        raise ShapeMismatchError(f"frame counts differ by more than one: {r.shape[0]} vs {d.shape[0]}")
    if not isinstance(ref, NsimReference) or r.shape[0] > t:
        ref = prepare_reference(Spectrogram(r[:t]))
    return _score(ref, d[:t]).utterance
