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


def _patch_stats(ref, deg, pt, pb):
    """Per-patch population mean/var/cov over all pt x pb windows (stride 1)."""
    n = pt * pb
    tt = ref.shape[0] - pt + 1
    bb = ref.shape[1] - pb + 1

    def box_sum(a):
        # separable window sum, band taps first and then time taps: up to
        # 7x7, with more than one window across the bands, this order gives
        # the same bits as numpy's sum over a 4-d sliding-window view
        h = a[:, 0:bb]
        for j in range(1, pb):
            h = h + a[:, j : j + bb]
        s = h[0:tt]
        for i in range(1, pt):
            s = s + h[i : i + tt]
        return s

    mu_r = box_sum(ref) / n
    mu_d = box_sum(deg) / n
    var_r = box_sum(ref * ref) / n - mu_r * mu_r
    var_d = box_sum(deg * deg) / n - mu_d * mu_d
    cov = box_sum(ref * deg) / n - mu_r * mu_d
    return mu_r, mu_d, var_r, var_d, cov


def nsim(ref: Spectrogram, deg: Spectrogram) -> NsimScore:
    """NSIM over PATCH_T x PATCH_B patches, with the intensity range L taken
    from the reference."""
    r = ref.values
    d = deg.values
    if r.shape != d.shape:
        raise ShapeMismatchError(f"spectrogram shapes differ: {r.shape} vs {d.shape}")
    if r.shape[0] < PATCH_T or r.shape[1] < PATCH_B:
        raise PatchTooLargeError(f"patch {PATCH_T}x{PATCH_B} exceeds spectrogram {r.shape}")

    L = float(r.max() - r.min())
    if L == 0.0:
        # constant reference: similarity is all-or-nothing
        log.warning("constant reference spectrogram; NSIM degenerates to equality check")
        q = 1.0 if np.array_equal(r, d) else 0.0
        shape = (r.shape[0] - PATCH_T + 1, r.shape[1] - PATCH_B + 1)
        return NsimScore(q, np.full(shape, q))

    mu_r, mu_d, var_r, var_d, cov = _patch_stats(r, d, PATCH_T, PATCH_B)
    sig_r = np.sqrt(np.maximum(var_r, 0.0))
    sig_d = np.sqrt(np.maximum(var_d, 0.0))
    c1 = C1_SCALE * L
    c3 = (C23_SCALE * L) ** 2
    luminance = (2 * mu_r * mu_d + c1) / (mu_r**2 + mu_d**2 + c1)
    structure = (cov + c3) / (sig_r * sig_d + c3)
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


def utterance_nsim(ref: Waveform | Spectrogram, deg_wav: Waveform) -> float:
    """NSIM of two waveforms through the shared front-end, trimmed to the
    common frame count (frame counts may differ by at most one).

    ``ref`` may also be the reference's ``log_band_spectrogram``, so that
    many clips scored against one reference share its front-end pass."""
    sr = ref if isinstance(ref, Spectrogram) else log_band_spectrogram(ref)
    sd = log_band_spectrogram(deg_wav)
    t = min(sr.values.shape[0], sd.values.shape[0])
    if max(sr.values.shape[0], sd.values.shape[0]) - t > 1:
        raise ShapeMismatchError(
            f"frame counts differ by more than one: {sr.values.shape[0]} vs {sd.values.shape[0]}"
        )
    return nsim(Spectrogram(sr.values[:t]), Spectrogram(sd.values[:t])).utterance
