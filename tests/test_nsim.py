import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from conftest import make_utterance
from nomadlite.audio_core import Spectrogram, Waveform, log_band_spectrogram
from nomadlite.degrade import (
    DEFAULT_FAMILIES,
    LEVEL_TABLES,
    DegradationCondition,
    apply_condition,
    mix_noise_at_snr,
    white_noise,
)
from nomadlite.errors import PatchTooLargeError, ShapeMismatchError
from nomadlite.nsim import _box_mean, _patch_moments, nsim, prepare_reference, utterance_nsim


def spec_of(values):
    return Spectrogram(np.asarray(values, dtype=float))


def patch_stats(ref, deg, pt, pb):
    """The five per-patch statistics NSIM reads, from nsim's own helpers."""
    mu_r, var_r = _patch_moments(ref, pt, pb)
    mu_d, var_d = _patch_moments(deg, pt, pb)
    return mu_r, mu_d, var_r, var_d, _box_mean(ref * deg, pt, pb) - mu_r * mu_d


def windowed_patch_stats(ref, deg, pt, pb):
    """Reference: the full-window reduction that the box sums replaced."""
    n = pt * pb
    wr = sliding_window_view(ref, (pt, pb))
    wd = sliding_window_view(deg, (pt, pb))
    mu_r = wr.mean(axis=(2, 3))
    mu_d = wd.mean(axis=(2, 3))
    var_r = (wr * wr).sum(axis=(2, 3)) / n - mu_r * mu_r
    var_d = (wd * wd).sum(axis=(2, 3)) / n - mu_d * mu_d
    cov = (wr * wd).sum(axis=(2, 3)) / n - mu_r * mu_d
    return mu_r, mu_d, var_r, var_d, cov


@pytest.fixture(scope="module")
def desk_pairs():
    """(reference, degraded) spectrogram values of one desk source against
    each of its 20 degraded clips, trimmed to the common frame count."""
    u = make_utterance(3)
    ref = log_band_spectrogram(u).values
    pairs = []
    for fam in DEFAULT_FAMILIES:
        for i in range(len(LEVEL_TABLES[fam])):
            deg = apply_condition(u, DegradationCondition.from_table(fam, i), 1, "src")
            d = log_band_spectrogram(deg).values
            t = min(len(ref), len(d))
            pairs.append((ref[:t], d[:t]))
    return pairs


class TestPatchStats:
    @pytest.mark.parametrize("pt,pb", [(1, 1), (3, 3), (3, 5), (5, 3), (7, 7)])
    def test_bit_identical_to_windowed_on_desk(self, desk_pairs, pt, pb):
        for ref, deg in desk_pairs:
            for a, b in zip(patch_stats(ref, deg, pt, pb), windowed_patch_stats(ref, deg, pt, pb)):
                assert np.array_equal(a, b)

    def test_large_patch_within_tolerance_on_desk(self, desk_pairs):
        # at 8 or more taps along an axis, numpy's pairwise summation
        # regroups the windowed reduction's additions
        for ref, deg in desk_pairs:
            for a, b in zip(patch_stats(ref, deg, 9, 11), windowed_patch_stats(ref, deg, 9, 11)):
                assert np.max(np.abs(a - b)) <= 1e-12

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=12),
        st.sampled_from([1, 3, 5, 7]),
        st.sampled_from([1, 3, 5, 7]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_windowed_on_random(self, seed, t, b, pt, pb):
        rng = np.random.default_rng(seed)
        ref = rng.standard_normal((t + pt - 1, b + pb - 1)) * 3.0
        deg = ref + rng.standard_normal(ref.shape)
        for a, w in zip(patch_stats(ref, deg, pt, pb), windowed_patch_stats(ref, deg, pt, pb)):
            assert a.shape == w.shape == (t, b)
            if b > 1:
                assert np.array_equal(a, w)
            else:
                # one window across all bands: numpy then sums the window
                # row-major, in another order than band taps then time taps
                np.testing.assert_allclose(a, w, rtol=1e-12, atol=1e-12)


class TestNsim:
    def test_equals_patch_formula_on_desk(self, desk_pairs):
        # the prepared reference changes where the reference's statistics are
        # computed, not the score: every patch, the utterance mean and the
        # excursion match the formula over windowed statistics bit for bit
        for ref, deg in desk_pairs:
            mu_r, mu_d, var_r, var_d, cov = windowed_patch_stats(ref, deg, 3, 3)
            L = ref.max() - ref.min()
            c1, c3 = 0.01 * L, (0.03 * L) ** 2
            luminance = (2 * mu_r * mu_d + c1) / (mu_r**2 + mu_d**2 + c1)
            sigmas = np.sqrt(np.maximum(var_r, 0.0)) * np.sqrt(np.maximum(var_d, 0.0))
            q = luminance * ((cov + c3) / (sigmas + c3))
            score = nsim(spec_of(ref), spec_of(deg))
            utt = float(np.mean(q))
            assert np.array_equal(score.patch_scores, np.clip(q, 0.0, 1.0))
            assert score.utterance == min(max(utt, 0.0), 1.0)
            assert score.max_excursion == max(float(np.max(q)) - 1.0, -utt, utt - 1.0, 0.0)

    def test_identity_is_one(self):
        rng = np.random.default_rng(0)
        s = spec_of(rng.standard_normal((20, 8)))
        score = nsim(s, s)
        assert abs(score.utterance - 1.0) < 1e-9
        assert np.all(np.abs(score.patch_scores - 1.0) < 1e-9)

    def test_checkerboard_patch_hand_value(self):
        # one 3x3 patch, the 0/1 checkerboard against itself halved, so the
        # reference's intensity range L is 1: mu 4/9 and 2/9, var 20/81 and
        # 5/81, cov 10/81 = sigma_r * sigma_d, so structure is 1 and
        # luminance (16/81 + 0.01) / (20/81 + 0.01)
        board = np.indices((3, 3)).sum(axis=0) % 2
        score = nsim(spec_of(board), spec_of(board / 2))
        expected = (16 / 81 + 0.01) / (20 / 81 + 0.01)
        assert abs(score.utterance - expected) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            nsim(spec_of(np.ones((4, 4))), spec_of(np.ones((5, 4))))

    def test_patch_too_large(self):
        with pytest.raises(PatchTooLargeError):
            nsim(spec_of(np.ones((2, 2))), spec_of(np.ones((2, 2))))

    def test_constant_reference_degenerate(self):
        ref = spec_of(np.zeros((5, 5)))
        assert nsim(ref, spec_of(np.zeros((5, 5)))).utterance == 1.0
        assert nsim(ref, spec_of(np.ones((5, 5)))).utterance == 0.0

    def test_utterance_equals_mean_of_patches_before_clamp(self):
        rng = np.random.default_rng(1)
        ref = spec_of(rng.standard_normal((12, 6)))
        deg = spec_of(ref.values + 0.1 * rng.standard_normal((12, 6)))
        score = nsim(ref, deg)
        if score.max_excursion == 0.0:
            assert abs(score.utterance - np.mean(score.patch_scores)) < 1e-12

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        ref = spec_of(rng.standard_normal((8, 5)))
        deg = spec_of(rng.standard_normal((8, 5)))
        score = nsim(ref, deg)
        assert 0.0 <= score.utterance <= 1.0
        assert np.all(score.patch_scores >= 0.0)
        assert np.all(score.patch_scores <= 1.0)

    def test_determinism(self):
        rng = np.random.default_rng(2)
        ref = spec_of(rng.standard_normal((10, 6)))
        deg = spec_of(rng.standard_normal((10, 6)))
        a = nsim(ref, deg)
        b = nsim(ref, deg)
        assert a.utterance == b.utterance
        assert np.array_equal(a.patch_scores, b.patch_scores)


class TestUtteranceNsim:
    def test_identical_waveforms(self):
        u = make_utterance(3)
        assert abs(utterance_nsim(u, u) - 1.0) < 1e-9

    def test_zero_reference_regression(self):
        # frozen regression value: all-floor degraded spectrogram scores 0
        u = make_utterance(0)
        zero = Waveform(np.zeros(len(u.samples)), u.sample_rate)
        value = utterance_nsim(u, zero)
        assert value < 0.5
        assert value == 0.0

    def test_snr_levels_strictly_increasing(self):
        u = make_utterance(4)
        noise = Waveform(white_noise(len(u.samples), np.random.default_rng(9)), u.sample_rate)
        scores = [utterance_nsim(u, mix_noise_at_snr(u, noise, snr)) for snr in (0, 8, 15, 25, 40)]
        assert all(a < b for a, b in zip(scores, scores[1:]))

    def test_noisier_is_less_similar(self):
        u = make_utterance(5)
        noise = Waveform(white_noise(len(u.samples), np.random.default_rng(10)), u.sample_rate)
        assert utterance_nsim(u, mix_noise_at_snr(u, noise, 0)) < utterance_nsim(
            u, mix_noise_at_snr(u, noise, 40)
        )

    def test_spectrogram_reference_equals_waveform_reference(self):
        # a reference prepared from the spectrogram scores every clip as the
        # waveform does: equal frame counts, the degraded clip a frame
        # shorter (the reference is prepared again from its trimmed values)
        # or a frame longer, and a constant reference
        u = make_utterance(8)
        silent = Waveform(np.zeros(len(u.samples)), u.sample_rate)
        noise = Waveform(white_noise(len(u.samples), np.random.default_rng(12)), u.sample_rate)
        noisy = mix_noise_at_snr(u, noise, 8)
        frames = log_band_spectrogram(u).values.shape[0]
        cases = [
            (u, noisy, 0),
            (u, Waveform(noisy.samples[:-160], u.sample_rate), -1),
            (u, Waveform(np.concatenate([noisy.samples, noise.samples[:160]]), u.sample_rate), 1),
            (silent, noisy, 0),
            (silent, silent, 0),
        ]
        for ref, deg, extra in cases:
            assert log_band_spectrogram(deg).values.shape[0] == frames + extra
            prepared = prepare_reference(log_band_spectrogram(ref))
            assert utterance_nsim(prepared, deg) == utterance_nsim(ref, deg)

    def test_spectrogram_reference_keeps_frame_rule(self):
        u = make_utterance(9)
        with pytest.raises(ShapeMismatchError):
            utterance_nsim(prepare_reference(log_band_spectrogram(u)), Waveform(u.samples[:-480], u.sample_rate))

    def test_prepared_reference_too_short_for_a_patch(self):
        with pytest.raises(PatchTooLargeError):
            prepare_reference(spec_of(np.ones((2, 5))))

    def test_frame_trim_tolerates_one_hop(self):
        u = make_utterance(6)
        shorter = Waveform(u.samples[:-150], u.sample_rate)
        value = utterance_nsim(u, shorter)
        assert 0.0 <= value <= 1.0

    def test_excursions_small_on_degraded_speech(self):
        u = make_utterance(7)
        noise = Waveform(white_noise(len(u.samples), np.random.default_rng(11)), u.sample_rate)
        deg = mix_noise_at_snr(u, noise, 15)
        score = nsim(log_band_spectrogram(u), log_band_spectrogram(deg))
        assert score.max_excursion < 0.02
