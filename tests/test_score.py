from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL, TINY
from nomadlite import net
from nomadlite import score as score_module
from nomadlite.audio_core import Waveform, load_wav, log_band_spectrogram, save_wav
from nomadlite.errors import EmptyPoolError, ShapeMismatchError
from nomadlite.net import EmbeddingModel, EncoderConfig, _backward, _forward, _prepare, embed, init_model
from nomadlite.score import (
    ReferencePool,
    ScoreRow,
    _embed_wav,
    feature_loss,
    feature_loss_spec,
    full_reference_score,
    nomad_distance,
    pooled_score,
    read_scores,
    write_scores,
)
from nomadlite.train import _sgd_step


@pytest.fixture(scope="module")
def model():
    return init_model(SMALL)


def wav(seed, duration_s=0.3, sr=16000):
    rng = np.random.default_rng(seed)
    n = int(duration_s * sr)
    t = np.arange(n) / sr
    x = 0.4 * np.sin(2 * np.pi * (120 + 30 * seed % 7) * t)
    x += 0.1 * rng.standard_normal(n)
    return Waveform(np.clip(x, -1, 1), sr)


class TestDistance:
    def test_identity_zero(self, model):
        w = wav(0)
        assert nomad_distance(model, w, w) == 0.0

    def test_symmetric(self, model):
        a, b = wav(1), wav(2)
        assert nomad_distance(model, a, b) == nomad_distance(model, b, a)

    def test_bounded_by_two(self, model):
        for s in range(5):
            assert nomad_distance(model, wav(s), wav(s + 10)) <= 2.0 + 1e-12

    def test_matches_dot_product_form(self, model):
        # unit embeddings: d = sqrt(2 - 2 e1.e2)
        a, b = wav(3), wav(4)
        ea, eb = _embed_wav(model, a), _embed_wav(model, b)
        expect = np.sqrt(max(0.0, 2.0 - 2.0 * float(ea @ eb)))
        assert nomad_distance(model, a, b) == pytest.approx(expect, abs=1e-12)

    @given(st.lists(st.integers(0, 500), min_size=3, max_size=3, unique=True))
    @settings(max_examples=15, deadline=None)
    def test_triangle_inequality(self, seeds):
        model = init_model(SMALL)
        a, b, c = (wav(s) for s in seeds)
        ab = nomad_distance(model, a, b)
        bc = nomad_distance(model, b, c)
        ac = nomad_distance(model, a, c)
        assert ac <= ab + bc + 1e-12

    def test_full_reference_is_pairwise(self, model):
        a, b = wav(5), wav(6)
        assert full_reference_score(model, a, b) == nomad_distance(model, a, b)

    @pytest.mark.parametrize("durations", [(0.7, 0.7), (0.7, 1.1)], ids=["equal", "ragged"])
    def test_is_the_norm_of_two_embed_calls(self, durations):
        # one embed_batch call over both clips gives each clip's own embedding bits
        model = init_model(EncoderConfig())
        a, b = wav(7, durations[0]), wav(8, durations[1])
        e_a, e_b = (embed(model, log_band_spectrogram(w)) for w in (a, b))
        assert nomad_distance(model, a, b) == float(np.linalg.norm(e_a - e_b, axis=-1))


class TestPool:
    def test_empty_pool(self, model):
        with pytest.raises(EmptyPoolError):
            pooled_score(model, wav(0), ReferencePool([], "p"))

    def test_single_reference_equals_distance(self, model):
        for ref, test in [(wav(7), wav(8))] + [(wav(s), wav(s + 1)) for s in range(0, 10, 2)]:
            pool = ReferencePool([ref], "p1")
            assert pooled_score(model, test, pool) == nomad_distance(model, test, ref)

    def test_mean_over_members(self, model):
        refs = [wav(s) for s in (10, 11, 12)]
        test = wav(13)
        pool = ReferencePool(refs, "p")
        expect = np.mean([nomad_distance(model, test, r) for r in refs])
        assert pooled_score(model, test, pool) == expect

    def test_mean_over_ragged_members_is_exact(self):
        # the default encoder, references of four lengths (three of 0.7 s share a forward)
        model = init_model(EncoderConfig())
        refs = [wav(s, duration_s=d) for s, d in zip(range(40, 46), (0.7, 1.1, 0.7, 0.4, 1.3, 0.7))]
        pool = ReferencePool(refs, "ragged")
        for test in [refs[3]] + [wav(s, duration_s=0.7 if s % 2 else 0.3) for s in range(46, 56)]:
            expect = np.mean([nomad_distance(model, test, r) for r in refs])
            assert pooled_score(model, test, pool) == expect

    def test_order_invariance(self, model):
        refs = [wav(s) for s in (20, 21, 22, 23)]
        test = wav(24)
        a = pooled_score(model, test, ReferencePool(refs, "p"))
        b = pooled_score(model, test, ReferencePool(refs[::-1], "p"))
        assert a == pytest.approx(b, abs=1e-15)

    def test_embeddings_cached_per_model(self, model):
        pool = ReferencePool([wav(30)], "p")
        e1 = pool.embeddings(model)
        e2 = pool.embeddings(model)
        assert e1 is e2
        other = init_model(replace(SMALL, init_seed=1))
        assert pool.embeddings(other) is not e1


class TestPoolCache:
    """The pool's cached embeddings are only ever those of the model asked."""

    def test_same_parameters_other_config_is_a_miss(self, model):
        refs = [wav(s) for s in (50, 51, 52)]
        test = wav(53)
        pool = ReferencePool(refs, "p")
        pooled_score(model, test, pool)
        strided = EmbeddingModel(model.parameters.copy(), replace(model.config, stride=3))
        expect = np.mean([nomad_distance(strided, test, r) for r in refs])
        assert abs(pooled_score(strided, test, pool) - expect) <= 1e-12

    @pytest.mark.parametrize("edit", ["one_weight_in_place", "sgd_step"])
    def test_parameter_edit_is_a_miss(self, edit):
        model = init_model(SMALL)
        pool = ReferencePool([wav(60), wav(61)], "p")
        before = pool.embeddings(model).copy()
        if edit == "one_weight_in_place":
            model.parameters[-1] += 0.5  # a head bias: moves every embedding
        else:
            rng = np.random.default_rng(0)
            _sgd_step(model, rng.standard_normal(model.parameters.size), 1e-2)
        after = pool.embeddings(model)
        assert not np.allclose(after, before)
        assert np.array_equal(after, ReferencePool(pool.references, "p").embeddings(model))

    def test_cache_is_not_an_init_argument(self, model):
        with pytest.raises(TypeError):
            ReferencePool([wav(70)], "p", None, {})
        pool = ReferencePool([wav(70)], "p")
        pool.embeddings(model)
        assert "_cache" not in repr(pool)


def test_config_reassigned_on_the_same_model_is_a_pool_miss(model):
    # stride is not part of the prepared weights, so only the memo's config
    # check keeps the pool from returning the old stride's embeddings
    strided = EmbeddingModel(model.parameters.copy(), model.config)
    pool = ReferencePool([wav(83), wav(84)], "p")
    before = pool.embeddings(strided).copy()
    strided.config = replace(model.config, stride=3)
    after = pool.embeddings(strided)
    assert not np.allclose(after, before)
    fresh = EmbeddingModel(model.parameters.copy(), strided.config)
    assert np.array_equal(after, ReferencePool(pool.references, "p").embeddings(fresh))


def test_warm_pooled_score_prepares_and_embeds_no_pool(monkeypatch):
    model = init_model(SMALL)
    pool = ReferencePool([wav(80), wav(81)], "p")
    test = wav(82)
    cold = pooled_score(model, test, pool)
    calls = []
    prepare, pool_embed_batch = net._prepare, score_module.embed_batch
    monkeypatch.setattr(net, "_prepare", lambda *a: calls.append("_prepare") or prepare(*a))
    monkeypatch.setattr(score_module, "embed_batch",
                        lambda *a: calls.append("embed_batch") or pool_embed_batch(*a))
    assert pooled_score(model, test, pool) == cold
    assert calls == []


class TestFeatureLoss:
    def test_identity_zero(self):
        model = init_model(TINY)
        v = np.random.default_rng(0).standard_normal((15, 2))
        loss, grad = feature_loss_spec(model, v, v.copy())
        assert loss == 0.0
        assert grad.shape == v.shape

    def test_positive_for_distinct(self):
        model = init_model(TINY)
        rng = np.random.default_rng(1)
        loss, _ = feature_loss_spec(model, rng.standard_normal((15, 2)),
                                    rng.standard_normal((15, 2)))
        assert loss > 0.0

    def test_symmetric_loss(self):
        model = init_model(TINY)
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((12, 2)), rng.standard_normal((12, 2))
        la, _ = feature_loss_spec(model, a, b)
        lb, _ = feature_loss_spec(model, b, a)
        assert la == pytest.approx(lb, abs=1e-12)

    def test_finite_difference(self):
        model = init_model(TINY)
        rng = np.random.default_rng(3)
        clean = rng.standard_normal((10, 2))
        est = rng.standard_normal((10, 2))
        _, grad = feature_loss_spec(model, clean, est)
        h = 1e-7
        worst = 0.0
        for i in range(est.shape[0]):
            for j in range(est.shape[1]):
                ep, em = est.copy(), est.copy()
                ep[i, j] += h
                em[i, j] -= h
                fd = (feature_loss_spec(model, clean, ep)[0]
                      - feature_loss_spec(model, clean, em)[0]) / (2 * h)
                denom = max(abs(fd), abs(grad[i, j]), 1e-4)
                worst = max(worst, abs(fd - grad[i, j]) / denom)
        assert worst < 1e-4

    def test_waveform_wrapper_trims(self, model):
        # different durations are trimmed to the common frame count
        loss, grad = feature_loss(model, wav(40, 0.30), wav(41, 0.33))
        assert np.isfinite(loss) and loss > 0
        assert grad.shape[1] == 32


@pytest.fixture
def loaded(tmp_path):
    """``load(seed)``: the clip ``wav(seed)`` as read back from a WAV file."""
    def load(seed):
        save_wav(wav(seed), tmp_path / f"{seed}.wav")
        return load_wav(tmp_path / f"{seed}.wav")
    return load


def writable_copy(w):
    return Waveform(w.samples.copy(), w.sample_rate)


class TestFrontEndOncePerClip:
    """Loaded clips carry their spectrograms through every score call."""

    def test_feature_loss_after_distance_reuses_both_spectrograms(self, model, loaded, front_end_passes):
        clean, est = loaded(90), loaded(91)
        distance = full_reference_score(model, est, clean)
        loss, grad = feature_loss(model, clean, est)
        assert front_end_passes == [id(est), id(clean)]
        assert distance == nomad_distance(model, writable_copy(est), writable_copy(clean))
        loss_w, grad_w = feature_loss(model, writable_copy(clean), writable_copy(est))
        assert loss == loss_w and np.array_equal(grad, grad_w)

    def test_feature_loss_loop_computes_the_clean_spectrogram_once(self, model, loaded, front_end_passes):
        clean = loaded(92)
        estimates = [loaded(s) for s in range(93, 98)]
        losses = [feature_loss(model, clean, e)[0] for e in estimates]
        assert front_end_passes == [id(w) for w in [clean, *estimates]]
        assert losses == [feature_loss(model, writable_copy(clean), writable_copy(e))[0]
                          for e in estimates]

    def test_pool_reembeds_after_an_sgd_step_without_the_front_end(self, loaded, front_end_passes):
        model = init_model(SMALL)
        pool = ReferencePool([loaded(98), loaded(99)], "p")
        before = pool.embeddings(model).copy()
        assert len(front_end_passes) == 2
        _sgd_step(model, np.random.default_rng(0).standard_normal(model.parameters.size), 1e-2)
        after = pool.embeddings(model)
        assert len(front_end_passes) == 2
        assert not np.allclose(after, before)
        fresh = ReferencePool([writable_copy(w) for w in pool.references], "p")
        assert np.array_equal(after, fresh.embeddings(model))


def two_forward_feature_loss(model, clean_values, est_values):
    """The feature loss as two N = 1 forwards, one per clip: the reference
    that the stacked forward of ``feature_loss_spec`` is held to."""
    cfg = model.config
    weights = _prepare(model.parameters, cfg)
    e_c, cache_c = _forward(weights, cfg, [clean_values])
    e_e, cache_e = _forward(weights, cfg, [est_values])
    loss = 0.0
    layer_grads = []
    for a_c, a_e in zip(cache_c["xs"][1:], cache_e["xs"][1:]):
        t = a_e.shape[1]
        diff = a_e - a_c
        loss += float(np.sum(np.abs(diff))) / t
        layer_grads.append(np.sign(diff) / t)
    emb_diff = e_e - e_c
    loss += float(np.sum(np.abs(emb_diff)))
    input_grad = _backward(cache_e, cfg, np.sign(emb_diff), layer_grads=layer_grads)
    return loss, input_grad[0, : len(est_values)]


class TestStackedFeatureLoss:
    # the default encoder's min_frames is 61, so 5, 15 and 60 frames are padded
    @pytest.mark.parametrize("frames", [5, 15, 60, 61, 298])
    @pytest.mark.parametrize("cfg", [EncoderConfig(), TINY], ids=["default", "tiny"])
    def test_matches_two_forwards(self, cfg, frames):
        model = init_model(cfg)
        rng = np.random.default_rng(frames)
        clean = rng.standard_normal((frames, cfg.bands))
        est = clean + 0.5 * rng.standard_normal((frames, cfg.bands))
        loss, grad = feature_loss_spec(model, clean, est)
        ref_loss, ref_grad = two_forward_feature_loss(model, clean, est)
        assert ref_loss > 0 and grad.shape == ref_grad.shape == est.shape
        assert abs(loss - ref_loss) <= 1e-12 * ref_loss
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))

    def test_computes_no_parameter_gradient(self, monkeypatch):
        calls = []
        conv1d_backward = net._conv1d_backward

        def counting_conv1d_backward(*args, **kwargs):
            calls.append(args)
            return conv1d_backward(*args, **kwargs)

        monkeypatch.setattr(net, "_conv1d_backward", counting_conv1d_backward)
        model = init_model(TINY)
        rng = np.random.default_rng(6)
        clean = rng.standard_normal((40, TINY.bands))
        loss, grad = feature_loss_spec(model, clean, clean + 0.5 * rng.standard_normal(clean.shape))
        assert loss > 0 and np.any(grad != 0)
        assert calls == []
        # the counter does see a training backward: one call per conv layer
        e, cache = _forward(_prepare(model.parameters, TINY), TINY, [clean])
        _backward(cache, TINY, np.ones_like(e), grad=np.zeros(TINY.param_count))
        assert len(calls) == len(TINY.conv_channels)

    @pytest.mark.parametrize("est_shape", [(14, 2), (16, 2), (15, 3)])
    def test_unequal_shapes_rejected(self, est_shape):
        rng = np.random.default_rng(4)
        with pytest.raises(ShapeMismatchError):
            feature_loss_spec(init_model(TINY), rng.standard_normal((15, 2)),
                              rng.standard_normal(est_shape))


class TestScoreCsv:
    def test_roundtrip(self, tmp_path):
        rows = [ScoreRow("a__clip_l0.wav", 0.1234567890123, "nmr", "poolA"),
                ScoreRow("b__noise_l4.wav", 1.5, "fr", "b__clean.wav")]
        path = tmp_path / "s.csv"
        write_scores(rows, path)
        assert path.read_bytes() == (
            b"clip_path,nomad,mode,pool_id\n"
            b"a__clip_l0.wav,0.123456789012,nmr,poolA\n"
            b"b__noise_l4.wav,1.500000000000,fr,b__clean.wav\n"
        )
        back = read_scores(path)
        assert [r.clip_path for r in back] == [r.clip_path for r in rows]
        assert back[0].nomad == pytest.approx(rows[0].nomad, abs=1e-12)
        assert (back[1].mode, back[1].pool_id) == ("fr", "b__clean.wav")

    def test_header_and_determinism(self, tmp_path):
        rows = [ScoreRow("x.wav", 0.5, "nmr", "p")]
        p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
        write_scores(rows, p1)
        write_scores(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0] == "clip_path,nomad,mode,pool_id"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("clip,score\nx,1\n")
        with pytest.raises(ValueError):
            read_scores(path)
