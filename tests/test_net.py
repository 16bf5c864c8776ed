import json
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL, TINY
from nomadlite import net
from nomadlite.audio_core import Spectrogram
from nomadlite.errors import BandMismatchError, CorruptCheckpointError
from nomadlite.net import (
    CHECKPOINT_MAGIC,
    MAX_MIN_FRAMES,
    EmbeddingModel,
    EncoderConfig,
    embed,
    embed_batch,
    feature_loss_spec,
    index_triples,
    init_model,
    load_checkpoint,
    loss_and_gradients,
    save_checkpoint,
    triplet_loss,
)
from nomadlite.train import _sgd_step, validate

# five bands, three odd-sized layers, a kernel and stride no other encoder uses
FIVE_BAND = EncoderConfig(bands=5, conv_channels=(7, 3, 9), kernel=4, stride=3,
                          embed_dim=6, init_seed=0)
# min_frames 1e18 + 1 and 9 003 002: four and three layers at a huge stride
HUGE_STRIDE = [dict(bands=32, conv_channels=(1, 1, 1, 1), kernel=2, stride=10**6, embed_dim=1),
               dict(bands=32, conv_channels=(1, 1, 1), kernel=2, stride=3000, embed_dim=1)]


def spec(values):
    return Spectrogram(values)


def random_spec(rng, t, bands):
    return spec(rng.standard_normal((t, bands)))


class TestConfigAndInit:
    def test_default_dimensions(self):
        cfg = EncoderConfig()
        assert cfg.min_frames == 61
        assert cfg.layer_dims() == [(32, 32), (32, 64), (64, 64), (64, 128)]

    def test_tiny_param_count(self):
        # 4*2*3+4 + 8*4*3+8 + 8*8+8
        assert TINY.param_count == 204

    @pytest.mark.parametrize("field,value", [
        ("kernel", 0), ("stride", 0), ("stride", -1), ("bands", 0), ("embed_dim", -3),
        ("conv_channels", ()), ("conv_channels", (4, 0)), ("kernel", 3.0), ("stride", True),
    ])
    def test_degenerate_config_rejected(self, field, value):
        fields = dict(bands=2, conv_channels=(4, 8), kernel=3, stride=2, embed_dim=8)
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            EncoderConfig(**fields)

    @pytest.mark.parametrize("fields", HUGE_STRIDE, ids=["stride-1e6", "stride-3000"])
    def test_min_frames_above_bound_rejected(self, fields):
        with pytest.raises(ValueError, match=f"min_frames .* exceeds {MAX_MIN_FRAMES}"):
            EncoderConfig(**fields)

    def test_min_frames_bound_is_inclusive(self):
        assert EncoderConfig(kernel=MAX_MIN_FRAMES, stride=1, conv_channels=(4,)).min_frames == MAX_MIN_FRAMES
        with pytest.raises(ValueError, match="min_frames"):
            EncoderConfig(kernel=MAX_MIN_FRAMES + 1, stride=1, conv_channels=(4,))
        # the test encoders and the benchmark's small one
        bench = EncoderConfig(bands=2, conv_channels=(3,), kernel=5, stride=2, embed_dim=4)
        for cfg in (EncoderConfig(), TINY, SMALL, FIVE_BAND, bench):
            assert cfg.min_frames <= MAX_MIN_FRAMES

    def test_init_matches_param_count(self):
        for cfg in (TINY, EncoderConfig()):
            assert init_model(cfg).parameters.size == cfg.param_count

    def test_init_deterministic(self):
        a = init_model(TINY).parameters
        b = init_model(TINY).parameters
        assert a.tobytes() == b.tobytes()

    def test_init_seed_diverges(self):
        a = init_model(TINY).parameters
        b = init_model(EncoderConfig(bands=2, conv_channels=(4, 8), kernel=3,
                                     stride=2, embed_dim=8, init_seed=1)).parameters
        # weights are dense uniform draws; nearly all coordinates should differ
        weight_coords = a != 0
        differs = np.mean(a[weight_coords] != b[weight_coords])
        assert differs > 0.99

    def test_biases_zero_weights_bounded(self):
        m = init_model(TINY)
        p = m.parameters
        # first conv weight block and its bias
        w0, b0 = p[:24], p[24:28]
        assert np.all(b0 == 0.0)
        bound = np.sqrt(6.0 / (2 * 3 + 4 * 3))
        assert np.all(np.abs(w0) <= bound)

    def test_wrong_param_count_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingModel(np.zeros(10, dtype=np.float32), TINY)

    def test_nonfinite_params_rejected(self):
        p = np.zeros(TINY.param_count, dtype=np.float32)
        p[0] = np.nan
        with pytest.raises(ValueError):
            EmbeddingModel(p, TINY)


class TestEmbed:
    def test_unit_norm(self):
        m = init_model(TINY)
        rng = np.random.default_rng(0)
        for t in (7, 8, 20, 101):
            e = embed(m, random_spec(rng, t, 2))
            assert e.shape == (8,)
            assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_and_pure(self):
        m = init_model(TINY)
        s = random_spec(np.random.default_rng(1), 30, 2)
        before = m.parameters.copy()
        e1 = embed(m, s)
        e2 = embed(m, s)
        assert np.array_equal(e1, e2)
        assert np.array_equal(m.parameters, before)

    def test_short_input_padded(self):
        # inputs shorter than min_frames are zero-padded, not rejected
        m = init_model(TINY)
        e = embed(m, random_spec(np.random.default_rng(2), 3, 2))
        assert np.isfinite(e).all()

    def test_time_reversal_changes_embedding(self):
        m = init_model(TINY)
        s = random_spec(np.random.default_rng(3), 40, 2)
        rev = spec(s.values[::-1].copy())
        assert not np.allclose(embed(m, s), embed(m, rev))

    def test_band_mismatch(self):
        m = init_model(TINY)
        with pytest.raises(BandMismatchError):
            embed(m, random_spec(np.random.default_rng(4), 20, 3))


class TestEmbedBatch:
    """One batched entry for a set of clips of any lengths, rows in input order."""

    @pytest.fixture(scope="class")
    def ragged(self):
        cfg = EncoderConfig()
        rng = np.random.default_rng(5)
        a = random_spec(rng, 298, cfg.bands)
        specs = [a, random_spec(rng, 120, cfg.bands),
                 random_spec(rng, cfg.min_frames - 1, cfg.bands), a,
                 random_spec(rng, 298, cfg.bands)]
        return init_model(cfg), specs

    @pytest.mark.parametrize("chunk", [1, 2, 24])
    def test_rows_equal_embed(self, ragged, chunk, monkeypatch):
        m, specs = ragged
        monkeypatch.setattr(net, "EMBED_CHUNK", chunk)
        out = embed_batch(m, specs)
        assert out.shape == (len(specs), m.config.embed_dim)
        assert np.array_equal(out, np.stack([embed(m, s) for s in specs]))
        assert np.array_equal(out[0], out[3])

    def test_permuted_input_gives_permuted_rows(self, ragged):
        m, specs = ragged
        perm = [4, 2, 0, 1, 3]
        assert np.array_equal(embed_batch(m, [specs[i] for i in perm]),
                              embed_batch(m, specs)[perm])

    def test_more_clips_than_one_chunk(self):
        m = init_model(TINY)
        rng = np.random.default_rng(6)
        specs = [random_spec(rng, 40, 2) for _ in range(net.EMBED_CHUNK + 3)]
        assert np.array_equal(embed_batch(m, specs), np.stack([embed(m, s) for s in specs]))

    @pytest.mark.parametrize("cfg", [EncoderConfig(), SMALL, TINY, replace(TINY, stride=1), FIVE_BAND],
                             ids=["default", "small", "tiny", "tiny-stride-1", "five-band"])
    @pytest.mark.parametrize("batch", ["ragged", "equal"])
    def test_row_is_the_same_bits_in_any_batch(self, cfg, batch):
        # the head is one product per clip, so no BLAS kernel choice depends on the batch size
        rng = np.random.default_rng(8)
        if batch == "ragged":
            lengths = rng.integers(cfg.min_frames - 3, cfg.min_frames + 90, 40)
        else:
            lengths = [120] * 40
        specs = [random_spec(rng, int(t), cfg.bands) for t in lengths]
        m = init_model(cfg)
        assert np.array_equal(embed_batch(m, specs), np.stack([embed(m, s) for s in specs]))

    def test_validate_is_triplet_loss_over_embed_batch(self):
        # validate embeds clip by clip; one batched forward gives the same loss exactly
        m = init_model(EncoderConfig())
        for seed in range(4):
            rng = np.random.default_rng(seed)
            triples = [tuple(random_spec(rng, 120, m.config.bands) for _ in range(3))
                       for _ in range(16)]
            specs, ia, ip, ineg = index_triples(triples)
            emb = embed_batch(m, specs)
            expect = float(np.mean(triplet_loss(emb[ia], emb[ip], emb[ineg], 0.2)))
            assert validate(m, triples, 0.2) == expect

    def test_band_mismatch(self, ragged):
        m, specs = ragged
        with pytest.raises(BandMismatchError):
            embed_batch(m, [specs[0], random_spec(np.random.default_rng(7), 298, 31)])


def max_fd_error(batch):
    """Worst relative gap between the analytic gradient and central
    differences over every coordinate of the tiny model."""
    model = init_model(TINY)
    m = 1.0  # large margin keeps every hinge active and smooth
    theta0 = model.parameters.astype(np.float64)
    _, grad = loss_and_gradients(model, batch, m)

    def loss_at(theta):
        probe = EmbeddingModel(theta.astype(np.float32), TINY)
        probe.parameters = theta  # keep float64 for the FD probe
        return loss_and_gradients(probe, batch, m)[0]

    h = 1e-6
    worst = 0.0
    for i in range(TINY.param_count):
        tp, tm = theta0.copy(), theta0.copy()
        tp[i] += h
        tm[i] -= h
        fd = (loss_at(tp) - loss_at(tm)) / (2 * h)
        denom = max(abs(fd), abs(grad[i]), 1e-4)
        worst = max(worst, abs(fd - grad[i]) / denom)
    return worst


class TestTripletLoss:
    def e(self, d_sq):
        # unit vectors at a chosen squared distance: d^2 = 2 - 2cos(angle)
        c = 1.0 - d_sq / 2.0
        s = np.sqrt(max(0.0, 1.0 - c * c))
        return np.array([c, s])

    def test_inactive_hinge(self):
        base = np.array([1.0, 0.0])
        assert triplet_loss(base, self.e(0.1), self.e(0.5), 0.2) == 0.0

    def test_active_hinge_value(self):
        base = np.array([1.0, 0.0])
        loss = triplet_loss(base, self.e(0.4), self.e(0.3), 0.2)
        assert loss == pytest.approx(0.3, abs=1e-12)

    def test_identical_pos_neg_gives_margin(self):
        a = np.array([1.0, 0.0])
        p = self.e(0.5)
        assert triplet_loss(a, p, p, 0.2) == pytest.approx(0.2, abs=1e-15)

    def test_negative_margin_rejected(self):
        a = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            triplet_loss(a, a, a, -0.1)

    def test_nan_margin_rejected(self):
        a = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="margin"):
            triplet_loss(a, a, a, float("nan"))

    def test_stacked_rows_equal_per_row_calls(self):
        rng = np.random.default_rng(0)
        e_a, e_p, e_n = rng.standard_normal((3, 50, 16)) * 0.3
        e_p[:5] = e_a[:5]  # d_ap == 0
        e_n[5:10] = e_p[5:10]  # hinge exactly at the margin
        for m in (0.0, 0.2, 1.5):
            stacked = triplet_loss(e_a, e_p, e_n, m)
            assert stacked.shape == (50,)
            rows = [triplet_loss(a, p, n, m) for a, p, n in zip(e_a, e_p, e_n)]
            assert all(isinstance(r, float) for r in rows)
            assert np.array_equal(stacked, rows)
            assert 0 < np.count_nonzero(stacked) < 50

    def test_negative_margin_rejected_on_arrays(self):
        a = np.zeros((4, 8))
        with pytest.raises(ValueError):
            triplet_loss(a, a, a, -0.1)


class TestGradients:
    def batch(self, seed=0, n=2, t=12):
        rng = np.random.default_rng(seed)
        return [tuple(random_spec(rng, t, 2) for _ in range(3)) for _ in range(n)]

    def test_identical_triplet_loss_is_margin_grad_zero(self):
        # d_ap == d_an so the hinge sits exactly at the margin with flat slope
        m = init_model(TINY)
        s = random_spec(np.random.default_rng(5), 15, 2)
        loss, grad = loss_and_gradients(m, [(s, s, s)], 0.2)
        assert loss == pytest.approx(0.2, abs=1e-15)
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_finite_difference(self):
        assert max_fd_error(self.batch(seed=6)) < 1e-4

    def test_mean_semantics_with_duplicates(self):
        model = init_model(TINY)
        batch = self.batch(seed=7, n=1)
        l1, g1 = loss_and_gradients(model, batch, 1.0)
        l2, g2 = loss_and_gradients(model, batch * 2, 1.0)
        assert l2 == pytest.approx(l1, abs=1e-12)
        assert np.allclose(g1, g2, atol=1e-12)

    def test_inactive_batch_zero_grad(self):
        model = init_model(TINY)
        rng = np.random.default_rng(8)
        a = random_spec(rng, 12, 2)
        n = random_spec(rng, 12, 2)
        # positive identical to anchor, margin 0: hinge can't activate
        loss, grad = loss_and_gradients(model, [(a, a, n)], 0.0)
        assert loss == 0.0
        assert np.all(grad == 0.0)


class TestBatchedPath:
    """One batch mixing two frame counts, a clip shorter than min_frames and
    one Spectrogram object shared by two triplets."""

    def batch(self):
        rng = np.random.default_rng(9)
        shared = random_spec(rng, 12, 2)
        short = random_spec(rng, 5, 2)
        assert short.values.shape[0] < TINY.min_frames
        anchor = random_spec(rng, 12, 2)
        return [
            (shared, random_spec(rng, 12, 2), random_spec(rng, 15, 2)),
            (random_spec(rng, 15, 2), short, random_spec(rng, 12, 2)),
            (random_spec(rng, 12, 2), shared, random_spec(rng, 15, 2)),
            (anchor, anchor, random_spec(rng, 12, 2)),  # inactive at margin 0
        ]

    @pytest.mark.parametrize("margin", [1.0, 0.0])
    def test_matches_mean_of_single_triplets(self, margin):
        # margin 0 leaves some hinges inactive, so the backward runs on a
        # subset of the clips embedded in the forward
        model = init_model(TINY)
        batch = self.batch()
        loss, grad = loss_and_gradients(model, batch, margin)
        singles = [loss_and_gradients(model, [t], margin) for t in batch]
        if margin == 0.0:
            assert 0 < sum(l > 0 for l, _ in singles) < len(batch)
        assert abs(loss - np.mean([l for l, _ in singles])) < 1e-12
        assert np.max(np.abs(grad - np.mean([g for _, g in singles], axis=0))) < 1e-12

    def test_finite_difference(self):
        assert max_fd_error(self.batch()) < 1e-4

    def test_permutation_invariant(self):
        model = init_model(TINY)
        batch = self.batch()
        loss, grad = loss_and_gradients(model, batch, 1.0)
        for order in ([3, 2, 0, 1], [1, 2, 3, 0], [2, 1, 0, 3]):
            l2, g2 = loss_and_gradients(model, [batch[i] for i in order], 1.0)
            assert abs(l2 - loss) < 1e-12
            assert np.max(np.abs(g2 - grad)) < 1e-12


def concatenated_init_model(cfg):
    """init_model's draws as one concatenation of per-block arrays: the
    reference that init_model's writes into _unpack's views are held to."""
    rng = np.random.default_rng(cfg.init_seed)
    parts = []
    for c_in, c_out in cfg.layer_dims():
        fan_in = c_in * cfg.kernel
        fan_out = c_out * cfg.kernel
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        parts.append(rng.uniform(-bound, bound, c_out * c_in * cfg.kernel))
        parts.append(np.zeros(c_out))
    bound = np.sqrt(6.0 / (cfg.conv_channels[-1] + cfg.embed_dim))
    parts.append(rng.uniform(-bound, bound, cfg.embed_dim * cfg.conv_channels[-1]))
    parts.append(np.zeros(cfg.embed_dim))
    return np.concatenate(parts).astype(np.float32)


def concatenated_backward(cache, cfg, grad_e):
    """One bucket's parameter gradient as per-block arrays joined by
    concatenation: the reference for _backward's adds into _unpack's views."""
    e, norm, xs = cache["e"], cache["norm"], cache["xs"]
    gz_head = (grad_e - e * np.sum(e * grad_e, axis=1, keepdims=True)) / norm
    g_pooled = (gz_head @ cache["wh"]) * (cache["pooled"] > 0)
    t_last = xs[-1].shape[1]
    g_act = np.repeat((g_pooled / t_last)[:, None, :], t_last, axis=1)
    blocks = [(gz_head.T @ np.maximum(cache["pooled"], 0.0)).ravel(), gz_head.sum(axis=0)]
    for l in range(len(cache["layers"]) - 1, -1, -1):
        g_act *= xs[l + 1] > 0
        c_in, c_out = cfg.layer_dims()[l]
        gw, gb = np.zeros((c_out, c_in, cfg.kernel)), np.zeros(c_out)
        net._conv1d_backward(xs[l], cfg.stride, g_act, gw, gb)
        if l > 0:
            _taps, taps_t, _b = cache["layers"][l]
            g_act = net._conv1d_input_grad(xs[l].shape, taps_t, cfg.stride, g_act)
        blocks = [gw.ravel(), gb] + blocks
    return np.concatenate(blocks)


def concatenated_loss_and_gradients(model, batch, m):
    """loss_and_gradients adding a fresh concatenated gradient per bucket
    into a sum that is divided at the end."""
    cfg = model.config
    specs, ia, ip, ineg = net.index_triples(batch)
    caches = []
    emb = net._bucketed_forward(net._prepare(model.parameters, cfg), cfg, specs, len(specs), caches)
    e_a, e_p, e_n = emb[ia], emb[ip], emb[ineg]
    hinge = triplet_loss(e_a, e_p, e_n, m)
    active = hinge > 0
    grad_e = np.zeros_like(emb)
    np.add.at(grad_e, ia[active], 2.0 * (e_n - e_p)[active])
    np.add.at(grad_e, ip[active], 2.0 * (e_p - e_a)[active])
    np.add.at(grad_e, ineg[active], 2.0 * (e_a - e_n)[active])
    grad = np.zeros(cfg.param_count)
    for members, cache in caches:
        g = grad_e[members]
        rows = np.flatnonzero(g.any(axis=1))
        if len(rows) == 0:
            continue
        if len(rows) < len(members):
            net._select(cache, rows)
            g = g[rows]
        grad += concatenated_backward(cache, cfg, g)
    n = len(batch)
    return float(np.sum(hinge[active])) / n, grad / n


class TestParameterLayout:
    """init_model and the gradient write into _unpack's views of one flat
    vector, bit-identical to assembling per-block arrays."""

    CONFIGS = [EncoderConfig(), SMALL, TINY]
    IDS = ["default", "small", "tiny"]

    @pytest.mark.parametrize("cfg", CONFIGS + [FIVE_BAND], ids=IDS + ["five-band"])
    def test_unpack_tiles_param_count(self, cfg):
        theta = np.arange(cfg.param_count, dtype=np.float64)
        layers, wh, bh = net._unpack(theta, cfg)
        views = [a for wb in layers for a in wb] + [wh, bh]
        assert all(np.shares_memory(v, theta) for v in views)
        # in layout order, with no gap, overlap or entry left over
        assert np.array_equal(np.concatenate([v.ravel() for v in views]), theta)
        assert [(w.shape, b.shape) for w, b in layers] == [
            ((c_out, c_in, cfg.kernel), (c_out,)) for c_in, c_out in cfg.layer_dims()]
        assert (wh.shape, bh.shape) == ((cfg.embed_dim, cfg.conv_channels[-1]), (cfg.embed_dim,))

    @pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
    def test_init_equals_concatenation(self, cfg):
        assert np.array_equal(init_model(cfg).parameters, concatenated_init_model(cfg))

    @pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
    def test_loss_and_gradients_equal_concatenation(self, cfg, monkeypatch):
        # two frame counts, so two buckets accumulate into one gradient; the
        # last triplet's hinge is 0 at margin 0, so its clips drop out of
        # their bucket's backward through _select
        rng = np.random.default_rng(13)
        c = [random_spec(rng, t, cfg.bands) for t in (40, 40, 40, 40, 40, 90, 90, 90)]
        batch = [(c[0], c[1], c[5]), (c[5], c[6], c[2]), (c[7], c[2], c[0]),
                 (c[6], c[0], c[7]), (c[3], c[3], c[4])]
        model = init_model(cfg)
        selects = []
        select = net._select

        def counting_select(cache, rows):
            selects.append(rows)
            select(cache, rows)

        monkeypatch.setattr(net, "_select", counting_select)
        loss, grad = loss_and_gradients(model, batch, 0.0)
        assert loss > 0 and len(selects) >= 1
        ref_loss, ref_grad = concatenated_loss_and_gradients(model, batch, 0.0)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)


def stacked_feature_loss(model, specs):
    loss, grad = feature_loss_spec(model, specs[0].values, specs[1].values)
    return np.append(grad, loss)


# the encoder entry points that read a model's prepared weights
ENTRY_POINTS = {
    "embed": lambda model, specs: embed(model, specs[0]),
    "embed_batch": lambda model, specs: embed_batch(model, specs),
    "feature_loss_spec": stacked_feature_loss,
}


def cold_copy(model):
    """A model of the same config and parameters, dtype included, that has
    prepared no weights yet."""
    copy = EmbeddingModel(model.parameters.astype(np.float32), model.config)
    copy.parameters = model.parameters.copy()
    return copy


def edit_model(model, edit):
    if edit == "one_weight_in_place":
        model.parameters[-1] += 0.5  # a head bias: moves every embedding
    elif edit == "sgd_step":
        _sgd_step(model, np.random.default_rng(0).standard_normal(model.parameters.size), 1e-2)
    elif edit == "float64_assignment":
        theta = model.parameters.astype(np.float64)
        theta[-1] += 1e-6  # float32 has no value equal to this one
        model.parameters = theta
    else:
        model.config = replace(model.config, stride=3)


class TestPreparedWeights:
    """A model prepares its float64 weights once per config and parameter
    vector, and every entry point sees each later change to either."""

    @pytest.mark.parametrize("edit", ["one_weight_in_place", "sgd_step",
                                      "float64_assignment", "config_stride"])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_edit_is_seen(self, entry, edit):
        run = ENTRY_POINTS[entry]
        rng = np.random.default_rng(31)
        specs = [random_spec(rng, t, SMALL.bands) for t in (40, 40, 70)]
        model = init_model(SMALL)
        before = run(model, specs)
        edit_model(model, edit)
        after = run(model, specs)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, run(cold_copy(model), specs))

    def test_unchanged_model_prepares_once(self, monkeypatch):
        prepared = []
        prepare = net._prepare

        def counting_prepare(theta, cfg):
            prepared.append(cfg)
            return prepare(theta, cfg)

        monkeypatch.setattr(net, "_prepare", counting_prepare)
        rng = np.random.default_rng(32)
        specs = [random_spec(rng, t, SMALL.bands) for t in (40, 40, 70)]
        batch = [(specs[0], specs[1], specs[2])]
        model = init_model(SMALL)
        for _ in range(2):
            for run in ENTRY_POINTS.values():
                run(model, specs)
            loss_and_gradients(model, batch, 1.0)
        assert len(prepared) == 1
        # a training step prepares the new parameters once
        _, grad = loss_and_gradients(model, batch, 1.0)
        _sgd_step(model, grad, 1e-2)
        loss_and_gradients(model, batch, 1.0)
        embed(model, specs[0])
        assert len(prepared) == 2

    def test_prepared_weights_are_read_only(self):
        taps_and_biases, wh, bh = net._prepare(init_model(TINY).parameters, TINY)
        for array in [a for layer in taps_and_biases for a in layer] + [wh, bh]:
            assert array.dtype == np.float64 and not array.flags.writeable

    def test_prepared_weights_hold_no_parameter_vector(self):
        # the kernels read only the prepared arrays; a view into a
        # param_count-long array would keep that whole vector alive
        taps_and_biases, wh, bh = net._prepare(init_model(SMALL).parameters, SMALL)
        for array in [a for layer in taps_and_biases for a in layer] + [wh, bh]:
            base = array
            while base is not None:
                assert base.size != SMALL.param_count
                base = base.base


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        m = init_model(EncoderConfig(init_seed=3))
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        assert loaded.config == m.config
        assert loaded.parameters.tobytes() == m.parameters.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        m = init_model(TINY)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(m, p1)
        save_checkpoint(m, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"GARBAGE\n" + b"\x00" * 64)
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        m = init_model(TINY)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_corrupt_header_json(self, tmp_path):
        m = init_model(TINY)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        blob = bytearray(path.read_bytes())
        blob[12] ^= 0xFF  # inside the JSON header
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_nonfinite_weight(self, tmp_path):
        m = init_model(TINY)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.array([np.inf], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", [
        [],
        123,
        "text",
        {"format_version": 1, "config": {"bands": 2, "conv_channels": [4, 8], "kernel": 3,
                                         "stride": -1, "embed_dim": 8, "init_seed": 0},
         "param_count": 204},
    ])
    def test_malformed_header_is_corrupt(self, tmp_path, header):
        header_bytes = json.dumps(header).encode("utf-8")
        path = tmp_path / "m.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes
                         + np.zeros(204, dtype="<f4").tobytes())
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)


    @pytest.mark.parametrize("fields, n", zip(HUGE_STRIDE, [76, 73]), ids=["stride-1e6", "stride-3000"])
    def test_huge_min_frames_is_corrupt(self, tmp_path, fields, n):
        # a well-formed file of a few hundred bytes: it used to load, and every
        # embed then padded each clip to min_frames
        header = {"format_version": 1, "config": {**fields, "init_seed": 0}, "param_count": n}
        header_bytes = json.dumps(header).encode("utf-8")
        path = tmp_path / "m.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes
                         + np.zeros(n, dtype="<f4").tobytes())
        with pytest.raises(CorruptCheckpointError, match="min_frames"):
            load_checkpoint(path)

    @pytest.mark.parametrize("init_seed", [-1, "x", True, 2.5])
    def test_bad_init_seed_is_corrupt(self, tmp_path, init_seed):
        # init_model would fail inside numpy on these, or take True as seed 1
        header = {"format_version": 1, "config": {"bands": 2, "conv_channels": [4, 8], "kernel": 3,
                                                  "stride": 2, "embed_dim": 8, "init_seed": init_seed},
                  "param_count": 204}
        header_bytes = json.dumps(header).encode("utf-8")
        path = tmp_path / "m.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes
                         + np.zeros(204, dtype="<f4").tobytes())
        with pytest.raises(CorruptCheckpointError, match="init_seed"):
            load_checkpoint(path)

@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    save_checkpoint(init_model(TINY), path)
    return path


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_checkpoint_fuzz_corrupt_or_valid(tiny_checkpoint, data):
    """A truncated or single-byte-flipped checkpoint either loads as a model
    that embeds, or raises CorruptCheckpointError; never anything else."""
    blob = bytearray(tiny_checkpoint.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        i = data.draw(st.integers(0, len(blob) - 1), label="offset")
        blob[i] ^= data.draw(st.integers(1, 255), label="mask")
    path = tiny_checkpoint.with_name("fuzzed.ckpt")
    path.write_bytes(bytes(blob))
    try:
        model = load_checkpoint(path)
    except CorruptCheckpointError:
        return
    assert model.parameters.size == model.config.param_count
    e = embed(model, random_spec(np.random.default_rng(0), 12, model.config.bands))
    assert np.all(np.isfinite(e))
