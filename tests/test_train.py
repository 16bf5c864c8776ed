import numpy as np
import pytest

from nomadlite.audio_core import Spectrogram
from nomadlite.errors import DataError
from nomadlite.net import EncoderConfig, init_model, triplet_loss
from nomadlite.train import (
    EpochRow,
    SpectrogramCache,
    TrainConfig,
    TrainReport,
    fit,
    train_epoch,
    validate,
)
from nomadlite.triplets import TripletRecord

TINY = EncoderConfig(bands=2, conv_channels=(4, 8), kernel=3, stride=2,
                     embed_dim=8, init_seed=0)


def spec(rng, t=12, bands=2):
    return Spectrogram(rng.standard_normal((t, bands)))


def triples(seed, n):
    rng = np.random.default_rng(seed)
    return [tuple(spec(rng) for _ in range(3)) for _ in range(n)]


class StubCache(SpectrogramCache):
    """Maps synthetic clip refs to in-memory spectrograms."""

    def __init__(self, mapping):
        super().__init__()
        self._cache = dict(mapping)


def make_records(sources, per_source, seed=0):
    rng = np.random.default_rng(seed)
    mapping, records = {}, []
    for s in sources:
        for i in range(per_source):
            refs = [f"{s}_t{i}_{role}" for role in "apn"]
            for ref in refs:
                mapping[ref] = spec(rng)
            records.append(TripletRecord(s, *refs, 0.8, 0.78, 0.5, "easy"))
    return records, mapping


class TestTrainConfig:
    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=batch_size)

    @pytest.mark.parametrize("max_epochs", [-1, 1.5, True])
    def test_max_epochs_not_a_nonnegative_int_rejected(self, max_epochs):
        # -1 used to return the untrained model, 1.5 to fail later in fit's range
        with pytest.raises(ValueError, match="max_epochs"):
            TrainConfig(max_epochs=max_epochs)

    @pytest.mark.parametrize("patience", [-1, 2.5, True])
    def test_patience_not_a_nonnegative_int_rejected(self, patience):
        # 2.5 and True used to reach fit's since_improve >= patience
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(patience=patience)

    @pytest.mark.parametrize("seed", [-1, 0.5, True])
    def test_seed_not_a_nonnegative_int_rejected(self, seed):
        # -1 used to pass here and fail in fit's default_rng, after every clip was loaded
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(seed=seed)

    def test_zero_patience_allowed(self):
        assert TrainConfig(patience=0).patience == 0

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["margin", "lr"])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})


class TestTrainEpoch:
    def test_zero_lr_is_noop(self):
        model = init_model(TINY)
        before = model.parameters.copy()
        train_epoch(model, triples(0, 10), TrainConfig(), np.random.default_rng(0), lr=0.0)
        assert np.array_equal(model.parameters, before)

    def test_updates_parameters(self):
        model = init_model(TINY)
        before = model.parameters.copy()
        train_epoch(model, triples(1, 10), TrainConfig(margin=1.0, lr=1e-2),
                    np.random.default_rng(0))
        assert not np.array_equal(model.parameters, before)

    def test_deterministic(self):
        cfg = TrainConfig(margin=1.0, lr=1e-2, seed=0)
        losses = []
        params = []
        for _ in range(2):
            model = init_model(TINY)
            losses.append(train_epoch(model, triples(2, 16), cfg, np.random.default_rng(5)))
            params.append(model.parameters.copy())
        assert losses[0] == losses[1]
        assert np.array_equal(params[0], params[1])

    def test_single_triplet_overfits(self):
        # repeated SGD on one active triplet must drive its loss toward zero
        model = init_model(TINY)
        data = triples(3, 1)
        cfg = TrainConfig(margin=0.2, lr=5e-2, batch_size=1)
        first = validate(model, data, cfg.margin)
        rng = np.random.default_rng(0)
        for _ in range(200):
            train_epoch(model, data, cfg, rng)
        last = validate(model, data, cfg.margin)
        assert last < 0.25 * first

    def test_empty_raises(self):
        with pytest.raises(DataError):
            train_epoch(init_model(TINY), [], TrainConfig(), np.random.default_rng(0))


class TestValidate:
    def test_pure(self):
        model = init_model(TINY)
        before = model.parameters.copy()
        validate(model, triples(4, 5), 0.2)
        assert np.array_equal(model.parameters, before)

    def test_matches_manual_mean(self):
        from nomadlite.net import embed
        model = init_model(TINY)
        data = triples(5, 7)
        manual = np.mean([
            triplet_loss(embed(model, a), embed(model, p), embed(model, n), 0.2)
            for a, p, n in data
        ])
        assert validate(model, data, 0.2) == pytest.approx(manual, abs=1e-15)

    def test_embeds_each_distinct_clip_once(self, monkeypatch):
        import nomadlite.train as train_mod
        calls = []
        real_embed = train_mod.embed

        def counting_embed(model, spec):
            calls.append(id(spec))
            return real_embed(model, spec)

        monkeypatch.setattr(train_mod, "embed", counting_embed)
        data = triples(7, 4)
        a, p, n = data[0]
        data += [(a, n, p), (p, a, data[1][2])]  # reuse clips across triplets
        distinct = {id(s) for t in data for s in t}
        validate(init_model(TINY), data, 0.2)
        assert sorted(calls) == sorted(distinct)

    def test_random_embeddings_near_margin(self):
        # with an untrained net on unrelated clips the hinge averages close
        # to the margin, since d_ap - d_an is symmetric around zero
        model = init_model(TINY)
        val = validate(model, triples(6, 200), 0.5)
        assert 0.25 < val < 0.75


class TestFit:
    def test_overlapping_sources_rejected(self):
        records, mapping = make_records(["s0", "s1"], 2)
        with pytest.raises(DataError):
            fit(records, records[:1], TrainConfig(max_epochs=1), TINY, StubCache(mapping))

    def test_zero_epochs_returns_initial(self):
        records, mapping = make_records(["s0", "s1", "s2"], 3)
        train = [r for r in records if r.source_id != "s2"]
        val = [r for r in records if r.source_id == "s2"]
        init = init_model(TINY)
        model, report = fit(train, val, TrainConfig(max_epochs=0), TINY, StubCache(mapping))
        assert report.epochs == []
        assert report.best_epoch == 0
        assert report.best_val_loss == report.initial_val_loss
        assert np.array_equal(model.parameters, init.parameters)

    def test_report_and_best_model_consistency(self):
        records, mapping = make_records(["s0", "s1", "s2", "s3"], 4, seed=1)
        train = [r for r in records if r.source_id != "s3"]
        val = [r for r in records if r.source_id == "s3"]
        cache = StubCache(mapping)
        cfg = TrainConfig(margin=1.0, lr=1e-2, max_epochs=10, patience=50)
        model, report = fit(train, val, cfg, TINY, cache)
        assert len(report.epochs) == 10
        recorded_best = min([report.initial_val_loss] + [e.val_loss for e in report.epochs])
        assert report.best_val_loss == recorded_best
        # re-evaluating the returned model reproduces the recorded best value
        val_triples = [cache.triple(r) for r in val]
        assert validate(model, val_triples, cfg.margin) == pytest.approx(
            report.best_val_loss, abs=1e-6)

    def test_deterministic(self):
        records, mapping = make_records(["s0", "s1", "s2"], 3, seed=2)
        train = [r for r in records if r.source_id != "s2"]
        val = [r for r in records if r.source_id == "s2"]
        cfg = TrainConfig(margin=1.0, lr=1e-2, max_epochs=5)
        out = [fit(train, val, cfg, TINY, StubCache(mapping)) for _ in range(2)]
        assert np.array_equal(out[0][0].parameters, out[1][0].parameters)
        assert out[0][1].epochs == out[1][1].epochs

    def test_lr_decay_trace(self):
        # margin 0 with identical a==p spectra gives zero loss and zero grads:
        # params never move, val never improves, and lr takes one x0.9 step
        # per 20 epochs without improvement
        records, mapping = make_records(["s0", "s1", "s2"], 3, seed=3)
        records = [TripletRecord(r.source_id, r.anchor_path, r.anchor_path,
                                 r.negative_path, 0.8, 0.8, 0.5, "easy")
                   for r in records]
        train = [r for r in records if r.source_id != "s2"]
        val = [r for r in records if r.source_id == "s2"]
        cfg = TrainConfig(lr=1.0, patience=100, max_epochs=60, margin=0.0)
        _, report = fit(train, val, cfg, TINY, StubCache(mapping))
        lrs = [e.lr for e in report.epochs]
        assert lrs == [1.0] * 20 + [0.9] * 20 + [pytest.approx(0.81)] * 20

    def test_patience_stops_early(self):
        records, mapping = make_records(["s0", "s1", "s2"], 3, seed=4)
        train = [r for r in records if r.source_id != "s2"]
        val = [r for r in records if r.source_id == "s2"]
        cfg = TrainConfig(lr=0.0, patience=3, max_epochs=50, margin=1.0)
        _, report = fit(train, val, cfg, TINY, StubCache(mapping))
        assert len(report.epochs) == 3


class TestReportCsv:
    def test_roundtrip_format(self, tmp_path):
        report = TrainReport(epochs=[EpochRow(1, 0.5, 0.6, 1e-3), EpochRow(2, 0.4, 0.55, 1e-3)])
        path = tmp_path / "r.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,lr"
        assert lines[1].startswith("1,0.500000000000,0.600000000000,")
        assert len(lines) == 3
        assert path.read_bytes() == (
            b"epoch,train_loss,val_loss,lr\n"
            b"1,0.500000000000,0.600000000000,0.001\n"
            b"2,0.400000000000,0.550000000000,0.001\n"
        )
