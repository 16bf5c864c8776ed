import dataclasses
from pathlib import Path

import numpy as np
import pytest

from nomadlite.audio_core import CANONICAL_RATE, Waveform, load_wav, resample, save_wav
from nomadlite.cli import build_parser, main
from nomadlite.degrade import ManifestRow, read_manifest, write_manifest
from nomadlite.net import EncoderConfig, init_model, load_checkpoint, save_checkpoint
from nomadlite.nsim import utterance_nsim
from nomadlite.score import ScoreRow, full_reference_score, read_scores, write_scores
from nomadlite.triplets import read_triplets

from conftest import make_utterance, write_raw_wav


def write_clean_corpus(d, n=4, duration_s=1.0):
    d.mkdir(parents=True, exist_ok=True)
    for i in range(n):
        save_wav(make_utterance(seed=100 + i, duration_s=duration_s), d / f"src{i}.wav")


class TestParser:
    def test_no_command_fails(self, capsys):
        assert main([]) == 1

    def test_unknown_command_fails(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_fails(self):
        assert main(["nsim", "--ref", "a.wav", "--deg", "b.wav", "--bogus"]) == 1

    def test_missing_required_flag_fails(self):
        assert main(["nsim", "--ref", "a.wav"]) == 1

    def test_help_exits_zero(self):
        for cmd in ([], ["synth"], ["nsim"], ["triplets"], ["train"],
                    ["score"], ["eval-mos"], ["eval-rank"], ["feature-loss"]):
            with pytest.raises(SystemExit) as e:
                build_parser().parse_args(cmd + ["--help"])
            assert e.value.code == 0

    def test_train_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["train", "--triplets", "t", "--val", "v", "--out", "o"])
        assert args.margin == 0.2
        assert args.batch == 8
        assert args.lr == 1e-3

    def test_train_batch_zero_exit_one(self, tmp_path, capsys):
        assert main(["--quiet", "train", "--triplets", str(tmp_path / "t.csv"),
                     "--val", str(tmp_path / "v.csv"), "--batch", "0",
                     "--out", str(tmp_path / "m.ckpt")]) == 1
        assert "batch_size" in capsys.readouterr().err

    def test_missing_input_file_exit_one(self, tmp_path):
        assert main(["--quiet", "nsim", "--ref", str(tmp_path / "no.wav"),
                     "--deg", str(tmp_path / "no.wav")]) == 1

    @pytest.mark.parametrize("case", ["ref-dir", "config-dir", "config-latin1"])
    def test_unreadable_input_exits_one(self, tmp_path, capsys, case):
        # each of these used to leak a traceback or exit 2
        wav = tmp_path / "u.wav"
        save_wav(make_utterance(seed=1, duration_s=1.0), wav)
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(b"# caf\xe9\nquiet=true\n")
        argv = {
            "ref-dir": ["nsim", "--ref", str(tmp_path), "--deg", str(wav)],
            "config-dir": ["--config", str(tmp_path), "nsim", "--ref", str(wav), "--deg", str(wav)],
            "config-latin1": ["--config", str(cfg), "nsim", "--ref", str(wav), "--deg", str(wav)],
        }[case]
        assert main(["--quiet", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(cfg if case == "config-latin1" else tmp_path) in err


class TestNsimCommand:
    def test_identity_prints_one(self, tmp_path, capsys):
        path = tmp_path / "u.wav"
        save_wav(make_utterance(seed=1, duration_s=1.0), path)
        assert main(["--quiet", "nsim", "--ref", str(path), "--deg", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "1.000000"

    def test_degraded_below_one(self, tmp_path, capsys):
        ref = tmp_path / "ref.wav"
        deg = tmp_path / "deg.wav"
        w = make_utterance(seed=2, duration_s=1.0)
        save_wav(w, ref)
        noisy = w.samples + 0.05 * np.random.default_rng(0).standard_normal(len(w.samples))
        save_wav(Waveform(np.clip(noisy, -1, 1), w.sample_rate), deg)
        assert main(["--quiet", "nsim", "--ref", str(ref), "--deg", str(deg)]) == 0
        value = float(capsys.readouterr().out)
        assert 0.0 < value < 1.0

    def test_unsupported_rate_exits_one(self, tmp_path, capsys):
        # a 1 Hz header used to be resampled to 16 kHz before any check failed
        ref = tmp_path / "ref.wav"
        deg = tmp_path / "deg.wav"
        write_raw_wav(ref, b"\x00\x00" * 50, rate=1)
        save_wav(make_utterance(seed=2, duration_s=1.0), deg)
        assert main(["--quiet", "nsim", "--ref", str(ref), "--deg", str(deg)]) == 1
        err = capsys.readouterr().err
        assert str(ref) in err and "1 Hz" in err


class TestNonCanonicalRate:
    """A 22.05 kHz input gives the bytes of resampling it to 16 kHz first."""

    @pytest.fixture
    def clips(self, tmp_path):
        clean = make_utterance(seed=3, duration_s=1.0, sr=22050)
        noisy = clean.samples + 0.05 * np.random.default_rng(1).standard_normal(len(clean.samples))
        (tmp_path / "pool").mkdir()
        (tmp_path / "in").mkdir()
        ref, deg = tmp_path / "pool" / "s__clean.wav", tmp_path / "in" / "s__noise_l0.wav"
        save_wav(clean, ref)
        save_wav(Waveform(np.clip(noisy, -1, 1), 22050), deg)
        return ref, deg

    @staticmethod
    def canonical(path):
        return resample(load_wav(path), CANONICAL_RATE)

    def test_nsim(self, clips, capsys):
        ref, deg = clips
        assert main(["--quiet", "nsim", "--ref", str(ref), "--deg", str(deg)]) == 0
        expect = utterance_nsim(self.canonical(ref), self.canonical(deg))
        assert capsys.readouterr().out == f"{expect:.6f}\n"

    def test_score_fr(self, clips, tmp_path):
        ref, deg = clips
        model = init_model(EncoderConfig(init_seed=3))
        save_checkpoint(model, tmp_path / "m.ckpt")
        out = tmp_path / "scores.csv"
        assert main(["--quiet", "score", "--model", str(tmp_path / "m.ckpt"),
                     "--input-dir", str(deg.parent), "--pool-dir", str(ref.parent),
                     "--mode", "fr", "--out", str(out)]) == 0
        value = full_reference_score(model, self.canonical(deg), self.canonical(ref))
        write_scores([ScoreRow(str(deg), value, "fr", str(ref))], tmp_path / "expect.csv")
        assert out.read_bytes() == (tmp_path / "expect.csv").read_bytes()


def test_score_fr_source_name_holding_separator(tmp_path, monkeypatch):
    # spk1__utt3's clips are scored against its own clean clip, not spk1's
    import nomadlite.cli as cli
    clean, data, ckpt, out = (tmp_path / n for n in ("clean", "data", "m.ckpt", "fr.csv"))
    clean.mkdir()
    for i, source in enumerate(("spk1", "spk1__utt3")):
        save_wav(make_utterance(seed=300 + i, duration_s=1.0), clean / f"{source}.wav")
    model = init_model(EncoderConfig())
    save_checkpoint(model, ckpt)
    assert main(["--quiet", "synth", "--clean-dir", str(clean), "--out", str(data),
                 "--families", "clip"]) == 0
    loaded = []
    monkeypatch.setattr(cli, "load_wav", lambda path: loaded.append(path) or load_wav(path))
    assert main(["--quiet", "score", "--mode", "fr", "--model", str(ckpt), "--input-dir", str(data),
                 "--pool-dir", str(data), "--out", str(out)]) == 0
    rows = read_scores(out)
    assert len(rows) == 2 * 6
    assert len(loaded) == len(rows) + 2  # each clip, and each source's counterpart once
    for r in rows:
        source = "spk1__utt3" if Path(r.clip_path).name.startswith("spk1__utt3__") else "spk1"
        assert r.pool_id == str(data / f"{source}__clean.wav")
    assert [r.nomad for r in rows if r.clip_path.endswith("__clean.wav")] == [0.0, 0.0]
    # byte for byte what full_reference_score gives each clip and its counterpart
    expect = [ScoreRow(r.clip_path, full_reference_score(model, load_wav(r.clip_path),
                                                         load_wav(r.pool_id)), "fr", r.pool_id)
              for r in rows]
    write_scores(expect, tmp_path / "expect.csv")
    assert out.read_bytes() == (tmp_path / "expect.csv").read_bytes()


# a command line for each command that holds its required flags (global
# flags, under None, run nsim), and every flag that a config file can set
# with a value other than its default (None for a flag that takes no value)
COMMAND_LINES = {
    None: ["nsim", "--ref", "a", "--deg", "b"],
    "synth": ["synth", "--clean-dir", "c", "--out", "o"],
    "triplets": ["triplets", "--manifest", "m", "--out", "o"],
    "train": ["train", "--triplets", "t", "--val", "v", "--out", "o"],
    "score": ["score", "--model", "m", "--input-dir", "i", "--pool-dir", "p", "--out", "o"],
    "eval-mos": ["eval-mos", "--scores", "s", "--mos", "m"],
    "eval-rank": ["eval-rank", "--scores", "s", "--manifest", "m"],
    "feature-loss": ["feature-loss", "--model", "m", "--clean", "c", "--estimate", "e"],
}
CONFIG_FLAGS = [
    (None, "--seed", "3"), (None, "--quiet", None),
    ("synth", "--families", "clip,noise"), ("synth", "--noise-kind", "pink"),
    ("synth", "--external-codec-cmd", "cp {in} {out}"), ("synth", "--jobs", "2"),
    ("triplets", "--count", "40"), ("triplets", "--s", "0.3"), ("triplets", "--mix", "0.6"),
    ("triplets", "--split", "0.7"),
    ("train", "--margin", "0.5"), ("train", "--batch", "4"), ("train", "--lr", "0.01"),
    ("train", "--patience", "3"), ("train", "--max-epochs", "2"),
    ("score", "--mode", "fr"),
    ("eval-mos", "--out", "x.csv"), ("eval-rank", "--out", "x.csv"),
]


@pytest.mark.parametrize("line", COMMAND_LINES.values(), ids=lambda line: line[0])
def test_subcommand_runs_its_handler(monkeypatch, line):
    import nomadlite.cli as cli
    seen = []
    monkeypatch.setattr(cli, "_cmd_" + line[0].replace("-", "_"), seen.append)
    assert main(line) == 0
    assert [args.command for args in seen] == [line[0]]


class TestConfigFile:
    def test_overrides_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# comment\nmargin = 0.5\nbatch=4\n")
        parser = build_parser()
        from nomadlite.cli import _load_config_file
        overrides = _load_config_file(cfg)
        assert overrides == {"margin": "0.5", "batch": "4"}

    def test_applied_through_main(self, tmp_path, capsys):
        # a malformed config file is a usage error
        cfg = tmp_path / "bad.txt"
        cfg.write_text("no equals sign here\n")
        assert main(["--config", str(cfg), "nsim", "--ref", "a", "--deg", "b"]) == 1

    def test_bad_value_names_file_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("batch=abc\n")
        assert main(["--config", str(cfg), "nsim", "--ref", "a", "--deg", "b"]) == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and "batch" in err and "'abc'" in err

    @pytest.mark.parametrize("spelling", ["separate", "equals", "abbreviated"])
    def test_bad_value_exits_one_in_either_spelling(self, tmp_path, capsys, spelling):
        # argparse accepts --conf for --config; the file used to go unread then
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("batch=abc\n")
        flag = {"separate": ["--config", str(cfg)], "equals": [f"--config={cfg}"],
                "abbreviated": ["--conf", str(cfg)]}[spelling]
        assert main([*flag, "nsim", "--ref", "a", "--deg", "b"]) == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and "batch" in err

    def test_trailing_config_is_usage_error(self, capsys):
        assert main(["nsim", "--ref", "a", "--deg", "b", "--config"]) == 1
        err = capsys.readouterr().err
        assert "--config" in err and "index" not in err

    def test_abbreviated_subcommand_flag_is_not_config(self, tmp_path, monkeypatch):
        # `--co` abbreviates triplets' --count; the --config pre-parse must leave it alone
        import nomadlite.cli as cli
        read = []
        monkeypatch.setattr(cli, "_load_config_file", lambda path: read.append(path) or {})
        assert main(["--quiet", "triplets", "--manifest", str(tmp_path / "none.csv"),
                     "--co", "40", "--out", str(tmp_path)]) == 1
        assert read == []

    @pytest.fixture
    def run_nsim(self, tmp_path, monkeypatch):
        """main() on a config file, with the nsim command replaced by one
        that records the parsed args and exits 0."""
        import nomadlite.cli as cli
        seen = []
        monkeypatch.setattr(cli, "_cmd_nsim", seen.append)

        def run(text):
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(text)
            return main(["--config", str(cfg), "nsim", "--ref", "a", "--deg", "b"]), seen, cfg
        return run

    @pytest.fixture
    def run_routes(self, tmp_path, monkeypatch):
        """main() with a flag given on the command line and then from a
        config file, each with the command replaced by one that records the
        parsed args and exits 0: the two exit codes and the recorded args."""
        import nomadlite.cli as cli
        seen = []

        def run(command, flag, value):
            line = COMMAND_LINES[command]
            monkeypatch.setattr(cli, "_cmd_" + line[0].replace("-", "_"), seen.append)
            given = [flag] if value is None else [flag, value]
            rc_flag = main(given + line if command is None else line + given)
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(f"{flag[2:]}={'true' if value is None else value}\n")
            rc_config = main(["--config", str(cfg), *line])
            return rc_flag, rc_config, [{k: v for k, v in vars(a).items() if k != "config"}
                                        for a in seen]
        return run

    def test_every_settable_flag_listed(self):
        parser = build_parser()
        settable = {(name, a.option_strings[0])
                    for name, p in [(None, parser), *parser._sub_choices.items()]
                    for a in p._actions
                    if a.option_strings and not a.required and a.dest not in ("help", "config")}
        assert settable == {(command, flag) for command, flag, _ in CONFIG_FLAGS}

    @pytest.mark.parametrize("command, flag, value", CONFIG_FLAGS)
    def test_config_value_parses_like_its_flag(self, run_routes, command, flag, value):
        rc_flag, rc_config, (from_flag, from_config) = run_routes(command, flag, value)
        assert rc_flag == rc_config == 0
        assert from_config == from_flag
        dest = flag[2:].replace("-", "_")
        assert from_flag[dest] != getattr(build_parser().parse_args(COMMAND_LINES[command]), dest)

    @pytest.mark.parametrize("command, flag, value", [("score", "--mode", "bogus"),
                                                      ("synth", "--noise-kind", "brown")])
    def test_value_outside_choices_exits_one(self, run_routes, capsys, command, flag, value):
        # argparse checks choices on the command line; set_defaults does not
        rc_flag, rc_config, seen = run_routes(command, flag, value)
        assert rc_flag == rc_config == 1 and seen == []
        err = capsys.readouterr().err.splitlines()[-1]
        assert "cfg.txt" in err and flag[2:].replace("-", "_") in err and repr(value) in err
        assert "expected one of [" in err

    @pytest.mark.parametrize("value, quiet", [("false", False), ("FALSE", False),
                                              ("true", True), ("True", True)])
    def test_flag_takes_true_or_false(self, run_nsim, value, quiet):
        rc, seen, _ = run_nsim(f"quiet={value}\n")
        assert rc == 0
        assert [args.quiet for args in seen] == [quiet]

    @pytest.mark.parametrize("value", ["yes", "1", ""])
    def test_flag_other_value_exits_one(self, run_nsim, capsys, value):
        rc, seen, cfg = run_nsim(f"quiet={value}\n")
        assert rc == 1 and seen == []
        err = capsys.readouterr().err
        assert str(cfg) in err and "quiet" in err and "true or false" in err

    @pytest.mark.parametrize("key", ["bacth", "max_epoch", "command"])
    def test_unknown_key_exits_one(self, run_nsim, capsys, key):
        rc, seen, cfg = run_nsim(f"seed=3\n{key}=4\n")
        assert rc == 1 and seen == []
        err = capsys.readouterr().err
        assert str(cfg) in err and repr(key) in err

    def test_required_flag_cannot_come_from_config(self, tmp_path, capsys):
        # the first parse, before the file is read, already needs every required flag
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"clean_dir={tmp_path}\nout={tmp_path / 'out'}\n")
        assert main(["--config", str(cfg), "synth"]) == 1
        assert "required: --clean-dir, --out" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestEvalOut:
    """Exact bytes of the eval-mos and eval-rank --out tables."""

    def test_eval_mos_out(self, tmp_path, capsys):
        write_scores([ScoreRow(f"{c}.wav", s, "nmr", "p") for c, s in
                      [("a1", 0.1), ("a2", 0.3), ("b1", 0.7), ("b2", 0.9)]], tmp_path / "s.csv")
        (tmp_path / "mos.csv").write_text(
            'clip_path,condition_id,mos\na1.wav,"mild, low",4\na2.wav,"mild, low",5\n'
            "b1.wav,severe,2\nb2.wav,severe,1\n")
        out = tmp_path / "out.csv"
        assert main(["--quiet", "eval-mos", "--scores", str(tmp_path / "s.csv"),
                     "--mos", str(tmp_path / "mos.csv"), "--out", str(out)]) == 0
        # a cell holding a comma is quoted, so the file stays valid CSV
        assert out.read_bytes() == (
            b"condition_id,mean_score,mean_mos\n"
            b'"mild, low",0.200000000000,4.500000000000\n'
            b"severe,0.800000000000,1.500000000000\n"
        )
        # stdout keeps its 6 decimals and quotes the same cell
        assert capsys.readouterr().out == (
            "conditions: 2  PC: -1.0000  SC: -1.0000\n"
            "condition_id,mean_score,mean_mos\n"
            '"mild, low",0.200000,4.500000\n'
            "severe,0.800000,1.500000\n"
        )

    def test_eval_mos_repeated_clip_exits_one(self, tmp_path, capsys):
        # the join used to keep the last of a.wav's rows and report c1 at MOS 1.0
        write_scores([ScoreRow("a.wav", 0.1, "nmr", "p"), ScoreRow("b.wav", 0.9, "nmr", "p")],
                     tmp_path / "s.csv")
        (tmp_path / "mos.csv").write_text(
            "clip_path,condition_id,mos\na.wav,c1,4.5\na.wav,c1,1.0\nb.wav,c2,2.0\n")
        assert main(["--quiet", "eval-mos", "--scores", str(tmp_path / "s.csv"),
                     "--mos", str(tmp_path / "mos.csv")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "MOS file repeats clip path a.wav" in err

    def test_eval_rank_no_join_exits_one(self, tmp_path, capsys):
        # manifest paths relative, score paths absolute: nothing joins
        write_manifest([ManifestRow(f"data/n{i}.wav", "s", "noise", i, 8.0 * i, 0.5)
                        for i in range(3)], tmp_path / "m.csv")
        write_scores([ScoreRow(f"/abs/data/n{i}.wav", 0.1 * i, "nmr", "p") for i in range(3)],
                     tmp_path / "s.csv")
        assert main(["--quiet", "eval-rank", "--scores", str(tmp_path / "s.csv"),
                     "--manifest", str(tmp_path / "m.csv")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "no clip paths in common" in err

    def test_eval_rank_out(self, tmp_path, capsys):
        clips = [("c0", "clip", 0, 5.0, 0.1), ("c1", "clip", 1, 10.0, 0.2),
                 ("c2", "clip", 2, 25.0, 0.3), ("n0", "noise", 0, 0.0, 0.5),
                 ("n1", "noise", 1, 8.0, 0.5)]
        write_manifest([ManifestRow(f"{c}.wav", "s", f, i, lp, 0.5) for c, f, i, lp, _ in clips],
                       tmp_path / "m.csv")
        write_scores([ScoreRow(f"{c}.wav", s, "nmr", "p") for c, *_, s in clips],
                     tmp_path / "s.csv")
        out = tmp_path / "out.csv"
        assert main(["--quiet", "eval-rank", "--scores", str(tmp_path / "s.csv"),
                     "--manifest", str(tmp_path / "m.csv"), "--out", str(out)]) == 0
        assert out.read_bytes() == b"family,spearman\nclip,+1.0000\nnoise,undefined\n"
        assert capsys.readouterr().out == "family,spearman\nclip,+1.0000\nnoise,undefined\n"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Small end-to-end run: synth -> triplets -> train -> score."""
    root = tmp_path_factory.mktemp("cli_pipeline")
    clean = root / "clean"
    write_clean_corpus(clean, n=4)
    data = root / "data"
    rc = main(["--quiet", "--seed", "7", "synth", "--clean-dir", str(clean),
               "--out", str(data), "--families", "clip,noise"])
    assert rc == 0
    rc = main(["--quiet", "--seed", "7", "triplets", "--manifest", str(data / "manifest.csv"),
               "--count", "40", "--out", str(root)])
    assert rc == 0
    ckpt = root / "model.ckpt"
    rc = main(["--quiet", "--seed", "7", "train",
               "--triplets", str(root / "triplets_train.csv"),
               "--val", str(root / "triplets_val.csv"),
               "--max-epochs", "1", "--patience", "1", "--out", str(ckpt)])
    assert rc == 0
    return root, clean, data, ckpt


class TestPipeline:
    def test_synth_outputs(self, pipeline):
        root, clean, data, ckpt = pipeline
        manifest = read_manifest(data / "manifest.csv")
        # 4 sources x (clean + 2 families x 5 levels)
        assert len(manifest) == 4 * 11
        assert all((data / r.clip_path).name for r in manifest)

    def test_triplets_outputs(self, pipeline):
        root, *_ = pipeline
        train = read_triplets(root / "triplets_train.csv")
        val = read_triplets(root / "triplets_val.csv")
        assert len(train) + len(val) == 40
        assert {r.source_id for r in train} & {r.source_id for r in val} == set()

    def test_train_outputs(self, pipeline):
        root, clean, data, ckpt = pipeline
        model = load_checkpoint(ckpt)
        assert model.config.embed_dim == 256
        report = (str(ckpt) + ".report.csv")
        with open(report) as f:
            assert f.readline().strip() == "epoch,train_loss,val_loss,lr"

    def test_score_nmr_and_rank(self, pipeline, capsys):
        root, clean, data, ckpt = pipeline
        scores_path = root / "scores.csv"
        rc = main(["--quiet", "score", "--model", str(ckpt), "--input-dir", str(data),
                   "--pool-dir", str(clean), "--mode", "nmr", "--out", str(scores_path)])
        assert rc == 0
        rows = read_scores(scores_path)
        assert len(rows) == 4 * 11
        assert all(r.mode == "nmr" and 0.0 <= r.nomad <= 2.0 for r in rows)
        rc = main(["--quiet", "eval-rank", "--scores", str(scores_path),
                   "--manifest", str(data / "manifest.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("family,spearman")
        assert "noise," in out and "clip," in out

    def test_score_fr(self, pipeline):
        root, clean, data, ckpt = pipeline
        # fr mode needs <source>__clean.wav counterparts; synth writes them
        # into the data dir itself
        scores_path = root / "scores_fr.csv"
        rc = main(["--quiet", "score", "--model", str(ckpt), "--input-dir", str(data),
                   "--pool-dir", str(data), "--mode", "fr", "--out", str(scores_path)])
        assert rc == 0
        rows = read_scores(scores_path)
        by_clip = {r.clip_path: r for r in rows}
        clean_rows = [r for p, r in by_clip.items() if p.endswith("__clean.wav")]
        assert clean_rows and all(r.nomad == 0.0 for r in clean_rows)

    def test_eval_mos(self, pipeline, tmp_path, capsys):
        root, clean, data, ckpt = pipeline
        scores = read_scores(root / "scores.csv")
        mos_path = tmp_path / "mos.csv"
        manifest = {r.clip_path: r for r in read_manifest(data / "manifest.csv")}
        with open(mos_path, "w") as f:
            f.write("clip_path,condition_id,mos\n")
            for s in scores:
                row = manifest[s.clip_path]
                # synthetic MOS: linear in the distance score itself
                f.write(f"{s.clip_path},{row.family}_l{row.level_index},{5 - 2 * s.nomad}\n")
        rc = main(["--quiet", "eval-mos", "--scores", str(root / "scores.csv"),
                   "--mos", str(mos_path)])
        assert rc == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert "PC: -1.0000" in first and "SC: -1.0000" in first

    def test_feature_loss_command(self, pipeline, capsys):
        root, clean, data, ckpt = pipeline
        ref = str(clean / "src0.wav")
        deg = str(data / "src0__noise_l0.wav")
        assert main(["--quiet", "feature-loss", "--model", str(ckpt),
                     "--clean", ref, "--estimate", ref]) == 0
        assert float(capsys.readouterr().out) == 0.0
        assert main(["--quiet", "feature-loss", "--model", str(ckpt),
                     "--clean", ref, "--estimate", deg]) == 0
        assert float(capsys.readouterr().out) > 0.0

    def test_synth_rerun_deterministic(self, pipeline, tmp_path):
        root, clean, data, ckpt = pipeline
        again = tmp_path / "again"
        rc = main(["--quiet", "--seed", "7", "synth", "--clean-dir", str(clean),
                   "--out", str(again), "--families", "clip,noise"])
        assert rc == 0
        for p in sorted(data.glob("*.wav")):
            assert (again / p.name).read_bytes() == p.read_bytes()

    def test_synth_jobs_match_serial(self, pipeline, tmp_path):
        # a codec family too: each thread's sources carry their own rFFT
        root, clean, data, ckpt = pipeline
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        for out, jobs in ((serial, "1"), (parallel, "2")):
            rc = main(["--quiet", "--seed", "7", "synth", "--clean-dir", str(clean), "--out", str(out),
                       "--families", "clip,noise,codec_proxy_mp3like", "--jobs", jobs])
            assert rc == 0
        # manifest rows hold the output directory; everything else must match
        manifest = (parallel / "manifest.csv").read_text().replace(str(parallel), str(serial))
        assert manifest == (serial / "manifest.csv").read_text()
        assert len(manifest.splitlines()) == 1 + 4 * 16
        for p in sorted(serial.glob("*.wav")):
            assert (parallel / p.name).read_bytes() == p.read_bytes()
        # the pipeline's clip and noise clips are the same bytes
        for p in sorted(data.glob("*.wav")):
            assert (serial / p.name).read_bytes() == p.read_bytes()

    @pytest.mark.parametrize("families", ["clip,clip", ",", "clip,bogus"])
    def test_synth_bad_families_exit_one(self, pipeline, tmp_path, capsys, families):
        root, clean, data, ckpt = pipeline
        out = tmp_path / "out"
        assert main(["--quiet", "synth", "--clean-dir", str(clean), "--out", str(out),
                     "--families", families]) == 1
        err = capsys.readouterr().err
        assert "families must be distinct names from" in err and "codec_proxy_mp3like" in err
        assert not out.exists()

    @pytest.mark.parametrize("families, template, message", [
        ("clip,external_codec", "cp {input} {out}", "unknown placeholder {input}"),
        ("clip,external_codec", None, "no external codec command configured"),
        ("external_codec", "cp {input} {out}", "unknown placeholder {input}"),
        ("external_codec", 'cp "{in} {out}', "No closing quotation"),
        ("external_codec", None, "no external codec command configured"),
    ], ids=["mixed-unknown-placeholder", "mixed-no-template", "unknown-placeholder",
            "unclosed-quote", "no-template"])
    def test_synth_bad_codec_template_exits_one_before_writing(self, pipeline, tmp_path, capsys,
                                                               families, template, message):
        # the template used to be read per clip under skip-and-log: a mixed run exited 0
        # without the codec rows, and a codec-only run exited 1 after writing the clean WAVs
        root, clean, data, ckpt = pipeline
        out = tmp_path / "out"
        args = ["--quiet", "synth", "--clean-dir", str(clean), "--out", str(out), "--families", families]
        if template is not None:
            args += ["--external-codec-cmd", template]
        assert main(args) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_synth_unknown_noise_kind_from_config_exits_one(self, pipeline, tmp_path, capsys):
        # argparse checks choices on the command line only, not on config-file defaults
        root, clean, data, ckpt = pipeline
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("noise_kind=brown\n")
        out = tmp_path / "out"
        assert main(["--quiet", "--config", str(cfg), "synth", "--clean-dir", str(clean),
                     "--out", str(out), "--families", "noise"]) == 1
        err = capsys.readouterr().err
        assert "'brown'" in err and "'pink'" in err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_synth_jobs_below_one_exits_one(self, pipeline, tmp_path, capsys, jobs):
        root, clean, data, ckpt = pipeline
        assert main(["--quiet", "synth", "--clean-dir", str(clean), "--out", str(tmp_path),
                     "--families", "clip", "--jobs", jobs]) == 1
        assert "jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--margin", "nan"), ("--margin", "inf"),
                                             ("--lr", "nan"), ("--lr", "inf")])
    def test_train_non_finite_exits_one(self, pipeline, tmp_path, capsys, flag, value):
        root, *_ = pipeline
        assert main(["--quiet", "train", "--triplets", str(root / "triplets_train.csv"),
                     "--val", str(root / "triplets_val.csv"), "--max-epochs", "1",
                     flag, value, "--out", str(tmp_path / "m.ckpt")]) == 1
        assert flag[2:] in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "triplets"])
    def test_negative_seed_exits_one_before_reading(self, tmp_path, capsys, command):
        # the input files do not exist, so reading any of them first would name a path
        argv = {
            "train": ["train", "--triplets", str(tmp_path / "t.csv"),
                      "--val", str(tmp_path / "v.csv"), "--out", str(tmp_path / "m.ckpt")],
            "triplets": ["triplets", "--manifest", str(tmp_path / "m.csv"),
                         "--out", str(tmp_path / "out")],
        }[command]
        assert main(["--quiet", "--seed", "-1", *argv]) == 1
        err = capsys.readouterr().err
        assert "seed must be a nonnegative integer, got -1" in err and str(tmp_path) not in err

    def test_train_negative_max_epochs_exits_one(self, pipeline, tmp_path, capsys):
        root, *_ = pipeline
        assert main(["--quiet", "train", "--triplets", str(root / "triplets_train.csv"),
                     "--val", str(root / "triplets_val.csv"), "--max-epochs", "-1",
                     "--out", str(tmp_path / "m.ckpt")]) == 1
        assert "max_epochs" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("cwd, pool_dir", [("refs", "."), ("refs/inner", "..")])
    def test_score_pool_named_by_its_directory(self, pipeline, tmp_path, monkeypatch, cwd, pool_dir):
        # Path(".").name is "" and Path("..").name is "..": every row's pool_id used to be that
        root, clean, data, ckpt = pipeline
        write_clean_corpus(tmp_path / "refs", n=2)
        (tmp_path / "refs" / "inner").mkdir()
        monkeypatch.chdir(tmp_path / cwd)
        assert main(["--quiet", "score", "--model", str(ckpt), "--input-dir", str(clean),
                     "--pool-dir", pool_dir, "--out", str(tmp_path / "scores.csv")]) == 0
        assert [r.pool_id for r in read_scores(tmp_path / "scores.csv")] == ["refs"] * 4

    def test_train_and_score_create_their_output_directories(self, pipeline, tmp_path):
        # both used to do all their work, then fail to open the output file
        root, clean, data, ckpt = pipeline
        new_ckpt = tmp_path / "new" / "sub" / "model.ckpt"
        assert main(["--quiet", "--seed", "7", "train", "--triplets", str(root / "triplets_train.csv"),
                     "--val", str(root / "triplets_val.csv"), "--max-epochs", "1", "--patience", "1",
                     "--out", str(new_ckpt)]) == 0
        assert new_ckpt.read_bytes() == ckpt.read_bytes()
        assert Path(str(new_ckpt) + ".report.csv").is_file()
        scores = tmp_path / "more" / "sub" / "scores.csv"
        assert main(["--quiet", "score", "--model", str(ckpt), "--input-dir", str(clean),
                     "--pool-dir", str(clean), "--out", str(scores)]) == 0
        assert len(read_scores(scores)) == 4

    @pytest.mark.parametrize("command, work", [
        ("train", "nomadlite.train.fit"), ("score", "nomadlite.score.pooled_score"),
        ("eval-mos", "nomadlite.evaluate.aggregate_per_condition"),
        ("eval-rank", "nomadlite.evaluate.monotonicity_report"),
    ])
    def test_out_under_a_file_exits_one_before_the_work(self, pipeline, tmp_path, monkeypatch, capsys,
                                                         command, work):
        root, clean, data, ckpt = pipeline
        write_scores([ScoreRow(str(data / "src0__noise_l0.wav"), 0.5, "nmr", "p")], tmp_path / "s.csv")
        (tmp_path / "mos.csv").write_text(f"clip_path,condition_id,mos\n{data / 'src0__noise_l0.wav'},c,3\n")
        (tmp_path / "file").write_text("")
        out = str(tmp_path / "file" / "out")
        argv = {
            "train": ["train", "--triplets", str(root / "triplets_train.csv"),
                      "--val", str(root / "triplets_val.csv"), "--max-epochs", "1"],
            "score": ["score", "--model", str(ckpt), "--input-dir", str(clean), "--pool-dir", str(clean)],
            "eval-mos": ["eval-mos", "--scores", str(tmp_path / "s.csv"), "--mos", str(tmp_path / "mos.csv")],
            "eval-rank": ["eval-rank", "--scores", str(tmp_path / "s.csv"),
                          "--manifest", str(data / "manifest.csv")],
        }[command]

        def work_ran(*args, **kwargs):
            raise AssertionError(f"{work} ran")

        monkeypatch.setattr(work, work_ran)
        assert main(["--quiet", *argv, "--out", out]) == 1
        assert str(tmp_path / "file") in capsys.readouterr().err

    def test_triplets_non_finite_nsim_exits_one(self, pipeline, tmp_path, capsys):
        # a NaN label on one level of each of 3 sources used to reach the triplets
        root, clean, data, ckpt = pipeline
        rows = read_manifest(data / "manifest.csv")
        for source in sorted({r.source_id for r in rows})[:3]:
            i = next(i for i, r in enumerate(rows)
                     if r.source_id == source and r.family == "noise" and r.level_index == 2)
            rows[i] = dataclasses.replace(rows[i], nsim=float("nan"))
        write_manifest(rows, tmp_path / "manifest.csv")
        assert main(["--quiet", "triplets", "--manifest", str(tmp_path / "manifest.csv"),
                     "--count", "50", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "manifest.csv") in err and "'nsim'" in err
        assert not (tmp_path / "out").exists()
