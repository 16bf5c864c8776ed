"""Command-line entry point for the full pipeline.

Subcommands: synth, nsim, triplets, train, score, eval-mos, eval-rank,
feature-loss. Exit codes: 0 success, 1 input/usage error, 2 internal error.
"""

import argparse
import logging
import sys
from dataclasses import make_dataclass
from pathlib import Path

from . import degrade, evaluate, score as scoring, train as training, triplets as tri
from .audio_core import load_wav, wav_files
from .errors import NomadError
from .net import load_checkpoint, save_checkpoint
from .nsim import utterance_nsim
from .table import column, write_table

log = logging.getLogger("nomadlite")

RankRow = make_dataclass("RankRow", [("family", str), ("spearman", str)])
# eval-mos prints evaluate.ConditionRow with 6 decimals instead of 12
StdoutConditionRow = make_dataclass("StdoutConditionRow", [
    ("condition_id", str), ("mean_score", float, column(".6f")), ("mean_mos", float, column(".6f"))])


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_config_file(path: str) -> dict:
    """Flat key=value overrides; keys use the flag spelling without dashes."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise NomadError(f"{path}: not UTF-8 text ({e})") from e
    overrides = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise NomadError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        overrides[key.strip().replace("-", "_")] = value.strip()
    return overrides


def _config_value(action: argparse.Action, raw: str):
    """A config-file value as the flag's type; a flag that takes no value
    (such as --quiet) accepts only true or false, in any case."""
    if action.nargs == 0:
        if raw.lower() not in ("true", "false"):
            raise ValueError("expected true or false")
        return raw.lower() == "true"
    value = action.type(raw) if action.type else raw
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"expected one of {list(action.choices)}")
    return value


def _apply_config(parser: _Parser, path: str) -> None:
    """Set each config-file value as the default of every flag with its key."""
    overrides = _load_config_file(path)
    unused = set(overrides)
    for p in [parser, *parser._sub_choices.values()]:
        for action in p._actions:
            if action.dest not in overrides or not action.option_strings:
                continue
            unused.discard(action.dest)
            raw = overrides[action.dest]
            try:
                p.set_defaults(**{action.dest: _config_value(action, raw)})
            except ValueError as e:
                raise NomadError(f"{path}: bad value for {action.dest}: {raw!r} ({e})") from e
    if unused:
        raise NomadError(f"{path}: unknown key(s) {sorted(unused)}")


def build_parser() -> _Parser:
    parser = _Parser(prog="nomadlite", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="global RNG seed (default %(default)s)")
    parser.add_argument("--config", help="key=value config file; flags still win")
    parser.add_argument("--quiet", action="store_true", help="suppress the config echo and info logs")
    sub = parser.add_subparsers(dest="command", required=True)
    parser._sub_choices = sub.choices  # kept for config-file default injection

    p = sub.add_parser("synth", help="synthesize the degraded dataset and manifest")
    p.add_argument("--clean-dir", required=True, help="directory of clean mono 16-bit WAVs")
    p.add_argument("--out", required=True, help="output directory (WAVs + manifest.csv)")
    p.add_argument("--families", default=",".join(degrade.DEFAULT_FAMILIES),
                   help=f"comma list from {sorted(degrade.LEVEL_TABLES)} (default %(default)s)")
    p.add_argument("--noise-kind", choices=list(degrade.NOISE_KINDS),
                   default=degrade.DEFAULT_NOISE_KIND)
    p.add_argument("--external-codec-cmd",
                   help="command template with {in} {out} {kbps} for the external_codec family")
    p.add_argument("--jobs", type=int, default=1, help="parallel sources (default %(default)s)")

    p = sub.add_parser("nsim", help="print the utterance NSIM of two files")
    p.add_argument("--ref", required=True)
    p.add_argument("--deg", required=True)

    p = sub.add_parser("triplets", help="sample triplets from a manifest and split by source")
    p.add_argument("--manifest", required=True)
    p.add_argument("--count", type=int, default=8000, help="triplets to draw (default %(default)s)")
    p.add_argument("--s", type=float, default=tri.SamplerConfig.s,
                   help="easy-negative margin (default %(default)s)")
    p.add_argument("--mix", type=float, default=tri.SamplerConfig.strategy_mix,
                   help="fraction of easy triplets (default %(default)s)")
    p.add_argument("--split", type=float, default=0.8, help="train fraction by source (default %(default)s)")
    p.add_argument("--out", required=True, help="output directory for triplets_{train,val}.csv")

    p = sub.add_parser("train", help="train the embedding network on triplet files")
    p.add_argument("--triplets", required=True, help="training triplet CSV")
    p.add_argument("--val", required=True, help="validation triplet CSV")
    p.add_argument("--margin", type=float, default=training.TrainConfig.margin)
    p.add_argument("--batch", type=int, default=training.TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=training.TrainConfig.lr)
    p.add_argument("--patience", type=int, default=training.TrainConfig.patience)
    p.add_argument("--max-epochs", type=int, default=training.TrainConfig.max_epochs)
    p.add_argument("--out", required=True, help="checkpoint path (report CSV written alongside)")

    p = sub.add_parser("score", help="score degraded clips against references")
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--input-dir", required=True, help="directory of clips to score")
    p.add_argument("--pool-dir", required=True,
                   help="clean references; in fr mode must hold <source>__clean.wav counterparts")
    p.add_argument("--mode", choices=["nmr", "fr"], default="nmr")
    p.add_argument("--out", required=True, help="output score CSV")

    p = sub.add_parser("eval-mos", help="correlate scores with MOS per condition")
    p.add_argument("--scores", required=True)
    p.add_argument("--mos", required=True)
    p.add_argument("--out", help="optional per-condition CSV")

    p = sub.add_parser("eval-rank", help="per-family Spearman of score vs degradation level")
    p.add_argument("--scores", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="optional CSV")

    p = sub.add_parser("feature-loss", help="deep feature L1 loss between clean and estimate")
    p.add_argument("--model", required=True)
    p.add_argument("--clean", required=True)
    p.add_argument("--estimate", required=True)

    return parser


def _cmd_synth(args) -> int:
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    rows = degrade.synth_dataset(
        args.clean_dir, args.out, seed=args.seed, families=families,
        noise_kind=args.noise_kind, external_codec_cmd=args.external_codec_cmd,
        jobs=args.jobs,
    )
    log.info("wrote %d manifest rows to %s", len(rows), Path(args.out) / "manifest.csv")
    return 0


def _cmd_nsim(args) -> int:
    print(f"{utterance_nsim(load_wav(args.ref), load_wav(args.deg)):.6f}")
    return 0


def _cmd_triplets(args) -> int:
    cfg = tri.SamplerConfig(s=args.s, strategy_mix=args.mix, rng_seed=args.seed)
    sets = tri.build_sample_sets(degrade.read_manifest(args.manifest))
    records = tri.generate_triplets(sets, cfg, args.count)
    train_recs, val_recs = tri.split_by_source(records, args.split, rng_seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tri.write_triplets(train_recs, out / "triplets_train.csv")
    tri.write_triplets(val_recs, out / "triplets_val.csv")
    log.info("wrote %d train / %d val triplets to %s", len(train_recs), len(val_recs), out)
    return 0


def _cmd_train(args) -> int:
    cfg = training.TrainConfig(
        margin=args.margin, batch_size=args.batch, lr=args.lr,
        patience=args.patience, max_epochs=args.max_epochs, seed=args.seed,
    )
    train_recs = tri.read_triplets(args.triplets)
    val_recs = tri.read_triplets(args.val)
    model, report = training.fit(train_recs, val_recs, cfg)
    save_checkpoint(model, args.out)
    report.write_csv(str(args.out) + ".report.csv")
    log.info("best val loss %.6f at epoch %d (initial %.6f), %.1fs",
             report.best_val_loss, report.best_epoch, report.initial_val_loss,
             report.wall_time_s)
    return 0


def _cmd_score(args) -> int:
    model = load_checkpoint(args.model)
    clips = wav_files(args.input_dir)
    pool_dir = Path(args.pool_dir)
    if args.mode == "nmr":
        pool = scoring.ReferencePool([load_wav(r) for r in wav_files(pool_dir)], pool_id=pool_dir.name)

        def score_one(clip):
            return scoring.ScoreRow(str(clip), scoring.pooled_score(model, load_wav(clip), pool),
                                    "nmr", pool.pool_id)
    else:
        def score_one(clip):
            ref_path = pool_dir / degrade.clean_name(degrade.source_id_of(clip))
            if not ref_path.exists():
                raise NomadError(f"no clean counterpart {ref_path} for {clip}")
            value = scoring.full_reference_score(model, load_wav(clip), load_wav(ref_path))
            return scoring.ScoreRow(str(clip), value, "fr", str(ref_path))

    rows = [score_one(c) for c in clips]
    scoring.write_scores(rows, args.out)
    log.info("wrote %d scores to %s", len(rows), args.out)
    return 0


def _cmd_eval_mos(args) -> int:
    report = evaluate.aggregate_per_condition(
        scoring.read_scores(args.scores), evaluate.read_mos(args.mos)
    )
    print(f"conditions: {report.n_conditions}  PC: {report.pc:+.4f}  SC: {report.sc:+.4f}")
    write_table(sys.stdout, StdoutConditionRow, report.per_condition)
    if args.out:
        write_table(args.out, evaluate.ConditionRow, report.per_condition)
    return 0


def _cmd_eval_rank(args) -> int:
    result = evaluate.monotonicity_report(
        scoring.read_scores(args.scores), degrade.read_manifest(args.manifest)
    )
    rows = [RankRow(family, "undefined" if sc is None else f"{sc:+.4f}") for family, sc in result.items()]
    write_table(sys.stdout, RankRow, rows)
    if args.out:
        write_table(args.out, RankRow, rows)
    return 0


def _cmd_feature_loss(args) -> int:
    model = load_checkpoint(args.model)
    loss, _grad = scoring.feature_loss(model, load_wav(args.clean), load_wav(args.estimate))
    print(f"{loss:.6f}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "nsim": _cmd_nsim,
    "triplets": _cmd_triplets,
    "train": _cmd_train,
    "score": _cmd_score,
    "eval-mos": _cmd_eval_mos,
    "eval-rank": _cmd_eval_rank,
    "feature-loss": _cmd_feature_loss,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # config values are defaults, so flags still win on the second parse
            _apply_config(parser, args.config)
            args = parser.parse_args(argv)
        logging.basicConfig(level=logging.WARNING if args.quiet else logging.INFO,
                            format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
        if not args.quiet:
            log.info("resolved config: %s",
                     {k: v for k, v in sorted(vars(args).items()) if k != "config"})
        return _COMMANDS[args.command](args)
    except SystemExit as e:
        return int(e.code or 0)
    except (NomadError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - internal failure
        log.exception("internal error: %s", e)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
