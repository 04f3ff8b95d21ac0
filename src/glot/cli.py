"""Command-line pipeline: synthesize data, train, cross-validate, evaluate,
gradient-check, and benchmark attention.

Exit codes: 0 success, 1 check failure, 2 usage/data error, 3 numeric
divergence. Every command accepts ``--config FILE`` with flat key=value
lines mirroring flag names; explicit flags win over file values, and
unknown keys and values outside a flag's choices are rejected.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dataio, metrics, numcore as nc, sparse_attention as sa, training
from .dataio import DataError, FormatError
from .model import CheckpointError, GlotConfig, GlotModel, load_checkpoint
from .numcore import ConfigError, Tensor

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


class UsageError(Exception):
    pass


def _load_config_file(path: str, known: set[str]) -> dict[str, tuple]:
    """Map each key of a key=value file to (line number, raw value)."""
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {path}")
    values = {}
    for ln, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected key=value")
        key, val = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in known:
            raise UsageError(f"{path}:{ln}: unknown config key {key!r}")
        values[key] = (ln, val.strip())
    return values


def _merge_config(args: argparse.Namespace, parser_defaults: dict,
                  choices: dict[str, list]) -> None:
    """Fill file values into args where the flag was left unset; a value
    for a flag with choices must be one of them."""
    if not getattr(args, "config", None):
        for key, default in parser_defaults.items():
            if getattr(args, key) is None:
                setattr(args, key, default)
        return
    file_vals = _load_config_file(args.config, set(parser_defaults))
    for key, default in parser_defaults.items():
        if getattr(args, key) is not None:
            continue
        if key in file_vals:
            ln, raw = file_vals[key]
            caster = type(default) if default is not None else str
            try:
                setattr(args, key, caster(raw))
            except ValueError:
                raise UsageError(f"{args.config}:{ln}: {key}={raw!r} is not "
                                 f"a valid {caster.__name__}") from None
            if key in choices and getattr(args, key) not in choices[key]:
                raise UsageError(f"{args.config}:{ln}: {key}={raw!r} is not "
                                 f"one of {', '.join(choices[key])}")
        else:
            setattr(args, key, default)


# ---------------------------------------------------------------------------
# shared model/pipeline assembly

def _dataset_limits(samples: list[dataio.SignSample]) -> tuple[int, int, int]:
    max_frames = max(s.features.shape[0] for s in samples)
    max_target = max(max(len(s.gloss), len(s.text)) for s in samples)
    feat_dim = samples[0].features.shape[1]
    return max_frames, max_target, feat_dim


def _build_pipeline(args, cv_samples):
    gloss_vocab = dataio.build_vocab([s.gloss for s in cv_samples])
    text_vocab = dataio.build_vocab([s.text for s in cv_samples])
    max_frames, max_target, feat_dim = _dataset_limits(cv_samples)
    preset = GlotConfig.set1 if args.hparams == "set1" else GlotConfig.set2
    overrides = dict(feat_dim=feat_dim,
                     max_frames=max_frames,
                     max_target_len=max_target + 2,
                     gloss_vocab_size=len(gloss_vocab),
                     text_vocab_size=len(text_vocab),
                     encoder_kind=("glot" if args.encoder == "glot"
                                   else "dense_baseline"))
    if args.d_model:
        overrides["d_model"] = args.d_model
    if args.ff_size:
        overrides["ff_size"] = args.ff_size
    if args.heads:
        overrides["n_heads"] = args.heads
    mconfig = preset(**overrides)

    tpreset = (training.TrainConfig.set1 if args.hparams == "set1"
               else training.TrainConfig.set2)
    toverrides = dict(seed=args.seed)
    if args.epochs:
        toverrides["epochs"] = args.epochs
    if args.batch_size:
        toverrides["batch_size"] = args.batch_size
    if args.lr:
        toverrides["lr_initial"] = args.lr
    tconfig = tpreset(**toverrides)
    return mconfig, tconfig, gloss_vocab, text_vocab


def _print_effective_config(mconfig: GlotConfig, tconfig) -> None:
    print("effective config: "
          f"d_model={mconfig.d_model} n_heads={mconfig.n_heads} "
          f"n_encoders={mconfig.n_encoders} n_decoders={mconfig.n_decoders} "
          f"ff_size={mconfig.ff_size} dropout={mconfig.dropout} "
          f"encoder_kind={mconfig.encoder_kind} "
          f"epochs={tconfig.epochs} batch_size={tconfig.batch_size} "
          f"lr_initial={tconfig.lr_initial:g} lr_floor={tconfig.lr_floor:g} "
          f"lr_factor={tconfig.lr_factor:g} schedule={tconfig.schedule}")


# ---------------------------------------------------------------------------
# commands

def cmd_synth(args) -> int:
    out = Path(args.out)
    manifest = dataio.synth_generate(seed=args.seed, n_samples=args.samples,
                                     n_signs=args.signs,
                                     feat_dim=args.feat_dim,
                                     noise_sigma=args.noise, out_dir=out)
    print(f"wrote {len(manifest.entries)} samples to {out / 'manifest.tsv'}")
    return EXIT_OK


def cmd_train(args) -> int:
    manifest = dataio.read_manifest(args.manifest)
    cv_samples = manifest.load_samples(split="cv")
    if not cv_samples:
        raise UsageError("manifest has no cv-split samples")
    mconfig, tconfig, gloss_vocab, text_vocab = _build_pipeline(args, cv_samples)
    _print_effective_config(mconfig, tconfig)

    encoded = training.encode_samples(cv_samples, gloss_vocab, text_vocab)
    rng = np.random.default_rng(args.seed)
    order = rng.permutation(len(encoded))
    n_val = max(1, len(encoded) // 5)
    val_set = [encoded[i] for i in order[:n_val]]
    train_set = [encoded[i] for i in order[n_val:]]
    if not train_set:
        raise UsageError("dataset too small to carve out a validation set")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tconfig = replace(tconfig, checkpoint_dir=str(out))
    model = GlotModel(mconfig, gloss_vocab=gloss_vocab, text_vocab=text_vocab,
                      seed=args.seed)
    report = training.train(model, train_set, val_set, tconfig)
    report.write_log(out / "train_log.txt")
    print(f"best epoch {report.best_epoch} "
          f"val bleu4={report.best_bleu4:.6f} "
          f"checkpoint={report.checkpoint_path}")
    return EXIT_OK


def cmd_crossval(args) -> int:
    manifest = dataio.read_manifest(args.manifest)
    cv_samples = manifest.load_samples(split="cv")
    if len(cv_samples) < args.folds:
        raise UsageError(f"{len(cv_samples)} cv samples cannot form "
                         f"{args.folds} folds")
    mconfig, tconfig, gloss_vocab, text_vocab = _build_pipeline(args, cv_samples)
    _print_effective_config(mconfig, tconfig)
    encoded = training.encode_samples(cv_samples, gloss_vocab, text_vocab)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tconfig = replace(tconfig, checkpoint_dir=str(out))

    def factory(fold_index: int) -> GlotModel:
        return GlotModel(mconfig, gloss_vocab=gloss_vocab,
                         text_vocab=text_vocab, seed=args.seed + fold_index)

    reports, best = training.cross_validate(encoded, tconfig, factory,
                                            k=args.folds)
    for r in reports:
        r.write_log(out / f"fold{r.fold_index}_log.txt")
        print(f"fold={r.fold_index} best_bleu4={r.best_bleu4:.6f}")
    print(f"best fold={best.fold_index} bleu4={best.best_bleu4:.6f} "
          f"checkpoint={best.checkpoint_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    if model.gloss_vocab is None or model.text_vocab is None:
        raise UsageError("checkpoint carries no vocabularies; cannot evaluate")
    manifest = dataio.read_manifest(args.manifest)
    samples = manifest.load_samples(split=args.split)
    if not samples:
        raise UsageError(f"manifest has no samples in split {args.split!r}")
    if samples[0].features.shape[1] != model.config.feat_dim:
        raise UsageError("feature width does not match the checkpoint config")
    encoded = training.encode_samples(samples, model.gloss_vocab,
                                      model.text_vocab)
    gloss_report, text_report = evaluate_clipped(model, encoded)
    lines = [f"gloss {gloss_report.record()}", f"text {text_report.record()}"]
    for line in lines:
        print(line)
    if args.out:
        outp = Path(args.out)
        outp.parent.mkdir(parents=True, exist_ok=True)
        outp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def evaluate_clipped(model: GlotModel, encoded) -> tuple:
    max_len = min(model.config.max_target_len,
                  2 + max(max(len(s.gloss_ids), len(s.text_ids))
                          for s in encoded))
    return training.evaluate_bleu(model, encoded, max_decode_len=max_len)


def cmd_gradcheck(args) -> int:
    if args.preset != "tiny":
        raise UsageError(f"unknown gradcheck preset {args.preset!r}")
    cfg = GlotConfig.tiny(max_frames=8, gloss_vocab_size=7,
                          text_vocab_size=11, feat_dim=5)
    model = GlotModel(cfg, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    frames = rng.normal(size=(6, cfg.feat_dim))
    gloss_ids = [5, 6, 5]
    text_ids = [5, 7, 9, 6]
    results = training.gradient_check_model(model, frames, gloss_ids, text_ids,
                                            tol=args.tol,
                                            corrupt=args.corrupt)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  max_rel_err={r.max_rel_err:.3e}  {status}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} parameter groups passed "
          f"at tol {args.tol:g}")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


BENCH_REPEATS = 3


def _median_ms(fn) -> float:
    """Median wall time of BENCH_REPEATS calls of fn, in milliseconds."""
    times = []
    for _ in range(BENCH_REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


def cmd_bench_attn(args) -> int:
    lengths = [int(s) for s in args.lengths.split(",") if s]
    if not lengths or any(n < 1 for n in lengths):
        raise UsageError("--lengths needs positive comma-separated integers")
    d = 16
    rng = np.random.default_rng(args.seed)
    print(f"{'L':>6} {'dense':>10} {'causal':>10} {'logsparse':>10} "
          f"{'bound':>10} {'t_dense_ms':>11} {'t_lssa_ms':>10}")
    for L in lengths:
        dense = sa.count_attention_pairs(L, "dense")
        causal = sa.count_attention_pairs(L, "causal_dense")
        logsparse = sa.count_attention_pairs(L, "logsparse")
        bound = L * (int(np.floor(np.log2(L))) + 2)

        x = Tensor(rng.normal(size=(L, d)))
        params = sa.LssaParams(Tensor(rng.normal(size=(d, d)) / np.sqrt(d)),
                               Tensor(rng.normal(size=(d, d)) / np.sqrt(d)))
        counter = sa.PairCounter()
        dense_mask, lssa_mask = sa.full_mask(L), sa.build_mask(L)
        t_dense = _median_ms(lambda: sa.lssa_layer(
            x, params, dense_mask, counter=counter, tag="dense"))
        t_lssa = _median_ms(lambda: sa.lssa_layer(
            x, params, lssa_mask, counter=counter))
        if (counter.total("dense") != BENCH_REPEATS * dense
                or counter.total("logsparse") != BENCH_REPEATS * logsparse):
            print(f"instrumented counts disagree at L={L}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        print(f"{L:>6} {dense:>10} {causal:>10} {logsparse:>10} "
              f"{bound:>10} {t_dense:>11.3f} {t_lssa:>10.3f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _add_common_train_flags(p: argparse.ArgumentParser) -> dict:
    p.add_argument("--manifest", type=str)
    p.add_argument("--hparams", choices=["set1", "set2"])
    p.add_argument("--encoder", choices=["glot", "dense"])
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=str)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--d-model", type=int, dest="d_model")
    p.add_argument("--ff-size", type=int, dest="ff_size")
    p.add_argument("--heads", type=int)
    p.add_argument("--config", type=str, help="key=value config file")
    return dict(manifest=None, hparams="set2", encoder="glot", seed=0,
                out="runs", epochs=0, batch_size=0, lr=0.0, d_model=0,
                ff_size=0, heads=0)


def build_parser() -> tuple[argparse.ArgumentParser, dict, dict]:
    """(parser, per-command flag defaults, per-command flag choices)."""
    parser = argparse.ArgumentParser(
        prog="glot",
        description="Gated log-sparse transformer pipeline for "
                    "sign->gloss->text experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults: dict[str, dict] = {}

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--signs", type=int)
    p.add_argument("--feat-dim", type=int, dest="feat_dim")
    p.add_argument("--noise", type=float)
    p.add_argument("--out", type=str)
    p.add_argument("--config", type=str)
    defaults["synth"] = dict(seed=0, samples=16, signs=6, feat_dim=8,
                             noise=0.0, out="data")

    p = sub.add_parser("train", help="train on the cv split of a manifest")
    defaults["train"] = _add_common_train_flags(p)

    p = sub.add_parser("crossval", help="k-fold cross-validation")
    defaults["crossval"] = _add_common_train_flags(p)
    p.add_argument("--folds", type=int)
    defaults["crossval"]["folds"] = 5

    p = sub.add_parser("eval", help="greedy-decode a split and report BLEU")
    p.add_argument("--manifest", type=str)
    p.add_argument("--checkpoint", type=str)
    p.add_argument("--split", choices=["cv", "test"])
    p.add_argument("--out", type=str)
    p.add_argument("--config", type=str)
    defaults["eval"] = dict(manifest=None, checkpoint=None, split="test",
                            out=None)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of every parameter")
    p.add_argument("--preset", dest="preset", type=str)
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--corrupt", type=str, help=argparse.SUPPRESS)
    p.add_argument("--config", type=str)
    defaults["gradcheck"] = dict(preset="tiny", tol=1e-3, seed=0, corrupt=None)

    p = sub.add_parser("bench-attn",
                       help="exact attention pair counts and timings")
    p.add_argument("--lengths", type=str)
    p.add_argument("--seed", type=int)
    p.add_argument("--config", type=str)
    defaults["bench-attn"] = dict(lengths="8,64,512,1024", seed=0)

    choices = {name: {a.dest: a.choices for a in sp._actions if a.choices}
               for name, sp in sub.choices.items()}
    return parser, defaults, choices


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "crossval": cmd_crossval,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "bench-attn": cmd_bench_attn,
}


def main(argv: list[str] | None = None) -> int:
    parser, defaults, choices = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        _merge_config(args, defaults[args.command], choices[args.command])
        for required in ("manifest", "checkpoint"):
            if required in defaults[args.command] and \
                    defaults[args.command][required] is None and \
                    getattr(args, required, "x") is None:
                raise UsageError(f"--{required} is required")
        return _COMMANDS[args.command](args)
    except (UsageError, DataError, FormatError, ConfigError, CheckpointError,
            nc.ShapeError, metrics.MetricError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (training.DivergenceError, nc.NonFiniteError) as e:
        print(f"divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGED


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
