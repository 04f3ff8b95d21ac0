"""Command-line pipeline: synthesize data, train, cross-validate, evaluate,
gradient-check, and benchmark attention.

Exit codes: 0 success, 1 check failure, 2 usage/data error, 3 numeric
divergence. Every command accepts ``--config FILE`` with flat key=value
lines mirroring flag names; explicit flags win over file values, and
unknown keys and values outside a flag's choices are rejected. COMMANDS
declares every command, flag, type and default.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import dataio, numcore as nc, sparse_attention as sa, training
from .errors import GlotError
from .model import GlotConfig, GlotModel, load_checkpoint
from .numcore import Tensor

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


class UsageError(GlotError):
    pass


def _load_config_file(path: str, known: set[str]) -> dict[str, tuple]:
    """Map each key of a key=value file to (line number, raw value); a
    key given twice is rejected."""
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {path}")
    values = {}
    for ln, line in enumerate(dataio.read_utf8(p).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected key=value")
        key, val = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in known:
            raise UsageError(f"{path}:{ln}: unknown config key {key!r}")
        if key in values:
            raise UsageError(f"{path}:{ln}: duplicate config key {key!r}")
        values[key] = (ln, val.strip())
    return values


def _merge_config(args: argparse.Namespace, flags: dict) -> None:
    """Fill each flag left unset from the config file, else with its
    default; a file value is cast with the flag's type and must be one of
    its choices, if it has any."""
    file_vals = (_load_config_file(args.config, set(flags))
                 if args.config else {})
    for key, (kind, default, *_) in flags.items():
        if getattr(args, key) is not None:
            continue
        if key not in file_vals:
            setattr(args, key, default)
            continue
        ln, raw = file_vals[key]
        caster = str if isinstance(kind, tuple) else kind
        try:
            value = caster(raw)
        except ValueError:
            raise UsageError(f"{args.config}:{ln}: {key}={raw!r} is not "
                             f"a valid {caster.__name__}") from None
        if isinstance(kind, tuple) and value not in kind:
            raise UsageError(f"{args.config}:{ln}: {key}={raw!r} is not "
                             f"one of {', '.join(kind)}")
        setattr(args, key, value)


# ---------------------------------------------------------------------------
# shared run assembly

def _split_samples(manifest_path: str, split: str) -> list[dataio.SignSample]:
    """The samples of one split of a manifest; an empty split is a usage
    error."""
    samples = dataio.read_manifest(manifest_path).load_samples(split=split)
    if not samples:
        raise UsageError(f"manifest has no samples in split {split!r}")
    return samples


def _build_pipeline(args, cv_samples):
    """Assemble a train or crossval run: size the --hparams presets to the
    data, print the effective config, encode the samples and make the run
    directory. Returns (model from a seed, TrainConfig, encoded, run dir)."""
    gloss_vocab = dataio.build_vocab([s.gloss for s in cv_samples])
    text_vocab = dataio.build_vocab([s.text for s in cv_samples])
    overrides = dict(
        feat_dim=cv_samples[0].features.shape[1],
        max_frames=max(s.features.shape[0] for s in cv_samples),
        max_target_len=2 + max(max(len(s.gloss), len(s.text))
                               for s in cv_samples),
        gloss_vocab_size=len(gloss_vocab),
        text_vocab_size=len(text_vocab),
        encoder_kind=("glot" if args.encoder == "glot" else "dense_baseline"))
    # A flag left unset keeps the preset's value; a set one, even 0, is
    # passed on for the config to validate.
    for flag, field in (("d_model", "d_model"), ("ff_size", "ff_size"),
                        ("heads", "n_heads")):
        if getattr(args, flag) is not None:
            overrides[field] = getattr(args, flag)
    mconfig = getattr(GlotConfig, args.hparams)(**overrides)

    toverrides = dict(seed=args.seed, checkpoint_dir=args.out)
    for flag, field in (("epochs", "epochs"), ("batch_size", "batch_size"),
                        ("lr", "lr_initial")):
        if getattr(args, flag) is not None:
            toverrides[field] = getattr(args, flag)
    tconfig = getattr(training.TrainConfig, args.hparams)(**toverrides)

    _print_effective_config(mconfig, tconfig)
    encoded = training.encode_samples(cv_samples, gloss_vocab, text_vocab)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def make_model(seed: int) -> GlotModel:
        return GlotModel(mconfig, gloss_vocab=gloss_vocab,
                         text_vocab=text_vocab, seed=seed)

    return make_model, tconfig, encoded, out


def _print_effective_config(mconfig: GlotConfig, tconfig) -> None:
    print("effective config: "
          f"d_model={mconfig.d_model} n_heads={mconfig.n_heads} "
          "n_encoders=1 n_decoders=1 "
          f"ff_size={mconfig.ff_size} dropout={mconfig.dropout} "
          f"encoder_kind={mconfig.encoder_kind} "
          f"epochs={tconfig.epochs} batch_size={tconfig.batch_size} "
          f"lr_initial={tconfig.lr_initial:g} lr_floor={training.LR_FLOOR:g} "
          f"lr_factor={training.LR_FACTOR:g} schedule={tconfig.schedule}")


def _log_appender(log_path):
    """training.train's per-epoch hook for a run's log file log_path(report):
    each epoch's line is written as the epoch ends, the summary line after
    the last, so a run that stops early keeps the epochs it finished. The
    first epoch truncates the file; a whole run writes report.log_text()."""
    def on_epoch(report, last: bool) -> None:
        lines = [report.epochs[-1].line()]
        if last:
            lines.append(report.summary_line())
        mode = "w" if len(report.epochs) == 1 else "a"
        with open(log_path(report), mode, encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return on_epoch


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
    cv_samples = _split_samples(args.manifest, "cv")
    # the validation carve-out, checked before any output or run directory
    order = np.random.default_rng(args.seed).permutation(len(cv_samples))
    n_val = max(1, len(cv_samples) // 5)
    if n_val == len(cv_samples):
        raise UsageError("dataset too small to carve out a validation set")
    make_model, tconfig, encoded, out = _build_pipeline(args, cv_samples)
    val_set = [encoded[i] for i in order[:n_val]]
    train_set = [encoded[i] for i in order[n_val:]]
    report = training.train(
        make_model(args.seed), train_set, val_set, tconfig,
        on_epoch=_log_appender(lambda r: out / "train_log.txt"))
    print(f"best epoch {report.best_epoch} "
          f"val bleu4={report.best_bleu4:.6f} "
          f"checkpoint={report.checkpoint_path}")
    return EXIT_OK


def cmd_crossval(args) -> int:
    cv_samples = _split_samples(args.manifest, "cv")
    # cross_validate's fold rule, applied before any output or run directory
    training.make_folds(len(cv_samples), args.folds, args.seed)
    make_model, tconfig, encoded, out = _build_pipeline(args, cv_samples)
    reports, best = training.cross_validate(
        encoded, tconfig, lambda fold: make_model(args.seed + fold),
        k=args.folds, on_epoch=_log_appender(
            lambda r: out / f"fold{r.fold_index}_log.txt"))
    for r in reports:
        print(f"fold={r.fold_index} best_bleu4={r.best_bleu4:.6f}")
    print(f"best fold={best.fold_index} bleu4={best.best_bleu4:.6f} "
          f"checkpoint={best.checkpoint_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    if model.gloss_vocab is None or model.text_vocab is None:
        raise UsageError("checkpoint carries no vocabularies; cannot evaluate")
    samples = _split_samples(args.manifest, args.split)
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
    results = model.greedy_decode_batch([s.features for s in encoded], max_len)
    return training.score_decodes(model, encoded, results)


def cmd_gradcheck(args) -> int:
    if not 0 < args.tol < math.inf:
        raise UsageError(f"--tol must be positive and finite, got "
                         f"{args.tol:g}")
    cfg = GlotConfig.tiny(max_frames=8, gloss_vocab_size=7,
                          text_vocab_size=11, feat_dim=5)
    model = GlotModel(cfg, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    frames = rng.normal(size=(6, cfg.feat_dim))
    gloss_ids = [5, 6, 5]
    text_ids = [5, 7, 9, 6]
    model.eval()
    results = nc.grad_check(
        lambda: training.batch_loss(model, [frames], [gloss_ids], [text_ids]),
        model.params, tol=args.tol, corrupt=args.corrupt)
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
    try:
        lengths = [int(s) for s in args.lengths.split(",") if s]
    except ValueError:
        lengths = []
    if not lengths or any(n < 1 for n in lengths):
        raise UsageError("--lengths needs positive comma-separated integers")
    d = 16
    eye = Tensor(np.eye(d))  # values x, and the heads as the output
    rng = np.random.default_rng(args.seed)
    print(f"{'L':>6} {'dense':>10} {'causal':>10} {'logsparse':>10} "
          f"{'bound':>10} {'t_dense_ms':>11} {'t_lssa_ms':>10}")
    for L in lengths:
        dense = sa.count_attention_pairs(L, "dense")
        causal = sa.count_attention_pairs(L, "causal_dense")
        logsparse = sa.count_attention_pairs(L, "logsparse")
        bound = L * (int(np.floor(np.log2(L))) + 2)

        x = Tensor(rng.normal(size=(L, d)))
        w_q, w_k = (Tensor(rng.normal(size=(d, d)) / np.sqrt(d))
                    for _ in range(2))
        if int(sa.build_mask(L).sum()) != logsparse:
            print(f"pair counts disagree at L={L}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        t_dense = _median_ms(lambda: nc.attention(x, x, w_q, w_k, eye, eye))
        t_lssa = _median_ms(lambda: nc.offset_attention(x, w_q, w_k))
        print(f"{L:>6} {dense:>10} {causal:>10} {logsparse:>10} "
              f"{bound:>10} {t_dense:>11.3f} {t_lssa:>10.3f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

# {command: (handler, help, {flag: (type or tuple of choices, default)})}.
# Flag --batch-size is key batch_size, in args and in config files alike.
# A default of None leaves the value to a preset or to the command; a
# third entry is the flag's help text.
REQUIRED = object()  # default of a flag that must be given

_TRAIN_FLAGS = dict(
    manifest=(str, REQUIRED), hparams=(("set1", "set2"), "set2"),
    encoder=(("glot", "dense"), "glot"), seed=(int, 0), out=(str, "runs"),
    epochs=(int, None), batch_size=(int, None), lr=(float, None),
    d_model=(int, None), ff_size=(int, None), heads=(int, None))

COMMANDS = {
    "synth": (cmd_synth, "generate a seeded synthetic corpus", dict(
        seed=(int, 0), samples=(int, 16), signs=(int, 6), feat_dim=(int, 8),
        noise=(float, 0.0), out=(str, "data"))),
    "train": (cmd_train, "train on the cv split of a manifest", _TRAIN_FLAGS),
    "crossval": (cmd_crossval, "k-fold cross-validation",
                 dict(_TRAIN_FLAGS, folds=(int, 5))),
    "eval": (cmd_eval, "greedy-decode a split and report BLEU", dict(
        manifest=(str, REQUIRED), checkpoint=(str, REQUIRED),
        split=(("cv", "test"), "test"), out=(str, None))),
    "gradcheck": (cmd_gradcheck, "finite-difference check of every parameter",
                  dict(tol=(float, 1e-3), seed=(int, 0),
                       # hidden: a negative control of the sweep itself
                       corrupt=(str, None, argparse.SUPPRESS))),
    "bench-attn": (cmd_bench_attn, "exact attention pair counts and timings",
                   dict(lengths=(str, "8,64,512,1024"), seed=(int, 0))),
}


def build_parser() -> argparse.ArgumentParser:
    """The glot parser with one subparser per COMMANDS entry; every flag
    parses to None when absent, so _merge_config can tell it was unset."""
    parser = argparse.ArgumentParser(
        prog="glot",
        description="Gated log-sparse transformer pipeline for "
                    "sign->gloss->text experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key, (kind, _, *flag_help) in flags.items():
            choices = kind if isinstance(kind, tuple) else None
            p.add_argument("--" + key.replace("_", "-"),
                           type=str if choices else kind, choices=choices,
                           help=flag_help[0] if flag_help else None)
        p.add_argument("--config", type=str, help="key=value config file")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    handler, _, flags = COMMANDS[args.command]
    try:
        _merge_config(args, flags)
        for key, value in vars(args).items():
            if value is REQUIRED:
                raise UsageError(f"--{key.replace('_', '-')} is required")
        if getattr(args, "seed", 0) < 0:
            raise UsageError(f"--seed must be non-negative, got {args.seed}")
        # Non-finite values are reported by the ops' own checks (exit 3),
        # so numpy's overflow and invalid-value warnings would only repeat
        # them on stderr.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return handler(args)
    except (GlotError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except nc.NonFiniteError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGED


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
