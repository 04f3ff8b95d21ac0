import contextlib
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from glot import cli, dataio, sparse_attention as sa, training
from glot.model import GlotConfig, GlotModel, load_checkpoint, save_checkpoint


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_synth_deterministic_trees(tmp_path, capsys):
    for name in ("a", "b"):
        code, _, _ = run(capsys, ["synth", "--samples", "16", "--seed", "7",
                                  "--out", str(tmp_path / name)])
        assert code == 0
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


def test_synth_default_sample_count(tmp_path, capsys):
    code, out, _ = run(capsys, ["synth", "--out", str(tmp_path / "d")])
    assert code == 0
    manifest = dataio.read_manifest(tmp_path / "d" / "manifest.tsv")
    assert len(manifest.entries) == 16


def test_synth_invalid_signs_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, ["synth", "--signs", "1",
                                "--out", str(tmp_path / "x")])
    assert code == 2
    assert "sign" in err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_synth_nonpositive_samples_exits_2(tmp_path, capsys, samples):
    code, out, err = run(capsys, ["synth", "--samples", samples,
                                  "--out", str(tmp_path / "x")])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"error: need at least 1 sample, got {samples}"]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("noise", ["-1", "nan", "inf"])
def test_synth_bad_noise_exits_2(tmp_path, capsys, noise):
    code, out, err = run(capsys, ["synth", "--noise", noise,
                                  "--out", str(tmp_path / "x")])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"error: noise_sigma must be finite and >= 0, got {float(noise)}"]
    assert not (tmp_path / "x").exists()


def test_unknown_flag_rejected(capsys):
    assert run(capsys, ["synth", "--banana", "1"])[0] == 2


def test_help_exits_clean(capsys):
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["train", "--help"])[0] == 0


def test_missing_manifest_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, ["train", "--manifest",
                                str(tmp_path / "nope.tsv"),
                                "--out", str(tmp_path / "run")])
    assert code == 2


def test_effective_config_set1(tmp_path, capsys):
    run(capsys, ["synth", "--samples", "6", "--out", str(tmp_path / "d")])
    # set1 at full width would be slow; epochs=0 is rejected upstream, so
    # use 1 epoch at overridden tiny width but keep preset-reported values
    code, out, _ = run(capsys, [
        "train", "--manifest", str(tmp_path / "d" / "manifest.tsv"),
        "--hparams", "set1", "--epochs", "1", "--d-model", "16",
        "--ff-size", "16", "--heads", "2", "--batch-size", "4",
        "--out", str(tmp_path / "run")])
    assert code == 0
    assert "dropout=0.1" in out
    assert "lr_initial=5e-05" in out and "lr_floor=2e-06" in out
    assert "schedule=plateau" in out


def test_effective_config_values_without_overrides(tmp_path, capsys,
                                                   monkeypatch):
    # verify the preset numbers are reported verbatim; intercept before the
    # (expensive) training loop starts
    run(capsys, ["synth", "--samples", "6", "--out", str(tmp_path / "d")])
    import glot.training as training
    from glot import numcore

    def boom(*a, **k):
        raise numcore.NonFiniteError("stop after config print")

    monkeypatch.setattr(training, "train", boom)
    monkeypatch.setattr(training, "cross_validate", boom)

    def config_line(command, hparams):
        code, out, _ = run(capsys, [
            command, "--manifest", str(tmp_path / "d" / "manifest.tsv"),
            "--hparams", hparams, "--out", str(tmp_path / "run")])
        assert code == 3
        [line] = out.splitlines()
        return line

    out = config_line("train", "set1")
    assert "d_model=512" in out and "ff_size=2048" in out
    assert "dropout=0.1" in out and "n_heads=8" in out
    assert config_line("crossval", "set1") == out
    out = config_line("train", "set2")
    assert "d_model=256" in out and "ff_size=256" in out
    assert "dropout=0.0" in out and "lr_initial=0.001" in out
    assert config_line("crossval", "set2") == out


def test_train_same_seed_identical_checkpoints(tmp_path, capsys):
    run(capsys, ["synth", "--samples", "8", "--seed", "3",
                 "--out", str(tmp_path / "d")])
    argv = ["train", "--manifest", str(tmp_path / "d" / "manifest.tsv"),
            "--epochs", "2", "--d-model", "8", "--ff-size", "8",
            "--heads", "2", "--batch-size", "4", "--seed", "5"]
    code, _, _ = run(capsys, argv + ["--out", str(tmp_path / "r1")])
    assert code == 0
    code, _, _ = run(capsys, argv + ["--out", str(tmp_path / "r2")])
    assert code == 0
    assert (tmp_path / "r1" / "fold1_best.ckpt").read_bytes() == \
        (tmp_path / "r2" / "fold1_best.ckpt").read_bytes()


def test_crossval_writes_fold_logs(tmp_path, capsys):
    run(capsys, ["synth", "--samples", "10", "--out", str(tmp_path / "d")])
    code, out, _ = run(capsys, [
        "crossval", "--manifest", str(tmp_path / "d" / "manifest.tsv"),
        "--epochs", "1", "--d-model", "8", "--ff-size", "8", "--heads", "2",
        "--batch-size", "4", "--out", str(tmp_path / "cv")])
    assert code == 0
    logs = sorted(p.name for p in (tmp_path / "cv").glob("fold*_log.txt"))
    assert logs == [f"fold{i}_log.txt" for i in range(1, 6)]
    assert "best fold=" in out


def test_eval_schema_and_empty_split(tmp_path, capsys):
    run(capsys, ["synth", "--samples", "8", "--out", str(tmp_path / "d")])
    manifest = str(tmp_path / "d" / "manifest.tsv")
    code, _, _ = run(capsys, ["train", "--manifest", manifest,
                              "--epochs", "1", "--d-model", "8",
                              "--ff-size", "8", "--heads", "2",
                              "--batch-size", "4",
                              "--out", str(tmp_path / "run")])
    assert code == 0
    ckpt = str(tmp_path / "run" / "fold1_best.ckpt")
    code, out, _ = run(capsys, ["eval", "--manifest", manifest,
                                "--checkpoint", ckpt, "--split", "test"])
    assert code == 0
    for stream in ("gloss", "text"):
        line = next(l for l in out.splitlines() if l.startswith(stream))
        for key in ("bleu1=", "bleu2=", "bleu3=", "bleu4=", "p1=", "p2=",
                    "p3=", "p4=", "bp=", "c=", "r="):
            assert key in line

    # a manifest whose test split is empty
    man = dataio.read_manifest(manifest)
    for e in man.entries:
        e.split = "cv"
    empty = tmp_path / "d" / "allcv.tsv"
    dataio.write_manifest(empty, man.entries)
    code, out, err = run(capsys, ["eval", "--manifest", str(empty),
                                  "--checkpoint", ckpt, "--split", "test"])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: manifest has no samples in split 'test'"]


def test_eval_checkpoint_mismatch(tmp_path, capsys):
    run(capsys, ["synth", "--samples", "8", "--feat-dim", "8",
                 "--out", str(tmp_path / "d8")])
    run(capsys, ["synth", "--samples", "8", "--feat-dim", "6",
                 "--out", str(tmp_path / "d6")])
    code, _, _ = run(capsys, ["train",
                              "--manifest", str(tmp_path / "d8" / "manifest.tsv"),
                              "--epochs", "1", "--d-model", "8",
                              "--ff-size", "8", "--heads", "2",
                              "--batch-size", "4",
                              "--out", str(tmp_path / "run")])
    assert code == 0
    code, _, err = run(capsys, [
        "eval", "--manifest", str(tmp_path / "d6" / "manifest.tsv"),
        "--checkpoint", str(tmp_path / "run" / "fold1_best.ckpt"),
        "--split", "test"])
    assert code == 2
    assert "feature width" in err


def test_gradcheck_unknown_corrupt_name_exits_2(capsys):
    code, out, err = run(capsys, ["gradcheck", "--corrupt", "nosuchparam"])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: grad_check: no tensor named 'nosuchparam' to corrupt"]


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_gradcheck_nonpositive_tol_exits_2(capsys, tol):
    code, out, err = run(capsys, ["gradcheck", "--tol", tol])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"error: --tol must be positive and finite, got {tol}"]


def test_gradcheck_infinite_tol_exits_2(capsys):
    # an infinite tolerance would pass every group
    code, out, err = run(capsys, ["gradcheck", "--tol", "inf"])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: --tol must be positive and finite, got inf"]


@pytest.mark.parametrize("command", ["synth", "train", "crossval", "gradcheck",
                                     "bench-attn"])
def test_negative_seed_exits_2_before_any_output(tmp_path, capsys, command):
    manifest = dataio.synth_generate(0, 6, 3, 5, 0.0, tmp_path / "d")
    before = tree_digest(tmp_path)
    argv = [command, "--seed", "-1"]
    if command in ("synth", "train", "crossval"):
        argv += ["--out", str(tmp_path / "out")]
    if command in ("train", "crossval"):
        argv += ["--manifest", str(tmp_path / "d" / "manifest.tsv")]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: --seed must be non-negative, got -1"]
    assert tree_digest(tmp_path) == before and len(manifest.entries) == 6


def test_train_infinite_lr_exits_2_before_any_output(tmp_path, capsys):
    run(capsys, ["synth", "--samples", "6", "--out", str(tmp_path / "d")])
    code, out, err = run(capsys, [
        "train", "--manifest", str(tmp_path / "d" / "manifest.tsv"),
        "--lr", "inf", "--out", str(tmp_path / "run")])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: lr_initial must be positive and finite, got inf"]
    assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def gradcheck_sweeps():
    # One clean and one corrupt CLI sweep, shared by the gradcheck tests:
    # each full-model sweep takes seconds.
    sweeps = {}
    for key, argv in (("clean", ["gradcheck"]),
                      ("corrupt", ["gradcheck", "--corrupt", "enc0.gate_b"])):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        sweeps[key] = code, out.getvalue()
    return sweeps


def test_gradcheck_passes_and_negative_control(gradcheck_sweeps):
    # A corrupted gradient fails its own group, and every other group passes.
    # The clean run's exit 0 and empty FAIL column are asserted by
    # test_gradcheck_deterministic.
    code, out = gradcheck_sweeps["corrupt"]
    assert code == 1
    failed = [line.split()[0] for line in out.splitlines()
              if line.endswith("FAIL")]
    assert failed == ["enc0.gate_b"]


def test_gradcheck_deterministic(gradcheck_sweeps):
    # Every group of the clean run passes, and every line of the corrupt
    # run other than the corrupted group's and the summary, each group's
    # error included, equals the clean run's byte for byte, so the sweep
    # is deterministic.
    code, clean = gradcheck_sweeps["clean"]
    assert code == 0
    assert "FAIL" not in clean
    clean = clean.splitlines()
    corrupt = gradcheck_sweeps["corrupt"][1].splitlines()
    n = len(clean) - 1
    assert clean[-1].startswith(f"{n}/{n} parameter groups passed")
    assert corrupt[-1].startswith(f"{n - 1}/{n} parameter groups passed")
    assert len(corrupt) == len(clean)
    assert [a for a, b in zip(clean, corrupt) if a != b] == [
        clean[[line.split()[0] for line in clean].index("enc0.gate_b")],
        clean[-1]]


def test_nonfinite_forward_op_exits_3(tmp_path, capsys):
    run(capsys, ["synth", "--samples", "8", "--out", str(tmp_path / "d")])
    code, _, err = run(capsys, [
        "train", "--manifest", str(tmp_path / "d" / "manifest.tsv"),
        "--lr", "1e300", "--epochs", "2", "--d-model", "8", "--ff-size", "8",
        "--heads", "2", "--out", str(tmp_path / "run")])
    assert code == 3
    [msg] = err.splitlines()
    assert msg.startswith("divergence: ") and "produced non-finite" in msg


def _diverge_at_step(monkeypatch, n: int) -> None:
    """Make the n-th Adam step of the process raise NonFiniteError, as an
    update that overflows would."""
    from glot import numcore, training
    step, calls = training.Adam.step, []

    def failing_step(self, lr):
        calls.append(lr)
        if len(calls) == n:
            raise numcore.NonFiniteError("matmul produced non-finite values")
        step(self, lr)

    monkeypatch.setattr(training.Adam, "step", failing_step)


@pytest.mark.parametrize("command", ["train", "crossval"])
def test_divergence_keeps_the_finished_epochs_log_lines(tmp_path, capsys,
                                                        monkeypatch, command):
    # One step per epoch; a clean run first, then the same run diverging in
    # epoch 3 of 5 (of the second fold, for crossval): the log keeps the
    # clean run's lines of the epochs that ended, byte for byte, and every
    # fold that ended keeps its whole log.
    run(capsys, ["synth", "--samples", "10", "--out", str(tmp_path / "d")])
    argv = [command, "--manifest", str(tmp_path / "d" / "manifest.tsv"),
            "--epochs", "5", "--d-model", "8", "--ff-size", "8",
            "--heads", "2", "--batch-size", "64"]
    if command == "crossval":
        argv += ["--folds", "2"]
    logs = (["train_log.txt"] if command == "train"
            else ["fold1_log.txt", "fold2_log.txt"])
    code, _, _ = run(capsys, argv + ["--out", str(tmp_path / "clean")])
    assert code == 0
    clean = [(tmp_path / "clean" / name).read_text().splitlines(True)
             for name in logs]
    assert [len(lines) for lines in clean] == [6] * len(logs)
    assert all(lines[-1].startswith("summary ") for lines in clean)
    _diverge_at_step(monkeypatch, 3 if command == "train" else 8)
    code, _, err = run(capsys, argv + ["--out", str(tmp_path / "cut")])
    assert code == 3 and err.startswith("divergence: ")
    cut = [(tmp_path / "cut" / name).read_text().splitlines(True)
           for name in logs]
    assert cut[-1] == clean[-1][:2]
    assert cut[:-1] == clean[:-1]


NONPOSITIVE_FLAGS = [
    ("--epochs", "0", "epochs must be positive"),
    ("--epochs", "-1", "epochs must be positive"),
    ("--batch-size", "0", "batch_size must be positive"),
    ("--batch-size", "-3", "batch_size must be positive"),
    ("--lr", "0", "lr_initial must be positive"),
    ("--lr", "-1", "lr_initial must be positive"),
    ("--d-model", "0", "d_model must be even"),
    ("--heads", "0", "n_heads must be positive"),
    ("--heads", "-2", "n_heads must be positive"),
    ("--ff-size", "0", "ff_size must be positive"),
]


# a train case's id is its flag, value and message; crossval's adds a prefix
@pytest.mark.parametrize("command, flag, value, expected", [
    pytest.param(command, *case,
                 id="-".join(case if command == "train" else (command, *case)))
    for command in ("train", "crossval") for case in NONPOSITIVE_FLAGS])
def test_train_nonpositive_flag_exits_2(tmp_path, capsys, command, flag,
                                        value, expected):
    run(capsys, ["synth", "--samples", "6", "--out", str(tmp_path / "d")])
    code, out, err = run(capsys, [
        command, "--manifest", str(tmp_path / "d" / "manifest.tsv"),
        "--d-model", "8", "--ff-size", "8", "--heads", "2",
        flag, value, "--out", str(tmp_path / "run")])
    assert code == 2 and out == ""
    [msg] = err.splitlines()
    assert msg.startswith("error: ") and expected in msg
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "crossval"])
def test_empty_cv_split_exits_2_before_any_output(tmp_path, capsys, command):
    man = dataio.synth_generate(0, 6, 3, 5, 0.0, tmp_path / "d")
    for e in man.entries:
        e.split = "test"
    manifest = tmp_path / "d" / "alltest.tsv"
    dataio.write_manifest(manifest, man.entries)
    code, out, err = run(capsys, [command, "--manifest", str(manifest),
                                  "--out", str(tmp_path / "run")])
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: manifest has no samples in split 'cv'"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("folds", ["0", "1", "-2"])
def test_crossval_too_few_folds_exits_2(tmp_path, capsys, folds):
    run(capsys, ["synth", "--samples", "6", "--out", str(tmp_path / "d")])
    code, _, err = run(capsys, [
        "crossval", "--manifest", str(tmp_path / "d" / "manifest.tsv"),
        "--folds", folds, "--epochs", "1", "--d-model", "8",
        "--ff-size", "8", "--heads", "2", "--out", str(tmp_path / "cv")])
    assert code == 2
    [msg] = err.splitlines()
    assert msg == f"error: cross-validation needs at least 2 folds, got {folds}"
    assert not (tmp_path / "cv").exists()


def test_train_too_small_for_validation_exits_2(tmp_path, capsys):
    run(capsys, ["synth", "--samples", "1", "--out", str(tmp_path / "d")])
    code, out, err = run(capsys, [
        "train", "--manifest", str(tmp_path / "d" / "manifest.tsv"),
        "--epochs", "1", "--out", str(tmp_path / "run")])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: dataset too small to carve out a validation set"]
    assert not (tmp_path / "run").exists()


def test_bench_attn_small(capsys):
    code, out, _ = run(capsys, ["bench-attn", "--lengths", "8,64"])
    assert code == 0
    row8 = next(l for l in out.splitlines() if l.strip().startswith("8 "))
    fields = row8.split()
    assert fields[1:5] == ["64", "36", "25", "40"]


def test_bench_attn_pair_count_mismatch_exits_1(capsys, monkeypatch):
    # the closed form, off by one, no longer matches build_mask's pairs
    count = sa.count_attention_pairs
    monkeypatch.setattr(sa, "count_attention_pairs",
                        lambda L, mode: count(L, mode) + (mode == "logsparse"))
    code, _, err = run(capsys, ["bench-attn", "--lengths", "8"])
    assert code == 1
    assert err == "pair counts disagree at L=8\n"


def test_bench_attn_bad_lengths(capsys):
    assert run(capsys, ["bench-attn", "--lengths", "0"])[0] == 2


@pytest.mark.parametrize("lengths", ["8,abc", "1.5", "8,,-4"])
def test_bench_attn_unparsable_lengths_exits_2(capsys, lengths):
    code, out, err = run(capsys, ["bench-attn", "--lengths", lengths])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: --lengths needs positive comma-separated integers"]


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples=5\nseed=9\n")
    code, _, _ = run(capsys, ["synth", "--config", str(cfg),
                              "--out", str(tmp_path / "d")])
    assert code == 0
    manifest = dataio.read_manifest(tmp_path / "d" / "manifest.tsv")
    assert len(manifest.entries) == 5
    # flags beat file values
    code, _, _ = run(capsys, ["synth", "--config", str(cfg), "--samples", "7",
                              "--out", str(tmp_path / "d2")])
    assert code == 0
    manifest = dataio.read_manifest(tmp_path / "d2" / "manifest.tsv")
    assert len(manifest.entries) == 7


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bananas=2\n")
    code, _, err = run(capsys, ["synth", "--config", str(cfg),
                                "--out", str(tmp_path / "d")])
    assert code == 2
    assert "unknown config key" in err


def test_config_file_duplicate_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("samples=3\n# the same key again\nsamples=5\n")
    code, out, err = run(capsys, ["synth", "--config", str(cfg),
                                  "--out", str(tmp_path / "d")])
    assert code == 2 and out == ""
    assert err == f"error: {cfg}:3: duplicate config key 'samples'\n"
    assert not (tmp_path / "d").exists()


def test_config_file_bad_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed=3\nepochs=abc\n")
    code, _, err = run(capsys, ["train", "--config", str(cfg),
                                "--out", str(tmp_path / "run")])
    assert code == 2
    assert err.splitlines() == [f"error: {cfg}:2: epochs='abc' is not a "
                                "valid int"]


@pytest.mark.parametrize("command, line", [
    ("train", "encoder=foo"), ("train", "hparams=set9"),
    ("crossval", "encoder=foo"), ("eval", "split=bogus")])
def test_config_file_value_outside_choices_exits_2(tmp_path, capsys,
                                                  command, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"seed=3\n{line}\n" if command != "eval" else f"{line}\n")
    code, _, err = run(capsys, [command, "--config", str(cfg)])
    assert code == 2
    [msg] = err.splitlines()
    key, val = line.split("=")
    assert msg.startswith(f"error: {cfg}:{2 if command != 'eval' else 1}: "
                          f"{key}={val!r} is not one of ")


def test_non_utf8_manifest_exits_2(tmp_path, capsys):
    run(capsys, ["synth", "--samples", "6", "--out", str(tmp_path / "d")])
    manifest = tmp_path / "d" / "manifest.tsv"
    lines = manifest.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b"sign", b"s\xffgn", 1)
    manifest.write_bytes(b"".join(lines))
    code, out, err = run(capsys, ["train", "--manifest", str(manifest),
                                  "--out", str(tmp_path / "run")])
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {manifest}:3: not UTF-8 text"]
    assert not (tmp_path / "run").exists()


def test_non_utf8_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xff\xfeseed=3\n")
    code, out, err = run(capsys, ["train", "--config", str(cfg),
                                  "--out", str(tmp_path / "run")])
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {cfg}:1: not UTF-8 text"]


def test_bom_manifest_and_config_file_read_like_bomless_copies(tmp_path):
    dataio.synth_generate(0, 6, 3, 5, 0.0, tmp_path / "d")
    manifest = tmp_path / "d" / "manifest.tsv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# run settings\nepochs=2\nhparams=set1\n")
    for plain in (manifest, cfg):
        bom = plain.with_name("bom-" + plain.name)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    keys = set(cli.COMMANDS["train"][2])
    assert cli._load_config_file(str(tmp_path / "bom-run.cfg"), keys) == \
        cli._load_config_file(str(cfg), keys) == \
        {"epochs": (2, "2"), "hparams": (3, "set1")}
    bom_manifest = dataio.read_manifest(tmp_path / "d" / "bom-manifest.tsv")
    assert bom_manifest.entries == dataio.read_manifest(manifest).entries
    assert len(bom_manifest.entries) == 6


def test_bom_then_non_utf8_manifest_names_its_line(tmp_path, capsys):
    run(capsys, ["synth", "--samples", "6", "--out", str(tmp_path / "d")])
    manifest = tmp_path / "d" / "manifest.tsv"
    lines = manifest.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b"sign", b"s\xffgn", 1)
    manifest.write_bytes(b"\xef\xbb\xbf" + b"".join(lines))
    code, out, err = run(capsys, ["train", "--manifest", str(manifest),
                                  "--out", str(tmp_path / "run")])
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {manifest}:3: not UTF-8 text"]
    assert not (tmp_path / "run").exists()


def test_config_file_values_inside_choices_accepted(tmp_path, capsys):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("hparams=set1\nencoder=dense\n")
    # the merge passes, so the run stops at the next check
    code, _, err = run(capsys, ["train", "--config", str(cfg)])
    assert code == 2
    assert err.splitlines() == ["error: --manifest is required"]


def _table_cases():
    for command, (_, _, flags) in cli.COMMANDS.items():
        for key, (kind, default, *_) in flags.items():
            if isinstance(kind, tuple):
                raw = next(c for c in kind if c != default)
                yield command, key, raw, raw
            else:
                raw = {int: "3", float: "0.25", str: "x"}[kind]
                yield command, key, raw, kind(raw)


@pytest.mark.parametrize("command, key, raw, value", list(_table_cases()))
def test_table_flag_and_config_key_agree(tmp_path, command, key, raw, value):
    def merged(argv):
        args = cli.build_parser().parse_args([command] + argv)
        cli._merge_config(args, cli.COMMANDS[command][2])
        return {k: v for k, v in vars(args).items() if k != "config"}

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={raw}\n")
    from_flag = merged(["--" + key.replace("_", "-"), raw])
    assert from_flag[key] == value
    assert merged(["--config", str(cfg)]) == from_flag


def _rewrite_header(blob: bytes, header: bytes) -> bytes:
    (hlen,) = struct.unpack("<I", blob[12:16])
    return blob[:12] + struct.pack("<I", len(header)) + header + blob[16 + hlen:]


def _edit_header(blob: bytes, edit) -> bytes:
    """The checkpoint with edit() applied to its decoded JSON header."""
    (hlen,) = struct.unpack("<I", blob[12:16])
    header = json.loads(blob[16:16 + hlen])
    edit(header)
    return _rewrite_header(blob, json.dumps(header).encode())


def _with_unknown_key(blob: bytes) -> bytes:
    return _edit_header(blob, lambda h: h["config"].update(bogus=1))


def _with_string_d_model(blob: bytes) -> bytes:
    return _edit_header(blob, lambda h: h["config"].update(d_model="8"))


def _with_bool_n_heads(blob: bytes) -> bytes:
    return _edit_header(blob, lambda h: h["config"].update(n_heads=True))


def _with_int_vocab(blob: bytes) -> bytes:
    return _edit_header(blob, lambda h: h.update(gloss_vocab=5))


def _with_zero_heads(blob: bytes) -> bytes:
    return _edit_header(blob, lambda h: h["config"].update(n_heads=0))


def _with_learned_positions(blob: bytes) -> bytes:
    return _edit_header(blob, lambda h: h["config"].update(pe_kind="learned"))


def _with_conv_kernel_5(blob: bytes) -> bytes:
    return _edit_header(blob, lambda h: h["config"].update(conv_kernel=5))


def _with_two_decoders(blob: bytes) -> bytes:
    return _edit_header(blob, lambda h: h["config"].update(n_decoders=2))


def _with_negative_lssa_depth(blob: bytes) -> bytes:
    return _edit_header(blob, lambda h: h["config"].update(n_lssa_layers=-1))


def _header_only_1024_wide(blob: bytes) -> bytes:
    (hlen,) = struct.unpack("<I", blob[12:16])
    return _edit_header(blob[:16 + hlen], lambda h: h["config"].update(
        d_model=1024, ff_size=1024))


@pytest.mark.parametrize("corrupt, expected", [
    (_with_unknown_key, "unknown config keys bogus"),
    (_with_string_d_model, "config d_model='8' is not a valid int"),
    (_with_bool_n_heads, "config n_heads=True is not a valid int"),
    (_with_int_vocab, "gloss_vocab is not a list of strings"),
    (_with_zero_heads, "n_heads must be positive"),
    (lambda b: _rewrite_header(b, b"\xff\xfe{}"), "header is not UTF-8"),
    (lambda b: _rewrite_header(b, b"{config: 1"), "header is not JSON"),
    (lambda b: b[:-8] + struct.pack("<d", float("nan")),
     "out_text.b holds non-finite values"),
    (_with_learned_positions, "config pe_kind='learned' is not supported"),
    (_with_conv_kernel_5, "config conv_kernel=5 is not supported"),
    (_header_only_1024_wide, "bytes of parameters, 0 follow the header"),
    (_with_two_decoders, "config n_decoders=2 is not supported"),
    (_with_negative_lssa_depth, "n_lssa_layers must be >= 0"),
])
def test_eval_malformed_checkpoint_exits_2(tmp_path, capsys, corrupt, expected):
    manifest = dataio.synth_generate(0, 4, 3, 5, 0.0, tmp_path / "d")
    samples = manifest.load_samples()
    gv = dataio.build_vocab([s.gloss for s in samples])
    tv = dataio.build_vocab([s.text for s in samples])
    cfg = GlotConfig.tiny(max_frames=32, feat_dim=5, gloss_vocab_size=len(gv),
                          text_vocab_size=len(tv))
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(GlotModel(cfg, gloss_vocab=gv, text_vocab=tv), ckpt)
    argv = ["eval", "--manifest", str(tmp_path / "d" / "manifest.tsv"),
            "--checkpoint", str(ckpt), "--split", "cv"]
    assert run(capsys, argv)[0] == 0
    ckpt.write_bytes(corrupt(ckpt.read_bytes()))
    code, _, err = run(capsys, argv)
    assert code == 2
    [msg] = err.splitlines()
    assert msg.startswith("error: ") and expected in msg


def test_train_is_byte_reproducible_at_a_fixed_blas_thread_count(tmp_path):
    # The bits of a run may depend on the BLAS thread count, so both runs
    # pin it, each in a fresh interpreter, one after the other.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "2",
           "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "2"}

    def glot(*argv):
        proc = subprocess.run([sys.executable, "-m", "glot.cli", *argv],
                              capture_output=True, text=True, timeout=120,
                              env=env)
        assert proc.returncode == 0, proc.stderr

    digests = []
    for root in (tmp_path / "one", tmp_path / "two"):
        glot("synth", "--samples", "32", "--seed", "3",
             "--out", str(root / "data"))
        glot("train", "--manifest", str(root / "data" / "manifest.tsv"),
             "--hparams", "set2", "--encoder", "glot", "--epochs", "1",
             "--out", str(root / "run"))
        digests.append([hashlib.sha256((root / "run" / name).read_bytes())
                        .hexdigest()
                        for name in ("fold1_best.ckpt", "train_log.txt")])
    assert digests[0] == digests[1]


def _eval_in_fresh_interpreter(tmp_path, param: str, index, value: float):
    """Run glot eval in a fresh interpreter, so that stderr reads as a
    user sees it, on a tiny model with one parameter entry set to value."""
    samples = dataio.synth_generate(0, 4, 3, 5, 0.0,
                                    tmp_path / "d").load_samples()
    gv = dataio.build_vocab([s.gloss for s in samples])
    tv = dataio.build_vocab([s.text for s in samples])
    cfg = GlotConfig.tiny(max_frames=32, feat_dim=5, gloss_vocab_size=len(gv),
                          text_vocab_size=len(tv))
    model = GlotModel(cfg, gloss_vocab=gv, text_vocab=tv)
    model.params[param].data[index] = value
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(model, ckpt)
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "glot.cli", "eval",
         "--manifest", str(tmp_path / "d" / "manifest.tsv"),
         "--checkpoint", str(ckpt), "--split", "cv"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})


def test_eval_overflow_in_a_cached_step_exits_3(tmp_path):
    # A finite but huge FF weight overflows inside the cached decoder
    # steps of glot eval: one divergence line, and numpy's overflow
    # warnings stay off stderr.
    proc = _eval_in_fresh_interpreter(tmp_path, "dec_gloss0.ff.w1", (0, 0),
                                      sys.float_info.max)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines() == [
        "divergence: matmul produced non-finite values"]


def test_eval_layer_norm_variance_overflow_exits_3(tmp_path):
    # A finite FF bias of 1e200 leaves every matmul and add finite, but
    # the squared deviations of the FF layer norm overflow: glot eval
    # names that op instead of decoding the rows as their bias.
    proc = _eval_in_fresh_interpreter(tmp_path, "dec_gloss0.ff.b2", 0, 1e200)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines() == [
        "divergence: layer_norm produced non-finite values"]


def test_library_errors_share_one_base(monkeypatch, capsys):
    from glot import metrics, model, numcore, sparse_attention
    from glot.errors import GlotError
    library = (cli.UsageError, dataio.DataError, dataio.FormatError,
               numcore.ConfigError, numcore.ShapeError, numcore.ContractError,
               model.CheckpointError, metrics.MetricError,
               sparse_attention.DomainError)
    assert all(issubclass(e, GlotError) for e in library)
    assert not issubclass(numcore.NonFiniteError, GlotError)

    # a library error of any kind exits 2 with its one line; a
    # divergence exits 3
    def raising(error):
        def handler(args):
            raise error("stopped")
        return handler

    for error, code, prefix in ((numcore.ContractError, 2, "error"),
                                (sparse_attention.DomainError, 2, "error"),
                                (numcore.NonFiniteError, 3, "divergence")):
        monkeypatch.setitem(cli.COMMANDS, "bench-attn",
                            (raising(error),) + cli.COMMANDS["bench-attn"][1:])
        got, out, err = run(capsys, ["bench-attn"])
        assert (got, out) == (code, "")
        assert err.splitlines() == [f"{prefix}: stopped"]


def test_eval_prints_what_per_sample_decoding_scores(tmp_path, capsys,
                                                     monkeypatch):
    # glot eval decodes its 36 clips in lockstep groups (32, then 4) with
    # one greedy_decode_batch call; its lines equal training.evaluate_bleu's,
    # which decodes the same clips one greedy_decode call at a time.
    samples = dataio.synth_generate(5, 45, 5, 8, 0.0,
                                    tmp_path / "d").load_samples("cv")
    assert len(samples) == 36
    gv = dataio.build_vocab([s.gloss for s in samples])
    tv = dataio.build_vocab([s.text for s in samples])
    enc = training.encode_samples(samples, gv, tv)
    cfg = GlotConfig.tiny(d_model=16, ff_size=32, max_frames=32, feat_dim=8,
                          gloss_vocab_size=len(gv), text_vocab_size=len(tv))
    model = GlotModel(cfg, gloss_vocab=gv, text_vocab=tv)
    training.train(model, enc, enc[:2],
                   training.TrainConfig.set2(epochs=3, batch_size=4))
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(model, ckpt)

    calls = {"greedy_decode": 0, "greedy_decode_batch": 0}
    for name in calls:
        def counted(self, *args, _fn=getattr(GlotModel, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _fn(self, *args, **kwargs)
        monkeypatch.setattr(GlotModel, name, counted)
    code, out, _ = run(capsys, ["eval", "--manifest",
                                str(tmp_path / "d" / "manifest.tsv"),
                                "--checkpoint", str(ckpt), "--split", "cv"])
    assert code == 0 and calls == {"greedy_decode": 0,
                                   "greedy_decode_batch": 1}

    reloaded = load_checkpoint(ckpt)
    max_len = min(cfg.max_target_len,
                  2 + max(max(len(s.gloss_ids), len(s.text_ids))
                          for s in enc))
    gloss, text = training.evaluate_bleu(reloaded, enc, max_decode_len=max_len)
    assert calls == {"greedy_decode": 36, "greedy_decode_batch": 37}
    assert out.splitlines() == [f"gloss {gloss.record()}",
                                f"text {text.record()}"]
    # some sequences end at EOS, so some leave their group early
    results = reloaded.greedy_decode_batch([s.features for s in enc], max_len)
    assert 0 < sum(r.gloss_truncated + r.text_truncated for r in results) < 72
