import hashlib
import json
import struct
from pathlib import Path

import pytest

from glot import cli, dataio
from glot.model import GlotConfig, GlotModel, save_checkpoint


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


def test_effective_config_values_without_overrides(tmp_path, capsys):
    # verify the preset numbers are reported verbatim; intercept before the
    # (expensive) training loop starts
    run(capsys, ["synth", "--samples", "6", "--out", str(tmp_path / "d")])
    import glot.training as training

    def boom(*a, **k):
        raise training.DivergenceError("stop after config print")

    orig = training.train
    training.train = boom
    try:
        code, out, _ = run(capsys, [
            "train", "--manifest", str(tmp_path / "d" / "manifest.tsv"),
            "--hparams", "set1", "--out", str(tmp_path / "run")])
        assert code == 3
        assert "d_model=512" in out and "ff_size=2048" in out
        assert "dropout=0.1" in out and "n_heads=8" in out
        code, out, _ = run(capsys, [
            "train", "--manifest", str(tmp_path / "d" / "manifest.tsv"),
            "--hparams", "set2", "--out", str(tmp_path / "run")])
        assert code == 3
        assert "d_model=256" in out and "ff_size=256" in out
        assert "dropout=0.0" in out and "lr_initial=0.001" in out
    finally:
        training.train = orig


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
    code, _, err = run(capsys, ["eval", "--manifest", str(empty),
                                "--checkpoint", ckpt, "--split", "test"])
    assert code == 2


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


def test_gradcheck_passes_and_negative_control(tmp_path, capsys):
    code, out, _ = run(capsys, ["gradcheck"])
    assert code == 0
    assert "FAIL" not in out
    code, out, _ = run(capsys, ["gradcheck", "--corrupt", "enc0.gate_b"])
    assert code == 1
    assert "FAIL" in out


def test_gradcheck_deterministic(capsys):
    _, out1, _ = run(capsys, ["gradcheck"])
    _, out2, _ = run(capsys, ["gradcheck"])
    assert out1 == out2


def test_nonfinite_forward_op_exits_3(tmp_path, capsys):
    run(capsys, ["synth", "--samples", "8", "--out", str(tmp_path / "d")])
    code, _, err = run(capsys, [
        "train", "--manifest", str(tmp_path / "d" / "manifest.tsv"),
        "--lr", "1e300", "--epochs", "2", "--d-model", "8", "--ff-size", "8",
        "--heads", "2", "--out", str(tmp_path / "run")])
    assert code == 3
    [msg] = err.splitlines()
    assert msg.startswith("divergence: ") and "produced non-finite" in msg


@pytest.mark.parametrize("flag, value, expected", [
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
])
def test_train_nonpositive_flag_exits_2(tmp_path, capsys, flag, value,
                                        expected):
    run(capsys, ["synth", "--samples", "6", "--out", str(tmp_path / "d")])
    code, _, err = run(capsys, [
        "train", "--manifest", str(tmp_path / "d" / "manifest.tsv"),
        "--d-model", "8", "--ff-size", "8", "--heads", "2",
        flag, value, "--out", str(tmp_path / "run")])
    assert code == 2
    [msg] = err.splitlines()
    assert msg.startswith("error: ") and expected in msg


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


def test_bench_attn_small(capsys):
    code, out, _ = run(capsys, ["bench-attn", "--lengths", "8,64"])
    assert code == 0
    row8 = next(l for l in out.splitlines() if l.strip().startswith("8 "))
    fields = row8.split()
    assert fields[1:5] == ["64", "36", "25", "40"]


def test_bench_attn_bad_lengths(capsys):
    assert run(capsys, ["bench-attn", "--lengths", "0"])[0] == 2


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


def test_config_file_values_inside_choices_accepted(tmp_path, capsys):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("hparams=set1\nencoder=dense\n")
    # the merge passes, so the run stops at the next check
    code, _, err = run(capsys, ["train", "--config", str(cfg)])
    assert code == 2
    assert err.splitlines() == ["error: --manifest is required"]


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
