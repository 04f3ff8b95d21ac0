"""Seeded mutation fuzz of the four formats glot reads: feature files,
manifests, checkpoints and config files.

Each case takes a valid file and flips bits in it, truncates it, or edits
one of its fields, then runs the command that reads it. Every case must
end in exit 0, or in exit 2 with one ``error:`` line, and never in a
traceback. A flipped exponent bit can also turn a feature value or a
weight into a finite but huge number that loads fine and overflows in
the forward pass: that is the non-finite report of exit 3, with one
``divergence:`` line. Edited values stay small, so no case asks for a
large allocation.
"""

import json
import struct

import numpy as np
import pytest

from glot import cli, dataio
from glot.model import GlotConfig, GlotModel, save_checkpoint

CASES = 75  # per format


def _flip(blob: bytes, rng) -> bytes:
    out = bytearray(blob)
    for _ in range(int(rng.integers(1, 4))):
        out[int(rng.integers(len(out)))] ^= 1 << int(rng.integers(8))
    return bytes(out)


def _mutations(blob: bytes, edit, seed: int):
    """CASES (description, mutated bytes) pairs: a third bit flips, a
    third truncations and a third field edits by edit(blob, rng)."""
    rng = np.random.default_rng(seed)
    for case in range(CASES):
        kind = case % 3
        if kind == 0:
            yield f"case {case}: bit flips", _flip(blob, rng)
        elif kind == 1:
            n = int(rng.integers(len(blob)))
            yield f"case {case}: truncated to {n} bytes", blob[:n]
        else:
            what, edited = edit(blob, rng)
            yield f"case {case}: {what}", edited


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _edit_feature(blob: bytes, rng):
    if rng.integers(2):
        offset = _pick(rng, [8, 12, 16])  # version, frames, width
        value = _pick(rng, [0, 1, 2, 3, 0xFFFFFFFF])
        return (f"header u32 at {offset} = {value}",
                blob[:offset] + struct.pack("<I", value) + blob[offset + 4:])
    offset = 20 + 8 * int(rng.integers((len(blob) - 20) // 8))
    value = _pick(rng, [float("nan"), float("inf"), -float("inf"), 0.0, -0.0])
    return (f"value at {offset} = {value}",
            blob[:offset] + struct.pack("<d", value) + blob[offset + 8:])


TEXT_VALUES = ["", "x", "-1", "0", "1", "3", "nan", "inf", "1e400", "cv",
               "test", "features", "nope.feat", "a b", "sample0000",
               "sign99", "é", "�"]


def _edit_manifest(blob: bytes, rng):
    lines = blob.decode("utf-8").split("\n")
    ln = int(rng.integers(1, len(lines) - 1))  # line 0 is the comment
    fields = lines[ln].split("\t")
    col = int(rng.integers(len(fields)))
    fields[col] = _pick(rng, TEXT_VALUES)
    lines[ln] = "\t".join(fields)
    return (f"line {ln + 1} field {col} = {fields[col]!r}",
            "\n".join(lines).encode("utf-8"))


def _edit_config(blob: bytes, rng):
    lines = blob.decode("utf-8").split("\n")[:-1]
    ln = int(rng.integers(len(lines)))
    key, _ = lines[ln].split("=")
    if rng.integers(4) == 0:
        key = _pick(rng, ["", "seed", "bogus", "feat-dim", "noise "])
    lines[ln] = f"{key}={_pick(rng, TEXT_VALUES)}"
    return f"line {ln + 1} = {lines[ln]!r}", "\n".join(lines).encode("utf-8")


def _edit_checkpoint(blob: bytes, rng):
    (hlen,) = struct.unpack("<I", blob[12:16])
    if rng.integers(4) == 0:
        offset = _pick(rng, [8, 12])  # version, header length
        value = _pick(rng, [0, 1, 2, hlen - 1, hlen + 1, 0xFFFFFFFF])
        return (f"u32 at {offset} = {value}",
                blob[:offset] + struct.pack("<I", value) + blob[offset + 4:])
    header = json.loads(blob[16:16 + hlen])
    key = _pick(rng, [*header["config"], "gloss_vocab", "text_vocab"])
    value = _pick(rng, [-1, 0, 1, 3, 2.5, "x", None, True, [], {}])
    (header["config"] if key in header["config"] else header)[key] = value
    text = json.dumps(header).encode("utf-8")
    return (f"header {key} = {value!r}",
            blob[:12] + struct.pack("<I", len(text)) + text + blob[16 + hlen:])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A six-sample corpus and a checkpoint of an untrained tiny model."""
    root = tmp_path_factory.mktemp("fuzz")
    manifest = dataio.synth_generate(0, 6, 3, 5, 0.0, root / "d")
    samples = manifest.load_samples()
    gv = dataio.build_vocab([s.gloss for s in samples])
    tv = dataio.build_vocab([s.text for s in samples])
    cfg = GlotConfig.tiny(max_frames=32, feat_dim=5, gloss_vocab_size=len(gv),
                          text_vocab_size=len(tv))
    save_checkpoint(GlotModel(cfg, gloss_vocab=gv, text_vocab=tv),
                    root / "m.ckpt")
    cv_entry = next(e for e in manifest.entries if e.split == "cv")
    return root, root / "d" / cv_entry.path


def _run_cases(capsys, target, blob: bytes, mutations, argv):
    """Run argv once per mutation of target; the outcomes outside the
    contract, one line each."""
    bad = []
    try:
        for what, mutated in mutations:
            target.write_bytes(mutated)
            code = cli.main(argv)
            err = capsys.readouterr().err.splitlines()
            prefix = {0: None, 2: "error:", 3: "divergence:"}.get(code, "?")
            if [line.split(" ", 1)[0] for line in err] != (
                    [prefix] if prefix else []):
                bad.append(f"{what}: exit {code}, stderr {err}")
    finally:
        target.write_bytes(blob)
    return bad


def _eval_argv(root):
    return ["eval", "--manifest", str(root / "d" / "manifest.tsv"),
            "--checkpoint", str(root / "m.ckpt"), "--split", "cv"]


def test_fuzz_feature_files(corpus, capsys):
    root, feature = corpus
    blob = feature.read_bytes()
    assert not _run_cases(capsys, feature, blob,
                          _mutations(blob, _edit_feature, 101),
                          _eval_argv(root))


def test_fuzz_manifests(corpus, capsys):
    root, _ = corpus
    manifest = root / "d" / "manifest.tsv"
    blob = manifest.read_bytes()
    assert not _run_cases(capsys, manifest, blob,
                          _mutations(blob, _edit_manifest, 102),
                          _eval_argv(root))


def test_fuzz_checkpoints(corpus, capsys):
    root, _ = corpus
    ckpt = root / "m.ckpt"
    blob = ckpt.read_bytes()
    assert not _run_cases(capsys, ckpt, blob,
                          _mutations(blob, _edit_checkpoint, 103),
                          _eval_argv(root))


def test_fuzz_config_files(corpus, capsys):
    root, _ = corpus
    cfg = root / "synth.cfg"
    blob = b"seed=3\nsamples=6\nsigns=3\nfeat_dim=5\nnoise=0.1\n"
    assert not _run_cases(capsys, cfg, blob,
                          _mutations(blob, _edit_config, 104),
                          ["synth", "--config", str(cfg),
                           "--out", str(root / "synth")])
