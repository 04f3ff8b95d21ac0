import struct

import numpy as np
import pytest

from glot import cli, dataio


def test_feature_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(9, 4))
    path = tmp_path / "a.feat"
    dataio.write_feature_file(path, feats)
    back = dataio.read_feature_file(path)
    assert np.array_equal(back, feats)


def test_feature_truncated_file(tmp_path):
    path = tmp_path / "b.feat"
    dataio.write_feature_file(path, np.zeros((3, 2)))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(dataio.FormatError):
        dataio.read_feature_file(path)


def test_feature_bad_magic(tmp_path):
    path = tmp_path / "c.feat"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 20)
    with pytest.raises(dataio.FormatError, match="magic"):
        dataio.read_feature_file(path)


def test_feature_zero_frames_rejected(tmp_path, capsys):
    path = tmp_path / "e.feat"
    dataio.write_feature_file(path, np.zeros((0, 8)))
    with pytest.raises(dataio.FormatError, match="no frames"):
        dataio.read_feature_file(path)
    # a zero-frame sample in a corpus ends the run with one error line
    synth = dataio.synth_generate(0, 6, 4, 8, 0.0, tmp_path / "d")
    dataio.write_feature_file(tmp_path / "d" / synth.entries[0].path,
                              np.zeros((0, 8)))
    code = cli.main(["train", "--manifest", str(tmp_path / "d" / "manifest.tsv"),
                     "--epochs", "1", "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_feature_hand_written_fixture(tmp_path):
    path = tmp_path / "d.feat"
    payload = (dataio.FEATURE_MAGIC + struct.pack("<III", 1, 3, 2)
               + np.arange(1.0, 7.0).astype("<f8").tobytes())
    path.write_bytes(payload)
    assert dataio.read_feature_file(path).tolist() == [[1, 2], [3, 4], [5, 6]]


def test_vocab_frequency_then_lexicographic():
    vocab = dataio.build_vocab([["a", "b"], ["b"]])
    assert vocab.token_to_id["b"] == 5
    assert vocab.token_to_id["a"] == 6


def test_vocab_empty_entries_contribute_nothing():
    vocab = dataio.build_vocab([[], ["x"]])
    assert vocab.tokens == ["x"]


def test_vocab_rebuild_identical():
    corpus = [["q", "w", "e"], ["w", "w"]]
    assert dataio.build_vocab(corpus).id_to_token == \
        dataio.build_vocab(corpus).id_to_token


def test_encode_decode_roundtrip():
    vocab = dataio.build_vocab([["hi", "there"]])
    ids = vocab.encode(["hi", "there"])
    assert vocab.decode(ids) == ["hi", "there"]


def test_unknown_token_maps_to_unk():
    vocab = dataio.build_vocab([["hi"]])
    assert vocab.encode(["whoa"]) == [dataio.UNK]


def test_decode_out_of_range():
    vocab = dataio.build_vocab([["hi"]])
    with pytest.raises(dataio.DataError):
        vocab.decode([99])


def test_manifest_roundtrip(tmp_path):
    entries = [dataio.ManifestEntry("s1", "f/s1.feat", "a b", "so b then a", "cv"),
               dataio.ManifestEntry("s2", "f/s2.feat", "c", "so then c", "test")]
    path = tmp_path / "manifest.tsv"
    dataio.write_manifest(path, entries)
    back = dataio.read_manifest(path)
    assert back.entries == entries
    assert back.root == tmp_path


def test_manifest_rejects_duplicates_and_bad_split(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("a\tp\tg\tt\tcv\na\tp\tg\tt\tcv\n")
    with pytest.raises(dataio.FormatError, match="duplicate"):
        dataio.read_manifest(path)
    path.write_text("a\tp\tg\tt\tvalidation\n")
    with pytest.raises(dataio.FormatError, match="split"):
        dataio.read_manifest(path)


def test_synth_determinism(tmp_path):
    m1 = dataio.synth_generate(3, 8, 4, 6, 0.1, tmp_path / "one")
    m2 = dataio.synth_generate(3, 8, 4, 6, 0.1, tmp_path / "two")
    assert (tmp_path / "one" / "manifest.tsv").read_bytes() == \
        (tmp_path / "two" / "manifest.tsv").read_bytes()
    for e1, e2 in zip(m1.entries, m2.entries):
        b1 = (tmp_path / "one" / e1.path).read_bytes()
        b2 = (tmp_path / "two" / e2.path).read_bytes()
        assert b1 == b2


def test_synth_noise_free_exact_prototypes(tmp_path):
    manifest = dataio.synth_generate(5, 4, 3, 4, 0.0, tmp_path)
    samples = manifest.load_samples()
    for s in samples:
        # every frame must exactly equal one of at most n_signs prototypes
        unique = np.unique(s.features, axis=0)
        assert unique.shape[0] <= 3


def test_synth_rewrite_injective(tmp_path):
    manifest = dataio.synth_generate(11, 40, 5, 4, 0.0, tmp_path)
    texts = {}
    for e in manifest.entries:
        if e.text in texts:
            assert texts[e.text] == e.gloss
        texts[e.text] = e.gloss
    # rewrite is invertible by construction, so distinct glosses never collide
    glosses = {e.gloss for e in manifest.entries}
    assert len({e.text for e in manifest.entries}) == len(glosses)


def test_synth_split_tagging(tmp_path):
    manifest = dataio.synth_generate(2, 20, 4, 4, 0.0, tmp_path)
    n_test = sum(e.split == "test" for e in manifest.entries)
    assert n_test == 4


def test_synth_validation():
    with pytest.raises(dataio.DataError):
        dataio.synth_generate(0, 4, 1, 4, 0.0, "/tmp/nope")
    with pytest.raises(dataio.DataError):
        dataio.synth_generate(0, 4, 3, 1, 0.0, "/tmp/nope")
