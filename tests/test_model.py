import errno
import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

import glot.model
from glot import dataio, numcore as nc, sparse_attention as sa, training
from glot.dataio import BOS, EOS, DataError
from glot.model import (CheckpointError, DecoderCache, GlotConfig, GlotModel,
                        GreedyResult, load_checkpoint, positional_encoding,
                        save_checkpoint)
from glot.numcore import ConfigError, Tensor


def tiny_model(**overrides):
    defaults = dict(max_frames=8, feat_dim=5)
    defaults.update(overrides)
    return GlotModel(GlotConfig.tiny(**defaults), seed=0)


def test_config_presets():
    s1 = GlotConfig.set1()
    assert (s1.d_model, s1.n_heads, s1.ff_size, s1.dropout) == \
        (512, 8, 2048, 0.1)
    s2 = GlotConfig.set2()
    assert (s2.d_model, s2.n_heads, s2.ff_size, s2.dropout) == \
        (256, 8, 256, 0.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        GlotConfig(d_model=7).validate()
    with pytest.raises(ConfigError):
        GlotConfig(d_model=8, n_heads=3).validate()
    with pytest.raises(ConfigError, match=r"n_lssa_layers must be >= 0 "
                                          r"\(0 means auto\)"):
        GlotConfig.tiny(n_lssa_layers=-1)


@pytest.mark.parametrize("field, value", [
    ("d_model", "8"), ("n_heads", 2.0), ("n_heads", True),
    ("d_model", np.int64(8)), ("dropout", "0.1"), ("encoder_kind", None)])
def test_config_rejects_a_field_of_the_wrong_type(field, value):
    # An int field takes only a Python int, which save_checkpoint's JSON
    # header can write; a bool is never a number.
    with pytest.raises(ConfigError, match=rf"^config {field}=.* is not a "
                                          rf"valid (int|float|str)$"):
        GlotConfig(**{field: value})


def test_config_float_field_takes_an_int():
    assert GlotConfig(dropout=0).dropout == 0


def test_preset_rejects_an_unknown_field():
    with pytest.raises(TypeError, match="bogus"):
        GlotConfig.tiny(bogus=1)


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        GlotModel(GlotConfig.tiny(), seed=-1)


def test_positional_encoding_values():
    pe = positional_encoding(4, 6)
    assert np.allclose(pe[0], [0, 1, 0, 1, 0, 1])
    assert pe[1][0] == pytest.approx(np.sin(1.0), abs=1e-12)
    assert np.array_equal(pe, positional_encoding(4, 6))
    with pytest.raises(ConfigError):
        positional_encoding(4, 5)


def test_embed_frames_zero_input_gives_pe():
    m = tiny_model()
    out = m.embed_frames([np.zeros((4, 5))])
    assert np.allclose(out.data, positional_encoding(4, 8), atol=1e-15)


def test_embed_frames_shape():
    m = tiny_model(feat_dim=12)
    out = m.embed_frames([np.random.default_rng(0).normal(size=(5, 12))])
    assert out.shape == (5, 8)


def test_embed_frames_width_mismatch():
    m = tiny_model()
    with pytest.raises(nc.ShapeError):
        m.embed_frames([np.zeros((4, 9))])


def test_embed_frames_gradient():
    m = tiny_model()
    frames = np.random.default_rng(1).normal(size=(4, 5))
    w = Tensor(np.random.default_rng(2).normal(size=(4, 8)))
    [c] = nc.grad_check(lambda: nc.tsum(nc.mul(m.embed_frames([frames]), w)),
                        {"frame_embed": m.params["frame_embed"]})
    assert c.passed


def test_gate_value_examples():
    m = tiny_model()
    lssa_out = Tensor(np.random.default_rng(3).normal(size=(5, 4)))
    m.params["enc0.gate_w"].data[:] = 0.0
    m.params["enc0.gate_b"].data = np.asarray(0.0)
    g = m.gate_value(lssa_out)
    assert np.allclose(g.data, 0.5)
    m.params["enc0.gate_b"].data = np.asarray(50.0)
    g = m.gate_value(lssa_out)
    assert np.all(g.data > 1 - 1e-9)
    # sigmoid(ln 3) = 0.75 through the first coordinate
    m.params["enc0.gate_b"].data = np.asarray(0.0)
    m.params["enc0.gate_w"].data[:] = 0.0
    m.params["enc0.gate_w"].data[0, 0] = 1.0
    row = np.zeros((1, 4))
    row[0, 0] = np.log(3.0)
    g = m.gate_value(Tensor(row))
    assert g.data[0, 0] == pytest.approx(0.75, abs=1e-12)


def test_gating_combine_limits_and_midpoint():
    rng = np.random.default_rng(4)
    lssa_out = Tensor(rng.normal(size=(3, 4)))
    gap = Tensor(rng.normal(size=(1, 4)))
    ones = Tensor(np.ones((3, 1)))
    zeros = Tensor(np.zeros((3, 1)))
    assert np.array_equal(nc.gated_mix(ones, lssa_out, gap, [3]).data,
                          lssa_out.data)
    out0 = nc.gated_mix(zeros, lssa_out, gap, [3]).data
    assert np.array_equal(out0, np.tile(gap.data, (3, 1)))
    half = nc.gated_mix(Tensor(np.full((3, 1), 0.5)),
                        Tensor(np.array([[2.0, 4.0]] * 3)),
                        Tensor(np.array([[0.0, 2.0]])), [3])
    assert np.allclose(half.data, [[1.0, 3.0]] * 3)


def test_gating_convex_containment():
    rng = np.random.default_rng(5)
    for _ in range(50):
        lssa_out = rng.normal(size=(4, 4))
        gap = rng.normal(size=(1, 4))
        g = rng.uniform(0.01, 0.99, size=(4, 1))
        out = nc.gated_mix(Tensor(g), Tensor(lssa_out), Tensor(gap), [4]).data
        lo = np.minimum(lssa_out, gap)
        hi = np.maximum(lssa_out, gap)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)
    # packed clips of 1 and 3 rows: each row stays inside its own clip's
    # envelope
    for _ in range(50):
        lssa_out = rng.normal(size=(4, 4))
        gap = rng.normal(size=(2, 4))
        g = rng.uniform(0.01, 0.99, size=(4, 1))
        out = nc.gated_mix(Tensor(g), Tensor(lssa_out), Tensor(gap),
                           [1, 3]).data
        gap_rows = gap[[0, 1, 1, 1]]
        lo = np.minimum(lssa_out, gap_rows)
        hi = np.maximum(lssa_out, gap_rows)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def test_encoder_forward_shape_preserving():
    m = tiny_model()
    rng = np.random.default_rng(6)
    for F in (1, 2, 5, 8):
        out = m.encode([rng.normal(size=(F, 5))])
        assert out.shape == (F, 8)


def test_dense_encoder_shape_preserving():
    m = tiny_model(encoder_kind="dense_baseline")
    rng = np.random.default_rng(7)
    for F in (1, 3, 8):
        out = m.encode([rng.normal(size=(F, 5))])
        assert out.shape == (F, 8)


def test_encoder_reduced_form_oracle():
    # conv = channel identity, zero Q/K/V, neutral gate: the block collapses
    # to layer_norm(x + concat(x1, 0.5 * masked-mean(x2)))
    m = tiny_model(n_lssa_layers=1)
    d_b = 4
    m.params["enc0.conv_w"].data[:] = 0.0
    m.params["enc0.conv_w"].data[:, :, 1] = np.eye(d_b)
    m.params["enc0.conv_b"].data[:] = 0.0
    m.params["enc0.lssa0.wq"].data[:] = 0.0
    m.params["enc0.lssa0.wk"].data[:] = 0.0
    m.params["enc0.wv"].data[:] = 0.0
    m.params["enc0.gate_w"].data[:] = 0.0
    m.params["enc0.gate_b"].data = np.asarray(0.0)

    rng = np.random.default_rng(8)
    F = 6
    x = rng.normal(size=(F, 8))
    out = m.encoder_block_glot(Tensor(x), [F]).data

    x1, x2 = x[:, :d_b], x[:, d_b:]
    fused = np.zeros_like(x2)
    for p in range(1, F + 1):
        members = np.array(sa.log_index_set(p)) - 1
        fused[p - 1] = 0.5 * x2[members].mean(axis=0)
    y = x + np.concatenate([x1, fused], axis=1)
    mu = y.mean(axis=1, keepdims=True)
    var = y.var(axis=1, keepdims=True)
    expected = (y - mu) / np.sqrt(var + 1e-5)
    assert np.allclose(out, expected, atol=1e-10)


def test_dense_uniform_attention_oracle():
    # single head, identity V/O, zero Q/K: attention output is the
    # column mean broadcast to every row
    m = tiny_model(encoder_kind="dense_baseline", n_heads=1)
    m.params["enc0.attn.wq"].data[:] = 0.0
    m.params["enc0.attn.wk"].data[:] = 0.0
    m.params["enc0.attn.wv"].data = np.eye(8)
    m.params["enc0.attn.wo"].data = np.eye(8)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(5, 8))
    out = m._mha("enc0.attn.", Tensor(x), Tensor(x), [(5, 5)]).data
    assert np.allclose(out, np.tile(x.mean(axis=0), (5, 1)), atol=1e-12)


def test_attention_rows_sum_to_one():
    m = tiny_model(encoder_kind="dense_baseline")
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=(6, 8)))
    q = nc.matmul(x, m.params["enc0.attn.wq"])
    k = nc.matmul(x, m.params["enc0.attn.wk"])
    # keys, values and every weight I: the attention output is alpha
    eye = Tensor(np.eye(6))
    alpha = nc.attention(Tensor(q.data @ k.data.T), eye, eye, eye, eye, eye)
    assert np.allclose(alpha.data.sum(axis=1), 1.0, atol=1e-9)


def test_decoder_shapes():
    m = tiny_model()
    mem = m.encode([np.random.default_rng(11).normal(size=(4, 5))])
    logits = m.decoder_forward(mem, [BOS, 5, 6], "gloss")
    assert logits.shape == (3, 7)
    logits = m.decoder_forward(mem, [BOS, 5, 6, 7], "text")
    assert logits.shape == (4, 11)


def test_decoder_rejects_bad_token():
    m = tiny_model()
    mem = m.encode([np.zeros((2, 5))])
    with pytest.raises(DataError):
        m.decoder_forward(mem, [BOS, 99], "gloss")


def test_decoder_causality():
    m = tiny_model()
    rng = np.random.default_rng(12)
    mem = m.encode([rng.normal(size=(4, 5))])
    base_ids = [BOS, 5, 6, 5, 6]
    base = m.decoder_forward(mem, base_ids, "gloss").data
    for _ in range(50):
        t0 = int(rng.integers(0, 3))
        mutated = list(base_ids)
        pos = int(rng.integers(t0 + 1, len(base_ids)))
        mutated[pos] = int(rng.integers(5, 7))
        out = m.decoder_forward(mem, mutated, "gloss").data
        assert np.array_equal(out[:pos], base[:pos])


def test_decoder_gradients():
    m = tiny_model()
    rng = np.random.default_rng(13)
    frames = rng.normal(size=(3, 5))
    names = ("dec_gloss0.self.wq", "dec_text0.cross.wv", "embed_gloss",
             "out_text.w")
    checks = nc.grad_check(
        lambda: training.batch_loss(m, [frames], [[5, 6]], [[5, 7, 9]]),
        {n: m.params[n] for n in names}, tol=1e-3)
    assert [c.name for c in checks if not c.passed] == []


def test_encoder_gradients_above_gather_crossover():
    # at this length the LSSA layers run the gathered log-sparse op
    F = nc.OFFSET_MIN_LENGTH + 5
    m = tiny_model(max_frames=F, n_lssa_layers=2)
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(F, 8)), requires_grad=True)
    w = Tensor(rng.normal(size=(F, 8)))
    names = ("enc0.lssa0.wq", "enc0.lssa0.wk", "enc0.lssa1.wq",
             "enc0.lssa1.wk")
    checks = nc.grad_check(
        lambda: nc.tsum(nc.mul(m.encoder_block_glot(x, [F]), w)),
        {"x": x, **{n: m.params[n] for n in names}}, tol=1e-4)
    assert [(c.name, c.max_rel_err) for c in checks if not c.passed] == []


def test_long_clip_forward_keeps_no_lssa_gathers():
    # long_video's model shape: 10 LSSA layers of width d_b = 8 over two
    # 736-frame clips. A tape that kept each layer's two (L, K, d_b) key
    # and value gathers (K = 11) would hold their 20.7 MB on top of the
    # about 8.2 MB it holds now; the bound of 0.75 x 20.7 = 15.5 MB leaves
    # 7.3 MB of headroom over today's figure.
    F, depth = 736, 10
    m = tiny_model(d_model=16, ff_size=32, n_lssa_layers=depth, max_frames=F)
    rng = np.random.default_rng(0)
    args = (m, [rng.normal(size=(F, 5)) for _ in range(2)],
            [[5, 6], [6, 5]], [[5, 7], [7, 9]])
    training.batch_loss(*args)  # warm the per-length caches
    gathers = 2 * depth * 2 * F * len(sa.log_sparse_offsets(F)) * 8 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with nc.Tape() as tape:
            loss = training.batch_loss(*args)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(tape) > 0 and np.isfinite(loss.item())
    assert held < 0.75 * gathers, (held, gathers)


def test_s2g2t_shapes_and_finite_loss():
    m = tiny_model()
    rng = np.random.default_rng(14)
    frames = rng.normal(size=(5, 5))
    gl, tl = m.s2g2t_forward([frames], [[5, 6, 5]], [[5, 7, 9, 6]])
    assert gl.shape == (4, 7) and tl.shape == (5, 11)
    loss = training.batch_loss(m, [frames], [[5, 6, 5]], [[5, 7, 9, 6]]).item()
    assert np.isfinite(loss)
    assert loss < np.log(7) + np.log(11) + 2.0


def test_s2g2t_requires_sequences():
    m = tiny_model()
    with pytest.raises(nc.ContractError):
        m.s2g2t_forward([np.zeros((2, 5))], None, [[5]])
    with pytest.raises(nc.ContractError):  # one sequence per sample
        m.s2g2t_forward([np.zeros((2, 5))] * 2, [[5]], [[5]])


@pytest.mark.parametrize("kind", ["glot", "dense_baseline"],
                         ids=["glot-1", "dense_baseline-1"])
def test_packed_batch_matches_one_pass_per_sample(kind):
    # The packed decoders see each sample's rows exactly as an unpacked,
    # causally masked pass over that sample alone does.
    m = tiny_model(encoder_kind=kind)
    rng = np.random.default_rng(21)
    frames = [rng.normal(size=(n, 5)) for n in (3, 7, 5)]
    gloss, text = [[5, 6], [6, 5, 6, 5], []], [[5, 7, 9], [8], [10, 6, 7, 5]]
    got = m.s2g2t_forward(frames, gloss, text)
    refs = ([], [])
    for f, g, t in zip(frames, gloss, text):
        memory = m.encode([f])
        refs[0].append(m.decoder_forward(memory, [BOS, *g], "gloss").data)
        refs[1].append(m.decoder_forward(m._gloss_memory(memory, [len(f)], [g]),
                                         [BOS, *t], "text").data)
    for logits, ref in zip(got, refs):
        ref = np.concatenate(ref)
        assert logits.shape == ref.shape
        assert np.max(np.abs(logits.data - ref)) <= 1e-12


def test_packed_decoder_rejects_a_cache():
    m = tiny_model()
    memory = m.encode([np.zeros((3, 5))])
    with pytest.raises(nc.ContractError):
        m.decoder_forward([memory], [BOS], "gloss", DecoderCache(),
                          blocks=[(1, 3)])


def test_cached_step_takes_one_token_per_memory_of_a_list():
    # A cached step over a list of memories decodes one sequence per
    # memory: one token id each, and on later steps one per sequence the
    # cache still decodes; the list is the memory the cache serves. A lone
    # memory Tensor is no list, and fails as any other wrong type does.
    m = tiny_model()
    memories = [m.encode([np.zeros((n, 5))]) for n in (1, 2)]
    cache = DecoderCache()
    with pytest.raises(TypeError):
        m.decoder_forward(memories[0], [BOS], "gloss", cache)
    for ids in ([BOS], [BOS] * 3):
        with pytest.raises(nc.ContractError, match="2 expected"):
            m.decoder_forward(memories, ids, "gloss", cache)
    with pytest.raises(nc.ContractError, match="0 expected"):
        m.decoder_forward([], [], "gloss", cache)
    assert cache.stage is None
    got = m.decoder_forward(memories, [BOS, BOS], "gloss", cache)
    assert got.shape == (2, 7) and cache.size == 2
    with pytest.raises(nc.ContractError, match="one stage over one memory"):
        m.decoder_forward(list(memories), [5, 5], "gloss", cache)
    cache.keep_only([False, True])
    with pytest.raises(nc.ContractError, match="1 expected, got 2"):
        m.decoder_forward(memories, [5, 5], "gloss", cache)
    assert m.decoder_forward(memories, [5], "gloss", cache).shape == (1, 7)


def test_loss_decreases_on_two_samples():
    m = tiny_model()
    rng = np.random.default_rng(15)
    data = [(rng.normal(size=(4, 5)), [5, 6], [5, 7, 9]),
            (rng.normal(size=(6, 5)), [6, 5, 6], [8, 6, 10])]
    opt = training.Adam(m.params)
    losses = []
    m.train()
    for _ in range(50):
        with nc.Tape() as tape:
            loss = training.batch_loss(m, *zip(*data))
        losses.append(loss.item())
        opt.zero_grad()
        tape.backward(loss)
        opt.step(lr=1e-2)
    assert np.mean(losses[-10:]) < 0.5 * np.mean(losses[:10])


def test_greedy_decode_deterministic_and_bounded():
    m = tiny_model()
    frames = np.random.default_rng(16).normal(size=(4, 5))
    r1 = m.greedy_decode(frames, max_len=6)
    r2 = m.greedy_decode(frames, max_len=6)
    assert r1 == r2
    assert len(r1.gloss_ids) <= 6 and len(r1.text_ids) <= 6


def test_greedy_decode_zero_budget():
    m = tiny_model()
    res = m.greedy_decode(np.zeros((2, 5)), max_len=0)
    assert res.gloss_ids == [] and res.text_ids == []
    assert res.gloss_truncated and res.text_truncated


@pytest.mark.parametrize("max_len", [-3, -1, 15, 17, 2.0, True, "4",
                                     np.int64(3)])
def test_greedy_decode_rejects_max_len_outside_its_range(monkeypatch,
                                                          max_len):
    # The tiny preset's max_target_len is 12, so a cached stage may run at
    # most 14 steps. Anything but an int in [0, 14] is refused before the
    # clip is encoded.
    m = tiny_model()
    monkeypatch.setattr(m, "encode", None)
    with pytest.raises(nc.ContractError,
                       match=r"max_len must be an int in \[0, 14\]"):
        m.greedy_decode(np.zeros((2, 5)), max_len=max_len)


def test_greedy_decode_runs_to_the_longest_budget():
    m = tiny_model()
    res = m.greedy_decode(np.random.default_rng(32).normal(size=(4, 5)),
                          max_len=14)
    for ids, truncated in ((res.gloss_ids, res.gloss_truncated),
                           (res.text_ids, res.text_truncated)):
        assert len(ids) <= 14 and truncated == (len(ids) == 14)


def test_encoder_kinds_share_pipeline():
    rng = np.random.default_rng(17)
    frames = rng.normal(size=(5, 5))
    for kind in ("glot", "dense_baseline"):
        m = tiny_model(encoder_kind=kind)
        loss = training.batch_loss(m, [frames], [[5, 6]], [[5, 7]]).item()
        assert np.isfinite(loss)
        res = m.greedy_decode(frames, max_len=4)
        assert len(res.text_ids) <= 4


def test_instrumented_pair_counts(monkeypatch):
    # The glot encoder runs the log-sparse stack once per clip, on that
    # clip's rows, under build_mask; the pairs it scores per layer are
    # count_attention_pairs' closed form. The dense encoder never runs it.
    rng = np.random.default_rng(18)
    frames = [rng.normal(size=(F, 5)) for F in (6, 9)]
    calls = []
    stacked_lssa = sa.stacked_lssa

    def spy(x, layers, mask):
        calls.append((x.shape[0], layers, mask))
        return stacked_lssa(x, layers, mask)

    monkeypatch.setattr(sa, "stacked_lssa", spy)
    m = tiny_model(max_frames=16)
    m.encode(frames)
    assert [F for F, _, _ in calls] == [6, 9]
    for F, layers, mask in calls:
        assert mask is sa.build_mask(F)
        assert len(layers) == m.config.lssa_depth
        assert int(mask.sum()) == sa.count_attention_pairs(F, "logsparse")
    calls.clear()
    tiny_model(max_frames=16, encoder_kind="dense_baseline").encode(frames)
    assert calls == []


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    m = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    m2 = load_checkpoint(path)
    assert list(m.params) == list(m2.params)
    for name in m.params:
        assert np.array_equal(m.params[name].data, m2.params[name].data), name
    assert m2.config == m.config


class _FullDisk:
    """A binary file whose writes fail with ENOSPC once budget bytes are
    written; the write that crosses it writes its first part."""

    def __init__(self, fh, budget: int):
        self.fh, self.room = fh, budget

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False

    def write(self, data: bytes) -> int:
        if len(data) > self.room:
            self.fh.write(data[:self.room])
            self.room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(data)
        return self.fh.write(data)


def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    # A save that fails after 4 KiB leaves the checkpoint it would have
    # replaced byte-identical and loadable, and no temporary file behind.
    path = tmp_path / "best.ckpt"
    save_checkpoint(tiny_model(), path)
    before = path.read_bytes()

    def full_disk_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return _FullDisk(fh, 4096) if "w" in mode else fh

    monkeypatch.setattr(glot.model, "open", full_disk_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(GlotModel(GlotConfig.tiny(max_frames=8, feat_dim=5),
                                  seed=1), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]
    assert np.array_equal(load_checkpoint(path).params["out_text.w"].data,
                          tiny_model().params["out_text.w"].data)


def test_clean_save_bytes_are_pinned(tmp_path):
    # The file a save leaves is the checkpoint format's bytes, as a save
    # straight to the target wrote them, and nothing else is left behind.
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_model(), path)
    blob = path.read_bytes()
    assert len(blob) == 17842
    assert hashlib.sha256(blob).hexdigest() == (
        "853b0da6563f90e6d5c1e4c81d2c28f3fd319e397618e8ffee021ca6c5bbf4ea")
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


@pytest.mark.parametrize("kind", ["glot", "dense_baseline"])
def test_checkpoint_load_draws_no_initialization(tmp_path, monkeypatch, kind):
    # The loader hands the file's values to the model, which then skips
    # its random initialization altogether.
    m = tiny_model(encoder_kind=kind)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)

    def no_init(self, rng):
        raise AssertionError("load_checkpoint initialized parameters")

    monkeypatch.setattr(GlotModel, "_init_params", no_init)
    m2 = load_checkpoint(path)
    assert m2.config == m.config and list(m2.params) == list(m.params)
    for name, t in m.params.items():
        assert m2.params[name].data.tobytes() == t.data.tobytes(), name
        assert m2.params[name].requires_grad, name


def test_checkpoint_rejects_corruption(tmp_path):
    m = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    blob = bytearray(path.read_bytes())
    blob[0] = 0
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _rewrite_checkpoint(path, edit, keep_params=True, key="config"):
    """Apply edit() to the key entry of the checkpoint's JSON header;
    optionally drop every parameter record after it."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[12:16])
    header = json.loads(blob[16:16 + hlen])
    edit(header[key])
    text = json.dumps(header).encode()
    rest = blob[16 + hlen:] if keep_params else b""
    path.write_bytes(blob[:12] + struct.pack("<I", len(text)) + text + rest)


def _load_peak_bytes(path):
    """load_checkpoint's exception and tracemalloc peak, in bytes."""
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        return err.value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checkpoint_with_retired_sinusoidal_pe_kind_loads(tmp_path):
    # Headers written before positions became sinusoidal-only name them
    # in a pe_kind key; new headers leave it out.
    m = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    header_len = struct.unpack("<I", path.read_bytes()[12:16])[0]
    assert b"pe_kind" not in path.read_bytes()[16:16 + header_len]
    _rewrite_checkpoint(path, lambda c: c.update(pe_kind="sinusoidal"))
    m2 = load_checkpoint(path)
    assert m2.config == m.config and list(m2.params) == list(m.params)
    for name, t in m.params.items():
        assert m2.params[name].data.tobytes() == t.data.tobytes(), name


def test_checkpoint_with_other_pe_kind_rejected_before_allocating(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_model(), path)
    _rewrite_checkpoint(path, lambda c: c.update(pe_kind="learned",
                                                 max_frames=2_000_000))
    err, peak = _load_peak_bytes(path)
    assert "pe_kind='learned' is not supported" in str(err)
    assert peak < 2 ** 20


def test_checkpoint_with_retired_conv_kernel_loads(tmp_path):
    # Headers written while the conv kernel was a config field hold
    # conv_kernel 3; new headers leave it out.
    m = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    header_len = struct.unpack("<I", path.read_bytes()[12:16])[0]
    assert b"conv_kernel" not in path.read_bytes()[16:16 + header_len]
    _rewrite_checkpoint(path, lambda c: c.update(conv_kernel=3))
    m2 = load_checkpoint(path)
    assert m2.config == m.config and list(m2.params) == list(m.params)
    for name, t in m.params.items():
        assert m2.params[name].data.tobytes() == t.data.tobytes(), name


def test_checkpoint_with_other_conv_kernel_rejected_before_allocating(
        tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_model(), path)
    _rewrite_checkpoint(path, lambda c: c.update(conv_kernel=5,
                                                 max_frames=2_000_000))
    err, peak = _load_peak_bytes(path)
    assert "config conv_kernel=5 is not supported" in str(err)
    assert peak < 2 ** 20


def test_checkpoint_with_retired_depth_keys_loads(tmp_path):
    # Headers written while the encoder and decoder depths were config
    # fields hold n_encoders 1 and n_decoders 1; new headers leave them out.
    m = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    header_len = struct.unpack("<I", path.read_bytes()[12:16])[0]
    assert b"n_encoders" not in path.read_bytes()[16:16 + header_len]
    assert b"n_decoders" not in path.read_bytes()[16:16 + header_len]
    _rewrite_checkpoint(path, lambda c: c.update(n_encoders=1, n_decoders=1))
    m2 = load_checkpoint(path)
    assert m2.config == m.config and list(m2.params) == list(m.params)
    for name, t in m.params.items():
        assert m2.params[name].data.tobytes() == t.data.tobytes(), name


def test_checkpoint_with_two_decoder_layers_rejected_before_allocating(
        tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_model(), path)
    _rewrite_checkpoint(path, lambda c: c.update(n_decoders=2,
                                                 max_frames=2_000_000))
    err, peak = _load_peak_bytes(path)
    assert "config n_decoders=2 is not supported" in str(err)
    assert peak < 2 ** 20


def test_checkpoint_with_negative_lssa_depth_rejected_before_any_record(
        tmp_path):
    # A header-only file: had the loader read a record, it would report a
    # truncated checkpoint instead.
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_model(), path)
    _rewrite_checkpoint(path, lambda c: c.update(n_lssa_layers=-1),
                        keep_params=False)
    with pytest.raises(CheckpointError, match="n_lssa_layers must be >= 0"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit, expected", [
    (lambda v: v.append("extra"),
     "gloss_vocab size 8 differs from config gloss_vocab_size=7"),
    (lambda v: v.__setitem__(1, v[0]),
     "gloss_vocab: duplicate tokens in vocabulary"),
    (lambda v: v.__setitem__(0, "<eos>"),
     "gloss_vocab: corpus token collides with reserved '<eos>'"),
], ids=["one-more-token", "duplicate", "reserved"])
@pytest.mark.parametrize("keep_params", [True, False],
                         ids=["whole", "header-only"])
def test_checkpoint_vocabulary_is_checked_with_the_header(tmp_path, edit,
                                                         expected,
                                                         keep_params):
    # A header-only file: had the loader read a record before the
    # vocabularies, it would report a truncated checkpoint instead.
    path = tmp_path / "m.ckpt"
    save_checkpoint(GlotModel(GlotConfig.tiny(max_frames=8, feat_dim=5),
                              gloss_vocab=dataio.Vocabulary(["a", "b"]),
                              text_vocab=dataio.Vocabulary(list("cdefgh"))),
                    path)
    _rewrite_checkpoint(path, edit, keep_params, key="gloss_vocab")
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: {expected}"


def test_checkpoint_load_peak_is_about_one_file(tmp_path):
    # Each record is read from the file straight into its own array, so a
    # load holds about one file's worth of bytes, not the file and a copy.
    path = tmp_path / "m.ckpt"
    save_checkpoint(GlotModel(GlotConfig.set2(max_frames=736), seed=0), path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * size, (peak, size)


def test_header_only_checkpoint_rejected_before_allocating(tmp_path):
    # A wide config whose parameters are missing: the loader compares the
    # bytes the config implies with the file's before allocating any.
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_model(), path)
    _rewrite_checkpoint(path, lambda c: c.update(d_model=1024, ff_size=1024),
                        keep_params=False)
    err, peak = _load_peak_bytes(path)
    assert "truncated checkpoint" in str(err)
    assert "0 follow the header" in str(err)
    assert peak < 2 ** 20


def test_positional_table_slices_are_bit_identical():
    for width in (8, 16, 256):
        table = positional_encoding(736, width)
        for L in range(1, 737):
            assert np.array_equal(table[:L], positional_encoding(L, width)), \
                (width, L)


@pytest.mark.parametrize(
    "kind", ["glot", "dense_baseline"],
    ids=["glot-1-sinusoidal", "dense_baseline-1-sinusoidal"])
def test_cached_steps_match_full_prefix(kind):
    m = tiny_model(encoder_kind=kind)
    rng = np.random.default_rng(19)
    memory = m.encode([rng.normal(size=(6, 5))])
    L = m.config.max_target_len + 2
    for stage, mem in (("gloss", memory),
                       ("text", m._gloss_memory(memory, [6], [[5, 6, 5]]))):
        vocab = m._stage_vocab_size(stage)
        ids = [BOS] + [int(t) for t in rng.integers(5, vocab, size=L - 1)]
        cache, mems = DecoderCache(), [mem]
        for t in range(L):
            step = m.decoder_forward(mems, ids[t:t + 1], stage, cache).data
            full = m.decoder_forward(mem, ids[:t + 1], stage).data
            assert step.shape == (1, vocab) and cache.start == t + 1
            assert np.max(np.abs(step[0] - full[-1])) <= 1e-12, (stage, t)
        with pytest.raises(DataError):  # the cache counts toward the limit
            m.decoder_forward(mems, [BOS], stage, cache)


@pytest.mark.parametrize("kind", ["glot", "dense_baseline"])
@pytest.mark.parametrize("d_model, n_heads", [(16, 2), (256, 8)],
                         ids=["16-2-1", "256-8-1"])
def test_first_cached_step_bit_equal_to_taped_one_token(kind, d_model,
                                                        n_heads):
    # A stage's first cached step computes the one row of the taped
    # one-token decoder_forward with the same arithmetic, to the bit.
    m = tiny_model(encoder_kind=kind, d_model=d_model, n_heads=n_heads,
                   ff_size=2 * d_model)
    memory = m.encode([np.random.default_rng(29).normal(size=(6, 5))])
    for stage, mem in (("gloss", memory),
                       ("text", m._gloss_memory(memory, [6], [[5, 6]]))):
        step = m.decoder_forward([mem], [BOS], stage, DecoderCache()).data
        full = m.decoder_forward(mem, [BOS], stage).data
        assert step.shape == full.shape == (1, m._stage_vocab_size(stage))
        assert np.array_equal(step, full), stage


def test_cached_step_takes_exactly_one_token():
    m = tiny_model()
    memory = m.encode([np.zeros((3, 5))])
    cache = DecoderCache()
    for ids in ([], [BOS, 5]):
        with pytest.raises(nc.ContractError, match="one token"):
            m.decoder_forward([memory], ids, "gloss", cache)
    assert cache.start == 0 and cache.self_kv is None


STEP_CHECKS = ["gather_rows", "add",                    # embedding + PE
               "matmul", "attention", "matmul", "layer_norm",  # self q|k|v
               "matmul", "attention", "matmul", "layer_norm",  # cross
               "matmul", "relu", "matmul", "layer_norm",   # feed-forward
               "matmul"]                                   # output logits


def spy_on_checks(monkeypatch, checked):
    """Record each finite check's op names in checked, one entry per call:
    ("each", op) for _check_finite, ("all", ops) for _check_finite_all."""
    check, check_all = nc._check_finite, nc._check_finite_all

    def spy(arr, op):
        checked.append(("each", op))
        check(arr, op)

    def spy_all(arrs, ops):
        assert len(arrs) <= len(ops)
        assert all(a.ndim == 2 and a.shape[0] == 1 for a in arrs)
        checked.append(("all", tuple(ops)[:len(arrs)]))
        check_all(arrs, ops)

    monkeypatch.setattr(nc, "_check_finite", spy)
    monkeypatch.setattr(nc, "_check_finite_all", spy_all)


@pytest.mark.parametrize("kind", ["glot", "dense_baseline"])
def test_cached_decoder_step_records_nothing(monkeypatch, kind):
    # A cached step of a one-layer decoder runs the ops' forward kernels
    # on arrays: inside an open tape it appends nothing, it hands every
    # kernel output to one check under the name of the op the taped path
    # runs there, in that order, and only a stage's first step projects
    # the memory's cross k|v, checked alone as one matmul ahead of the
    # rest. No step builds a causal mask: its single row may see every
    # cached key.
    m = tiny_model(encoder_kind=kind)
    checked = []
    cache = DecoderCache()
    with nc.Tape() as tape:
        memory = m.encode([np.random.default_rng(20).normal(size=(6, 5))])
        memories, recorded = [memory], len(tape)
        assert memory.requires_grad and recorded > 0
        spy_on_checks(monkeypatch, checked)
        monkeypatch.setattr(nc, "_hide", None)
        for t, token in enumerate([BOS, 5, 6]):
            checked.clear()
            logits = m.decoder_forward(memories, [token], "gloss", cache)
            expected = [("all", tuple(STEP_CHECKS))]
            if t == 0:
                expected.insert(0, ("each", "matmul"))
            assert checked == expected, t
            assert len(tape) == recorded and not logits.requires_grad
    assert cache.self_kv[0].shape == (2, 4, 3)
    assert cache.cross_kv[0].shape == (2, 4, 6)


@pytest.mark.parametrize("d", [16, 256])
@pytest.mark.parametrize("rows", [1, 40, 750])
def test_stacked_weights_give_bit_equal_column_blocks(d, rows):
    # A cached step projects its row's self q|k|v against [wq|wk|wv], and
    # the memory's cross k|v against [wk|wv], each with one matmul. Its
    # logits equal the taped path's, which projects each separately, only
    # because each column block of the stacked product is bit-equal to the
    # separate product, for one row and for a memory-sized block.
    rng = np.random.default_rng(d * rows)
    for _ in range(5):
        x = rng.normal(size=(rows, d))
        ws = [rng.uniform(-1, 1, size=(d, d)) / np.sqrt(d) for _ in range(3)]
        for stacked in (ws, ws[1:]):
            both = x @ np.concatenate(stacked, axis=1)
            for i, w in enumerate(stacked):
                assert np.array_equal(both[:, i * d:(i + 1) * d], x @ w)


@pytest.mark.parametrize("misuse", ["other-stage", "other-memory"])
def test_decoder_cache_serves_one_stage_over_one_memory(monkeypatch, misuse):
    # A cache's first step binds it to its stage and its list of memories.
    # A step with the other stage, or with another list (of an equal copy
    # too), raises ContractError before it checks or computes anything,
    # and leaves the cache as it was; the cache still serves its own.
    m = tiny_model()
    memory = m.encode([np.random.default_rng(31).normal(size=(6, 5))])
    cache, memories = DecoderCache(), [memory]
    m.decoder_forward(memories, [BOS], "gloss", cache)
    state = (cache.start, cache.self_kv, cache.cross_kv, cache.weights)
    stage, mem = (("text", memories) if misuse == "other-stage"
                  else ("gloss", [Tensor(memory.data.copy())]))
    checked = []
    spy_on_checks(monkeypatch, checked)
    with pytest.raises(nc.ContractError, match="one stage over one memory"):
        m.decoder_forward(mem, [5], stage, cache)
    assert checked == []
    assert (cache.start, cache.self_kv, cache.cross_kv, cache.weights) == state
    m.decoder_forward(memories, [5], "gloss", cache)
    assert cache.start == 2 and checked == [("all", tuple(STEP_CHECKS))]


def test_cached_step_reports_the_op_that_overflows():
    # One huge first-layer FF weight: a row whose input at that entry
    # exceeds 1 overflows the FF matmul, and the step names that op. The
    # FF input is a layer norm output with gain 1, whose entries lie within
    # sqrt(d - 1) < 3 of its bias, so a bias of 4 there puts every row's
    # entry above 1 and the first step overflows.
    m = tiny_model()
    memory = m.encode([np.random.default_rng(23).normal(size=(6, 5))])
    m.params["dec_gloss0.ff.w1"].data[0, 0] = np.finfo(np.float64).max
    m.params["dec_gloss0.cross_norm_b"].data[0] = 4.0
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            nc.NonFiniteError, match="^matmul produced non-finite values$"):
        m.decoder_forward([memory], [BOS], "gloss", DecoderCache())


def test_cached_step_names_an_ff_matmul_that_overflows_to_minus_inf():
    # As above with the weight's sign flipped: the relu maps the -Inf to
    # 0, and the matmul output the step checks is still its own.
    m = tiny_model()
    memory = m.encode([np.random.default_rng(23).normal(size=(6, 5))])
    m.params["dec_gloss0.ff.w1"].data[0, 0] = -np.finfo(np.float64).max
    m.params["dec_gloss0.cross_norm_b"].data[0] = 4.0
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            nc.NonFiniteError, match="^matmul produced non-finite values$"):
        m.decoder_forward([memory], [BOS], "gloss", DecoderCache())


def test_failed_step_leaves_the_cache_as_it_was():
    # The FF overflow above, injected before the third step: that step has
    # appended its key and value when its check fails, or when numpy raises
    # for the overflow itself, and takes them back. Stepped again once the
    # weights are restored, it decodes the third position to the bit of an
    # untroubled cache.
    m = tiny_model()
    memories = [m.encode([np.random.default_rng(23).normal(size=(6, 5))])]
    ids, clean, cache = [BOS, 5, 6], DecoderCache(), DecoderCache()
    want = [m.decoder_forward(memories, [t], "gloss", clean).data
            for t in ids]
    for t in ids[:2]:
        m.decoder_forward(memories, [t], "gloss", cache)
    start, self_kv = cache.start, cache.self_kv
    w1 = m.params["dec_gloss0.ff.w1"].data
    bias = m.params["dec_gloss0.cross_norm_b"].data
    saved = w1[0, 0], bias[0]
    w1[0, 0], bias[0] = np.finfo(np.float64).max, 4.0
    for err, mode in ((nc.NonFiniteError, "ignore"),
                      (FloatingPointError, "raise")):
        with np.errstate(over=mode, invalid=mode), pytest.raises(err):
            m.decoder_forward(memories, [ids[2]], "gloss", cache)
        assert cache.start is start and cache.self_kv is self_kv
    w1[0, 0], bias[0] = saved
    assert np.array_equal(
        m.decoder_forward(memories, [ids[2]], "gloss", cache).data, want[2])
    assert cache.start == 3


def test_step_failing_only_its_last_check_leaves_the_cache_as_it_was():
    # The output logits overflow, and no layer norm follows them: only the
    # step's one check once the logits are out sees it. The FF layer
    # norm's output lies within sqrt(d - 1) < 3 of its bias, so a bias of
    # 4 makes the huge weight's input entry exceed 1.
    m = tiny_model()
    memories = [m.encode([np.random.default_rng(23).normal(size=(6, 5))])]
    cache = DecoderCache()
    m.decoder_forward(memories, [BOS], "gloss", cache)
    start, self_kv = cache.start, cache.self_kv
    m.params["out_gloss.w"].data[0, 0] = np.finfo(np.float64).max
    m.params["dec_gloss0.ff_norm_b"].data[0] = 4.0
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            nc.NonFiniteError, match="^matmul produced non-finite values$"):
        m.decoder_forward(memories, [5], "gloss", cache)
    assert cache.start == start and cache.self_kv is self_kv


def test_cached_step_names_a_nan_embedding_row():
    m = tiny_model()
    memory = m.encode([np.random.default_rng(24).normal(size=(6, 5))])
    m.params["embed_gloss"].data[BOS] = np.nan
    with np.errstate(all="ignore"), pytest.raises(
            nc.NonFiniteError, match="^gather_rows produced non-finite values$"):
        m.decoder_forward([memory], [BOS], "gloss", DecoderCache())


def test_cached_step_names_overflowing_self_attention_scores():
    # q = k = 1e160 h: finite projections whose dot products overflow, so
    # the softmax of the row's one score is NaN
    m = tiny_model()
    memory = m.encode([np.random.default_rng(25).normal(size=(6, 5))])
    d = m.config.d_model
    for name in ("self.wq", "self.wk"):
        m.params[f"dec_gloss0.{name}"].data[:] = 1e160 * np.eye(d)
    with np.errstate(all="ignore"), pytest.raises(
            nc.NonFiniteError, match="^attention produced non-finite values$"):
        m.decoder_forward([memory], [BOS], "gloss", DecoderCache())


def test_cached_step_names_the_projection_before_a_failing_norm(monkeypatch):
    # The self output projection overflows, so the self_norm variance that
    # follows is non-finite too and that norm raises first; the step still
    # names the earlier op whose output was non-finite.
    m = tiny_model()
    memory = m.encode([np.random.default_rng(26).normal(size=(6, 5))])
    m.params["dec_gloss0.self.wo"].data[:] = np.finfo(np.float64).max
    norm, raised = nc._norm_rows, []

    def spy(xs, gain, bias):
        try:
            return norm(xs, gain, bias)
        except nc.NonFiniteError as err:
            raised.append(str(err))
            raise

    monkeypatch.setattr(nc, "_norm_rows", spy)
    with np.errstate(all="ignore"), pytest.raises(
            nc.NonFiniteError, match="^matmul produced non-finite values$"):
        m.decoder_forward([memory], [BOS], "gloss", DecoderCache())
    assert raised == ["layer_norm produced non-finite values"]


def test_cached_steps_are_pinned_to_the_bit():
    # One sha256 over the greedy ids and every cached step's logits bytes,
    # stepping each stage to the length limit on the argmax token: both
    # encoder kinds, three seeds, memories of 1, 7 and 40 frames. Any change
    # to the step's arithmetic or to its order shows here.
    digest = hashlib.sha256()
    for kind in ("glot", "dense_baseline"):
        for seed in (0, 1, 2):
            m = GlotModel(GlotConfig.tiny(max_frames=40, encoder_kind=kind),
                          seed=seed)
            m.eval()
            limit = m.config.max_target_len + 2
            for n in (1, 7, 40):
                frames = np.random.default_rng([seed, n]).normal(size=(n, 5))
                got = m.greedy_decode(frames, max_len=limit)
                digest.update(json.dumps([got.gloss_ids,
                                          got.text_ids]).encode())
                memory = m.encode([frames])
                text_memory = m._gloss_memory(memory, [n], [got.gloss_ids])
                for stage, mem in (("gloss", memory), ("text", text_memory)):
                    cache, token, mems = DecoderCache(), BOS, [mem]
                    for _ in range(limit):
                        logits = m.decoder_forward(mems, [token], stage,
                                                   cache).data
                        digest.update(logits.tobytes())
                        token = int(logits[0].argmax())
    assert digest.hexdigest() == ("62cb21c016ae265b743356c39f05d68a"
                                  "654ba72a3df99768b1d21b261a213e6f")


def test_decode_rejects_an_overflowing_layer_norm_variance():
    # A huge but finite FF bias: the FF output and its residual sum are
    # finite, but the squared deviations of the FF layer norm overflow.
    m = tiny_model()
    m.params["dec_gloss0.ff.b2"].data[0] = 1e200
    frames = np.random.default_rng(30).normal(size=(6, 5))
    with np.errstate(over="ignore"), pytest.raises(
            nc.NonFiniteError, match="^layer_norm produced non-finite values$"):
        m.greedy_decode(frames)


def test_cached_step_rejects_training_mode():
    # a cached step applies no dropout, so it does not run in training mode
    m = tiny_model(dropout=0.1)
    memory = m.encode([np.zeros((3, 5))])
    m.train()
    with pytest.raises(nc.ContractError, match="eval mode"):
        m.decoder_forward([memory], [BOS], "gloss", DecoderCache())
    m.eval()
    assert m.decoder_forward([memory], [BOS], "gloss",
                             DecoderCache()).shape == (1, 7)


def test_positional_table_grows_to_the_longest_position_only():
    # A header's max_frames does not size the sinusoidal table: it grows
    # to the longest position encoded or decoded so far.
    frames = np.random.default_rng(22).normal(size=(6, 5))
    huge = tiny_model(max_frames=2_000_000, n_lssa_layers=3)
    got = huge.greedy_decode(frames, max_len=4)
    assert len(huge._pe_table) == 6
    assert got == tiny_model(max_frames=8, n_lssa_layers=3).greedy_decode(
        frames, max_len=4)


def full_prefix_greedy(model, frames, max_len):
    """Greedy decoding that re-runs the decoder over the whole prefix."""
    model.eval()
    memory = model.encode([frames])

    def stage(mem, name):
        ids = [BOS]
        for _ in range(max_len):
            nxt = int(np.argmax(model.decoder_forward(mem, ids, name).data[-1]))
            if nxt == EOS:
                return ids[1:], False
            ids.append(nxt)
        return ids[1:], True

    gloss, gloss_trunc = stage(memory, "gloss")
    text, text_trunc = stage(model._gloss_memory(memory, [len(frames)], [gloss]), "text")
    return GreedyResult(gloss, text, gloss_trunc, text_trunc)


@pytest.mark.parametrize("seed, n, noise", [(7, 16, 0.0), (11, 80, 0.05)])
def test_greedy_decode_matches_full_prefix_oracle(tmp_path, seed, n, noise):
    # the acceptance corpora, on models trained a few epochs so that the
    # decodes stop at EOS as well as at the length limit
    samples = dataio.synth_generate(seed, n, 5, 8, noise,
                                    tmp_path).load_samples()[:16]
    gv = dataio.build_vocab([s.gloss for s in samples])
    tv = dataio.build_vocab([s.text for s in samples])
    enc = training.encode_samples(samples, gv, tv)
    max_t = max(max(len(s.gloss), len(s.text)) for s in samples) + 2
    tcfg = training.TrainConfig.set2(epochs=4, batch_size=4, seed=0)
    stops = 0
    for kind in ("glot", "dense_baseline"):
        cfg = GlotConfig.tiny(d_model=16, ff_size=32, n_heads=2,
                              max_frames=max(s.features.shape[0] for s in samples),
                              max_target_len=max_t, gloss_vocab_size=len(gv),
                              text_vocab_size=len(tv), feat_dim=8,
                              encoder_kind=kind)
        model = GlotModel(cfg, gloss_vocab=gv, text_vocab=tv, seed=0)
        training.train(model, enc, enc[:2], tcfg)
        for s in enc:
            got = model.greedy_decode(s.features)
            assert got == full_prefix_greedy(model, s.features, max_t), s.id
            stops += (not got.gloss_truncated) + (not got.text_truncated)
    assert stops > 0


def batch_model(kind, seed):
    return GlotModel(GlotConfig.tiny(max_frames=40, encoder_kind=kind,
                                     d_model=16, ff_size=32), seed=seed)


def lone_steps(ids, truncated):
    """The tokens a lone greedy stage fed its cached steps."""
    return [BOS, *ids][:len(ids) + (not truncated)]


def lockstep_logit_error(m, memories, fed, stage):
    """Step one cache over the memories in lockstep, feeding each
    sequence its lone decode's tokens and dropping it once they run out;
    the largest difference of a batched step's logits row from the same
    step of a lone cache over that sequence's memory alone."""
    cache = DecoderCache()
    lone = [(DecoderCache(), [mem]) for mem in memories]
    live, worst = list(range(len(memories))), 0.0
    for t in range(max(map(len, fed))):
        got = m.decoder_forward(memories, [fed[i][t] for i in live], stage,
                                cache).data
        assert got.shape[0] == len(live) == cache.size
        for row, i in zip(got, live):
            lone_cache, lone_memories = lone[i]
            want = m.decoder_forward(lone_memories, [fed[i][t]], stage,
                                     lone_cache).data[0]
            worst = max(worst, float(np.max(np.abs(row - want))))
        going = [t + 1 < len(fed[i]) for i in live]
        live = [i for i, go in zip(live, going) if go]
        if not live:
            break
        if not all(going):
            cache.keep_only(going)
            H = m.config.n_heads
            assert len(cache.self_kv[0]) == len(cache.cross_kv[1]) == \
                H * len(live)
    return worst


@pytest.mark.parametrize("kind", ["glot", "dense_baseline"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_greedy_decode_batch_matches_lone_decodes(kind, seed):
    # Clips of 1, 7 and 40 frames, and 33 clips: more than one group.
    # The ids and truncation flags are those of greedy_decode per clip,
    # and each lockstep step's logits lie within 1e-12 of the lone step's.
    m = batch_model(kind, seed)
    rng = np.random.default_rng(seed + 100)
    three = [np.random.default_rng([seed, n]).normal(size=(n, 5))
             for n in (1, 7, 40)]
    many = [rng.normal(size=(int(n), 5)) for n in rng.integers(1, 41, 33)]
    limit = m.config.max_target_len + 2
    for clips in (three, many):
        lone = [m.greedy_decode(f, max_len=limit) for f in clips]
        assert m.greedy_decode_batch(clips, max_len=limit) == lone
        memories = [m.encode([f]) for f in clips]
        text_memories = [m._gloss_memory(mem, [len(f)], [r.gloss_ids])
                         for mem, f, r in zip(memories, clips, lone)]
        gloss_fed = [lone_steps(r.gloss_ids, r.gloss_truncated) for r in lone]
        text_fed = [lone_steps(r.text_ids, r.text_truncated) for r in lone]
        for mems, fed, stage in ((memories, gloss_fed, "gloss"),
                                 (text_memories, text_fed, "text")):
            assert lockstep_logit_error(m, mems, fed, stage) <= 1e-12


def test_a_sequence_that_ends_leaves_the_batch(monkeypatch):
    # These 33 clips' gloss stages end at four different steps: each step
    # decodes exactly the sequences whose lone decode is still running,
    # group by group (32 clips, then 1), so a sequence that emits EOS
    # leaves and the others run on to their own ends.
    m = batch_model("glot", 2)
    rng = np.random.default_rng(102)
    clips = [rng.normal(size=(int(n), 5)) for n in rng.integers(1, 41, 33)]
    lone = [m.greedy_decode(f, max_len=14) for f in clips]
    steps = {stage: [len(lone_steps(getattr(r, f"{stage}_ids"),
                                    getattr(r, f"{stage}_truncated")))
                     for r in lone] for stage in ("gloss", "text")}
    assert len(set(steps["gloss"])) == 4
    expected = [(stage, sum(n > t for n in steps[stage][lo:lo + 32]))
                for lo in (0, 32) for stage in ("gloss", "text")
                for t in range(max(steps[stage][lo:lo + 32]))]
    calls, forward = [], m.decoder_forward

    def spy(memory, token_ids, stage, cache=None, blocks=None):
        calls.append((stage, len(token_ids)))
        return forward(memory, token_ids, stage, cache, blocks)

    monkeypatch.setattr(m, "decoder_forward", spy)
    assert m.greedy_decode_batch(clips, max_len=14) == lone
    assert calls == expected


def test_batch_overflow_in_one_sequence_names_the_lone_decodes_op():
    # A huge embedding row for gloss id 5, which only the 1-frame clip
    # (last in the batch) feeds back: decoding that clip alone overflows,
    # the other clips decode alone as before, and the lockstep batch
    # raises the same error as the lone decodes in order do.
    m = batch_model("dense_baseline", 2)
    clips = [np.random.default_rng([2, n]).normal(size=(n, 5))
             for n in (40, 7, 1)]
    clean = [m.greedy_decode(f, max_len=14) for f in clips]
    assert [5 in r.gloss_ids[:-1] for r in clean] == [False, False, True]
    m.params["embed_gloss"].data[5] = 1e200
    assert [m.greedy_decode(f, max_len=14) for f in clips[:2]] == clean[:2]
    with np.errstate(all="ignore"), pytest.raises(nc.NonFiniteError) as lone:
        m.greedy_decode(clips[2], max_len=14)
    with np.errstate(all="ignore"), pytest.raises(nc.NonFiniteError) as batch:
        m.greedy_decode_batch(clips, max_len=14)
    assert str(batch.value) == str(lone.value)
    assert str(lone.value).endswith("produced non-finite values")


@pytest.mark.parametrize("max_len", [-1, 15, 2.0, True, None])
def test_greedy_decode_batch_checks_max_len_before_any_encode(monkeypatch,
                                                              max_len):
    m = tiny_model()
    clips = [np.zeros((2, 5)), np.zeros((3, 5))]
    if max_len is None:     # the default is valid; nothing is decoded
        assert m.greedy_decode_batch([], max_len) == []
        return
    monkeypatch.setattr(m, "encode", None)
    with pytest.raises(nc.ContractError,
                       match=r"max_len must be an int in \[0, 14\]"):
        m.greedy_decode_batch(clips, max_len=max_len)
