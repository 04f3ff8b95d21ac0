import numpy as np
import pytest

from glot import dataio, numcore as nc, sparse_attention as sa, training
from glot.dataio import BOS, EOS, DataError
from glot.model import (DecoderCache, GlotConfig, GlotModel, GreedyResult,
                        load_checkpoint, positional_encoding, save_checkpoint)
from glot.numcore import ConfigError, Tensor


def tiny_model(**overrides):
    defaults = dict(max_frames=8, feat_dim=5)
    defaults.update(overrides)
    return GlotModel(GlotConfig.tiny(**defaults), seed=0)


def test_config_presets():
    s1 = GlotConfig.set1()
    assert (s1.d_model, s1.n_heads, s1.n_encoders, s1.n_decoders,
            s1.ff_size, s1.dropout) == (512, 8, 1, 1, 2048, 0.1)
    s2 = GlotConfig.set2()
    assert (s2.d_model, s2.n_heads, s2.n_encoders, s2.n_decoders,
            s2.ff_size, s2.dropout) == (256, 8, 1, 1, 256, 0.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        GlotConfig(d_model=7).validate()
    with pytest.raises(ConfigError):
        GlotConfig(d_model=8, n_heads=3).validate()
    with pytest.raises(ConfigError):
        GlotConfig(conv_kernel=4).validate()


def test_positional_encoding_values():
    pe = positional_encoding(4, 6)
    assert np.allclose(pe[0], [0, 1, 0, 1, 0, 1])
    assert pe[1][0] == pytest.approx(np.sin(1.0), abs=1e-12)
    assert np.array_equal(pe, positional_encoding(4, 6))
    with pytest.raises(ConfigError):
        positional_encoding(4, 5)


def test_embed_frames_zero_input_gives_pe():
    m = tiny_model()
    out = m.embed_frames(np.zeros((4, 5)))
    assert np.allclose(out.data, positional_encoding(4, 8), atol=1e-15)


def test_embed_frames_shape():
    m = tiny_model(feat_dim=12)
    out = m.embed_frames(np.random.default_rng(0).normal(size=(5, 12)))
    assert out.shape == (5, 8)


def test_embed_frames_width_mismatch():
    m = tiny_model()
    with pytest.raises(nc.ShapeError):
        m.embed_frames(np.zeros((4, 9)))


def test_embed_frames_gradient():
    m = tiny_model()
    frames = np.random.default_rng(1).normal(size=(4, 5))
    w = Tensor(np.random.default_rng(2).normal(size=(4, 8)))
    orig = m.params["frame_embed"]

    def f(fe):
        m.params["frame_embed"] = fe
        out = m.embed_frames(frames)
        return nc.tsum(nc.mul(out, w))

    try:
        rep = nc.grad_check(f, Tensor(orig.data.copy()))
    finally:
        m.params["frame_embed"] = orig
    assert rep.passed


def test_gate_value_examples():
    m = tiny_model()
    lssa_out = Tensor(np.random.default_rng(3).normal(size=(5, 4)))
    m.params["enc0.gate_w"].data[:] = 0.0
    m.params["enc0.gate_b"].data = np.asarray(0.0)
    g = m.gate_value(lssa_out, "enc0.")
    assert np.allclose(g.data, 0.5)
    m.params["enc0.gate_b"].data = np.asarray(50.0)
    g = m.gate_value(lssa_out, "enc0.")
    assert np.all(g.data > 1 - 1e-9)
    # sigmoid(ln 3) = 0.75 through the first coordinate
    m.params["enc0.gate_b"].data = np.asarray(0.0)
    m.params["enc0.gate_w"].data[:] = 0.0
    m.params["enc0.gate_w"].data[0, 0] = 1.0
    row = np.zeros((1, 4))
    row[0, 0] = np.log(3.0)
    g = m.gate_value(Tensor(row), "enc0.")
    assert g.data[0, 0] == pytest.approx(0.75, abs=1e-12)


def test_gating_combine_limits_and_midpoint():
    m = tiny_model()
    rng = np.random.default_rng(4)
    lssa_out = Tensor(rng.normal(size=(3, 4)))
    gap = Tensor(rng.normal(size=4))
    ones = Tensor(np.ones((3, 1)))
    zeros = Tensor(np.zeros((3, 1)))
    assert np.array_equal(m.gating_combine(ones, lssa_out, gap).data,
                          lssa_out.data)
    out0 = m.gating_combine(zeros, lssa_out, gap).data
    assert np.array_equal(out0, np.tile(gap.data, (3, 1)))
    half = m.gating_combine(Tensor(np.full((3, 1), 0.5)),
                            Tensor(np.array([[2.0, 4.0]] * 3)),
                            Tensor(np.array([0.0, 2.0])))
    assert np.allclose(half.data, [[1.0, 3.0]] * 3)


def test_gating_convex_containment():
    m = tiny_model()
    rng = np.random.default_rng(5)
    for _ in range(50):
        lssa_out = rng.normal(size=(4, 4))
        gap = rng.normal(size=4)
        g = rng.uniform(0.01, 0.99, size=(4, 1))
        out = m.gating_combine(Tensor(g), Tensor(lssa_out), Tensor(gap)).data
        lo = np.minimum(lssa_out, gap)
        hi = np.maximum(lssa_out, gap)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def test_encoder_forward_shape_preserving():
    m = tiny_model()
    rng = np.random.default_rng(6)
    for F in (1, 2, 5, 8):
        out = m.encode(rng.normal(size=(F, 5)))
        assert out.shape == (F, 8)


def test_dense_encoder_shape_preserving():
    m = tiny_model(encoder_kind="dense_baseline")
    rng = np.random.default_rng(7)
    for F in (1, 3, 8):
        out = m.encode(rng.normal(size=(F, 5)))
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
    out = m.encoder_block_glot(Tensor(x), 0, sa.build_mask(F)).data

    x1, x2 = x[:, :d_b], x[:, d_b:]
    fused = np.zeros_like(x2)
    for p in range(1, F + 1):
        members = np.array(sa.log_index_set(p).members) - 1
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
    out = m._mha("enc0.attn.", Tensor(x), Tensor(x), sa.full_mask(5)).data
    assert np.allclose(out, np.tile(x.mean(axis=0), (5, 1)), atol=1e-12)


def test_attention_rows_sum_to_one():
    m = tiny_model(encoder_kind="dense_baseline")
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=(6, 8)))
    q = nc.matmul(x, m.params["enc0.attn.wq"])
    k = nc.matmul(x, m.params["enc0.attn.wk"])
    eye = Tensor(np.eye(6))  # k = v = I: the attention output is alpha
    alpha = nc.attention(Tensor(q.data @ k.data.T), eye, eye, sa.full_mask(6))
    assert np.allclose(alpha.data.sum(axis=1), 1.0, atol=1e-9)


def test_decoder_shapes():
    m = tiny_model()
    mem = m.encode(np.random.default_rng(11).normal(size=(4, 5)))
    logits = m.decoder_forward(mem, [BOS, 5, 6], "gloss")
    assert logits.shape == (3, 7)
    logits = m.decoder_forward(mem, [BOS, 5, 6, 7], "text")
    assert logits.shape == (4, 11)


def test_decoder_rejects_bad_token():
    m = tiny_model()
    mem = m.encode(np.zeros((2, 5)))
    with pytest.raises(DataError):
        m.decoder_forward(mem, [BOS, 99], "gloss")


def test_decoder_causality():
    m = tiny_model()
    rng = np.random.default_rng(12)
    mem = m.encode(rng.normal(size=(4, 5)))
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
    for name in ("dec_gloss0.self.wq", "dec_text0.cross.wv", "embed_gloss",
                 "out_text.w"):
        orig = m.params[name]

        def f(p):
            m.params[name] = p
            return training.sample_loss(m, frames, [5, 6], [5, 7, 9])

        try:
            rep = nc.grad_check(f, Tensor(orig.data.copy()), tol=1e-3)
        finally:
            m.params[name] = orig
        assert rep.passed, name


def test_encoder_gradients_above_gather_crossover():
    # at this length the LSSA layers run the gathered log-sparse op
    F = sa.GATHER_MIN_LENGTH + 5
    m = tiny_model(max_frames=F, n_lssa_layers=2)
    rng = np.random.default_rng(14)
    x0 = rng.normal(size=(F, 8))
    w = Tensor(rng.normal(size=(F, 8)))
    mask = sa.build_mask(F)

    def block(x):
        return nc.tsum(nc.mul(m.encoder_block_glot(x, 0, mask), w))

    assert nc.grad_check(block, Tensor(x0), tol=1e-4).passed
    for name in ("enc0.lssa0.wq", "enc0.lssa0.wk", "enc0.lssa1.wq",
                 "enc0.lssa1.wk"):
        orig = m.params[name]

        def f(p):
            m.params[name] = p
            return block(Tensor(x0))

        try:
            rep = nc.grad_check(f, Tensor(orig.data.copy()), tol=1e-4)
        finally:
            m.params[name] = orig
        assert rep.passed, (name, rep.max_rel_err)


def test_s2g2t_shapes_and_finite_loss():
    m = tiny_model()
    rng = np.random.default_rng(14)
    frames = rng.normal(size=(5, 5))
    gl, tl = m.s2g2t_forward(frames, [5, 6, 5], [5, 7, 9, 6])
    assert gl.shape == (4, 7) and tl.shape == (5, 11)
    loss = training.sample_loss(m, frames, [5, 6, 5], [5, 7, 9, 6]).item()
    assert np.isfinite(loss)
    assert loss < np.log(7) + np.log(11) + 2.0


def test_s2g2t_requires_sequences():
    m = tiny_model()
    with pytest.raises(nc.ContractError):
        m.s2g2t_forward(np.zeros((2, 5)), None, [5])


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
            loss = nc.scale(nc.add(
                training.sample_loss(m, *data[0]),
                training.sample_loss(m, *data[1])), 0.5)
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


def test_encoder_kinds_share_pipeline():
    rng = np.random.default_rng(17)
    frames = rng.normal(size=(5, 5))
    for kind in ("glot", "dense_baseline"):
        m = tiny_model(encoder_kind=kind)
        loss = training.sample_loss(m, frames, [5, 6], [5, 7]).item()
        assert np.isfinite(loss)
        res = m.greedy_decode(frames, max_len=4)
        assert len(res.text_ids) <= 4


def test_instrumented_pair_counts():
    rng = np.random.default_rng(18)
    frames = rng.normal(size=(6, 5))
    counter = sa.PairCounter()
    m = tiny_model(n_lssa_layers=1)
    m.encode(frames, counter=counter)
    assert counter.total("logsparse") == sa.count_attention_pairs(6, "logsparse")
    counter = sa.PairCounter()
    m = tiny_model(encoder_kind="dense_baseline")
    m.encode(frames, counter=counter)
    assert counter.total("dense") == 36


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    m = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    m2 = load_checkpoint(path)
    assert list(m.params) == list(m2.params)
    for name in m.params:
        assert np.array_equal(m.params[name].data, m2.params[name].data), name
    assert m2.config == m.config


def test_checkpoint_rejects_corruption(tmp_path):
    from glot.model import CheckpointError
    m = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    blob = bytearray(path.read_bytes())
    blob[0] = 0
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_learned_positional_encoding_option():
    m = tiny_model(pe_kind="learned")
    out = m.embed_frames(np.zeros((3, 5)))
    assert np.array_equal(out.data, m.params["pe_encoder"].data[:3])


def test_positional_table_slices_are_bit_identical():
    for width in (8, 16, 256):
        table = positional_encoding(736, width)
        for L in range(1, 737):
            assert np.array_equal(table[:L], positional_encoding(L, width)), \
                (width, L)


@pytest.mark.parametrize("kind, n_decoders, pe_kind", [
    ("glot", 1, "sinusoidal"), ("dense_baseline", 1, "sinusoidal"),
    ("glot", 2, "sinusoidal"), ("dense_baseline", 2, "learned"),
    ("glot", 1, "learned")])
def test_cached_steps_match_full_prefix(kind, n_decoders, pe_kind):
    m = tiny_model(encoder_kind=kind, n_decoders=n_decoders, pe_kind=pe_kind)
    rng = np.random.default_rng(19)
    memory = m.encode(rng.normal(size=(6, 5)))
    L = m.config.max_target_len + 2
    for stage, mem in (("gloss", memory),
                       ("text", m._gloss_memory(memory, [5, 6, 5]))):
        vocab = m._stage_vocab_size(stage)
        ids = [BOS] + [int(t) for t in rng.integers(5, vocab, size=L - 1)]
        cache = DecoderCache()
        for t in range(L):
            step = m.decoder_forward(mem, ids[t:t + 1], stage, cache).data
            full = m.decoder_forward(mem, ids[:t + 1], stage).data
            assert step.shape == (1, vocab) and cache.start == t + 1
            assert np.max(np.abs(step[0] - full[-1])) <= 1e-12, (stage, t)
        with pytest.raises(DataError):  # the cache counts toward the limit
            m.decoder_forward(mem, [BOS], stage, cache)


STEP_OPS = ["gather_rows", "add",                       # embedding + PE
            "matmul", "matmul",                         # self K, V rows
            "matmul", "attention", "matmul", "layer_norm",
            "matmul", "attention", "matmul", "layer_norm",  # cross
            "matmul", "relu", "matmul", "layer_norm",   # feed-forward
            "matmul"]                                   # output logits


@pytest.mark.parametrize("kind", ["glot", "dense_baseline"])
def test_cached_decoder_step_ops(monkeypatch, kind):
    # One cached step of a one-layer decoder records 17 ops; the first
    # step of a stage also projects the memory's cross K and V. No step
    # builds a causal mask: its single row may see every cached key.
    m = tiny_model(encoder_kind=kind)
    memory = m.encode(np.random.default_rng(20).normal(size=(6, 5)))
    ops = []
    record = nc._record

    def spy(data, op, *rest):
        ops.append(op)
        return record(data, op, *rest)

    monkeypatch.setattr(nc, "_record", spy)
    monkeypatch.setattr(sa, "causal_mask", None)
    cache = DecoderCache()
    for t, token in enumerate([BOS, 5, 6]):
        ops.clear()
        m.decoder_forward(memory, [token], "gloss", cache)
        expected = list(STEP_OPS)
        if t == 0:
            expected[4:4] = ["matmul", "matmul"]
        assert ops == expected, t


def full_prefix_greedy(model, frames, max_len):
    """Greedy decoding that re-runs the decoder over the whole prefix."""
    model.eval()
    memory = model.encode(frames)

    def stage(mem, name):
        ids = [BOS]
        for _ in range(max_len):
            nxt = int(np.argmax(model.decoder_forward(mem, ids, name).data[-1]))
            if nxt == EOS:
                return ids[1:], False
            ids.append(nxt)
        return ids[1:], True

    gloss, gloss_trunc = stage(memory, "gloss")
    text, text_trunc = stage(model._gloss_memory(memory, gloss), "text")
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
