import inspect
import math
import sys
import threading
import tracemalloc
import zlib

import numpy as np
import pytest

from glot import numcore as nc
from glot import sparse_attention as sa
from glot.numcore import Tape, Tensor


def test_matmul_identity():
    m = np.arange(9.0).reshape(3, 3)
    out = nc.matmul(Tensor(np.eye(3)), Tensor(m))
    assert np.array_equal(out.data, m)


def test_matmul_scalar_case():
    out = nc.matmul(Tensor([[2.0]]), Tensor([[3.0]]))
    assert out.data[0, 0] == 6.0


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    expected = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                expected[i, j] += a[i, k] * b[k, j]
    out = nc.matmul(Tensor(a), Tensor(b))
    assert np.max(np.abs(out.data - expected)) < 1e-12


def test_matmul_shape_error():
    with pytest.raises(nc.ShapeError):
        nc.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def attention_alpha(x, mask):
    """Attention weights of score matrix x under mask (true on the keys a
    row sees), from the one-head kernel, which takes the mask's
    complement: with k = v = I the output is alpha, and scaling q by
    sqrt(d) undoes the kernel's 1/sqrt(d)."""
    x = np.asarray(x, dtype=np.float64)
    eye = np.eye(x.shape[1])[None]
    return nc._attend_heads((x * np.sqrt(x.shape[1]))[None], eye, eye,
                            ~mask)[0][0]


def test_masked_softmax_uniform_row():
    out = attention_alpha([[0.0, 0.0, 0.0]], np.ones((1, 3), bool))
    assert np.allclose(out, 1 / 3, atol=1e-12)


def test_masked_softmax_single_survivor():
    out = attention_alpha([[5.0, 9.0, 2.0]], np.array([[False, True, False]]))
    assert np.array_equal(out, [[0.0, 1.0, 0.0]])


def test_masked_softmax_max_shift_avoids_overflow():
    out = attention_alpha([[1000.0, 1000.0 + np.log(3.0), -1000.0]],
                          np.array([[True, True, False]]))
    assert np.allclose(out, [[0.25, 0.75, 0.0]], atol=1e-12)


def test_masked_softmax_closed_form():
    out = attention_alpha([[0.0, np.log(2.0)]], np.ones((1, 2), bool))
    assert np.allclose(out, [[1 / 3, 2 / 3]], atol=1e-12)


def test_masked_softmax_rows_sum_to_one_and_zero_off_mask():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(size=(5, 5)) * 10
        mask = rng.random((5, 5)) < 0.5
        mask[:, 0] = True
        out = attention_alpha(x, mask)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out[~mask] == 0.0)


def masked_attention(q, k, v, mask, n_heads=1):
    """Attention of q, k and v under any mask (true on the keys a row
    sees; None sees every key), taped from numcore's private kernels.
    After two matmul projections it completes the chain that
    offset_attention's dense kernel must equal to the bit."""
    hide = None if mask is None else ~mask
    out, saved = nc._attend(q.data, k.data, v.data, hide, n_heads)
    return nc._record(out, "attention", (q, k, v),
                      lambda g: nc._attend_grads(saved, g))


def block_attention(q, k, v, causal, n_heads, blocks):
    """Attention of q, k and v, taped from numcore's private kernels, as
    attention ran it before it took the block's inputs and weights: rows
    split into blocks, each attended alone, causal blocks under a lower
    triangle."""
    def hide(n):
        return ~attention_mask("causal", n, n) if causal else None

    q_cut = np.cumsum([lq for lq, _ in blocks[:-1]])
    k_cut = np.cumsum([lk for _, lk in blocks[:-1]])
    parts = [nc._attend(qb, kb, vb, hide(len(qb)), n_heads)
             for qb, kb, vb in zip(np.split(q.data, q_cut),
                                   np.split(k.data, k_cut),
                                   np.split(v.data, k_cut))]

    def bw(g):
        grads = [nc._attend_grads(saved, gb) for (_, saved), gb in
                 zip(parts, np.split(g, q_cut))]
        return tuple(np.concatenate(gs) for gs in zip(*grads))

    return nc._record(np.concatenate([out for out, _ in parts]),
                      "attention", (q, k, v), bw)


def attention_chain(xq, xkv, w_q, w_k, w_v, w_o, causal=False, n_heads=1,
                    blocks=None):
    """The five ops an attention block took before attention became one:
    three matmul projections, block_attention over them and the output
    matmul, five tape entries."""
    blocks = blocks or [(xq.shape[0], xkv.shape[0])]
    q, k, v = nc.matmul(xq, w_q), nc.matmul(xkv, w_k), nc.matmul(xkv, w_v)
    return nc.matmul(block_attention(q, k, v, causal, n_heads, blocks), w_o)


def attention_mask(kind, lq, lk):
    """The pattern of a kind of attention: log-sparse, causal, or
    rectangular (cross-attention), which sees every key."""
    if kind == "logsparse":
        return nc.build_mask(lq)
    if kind == "causal":
        return np.tril(np.ones((lq, lk), dtype=bool))
    return np.ones((lq, lk), dtype=bool)


def attention_of_kind(kind, q, k, v, n_heads):
    """Attention of q, k and v under the pattern of a kind, taped from
    the kernels that attention and offset_attention's dense kernel run."""
    return masked_attention(q, k, v,
                            attention_mask(kind, q.shape[0], k.shape[0]),
                            n_heads)


def per_head_reference(q, k, v, mask, n_heads):
    """Forward and input gradients of masked multi-head attention, one
    head at a time in plain numpy, for an upstream gradient of ones."""
    L, d = q.shape
    dh = d // n_heads
    c = 1.0 / np.sqrt(dh)
    outs, dq, dk, dv = [], np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    g = np.ones((L, d))
    for h in range(n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        qh, kh, vh = q[:, cols].copy(), k[:, cols].copy(), v[:, cols].copy()
        kt = kh.T.copy()
        s = np.where(mask, (qh @ kt) * c, -np.inf)
        ex = np.where(mask, np.exp(s - s.max(axis=1, keepdims=True)), 0.0)
        alpha = ex / ex.sum(axis=1, keepdims=True)
        outs.append(alpha @ vh)
        gh = g[:, cols]
        dv[:, cols] = alpha.T @ gh
        ga = gh @ vh.T
        ds = alpha * (ga - (ga * alpha).sum(axis=1, keepdims=True)) * c
        dq[:, cols] = ds @ kt.T
        dk[:, cols] = (qh.T @ ds).T
    return np.concatenate(outs, axis=1), dq, dk, dv


@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("kind", ["logsparse", "causal", "rectangular"])
def test_attention_bit_equal_to_per_head_reference(n_heads, kind):
    rng = np.random.default_rng(21 + n_heads)
    lq, lk, d = (6, 9, 8) if kind == "rectangular" else (9, 9, 8)
    mask = attention_mask(kind, lq, lk)
    q, k, v = (Tensor(rng.normal(size=shape), requires_grad=True)
               for shape in ((lq, d), (lk, d), (lk, d)))
    with Tape() as tape:
        out = attention_of_kind(kind, q, k, v, n_heads)
        loss = nc.tsum(out)
    tape.backward(loss)
    ref_out, ref_dq, ref_dk, ref_dv = per_head_reference(
        q.data, k.data, v.data, mask, n_heads)
    assert np.array_equal(out.data, ref_out)
    for t, ref in ((q, ref_dq), (k, ref_dk), (v, ref_dv)):
        assert np.array_equal(t.grad, ref)
        assert t.grad.flags.c_contiguous


def test_attention_contract_errors():
    x, w = Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 4)))
    for bad in range(4):  # each weight in turn has a width the others lack
        ws = [w] * 4
        ws[bad] = Tensor(np.zeros((4, 2)) if bad < 3 else np.zeros((2, 4)))
        with pytest.raises(nc.ShapeError):
            nc.attention(x, x, *ws)
    with pytest.raises(nc.ShapeError):  # xkv's width is not w_k's rows
        nc.attention(x, Tensor(np.zeros((3, 2))), w, w, w, w)
    with pytest.raises(nc.ShapeError):
        nc.attention(Tensor(np.zeros(4)), x, w, w, w, w)
    with pytest.raises(nc.ConfigError):
        nc.attention(x, x, w, w, w, w, n_heads=3)


def test_causal_attention_needs_square_scores():
    # Lq != Lk, or one block with lq != lk, raises before any op records
    rng = np.random.default_rng(22)
    q, k, w = (Tensor(rng.normal(size=(n, 4)), requires_grad=True)
               for n in (5, 6, 4))
    for q_, k_, blocks in ((q, k, None), (k, q, None),
                           (q, k, [(2, 2), (3, 4)]),
                           (q, q, [(2, 3), (3, 2)])):
        with Tape() as tape:
            with pytest.raises(nc.ShapeError, match="causal"):
                nc.attention(q_, k_, w, w, w, w, causal=True, blocks=blocks)
        assert len(tape) == 0


def masked_dense_chain(x, w_q, w_k):
    """Two matmul projections and attention over them under build_mask:
    the three ops offset_attention replaced, three tape entries."""
    return masked_attention(nc.matmul(x, w_q), nc.matmul(x, w_k), x,
                            nc.build_mask(x.shape[0]))


@pytest.mark.parametrize("L", [1, 2, 3, 5, 17, 64, 129, 300, 736])
def test_offset_attention_matches_masked_dense(L):
    rng = np.random.default_rng(L)
    d = 8
    x0, w = rng.normal(size=(L, d)), rng.normal(size=(L, d))
    wq0, wk0 = rng.normal(size=(d, d)), rng.normal(size=(d, d))
    results = []
    for op in (masked_dense_chain, nc.offset_attention):
        x, wq, wk = (Tensor(a, requires_grad=True) for a in (x0, wq0, wk0))
        with Tape() as tape:
            out = op(x, wq, wk)
            loss = nc.tsum(nc.mul(out, Tensor(w)))
        tape.backward(loss)
        results.append((out.data, x.grad, wq.grad, wk.grad))
    for got, ref in zip(*reversed(results)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert got.flags.c_contiguous


@pytest.mark.parametrize("L", [5, 31, 127])
def test_offset_attention_dense_kernel_bit_equal_to_three_op_chain(L):
    # Below OFFSET_MIN_LENGTH the one op runs the chain's arithmetic, and
    # its three gradients of x reach the tape in the chain's order, also
    # when x feeds a matmul recorded after the op, whose gradient of x
    # the tape takes first.
    assert L < nc.OFFSET_MIN_LENGTH
    rng = np.random.default_rng(L)
    d = 4
    x0, w = rng.normal(size=(L, d)), Tensor(rng.normal(size=(L, d)))
    wq0, wk0, wv = (rng.normal(size=(d, d)) for _ in range(3))
    for reuse in (False, True):
        results = []
        for op in (masked_dense_chain, nc.offset_attention):
            x, wq, wk = (Tensor(a, requires_grad=True)
                         for a in (x0, wq0, wk0))
            with Tape() as tape:
                out = op(x, wq, wk)
                entries = len(tape)
                loss = nc.tsum(nc.mul(out, w))
                if reuse:
                    loss = nc.add(loss, nc.tsum(nc.mul(
                        nc.matmul(x, Tensor(wv)), w)))
            tape.backward(loss)
            results.append((entries, [out.data, x.grad, wq.grad, wk.grad]))
        (chain_entries, ref), (op_entries, got) = results
        assert (chain_entries, op_entries) == (3, 1)
        assert_bit_equal(got, ref)


def test_offset_attention_contract_errors():
    x, w = Tensor(np.zeros((4, 2))), Tensor(np.zeros((2, 2)))
    with pytest.raises(nc.ShapeError):  # w_q's rows do not match x's width
        nc.offset_attention(x, Tensor(np.zeros((3, 2))), w)
    with pytest.raises(nc.ShapeError):  # w_k's shape differs from w_q's
        nc.offset_attention(x, w, Tensor(np.zeros((2, 3))))
    with pytest.raises(nc.ShapeError):
        nc.offset_attention(Tensor(np.zeros(4)), w, w)
    with Tape() as tape, pytest.raises(nc.ShapeError):  # no rows
        nc.offset_attention(Tensor(np.zeros((0, 2)), requires_grad=True),
                            w, w)
    assert len(tape) == 0


def test_offset_attention_projections_are_finite_checked_as_matmul():
    x = Tensor(np.full((4, 2), 1e200))
    with np.errstate(over="ignore"), pytest.raises(
            nc.NonFiniteError, match="^matmul produced"):
        nc.offset_attention(x, Tensor(np.full((2, 2), 1e200)),
                            Tensor(np.ones((2, 2))))


def test_offset_attention_tape_holds_no_gather():
    # After a forward pass of 3 stacked layers at L = 736, the tape keeps
    # per layer its (L, d) output and its (K, L) softmax weights (K = 11)
    # and nothing of the size of an (L, d) query or key projection, let
    # alone of an (L, K, d) key or value gather: the bound allows each
    # layer less than one (L, d) array beyond the output and the weights.
    L, d, depth = 736, 8, 3
    K = len(sa.log_sparse_offsets(L))
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(L, d)), requires_grad=True)
    layers = [sa.LssaParams(*(Tensor(rng.normal(size=(d, d)) / 3,
                                     requires_grad=True) for _ in range(2)))
              for _ in range(depth)]
    mask = sa.build_mask(L)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            out = sa.stacked_lssa(x, layers, mask)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(tape) == depth and out.shape == (L, d)
    assert held < depth * (L * d + K * L + L * d) * 8, held


def test_layer_norm_constant_vector_is_zero():
    out = nc.layer_norm(Tensor([4.0, 4.0, 4.0]), Tensor(np.ones(3)),
                        Tensor(np.zeros(3)), Tensor(np.zeros(3)))
    assert np.allclose(out.data, 0.0, atol=1e-9)


def test_layer_norm_two_point():
    out = nc.layer_norm(Tensor([-1.0, 1.0]), Tensor(np.ones(2)),
                        Tensor(np.zeros(2)), Tensor(np.zeros(2)))
    want = 1.0 / math.sqrt(1.0 + nc._NORM_EPS)
    assert np.allclose(out.data, [-want, want], rtol=0.0, atol=1e-12)


def test_conv1d_identity_kernel():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 3))
    w = np.zeros((3, 3, 1))
    w[:, :, 0] = np.eye(3)
    out = nc.conv1d_same(Tensor(x), Tensor(w), Tensor(np.zeros(3)), [5])
    assert np.allclose(out.data, x, atol=1e-15)


def test_conv1d_averaging_kernel():
    w = np.full((1, 1, 3), 1 / 3)
    out = nc.conv1d_same(Tensor([[0.0], [3.0], [6.0]]), Tensor(w),
                         Tensor(np.zeros(1)), [3])
    assert np.allclose(out.data.ravel(), [1.0, 3.0, 3.0], atol=1e-12)


def test_conv1d_shape():
    rng = np.random.default_rng(3)
    out = nc.conv1d_same(Tensor(rng.normal(size=(7, 4))),
                         Tensor(rng.normal(size=(8, 4, 3))),
                         Tensor(np.zeros(8)), [7])
    assert out.shape == (7, 8)


def test_conv1d_even_kernel_rejected():
    with pytest.raises(nc.ConfigError):
        nc.conv1d_same(Tensor(np.zeros((4, 2))),
                       Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros(2)), [4])


def test_global_avg_pool():
    assert np.array_equal(
        nc.global_avg_pool(Tensor([[1.0, 2.0]]), [1]).data, [[1.0, 2.0]])
    out = nc.global_avg_pool(Tensor([[1.0, 2.0], [3.0, 4.0]]), [2])
    assert np.array_equal(out.data, [[2.0, 3.0]])
    out = nc.global_avg_pool(Tensor(np.full((4, 3), 7.0)), [4])
    assert out.shape == (1, 3) and np.allclose(out.data, 7.0)


CLIPS = [3, 1, 4]


def clip_rows():
    bounds = np.cumsum([0, *CLIPS])
    return [slice(s, e) for s, e in zip(bounds, bounds[1:])]


def one_clip(op):
    """op over the rows of its first input as a single clip."""
    return lambda *t: op(*t, [t[0].shape[0]])


@pytest.mark.parametrize("width", [1, 3, 5])
def test_conv1d_clips_match_one_call_per_clip(width):
    # Each clip is padded with its own zeros, so outputs and input
    # gradients equal one call per clip, and the kernel and bias gradients
    # the per-clip sum, up to the order of float sums (BLAS may block a
    # taller matrix product differently).
    rng = np.random.default_rng(30)
    x, k, b = (rng.normal(size=(8, 2)), rng.normal(size=(3, 2, width)),
               rng.normal(size=3))
    w = rng.normal(size=(8, 3))
    packed = grads_of(lambda *t: nc.conv1d_same(*t, CLIPS), [x, k, b], w)
    per = [grads_of(one_clip(nc.conv1d_same), [x[r], k, b], w[r])
           for r in clip_rows()]
    refs = [np.concatenate([p[i] for p in per]) for i in (0, 1)]
    refs += [sum(p[i] for p in per) for i in (2, 3)]
    for got, ref in zip(packed, refs):
        assert got.shape == ref.shape
        assert np.allclose(got, ref, rtol=1e-13, atol=1e-13)


def test_pool_and_gated_mix_clips_match_one_call_per_clip():
    rng = np.random.default_rng(31)
    v, w = rng.normal(size=(8, 2)), rng.normal(size=(3, 2))
    packed = grads_of(lambda t: nc.global_avg_pool(t, CLIPS), [v], w)
    per = [grads_of(one_clip(nc.global_avg_pool), [v[r]], w[i:i + 1])
           for i, r in enumerate(clip_rows())]
    for i in range(2):
        assert np.array_equal(packed[i], np.concatenate([p[i] for p in per]))

    g, a, b = rng.uniform(size=(8, 1)), rng.normal(size=(8, 2)), w
    w = rng.normal(size=(8, 2))
    packed = grads_of(lambda *t: nc.gated_mix(*t, CLIPS), [g, a, b], w)
    per = [grads_of(one_clip(nc.gated_mix), [g[r], a[r], b[i:i + 1]], w[r])
           for i, r in enumerate(clip_rows())]
    for i in range(4):
        assert np.array_equal(packed[i], np.concatenate([p[i] for p in per]))


@pytest.mark.parametrize("F", [1, 5])
def test_gated_mix_bit_equal_to_the_unfused_chain(F):
    # the mul/add chain with 1 - g as (g * -1) + 1 that gated_mix replaced
    rng = np.random.default_rng(32)
    g, a, b = (rng.uniform(size=(F, 1)), rng.normal(size=(F, 4)),
               rng.normal(size=(1, 4)))
    w = rng.normal(size=(F, 4))
    one_minus_g, b_rows = g * -1.0 + 1.0, np.tile(b, (F, 1))
    assert_bit_equal(grads_of(one_clip(nc.gated_mix), [g, a, b], w), [
        g * a + one_minus_g * b_rows,
        (w * a).sum(axis=1, keepdims=True)
        + (w * b_rows).sum(axis=1, keepdims=True) * -1.0,
        w * g,
        (w * one_minus_g).sum(axis=0, keepdims=True)])


@pytest.mark.parametrize("lengths", [[], [2, 2], [0, 5], [6, -1]])
def test_clip_lengths_must_tile_the_rows(lengths):
    x = Tensor(np.zeros((5, 2)))
    with pytest.raises(nc.ShapeError):
        nc.conv1d_same(x, Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros(2)),
                       lengths)
    with pytest.raises(nc.ShapeError):
        nc.global_avg_pool(x, lengths)
    with pytest.raises(nc.ShapeError):
        nc.gated_mix(Tensor(np.zeros((5, 1))), x,
                     Tensor(np.zeros((len(lengths), 2))), lengths)


def test_slice_rows_of_every_row_records_nothing():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    with Tape() as tape:
        assert nc.slice_rows(x, 0, 3) is x
        assert nc.slice_rows(x, 1, 2).data.tolist() == [[2.0, 3.0]]
    assert len(tape) == 1
    for start, stop in ((0, 0), (2, 1), (-1, 2), (0, 4)):
        with pytest.raises(nc.ShapeError):
            nc.slice_rows(x, start, stop)


def test_sigmoid_at_zero():
    assert nc.sigmoid(Tensor([0.0])).data[0] == 0.5


def test_concat_channels_shapes_and_roundtrip():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(6, 3)), rng.normal(size=(6, 5))
    cat = nc.concat_channels(Tensor(a), Tensor(b))
    assert cat.shape == (6, 8)
    back_a = nc.slice_cols(cat, 0, 3)
    back_b = nc.slice_cols(cat, 3, 8)
    assert np.array_equal(back_a.data, a)
    assert np.array_equal(back_b.data, b)


def test_dropout_eval_identity():
    x = np.random.default_rng(5).normal(size=(4, 4))
    out = nc.dropout(Tensor(x), 0.1, training=False)
    assert np.array_equal(out.data, x)


def test_dropout_training_scaling_and_determinism():
    x = np.ones((100, 10))
    out1 = nc.dropout(Tensor(x), 0.4, rng=np.random.default_rng(0),
                      training=True)
    out2 = nc.dropout(Tensor(x), 0.4, rng=np.random.default_rng(0),
                      training=True)
    assert np.array_equal(out1.data, out2.data)
    kept = out1.data[out1.data != 0]
    assert np.allclose(kept, 1 / 0.6)


def test_dropout_bad_rate():
    with pytest.raises(nc.ConfigError):
        nc.dropout(Tensor(np.zeros(3)), 1.0)


def test_backward_square():
    x = Tensor(np.array(3.0), requires_grad=True)
    with Tape() as tape:
        loss = nc.mul(x, x)
    tape.backward(loss)
    assert np.allclose(x.grad, 6.0)


def test_backward_requires_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with Tape() as tape:
        y = nc.add(x, x)
    with pytest.raises(nc.ContractError):
        tape.backward(y)


def test_backward_matmul_finite_differences():
    rng = np.random.default_rng(6)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = rng.normal(size=(3, 2))
    [c] = nc.grad_check(lambda: nc.tsum(nc.matmul(a, Tensor(b))), {"a": a},
                        tol=1e-5)
    assert c.passed


def test_tape_cleared_after_backward():
    x = Tensor(np.array(2.0), requires_grad=True)
    with Tape() as tape:
        loss = nc.mul(x, x)
    tape.backward(loss)
    assert len(tape) == 0


def test_grad_check_linear_function():
    x = Tensor(np.random.default_rng(7).normal(size=(3, 3)), requires_grad=True)
    [c] = nc.grad_check(lambda: nc.tsum(x), {"x": x})
    assert c.max_rel_err < 1e-8


def test_grad_check_softmax_pick():
    eye = Tensor(np.eye(4))

    def f(x):  # keys, values and every weight I: the output is alpha
        sm = nc.attention(x, eye, eye, eye, eye, eye)
        return nc.tsum(nc.slice_cols(sm, 0, 1))

    x = Tensor(np.random.default_rng(8).normal(size=(1, 4)), requires_grad=True)
    [c] = nc.grad_check(lambda: f(x), {"x": x})
    assert c.passed


def test_grad_check_layer_norm_composite():
    d = 5
    gain = Tensor(np.random.default_rng(9).normal(size=d))
    bias = Tensor(np.random.default_rng(10).normal(size=d))
    weights = Tensor(np.random.default_rng(11).normal(size=(3, d)))
    zero = Tensor(np.zeros((3, d)))

    def f(x):
        return nc.tsum(nc.mul(nc.layer_norm(x, gain, bias, zero), weights))

    x = Tensor(np.random.default_rng(12).normal(size=(3, d)), requires_grad=True)
    [c] = nc.grad_check(lambda: f(x), {"x": x})
    assert c.passed


def test_grad_check_one_result_per_tensor_and_data_restored():
    rng = np.random.default_rng(15)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    before = a.data.copy(), b.data.copy()
    for corrupt, passed in ((None, [True, True]), ("b", [True, False])):
        checks = nc.grad_check(lambda: nc.tsum(nc.matmul(a, b)),
                               {"a": a, "b": b}, tol=1e-8, corrupt=corrupt)
        assert [(c.name, c.passed) for c in checks] == list(zip("ab", passed))
    assert np.array_equal(a.data, before[0])
    assert np.array_equal(b.data, before[1])


ATTENTION_CASES = [f"attention_{wrt}_h{h}_{kind}"
                   for wrt in ("q", "k", "v") for h in (1, 2, 4)
                   for kind in ("logsparse", "causal", "rectangular")]


def attention_case(opname, rng):
    """(f, point) checking the gradient of one input of attention_of_kind,
    the kernels' attention over q, k and v; the other two inputs are fixed
    random tensors."""
    _, wrt, heads, kind = opname.split("_")
    lq, lk, d = (3, 5, 4) if kind == "rectangular" else (5, 5, 4)
    fixed = {"q": Tensor(rng.normal(size=(lq, d))),
             "k": Tensor(rng.normal(size=(lk, d))),
             "v": Tensor(rng.normal(size=(lk, d)))}
    w = Tensor(rng.normal(size=(lq, d)))

    def f(x):
        args = dict(fixed, **{wrt: x})
        out = attention_of_kind(kind, args["q"], args["k"], args["v"],
                                int(heads[1:]))
        return nc.tsum(nc.mul(out, w))

    return f, Tensor(rng.normal(size=fixed[wrt].shape))


BLOCK_ATTENTION_CASES = [f"block_attention_{wrt}_h{h}_{kind}"
                         for wrt in ("q", "k", "v", "o", "xq", "xkv")
                         for h in (1, 2, 4)
                         for kind in ("causal", "full", "causal1", "full1")]


def block_attention_case(opname, rng):
    """(f, point) checking the gradient of one input of an attention
    block, named by its role: q, k, v and o the weights w_q, w_k, w_v and
    w_o, xq the query rows and xkv the key and value rows; the other
    inputs are fixed. The pattern is three causal square blocks (decoder
    self-attention), three rectangular blocks that see every key
    (cross-attention), or no blocks: one causal 6 x 6 block (causal1) or
    a rectangular 4 x 6 one (full1)."""
    _, _, wrt, heads, kind = opname.split("_")
    causal = kind.startswith("causal")
    blocks = {"causal": [(2, 2), (1, 1), (3, 3)],
              "full": [(2, 3), (1, 1), (3, 2)]}.get(kind)
    lq = 4 if kind == "full1" else 6
    shapes = {"xq": (lq, 3), "xkv": (6, 5), "q": (3, 4), "k": (5, 4),
              "v": (5, 4), "o": (4, 2)}
    fixed = {n: Tensor(rng.normal(size=shape)) for n, shape in shapes.items()}
    w = Tensor(rng.normal(size=(lq, 2)))

    def f(x):
        args = dict(fixed, **{wrt: x})
        out = nc.attention(args["xq"], args["xkv"], args["q"], args["k"],
                           args["v"], args["o"], causal, int(heads[1:]),
                           blocks)
        return nc.tsum(nc.mul(out, w))

    return f, Tensor(rng.normal(size=shapes[wrt]))


OFFSET_ATTENTION_CASES = [f"offset_attention_{wrt}_L{L}"
                          for wrt in ("q", "k", "v") for L in (1, 2, 3, 5, 17)]


def offset_attention_case(opname, rng):
    """(f, point) checking the gradient of one offset_attention input over
    the log-sparse offsets of the length, named by its role: q the query
    weights w_q, k the key weights w_k, v the rows x, which are the values
    and feed both projections; the other two inputs are fixed."""
    wrt, length = opname.split("_")[2:]
    L, d = int(length[1:]), 3
    shapes = {"v": (L, d), "q": (d, d), "k": (d, d)}
    fixed = {n: Tensor(rng.normal(size=shape)) for n, shape in shapes.items()}
    w = Tensor(rng.normal(size=(L, d)))

    def f(x):
        args = dict(fixed, **{wrt: x})
        out = nc.offset_attention(args["v"], args["q"], args["k"])
        return nc.tsum(nc.mul(out, w))

    return f, Tensor(rng.normal(size=shapes[wrt]))


FUSED_CASES = ["matmul_bias_a", "matmul_bias_b", "matmul_bias_vec",
               "matmul_bias_scalar", "layer_norm_residual_x",
               "layer_norm_residual_r"]


def fused_case(opname, rng, w):
    """(f, point) checking one input's gradient of matmul with a bias or
    layer_norm with a residual; the other inputs are fixed random tensors."""
    if opname.startswith("matmul_bias_"):
        wrt = opname.split("_")[2]
        shapes = {"a": (4, 2), "b": (2, 3),
                  "bias": () if wrt == "scalar" else (3,)}
        wrt = "bias" if wrt in ("vec", "scalar") else wrt
        op = nc.matmul
    else:
        wrt = opname.split("_")[3]
        shapes = {"x": (4, 3), "gain": (3,), "bias": (3,), "r": (4, 3)}
        op = nc.layer_norm
    fixed = {n: Tensor(rng.normal(size=shape)) for n, shape in shapes.items()}

    def f(x):
        args = dict(fixed, **{wrt: x})
        return nc.tsum(nc.mul(op(*args.values()), w))

    return f, Tensor(rng.normal(size=shapes[wrt]))


CLIP_CASES = ["slice_rows", "conv1d_clips_x", "conv1d_clips_kernels",
              "gap_clips"] + [f"gated_mix_{wrt}{clips}" for clips in ("", "_clips")
                              for wrt in ("g", "a", "b")]


def clip_case(opname, rng, w):
    """(f, point) checking one input's gradient of an op over clips packed
    as rows (lengths 1 and 3 of a 4-row matrix), or of slice_rows, or of
    gated_mix over one clip of 4 rows; the other inputs are fixed."""
    lengths = [1, 3]
    if opname == "slice_rows":
        w2 = Tensor(rng.normal(size=(2, 3)))
        return lambda x: nc.tsum(nc.mul(nc.slice_rows(x, 1, 3), w2)), None
    if opname.startswith("conv1d_clips_"):
        # width 5 pads each clip with two zero rows a side
        fixed = {"x": Tensor(rng.normal(size=(4, 3))),
                 "kernels": Tensor(rng.normal(size=(2, 3, 5)))}
        bias, w2 = Tensor(rng.normal(size=2)), Tensor(rng.normal(size=(4, 2)))
        wrt = opname.split("_")[2]

        def f(x):
            args = dict(fixed, **{wrt: x})
            return nc.tsum(nc.mul(nc.conv1d_same(
                args["x"], args["kernels"], bias, lengths), w2))

        return f, Tensor(rng.normal(size=fixed[wrt].shape))
    if opname == "gap_clips":
        w2 = Tensor(rng.normal(size=(2, 3)))
        return lambda x: nc.tsum(nc.mul(nc.global_avg_pool(x, lengths),
                                        w2)), None
    wrt = opname.split("_")[2]
    clips = opname.endswith("_clips")
    shapes = {"g": (4, 1), "a": (4, 3), "b": (2, 3) if clips else (1, 3)}
    fixed = {n: Tensor(rng.normal(size=shape)) for n, shape in shapes.items()}

    def f(x):
        args = dict(fixed, **{wrt: x})
        return nc.tsum(nc.mul(nc.gated_mix(
            args["g"], args["a"], args["b"], lengths if clips else [4]), w))

    return f, Tensor(rng.normal(size=shapes[wrt]))


GRADIENT_CASES = [
    "add", "mul", "sigmoid", "relu",
    "dropout", "concat", "concat_rows", "slice", "masked_softmax",
    "log_softmax", "layer_norm", "conv1d", "gap", "gather", "pick",
] + ATTENTION_CASES + BLOCK_ATTENTION_CASES + OFFSET_ATTENTION_CASES \
  + FUSED_CASES + CLIP_CASES

# One gradient case per recording op; every case ends in tsum, and matmul
# is checked through its fused-bias cases.
OP_CASES = {
    "add": "add", "mul": "mul", "sigmoid": "sigmoid", "relu": "relu",
    "dropout": "dropout", "concat_channels": "concat",
    "concat_rows": "concat_rows", "slice_cols": "slice",
    "slice_rows": "slice_rows", "matmul": "matmul_bias_a",
    "tsum": "add", "gather_rows": "gather", "pick_per_row": "pick",
    "log_softmax_rows": "log_softmax", "attention": "block_attention_q_h2_causal",
    "offset_attention": "offset_attention_q_L5", "layer_norm": "layer_norm",
    "conv1d_same": "conv1d_clips_kernels", "global_avg_pool": "gap_clips",
    "gated_mix": "gated_mix_g_clips",
}


def test_every_recording_op_has_a_gradient_case():
    # the op rule of the benchmark's numcore probe
    ops = {n for n, f in vars(nc).items()
           if inspect.isfunction(f) and not n.startswith("_")
           and "_record" in f.__code__.co_names}
    assert ops == set(OP_CASES), "map each recording op to a gradient case"
    assert {OP_CASES[op] for op in ops} <= set(GRADIENT_CASES)


@pytest.mark.parametrize("opname", GRADIENT_CASES)
def test_gradients_match_finite_differences(opname):
    # 20 randomized trials per op, 64-bit, tol 1e-4 relative
    # crc32, unlike hash(), is not salted per process: a trial replays
    rng = np.random.default_rng(zlib.crc32(opname.encode()))
    for trial in range(20):
        w = Tensor(rng.normal(size=(4, 3)))
        wv = Tensor(rng.normal(size=(1, 3)))
        point = None
        if opname.startswith("attention_"):
            f, point = attention_case(opname, rng)
        elif opname.startswith("block_attention_"):
            f, point = block_attention_case(opname, rng)
        elif opname.startswith("offset_attention_"):
            f, point = offset_attention_case(opname, rng)
        elif opname in FUSED_CASES:
            f, point = fused_case(opname, rng, w)
        elif opname in CLIP_CASES:
            f, point = clip_case(opname, rng, w)
        elif opname == "add":
            other = Tensor(rng.normal(size=(4, 3)))
            f = lambda x: nc.tsum(nc.mul(nc.add(x, other), w))
        elif opname == "mul":
            other = Tensor(rng.normal(size=(4, 3)))
            f = lambda x: nc.tsum(nc.mul(nc.mul(x, other), w))
        elif opname == "sigmoid":
            f = lambda x: nc.tsum(nc.mul(nc.sigmoid(x), w))
        elif opname == "relu":
            f = lambda x: nc.tsum(nc.mul(nc.relu(x), w))
        elif opname == "dropout":
            # a fresh generator per evaluation draws the same mask each time
            seed = int(rng.integers(2 ** 32))
            f = lambda x: nc.tsum(nc.mul(nc.dropout(
                x, 0.3, np.random.default_rng(seed), training=True), w))
        elif opname == "concat":
            other = Tensor(rng.normal(size=(4, 2)))
            w5 = Tensor(rng.normal(size=(4, 5)))
            f = lambda x: nc.tsum(nc.mul(nc.concat_channels(x, other), w5))
        elif opname == "concat_rows":
            top, bottom = (Tensor(rng.normal(size=(n, 3))) for n in (2, 1))
            w7 = Tensor(rng.normal(size=(7, 3)))
            f = lambda x: nc.tsum(nc.mul(nc.concat_rows(top, x, bottom), w7))
        elif opname == "slice":
            w2 = Tensor(rng.normal(size=(4, 2)))
            f = lambda x: nc.tsum(nc.mul(nc.slice_cols(x, 1, 3), w2))
        elif opname == "masked_softmax":
            mask = rng.random((4, 3)) < 0.6
            mask[:, 0] = True
            eye = Tensor(np.eye(3))
            f = lambda x: nc.tsum(nc.mul(masked_attention(x, eye, eye, mask),
                                         w))
        elif opname == "log_softmax":
            f = lambda x: nc.tsum(nc.mul(nc.log_softmax_rows(x), w))
        elif opname == "layer_norm":
            gain = Tensor(rng.normal(size=3))
            bias = Tensor(rng.normal(size=3))
            zero = Tensor(np.zeros((4, 3)))
            f = lambda x: nc.tsum(nc.mul(nc.layer_norm(x, gain, bias, zero), w))
        elif opname == "conv1d":
            kern = Tensor(rng.normal(size=(2, 3, 3)))
            bias = Tensor(rng.normal(size=2))
            w2 = Tensor(rng.normal(size=(4, 2)))
            f = lambda x: nc.tsum(nc.mul(nc.conv1d_same(x, kern, bias, [4]),
                                         w2))
        elif opname == "gap":
            f = lambda x: nc.tsum(nc.mul(nc.global_avg_pool(x, [4]), wv))
        elif opname == "gather":
            ids = [0, 2, 2, 1]
            f = lambda x: nc.tsum(nc.mul(nc.gather_rows(x, ids), w))
        elif opname == "pick":
            cols = [0, 2, 1, 2]
            wv4 = Tensor(rng.normal(size=4))
            f = lambda x: nc.tsum(nc.mul(nc.pick_per_row(x, cols), wv4))
        if point is None:
            point = Tensor(rng.normal(size=(4, 3)))
        x = Tensor(point.data, requires_grad=True)
        [c] = nc.grad_check(lambda: f(x), {"x": x})
        assert c.passed, f"{opname} trial {trial}: {c.max_rel_err}"


def test_operations_deterministic():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 4))
    a = attention_alpha(x, np.ones((4, 4), bool))
    b = attention_alpha(x, np.ones((4, 4), bool))
    assert np.array_equal(a, b)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_rejected():
    with pytest.raises(nc.NonFiniteError):
        nc.mul(Tensor([1e308]), Tensor([1e308]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_finite_check_catches_every_position(bad):
    for shape in [(5,), (3, 4)]:
        for pos in np.ndindex(*shape):
            x = np.random.default_rng(14).normal(size=shape)
            x[pos] = bad
            with pytest.raises(nc.NonFiniteError):
                nc.add(Tensor(x), Tensor(np.zeros(shape)))
    with pytest.raises(nc.NonFiniteError):  # +Inf and -Inf sum to NaN
        nc.add(Tensor([np.inf, 1.0, -np.inf]), Tensor(np.zeros(3)))


@pytest.mark.parametrize("op", [nc.add, nc.mul])
def test_elementwise_ops_reject_unequal_shapes(op):
    a = Tensor(np.ones((4, 3)))
    for shape in ((3,), (4, 1), ()):
        b = Tensor(np.ones(shape))
        for x, y in ((a, b), (b, a)):
            with pytest.raises(nc.ShapeError):
                op(x, y)


def test_concat_rows_of_one_matrix_records_nothing():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    with Tape() as tape:
        assert nc.concat_rows(x) is x
    assert len(tape) == 0
    for parts in ((), (x, Tensor(np.ones((2, 4)))), (x, Tensor(np.ones(3)))):
        with pytest.raises(nc.ShapeError):
            nc.concat_rows(*parts)


def test_finite_check_passes_overflowing_sum():
    # every entry is finite, only their sum overflows (numpy warns about
    # that sum; the op itself is fine)
    with np.errstate(over="ignore"):
        out = nc.concat_rows(Tensor([[1e308]]), Tensor([[1e308]]))
    assert out.data.tolist() == [[1e308], [1e308]]


def test_check_finite_all_names_the_first_non_finite_array():
    # later arrays are non-finite too, and of other widths
    arrs = [np.ones((1, 3)), np.array([[1.0, np.nan]]),
            np.array([[np.inf, 2.0, 3.0, 4.0]]), np.array([[-np.inf]])]
    for first in (1, 2):
        with np.errstate(invalid="ignore"), pytest.raises(nc.NonFiniteError,
                           match=f"^op{first} produced non-finite values$"):
            nc._check_finite_all(arrs[:1] + arrs[first:],
                                 ["op0"] + [f"op{i}" for i in range(first, 4)])


def test_check_finite_all_names_the_first_of_opposite_infinities():
    # +Inf and -Inf in two arrays sum to NaN: the first array is named
    for a, b in ((np.inf, -np.inf), (-np.inf, np.inf)):
        with np.errstate(invalid="ignore"), pytest.raises(nc.NonFiniteError,
                           match="^first produced non-finite values$"):
            nc._check_finite_all([np.array([[a]]), np.array([[1.0, b]])],
                                 ("first", "second"))


def test_check_finite_all_passes_an_overflowing_sum():
    # two finite rows whose combined sum overflows (numpy warns about that
    # sum): no array is non-finite, so nothing is raised
    with np.errstate(over="ignore"):
        nc._check_finite_all([np.array([[1e308]]), np.array([[1e308]])],
                             ("a", "b"))


@pytest.mark.parametrize("shape", [(16,), (1, 16), (14, 16), (5, 8), (3, 256)])
def test_layer_norm_bit_equal_to_mean_var_formula(shape):
    rng = np.random.default_rng(15)
    d = shape[-1]
    for _ in range(20):
        x0, w = rng.normal(size=shape) * 3 + 1, rng.normal(size=shape)
        g0, b0 = rng.normal(size=d), rng.normal(size=d)
        x, gain, bias = (Tensor(a, requires_grad=True) for a in (x0, g0, b0))
        with Tape() as tape:
            out = nc.layer_norm(x, gain, bias, Tensor(np.zeros(shape)))
            loss = nc.tsum(nc.mul(out, Tensor(w)))
        tape.backward(loss)

        mu = x0.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(x0.var(axis=-1, keepdims=True) + 1e-5)
        xhat = (x0 - mu) * inv
        dxhat = w * g0
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        assert np.array_equal(out.data, g0 * xhat + b0)
        assert np.array_equal(x.grad, dx)
        assert np.array_equal(gain.grad, (w * xhat).reshape(-1, d).sum(axis=0))
        assert np.array_equal(bias.grad, w.reshape(-1, d).sum(axis=0))


@pytest.mark.parametrize("rows", [1, 2])
def test_layer_norm_rejects_an_overflowing_variance(rows):
    # Every entry is finite, but the squared deviations overflow: an
    # infinite variance would make 1/sqrt(var + eps) zero and map the row
    # to the bias, so the op raises instead (one row or several).
    x = np.array([[1e300, -1e300, 0.0, 5.0]] + [[1.0, 2.0, 3.0, 4.0]] * (rows - 1))
    gain, bias = Tensor(np.ones(4)), Tensor([0.0, 1.0, 2.0, 3.0])
    with np.errstate(over="ignore"), pytest.raises(
            nc.NonFiniteError, match="^layer_norm produced non-finite values$"):
        nc.layer_norm(Tensor(x), gain, bias, Tensor(np.zeros_like(x)))


def test_one_row_norm_bit_equal_to_that_row_among_two():
    # A single row takes its mean and variance as scalars; the same row
    # next to another takes the row-wise sums, to the same bits.
    rng = np.random.default_rng(27)
    for d in range(2, 1001):
        x = rng.normal(size=(2, d)) * rng.uniform(0.1, 10) + rng.normal()
        gain, bias = rng.normal(size=d), rng.normal(size=d)
        out1, xhat1, inv1 = nc._norm_rows(x[:1], gain, bias)
        out2, xhat2, inv2 = nc._norm_rows(x, gain, bias)
        assert isinstance(inv1, float), d
        assert np.array_equal(out1, out2[:1]), d
        assert np.array_equal(xhat1, xhat2[:1]), d
        assert inv1 == inv2[0, 0], d


@pytest.mark.parametrize("n_heads, d", [(1, 4), (2, 16), (8, 256)])
def test_one_row_head_split_bit_equal_to_the_transpose(n_heads, d):
    # One row splits into heads, and one query row merges back, by a
    # reshape view that holds the transpose path's values in its layout.
    rng = np.random.default_rng(28)
    x = rng.normal(size=(1, d))
    xh = x.reshape(1, n_heads, -1)
    for keys, order in ((False, (1, 0, 2)), (True, (1, 2, 0))):
        got = nc._split_heads(x, n_heads, keys)
        ref = np.ascontiguousarray(xh.transpose(order))
        assert got.shape == ref.shape and got.flags.c_contiguous
        assert np.array_equal(got, ref) and np.shares_memory(got, x)
    heads = rng.normal(size=(n_heads, 1, d // n_heads))
    merged = nc._merge_heads(heads)
    ref = np.ascontiguousarray(heads.transpose(1, 0, 2)).reshape(1, -1)
    assert merged.shape == (1, d) and merged.flags.c_contiguous
    assert np.array_equal(merged, ref)


@pytest.mark.parametrize("rate, training", [(0.3, False), (0.0, True)])
def test_inactive_dropout_records_nothing(rate, training):
    rng = np.random.default_rng(16)
    x0, w = rng.normal(size=(4, 3)), Tensor(rng.normal(size=(4, 3)))
    grads = []
    for wrap in (lambda t: t, lambda t: nc.dropout(t, rate, training=training)):
        x = Tensor(x0, requires_grad=True)
        with Tape() as tape:
            y = wrap(x)
            assert y is x and len(tape) == 0
            loss = nc.tsum(nc.mul(y, w))
        tape.backward(loss)
        grads.append(x.grad)
    assert np.array_equal(grads[0], grads[1])


def grads_of(fn, arrays, w):
    """Output and input gradients of tsum(fn(*inputs) * w)."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = fn(*inputs)
        loss = nc.tsum(nc.mul(out, Tensor(w)))
    tape.backward(loss)
    return [out.data] + [t.grad for t in inputs]


def assert_bit_equal(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("bias_shape", [(5,), ()])
def test_matmul_bias_bit_equal_to_matmul_then_add(bias_shape):
    # The reference is numpy's a @ b + c, and the bias gradient is the
    # output gradient summed over rows (then over columns for a () bias).
    rng = np.random.default_rng(18)
    for rows in (1, 7):
        a, b, c = arrays = [rng.normal(size=(rows, 4)),
                            rng.normal(size=(4, 5)),
                            rng.normal(size=bias_shape)]
        w = rng.normal(size=(rows, 5))
        gc = w.sum(axis=0)
        if bias_shape == ():
            gc = gc.sum(axis=0)
        assert_bit_equal(grads_of(nc.matmul, arrays, w),
                         [a @ b + c, w @ b.T, a.T @ w,
                          np.asarray(gc).reshape(bias_shape)])


def test_matmul_bias_shape_error():
    a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4)))
    for shape in ((3,), (1, 4), (2, 4)):
        with pytest.raises(nc.ShapeError):
            nc.matmul(a, b, Tensor(np.zeros(shape)))


@pytest.mark.parametrize("shape", [(6,), (1, 6), (5, 6)])
def test_layer_norm_residual_bit_equal_to_add_then_layer_norm(shape):
    rng = np.random.default_rng(19)
    arrays = [rng.normal(size=shape) * 3, rng.normal(size=6),
              rng.normal(size=6), rng.normal(size=shape)]
    w = rng.normal(size=shape)
    assert_bit_equal(grads_of(nc.layer_norm, arrays, w),
                     grads_of(lambda x, g, b, r: nc.layer_norm(
                         nc.add(x, r), g, b, Tensor(np.zeros(shape))), arrays, w))
    with pytest.raises(nc.ShapeError):
        nc.layer_norm(Tensor(arrays[0]), Tensor(arrays[1]), Tensor(arrays[2]),
                      Tensor(np.zeros(shape[:-1] + (3,))))


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_attention_without_mask_bit_equal_to_all_true_mask(n_heads):
    # the kernel without a mask, as attention runs it when not causal
    rng = np.random.default_rng(20 + n_heads)
    for lq, lk in ((1, 1), (1, 9), (6, 9)):
        arrays = [rng.normal(size=(lq, 8)), rng.normal(size=(lk, 8)),
                  rng.normal(size=(lk, 8))]
        w = rng.normal(size=(lq, 8))
        full = np.ones((lq, lk), dtype=bool)
        assert_bit_equal(
            grads_of(lambda q, k, v: masked_attention(q, k, v, None, n_heads),
                     arrays, w),
            grads_of(lambda q, k, v: masked_attention(q, k, v, full, n_heads),
                     arrays, w))


def single_block_reference(xq, xkv, w_q, w_k, w_v, w_o, mask, n_heads, g):
    """The arithmetic of one attention block before attention took blocks,
    step for step in plain numpy: the output and the gradients of xq, xkv
    and the four weights for upstream g."""
    def merge(x):
        return np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(
            x.shape[1], -1)

    q, k, v = xq @ w_q, xkv @ w_k, xkv @ w_v
    (Lq, d), Lk = q.shape, k.shape[0]
    dh = d // n_heads
    c = 1.0 / np.sqrt(dh)
    qh = np.ascontiguousarray(q.reshape(Lq, n_heads, dh).transpose(1, 0, 2))
    kt = np.ascontiguousarray(k.reshape(Lk, n_heads, dh).transpose(1, 2, 0))
    vh = np.ascontiguousarray(v.reshape(Lk, n_heads, dh).transpose(1, 0, 2))
    alpha = qh @ kt
    alpha *= c
    if mask is not None:
        np.copyto(alpha, -np.inf, where=~mask)
    alpha -= alpha.max(axis=-1, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum(axis=-1, keepdims=True)
    heads = merge(alpha @ vh)
    gheads = g @ w_o.T
    gh = gheads.reshape(Lq, n_heads, dh).transpose(1, 0, 2)
    dv = alpha.transpose(0, 2, 1) @ gh
    ds = gh @ vh.transpose(0, 2, 1)
    ds -= (ds * alpha).sum(axis=-1, keepdims=True)
    ds *= alpha
    ds *= c
    dq = merge(ds @ kt.transpose(0, 2, 1))
    dk = merge((qh.transpose(0, 2, 1) @ ds).transpose(0, 2, 1))
    dv = merge(dv)
    return [heads @ w_o, dq @ w_q.T, dv @ w_v.T + dk @ w_k.T, xq.T @ dq,
            xkv.T @ dk, xkv.T @ dv, heads.T @ g]


def block_arrays(rng, lq, lk, widths=(8, 8, 8, 8)):
    """Random xq (lq, a) and xkv (lk, b), and w_q, w_k, w_v and w_o for
    widths (a, b, e, f)."""
    a, b, e, f = widths
    return [rng.normal(size=shape) for shape in
            ((lq, a), (lk, b), (a, e), (b, e), (b, e), (e, f))]


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_one_block_attention_bit_equal_to_reference(n_heads):
    # what a lone clip or sequence runs (no blocks) and a packed batch of
    # one (one explicit block) both match the pre-block arithmetic to the
    # bit
    rng = np.random.default_rng(30 + n_heads)
    for (lq, lk), causal in (((1, 1), False), ((1, 9), False),
                             ((6, 9), False), ((1, 1), True), ((5, 5), True)):
        arrays = block_arrays(rng, lq, lk)
        w = rng.normal(size=(lq, 8))
        mask = attention_mask("causal", lq, lk) if causal else None
        ref = single_block_reference(*arrays, mask, n_heads, w)
        assert_bit_equal(grads_of(
            lambda *t: nc.attention(*t, causal, n_heads), arrays, w), ref)
        assert_bit_equal(grads_of(
            lambda *t: nc.attention(*t, causal, n_heads, [(lq, lk)]),
            arrays, w), ref)


@pytest.mark.parametrize("n_heads", [1, 2])
def test_block_attention_bit_equal_to_one_call_per_block(n_heads):
    # The weights select columns: q = xq, [k|v] = xkv and the output is
    # the heads, so every projection and its gradient is exact, whatever
    # kernel BLAS picks for a block's row count, and each block's output
    # rows and gradients of q, k and v equal a call on its rows alone, to
    # the bit. A weight's gradient is the sum of the blocks', up to the
    # order of float sums over rows.
    rng = np.random.default_rng(40 + n_heads)
    eye, zero = np.eye(8), np.zeros((8, 8))
    weights = [eye, np.vstack([eye, zero]), np.vstack([zero, eye]), eye]
    for causal in (False, True):
        blocks = ([(3, 3), (1, 1), (5, 5)] if causal
                  else [(3, 7), (1, 2), (5, 4)])
        lq, lk = map(sum, zip(*blocks))
        arrays = [rng.normal(size=(lq, 8)), rng.normal(size=(lk, 16))]
        w = rng.normal(size=(lq, 8))
        got = grads_of(lambda *t: nc.attention(*t, causal, n_heads, blocks),
                       arrays + weights, w)
        q0 = k0 = 0
        weight_sums = [0.0] * 4
        for bq, bk in blocks:
            qs, ks = slice(q0, q0 + bq), slice(k0, k0 + bk)
            ref = grads_of(lambda *t: nc.attention(*t, causal, n_heads),
                           [arrays[0][qs], arrays[1][ks]] + weights, w[qs])
            assert_bit_equal([got[0][qs], got[1][qs], got[2][ks]], ref[:3])
            weight_sums = [a + b for a, b in zip(weight_sums, ref[3:])]
            q0, k0 = q0 + bq, k0 + bk
        for got_w, ref_w in zip(got[3:], weight_sums):
            assert np.allclose(got_w, ref_w, rtol=1e-13, atol=1e-13)


def test_block_attention_rejects_bad_blocks():
    x, w = Tensor(np.zeros((5, 4))), Tensor(np.zeros((4, 4)))
    for blocks in ([(2, 2), (2, 2)],      # rows left over
                   [(3, 3), (3, 3)],      # too many rows
                   [(5, 0)],              # a block without keys
                   []):
        for causal in (False, True):
            with pytest.raises(nc.ShapeError, match="tile"):
                nc.attention(x, x, w, w, w, w, causal, 1, blocks)


ATTENTION_CHAIN_CASES = {
    "causal": (5, 5, True, None),
    "rectangular": (3, 7, False, None),
    "causal_blocks": (9, 9, True, [(3, 3), (1, 1), (5, 5)]),
    "rectangular_blocks": (9, 13, False, [(3, 7), (1, 2), (5, 4)]),
}


@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("case", sorted(ATTENTION_CHAIN_CASES))
def test_attention_bit_equal_to_five_op_chain(case, n_heads):
    # The one op runs the arithmetic of the five ops it replaced, and its
    # gradients of xkv (values', then keys') and xq reach the tape in the
    # chain's order: also for self-attention, xq is xkv, when x feeds a
    # matmul recorded after the op, whose gradient of x the tape takes
    # first. Widths (a, b, e, f) = (6, 8, 8, 4) make every weight's shape
    # its own, except for self-attention.
    lq, lk, causal, blocks = ATTENTION_CHAIN_CASES[case]
    rng = np.random.default_rng(50 + n_heads)
    for shared in ((False, True) if lq == lk else (False,)):
        for reuse in (False, True):
            widths = (8, 8, 8, 4) if shared else (6, 8, 8, 4)
            arrays = block_arrays(rng, lq, lk, widths)
            if shared:  # self-attention: xq is xkv
                del arrays[1]
            w, wx = rng.normal(size=(lq, 4)), rng.normal(size=(widths[0], 3))
            results = []
            for op in (attention_chain, nc.attention):
                inputs = [Tensor(a, requires_grad=True) for a in arrays]
                args = inputs[:1] * 2 + inputs[1:] if shared else inputs
                with Tape() as tape:
                    out = op(*args, causal, n_heads, blocks)
                    entries = len(tape)
                    loss = nc.tsum(nc.mul(out, Tensor(w)))
                    if reuse:
                        loss = nc.add(loss, nc.tsum(nc.matmul(
                            inputs[0], Tensor(wx))))
                tape.backward(loss)
                grads = [t.grad for t in inputs]
                results.append((entries, [out.data] + grads))
            (chain_entries, ref), (op_entries, got) = results
            assert (chain_entries, op_entries) == (5, 1)
            assert_bit_equal(got, ref)


def test_attention_outputs_are_finite_checked_in_chain_order():
    # The projections are checked before the heads, and the heads before
    # the output projection, each under the name of the chain's op that
    # made it: a non-finite v names matmul though the scores overflow too,
    # and non-finite heads name attention though the output overflows too.
    x, big = (Tensor(np.full((2, 2), a)) for a in (1e200, 1e308))
    one, eye = Tensor(np.ones((2, 2))), Tensor(np.eye(2))
    for xs, w_v, op in ((x, big, "matmul"),         # values
                        (x, eye, "attention"),      # heads
                        (one, eye, "matmul")):      # the output alone
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                nc.NonFiniteError, match=f"^{op} produced"):
            nc.attention(xs, xs, eye, eye, w_v, big)


def test_attention_tape_holds_no_projection():
    # What one call's tape entry holds, over 8 blocks of 32 rows at width
    # 32 and 2 heads: each block's head-split q, k^T and v (three (L, e)
    # arrays in all) and softmax weights, the merged heads and the output,
    # and less than one more (L, e) array. The five-op chain it replaced
    # also keeps the three (L, e) projections and every block's heads, so
    # it holds more than the bound.
    L, d, H, n = 256, 32, 2, 8
    blocks = [(L // n, L // n)] * n
    rng = np.random.default_rng(1)
    arrays = block_arrays(rng, L, L, (d, d, d, d))
    bound = (3 * L * d + n * H * (L // n) ** 2 + 2 * L * d + L * d) * 8
    held = []
    for op in (nc.attention, attention_chain):
        x = Tensor(arrays[0], requires_grad=True)
        ws = [Tensor(a, requires_grad=True) for a in arrays[2:]]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                out = op(x, x, *ws, False, H, blocks)
            held.append(tracemalloc.get_traced_memory()[0] - base)
        finally:
            tracemalloc.stop()
        assert out.shape == (L, d)
        assert len(tape) == (1 if op is nc.attention else 5)
    assert held[0] < bound < held[1], (held, bound)


def test_fused_ops_reject_overflow():
    big = Tensor([[1e200]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(nc.NonFiniteError):  # the product overflows
            nc.matmul(big, big, Tensor([1.0]))
        with pytest.raises(nc.NonFiniteError):  # the residual sum overflows
            nc.layer_norm(Tensor([[1e308, 0.0]]), Tensor(np.ones(2)),
                          Tensor(np.zeros(2)), Tensor([[1e308, 0.0]]))


def test_tapes_are_per_thread():
    # More threads than cores each build and run their own tape, entering
    # it and recording every op in lockstep with the others, with a short
    # switch interval; each thread's gradient must equal the one a lone
    # thread computes from the same input.
    n = 4
    rng = np.random.default_rng(21)
    xs = [rng.normal(size=(3, 4)) for _ in range(n)]
    w0 = rng.normal(size=(4, 4))
    barrier = threading.Barrier(n, timeout=30)

    def grad(x0, sync):
        w = Tensor(w0.copy(), requires_grad=True)
        with Tape() as tape:
            h = Tensor(x0)
            for _ in range(4):
                sync()
                h = nc.sigmoid(nc.matmul(h, w))
            sync()
            loss = nc.tsum(h)
        sync()
        tape.backward(loss)
        return w.grad

    expected = [grad(x, lambda: None) for x in xs]
    results: list = [None] * n

    def worker(i):
        try:
            results[i] = grad(xs[i], barrier.wait)
        except Exception as e:  # reported by the main thread
            results[i] = e
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, ref in zip(results, expected):
        assert isinstance(got, np.ndarray), got
        assert np.array_equal(got, ref)
