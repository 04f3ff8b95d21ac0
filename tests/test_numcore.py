import sys
import threading

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
    """Attention weights of score matrix x: with k = v = I the output is
    alpha, and scaling q by sqrt(d) undoes the op's 1/sqrt(d)."""
    x = np.asarray(x, dtype=np.float64)
    eye = Tensor(np.eye(x.shape[1]))
    return nc.attention(Tensor(x * np.sqrt(x.shape[1])), eye, eye, mask)


def test_masked_softmax_uniform_row():
    out = attention_alpha([[0.0, 0.0, 0.0]], np.ones((1, 3), bool))
    assert np.allclose(out.data, 1 / 3, atol=1e-12)


def test_masked_softmax_single_survivor():
    out = attention_alpha([[5.0, 9.0, 2.0]], np.array([[False, True, False]]))
    assert np.array_equal(out.data, [[0.0, 1.0, 0.0]])


def test_masked_softmax_max_shift_avoids_overflow():
    out = attention_alpha([[1000.0, 1000.0 + np.log(3.0), -1000.0]],
                          np.array([[True, True, False]]))
    assert np.allclose(out.data, [[0.25, 0.75, 0.0]], atol=1e-12)


def test_masked_softmax_closed_form():
    out = attention_alpha([[0.0, np.log(2.0)]], np.ones((1, 2), bool))
    assert np.allclose(out.data, [[1 / 3, 2 / 3]], atol=1e-12)


def test_masked_softmax_all_false_row_rejected():
    with pytest.raises(nc.ContractError):
        attention_alpha(np.zeros((2, 2)),
                        np.array([[True, True], [False, False]]))


def test_masked_softmax_rows_sum_to_one_and_zero_off_mask():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(size=(5, 5)) * 10
        mask = rng.random((5, 5)) < 0.5
        mask[:, 0] = True
        out = attention_alpha(x, mask).data
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out[~mask] == 0.0)


def attention_mask(kind, lq, lk, rng):
    if kind == "logsparse":
        return sa.build_mask(lq)
    if kind == "causal":
        return sa.causal_mask(lq)
    mask = rng.random((lq, lk)) < 0.6  # rectangular: cross-attention
    mask[np.arange(lq), rng.integers(0, lk, size=lq)] = True
    return mask


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
    mask = attention_mask(kind, lq, lk, rng)
    q, k, v = (Tensor(rng.normal(size=shape), requires_grad=True)
               for shape in ((lq, d), (lk, d), (lk, d)))
    with Tape() as tape:
        out = nc.attention(q, k, v, mask, n_heads)
        loss = nc.tsum(out)
    tape.backward(loss)
    ref_out, ref_dq, ref_dk, ref_dv = per_head_reference(
        q.data, k.data, v.data, mask, n_heads)
    assert np.array_equal(out.data, ref_out)
    for t, ref in ((q, ref_dq), (k, ref_dk), (v, ref_dv)):
        assert np.array_equal(t.grad, ref)
        assert t.grad.flags.c_contiguous


def test_attention_contract_errors():
    x = Tensor(np.zeros((3, 4)))
    with pytest.raises(nc.ShapeError):
        nc.attention(x, x, x, np.ones((3, 2), bool))
    with pytest.raises(nc.ShapeError):
        nc.attention(x, x, Tensor(np.zeros((3, 2))), np.ones((3, 3), bool))
    with pytest.raises(nc.ConfigError):
        nc.attention(x, x, x, np.ones((3, 3), bool), n_heads=3)


@pytest.mark.parametrize("L", [1, 2, 3, 5, 17, 64, 129, 300, 736])
def test_offset_attention_matches_masked_dense(L):
    rng = np.random.default_rng(L)
    d = 8
    q0, k0, v0, w = (rng.normal(size=(L, d)) for _ in range(4))
    results = []
    for op in (lambda q, k, v: nc.attention(q, k, v, sa.build_mask(L)),
               lambda q, k, v: nc.offset_attention(
                   q, k, v, sa.log_sparse_offsets(L))):
        q, k, v = (Tensor(a, requires_grad=True) for a in (q0, k0, v0))
        with Tape() as tape:
            out = op(q, k, v)
            loss = nc.tsum(nc.mul(out, Tensor(w)))
        tape.backward(loss)
        results.append((out.data, q.grad, k.grad, v.grad))
    for got, ref in zip(*reversed(results)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert got.flags.c_contiguous


def test_offset_attention_contract_errors():
    x = Tensor(np.zeros((4, 2)))
    with pytest.raises(nc.ShapeError):
        nc.offset_attention(x, x, Tensor(np.zeros((3, 2))), (0, 1))
    with pytest.raises(nc.ContractError):  # row 0 would have no key
        nc.offset_attention(x, x, x, (1, 2))
    with pytest.raises(nc.ContractError):
        nc.offset_attention(x, x, x, (0, 4))


def test_layer_norm_constant_vector_is_zero():
    out = nc.layer_norm(Tensor([4.0, 4.0, 4.0]), Tensor(np.ones(3)),
                        Tensor(np.zeros(3)))
    assert np.allclose(out.data, 0.0, atol=1e-9)


def test_layer_norm_two_point():
    out = nc.layer_norm(Tensor([-1.0, 1.0]), Tensor(np.ones(2)),
                        Tensor(np.zeros(2)), eps=1e-12)
    assert np.allclose(out.data, [-1.0, 1.0], atol=1e-6)


def test_conv1d_identity_kernel():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 3))
    w = np.zeros((3, 3, 1))
    w[:, :, 0] = np.eye(3)
    out = nc.conv1d_same(Tensor(x), Tensor(w), Tensor(np.zeros(3)))
    assert np.allclose(out.data, x, atol=1e-15)


def test_conv1d_averaging_kernel():
    w = np.full((1, 1, 3), 1 / 3)
    out = nc.conv1d_same(Tensor([[0.0], [3.0], [6.0]]), Tensor(w),
                         Tensor(np.zeros(1)))
    assert np.allclose(out.data.ravel(), [1.0, 3.0, 3.0], atol=1e-12)


def test_conv1d_shape():
    rng = np.random.default_rng(3)
    out = nc.conv1d_same(Tensor(rng.normal(size=(7, 4))),
                         Tensor(rng.normal(size=(8, 4, 3))),
                         Tensor(np.zeros(8)))
    assert out.shape == (7, 8)


def test_conv1d_even_kernel_rejected():
    with pytest.raises(nc.ConfigError):
        nc.conv1d_same(Tensor(np.zeros((4, 2))),
                       Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros(2)))


def test_global_avg_pool():
    assert np.array_equal(
        nc.global_avg_pool(Tensor([[1.0, 2.0]])).data, [1.0, 2.0])
    out = nc.global_avg_pool(Tensor([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(out.data, [2.0, 3.0])
    out = nc.global_avg_pool(Tensor(np.full((4, 3), 7.0)))
    assert np.allclose(out.data, 7.0)


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
    rep = nc.grad_check(lambda t: nc.tsum(nc.matmul(t, Tensor(b))), a,
                        tol=1e-5)
    assert rep.passed


def test_tape_cleared_after_backward():
    x = Tensor(np.array(2.0), requires_grad=True)
    with Tape() as tape:
        loss = nc.mul(x, x)
    tape.backward(loss)
    assert len(tape) == 0


def test_grad_check_linear_function():
    rep = nc.grad_check(nc.tsum, Tensor(np.random.default_rng(7).normal(size=(3, 3))))
    assert rep.max_rel_err < 1e-8


def test_grad_check_softmax_pick():
    eye = Tensor(np.eye(4))

    def f(x):
        sm = nc.attention(x, eye, eye, np.ones((1, 4), bool))
        return nc.tsum(nc.slice_cols(sm, 0, 1))

    rep = nc.grad_check(f, Tensor(np.random.default_rng(8).normal(size=(1, 4))))
    assert rep.passed


def test_grad_check_layer_norm_composite():
    d = 5
    gain = Tensor(np.random.default_rng(9).normal(size=d))
    bias = Tensor(np.random.default_rng(10).normal(size=d))
    weights = Tensor(np.random.default_rng(11).normal(size=(3, d)))

    def f(x):
        return nc.tsum(nc.mul(nc.layer_norm(x, gain, bias), weights))

    rep = nc.grad_check(f, Tensor(np.random.default_rng(12).normal(size=(3, d))))
    assert rep.passed


ATTENTION_CASES = [f"attention_{wrt}_h{h}_{kind}"
                   for wrt in ("q", "k", "v") for h in (1, 2, 4)
                   for kind in ("logsparse", "causal", "rectangular")]


def attention_case(opname, rng):
    """(f, point) checking one attention input's gradient; the other two
    inputs are fixed random tensors."""
    _, wrt, heads, kind = opname.split("_")
    lq, lk, d = (3, 5, 4) if kind == "rectangular" else (5, 5, 4)
    mask = attention_mask(kind, lq, lk, rng)
    fixed = {"q": Tensor(rng.normal(size=(lq, d))),
             "k": Tensor(rng.normal(size=(lk, d))),
             "v": Tensor(rng.normal(size=(lk, d)))}
    w = Tensor(rng.normal(size=(lq, d)))

    def f(x):
        args = dict(fixed, **{wrt: x})
        out = nc.attention(args["q"], args["k"], args["v"], mask, int(heads[1:]))
        return nc.tsum(nc.mul(out, w))

    return f, Tensor(rng.normal(size=fixed[wrt].shape))


OFFSET_ATTENTION_CASES = [f"offset_attention_{wrt}_L{L}"
                          for wrt in ("q", "k", "v") for L in (1, 2, 3, 5, 17)]


def offset_attention_case(opname, rng):
    """(f, point) checking one offset_attention input's gradient over the
    log-sparse offsets of the length; the other two inputs are fixed."""
    wrt, length = opname.split("_")[2:]
    L, d = int(length[1:]), 3
    offsets = sa.log_sparse_offsets(L)
    fixed = {n: Tensor(rng.normal(size=(L, d))) for n in ("q", "k", "v")}
    w = Tensor(rng.normal(size=(L, d)))

    def f(x):
        args = dict(fixed, **{wrt: x})
        out = nc.offset_attention(args["q"], args["k"], args["v"], offsets)
        return nc.tsum(nc.mul(out, w))

    return f, Tensor(rng.normal(size=(L, d)))


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


@pytest.mark.parametrize("opname", [
    "add", "add_col", "add_vec", "mul", "sigmoid", "relu", "scale",
    "concat", "slice", "masked_softmax", "log_softmax", "layer_norm",
    "conv1d", "gap", "gather", "pick", "broadcast_rows",
] + ATTENTION_CASES + OFFSET_ATTENTION_CASES + FUSED_CASES)
def test_gradients_match_finite_differences(opname):
    # 20 randomized trials per op, 64-bit, tol 1e-4 relative
    rng = np.random.default_rng(hash(opname) % (2 ** 32))
    for trial in range(20):
        w = Tensor(rng.normal(size=(4, 3)))
        wv = Tensor(rng.normal(size=3))
        point = None
        if opname.startswith("attention_"):
            f, point = attention_case(opname, rng)
        elif opname.startswith("offset_attention_"):
            f, point = offset_attention_case(opname, rng)
        elif opname in FUSED_CASES:
            f, point = fused_case(opname, rng, w)
        elif opname == "add":
            other = Tensor(rng.normal(size=(4, 3)))
            f = lambda x: nc.tsum(nc.mul(nc.add(x, other), w))
        elif opname == "add_col":
            col = Tensor(rng.normal(size=(4, 1)))
            f = lambda x: nc.tsum(nc.mul(nc.add(x, col), w))
        elif opname == "add_vec":
            vec = Tensor(rng.normal(size=3))
            f = lambda x: nc.tsum(nc.mul(nc.add(x, vec), w))
        elif opname == "mul":
            other = Tensor(rng.normal(size=(4, 3)))
            f = lambda x: nc.tsum(nc.mul(nc.mul(x, other), w))
        elif opname == "sigmoid":
            f = lambda x: nc.tsum(nc.mul(nc.sigmoid(x), w))
        elif opname == "relu":
            f = lambda x: nc.tsum(nc.mul(nc.relu(x), w))
        elif opname == "scale":
            f = lambda x: nc.tsum(nc.mul(nc.scale(x, 2.5), w))
        elif opname == "concat":
            other = Tensor(rng.normal(size=(4, 2)))
            w5 = Tensor(rng.normal(size=(4, 5)))
            f = lambda x: nc.tsum(nc.mul(nc.concat_channels(x, other), w5))
        elif opname == "slice":
            w2 = Tensor(rng.normal(size=(4, 2)))
            f = lambda x: nc.tsum(nc.mul(nc.slice_cols(x, 1, 3), w2))
        elif opname == "masked_softmax":
            mask = rng.random((4, 3)) < 0.6
            mask[:, 0] = True
            eye = Tensor(np.eye(3))
            f = lambda x: nc.tsum(nc.mul(nc.attention(x, eye, eye, mask), w))
        elif opname == "log_softmax":
            f = lambda x: nc.tsum(nc.mul(nc.log_softmax_rows(x), w))
        elif opname == "layer_norm":
            gain = Tensor(rng.normal(size=3))
            bias = Tensor(rng.normal(size=3))
            f = lambda x: nc.tsum(nc.mul(nc.layer_norm(x, gain, bias), w))
        elif opname == "conv1d":
            kern = Tensor(rng.normal(size=(2, 3, 3)))
            bias = Tensor(rng.normal(size=2))
            w2 = Tensor(rng.normal(size=(4, 2)))
            f = lambda x: nc.tsum(nc.mul(nc.conv1d_same(x, kern, bias), w2))
        elif opname == "gap":
            f = lambda x: nc.tsum(nc.mul(nc.global_avg_pool(x), wv))
        elif opname == "gather":
            ids = [0, 2, 2, 1]
            f = lambda x: nc.tsum(nc.mul(nc.gather_rows(x, ids), w))
        elif opname == "pick":
            cols = [0, 2, 1, 2]
            wv4 = Tensor(rng.normal(size=4))
            f = lambda x: nc.tsum(nc.mul(nc.pick_per_row(x, cols), wv4))
        elif opname == "broadcast_rows":
            wb = Tensor(rng.normal(size=(5, 3)))
            f = lambda x: nc.tsum(nc.mul(
                nc.broadcast_rows(nc.global_avg_pool(x), 5), wb))
        if point is None:
            point = Tensor(rng.normal(size=(4, 3)))
        rep = nc.grad_check(f, point)
        assert rep.passed, f"{opname} trial {trial}: {rep.max_rel_err}"


def test_operations_deterministic():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 4))
    a = attention_alpha(x, np.ones((4, 4), bool)).data
    b = attention_alpha(x, np.ones((4, 4), bool)).data
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
                nc.add_scalar(Tensor(x), 0.0)
    with pytest.raises(nc.NonFiniteError):  # +Inf and -Inf sum to NaN
        nc.add_scalar(Tensor([np.inf, 1.0, -np.inf]), 0.0)


def test_finite_check_passes_overflowing_sum():
    # every entry is finite, only their sum overflows (numpy warns about
    # that sum; the op itself is fine)
    with np.errstate(over="ignore"):
        out = nc.concat_rows(Tensor([[1e308]]), Tensor([[1e308]]))
    assert out.data.tolist() == [[1e308], [1e308]]


@pytest.mark.parametrize("shape", [(16,), (1, 16), (14, 16), (5, 8), (3, 256)])
def test_layer_norm_bit_equal_to_mean_var_formula(shape):
    rng = np.random.default_rng(15)
    d = shape[-1]
    for _ in range(20):
        x0, w = rng.normal(size=shape) * 3 + 1, rng.normal(size=shape)
        g0, b0 = rng.normal(size=d), rng.normal(size=d)
        x, gain, bias = (Tensor(a, requires_grad=True) for a in (x0, g0, b0))
        with Tape() as tape:
            out = nc.layer_norm(x, gain, bias)
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
    rng = np.random.default_rng(18)
    for rows in (1, 7):
        arrays = [rng.normal(size=(rows, 4)), rng.normal(size=(4, 5)),
                  rng.normal(size=bias_shape)]
        w = rng.normal(size=(rows, 5))
        assert_bit_equal(grads_of(nc.matmul, arrays, w),
                         grads_of(lambda a, b, c: nc.add(nc.matmul(a, b), c),
                                  arrays, w))


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
                     grads_of(lambda x, g, b, r: nc.layer_norm(nc.add(x, r), g, b),
                              arrays, w))
    with pytest.raises(nc.ShapeError):
        nc.layer_norm(Tensor(arrays[0]), Tensor(arrays[1]), Tensor(arrays[2]),
                      Tensor(np.zeros(shape[:-1] + (3,))))


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_attention_without_mask_bit_equal_to_all_true_mask(n_heads):
    rng = np.random.default_rng(20 + n_heads)
    for lq, lk in ((1, 1), (1, 9), (6, 9)):
        arrays = [rng.normal(size=(lq, 8)), rng.normal(size=(lk, 8)),
                  rng.normal(size=(lk, 8))]
        w = rng.normal(size=(lq, 8))
        full = np.ones((lq, lk), dtype=bool)
        assert_bit_equal(
            grads_of(lambda q, k, v: nc.attention(q, k, v, None, n_heads),
                     arrays, w),
            grads_of(lambda q, k, v: nc.attention(q, k, v, full, n_heads),
                     arrays, w))


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
