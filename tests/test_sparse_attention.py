import functools
import math

import numpy as np
import pytest

from glot import numcore as nc
from glot import sparse_attention as sa
from glot.numcore import Tensor


def brute_force_members(p):
    """Independent enumerator: q <= p with p-q zero or a power of two."""
    diff = p - np.arange(1, p + 1)
    is_pow2 = (diff > 0) & ((diff & (diff - 1)) == 0)
    return tuple(int(q) for q in np.arange(1, p + 1)[is_pow2 | (diff == 0)])


def test_index_set_small_examples():
    assert sa.log_index_set(1) == (1,)
    assert sa.log_index_set(5) == (1, 3, 4, 5)
    assert sa.log_index_set(8) == (4, 6, 7, 8)


def test_index_set_rejects_bad_position():
    with pytest.raises(sa.DomainError):
        sa.log_index_set(0)


def test_index_set_matches_brute_force():
    for p in range(1, 513):
        assert sa.log_index_set(p) == brute_force_members(p)


def test_index_set_invariants():
    for p in range(1, 1025):
        m = sa.log_index_set(p)
        assert p in m and max(m) == p
        assert all(a < b for a, b in zip(m, m[1:]))
        assert len(m) <= math.floor(math.log2(p)) + 2


def test_build_mask_small():
    assert sa.build_mask(1).tolist() == [[True]]
    mask = sa.build_mask(4)
    rows = [tuple(np.flatnonzero(mask[i]) + 1) for i in range(4)]
    assert rows == [(1,), (1, 2), (1, 2, 3), (2, 3, 4)]
    assert sa.build_mask(8).sum() == 25


def test_mask_is_causal():
    mask = sa.build_mask(32)
    assert not np.triu(mask, k=1).any()


def test_count_attention_pairs():
    assert sa.count_attention_pairs(8, "dense") == 64
    assert sa.count_attention_pairs(8, "causal_dense") == 36
    assert sa.count_attention_pairs(8, "logsparse") == 25
    with pytest.raises(sa.DomainError):
        sa.count_attention_pairs(8, "banana")


def test_logsparse_count_bound():
    for L in range(1, 1025):
        count = sa.count_attention_pairs(L, "logsparse")
        assert count <= L * (math.floor(math.log2(L)) + 2)


def _random_layer(rng, d):
    """One stacked_lssa layer: a (w_q, w_k) pair."""
    return (Tensor(rng.normal(size=(d, d))), Tensor(rng.normal(size=(d, d))))


def test_lssa_single_position_is_identity():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(1, 4)))
    params = _random_layer(rng, 4)
    out = nc.offset_attention(x, *params)
    assert np.allclose(out.data, x.data, atol=1e-12)


def test_lssa_zero_projections_give_index_set_means():
    rng = np.random.default_rng(1)
    F, d = 6, 4
    x = rng.normal(size=(F, d))
    zero = Tensor(np.zeros((d, d)))
    out = nc.offset_attention(Tensor(x), zero, zero).data
    for p in range(1, F + 1):
        members = np.array(sa.log_index_set(p)) - 1
        assert np.allclose(out[p - 1], x[members].mean(axis=0), atol=1e-12)


def test_lssa_alpha_rows_are_normalized():
    rng = np.random.default_rng(2)
    F, d = 8, 4
    x = rng.normal(size=(F, d))
    mask = sa.build_mask(F)
    q, k = (x @ rng.normal(size=(d, d)) for _ in range(2))
    # the weights the dense kernel of offset_attention keeps at this length
    alpha = nc._attend(q, k, x, ~mask, 1)[1][-1][0]
    assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(alpha[~mask] == 0.0)


def test_stacked_single_layer_equals_layer():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(5, 4)))
    params = _random_layer(rng, 4)
    one = nc.offset_attention(x, *params)
    stacked = sa.stacked_lssa(x, [params], sa.build_mask(5))
    assert np.array_equal(one.data, stacked.data)


def test_stacked_requires_layers():
    with pytest.raises(nc.ConfigError):
        sa.stacked_lssa(Tensor(np.zeros((2, 2))), [], sa.build_mask(2))


def test_stacked_shape_preserved():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(7, 4)))
    layers = [_random_layer(rng, 4) for _ in range(4)]
    out = sa.stacked_lssa(x, layers, sa.build_mask(7))
    assert out.shape == (7, 4)


def test_receptive_field_closure():
    # ceil(log2 L) compositions reach the full causal pattern for L <= 64
    for L in range(1, 65):
        depth = max(1, math.ceil(math.log2(L))) if L > 1 else 1
        closure = sa.mask_closure(sa.build_mask(L), depth)
        assert np.array_equal(closure, np.tril(np.ones((L, L), bool))), L


def test_permutation_covariance():
    rng = np.random.default_rng(5)
    F, d = 6, 4
    x = rng.normal(size=(F, d))
    wq = rng.normal(size=(d, d))
    wk = rng.normal(size=(d, d))
    perm = rng.permutation(d)
    base = nc.offset_attention(Tensor(x), Tensor(wq), Tensor(wk)).data
    permuted = nc.offset_attention(Tensor(x[:, perm]),
                                   Tensor(wq[perm][:, perm]),
                                   Tensor(wk[perm][:, perm])).data
    assert np.allclose(permuted, base[:, perm], atol=1e-12)


def test_lssa_gradients():
    rng = np.random.default_rng(6)
    F, d = 5, 3
    x, wq, wk = (Tensor(rng.normal(size=shape), requires_grad=True)
                 for shape in ((F, d), (d, d), (d, d)))
    w = Tensor(rng.normal(size=(F, d)))
    checks = nc.grad_check(
        lambda: nc.tsum(nc.mul(nc.offset_attention(x, wq, wk), w)),
        {"x": x, "wq": wq, "wk": wk})
    assert [c.name for c in checks if not c.passed] == []


def test_build_mask_is_shared_read_only_and_matches_oracle():
    # Every length's mask marks the index sets and is the OR of its
    # sub-diagonals, read-only and cached; it spans one vector of the
    # 2L - 1 distances, not L x L bytes.
    for L in range(1, 301):
        oracle = np.zeros((L, L), dtype=bool)
        for p in range(1, L + 1):
            oracle[p - 1, [q - 1 for q in sa.log_index_set(p)]] = True
        diagonals = np.zeros((L, L), dtype=bool)
        for delta in sa.log_sparse_offsets(L):
            diagonals |= np.eye(L, k=-delta, dtype=bool)
        mask = sa.build_mask(L)
        assert mask.shape == (L, L) and mask.dtype == bool
        assert np.array_equal(mask, oracle), L
        assert np.array_equal(mask, diagonals), L
        assert sa.build_mask(L) is mask
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0] = False
    L = 736
    low, high = np.lib.array_utils.byte_bounds(sa.build_mask(L))
    assert high - low <= 2 * L - 1


def test_log_sparse_offsets():
    assert sa.log_sparse_offsets(1) == (0,)
    assert sa.log_sparse_offsets(2) == (0, 1)
    assert sa.log_sparse_offsets(8) == (0, 1, 2, 4)
    assert sa.log_sparse_offsets(9) == (0, 1, 2, 4, 8)
    for length in (0, -3):
        for fn in (sa.log_sparse_offsets, sa.build_mask):
            with pytest.raises(sa.DomainError):
                fn(length)


def test_count_attention_pairs_closed_form_matches_loop():
    for L in list(range(1, 301)) + [2048]:
        loop = sum(len(sa.log_index_set(p)) for p in range(1, L + 1))
        assert sa.count_attention_pairs(L, "logsparse") == loop, L


def _lssa_run(x0, params, layer):
    """Output, x/w_q/w_k gradients and the tape entries of one
    layer(x, w_q, w_k) call under a weighted-sum loss."""
    x = Tensor(x0, requires_grad=True)
    wq, wk = (Tensor(t.data, requires_grad=True) for t in params)
    w = Tensor(np.random.default_rng(0).normal(size=x0.shape))
    with nc.Tape() as tape:
        out = layer(x, wq, wk)
        entries = list(tape._entries)
        loss = nc.tsum(nc.mul(out, w))
    tape.backward(loss)
    return out.data, (x.grad, wq.grad, wk.grad), entries


def _masked_dense(x, w_q, w_k):
    """Two matmul projections and attention over them under build_mask,
    taped from numcore's private kernels: the three ops that
    offset_attention replaced."""
    q, k = nc.matmul(x, w_q), nc.matmul(x, w_k)
    out, saved = nc._attend(q.data, k.data, x.data,
                            ~sa.build_mask(x.shape[0]), 1)
    return nc._record(out, "attention", (q, k, x),
                      lambda g: nc._attend_grads(saved, g))


def _layer_and_masked_dense(x0, params):
    """_lssa_run of offset_attention, then of _masked_dense."""
    return (_lssa_run(x0, params, nc.offset_attention),
            _lssa_run(x0, params, _masked_dense))


def _kept_weights(backward):
    """The softmax weights an offset_attention tape entry keeps: (K, L)
    from the shifted kernel, (1, L, L) from the dense one."""
    def cells(fn):
        return dict(zip(fn.__code__.co_freevars,
                        (c.cell_contents for c in fn.__closure__)))
    grads = cells(backward)["grads"]
    if isinstance(grads, functools.partial):  # _attend_grads and its saved
        return grads.args[0][-1]
    return cells(grads)["alpha"]


def test_lssa_layer_gathers_above_crossover():
    # From OFFSET_MIN_LENGTH on, the one op keeps one weight per key
    # distance and row, and matches the masked-dense chain to 1e-12.
    rng = np.random.default_rng(8)
    d = 4
    for L in (nc.OFFSET_MIN_LENGTH, nc.OFFSET_MIN_LENGTH + 9):
        x0, params = rng.normal(size=(L, d)), _random_layer(rng, d)
        (out, grads, entries), (ref, ref_grads, _) = \
            _layer_and_masked_dense(x0, params)
        [(_, _, backward)] = entries
        assert backward.__qualname__.split(".")[0] == "offset_attention"
        assert _kept_weights(backward).shape == (
            len(sa.log_sparse_offsets(L)), L)
        assert nc.rel_err(out, ref) <= 1e-12
        for g, r in zip(grads, ref_grads):
            assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))


def test_lssa_layer_below_crossover_is_masked_dense():
    rng = np.random.default_rng(9)
    L, d = nc.OFFSET_MIN_LENGTH - 1, 4
    x0, params = rng.normal(size=(L, d)), _random_layer(rng, d)
    (out, grads, entries), (ref, ref_grads, ref_entries) = \
        _layer_and_masked_dense(x0, params)
    [(_, _, backward)] = entries
    assert backward.__qualname__.split(".")[0] == "offset_attention"
    assert _kept_weights(backward).shape == (1, L, L)
    assert len(ref_entries) == 3
    # one op against the three ops it replaced: bit-identical results
    assert np.array_equal(out, ref)
    for g, r in zip(grads, ref_grads):
        assert np.array_equal(g, r)


def test_stacked_lssa_rejects_a_foreign_mask():
    # The mask must equal build_mask of the input's length: a full mask,
    # another length's mask and a copy with one pair flipped are refused
    # on either side of the crossover, before any op is recorded; an equal
    # copy runs as build_mask itself does.
    rng = np.random.default_rng(10)
    d = 4
    params = _random_layer(rng, d)
    for L in (nc.OFFSET_MIN_LENGTH - 1, nc.OFFSET_MIN_LENGTH + 1):
        x = Tensor(rng.normal(size=(L, d)), requires_grad=True)
        flipped = sa.build_mask(L).copy()
        flipped[-1, 0] = not flipped[-1, 0]
        for mask in (np.ones((L, L), dtype=bool), sa.build_mask(L - 1),
                     flipped):
            with nc.Tape() as tape:
                with pytest.raises(nc.ContractError, match="build_mask"):
                    sa.stacked_lssa(x, [params], mask)
            assert tape._entries == []
        out = sa.stacked_lssa(x, [params], sa.build_mask(L).copy())
        assert np.array_equal(
            out.data, sa.stacked_lssa(x, [params], sa.build_mask(L)).data)


def test_stacked_lssa_accepts_a_held_mask_after_eviction():
    # build_mask caches 256 lengths, so a mask held while 294 others are
    # built is no longer the cached object; it still has the right pattern.
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(5, 4)))
    layers = [_random_layer(rng, 4) for _ in range(3)]
    held = sa.build_mask(5)
    for L in range(6, 300):
        sa.build_mask(L)
    assert held is not sa.build_mask(5)
    out = sa.stacked_lssa(x, layers, held)
    assert np.array_equal(out.data,
                          sa.stacked_lssa(x, layers, sa.build_mask(5)).data)
