"""The log-sparse layer against a plain-loop oracle.

The oracle scores each query row against the explicit members of its
log_index_set, one dot product at a time, with the raw rows as values.
It shares no code with numcore.offset_attention's two kernels (shifted
row blocks from OFFSET_MIN_LENGTH on, masked-dense under build_mask
below), so a mistake that both kernels share, such as a wrong key
distance, still fails here.
"""

import math

import numpy as np
import pytest

from glot import numcore as nc
from glot import sparse_attention as sa
from glot.numcore import Tensor


def oracle_lssa_layer(x: np.ndarray, w_q: np.ndarray,
                      w_k: np.ndarray) -> np.ndarray:
    """Row p (1-based) is the softmax-weighted sum of the rows of x at
    log_index_set(p), weighted by the scaled scores q_p . k_m."""
    L = x.shape[0]
    q, k = x @ w_q, x @ w_k
    scale = 1.0 / math.sqrt(w_q.shape[1])
    out = np.zeros_like(x)
    for p in range(1, L + 1):
        members = [m - 1 for m in sa.log_index_set(p)]
        scores = [float(q[p - 1] @ k[m]) * scale for m in members]
        top = max(scores)
        weights = [math.exp(s - top) for s in scores]
        total = sum(weights)
        for m, wt in zip(members, weights):
            out[p - 1] += (wt / total) * x[m]
    return out


@pytest.mark.parametrize("L", [5, 127, 128, 200, 736])
def test_lssa_layer_matches_plain_loop_oracle(L):
    rng = np.random.default_rng(L)
    d = 6
    x = rng.normal(size=(L, d))
    w_q, w_k = (rng.normal(size=(d, d)) / 2 for _ in range(2))
    got = nc.offset_attention(Tensor(x), Tensor(w_q), Tensor(w_k)).data
    ref = oracle_lssa_layer(x, w_q, w_k)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_stacked_lssa_gradients_above_crossover():
    # 2 layers at L = 130 run the offset op, whose gradients no full-model
    # sweep reaches: every clip there is shorter than OFFSET_MIN_LENGTH.
    L, d = 130, 3
    assert L >= nc.OFFSET_MIN_LENGTH
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(L, d)), requires_grad=True)
    layers = [tuple(Tensor(rng.normal(size=(d, d)), requires_grad=True)
                    for _ in range(2))
              for _ in range(2)]
    w = Tensor(rng.normal(size=(L, d)))
    wrt = {"x": x}
    for j, (w_q, w_k) in enumerate(layers):
        wrt.update({f"lssa{j}.wq": w_q, f"lssa{j}.wk": w_k})
    checks = nc.grad_check(
        lambda: nc.tsum(nc.mul(sa.stacked_lssa(x, layers, sa.build_mask(L)),
                               w)), wrt)
    assert len(checks) == 5
    assert [(c.name, c.max_rel_err) for c in checks if not c.passed] == []
