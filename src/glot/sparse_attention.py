"""Log-sparse self-attention: index sets, masks, layers, and pair counts.

Each query position p (1-based) attends to itself plus the positions at
power-of-two distances into the past, so one layer evaluates
O(log L) scores per row and a stack of ceil(log2 L) layers gives every
position a full causal receptive field.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .numcore import ContractError, DomainError, Tensor, log_sparse_offsets


# Shortest length at which lssa_layer runs numcore.offset_attention, one
# shifted row block per key distance, instead of masking a dense L x L
# score matrix. Below it, the masked-dense op's few large BLAS calls beat
# the offset op's per-distance loop of small array calls. Forward plus
# backward of 5 stacked layers at d_b = 8 (the fused offset op against
# two matmul projections and masked-dense attention), one BLAS thread on
# a 2-vCPU Xeon, two runs: offset/dense time is about 2.0 at L = 32,
# 1.4-1.5 at L = 64, 1.15-1.2 at L = 96, 0.6-0.75 at L = 128 and 0.35-0.4
# at L = 192.
OFFSET_MIN_LENGTH = 128


@dataclass
class LssaParams:
    """Query/key projections of one attention layer (no value projection)."""
    w_q: Tensor
    w_k: Tensor


def log_index_set(p: int) -> tuple[int, ...]:
    """{p - 2^k : k = floor(log2 p) .. 0} plus p itself, dropping
    candidates below position 1, in increasing order: the positions a
    query at 1-based position p may attend to."""
    if p < 1:
        raise DomainError(f"position must be >= 1, got {p}")
    members = {p}
    if p > 1:
        for k in range(int(math.log2(p)), -1, -1):
            q = p - 2 ** k
            if q >= 1:
                members.add(q)
    return tuple(sorted(members))


@functools.lru_cache(maxsize=256)
def build_mask(length: int) -> np.ndarray:
    """Boolean LxL matrix; row p marks log_index_set(p+1) (0-based storage):
    the diagonal plus every sub-diagonal at a power-of-two distance.

    Entry (p, c) depends only on the distance p - c, so the matrix is a
    read-only Toeplitz view, strides (1, -1), of one vector of the 2L - 1
    distances: built once per length in O(L) bytes and shared by callers.
    """
    offsets = log_sparse_offsets(length)
    lags = np.zeros(2 * length - 1, dtype=bool)
    lags[[length - 1 + delta for delta in offsets]] = True
    return np.lib.stride_tricks.as_strided(
        lags[length - 1:], shape=(length, length), strides=(1, -1),
        writeable=False)


@functools.lru_cache(maxsize=256)
def causal_mask(length: int) -> np.ndarray:
    """Boolean LxL lower triangle, built once per length and read-only."""
    if length < 1:
        raise DomainError(f"length must be >= 1, got {length}")
    mask = np.tril(np.ones((length, length), dtype=bool))
    mask.setflags(write=False)
    return mask


def count_attention_pairs(length: int, mode: str) -> int:
    """Exact score evaluations one attention layer performs at this length."""
    if length < 1:
        raise DomainError(f"length must be >= 1, got {length}")
    if mode == "dense":
        return length * length
    if mode == "causal_dense":
        return length * (length + 1) // 2
    if mode == "logsparse":
        return sum(length - delta for delta in log_sparse_offsets(length))
    raise DomainError(f"unknown mode {mode!r}")


def lssa_layer(x: Tensor, params: LssaParams) -> Tensor:
    """One log-sparse attention layer over the L rows of x.

    Scores come from learned Q/K projections scaled by sqrt(d_b); the raw
    input rows act as values, so the output row p is the softmax-weighted
    mean of x over its index set. From OFFSET_MIN_LENGTH on,
    one offset_attention op projects q and k and scores only the
    O(L log L) allowed pairs, one shifted row block per key distance in
    log_sparse_offsets(L); below it, masked-dense attention under
    build_mask(L) scores the same pairs of two matmul projections.
    """
    L = x.shape[0]
    if L >= OFFSET_MIN_LENGTH:
        return nc.offset_attention(x, params.w_q, params.w_k)
    return nc.attention(nc.matmul(x, params.w_q), nc.matmul(x, params.w_k),
                        x, build_mask(L))


def stacked_lssa(x: Tensor, layer_params: list[LssaParams],
                 mask: np.ndarray) -> Tensor:
    """Sequential log-sparse layers over x; depth ceil(log2 F) makes the
    stacked receptive field fully causal. mask must equal build_mask of
    x's length, or ContractError is raised; the layers work out the
    pattern themselves, and the mask stays for the bench's pair probe."""
    if not layer_params:
        raise nc.ConfigError("stacked_lssa requires at least one layer")
    L = x.shape[0]
    expected = build_mask(L)
    if mask is not expected and not np.array_equal(mask, expected):
        raise ContractError(f"stacked_lssa: the mask must equal "
                            f"build_mask({L}), the log-sparse mask of x")
    out = x
    for params in layer_params:
        out = lssa_layer(out, params)
    return out


def default_depth(max_frames: int) -> int:
    return max(1, math.ceil(math.log2(max_frames))) if max_frames > 1 else 1


def mask_closure(mask: np.ndarray, n_compositions: int) -> np.ndarray:
    """Boolean reachability after composing the mask n times (n>=1)."""
    reach = mask.copy()
    for _ in range(n_compositions - 1):
        reach = (reach.astype(np.int64) @ mask.astype(np.int64)) > 0
    return reach
