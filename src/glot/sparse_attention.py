"""Log-sparse self-attention: index sets, stacked layers, and pair counts.

Each query position p (1-based) attends to itself plus the positions at
power-of-two distances into the past, so one layer evaluates
O(log L) scores per row and a stack of ceil(log2 L) layers gives every
position a full causal receptive field. One layer is one
``numcore.offset_attention`` op, and its mask ``build_mask`` is numcore's,
re-exported here.
"""

from __future__ import annotations

import math

import numpy as np

from . import numcore as nc
from .numcore import (ContractError, DomainError, Tensor, build_mask,
                       log_sparse_offsets)


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


def stacked_lssa(x: Tensor, layers: list[tuple[Tensor, Tensor]],
                 mask: np.ndarray) -> Tensor:
    """Sequential log-sparse layers over x, one numcore.offset_attention
    op per (w_q, w_k) pair; depth ceil(log2 F) makes the stacked receptive
    field fully causal. mask must equal build_mask of x's length, or
    ContractError is raised; the layers work out the pattern themselves,
    and the mask stays for the bench's pair probe."""
    if not layers:
        raise nc.ConfigError("stacked_lssa requires at least one layer")
    L = x.shape[0]
    expected = build_mask(L)
    if mask is not expected and not np.array_equal(mask, expected):
        raise ContractError(f"stacked_lssa: the mask must equal "
                            f"build_mask({L}), the log-sparse mask of x")
    out = x
    for w_q, w_k in layers:
        out = nc.offset_attention(out, w_q, w_k)
    return out


def default_depth(max_frames: int) -> int:
    return max(1, math.ceil(math.log2(max_frames))) if max_frames > 1 else 1


def mask_closure(mask: np.ndarray, n_compositions: int) -> np.ndarray:
    """Boolean reachability after composing the mask n times (n>=1)."""
    reach = mask.copy()
    for _ in range(n_compositions - 1):
        reach = (reach.astype(np.int64) @ mask.astype(np.int64)) > 0
    return reach
