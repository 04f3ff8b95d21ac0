"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything downstream (attention, gating, the full encoder/decoder) is
expressed in terms of the operations here, so each one carries an exact
backward rule. ``grad_check(loss, wrt)`` verifies them, from one op to the
whole model: it runs backward once over a zero-argument ``loss()`` and
compares the gradient of each named tensor in ``wrt`` against central
finite differences.

Each attention block is one taped op that projects its own inputs, and
numcore builds its pattern's mask once, as the scores it hides:
``attention`` is causal or sees every key, and ``offset_attention`` is a
whole log-sparse layer. Their forward arithmetic, and layer norm's, lives
in array kernels (``_split_heads`` and ``_attend_heads``, ``_norm_rows``)
that the taped ops call; the model's cached decoder step, which records
no gradient, splits its heads itself and calls ``_attend_heads`` (with
its own padding mask) and ``_norm_rows`` on plain arrays.

The loss is one taped op too, ``cross_entropy``. Nothing else in glot calls
``mul`` or ``tsum``; the gradient tests build their scalar losses from them.

All arithmetic is 64-bit, and nothing broadcasts: ``add`` and ``mul``
take two operands of one shape and raise ``ShapeError`` otherwise.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import GlotError


class ShapeError(GlotError, ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class ConfigError(GlotError, ValueError):
    """A structural parameter (kernel size, width, rate) is invalid."""


class ContractError(GlotError, RuntimeError):
    """An operation was invoked outside its stated contract."""


class NonFiniteError(ArithmeticError):
    """A forward operation produced NaN or Inf."""


class DomainError(GlotError, ValueError):
    """Position or length outside the valid domain."""


# The tapes entered in the current context, innermost last. Each thread
# (and asyncio task) has its own context, so it records only onto tapes it
# entered; the value is a tuple, replaced and never mutated, so no list is
# shared between contexts.
_TAPES: contextvars.ContextVar[tuple["Tape", ...]] = contextvars.ContextVar(
    "glot_tapes", default=())


class Tensor:
    """A dense real array that may participate in gradient recording."""

    __slots__ = ("data", "requires_grad", "grad", "_produced")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._produced = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError("item() requires a scalar tensor")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of operations for one backward pass.

    Entries are appended in execution order, which is topological by
    construction; ``backward`` walks them once in reverse and then clears
    the record. A tape records only the ops of the thread (or context)
    that entered it.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        _TAPES.set(_TAPES.get() + (self,))
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPES.set(tuple(t for t in _TAPES.get() if t is not self))
        return False

    def __len__(self) -> int:
        return len(self._entries)

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every requires_grad leaf reachable from loss."""
        if loss.data.size != 1:
            raise ContractError("backward requires a scalar loss")
        pending: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for out, inputs, backward_fn in reversed(self._entries):
            g = pending.pop(id(out), None)
            if g is None:
                continue
            for inp, gin in zip(inputs, backward_fn(g)):
                if gin is None or not inp.requires_grad:
                    continue
                if inp._produced:
                    key = id(inp)
                    pending[key] = pending[key] + gin if key in pending else gin
                else:
                    inp.grad = gin if inp.grad is None else inp.grad + gin
        if not loss._produced and loss.requires_grad:
            loss.grad = np.ones_like(loss.data)
        self._entries.clear()


def _check_finite(arr: np.ndarray, op: str) -> None:
    # One reduction (arr.sum() without its wrapper) on the common path: a
    # NaN or Inf makes the sum non-finite. Only a non-finite sum pays for
    # the exact check, so a finite array whose sum overflows still passes.
    if not (math.isfinite(np.add.reduce(arr, None)) or np.isfinite(arr).all()):
        raise NonFiniteError(f"{op} produced non-finite values")


def _check_finite_all(arrs: Sequence[np.ndarray], ops: Sequence[str]
                      ) -> None:
    # _check_finite of each array under its op's name, with one reduction
    # over all of them on the common path. The arrays differ in their last
    # axis only (a cached decoder step's one-row outputs), so they join
    # along it without a flattening copy each. Only a non-finite sum pays
    # for the per-array checks, which raise for the first non-finite array
    # in order; zip stops at the shorter sequence, so arrs may be a prefix.
    if not math.isfinite(np.add.reduce(np.concatenate(arrs, axis=-1), None)):
        for arr, op in zip(arrs, ops):
            _check_finite(arr, op)


def _record(data: np.ndarray, op: str, inputs: Sequence[Tensor],
            backward_fn: Callable) -> Tensor:
    _check_finite(data, op)
    out = Tensor(data)
    tapes = _TAPES.get()
    if tapes and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._produced = True
        tapes[-1]._entries.append((out, tuple(inputs), backward_fn))
    return out


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the leading axes its operand lacks: a matmul
    bias of shape () or (n,), or layer_norm's gain and bias."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise operations

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return _record(a.data + b.data, "add", (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    return _record(a.data * b.data, "mul", (a, b),
                   lambda g: (g * b.data, g * a.data))


def sigmoid(x: Tensor) -> Tensor:
    xd = x.data
    out = np.empty_like(xd)
    pos = xd >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _record(out, "sigmoid", (x,), lambda g: (g * out * (1.0 - out),))


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)
    mask = x.data > 0
    return _record(out, "relu", (x,), lambda g: (g * mask,))


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None = None,
            training: bool = False) -> Tensor:
    """Inverted dropout; in eval mode or at rate 0 it is the identity and
    returns x itself, recording nothing."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ContractError("training-mode dropout requires an RNG")
    keep = 1.0 - rate
    mask = (rng.random(x.shape) >= rate) / keep
    return _record(x.data * mask, "dropout", (x,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# shape operations

def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_channels: got {a.shape} and {b.shape}")
    wa = a.shape[1]
    out = np.concatenate([a.data, b.data], axis=1)
    return _record(out, "concat_channels", (a, b),
                   lambda g: (g[:, :wa], g[:, wa:]))


def concat_rows(*xs: Tensor) -> Tensor:
    """Stack matrices of one width; a single matrix is returned as is,
    recording nothing."""
    if not xs or any(x.data.ndim != 2 or x.shape[1] != xs[0].shape[1]
                     for x in xs):
        raise ShapeError(f"concat_rows: got {[x.shape for x in xs]}")
    if len(xs) == 1:
        return xs[0]
    bounds = np.cumsum([x.shape[0] for x in xs[:-1]])
    out = np.concatenate([x.data for x in xs], axis=0)
    return _record(out, "concat_rows", xs, lambda g: np.split(g, bounds))


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2 or not (0 <= start < stop <= x.shape[1]):
        raise ShapeError(f"slice_cols: bad range [{start}, {stop}) for {x.shape}")

    def bw(g):
        full = np.zeros_like(x.data)
        full[:, start:stop] = g
        return (full,)

    return _record(x.data[:, start:stop].copy(), "slice_cols", (x,), bw)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows start .. stop-1 of a matrix, a view of x's data (no op writes
    to its inputs); all of its rows are x itself, recording nothing."""
    if x.data.ndim != 2 or not (0 <= start < stop <= x.shape[0]):
        raise ShapeError(f"slice_rows: bad range [{start}, {stop}) for {x.shape}")
    if stop - start == x.shape[0]:
        return x

    def bw(g):
        full = np.zeros_like(x.data)
        full[start:stop] = g
        return (full,)

    return _record(x.data[start:stop], "slice_rows", (x,), bw)


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b, plus a (n,) or scalar bias on every row when one is given."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul operands must be matrices")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims {a.shape} x {b.shape}")
    out = a.data @ b.data
    if bias is None:
        return _record(out, "matmul", (a, b),
                       lambda g: (g @ b.data.T, a.data.T @ g))
    if bias.shape not in ((), (b.shape[1],)):
        raise ShapeError(f"matmul: bias {bias.shape} vs output {out.shape}")
    out += bias.data
    return _record(out, "matmul", (a, b, bias),
                   lambda g: (g @ b.data.T, a.data.T @ g,
                              _reduce_to(g, bias.shape)))


def tsum(x: Tensor) -> Tensor:
    shape = x.shape
    return _record(np.asarray(x.data.sum()), "sum", (x,),
                   lambda g: (np.full(shape, float(g)),))


def gather_rows(table: Tensor, ids: Sequence[int]) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError("gather_rows expects a matrix table")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ContractError("gather_rows: id out of range")

    def bw(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        return (full,)

    return _record(table.data[ids], "gather_rows", (table,), bw)


# ---------------------------------------------------------------------------
# loss

def cross_entropy(logits: Tensor, targets: Sequence[int],
                  weights: np.ndarray) -> Tensor:
    """Sum over the rows i of -w_i log softmax(logits)[i, t_i], with one
    target id t_i and one weight w_i per row."""
    x = logits.data
    targets = np.asarray(targets, dtype=np.int64)
    neg_w = -np.asarray(weights, dtype=np.float64)
    if x.ndim != 2 or not targets.shape == neg_w.shape == x.shape[:1]:
        raise ShapeError(f"cross_entropy: logits {x.shape}, targets "
                         f"{targets.shape}, weights {neg_w.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= x.shape[1]):
        raise ContractError("cross_entropy: target id out of range")
    shifted = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    lp = shifted - lse
    # finite logits that span more than the float range give lp = -inf
    _check_finite(lp, "cross_entropy")
    rows = np.arange(x.shape[0])

    def bw(g):
        full = np.zeros_like(x)
        full[rows, targets] = float(g) * neg_w
        return (full - np.exp(lp) * full.sum(axis=1, keepdims=True),)

    return _record(np.asarray((lp[rows, targets] * neg_w).sum()),
                   "cross_entropy", (logits,), bw)


# ---------------------------------------------------------------------------
# attention

def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(H, L, dh) -> C-contiguous (L, H*dh); C order keeps the BLAS kernel,
    and so the low bits, of a gradient's matmul fixed."""
    return np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(x.shape[1], -1)


def _split_heads(x: np.ndarray, n_heads: int, keys: bool = False
                 ) -> np.ndarray:
    """(L, d) rows as the C-contiguous per-head (H, L, d/H) array that
    _attend_heads takes, or for keys (H, d/H, L)."""
    xh = x.reshape(x.shape[0], n_heads, -1)
    return np.ascontiguousarray(xh.transpose((1, 2, 0) if keys else (1, 0, 2)))


def _attend_heads(qh: np.ndarray, kt: np.ndarray, vh: np.ndarray,
                  hide: np.ndarray | None):
    """Scores, softmax over the keys not hidden, weighted sum: the
    head-split (H, Lq, d/H) output of head-split q, k^T and v, and the
    weights alpha. hide, true on the scores a row may not see (the form
    np.copyto's where reads; None hides none), broadcasts over them."""
    alpha = qh @ kt
    alpha *= 1.0 / math.sqrt(qh.shape[2])
    if hide is not None:
        np.copyto(alpha, -np.inf, where=hide)
    alpha -= np.maximum.reduce(alpha, axis=-1, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= np.add.reduce(alpha, axis=-1, keepdims=True)
    return alpha @ vh, alpha


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray,
            hide: np.ndarray | None, n_heads: int):
    """attention's arithmetic on plain arrays: the (Lq, d) output and what
    _attend_grads needs (the per-head q, k^T, v and weights alpha)."""
    qh, kt, vh = (_split_heads(q, n_heads), _split_heads(k, n_heads, True),
                  _split_heads(v, n_heads))
    out, alpha = _attend_heads(qh, kt, vh, hide)
    return _merge_heads(out), (qh, kt, vh, alpha)


def _attend_grads(saved, g: np.ndarray):
    """Gradients of q, k and v of one _attend call for output gradient g."""
    qh, kt, vh, alpha = saved
    n_heads, Lq, dh = qh.shape
    gh = g.reshape(Lq, n_heads, dh).transpose(1, 0, 2)
    dv = alpha.transpose(0, 2, 1) @ gh
    ds = gh @ vh.transpose(0, 2, 1)
    ds -= (ds * alpha).sum(axis=-1, keepdims=True)
    ds *= alpha
    ds *= 1.0 / math.sqrt(dh)
    dq = ds @ kt.transpose(0, 2, 1)
    dk = (qh.transpose(0, 2, 1) @ ds).transpose(0, 2, 1)
    return _merge_heads(dq), _merge_heads(dk), _merge_heads(dv)


@functools.lru_cache(maxsize=512)
def _hide(pattern: str, length: int) -> np.ndarray:
    """The LxL scores that rows of a "causal" or "logsparse" pattern may
    not see, as _attend_heads takes them: built once per length and
    read-only."""
    hide = ~(build_mask(length) if pattern == "logsparse"
             else np.tril(np.ones((length, length), dtype=bool)))
    hide.setflags(write=False)
    return hide


def attention(xq: Tensor, xkv: Tensor, w_q: Tensor, w_k: Tensor,
              w_v: Tensor, w_o: Tensor, causal: bool = False,
              n_heads: int = 1,
              blocks: Sequence[tuple[int, int]] | None = None) -> Tensor:
    """One multi-head attention block, one tape entry: queries xq @ w_q,
    keys xkv @ w_k and values xkv @ w_v, scaled dot-product attention,
    causal or over every key, and the output projection heads @ w_o.

    xq is (Lq, a), xkv (Lk, b), w_q (a, e), w_k and w_v (b, e), w_o
    (e, f). Heads are the reshape (L, e) -> (H, L, e/H); scores are scaled
    by 1/sqrt(e/H) and each row is softmax-normalized over the keys it may
    see. ``blocks`` are (lq, lk) row counts that split the query and key
    rows, in order, into blocks whose query rows see only the keys of
    their own block, each block attended alone; None is the one block
    (Lq, Lk). A causal call needs lq = lk in every block, where query row
    p sees keys 0 .. p only: masked weights are exactly 0.

    The projections are finite-checked as matmul, in that order, then the
    merged heads as attention and the output as matmul. The entry keeps
    each block's head-split q, k^T, v and softmax weights and the merged
    heads, not the projections; backward hands xkv the values' term, then
    the keys', then xq the queries', which the tape adds in that order:
    the gradients of three matmul projections, attention over them and
    the output matmul, to the bit.
    """
    if (xq.data.ndim != 2 or xkv.data.ndim != 2 or w_o.data.ndim != 2
            or w_q.shape != (xq.shape[1], w_o.shape[0])
            or not w_k.shape == w_v.shape == (xkv.shape[1], w_o.shape[0])):
        raise ShapeError(f"attention: xq {xq.shape}, xkv {xkv.shape}, weights "
                         f"{w_q.shape}, {w_k.shape}, {w_v.shape}, {w_o.shape}")
    Lq, Lk, e = xq.shape[0], xkv.shape[0], w_o.shape[0]
    if n_heads < 1 or e % n_heads:
        raise ConfigError(f"attention: width {e} does not split into "
                          f"{n_heads} heads")
    blocks = [(Lq, Lk)] if blocks is None else list(blocks)
    if (not blocks or min(min(b) for b in blocks) < 1
            or tuple(map(sum, zip(*blocks))) != (Lq, Lk)):
        raise ShapeError(f"attention: blocks {blocks} do not tile "
                         f"{(Lq, Lk)}")
    if causal and any(lq != lk for lq, lk in blocks):
        raise ShapeError(f"attention: causal scores must be square, got "
                         f"{blocks}")
    q, k, v = xq.data @ w_q.data, xkv.data @ w_k.data, xkv.data @ w_v.data
    for proj in (q, k, v):
        _check_finite(proj, "matmul")
    # each block's rows of the queries, and of the keys and values
    qs, ks = ([slice(end - n, end) for n, end in
               zip(ns, itertools.accumulate(ns))] for ns in zip(*blocks))
    outs, saved = zip(*(
        _attend(q[i], k[j], v[j], _hide("causal", lq) if causal else None,
                n_heads) for (lq, _), i, j in zip(blocks, qs, ks)))
    heads = np.concatenate(outs)
    _check_finite(heads, "attention")

    def bw(g):
        gh = g @ w_o.data.T
        dq, dk, dv = (np.concatenate(gs) for gs in zip(*(
            _attend_grads(s, gh[i]) for s, i in zip(saved, qs))))
        return (dv @ w_v.data.T, dk @ w_k.data.T, dq @ w_q.data.T,
                xq.data.T @ dq, xkv.data.T @ dk, xkv.data.T @ dv, heads.T @ g)

    return _record(heads @ w_o.data, "matmul",
                   (xkv, xkv, xq, w_q, w_k, w_v, w_o), bw)


@functools.lru_cache(maxsize=256)
def log_sparse_offsets(length: int) -> tuple[int, ...]:
    """Key distances of the log-sparse pattern at this length:
    (0, 1, 2, 4, ..., 2^m) with 2^m < length. Row p (0-based) sees the
    keys p - delta for every offset delta <= p."""
    if length < 1:
        raise DomainError(f"length must be >= 1, got {length}")
    return (0,) + tuple(2 ** k for k in range((length - 1).bit_length()))


@functools.lru_cache(maxsize=256)
def build_mask(length: int) -> np.ndarray:
    """Boolean LxL log-sparse mask, row p marking the keys p - delta for
    each delta <= p in log_sparse_offsets(L) (0-based storage).

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


# Shortest length at which offset_attention runs its shifted kernel, one
# row block per key distance, instead of masking a dense L x L score
# matrix. Below it, the dense kernel's few large BLAS calls beat the
# shifted kernel's per-distance loop of small array calls. Forward plus
# backward of 5 stacked layers at d_b = 8 (the fused offset op against
# two matmul projections and masked-dense attention), one BLAS thread on
# a 2-vCPU Xeon, two runs: offset/dense time is about 2.0 at L = 32,
# 1.4-1.5 at L = 64, 1.15-1.2 at L = 96, 0.6-0.75 at L = 128 and 0.35-0.4
# at L = 192.
OFFSET_MIN_LENGTH = 128


def offset_attention(x: Tensor, w_q: Tensor, w_k: Tensor) -> Tensor:
    """One log-sparse layer, one op at every length: single-head scaled
    dot-product attention of the rows of x, with queries x @ w_q, keys
    x @ w_k (both finite-checked as matmul) and values x.

    x is (L, d) with L >= 1 and w_q, w_k are (d, e); query row p attends
    to the rows p - delta for each of the K distances delta <= p in
    log_sparse_offsets(L), with scores scaled by 1/sqrt(e). Below
    OFFSET_MIN_LENGTH the dense kernel scores all L x L pairs under
    build_mask(L). From there up the shifted kernel takes each distance
    as one shifted block of rows: its scores are the row-wise dot products
    of q[delta:] with k[:L - delta], row j of a (K, L) weight array, and
    the output and every gradient add K shifted products, so time grows
    as L*K and nothing larger than the weights is built or kept; backward
    projects q and k again. Either way x gets three gradients, the
    values' term, the keys', then the queries', which the tape adds in
    the order of the backward pass of two matmul projections and
    attention over them: the dense kernel equals that chain to the bit.
    """
    if (x.data.ndim != 2 or not x.shape[0] or w_q.data.ndim != 2
            or w_k.shape != w_q.shape or w_q.shape[0] != x.shape[1]):
        raise ShapeError(f"offset_attention: x {x.shape}, w_q {w_q.shape}, "
                         f"w_k {w_k.shape}")
    L = x.shape[0]
    xd, wq, wk = x.data, w_q.data, w_k.data
    qd = xd @ wq
    _check_finite(qd, "matmul")
    kd = xd @ wk
    _check_finite(kd, "matmul")
    if L < OFFSET_MIN_LENGTH:
        out, saved = _attend(qd, kd, xd, _hide("logsparse", L), 1)
        grads = functools.partial(_attend_grads, saved)
    else:
        offsets = log_sparse_offsets(L)
        alpha = np.full((len(offsets), L), -np.inf)
        for j, delta in enumerate(offsets):
            np.einsum("ld,ld->l", qd[delta:], kd[:L - delta],
                      out=alpha[j, delta:])
        c = 1.0 / math.sqrt(wq.shape[1])
        alpha *= c
        alpha -= np.maximum.reduce(alpha, axis=0)
        np.exp(alpha, out=alpha)
        alpha /= np.add.reduce(alpha, axis=0)
        out = _shifted_sum(alpha, xd, offsets)

        def grads(g):
            ds = np.zeros_like(alpha)
            for j, delta in enumerate(offsets):
                np.einsum("ld,ld->l", g[delta:], xd[:L - delta],
                          out=ds[j, delta:])
            ds -= np.add.reduce(ds * alpha, axis=0)
            ds *= alpha
            ds *= c
            return (_shifted_sum(ds, xd @ wk, offsets),
                    _shifted_sum(ds, xd @ wq, offsets, scatter=True),
                    _shifted_sum(alpha, g, offsets, scatter=True))

    def bw(g):
        dq, dk, dv = grads(g)
        return dv, dk @ wk.T, dq @ wq.T, xd.T @ dq, xd.T @ dk

    return _record(out, "offset_attention", (x, x, x, w_q, w_k), bw)


def _shifted_sum(w: np.ndarray, x: np.ndarray, offsets: tuple[int, ...],
                 scatter: bool = False) -> np.ndarray:
    """The sum over j of x's rows shifted by delta = offsets[j] and
    weighted by w[j] (K, L): row p adds w[j, p] * x[p - delta], or, to
    scatter, row p - delta adds w[j, p] * x[p]. Weights of p < delta are
    not read."""
    L = x.shape[0]
    out = np.zeros(x.shape)
    for j, delta in enumerate(offsets):
        if scatter:
            out[:L - delta] += w[j, delta:, None] * x[delta:]
        else:
            out[delta:] += w[j, delta:, None] * x[:L - delta]
    return out


# ---------------------------------------------------------------------------
# normalization, convolution, pooling

_NORM_EPS = 1e-5


def _norm_rows(xs: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """layer_norm's arithmetic on plain arrays: gain * xhat + bias for
    the rows xhat of xs normalized along the last axis, with xhat and the
    inverse deviations 1/sqrt(var + _NORM_EPS) that its gradient needs (one
    row's is a float, from the same sums taken as scalars). Means are sums
    over d: np.mean and np.var to the bit, without their overhead. An
    overflowing variance raises NonFiniteError rather than map its row to
    the bias."""
    d = xs.shape[-1]
    if xs.ndim == 2 and xs.shape[0] == 1:
        xc = xs - float(np.add.reduce(xs, None)) / d
        var = float(np.add.reduce(xc * xc, None)) / d
        if not math.isfinite(var):
            raise NonFiniteError("layer_norm produced non-finite values")
        inv = 1.0 / math.sqrt(var + _NORM_EPS)
    else:
        xc = xs - xs.sum(axis=-1, keepdims=True) / d
        var = (xc * xc).sum(axis=-1, keepdims=True) / d
        _check_finite(var, "layer_norm")
        inv = 1.0 / np.sqrt(var + _NORM_EPS)
    xhat = xc * inv
    return gain * xhat + bias, xhat, inv


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
               residual: Tensor) -> Tensor:
    """Normalize x + residual along the last axis (rows of a matrix
    independently); x and the residual both get its gradient.

    Uses population variance; _NORM_EPS keeps the constant-input case
    finite.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError("layer_norm: gain/bias must match the last axis")
    if residual.shape != x.shape:
        raise ShapeError(f"layer_norm: residual {residual.shape} vs "
                         f"input {x.shape}")
    out, xhat, inv = _norm_rows(x.data + residual.data, gain.data, bias.data)

    def bw(g):
        dgain = _reduce_to(g * xhat, gain.shape)
        dbias = _reduce_to(g, bias.shape)
        dxhat = g * gain.data
        dx = inv * (dxhat
                    - dxhat.sum(axis=-1, keepdims=True) / d
                    - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d))
        return (dx, dgain, dbias, dx)

    return _record(out, "layer_norm", (x, gain, bias, residual), bw)


def _clip_lengths(lengths: Sequence[int], n_rows: int, op: str) -> list[int]:
    """The row counts of the clips packed in n_rows rows, one after
    another."""
    lengths = [int(n) for n in lengths]
    if not lengths or min(lengths) < 1 or sum(lengths) != n_rows:
        raise ShapeError(f"{op}: clip lengths {lengths} do not tile "
                         f"{n_rows} rows")
    return lengths


def _clip_sums(a: np.ndarray, lengths: list[int]) -> np.ndarray:
    """(B, d) column sums of each clip's rows of a, each summed as if
    it stood alone."""
    if len(lengths) == 1:
        return a.sum(axis=0, keepdims=True)
    return np.stack([a[s:s + n].sum(axis=0) for s, n in
                     zip(itertools.accumulate(lengths, initial=0), lengths)])


def conv1d_same(x: Tensor, kernels: Tensor, bias: Tensor,
                lengths: Sequence[int]) -> Tensor:
    """Length-preserving 1-D convolution over the sequence axis of clips
    packed in x.

    x is (F, c_in), kernels (c_out, c_in, k) with odd k, bias (c_out,);
    ``lengths`` are the row counts of the clips packed in x, one after
    another. Each clip is padded with its own zeros, so no output row
    sees another clip's rows.
    """
    if x.data.ndim != 2 or kernels.data.ndim != 3:
        raise ShapeError("conv1d_same: x must be FxC, kernels CxCxK")
    c_out, c_in, k = kernels.shape
    if k % 2 == 0:
        raise ConfigError(f"conv1d_same kernel width must be odd, got {k}")
    if x.shape[1] != c_in or bias.shape != (c_out,):
        raise ShapeError("conv1d_same: channel mismatch")
    lengths = _clip_lengths(lengths, x.shape[0], "conv1d_same")
    B, h = len(lengths), k // 2
    # The clips sit in a stack with k-1 zero rows between clips (and h
    # above and below it), so clip i's rows lie i*(k-1) rows further
    # down the M outputs; the (B-1)*(k-1) outputs that straddle two clips
    # are computed and dropped.
    M = x.shape[0] + (B - 1) * (k - 1)
    rows = slice(None) if B == 1 else (
        np.arange(x.shape[0]) + np.repeat(np.arange(B) * (k - 1), lengths))
    xp = np.zeros((M + k - 1, c_in))
    xp[h:h + M][rows] = x.data
    out = np.tile(bias.data, (M, 1))
    for j in range(k):
        out += xp[j:j + M] @ kernels.data[:, :, j].T

    def bw(g):
        gp = np.zeros_like(out)
        gp[rows] = g
        dx_p = np.zeros_like(xp)
        dk = np.zeros_like(kernels.data)
        for j in range(k):
            dx_p[j:j + M] += gp @ kernels.data[:, :, j]
            dk[:, :, j] = gp.T @ xp[j:j + M]
        return (dx_p[h:h + M][rows], dk, g.sum(axis=0))

    return _record(out[rows], "conv1d_same", (x, kernels, bias), bw)


def global_avg_pool(v: Tensor, lengths: Sequence[int]) -> Tensor:
    """The (B, D) means over the sequence axis of the B clips of these
    row counts packed in an FxD matrix v."""
    if v.data.ndim != 2:
        raise ShapeError("global_avg_pool expects a matrix")
    lengths = _clip_lengths(lengths, v.shape[0], "global_avg_pool")
    n = np.array(lengths, dtype=np.float64)[:, None]
    return _record(_clip_sums(v.data, lengths) / n, "global_avg_pool", (v,),
                   lambda g: (np.repeat(g / n, lengths, axis=0),))


def gated_mix(g: Tensor, a: Tensor, b: Tensor,
              lengths: Sequence[int]) -> Tensor:
    """Row p = g[p]*a[p] + (1-g[p])*b[i]: a per-row convex mix of a (F, d)
    matrix with a (B, d) matrix by a (F, 1) gate, the rows of clip i (of
    these row counts packed in a) mixing with b[i]."""
    if (a.data.ndim != 2 or g.shape != (a.shape[0], 1)
            or b.shape != (len(lengths), a.shape[1])):
        raise ShapeError(f"gated_mix: g {g.shape}, a {a.shape}, b {b.shape}")
    lengths = _clip_lengths(lengths, a.shape[0], "gated_mix")
    b_rows = np.repeat(b.data, lengths, axis=0)
    one_minus_g = 1.0 - g.data
    out = g.data * a.data + one_minus_g * b_rows

    def bw(go):
        # two sums, not one over a - b: the arithmetic of the mul/add
        # chain this op replaced, so one clip's gradients keep their bits
        dg = ((go * a.data).sum(axis=1, keepdims=True)
              - (go * b_rows).sum(axis=1, keepdims=True))
        return dg, go * g.data, _clip_sums(go * one_minus_g, lengths)

    return _record(out, "gated_mix", (g, a, b), bw)


# ---------------------------------------------------------------------------
# gradient verification

@dataclass
class GradCheck:
    name: str
    max_rel_err: float
    passed: bool


FD_STEP = 1e-5     # the central differences' half-width


def numeric_grad(f: Callable[[], float], arr: np.ndarray) -> np.ndarray:
    """Central-difference gradient of f() w.r.t. an array it closes over."""
    flat = arr.reshape(-1)
    out = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        fp = f()
        flat[i] = orig - FD_STEP
        fm = f()
        flat[i] = orig
        out[i] = (fp - fm) / (2.0 * FD_STEP)
    return out.reshape(arr.shape)


def rel_err(a: np.ndarray, n: np.ndarray) -> float:
    """Worst-case clamped relative error between two gradient arrays."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    n = np.asarray(n, dtype=np.float64).reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def grad_check(loss: Callable[[], Tensor], wrt: dict[str, Tensor],
               tol: float = 1e-4, corrupt: str | None = None
               ) -> list[GradCheck]:
    """Compare the backward gradient of the scalar loss() with respect to
    each named tensor of wrt against central finite differences.

    One tape records loss() and one backward pass fills the analytic
    gradients (only the .grad of wrt's tensors is cleared first); then
    each tensor's data is perturbed in place, one coordinate at a time.
    ``corrupt`` names a tensor of wrt whose analytic gradient is offset by
    1, a negative control of the check itself.
    """
    if corrupt is not None and corrupt not in wrt:
        raise ConfigError(f"grad_check: no tensor named {corrupt!r} to corrupt")
    for t in wrt.values():
        t.zero_grad()
    with Tape() as tape:
        out = loss()
    tape.backward(out)
    checks = []
    for name, t in wrt.items():
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        if name == corrupt:
            analytic = analytic + 1.0
        err = rel_err(analytic, numeric_grad(lambda: loss().item(), t.data))
        checks.append(GradCheck(name, err, err <= tol))
    return checks
