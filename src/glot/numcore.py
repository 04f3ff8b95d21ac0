"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything downstream (attention, gating, the full encoder/decoder) is
expressed in terms of the operations here, so each one carries an exact
backward rule and can be verified against central finite differences via
``grad_check``.

All arithmetic is 64-bit. Broadcasting is deliberately narrow: two shapes
combine only if they are equal, one side is a scalar, a ``(d,)`` vector
meets an ``(F, d)`` matrix, or an ``(F, 1)`` column meets an ``(F, d)``
matrix. Anything richer raises ``ShapeError``.
"""

from __future__ import annotations

import contextvars
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class ConfigError(ValueError):
    """A structural parameter (kernel size, width, rate) is invalid."""


class ContractError(RuntimeError):
    """An operation was invoked outside its stated contract."""


class NonFiniteError(ArithmeticError):
    """A forward operation produced NaN or Inf."""


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
    # One reduction on the common path: a NaN or Inf makes the sum
    # non-finite. Only a non-finite sum pays for the exact check, so a
    # finite array whose sum overflows still passes.
    if not math.isfinite(arr.sum()) and not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced non-finite values")


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


# ---------------------------------------------------------------------------
# broadcasting support (restricted on purpose)

def _broadcast_ok(sa: tuple, sb: tuple) -> bool:
    if sa == sb:
        return True
    for x, y in ((sa, sb), (sb, sa)):
        if y == () or y == (1,):
            return True
        if len(x) == 2 and y == (x[1],):
            return True
        if len(x) == 2 and y == (x[0], 1):
            return True
    return False


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum-reduce a broadcast gradient back to an operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise operations

def add(a: Tensor, b: Tensor) -> Tensor:
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    out = a.data + b.data
    return _record(out, "add", (a, b),
                   lambda g: (_reduce_to(g, a.shape), _reduce_to(g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    out = a.data * b.data
    return _record(out, "mul", (a, b),
                   lambda g: (_reduce_to(g * b.data, a.shape),
                              _reduce_to(g * a.data, b.shape)))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _record(x.data * c, "scale", (x,), lambda g: (g * c,))


def add_scalar(x: Tensor, c: float) -> Tensor:
    return _record(x.data + float(c), "add_scalar", (x,), lambda g: (g,))


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


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"concat_rows: got {a.shape} and {b.shape}")
    na = a.shape[0]
    out = np.concatenate([a.data, b.data], axis=0)
    return _record(out, "concat_rows", (a, b),
                   lambda g: (g[:na], g[na:]))


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2 or not (0 <= start < stop <= x.shape[1]):
        raise ShapeError(f"slice_cols: bad range [{start}, {stop}) for {x.shape}")

    def bw(g):
        full = np.zeros_like(x.data)
        full[:, start:stop] = g
        return (full,)

    return _record(x.data[:, start:stop].copy(), "slice_cols", (x,), bw)


def broadcast_rows(v: Tensor, n_rows: int) -> Tensor:
    if v.data.ndim != 1:
        raise ShapeError(f"broadcast_rows expects a vector, got {v.shape}")
    out = np.tile(v.data, (n_rows, 1))
    return _record(out, "broadcast_rows", (v,), lambda g: (g.sum(axis=0),))


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

    return _record(table.data[ids].copy(), "gather_rows", (table,), bw)


def pick_per_row(x: Tensor, cols: Sequence[int]) -> Tensor:
    cols = np.asarray(cols, dtype=np.int64)
    if x.data.ndim != 2 or cols.shape != (x.shape[0],):
        raise ShapeError("pick_per_row: need one column index per row")
    if cols.size and (cols.min() < 0 or cols.max() >= x.shape[1]):
        raise ContractError("pick_per_row: column index out of range")
    rows = np.arange(x.shape[0])

    def bw(g):
        full = np.zeros_like(x.data)
        full[rows, cols] = g
        return (full,)

    return _record(x.data[rows, cols].copy(), "pick_per_row", (x,), bw)


# ---------------------------------------------------------------------------
# softmax family

def log_softmax_rows(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError("log_softmax_rows expects a matrix")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = shifted - lse

    def bw(g):
        return (g - np.exp(out) * g.sum(axis=1, keepdims=True),)

    return _record(out, "log_softmax_rows", (x,), bw)


# ---------------------------------------------------------------------------
# attention

def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(H, L, dh) -> C-contiguous (L, H*dh); C order keeps the BLAS kernel,
    and so the low bits, of a matmul that consumes a gradient fixed."""
    return np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(x.shape[1], -1)


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None,
              n_heads: int = 1) -> Tensor:
    """Multi-head scaled dot-product attention restricted to a mask.

    q is (Lq, d), k and v are (Lk, d) and mask is a boolean (Lq, Lk)
    pattern shared by every head, or None to allow every key. Heads are the
    reshape (L, d) -> (H, L, d/H); scores are scaled by 1/sqrt(d/H) and
    each row is softmax-normalized over its mask-true entries only, so
    masked weights are exactly 0. The per-head outputs are laid side by
    side into an (Lq, d) result.
    """
    if q.data.ndim != 2 or k.shape != v.shape or k.shape[1:] != q.shape[1:]:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}")
    (Lq, d), Lk = q.shape, k.shape[0]
    if n_heads < 1 or d % n_heads:
        raise ConfigError(f"attention: width {d} does not split into "
                          f"{n_heads} heads")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (Lq, Lk):
            raise ShapeError(f"attention: mask {mask.shape} vs scores "
                             f"{(Lq, Lk)}")
        if not mask.any(axis=1).all():
            raise ContractError("attention: a row has no allowed entries")
    dh = d // n_heads
    c = 1.0 / math.sqrt(dh)
    qh = np.ascontiguousarray(q.data.reshape(Lq, n_heads, dh).transpose(1, 0, 2))
    kt = np.ascontiguousarray(k.data.reshape(Lk, n_heads, dh).transpose(1, 2, 0))
    vh = np.ascontiguousarray(v.data.reshape(Lk, n_heads, dh).transpose(1, 0, 2))
    alpha = qh @ kt
    alpha *= c
    if mask is not None:
        np.copyto(alpha, -np.inf, where=~mask)
    alpha -= alpha.max(axis=-1, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum(axis=-1, keepdims=True)

    def bw(g):
        gh = g.reshape(Lq, n_heads, dh).transpose(1, 0, 2)
        dv = alpha.transpose(0, 2, 1) @ gh
        ds = gh @ vh.transpose(0, 2, 1)
        ds -= (ds * alpha).sum(axis=-1, keepdims=True)
        ds *= alpha
        ds *= c
        dq = ds @ kt.transpose(0, 2, 1)
        dk = (qh.transpose(0, 2, 1) @ ds).transpose(0, 2, 1)
        return _merge_heads(dq), _merge_heads(dk), _merge_heads(dv)

    return _record(_merge_heads(alpha @ vh), "attention", (q, k, v), bw)


@functools.lru_cache(maxsize=256)
def offset_table(length: int, offsets: tuple[int, ...]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(length, K) table of the key rows p - offsets[j] of each query row
    p, and the mask of its valid slots (p - offsets[j] >= 0); invalid
    slots hold row 0. Cached per (length, offsets) and read-only."""
    idx = np.arange(length)[:, None] - np.asarray(offsets, dtype=np.int64)
    valid = idx >= 0
    idx[~valid] = 0
    idx.setflags(write=False)
    valid.setflags(write=False)
    return idx, valid


def offset_attention(q: Tensor, k: Tensor, v: Tensor,
                     offsets: Sequence[int]) -> Tensor:
    """Single-head scaled dot-product attention over fixed key distances.

    q, k and v are (L, d); query row p attends to the rows p - delta of k
    and v for each delta in offsets with delta <= p. The K = len(offsets)
    keys and values of every row are gathered into (L, K, d) arrays, so
    time and memory grow as L*K rather than L*L. Scores are scaled by
    1/sqrt(d) and softmax-normalized over a row's valid slots only. The
    result equals attention(q, k, v, mask) with mask[p, p - delta] true.
    """
    offsets = tuple(int(o) for o in offsets)
    if q.data.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"offset_attention: q {q.shape}, k {k.shape}, "
                         f"v {v.shape}")
    L, d = q.shape
    if 0 not in offsets or not all(0 <= o < L for o in offsets):
        raise ContractError(f"offset_attention: offsets {offsets} must "
                            f"include 0 and lie in [0, {L})")
    idx, valid = offset_table(L, offsets)
    c = 1.0 / math.sqrt(d)
    kg, vg = np.take(k.data, idx, axis=0), np.take(v.data, idx, axis=0)
    alpha = np.einsum("lkd,ld->lk", kg, q.data)
    alpha *= c
    np.copyto(alpha, -np.inf, where=~valid)
    alpha -= alpha.max(axis=1, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum(axis=1, keepdims=True)

    def bw(g):
        ds = np.einsum("lkd,ld->lk", vg, g)
        ds -= (ds * alpha).sum(axis=1, keepdims=True)
        ds *= alpha
        ds *= c
        dq = (ds[:, None, :] @ kg)[:, 0]
        dk, dv = np.zeros_like(k.data), np.zeros_like(v.data)
        # Scatter-back of the gather: slot j of row p came from row p - delta.
        for j, delta in enumerate(offsets):
            dk[:L - delta] += ds[delta:, j, None] * q.data[delta:]
            dv[:L - delta] += alpha[delta:, j, None] * g[delta:]
        return dq, dk, dv

    return _record((alpha[:, None, :] @ vg)[:, 0], "offset_attention",
                   (q, k, v), bw)


# ---------------------------------------------------------------------------
# normalization, convolution, pooling

def layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
               residual: Tensor | None = None, eps: float = 1e-5) -> Tensor:
    """Normalize along the last axis (rows of a matrix independently).

    With a residual, the input is x + residual, and both get its gradient.
    Uses population variance; eps keeps the constant-input case finite.
    Means are sums over d, which is the arithmetic of np.mean and np.var
    to the bit without their per-call overhead.
    """
    if eps <= 0:
        raise ConfigError("layer_norm eps must be positive")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError("layer_norm: gain/bias must match the last axis")
    if residual is None:
        xs, inputs = x.data, (x, gain, bias)
    elif residual.shape == x.shape:
        xs, inputs = x.data + residual.data, (x, gain, bias, residual)
    else:
        raise ShapeError(f"layer_norm: residual {residual.shape} vs "
                         f"input {x.shape}")
    xc = xs - xs.sum(axis=-1, keepdims=True) / d
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = gain.data * xhat + bias.data

    def bw(g):
        dgain = _reduce_to(g * xhat, gain.shape)
        dbias = _reduce_to(g, bias.shape)
        dxhat = g * gain.data
        dx = inv * (dxhat
                    - dxhat.sum(axis=-1, keepdims=True) / d
                    - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d))
        # x and the residual share dx; without a residual the fourth
        # entry has no input to meet and is dropped.
        return (dx, dgain, dbias, dx)

    return _record(out, "layer_norm", inputs, bw)


def conv1d_same(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Length-preserving 1-D convolution over the sequence axis.

    x is (F, c_in), kernels (c_out, c_in, k) with odd k, bias (c_out,);
    positions outside the sequence are zero.
    """
    if x.data.ndim != 2 or kernels.data.ndim != 3:
        raise ShapeError("conv1d_same: x must be FxC, kernels CxCxK")
    c_out, c_in, k = kernels.shape
    if k % 2 == 0:
        raise ConfigError(f"conv1d_same kernel width must be odd, got {k}")
    if x.shape[1] != c_in or bias.shape != (c_out,):
        raise ShapeError("conv1d_same: channel mismatch")
    F = x.shape[0]
    h = k // 2
    xp = np.zeros((F + k - 1, c_in))
    xp[h:h + F] = x.data
    out = np.tile(bias.data, (F, 1))
    for j in range(k):
        out += xp[j:j + F] @ kernels.data[:, :, j].T

    def bw(g):
        dx_p = np.zeros_like(xp)
        dk = np.zeros_like(kernels.data)
        for j in range(k):
            dx_p[j:j + F] += g @ kernels.data[:, :, j]
            dk[:, :, j] = g.T @ xp[j:j + F]
        return (dx_p[h:h + F], dk, g.sum(axis=0))

    return _record(out, "conv1d_same", (x, kernels, bias), bw)


def global_avg_pool(v: Tensor) -> Tensor:
    """Mean over the sequence axis of an FxD matrix, producing a D vector."""
    if v.data.ndim != 2:
        raise ShapeError("global_avg_pool expects a matrix")
    F = v.shape[0]
    if F < 1:
        raise ShapeError("global_avg_pool: empty sequence")
    out = v.data.mean(axis=0)
    return _record(out, "global_avg_pool", (v,),
                   lambda g: (np.tile(g / F, (F, 1)),))


# ---------------------------------------------------------------------------
# gradient verification

@dataclass
class GradCheckReport:
    max_rel_err: float
    passed: bool
    n_coords: int


def numeric_grad(f: Callable[[], float], arr: np.ndarray,
                 step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of f() w.r.t. an array it closes over."""
    flat = arr.reshape(-1)
    out = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f()
        flat[i] = orig - step
        fm = f()
        flat[i] = orig
        out[i] = (fp - fm) / (2.0 * step)
    return out.reshape(arr.shape)


def rel_err(a: np.ndarray, n: np.ndarray) -> float:
    """Worst-case clamped relative error between two gradient arrays."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    n = np.asarray(n, dtype=np.float64).reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def grad_check(f: Callable[[Tensor], Tensor], point: Tensor,
               step: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare backward gradients of a scalar function against central
    finite differences, coordinate by coordinate."""
    if step <= 0:
        raise ConfigError("grad_check step must be positive")
    x = Tensor(point.data.copy(), requires_grad=True)
    with Tape() as tape:
        loss = f(x)
    tape.backward(loss)
    analytic = x.grad if x.grad is not None else np.zeros_like(x.data)
    worst = rel_err(analytic, numeric_grad(lambda: f(x).item(), x.data, step))
    return GradCheckReport(max_rel_err=worst, passed=worst <= tol,
                           n_coords=x.data.size)
