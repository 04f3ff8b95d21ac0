"""The gated log-sparse encoder/decoder model.

The encoder splits each d_model-wide frame embedding into two halves:
the first half goes through a same-length 1-D convolution, the second
through stacked log-sparse self-attention whose output is fused, via a
learned per-position gate, with a global-average-pooled value projection
of the same stream. The concatenated branches are added back to the input
and layer-normalized. A standard multi-head transformer decoder produces
gloss tokens first, then text conditioned on encoder memory plus the
embedded gloss.

A dense-attention baseline encoder (full bidirectional multi-head
self-attention + feed-forward) is available behind the same interface for
A/B comparisons.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import numcore as nc
from . import sparse_attention as sa
from .dataio import BOS, EOS, DataError, Vocabulary
from .errors import GlotError
from .numcore import ConfigError, Tensor

CHECKPOINT_MAGIC = b"GLOTCKPT"
CHECKPOINT_VERSION = 1
CONV_KERNEL = 3     # width of the conv branch's same-length convolution
# Config keys that older checkpoint headers carry, each with the one value
# a checkpoint may hold: positions are sinusoidal, the conv kernel fixed,
# and there is one encoder block and one decoder layer per stage.
RETIRED_CONFIG_KEYS = {"pe_kind": "sinusoidal", "conv_kernel": CONV_KERNEL,
                       "n_encoders": 1, "n_decoders": 1}


# The values a config field of each annotated type accepts: a float field
# takes an int too, and a bool, though an int to Python, is neither. The
# config modules postpone annotations, so each field's type is its text.
_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,),
                "None": (type(None),)}


def check_field_types(cfg) -> None:
    """Raise ConfigError naming the first field of the config dataclass
    cfg whose value is not of its annotated type."""
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        kinds = sum((_FIELD_TYPES[t] for t in f.type.split(" | ")), ())
        if isinstance(val, bool) or not isinstance(val, kinds):
            raise ConfigError(f"config {f.name}={val!r} is not a valid "
                              f"{f.type}")


@dataclass
class GlotConfig:
    d_model: int = 8
    n_heads: int = 2
    ff_size: int = 8
    dropout: float = 0.0
    n_lssa_layers: int = 0          # 0 means auto: max(1, ceil(log2 max_frames))
    max_frames: int = 64
    max_target_len: int = 16
    gloss_vocab_size: int = 7
    text_vocab_size: int = 11
    feat_dim: int = 5
    encoder_kind: str = "glot"      # "glot" or "dense_baseline"

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        check_field_types(self)
        if self.d_model < 2 or self.d_model % 2:
            raise ConfigError("d_model must be even and >= 2")
        if self.n_heads < 1:
            raise ConfigError("n_heads must be positive")
        if self.d_model % self.n_heads:
            raise ConfigError("d_model must be divisible by n_heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if self.encoder_kind not in ("glot", "dense_baseline"):
            raise ConfigError(f"unknown encoder_kind {self.encoder_kind!r}")
        for name in ("ff_size", "max_frames", "max_target_len",
                     "gloss_vocab_size", "text_vocab_size", "feat_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.n_lssa_layers < 0:
            raise ConfigError("n_lssa_layers must be >= 0 (0 means auto)")

    @property
    def d_branch(self) -> int:
        return self.d_model // 2

    @property
    def lssa_depth(self) -> int:
        if self.n_lssa_layers:
            return self.n_lssa_layers
        return sa.default_depth(self.max_frames)

    @classmethod
    def set1(cls, **overrides) -> "GlotConfig":
        """Large preset: 512 hidden units, 8 heads, ff 2048, dropout 0.1."""
        cfg = cls(d_model=512, n_heads=8, ff_size=2048, dropout=0.1)
        return replace(cfg, **overrides)

    @classmethod
    def set2(cls, **overrides) -> "GlotConfig":
        """Small preset: 256 hidden units, 8 heads, ff 256, no dropout."""
        cfg = cls(d_model=256, n_heads=8, ff_size=256, dropout=0.0)
        return replace(cfg, **overrides)

    @classmethod
    def tiny(cls, **overrides) -> "GlotConfig":
        """Desk-scale preset for tests and gradient checking."""
        cfg = cls(d_model=8, n_heads=2, ff_size=8, dropout=0.0,
                  max_frames=16, max_target_len=12)
        return replace(cfg, **overrides)


def parameter_specs(cfg: GlotConfig):
    """Every parameter of a model of this config as (name, shape, init),
    in the order the model initializes, stores and checkpoints them. init
    is "ones", "zeros", or the bound b of a uniform draw in [-b, b); the
    draws take the rng in this order. The one encoder block's names start
    "enc0.", each stage's one decoder layer's "dec_<stage>0."."""
    d, d_b = cfg.d_model, cfg.d_branch

    def norm(prefix: str):
        yield prefix + "_g", (d,), "ones"
        yield prefix + "_b", (d,), "zeros"

    def feed_forward(pre: str):
        yield pre + "ff.w1", (d, cfg.ff_size), 1.0 / math.sqrt(d)
        yield pre + "ff.b1", (cfg.ff_size,), "zeros"
        yield pre + "ff.w2", (cfg.ff_size, d), 1.0 / math.sqrt(cfg.ff_size)
        yield pre + "ff.b2", (d,), "zeros"

    yield "frame_embed", (cfg.feat_dim, d), 1.0 / math.sqrt(cfg.feat_dim)
    pre = "enc0."
    if cfg.encoder_kind == "glot":
        yield (pre + "conv_w", (d_b, d_b, CONV_KERNEL),
               1.0 / math.sqrt(d_b * CONV_KERNEL))
        yield pre + "conv_b", (d_b,), "zeros"
        for j in range(cfg.lssa_depth):
            yield pre + f"lssa{j}.wq", (d_b, d_b), 1.0 / math.sqrt(d_b)
            yield pre + f"lssa{j}.wk", (d_b, d_b), 1.0 / math.sqrt(d_b)
        yield pre + "wv", (d_b, d_b), 1.0 / math.sqrt(d_b)
        yield pre + "gate_w", (d_b, 1), 0.1
        yield pre + "gate_b", (), 0.1
        yield from norm(pre + "norm")
    else:
        for w in ("wq", "wk", "wv", "wo"):
            yield pre + "attn." + w, (d, d), 1.0 / math.sqrt(d)
        yield from norm(pre + "attn_norm")
        yield from feed_forward(pre)
        yield from norm(pre + "ff_norm")

    for stage, vocab in (("gloss", cfg.gloss_vocab_size),
                         ("text", cfg.text_vocab_size)):
        yield f"embed_{stage}", (vocab, d), 1.0 / math.sqrt(d)
        pre = f"dec_{stage}0."
        for grp in ("self", "cross"):
            for w in ("wq", "wk", "wv", "wo"):
                yield pre + f"{grp}.{w}", (d, d), 1.0 / math.sqrt(d)
            yield from norm(pre + f"{grp}_norm")
        yield from feed_forward(pre)
        yield from norm(pre + "ff_norm")
        yield f"out_{stage}.w", (d, vocab), 1.0 / math.sqrt(d)
        yield f"out_{stage}.b", (vocab,), "zeros"


def positional_encoding(length: int, width: int) -> np.ndarray:
    """Sinusoidal table: even columns sin(t / 10000^(2i/d)), odd cos."""
    if width % 2:
        raise ConfigError("positional encoding width must be even")
    t = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(width // 2, dtype=np.float64)[None, :]
    angle = t / np.power(10000.0, 2.0 * i / width)
    table = np.zeros((length, width))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table


class StepWeights(NamedTuple):
    """The arrays of one decoder stage that a cached step reads, fetched
    once per stage. The self-attention's query, key and value weights
    stand side by side as [wq|wk|wv], and the cross-attention's key and
    value weights as [wk|wv], so one matmul projects each: on float64
    BLAS the column blocks of x @ [A|B] equal x @ A and x @ B to the bit.
    Each norm is its (gain, bias)."""
    embed: np.ndarray
    self_qkv: np.ndarray
    self_wo: np.ndarray
    self_norm: tuple[np.ndarray, np.ndarray]
    cross_wq: np.ndarray
    cross_kv: np.ndarray
    cross_wo: np.ndarray
    cross_norm: tuple[np.ndarray, np.ndarray]
    ff_w1: np.ndarray
    ff_b1: np.ndarray
    ff_w2: np.ndarray
    ff_b2: np.ndarray
    ff_norm: tuple[np.ndarray, np.ndarray]
    out_w: np.ndarray
    out_b: np.ndarray


class DecoderCache:
    """Decoder state carried across the steps of one greedy stage, for a
    group of sequences decoded in lockstep (a lone sequence is a group of
    one).

    A cache serves one stage over one memory: one memory Tensor for a
    lone sequence, or a list of them, one per sequence. Its first step
    records the stage and the memory object, fetches the stage's
    StepWeights and projects the memory's cross-attention keys and values
    once; a later step with another stage or another memory raises
    ContractError before it does any work. Keys and values are kept split
    into heads as the attention kernel takes them: keys as (B*H, d/H,
    rows), values as (B*H, rows, d/H), rows b*H .. b*H + H-1 of the
    leading axis being sequence b's heads, so that the kernel runs on the
    3-D stacks of a lone sequence whatever B is. The cross-attention ones
    are zero-padded to the group's longest memory, and cross_hide
    (B*H, 1, rows), true on each sequence's padding and built once per
    stage, keeps the padding out of the softmax; it is None when no
    sequence is padded. The self-attention keys and values grow by one
    position per step, stored only once the step's check passes;
    keep_only drops finished sequences from every cached array. All are
    None before the first step. They are plain arrays, so a cached step
    records no gradient: the cache is for inference.
    """

    def __init__(self):
        self.start = 0      # positions already decoded
        self.stage: str | None = None
        self.memory: Tensor | list[Tensor] | None = None
        self.weights: StepWeights | None = None
        self.self_kv: tuple[np.ndarray, np.ndarray] | None = None
        self.cross_kv: tuple[np.ndarray, np.ndarray] | None = None
        self.cross_hide: np.ndarray | None = None
        self.size = 0       # sequences still decoded

    def extend(self, kt: np.ndarray, vh: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """The cached head-split keys and values with this step's joined
        after them; the cache itself is left as it is."""
        if self.self_kv is None:
            return kt, vh
        old_kt, old_vh = self.self_kv
        return (np.concatenate([old_kt, kt], axis=2),
                np.concatenate([old_vh, vh], axis=1))

    def keep_only(self, live: list[bool]) -> None:
        """Keep the sequences whose entry in live is true, in their order,
        and drop the rows of the others from every cached array."""
        heads = len(self.cross_kv[0]) // self.size
        self.size = sum(live)
        live = np.repeat(np.asarray(live, dtype=bool), heads)
        self.self_kv = tuple(a[live] for a in self.self_kv)
        self.cross_kv = tuple(a[live] for a in self.cross_kv)
        if self.cross_hide is not None:
            self.cross_hide = self.cross_hide[live]


def _cross_heads(memories: list[np.ndarray], w_kv: np.ndarray,
                 n_heads: int):
    """The cross-attention keys and values of sequences over these
    memories: each memory is projected by w_kv = [wk|wv] and finite-checked
    as a matmul on its own, as a lone decode projects it, and written
    zero-padded to the longest, F rows, into head-split (B*H, d/H, F) keys
    and (B*H, F, d/H) values, sequence b's heads at b*H .. b*H + H-1. Also
    the (B*H, 1, F) mask of each sequence's padding rows, as the attention
    kernel takes it, or None when every memory has F rows."""
    rows = [len(m) for m in memories]
    B, F, d = len(rows), max(rows), w_kv.shape[1] // 2
    dh = d // n_heads
    kt, vh = np.zeros((B, n_heads, dh, F)), np.zeros((B, n_heads, F, dh))
    for b, (mem, n) in enumerate(zip(memories, rows)):
        kv = mem @ w_kv
        nc._check_finite(kv, "matmul")
        kt[b, ..., :n] = kv[:, :d].reshape(n, n_heads, dh).transpose(1, 2, 0)
        vh[b, :, :n] = kv[:, d:].reshape(n, n_heads, dh).transpose(1, 0, 2)
    hide = None
    if min(rows) < F:
        hide = np.repeat(np.arange(F) >= np.array(rows)[:, None], n_heads,
                         axis=0)[:, None, :]
    return (kt.reshape(B * n_heads, dh, F), vh.reshape(B * n_heads, F, dh),
            hide)


# The op whose forward kernel makes each output of a cached decoder step,
# in the step's order: the names its finite check reports.
STEP_CHECKS = ("gather_rows", "add",                          # embedding + PE
               "matmul", "attention", "matmul", "layer_norm",  # self q|k|v
               "matmul", "attention", "matmul", "layer_norm",  # cross
               "matmul", "relu", "matmul", "layer_norm",       # feed-forward
               "matmul")                                       # output logits


# Clips that greedy_decode_batch decodes in lockstep at most: the batch
# size of both training presets.
DECODE_GROUP = 32


@dataclass
class GreedyResult:
    gloss_ids: list[int]
    text_ids: list[int]
    gloss_truncated: bool
    text_truncated: bool


class GlotModel:
    """Holds all learned parameters and implements every forward path.
    Given params (parameter_specs' names, in order), it draws none."""

    def __init__(self, config: GlotConfig,
                 gloss_vocab: Vocabulary | None = None,
                 text_vocab: Vocabulary | None = None,
                 seed: int = 0, params: dict[str, Tensor] | None = None):
        config.validate()
        if seed < 0:
            raise ConfigError(f"seed must be non-negative, got {seed}")
        if gloss_vocab is not None and len(gloss_vocab) != config.gloss_vocab_size:
            raise ConfigError("gloss vocabulary size disagrees with config")
        if text_vocab is not None and len(text_vocab) != config.text_vocab_size:
            raise ConfigError("text vocabulary size disagrees with config")
        self.config = config
        self.gloss_vocab = gloss_vocab
        self.text_vocab = text_vocab
        self.training = False
        self._dropout_rng = np.random.default_rng(seed + 1)
        self._pe_table: np.ndarray | None = None
        self.params: dict[str, Tensor] = {} if params is None else params
        if params is None:
            self._init_params(np.random.default_rng(seed))

    # ------------------------------------------------------------------
    # parameters

    def _init_params(self, rng: np.random.Generator) -> None:
        for name, shape, init in parameter_specs(self.config):
            if init == "ones":
                data = np.ones(shape)
            elif init == "zeros":
                data = np.zeros(shape)
            else:
                data = rng.uniform(-init, init, size=shape)
            self.params[name] = Tensor(data, requires_grad=True)

    def train(self) -> None:
        self.training = True

    def eval(self) -> None:
        self.training = False

    # ------------------------------------------------------------------
    # shared pieces

    def _dropout(self, x: Tensor) -> Tensor:
        return nc.dropout(x, self.config.dropout, rng=self._dropout_rng,
                          training=self.training)

    def _sinusoids(self, stop: int) -> np.ndarray:
        """Rows 0 .. stop-1 of the sinusoidal table, which is built to the
        longest position asked for so far: rows of a longer table are
        bit-identical to positional_encoding(stop, d)."""
        if self._pe_table is None or len(self._pe_table) < stop:
            self._pe_table = positional_encoding(stop, self.config.d_model)
            self._pe_table.setflags(write=False)
        return self._pe_table[:stop]

    def _pe(self, lengths: list[int]) -> Tensor:
        """Positional rows 0 .. n-1 for each n in lengths, stacked as the
        rows of sequences packed one after another."""
        table = self._sinusoids(max(lengths))
        if len(lengths) == 1:
            return Tensor(table)
        return Tensor(np.concatenate([table[:n] for n in lengths]))

    def _mha(self, prefix: str, xq: Tensor, xkv: Tensor,
             causal: bool = False,
             blocks: list[tuple[int, int]] | None = None) -> Tensor:
        """Multi-head attention, causal or over every key, one nc.attention
        op; blocks make the pattern block-diagonal."""
        w = (self.params[prefix + n] for n in ("wq", "wk", "wv", "wo"))
        return nc.attention(xq, xkv, *w, causal, self.config.n_heads, blocks)

    def _feed_forward(self, prefix: str, x: Tensor) -> Tensor:
        p = self.params
        h = nc.relu(nc.matmul(x, p[prefix + "ff.w1"], p[prefix + "ff.b1"]))
        h = self._dropout(h)
        return nc.matmul(h, p[prefix + "ff.w2"], p[prefix + "ff.b2"])

    def _norm(self, prefix: str, x: Tensor, residual: Tensor) -> Tensor:
        """layer_norm(x + residual) with the prefix's gain and bias."""
        return nc.layer_norm(x, self.params[prefix + "_g"],
                             self.params[prefix + "_b"], residual)

    # ------------------------------------------------------------------
    # encoder

    def embed_frames(self, frames: list[np.ndarray]) -> Tensor:
        """The frame embeddings plus positions of a batch of clips, packed
        one clip after another; each clip's positions start at 0."""
        frames = [np.asarray(f, dtype=np.float64) for f in frames]
        for f in frames:
            if f.ndim != 2 or f.shape[1] != self.config.feat_dim:
                raise nc.ShapeError(
                    f"frames must be Fx{self.config.feat_dim}, got {f.shape}")
            if f.shape[0] > self.config.max_frames:
                raise nc.ShapeError(
                    f"{f.shape[0]} frames exceed max_frames="
                    f"{self.config.max_frames}")
        x = nc.matmul(Tensor(np.concatenate(frames)),
                      self.params["frame_embed"])
        x = nc.add(x, self._pe([len(f) for f in frames]))
        return self._dropout(x)

    def gate_value(self, lssa_out: Tensor) -> Tensor:
        """Per-position scalar gate in (0,1): sigmoid(<w, row> + b)."""
        p = self.params
        return nc.sigmoid(nc.matmul(lssa_out, p["enc0.gate_w"],
                                    p["enc0.gate_b"]))

    def encoder_block_glot(self, x: Tensor, lengths: list[int]) -> Tensor:
        """The GLoT block over clips of these row counts packed in x. Only
        the log-sparse stack runs per clip, on that clip's rows."""
        p = self.params
        pre = "enc0."
        d_b = self.config.d_branch
        x1 = nc.slice_cols(x, 0, d_b)
        x2 = nc.slice_cols(x, d_b, self.config.d_model)

        conv_out = nc.conv1d_same(x1, p[pre + "conv_w"], p[pre + "conv_b"],
                                  lengths)

        layers = [sa.LssaParams(p[pre + f"lssa{j}.wq"], p[pre + f"lssa{j}.wk"])
                  for j in range(self.config.lssa_depth)]
        lssa_out = nc.concat_rows(*[
            sa.stacked_lssa(nc.slice_rows(x2, s, s + F), layers,
                            sa.build_mask(F))
            for s, F in zip(itertools.accumulate(lengths, initial=0),
                            lengths)])
        values = nc.matmul(x2, p[pre + "wv"])
        gap = nc.global_avg_pool(values, lengths)
        g = self.gate_value(lssa_out)
        fused = nc.gated_mix(g, lssa_out, gap, lengths)

        return self._norm(pre + "norm", x, nc.concat_channels(conv_out, fused))

    def encoder_block_dense(self, x: Tensor, lengths: list[int]) -> Tensor:
        """The transformer block over clips of these row counts packed in
        x; self-attention stays within each clip."""
        pre = "enc0."
        attn = self._mha(pre + "attn.", x, x, blocks=[(F, F) for F in lengths])
        x = self._norm(pre + "attn_norm", x, self._dropout(attn))
        ff = self._feed_forward(pre, x)
        return self._norm(pre + "ff_norm", x, self._dropout(ff))

    def encode(self, frames: list[np.ndarray]) -> Tensor:
        """Encoder memory of a batch of clips, packed one clip after
        another: row-wise layers run once over all rows, and no clip's
        rows see another's."""
        block = (self.encoder_block_glot if self.config.encoder_kind == "glot"
                 else self.encoder_block_dense)
        return block(self.embed_frames(frames), [len(f) for f in frames])

    # ------------------------------------------------------------------
    # decoder

    def _stage_vocab_size(self, stage: str) -> int:
        return (self.config.gloss_vocab_size if stage == "gloss"
                else self.config.text_vocab_size)

    def decoder_forward(self, memory: Tensor | list[Tensor],
                        token_ids: list[int], stage: str,
                        cache: DecoderCache | None = None,
                        blocks: list[tuple[int, int]] | None = None
                        ) -> Tensor:
        """Causal self-attention over the target prefix, cross-attention
        over memory, feed-forward; returns L x vocab logits.

        Without a cache, every op records onto the open tape. ``blocks``
        packs several sequences, one (target rows, memory rows) pair each,
        that split token_ids and memory in order: each sequence's rows
        take positions from 0 and attend only to the rows of their own
        sequence and of its memory. Without blocks, token_ids is one
        sequence from position 0 over all of memory.

        With a cache (eval mode only: a step applies no dropout), the call
        is one step of a group of sequences decoded in lockstep
        (DecoderCache): memory is one sequence's memory Tensor, or a list
        of them, one per sequence, and takes no blocks. token_ids holds
        one id for each sequence the cache still decodes (on its first
        step, one per memory; any other count raises ContractError), at
        the position after the cache.start already decoded. Each id's row
        alone is computed, on plain arrays, by the forward kernels of the
        ops above, all rows at once; their keys and values join the cache,
        and one check of all the kernels' outputs names the first
        non-finite one by its op. The B x vocab logits, one row per id,
        come back as a Tensor that records nothing.
        """
        if stage not in ("gloss", "text"):
            raise nc.ConfigError(f"unknown decoder stage {stage!r}")
        vocab = self._stage_vocab_size(stage)
        if len(token_ids) and not (0 <= min(token_ids)
                                   and max(token_ids) < vocab):
            raise DataError(f"token id out of range for {stage} vocabulary")
        limit = self.config.max_target_len + 2
        if cache is not None:
            if blocks is not None:
                raise nc.ContractError("a cached decoder step takes one "
                                       "memory per sequence, and no blocks")
            if self.training:
                raise nc.ContractError("a cached decoder step applies no "
                                       "dropout; it runs in eval mode only")
            if cache.stage is None:
                n = 1 if isinstance(memory, Tensor) else len(memory)
            elif stage != cache.stage or memory is not cache.memory:
                raise nc.ContractError(
                    f"a decoder cache serves one stage over one memory: "
                    f"this one serves the {cache.stage} stage over the "
                    f"memory of its first step")
            else:
                n = cache.size
            if len(token_ids) != n or not n:
                raise nc.ContractError(
                    f"a cached decoder step takes one token id per sequence "
                    f"it decodes: {n} expected, got {len(token_ids)}")
            longest = cache.start + 1
            if longest > limit:
                raise DataError(f"target length {longest} exceeds limit")
            return self._decoder_step(memory, token_ids, stage, cache)
        if blocks is None:
            blocks = [(len(token_ids), memory.shape[0])]
        lengths = [t for t, _ in blocks]
        longest = max(lengths)
        if longest > limit:
            raise DataError(f"target length {longest} exceeds limit")
        self_blocks = [(t, t) for t in lengths]
        p = self.params
        h = nc.gather_rows(p[f"embed_{stage}"], token_ids)
        h = nc.add(h, self._pe(lengths))
        h = self._dropout(h)
        pre = f"dec_{stage}0."
        attn = self._mha(pre + "self.", h, h, True, self_blocks)
        h = self._norm(pre + "self_norm", h, self._dropout(attn))
        attn = self._mha(pre + "cross.", h, memory, blocks=blocks)
        h = self._norm(pre + "cross_norm", h, self._dropout(attn))
        ff = self._feed_forward(pre, h)
        h = self._norm(pre + "ff_norm", h, self._dropout(ff))
        return nc.matmul(h, p[f"out_{stage}.w"], p[f"out_{stage}.b"])

    def _stage_weights(self, stage: str) -> StepWeights:
        """The arrays a cached step of this stage reads."""
        p, pre = self.params, f"dec_{stage}0."

        def arr(*names: str) -> np.ndarray:
            """The named parameters' arrays, side by side."""
            cols = [p[pre + n].data for n in names]
            return cols[0] if len(cols) == 1 else np.concatenate(cols, axis=1)

        return StepWeights(
            p[f"embed_{stage}"].data,
            arr("self.wq", "self.wk", "self.wv"), arr("self.wo"),
            (arr("self_norm_g"), arr("self_norm_b")),
            arr("cross.wq"), arr("cross.wk", "cross.wv"), arr("cross.wo"),
            (arr("cross_norm_g"), arr("cross_norm_b")),
            arr("ff.w1"), arr("ff.b1"), arr("ff.w2"), arr("ff.b2"),
            (arr("ff_norm_g"), arr("ff_norm_b")),
            p[f"out_{stage}.w"].data, p[f"out_{stage}.b"].data)

    def _decoder_step(self, memory: Tensor | list[Tensor],
                      token_ids: list[int], stage: str,
                      cache: DecoderCache) -> Tensor:
        """decoder_forward with a cache for one token per sequence: the
        ops' forward arithmetic on one row per sequence, in the taped
        path's order. A row may see every cached key of its own sequence:
        self-attention needs no mask.

        The step keeps each kernel output and checks them all, named by
        STEP_CHECKS, with one reduction once the logits are out, or as soon
        as a layer norm raises for an overflowing variance; either way the
        first non-finite output in op order is named, as a check after each
        op would name it. Only a step that passes stores its keys and
        values and advances the cache."""
        H, d = self.config.n_heads, self.config.d_model
        if cache.weights is None:
            w = self._stage_weights(stage)
            memories = [memory] if isinstance(memory, Tensor) else memory
            kt, vh, cache.cross_hide = _cross_heads(
                [m.data for m in memories], w.cross_kv, H)
            cache.cross_kv = (kt, vh)
            cache.stage, cache.memory, cache.weights = stage, memory, w
            cache.size = len(memories)
        w, t, B = cache.weights, cache.start, len(token_ids)
        # one row per sequence splits into its heads, and merges back, by
        # a reshape
        heads, key_heads, merged = (B * H, 1, -1), (B * H, -1, 1), (B, d)
        outs: list[np.ndarray] = []
        keep = outs.append
        try:
            keep(h := w.embed.take(token_ids, axis=0))
            keep(h := h + self._sinusoids(t + 1)[t:])
            keep(qkv := h @ w.self_qkv)
            kt, vh = cache.extend(qkv[:, d:2 * d].reshape(key_heads),
                                  qkv[:, 2 * d:].reshape(heads))
            keep(attn := nc._attend_heads(qkv[:, :d].reshape(heads), kt, vh,
                                          None)[0].reshape(merged))
            keep(attn := attn @ w.self_wo)
            keep(h := nc._norm_rows(h + attn, *w.self_norm)[0])
            keep(q := h @ w.cross_wq)
            keep(attn := nc._attend_heads(q.reshape(heads), *cache.cross_kv,
                                          cache.cross_hide)[0].reshape(merged))
            keep(attn := attn @ w.cross_wo)
            keep(h := nc._norm_rows(h + attn, *w.cross_norm)[0])
            keep(ff := h @ w.ff_w1 + w.ff_b1)
            # not in place: the kept matmul output must stay as it was
            keep(ff := np.maximum(ff, 0.0))
            keep(ff := ff @ w.ff_w2 + w.ff_b2)
            keep(h := nc._norm_rows(h + ff, *w.ff_norm)[0])
            keep(logits := h @ w.out_w + w.out_b)
        except nc.NonFiniteError:
            # A layer norm raised: an earlier non-finite output, if any, is
            # what the step reports.
            nc._check_finite_all(outs, STEP_CHECKS)
            raise
        nc._check_finite_all(outs, STEP_CHECKS)
        cache.self_kv = (kt, vh)
        cache.start += 1
        return Tensor(logits)

    def _gloss_memory(self, memory: Tensor, lengths: list[int],
                      gloss_ids: list[list[int]]) -> Tensor:
        """Each sample's encoder memory rows (lengths packs them in
        memory) followed by its embedded gloss sequence, stacked sample by
        sample."""
        parts = []
        for start, n, ids in zip(itertools.accumulate(lengths, initial=0),
                                 lengths, gloss_ids):
            parts.append(nc.slice_rows(memory, start, start + n))
            if len(ids):
                emb = nc.gather_rows(self.params["embed_gloss"], ids)
                parts.append(nc.add(emb, self._pe([len(ids)])))
        return nc.concat_rows(*parts)

    def s2g2t_forward(self, frames: list[np.ndarray],
                      gloss_ids: list[list[int]], text_ids: list[list[int]]
                      ) -> tuple[Tensor, Tensor]:
        """Teacher-forced two-stage forward pass over a batch.

        frames, gloss_ids and text_ids hold one entry per sample. One
        encode packs the samples' clips, and each decoder stage runs once
        over the target rows of all samples, packed one sample after
        another (decoder_forward's blocks), so no sample sees another's
        rows. Inputs are raw content ids; BOS shifting happens here. Each
        stage's logits stack, sample by sample, one row per content token
        plus the EOS slot.
        """
        if gloss_ids is None or text_ids is None:
            raise nc.ContractError("teacher forcing needs gloss and text ids")
        if not len(frames) == len(gloss_ids) == len(text_ids) >= 1:
            raise nc.ContractError("teacher forcing needs one gloss and one "
                                   "text sequence per sample")
        memory = self.encode(frames)
        mem_rows = [len(f) for f in frames]

        def stage(memory: Tensor, rows: list[int], seqs, name: str) -> Tensor:
            inputs = [[BOS, *ids] for ids in seqs]
            return self.decoder_forward(
                memory, [t for ids in inputs for t in ids], name,
                blocks=[(len(ids), n) for ids, n in zip(inputs, rows)])

        gloss_logits = stage(memory, mem_rows, gloss_ids, "gloss")
        text_rows = [n + len(ids) for n, ids in zip(mem_rows, gloss_ids)]
        text_logits = stage(self._gloss_memory(memory, mem_rows, gloss_ids),
                            text_rows, text_ids, "text")
        return gloss_logits, text_logits

    def _greedy_stage(self, memories: list[Tensor], stage: str,
                      max_len: int) -> tuple[list[list[int]], list[bool]]:
        """Greedy ids of one stage for the sequence over each memory, and
        whether each reached max_len unended. All sequences step together;
        one that emits EOS leaves the batch."""
        ids: list[list[int]] = [[] for _ in memories]
        truncated = [True] * len(memories)
        live = list(range(len(memories)))   # the sequences still decoded
        tokens = [BOS] * len(memories)
        cache = DecoderCache()
        for _ in range(max_len):
            logits = self.decoder_forward(memories, tokens, stage, cache)
            tokens = logits.data.argmax(axis=1).tolist()  # ties -> lowest id
            if EOS in tokens:
                going = [t != EOS for t in tokens]
                for i in itertools.compress(live, [not g for g in going]):
                    truncated[i] = False
                live = list(itertools.compress(live, going))
                if not live:
                    break
                tokens = list(itertools.compress(tokens, going))
                cache.keep_only(going)
            for i, t in zip(live, tokens):
                ids[i].append(t)
        return ids, truncated

    def _greedy_group(self, frames_list: list[np.ndarray],
                      max_len: int) -> list[GreedyResult]:
        """greedy_decode_batch of one group. Each clip has its own encode,
        and each text memory its own _gloss_memory, so every memory is the
        one greedy decoding of that clip alone sees."""
        memories = [self.encode([f]) for f in frames_list]
        gloss, gloss_trunc = self._greedy_stage(memories, "gloss", max_len)
        memories = [self._gloss_memory(m, [m.shape[0]], [g])
                    for m, g in zip(memories, gloss)]
        text, text_trunc = self._greedy_stage(memories, "text", max_len)
        return [GreedyResult(*r)
                for r in zip(gloss, text, gloss_trunc, text_trunc)]

    def greedy_decode_batch(self, frames_list: list[np.ndarray],
                            max_len: int | None = None
                            ) -> list[GreedyResult]:
        """Deterministic argmax decoding of each clip, gloss stage feeding
        the text stage: one GreedyResult per clip, in input order.

        Each stage decodes at most max_len tokens (None means
        max_target_len); a stage that reaches it unended is truncated.
        max_len is an int in [0, max_target_len + 2], the longest a cached
        stage may run, or ContractError is raised before anything is
        encoded. Consecutive groups of at most DECODE_GROUP clips decode in
        lockstep: one cached decoder step serves every sequence of a group
        still running, and a sequence that emits EOS leaves its group. A
        clip's logits differ from a lone decode's only in the last bits of
        float sums taken in another order (padded keys, rows stacked in
        one matmul), so its ids and truncation flags are a lone decode's
        unless two logits tie to those bits."""
        limit = self.config.max_target_len + 2
        if max_len is None:
            max_len = self.config.max_target_len
        if (isinstance(max_len, bool) or not isinstance(max_len, int)
                or not 0 <= max_len <= limit):
            raise nc.ContractError(f"greedy decoding: max_len must be an "
                                   f"int in [0, {limit}], got {max_len!r}")
        was_training = self.training
        self.eval()
        try:
            return [res for lo in range(0, len(frames_list), DECODE_GROUP)
                    for res in self._greedy_group(
                        frames_list[lo:lo + DECODE_GROUP], max_len)]
        finally:
            self.training = was_training

    def greedy_decode(self, frames: np.ndarray,
                      max_len: int | None = None) -> GreedyResult:
        """greedy_decode_batch of one clip: its arithmetic is the lone
        decode's."""
        return self.greedy_decode_batch([frames], max_len)[0]


# ---------------------------------------------------------------------------
# checkpoint container

def save_checkpoint(model: GlotModel, path: Path | str) -> None:
    """Write the model to path through a temporary file in its directory
    that replaces path only once it is whole: a save that fails leaves any
    previous file at path as it was, and no temporary file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        _write_checkpoint(model, tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_checkpoint(model: GlotModel, path: Path) -> None:
    header = {
        "config": asdict(model.config),
        "gloss_vocab": model.gloss_vocab.tokens if model.gloss_vocab else None,
        "text_vocab": model.text_vocab.tokens if model.text_vocab else None,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name, t in model.params.items():
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", t.data.ndim))
            for dim in t.data.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(t.data.astype("<f8").tobytes())


class CheckpointError(GlotError, ValueError):
    pass


def load_checkpoint(path: Path | str) -> GlotModel:
    """The model in a checkpoint file: the header first, then each
    parameter record read from the file straight into its own array."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(n: int) -> bytes:
            if fh.tell() + n > size:
                raise CheckpointError(f"{path}: truncated checkpoint")
            return fh.read(n)

        if take(8) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic")
        (version,) = struct.unpack("<I", take(4))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        (hlen,) = struct.unpack("<I", take(4))
        try:
            header = json.loads(take(hlen).decode("utf-8"))
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: header is not UTF-8") from None
        except json.JSONDecodeError as e:
            raise CheckpointError(f"{path}: header is not JSON: {e}") from None
        if not isinstance(header, dict) or not isinstance(
                header.get("config"), dict):
            raise CheckpointError(f"{path}: header has no config object")
        settings = dict(header["config"])
        for key, only in RETIRED_CONFIG_KEYS.items():
            val = settings.pop(key, only)
            if val != only:
                raise CheckpointError(f"{path}: config {key}={val!r} is not "
                                      f"supported; only {key}={only!r} is")
        unknown = set(settings) - {f.name for f in fields(GlotConfig)}
        if unknown:
            raise CheckpointError(f"{path}: unknown config keys "
                                  f"{', '.join(sorted(unknown))}")
        try:
            config = GlotConfig(**settings)
        except ConfigError as e:
            raise CheckpointError(f"{path}: {e}") from None
        vocabs = [header.get(key) for key in ("gloss_vocab", "text_vocab")]
        for key, vocab in zip(("gloss_vocab", "text_vocab"), vocabs):
            if vocab is not None and not (isinstance(vocab, list) and all(
                    isinstance(t, str) for t in vocab)):
                raise CheckpointError(
                    f"{path}: {key} is not a list of strings")
        gloss_vocab, text_vocab = (None if v is None else Vocabulary(v)
                                   for v in vocabs)
        # Each record is checked against the spec the config implies, its
        # bytes first, so that no more is allocated than the file holds.
        params: dict[str, Tensor] = {}
        have, need = size - fh.tell(), 0
        for name, shape, _ in parameter_specs(config):
            n = math.prod(shape)
            need += 4 + len(name.encode("utf-8")) + 4 + 8 * len(shape) + 8 * n
            if need > have:
                raise CheckpointError(
                    f"{path}: truncated checkpoint: its config implies at "
                    f"least {need} bytes of parameters, {have} follow the "
                    f"header")
            (nlen,) = struct.unpack("<I", take(4))
            got = take(nlen).decode("utf-8", errors="replace")
            if got != name:
                raise CheckpointError(f"{path}: expected parameter {name!r}, "
                                      f"found {got!r}")
            (rank,) = struct.unpack("<I", take(4))
            dims = tuple(struct.unpack("<Q", take(8))[0] for _ in range(rank))
            if dims != shape:
                raise CheckpointError(f"{path}: {name} has shape {dims}, "
                                      f"config implies {shape}")
            values = np.empty(shape, dtype="<f8")
            if fh.readinto(values) != 8 * n:
                raise CheckpointError(f"{path}: truncated checkpoint")
            if not np.isfinite(values).all():
                raise CheckpointError(
                    f"{path}: {name} holds non-finite values")
            params[name] = Tensor(values, requires_grad=True)
        if fh.tell() != size:
            raise CheckpointError(
                f"{path}: {size - fh.tell()} trailing bytes")
    return GlotModel(config, gloss_vocab=gloss_vocab, text_vocab=text_vocab,
                     params=params)
