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

import json
import math
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import numcore as nc
from . import sparse_attention as sa
from .dataio import BOS, EOS, DataError, Vocabulary
from .numcore import ConfigError, Tensor

CHECKPOINT_MAGIC = b"GLOTCKPT"
CHECKPOINT_VERSION = 1


@dataclass
class GlotConfig:
    d_model: int = 8
    n_heads: int = 2
    n_encoders: int = 1
    n_decoders: int = 1
    ff_size: int = 8
    dropout: float = 0.0
    conv_kernel: int = 3
    n_lssa_layers: int = 0          # 0 means auto: max(1, ceil(log2 max_frames))
    max_frames: int = 64
    max_target_len: int = 16
    gloss_vocab_size: int = 7
    text_vocab_size: int = 11
    feat_dim: int = 5
    encoder_kind: str = "glot"      # "glot" or "dense_baseline"
    pe_kind: str = "sinusoidal"     # "sinusoidal" or "learned"

    def validate(self) -> None:
        if self.d_model < 2 or self.d_model % 2:
            raise ConfigError("d_model must be even and >= 2")
        if self.n_heads < 1:
            raise ConfigError("n_heads must be positive")
        if self.d_model % self.n_heads:
            raise ConfigError("d_model must be divisible by n_heads")
        if self.conv_kernel % 2 == 0 or self.conv_kernel < 1:
            raise ConfigError("conv_kernel must be odd and positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if self.encoder_kind not in ("glot", "dense_baseline"):
            raise ConfigError(f"unknown encoder_kind {self.encoder_kind!r}")
        if self.pe_kind not in ("sinusoidal", "learned"):
            raise ConfigError(f"unknown pe_kind {self.pe_kind!r}")
        for name in ("n_encoders", "n_decoders", "ff_size", "max_frames",
                     "max_target_len", "gloss_vocab_size", "text_vocab_size",
                     "feat_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")

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
        cfg = cls(d_model=512, n_heads=8, n_encoders=1, n_decoders=1,
                  ff_size=2048, dropout=0.1)
        return _with_overrides(cfg, overrides)

    @classmethod
    def set2(cls, **overrides) -> "GlotConfig":
        """Small preset: 256 hidden units, 8 heads, ff 256, no dropout."""
        cfg = cls(d_model=256, n_heads=8, n_encoders=1, n_decoders=1,
                  ff_size=256, dropout=0.0)
        return _with_overrides(cfg, overrides)

    @classmethod
    def tiny(cls, **overrides) -> "GlotConfig":
        """Desk-scale preset for tests and gradient checking."""
        cfg = cls(d_model=8, n_heads=2, ff_size=8, dropout=0.0,
                  max_frames=16, max_target_len=12)
        return _with_overrides(cfg, overrides)


def _with_overrides(cfg: GlotConfig, overrides: dict) -> GlotConfig:
    for key, val in overrides.items():
        if not hasattr(cfg, key):
            raise ConfigError(f"unknown config field {key!r}")
        setattr(cfg, key, val)
    cfg.validate()
    return cfg


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


class DecoderCache:
    """Decoder state carried across the steps of one greedy stage.

    Per decoder layer it keeps the self-attention key/value rows of every
    position decoded so far and the cross-attention key/value projections
    of the stage's memory, made on the first step. Earlier rows are kept
    as plain arrays, so no gradient reaches them: the cache is for
    inference.
    """

    def __init__(self):
        self.start = 0      # positions already decoded
        self._self: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._cross: dict[int, tuple[Tensor, Tensor]] = {}

    def self_kv(self, layer: int, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Append this step's key/value rows; return all rows so far."""
        if layer in self._self:
            old_k, old_v = self._self[layer]
            k = Tensor(np.concatenate([old_k, k.data]))
            v = Tensor(np.concatenate([old_v, v.data]))
        self._self[layer] = (k.data, v.data)
        return k, v

    def cross_kv(self, layer: int, project) -> tuple[Tensor, Tensor]:
        """The memory's key/value projections, made by project() once."""
        if layer not in self._cross:
            self._cross[layer] = project()
        return self._cross[layer]


@dataclass
class GreedyResult:
    gloss_ids: list[int]
    text_ids: list[int]
    gloss_truncated: bool
    text_truncated: bool


class GlotModel:
    """Holds all learned parameters and implements every forward path."""

    def __init__(self, config: GlotConfig,
                 gloss_vocab: Vocabulary | None = None,
                 text_vocab: Vocabulary | None = None,
                 seed: int = 0):
        config.validate()
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
        self.params: dict[str, Tensor] = {}
        self._init_params(np.random.default_rng(seed))

    # ------------------------------------------------------------------
    # parameters

    def _init_params(self, rng: np.random.Generator) -> None:
        cfg = self.config
        d, d_b = cfg.d_model, cfg.d_branch

        def uniform(fan_in: int, shape) -> Tensor:
            lim = 1.0 / math.sqrt(fan_in)
            return Tensor(rng.uniform(-lim, lim, size=shape), requires_grad=True)

        def ones(shape) -> Tensor:
            return Tensor(np.ones(shape), requires_grad=True)

        def zeros(shape) -> Tensor:
            return Tensor(np.zeros(shape), requires_grad=True)

        p = self.params
        p["frame_embed"] = uniform(cfg.feat_dim, (cfg.feat_dim, d))
        if cfg.pe_kind == "learned":
            p["pe_encoder"] = uniform(d, (cfg.max_frames, d))
            p["pe_decoder"] = uniform(d, (cfg.max_target_len + 2, d))

        for i in range(cfg.n_encoders):
            pre = f"enc{i}."
            if cfg.encoder_kind == "glot":
                p[pre + "conv_w"] = uniform(d_b * cfg.conv_kernel,
                                            (d_b, d_b, cfg.conv_kernel))
                p[pre + "conv_b"] = zeros((d_b,))
                for j in range(cfg.lssa_depth):
                    p[pre + f"lssa{j}.wq"] = uniform(d_b, (d_b, d_b))
                    p[pre + f"lssa{j}.wk"] = uniform(d_b, (d_b, d_b))
                p[pre + "wv"] = uniform(d_b, (d_b, d_b))
                p[pre + "gate_w"] = Tensor(rng.uniform(-0.1, 0.1, (d_b, 1)),
                                           requires_grad=True)
                p[pre + "gate_b"] = Tensor(rng.uniform(-0.1, 0.1, ()),
                                           requires_grad=True)
                p[pre + "norm_g"] = ones((d,))
                p[pre + "norm_b"] = zeros((d,))
            else:
                for w in ("wq", "wk", "wv", "wo"):
                    p[pre + "attn." + w] = uniform(d, (d, d))
                p[pre + "attn_norm_g"] = ones((d,))
                p[pre + "attn_norm_b"] = zeros((d,))
                self._init_ff(pre, uniform, zeros)
                p[pre + "ff_norm_g"] = ones((d,))
                p[pre + "ff_norm_b"] = zeros((d,))

        for stage, vocab in (("gloss", cfg.gloss_vocab_size),
                             ("text", cfg.text_vocab_size)):
            p[f"embed_{stage}"] = uniform(d, (vocab, d))
            for i in range(cfg.n_decoders):
                pre = f"dec_{stage}{i}."
                for grp in ("self", "cross"):
                    for w in ("wq", "wk", "wv", "wo"):
                        p[pre + f"{grp}.{w}"] = uniform(d, (d, d))
                    p[pre + f"{grp}_norm_g"] = ones((d,))
                    p[pre + f"{grp}_norm_b"] = zeros((d,))
                self._init_ff(pre, uniform, zeros)
                p[pre + "ff_norm_g"] = ones((d,))
                p[pre + "ff_norm_b"] = zeros((d,))
            p[f"out_{stage}.w"] = uniform(d, (d, vocab))
            p[f"out_{stage}.b"] = zeros((vocab,))

    def _init_ff(self, pre: str, uniform, zeros) -> None:
        d, ff = self.config.d_model, self.config.ff_size
        self.params[pre + "ff.w1"] = uniform(d, (d, ff))
        self.params[pre + "ff.b1"] = zeros((ff,))
        self.params[pre + "ff.w2"] = uniform(ff, (ff, d))
        self.params[pre + "ff.b2"] = zeros((d,))

    def parameter_count(self) -> int:
        return sum(t.data.size for t in self.params.values())

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def train(self) -> None:
        self.training = True

    def eval(self) -> None:
        self.training = False

    # ------------------------------------------------------------------
    # shared pieces

    def _dropout(self, x: Tensor) -> Tensor:
        return nc.dropout(x, self.config.dropout, rng=self._dropout_rng,
                          training=self.training)

    def _pe(self, length: int, which: str, start: int = 0) -> Tensor:
        """Positional rows start .. start+length-1."""
        if self.config.pe_kind == "learned":
            table = self.params["pe_encoder" if which == "enc" else "pe_decoder"]
            return nc.gather_rows(table, list(range(start, start + length)))
        stop = start + length
        if self._pe_table is None or len(self._pe_table) < stop:
            # Built once, on first use: rows of a longer sinusoidal table
            # are bit-identical to positional_encoding(stop, d).
            cfg = self.config
            self._pe_table = positional_encoding(
                max(stop, cfg.max_frames, cfg.max_target_len + 2), cfg.d_model)
            self._pe_table.setflags(write=False)
        return Tensor(self._pe_table[start:stop])

    def _project_kv(self, prefix: str, x: Tensor) -> tuple[Tensor, Tensor]:
        p = self.params
        return nc.matmul(x, p[prefix + "wk"]), nc.matmul(x, p[prefix + "wv"])

    def _mha(self, prefix: str, xq: Tensor, xkv: Tensor,
             mask: np.ndarray | None,
             counter: sa.PairCounter | None = None,
             counter_tag: str = "dense",
             kv: tuple[Tensor, Tensor] | None = None) -> Tensor:
        """Multi-head attention; a mask of None allows every key. The pair
        counter tallies each allowed (query, key) position once per layer,
        heads sharing the pattern. ``kv`` supplies ready keys and values
        (a decoding cache) in place of the projections of ``xkv``."""
        p = self.params
        q = nc.matmul(xq, p[prefix + "wq"])
        k, v = self._project_kv(prefix, xkv) if kv is None else kv
        if counter is not None:
            counter.add(counter_tag, q.shape[0] * k.shape[0] if mask is None
                        else int(mask.sum()))
        heads = nc.attention(q, k, v, mask, self.config.n_heads)
        return nc.matmul(heads, p[prefix + "wo"])

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

    def embed_frames(self, frames: np.ndarray) -> Tensor:
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[1] != self.config.feat_dim:
            raise nc.ShapeError(
                f"frames must be Fx{self.config.feat_dim}, got {frames.shape}")
        if frames.shape[0] > self.config.max_frames:
            raise nc.ShapeError(
                f"{frames.shape[0]} frames exceed max_frames="
                f"{self.config.max_frames}")
        x = nc.matmul(Tensor(frames), self.params["frame_embed"])
        x = nc.add(x, self._pe(frames.shape[0], "enc"))
        return self._dropout(x)

    def gate_value(self, lssa_out: Tensor, enc_prefix: str) -> Tensor:
        """Per-position scalar gate in (0,1): sigmoid(<w, row> + b)."""
        p = self.params
        return nc.sigmoid(nc.matmul(lssa_out, p[enc_prefix + "gate_w"],
                                    p[enc_prefix + "gate_b"]))

    def gating_combine(self, g: Tensor, lssa_out: Tensor,
                       gap_vec: Tensor) -> Tensor:
        """Row p = g[p]*lssa_out[p] + (1-g[p])*gap_vec."""
        if g.shape != (lssa_out.shape[0], 1) or gap_vec.shape != (lssa_out.shape[1],):
            raise nc.ShapeError(
                f"gating_combine: g {g.shape}, lssa {lssa_out.shape}, "
                f"gap {gap_vec.shape}")
        one_minus_g = nc.add_scalar(nc.scale(g, -1.0), 1.0)
        gap_rows = nc.broadcast_rows(gap_vec, lssa_out.shape[0])
        return nc.add(nc.mul(g, lssa_out), nc.mul(one_minus_g, gap_rows))

    def encoder_block_glot(self, x: Tensor, i: int, mask: np.ndarray,
                           counter: sa.PairCounter | None = None) -> Tensor:
        p = self.params
        pre = f"enc{i}."
        d_b = self.config.d_branch
        x1 = nc.slice_cols(x, 0, d_b)
        x2 = nc.slice_cols(x, d_b, self.config.d_model)

        conv_out = nc.conv1d_same(x1, p[pre + "conv_w"], p[pre + "conv_b"])

        layers = [sa.LssaParams(p[pre + f"lssa{j}.wq"], p[pre + f"lssa{j}.wk"])
                  for j in range(self.config.lssa_depth)]
        lssa_out = sa.stacked_lssa(x2, layers, mask, counter=counter)
        values = nc.matmul(x2, p[pre + "wv"])
        gap = nc.global_avg_pool(values)
        g = self.gate_value(lssa_out, pre)
        fused = self.gating_combine(g, lssa_out, gap)

        return self._norm(pre + "norm", x, nc.concat_channels(conv_out, fused))

    def encoder_block_dense(self, x: Tensor, i: int,
                            counter: sa.PairCounter | None = None) -> Tensor:
        pre = f"enc{i}."
        attn = self._mha(pre + "attn.", x, x, None,
                         counter=counter, counter_tag="dense")
        x = self._norm(pre + "attn_norm", x, self._dropout(attn))
        ff = self._feed_forward(pre, x)
        return self._norm(pre + "ff_norm", x, self._dropout(ff))

    def encode(self, frames: np.ndarray,
               counter: sa.PairCounter | None = None) -> Tensor:
        x = self.embed_frames(frames)
        F = x.shape[0]
        if self.config.encoder_kind == "glot":
            mask = sa.build_mask(F)
            for i in range(self.config.n_encoders):
                x = self.encoder_block_glot(x, i, mask, counter=counter)
        else:
            for i in range(self.config.n_encoders):
                x = self.encoder_block_dense(x, i, counter=counter)
        return x

    # ------------------------------------------------------------------
    # decoder

    def _stage_vocab_size(self, stage: str) -> int:
        return (self.config.gloss_vocab_size if stage == "gloss"
                else self.config.text_vocab_size)

    def decoder_forward(self, memory: Tensor, token_ids: list[int],
                        stage: str, cache: DecoderCache | None = None
                        ) -> Tensor:
        """Causal self-attention over the target prefix, cross-attention
        over memory, feed-forward; returns L x vocab logits.

        With a cache, token_ids are the positions that follow the
        cache.start already decoded: only their rows are computed, and
        their keys and values join the cache.
        """
        if stage not in ("gloss", "text"):
            raise nc.ConfigError(f"unknown decoder stage {stage!r}")
        vocab = self._stage_vocab_size(stage)
        if any(not 0 <= t < vocab for t in token_ids):
            raise DataError(f"token id out of range for {stage} vocabulary")
        start = 0 if cache is None else cache.start
        L = len(token_ids)
        if start + L > self.config.max_target_len + 2:
            raise DataError(f"target length {start + L} exceeds limit")
        p = self.params
        h = nc.gather_rows(p[f"embed_{stage}"], token_ids)
        h = nc.add(h, self._pe(L, "dec", start))
        h = self._dropout(h)
        # One new row may attend to every cached position; cross-attention
        # always sees all of memory.
        self_mask = None if L == 1 else sa.causal_mask(start + L)[start:]
        self_kv = cross_kv = None
        for i in range(self.config.n_decoders):
            pre = f"dec_{stage}{i}."
            if cache is not None:
                self_kv = cache.self_kv(i, *self._project_kv(pre + "self.", h))
                cross_kv = cache.cross_kv(
                    i, lambda: self._project_kv(pre + "cross.", memory))
            attn = self._mha(pre + "self.", h, h, self_mask, kv=self_kv)
            h = self._norm(pre + "self_norm", h, self._dropout(attn))
            attn = self._mha(pre + "cross.", h, memory, None, kv=cross_kv)
            h = self._norm(pre + "cross_norm", h, self._dropout(attn))
            ff = self._feed_forward(pre, h)
            h = self._norm(pre + "ff_norm", h, self._dropout(ff))
        if cache is not None:
            cache.start += L
        return nc.matmul(h, p[f"out_{stage}.w"], p[f"out_{stage}.b"])

    def _gloss_memory(self, memory: Tensor, gloss_ids: list[int]) -> Tensor:
        """Encoder memory extended with the embedded gloss sequence."""
        if not gloss_ids:
            return memory
        emb = nc.gather_rows(self.params["embed_gloss"], gloss_ids)
        emb = nc.add(emb, self._pe(len(gloss_ids), "dec"))
        return nc.concat_rows(memory, emb)

    def s2g2t_forward(self, frames: np.ndarray, gloss_ids: list[int],
                      text_ids: list[int],
                      counter: sa.PairCounter | None = None
                      ) -> tuple[Tensor, Tensor]:
        """Teacher-forced two-stage forward pass.

        Inputs are raw content ids; BOS shifting happens here. Returned
        logits have one row per content token plus the EOS slot.
        """
        if gloss_ids is None or text_ids is None:
            raise nc.ContractError("teacher forcing needs gloss and text ids")
        memory = self.encode(frames, counter=counter)
        gloss_logits = self.decoder_forward(memory, [BOS] + list(gloss_ids),
                                            "gloss")
        text_memory = self._gloss_memory(memory, list(gloss_ids))
        text_logits = self.decoder_forward(text_memory, [BOS] + list(text_ids),
                                           "text")
        return gloss_logits, text_logits

    def _greedy_stage(self, memory: Tensor, stage: str,
                      max_len: int) -> tuple[list[int], bool]:
        ids: list[int] = [BOS]
        cache = DecoderCache()
        truncated = True
        for _ in range(max_len):
            logits = self.decoder_forward(memory, ids[-1:], stage, cache)
            nxt = int(np.argmax(logits.data[-1]))  # ties -> lowest id
            if nxt == EOS:
                truncated = False
                break
            ids.append(nxt)
        return ids[1:], truncated

    def greedy_decode(self, frames: np.ndarray,
                      max_len: int | None = None) -> GreedyResult:
        """Deterministic argmax decoding, gloss stage feeding the text stage."""
        if max_len is None:
            max_len = self.config.max_target_len
        was_training = self.training
        self.eval()
        try:
            memory = self.encode(frames)
            gloss_ids, gloss_trunc = self._greedy_stage(memory, "gloss", max_len)
            text_memory = self._gloss_memory(memory, gloss_ids)
            text_ids, text_trunc = self._greedy_stage(text_memory, "text",
                                                      max_len)
        finally:
            self.training = was_training
        return GreedyResult(gloss_ids=gloss_ids, text_ids=text_ids,
                            gloss_truncated=gloss_trunc,
                            text_truncated=text_trunc)


# ---------------------------------------------------------------------------
# checkpoint container

def save_checkpoint(model: GlotModel, path: Path | str) -> None:
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


class CheckpointError(ValueError):
    pass


def load_checkpoint(path: Path | str) -> GlotModel:
    data = Path(path).read_bytes()
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise CheckpointError(f"{path}: truncated checkpoint")
        chunk = data[off:off + n]
        off += n
        return chunk

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
    if not isinstance(header, dict) or not isinstance(header.get("config"), dict):
        raise CheckpointError(f"{path}: header has no config object")
    unknown = set(header["config"]) - {f.name for f in fields(GlotConfig)}
    if unknown:
        raise CheckpointError(f"{path}: unknown config keys "
                              f"{', '.join(sorted(unknown))}")
    for f in fields(GlotConfig):
        val, want = header["config"].get(f.name, f.default), type(f.default)
        if isinstance(val, bool) or not isinstance(
                val, (int, float) if want is float else want):
            raise CheckpointError(f"{path}: config {f.name}={val!r} is not "
                                  f"a valid {want.__name__}")
    vocabs = [header.get(key) for key in ("gloss_vocab", "text_vocab")]
    for key, vocab in zip(("gloss_vocab", "text_vocab"), vocabs):
        if vocab is not None and not (isinstance(vocab, list) and all(
                isinstance(t, str) for t in vocab)):
            raise CheckpointError(f"{path}: {key} is not a list of strings")
    config = GlotConfig(**header["config"])
    gloss_vocab, text_vocab = (None if v is None else Vocabulary(v)
                               for v in vocabs)
    model = GlotModel(config, gloss_vocab=gloss_vocab, text_vocab=text_vocab)

    for name, t in model.params.items():
        (nlen,) = struct.unpack("<I", take(4))
        got = take(nlen).decode("utf-8", errors="replace")
        if got != name:
            raise CheckpointError(f"{path}: expected parameter {name!r}, "
                                  f"found {got!r}")
        (rank,) = struct.unpack("<I", take(4))
        dims = tuple(struct.unpack("<Q", take(8))[0] for _ in range(rank))
        if dims != t.data.shape:
            raise CheckpointError(f"{path}: {name} has shape {dims}, "
                                  f"config implies {t.data.shape}")
        n = int(np.prod(dims)) if dims else 1
        t.data = np.frombuffer(take(8 * n), dtype="<f8").reshape(dims).copy()
        if not np.isfinite(t.data).all():
            raise CheckpointError(f"{path}: {name} holds non-finite values")
    if off != len(data):
        raise CheckpointError(f"{path}: {len(data) - off} trailing bytes")
    return model
