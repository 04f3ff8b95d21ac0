"""Span recording around glot's public functions, installed from outside.

A probe replaces a module or class attribute with a wrapper that records
one span (name, start, end, parent span) per call and, for some functions,
adds to a counter from the call's arguments or result. Spans are kept in
flat in-memory arrays and written out once, at the end of a run.

Two probe sets exist:

* ``coarse`` - only ``training.train``, ``training.evaluate_bleu`` and
  ``GlotModel.greedy_decode``, plus ``Adam.step`` when pacing. The
  untraced run uses it to time the end-to-end metrics; it adds a few
  hundred spans per unit of work.
* ``full`` - every public function of every layer, every numcore op
  included. The traced run uses it for the per-layer metrics.

A span's layer is the part of its name before the first dot, which is the
glot module it belongs to (``numcore``, ``sparse_attention``, ``model``,
``training``, ``metrics``, ``dataio``, ``cli``) or ``bench`` for the
harness's own spans.

The machine the benchmark runs on may be shared: its speed can change by
a third within seconds and stay changed for a minute, with the load of
other tenants. So the untraced run *paces*: after every decode and every
optimizer step (and around every set-up) it runs ``pace_loop``, fixed
numpy work like glot's, in a span ``bench.pace``. ``SpanView.paced``
then gives a span's duration, less the pace loops inside it, scaled to
the speed at which the nearby pace loops ran ``PACE_NOMINAL_S``: the time
the span would have taken on the reference machine at its usual speed. The pace loop is benchmark code, so
a change to glot moves paced times exactly as it moves raw ones.
"""

from __future__ import annotations

import inspect
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

from glot import cli, dataio, metrics, model, numcore, sparse_attention, training

FEATURE_HEADER_BYTES = 20  # magic, version, frame count, width
LAYERS = ("numcore", "sparse_attention", "model", "training", "metrics",
          "dataio", "cli", "bench")
# Counters whose value must repeat exactly across two runs of one seed.
EXACT_COUNTS = ("numcore.ops", "numcore.matmul.flop", "sparse_attention.pairs",
                "model.decode_rows", "model.decode_tokens", "training.steps",
                "model.checkpoint_save.bytes")

PACE = "bench.pace"
PACE_ROUNDS = 100
PACE_SCORES = 192
# Median time of one pace_loop on the reference machine (Intel Xeon, 2
# vCPUs, numpy 2.4, one OpenBLAS thread) at its usual speed.
PACE_NOMINAL_S = 1.4e-3
# A span's speed is that of the pace loops run inside it plus this many
# on each side of it.
PACE_NEIGHBOURS = 4
_PACE_A = np.linspace(-1.0, 1.0, 64).reshape(4, 16)
_PACE_B = np.linspace(1.0, -1.0, 256).reshape(16, 16)
_PACE_Q = np.linspace(-1.0, 1.0, PACE_SCORES * 16).reshape(PACE_SCORES, 16)
_PACE_CAUSAL = np.tril(np.ones((PACE_SCORES, PACE_SCORES), dtype=bool))


def pace_loop() -> float:
    """Fixed work whose duration tracks the machine's current speed.

    Small numpy ops driven from Python, the way numcore runs a tiny model,
    then one masked softmax over a full score matrix, the way attention
    runs a long input. The two slow down by different amounts when the
    machine does, and glot runs a mix of both.
    """
    acc = 0.0
    for _ in range(PACE_ROUNDS):
        z = _PACE_A @ _PACE_B
        z = np.exp(z - z.max(axis=1, keepdims=True))
        z /= z.sum(axis=1, keepdims=True)
        acc += float(z[0, 0])
    s = np.where(_PACE_CAUSAL, _PACE_Q @ _PACE_Q.T, -np.inf)
    s = np.exp(s - s.max(axis=1, keepdims=True))
    s /= s.sum(axis=1, keepdims=True)
    return acc + float(s[-1, 0])


class Tracer:
    """Flat span store plus named counters, shared by every probe."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.errors: list[str] = []
        self._installed: list[tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def pace(self) -> None:
        with self.span(PACE):
            pace_loop()

    def __len__(self) -> int:
        return len(self.start)

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.intern(name))
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    # ------------------------------------------------------------------
    # installing probes

    def wrap(self, owner, attr: str, name: str, after=None,
             before=None) -> None:
        """Replace owner.attr by a span-recording wrapper; ``before`` is
        called as before(args) ahead of the span and ``after`` as
        after(args, result) once it has closed."""
        fn = getattr(owner, attr)
        nid = self.intern(name)
        name_append, parent_append = self.name.append, self.parent.append
        end_append, start_append = self.end.append, self.start.append
        starts, ends, stack, clock = self.start, self.end, self.stack, time.perf_counter

        def probe(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(starts)
            name_append(nid)
            parent_append(stack[-1] if stack else -1)
            end_append(0.0)
            stack.append(idx)
            start_append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        self._installed.append((owner, attr, fn))
        setattr(owner, attr, probe)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def install(self, probe_set: str) -> None:
        """``coarse`` paces; ``full`` (coarse plus every layer) does not."""
        if self._installed:
            raise RuntimeError("probes are already installed")
        if probe_set not in ("coarse", "full"):
            raise ValueError(f"unknown probe set {probe_set!r}")
        pacing = probe_set == "coarse"
        self._install_coarse(pacing)
        if not pacing:
            self._install_full()

    def _install_coarse(self, pacing: bool) -> None:
        def on_greedy(args, res):
            self.add("model.decode_tokens",
                     len(res.gloss_ids) + len(res.text_ids)
                     + (not res.gloss_truncated) + (not res.text_truncated))
            self.add("model.truncated_stages",
                     res.gloss_truncated + res.text_truncated)
            if pacing:
                self.pace()

        self.wrap(training, "train", "training.train")
        self.wrap(training, "evaluate_bleu", "training.evaluate_bleu")
        self.wrap(model.GlotModel, "greedy_decode", "model.greedy_decode",
                  on_greedy)
        if pacing:
            self.wrap(training.Adam, "step", "training.optimizer_step",
                      lambda args, out: self.pace())

    def _install_full(self) -> None:
        self._install_numcore()

        pairs_by_length: dict[int, int] = {}

        def on_stacked(args, out):
            x, layers, mask = args[0], args[1], args[2]
            pairs = int(mask.sum()) * len(layers)
            F = x.shape[0]
            if F not in pairs_by_length:
                pairs_by_length[F] = sparse_attention.count_attention_pairs(
                    F, "logsparse")
            if pairs != pairs_by_length[F] * len(layers):
                self.errors.append(f"stacked_lssa at F={F}: {pairs} pairs, "
                                   f"expected {pairs_by_length[F]} x "
                                   f"{len(layers)}")
            self.add("sparse_attention.pairs", pairs)

        self.wrap(sparse_attention, "stacked_lssa",
                  "sparse_attention.stacked_lssa", on_stacked)
        self.wrap(sparse_attention, "build_mask", "sparse_attention.build_mask")

        greedy_id = self.intern("model.greedy_decode")

        def on_decoder(args, out):
            if self.stack and self.name[self.stack[-1]] == greedy_id:
                self.add("model.decode_rows", len(args[2]))

        def on_save(args, out):
            self.add("model.checkpoint_save.bytes", os.path.getsize(args[1]))

        cls = model.GlotModel
        self.wrap(cls, "encode", "model.encode")
        self.wrap(cls, "decoder_forward", "model.decoder_forward", on_decoder)
        self.wrap(cls, "s2g2t_forward", "model.s2g2t_forward")
        for owner in (model, training):
            self.wrap(owner, "save_checkpoint", "model.checkpoint_save", on_save)
        for owner in (model, cli):
            self.wrap(owner, "load_checkpoint", "model.checkpoint_load")

        self.wrap(training, "cross_entropy_loss", "training.cross_entropy_loss")
        self.wrap(training.Adam, "step", "training.optimizer_step",
                  lambda args, out: self.add("training.steps", 1))
        self.wrap(metrics, "corpus_bleu", "metrics.corpus_bleu")
        self.wrap(dataio, "synth_generate", "dataio.synth_generate")
        self.wrap(dataio, "read_feature_file", "dataio.read_feature_file",
                  lambda args, out: self.add("dataio.bytes_read",
                                             FEATURE_HEADER_BYTES + out.nbytes))
        self.wrap(cli, "main", "cli.main")

    def _install_numcore(self) -> None:
        """Every numcore function that records onto the tape is an op."""
        ops = sorted(n for n, f in vars(numcore).items()
                     if inspect.isfunction(f) and not n.startswith("_")
                     and "_record" in f.__code__.co_names)
        def on_op(args, out):
            self.add("numcore.bytes_out", out.data.nbytes)

        def on_matmul(args, out):
            on_op(args, out)
            m, k = args[0].shape
            self.add("numcore.matmul.flop", 2 * m * k * args[1].shape[1])

        def on_softmax(args, out):
            on_op(args, out)
            self.add("numcore.masked_softmax_rows.elems", out.data.size)

        special = {"matmul": on_matmul, "masked_softmax_rows": on_softmax}
        for op in ops:
            self.wrap(numcore, op, f"numcore.{op}", special.get(op, on_op))
        self.wrap(numcore.Tape, "backward", "numcore.backward",
                  before=lambda args: self.add("numcore.tape_entries",
                                               len(args[0])))

    # ------------------------------------------------------------------
    # reading spans back

    def arrays(self, lo: int = 0, hi: int | None = None):
        """(name id, parent, start, end) of spans lo..hi as numpy arrays."""
        hi = len(self) if hi is None else hi
        return (np.frombuffer(self.name, dtype=np.int32)[lo:hi].copy(),
                np.frombuffer(self.parent, dtype=np.int32)[lo:hi].copy(),
                np.frombuffer(self.start, dtype=np.float64)[lo:hi].copy(),
                np.frombuffer(self.end, dtype=np.float64)[lo:hi].copy())

    def save(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start, end=end)


class SpanView:
    """Durations, self times and per-name sums for one range of spans."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        self.tracer = tracer
        self.name, parent, self.start, self.end = tracer.arrays(lo, hi)
        self.dur = self.end - self.start
        pace = self.name == tracer._ids.get(PACE, -2)
        self.pace_start = self.start[pace]
        self.pace_cum = np.concatenate([[0.0], np.cumsum(self.dur[pace])])
        local = parent - lo
        inside = (parent >= lo) & (parent < hi)
        child = np.bincount(local[inside], weights=self.dur[inside],
                            minlength=len(self.dur))
        self.self_time = self.dur - child
        self.parent_name = np.full(len(self.dur), -1, dtype=np.int64)
        self.parent_name[inside] = self.name[local[inside]]

    def _mask(self, name: str, parent: str | None = None) -> np.ndarray:
        nid = self.tracer._ids.get(name, -2)
        mask = self.name == nid
        if parent is not None:
            mask &= self.parent_name == self.tracer._ids.get(parent, -2)
        return mask

    def calls(self, name: str, parent: str | None = None) -> int:
        return int(self._mask(name, parent).sum())

    def seconds(self, name: str, parent: str | None = None) -> float:
        return float(self.dur[self._mask(name, parent)].sum())

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self._mask(name)]

    def paced(self, name: str, parent: str | None = None,
              scale: bool = True) -> np.ndarray:
        """Durations of the named spans less the pace loops inside them,
        at the machine speed of PACE_NOMINAL_S (see the module doc), or
        as the clock read them when ``scale`` is false."""
        return self.paced_at(np.flatnonzero(self._mask(name, parent)), scale)

    def paced_at(self, idx: np.ndarray, scale: bool = True) -> np.ndarray:
        n = len(self.pace_start)
        if n == 0:
            raise ValueError("no pace loops ran in these spans")
        i0 = np.searchsorted(self.pace_start, self.start[idx])
        i1 = np.searchsorted(self.pace_start, self.end[idx])
        inner = self.pace_cum[i1] - self.pace_cum[i0]
        if not scale:
            return self.dur[idx] - inner
        lo = np.clip(i0 - PACE_NEIGHBOURS, 0, n)
        hi = np.clip(i1 + PACE_NEIGHBOURS, 0, n)
        speed = (self.pace_cum[hi] - self.pace_cum[lo]) / ((hi - lo) * PACE_NOMINAL_S)
        return (self.dur[idx] - inner) / speed

    def pace_ratio(self) -> float:
        """Median time of this range's pace loops over PACE_NOMINAL_S."""
        return float(np.median(np.diff(self.pace_cum))) / PACE_NOMINAL_S

    def layer_self_seconds(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for nid, name in enumerate(self.tracer.names):
            mask = self.name == nid
            if mask.any():
                layer = name.split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + float(self.self_time[mask].sum())
        return out

    def _layer_mask(self, layer: str, exclude: tuple[str, ...]) -> np.ndarray:
        ids = [i for i, n in enumerate(self.tracer.names)
               if n.startswith(layer + ".") and n not in exclude]
        return np.isin(self.name, ids)

    def layer_calls(self, layer: str, exclude: tuple[str, ...] = ()) -> int:
        return int(self._layer_mask(layer, exclude).sum())

    def layer_seconds(self, layer: str, exclude: tuple[str, ...] = ()) -> float:
        return float(self.dur[self._layer_mask(layer, exclude)].sum())
