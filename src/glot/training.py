"""Cross-entropy training with Adam, plateau learning-rate decay, and
5-fold cross-validation with best-fold selection.

Training records one graph per batch: one encode packs the batch's clips
(only the log-sparse stack runs clip by clip), then the two decoder
stages and the loss run once over the batch's target rows, packed one
sample after another under block-diagonal attention (``batch_loss``).
Adam then updates every parameter in one pass over flat arrays.

Two hyperparameter presets are carried through from the model side:
set1 starts at 5e-5 and halves on plateau (patience 3) down to 2e-6;
set2 holds 1e-3 constant. Both run 30 epochs with batch size 32 by
default. Everything is seeded and bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import metrics, numcore as nc
from .dataio import EOS, SignSample, Vocabulary
from .model import (GlotModel, GreedyResult, check_field_types,
                    save_checkpoint)
from .numcore import ContractError, Tape, Tensor


# The plateau schedule's floor, decay factor and patience (set1's), and
# Adam's moment decays and denominator guard.
LR_FLOOR = 2e-6
LR_FACTOR = 0.5
PLATEAU_PATIENCE = 3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    lr_initial: float = 1e-3
    schedule: str = "constant"             # "constant" or "plateau"
    seed: int = 0
    checkpoint_dir: str | None = None
    stop_bleu1: float | None = None        # early exit once reached on val

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        check_field_types(self)
        if self.epochs < 1:
            raise nc.ConfigError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size < 1:
            raise nc.ConfigError(f"batch_size must be positive, got "
                                 f"{self.batch_size}")
        if not 0 < self.lr_initial < math.inf:
            raise nc.ConfigError(f"lr_initial must be positive and finite, "
                                 f"got {self.lr_initial:g}")
        if self.schedule not in ("constant", "plateau"):
            raise nc.ConfigError(f"unknown schedule {self.schedule!r}")
        if self.seed < 0:
            raise nc.ConfigError(f"seed must be non-negative, got {self.seed}")

    @classmethod
    def set1(cls, **overrides) -> "TrainConfig":
        cfg = cls(epochs=30, batch_size=32, lr_initial=5e-5,
                  schedule="plateau")
        return replace(cfg, **overrides)

    @classmethod
    def set2(cls, **overrides) -> "TrainConfig":
        cfg = cls(epochs=30, batch_size=32, lr_initial=1e-3,
                  schedule="constant")
        return replace(cfg, **overrides)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    bleu: dict[int, float]
    lr: float

    def line(self) -> str:
        b = " ".join(f"bleu{n}={self.bleu[n]:.6f}" for n in sorted(self.bleu))
        return (f"epoch={self.epoch} train_loss={self.train_loss:.6f} "
                f"{b} lr={self.lr:.8g}")


@dataclass
class FoldReport:
    fold_index: int
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_bleu4: float = 0.0
    checkpoint_path: str | None = None

    def summary_line(self) -> str:
        return (f"summary fold={self.fold_index} best_epoch={self.best_epoch} "
                f"best_bleu4={self.best_bleu4:.6f}")

    def log_text(self) -> str:
        lines = [e.line() for e in self.epochs] + [self.summary_line()]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# loss

def cross_entropy_loss(logits: Tensor, targets: list[int],
                       weights: np.ndarray) -> Tensor:
    """Negative log-likelihood of the targets, summed over the rows with
    one weight per row."""
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != logits.shape[:1]:
        raise nc.ShapeError("one target per logit row required")
    if np.shape(weights) != targets.shape:
        raise nc.ShapeError("one weight per logit row required")
    lp = nc.log_softmax_rows(logits)
    picked = nc.pick_per_row(lp, targets)
    return nc.tsum(nc.mul(picked, Tensor(-np.asarray(weights))))


def batch_loss(model: GlotModel, frames: list[np.ndarray],
               gloss_ids: list[list[int]], text_ids: list[list[int]]
               ) -> Tensor:
    """Teacher-forced mean over the batch of CE(gloss) + CE(text), as one
    graph: s2g2t_forward packs the samples' rows, and a row of sample i
    weighs 1/(B n_i) in its stage's loss, n_i being the sample's targets
    in that stage (its content tokens and EOS)."""
    logits = model.s2g2t_forward(frames, gloss_ids, text_ids)
    B = len(frames)
    losses = []
    for stage_logits, seqs in zip(logits, (gloss_ids, text_ids)):
        targets = [[*ids, EOS] for ids in seqs]
        weights = [np.full(len(t), 1.0 / (B * len(t))) for t in targets]
        losses.append(cross_entropy_loss(
            stage_logits, [x for t in targets for x in t],
            weights=np.concatenate(weights)))
    return nc.add(*losses)


# ---------------------------------------------------------------------------
# optimizer and schedule

class Adam:
    """Standard Adam with bias correction (ADAM_BETA1, ADAM_BETA2, ADAM_EPS).

    The moments of all parameters sit in two flat arrays, one segment per
    parameter in the order of params, updated in place. A step builds one
    flat update from them and gives each parameter a fresh array of its
    own: its old data minus its segment of the update. Each element meets
    the same expressions in the same order as in a per-parameter loop, so
    the result is the same to the bit.
    """

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.t = 0
        self._bounds = np.cumsum([0, *(p.data.size for p in params.values())])
        self.m = np.zeros(self._bounds[-1])
        self.v = np.zeros(self._bounds[-1])

    def step(self, lr: float) -> None:
        """One update of every parameter. A parameter without a gradient
        raises ContractError before any state or data changes."""
        tensors = self.params.values()
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"Adam.step: parameter {name!r} has no "
                                    f"gradient")
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        g = np.concatenate([p.grad.reshape(-1) for p in tensors])
        self.m *= ADAM_BETA1
        self.m += (1 - ADAM_BETA1) * g
        self.v *= ADAM_BETA2
        self.v += (1 - ADAM_BETA2) * g * g
        del g   # the step expression peaks at 3 N floats by itself
        step = lr * (self.m / b1c) / (np.sqrt(self.v / b2c) + ADAM_EPS)
        for p, start, stop in zip(tensors, self._bounds, self._bounds[1:]):
            # via reshape(-1): a 0-d parameter stays an array, not a scalar
            p.data = (p.data.reshape(-1) - step[start:stop]).reshape(
                p.data.shape)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


class LrSchedule:
    """Constant, or reduce-on-plateau halving with a floor."""

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self.lr = cfg.lr_initial
        self._best: float | None = None
        self._bad = 0

    def on_epoch_end(self, metric: float) -> float:
        if self.cfg.schedule == "constant":
            return self.lr
        # plateau: halve after PLATEAU_PATIENCE evaluations with no
        # improvement, clamped at the floor
        if self._best is None or metric > self._best:
            self._best = metric
            self._bad = 0
        else:
            self._bad += 1
            if self._bad >= PLATEAU_PATIENCE:
                self.lr = max(self.lr * LR_FACTOR, LR_FLOOR)
                self._bad = 0
        return self.lr


# ---------------------------------------------------------------------------
# encoding helpers

@dataclass
class EncodedSample:
    id: str
    features: np.ndarray
    gloss_ids: list[int]
    text_ids: list[int]
    gloss_tokens: list[str]
    text_tokens: list[str]


def encode_samples(samples: list[SignSample], gloss_vocab: Vocabulary,
                   text_vocab: Vocabulary) -> list[EncodedSample]:
    return [EncodedSample(id=s.id, features=s.features,
                          gloss_ids=gloss_vocab.encode(s.gloss),
                          text_ids=text_vocab.encode(s.text),
                          gloss_tokens=s.gloss, text_tokens=s.text)
            for s in samples]


def score_decodes(model: GlotModel, samples: list[EncodedSample],
                  results: list[GreedyResult]
                  ) -> tuple[metrics.BleuReport, metrics.BleuReport]:
    """(gloss report, text report): corpus BLEU of each sample's greedy
    result against its references."""
    gloss_pairs = [(model.gloss_vocab.decode_content(r.gloss_ids),
                    s.gloss_tokens) for s, r in zip(samples, results)]
    text_pairs = [(model.text_vocab.decode_content(r.text_ids),
                   s.text_tokens) for s, r in zip(samples, results)]
    return metrics.corpus_bleu(gloss_pairs), metrics.corpus_bleu(text_pairs)


def evaluate_bleu(model: GlotModel, samples: list[EncodedSample],
                  max_decode_len: int | None = None
                  ) -> tuple[metrics.BleuReport, metrics.BleuReport]:
    """(gloss report, text report) from greedy decoding every sample, one
    greedy_decode call each."""
    return score_decodes(model, samples, [
        model.greedy_decode(s.features, max_len=max_decode_len)
        for s in samples])


# ---------------------------------------------------------------------------
# training loops

def train(model: GlotModel, train_set: list[EncodedSample],
          val_set: list[EncodedSample], cfg: TrainConfig,
          fold_index: int = 1,
          on_epoch: Callable[[FoldReport, bool], None] | None = None
          ) -> FoldReport:
    """Seeded epoch/batch training; keeps the checkpoint of the best
    validation BLEU-4 epoch when a checkpoint_dir is configured.

    on_epoch(report, last) runs as each epoch ends, after its record and
    checkpoint: report.epochs[-1] is that epoch, and last says whether the
    run ends with it."""
    if not train_set or not val_set:
        raise ContractError("train and validation sets must be non-empty")
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(model.params)
    sched = LrSchedule(cfg)
    report = FoldReport(fold_index=fold_index)
    ckpt_path = None
    if cfg.checkpoint_dir is not None:
        ckpt_dir = Path(cfg.checkpoint_dir)
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        ckpt_path = ckpt_dir / f"fold{fold_index}_best.ckpt"

    best_bleu4 = -1.0
    for epoch in range(1, cfg.epochs + 1):
        model.train()
        order = rng.permutation(len(train_set))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_set[i] for i in order[start:start + cfg.batch_size]]
            with Tape() as tape:
                loss = batch_loss(model, [s.features for s in batch],
                                  [s.gloss_ids for s in batch],
                                  [s.text_ids for s in batch])
            losses.append(loss.item())
            opt.zero_grad()
            tape.backward(loss)
            opt.step(lr=sched.lr)
        model.eval()
        _, text_report = evaluate_bleu(model, val_set)
        bleu = dict(text_report.bleu)
        rec = EpochRecord(epoch=epoch, train_loss=float(np.mean(losses)),
                          bleu=bleu, lr=sched.lr)
        report.epochs.append(rec)
        if bleu[4] > best_bleu4:
            best_bleu4 = bleu[4]
            report.best_epoch = epoch
            report.best_bleu4 = bleu[4]
            if ckpt_path is not None:
                save_checkpoint(model, ckpt_path)
                report.checkpoint_path = str(ckpt_path)
        sched.on_epoch_end(bleu[4])
        stop = cfg.stop_bleu1 is not None and bleu[1] >= cfg.stop_bleu1
        if on_epoch is not None:
            on_epoch(report, stop or epoch == cfg.epochs)
        if stop:
            break
    return report


def make_folds(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle, then contiguous near-equal folds (earlier folds take
    the remainder)."""
    if k < 2:
        raise nc.ConfigError(f"cross-validation needs at least 2 folds, got {k}")
    if n < k:
        raise nc.ConfigError(f"dataset of {n} samples cannot form {k} folds")
    if seed < 0:
        raise nc.ConfigError(f"seed must be non-negative, got {seed}")
    order = np.random.default_rng(seed).permutation(n)
    base, rem = divmod(n, k)
    folds, start = [], 0
    for i in range(k):
        size = base + (1 if i < rem else 0)
        folds.append(order[start:start + size])
        start += size
    return folds


def cross_validate(samples: list[EncodedSample], cfg: TrainConfig,
                   model_factory, k: int = 5,
                   on_epoch: Callable[[FoldReport, bool], None] | None = None
                   ) -> tuple[list[FoldReport], FoldReport]:
    """Train k folds, each with train's on_epoch hook; the best fold is
    the argmax of validation BLEU-4 (ties resolved toward the lowest fold
    index)."""
    folds = make_folds(len(samples), k, cfg.seed)
    reports = []
    for i, val_idx in enumerate(folds, start=1):
        val_mask = np.zeros(len(samples), dtype=bool)
        val_mask[val_idx] = True
        train_set = [s for j, s in enumerate(samples) if not val_mask[j]]
        val_set = [samples[j] for j in val_idx]
        model = model_factory(i)
        reports.append(train(model, train_set, val_set, cfg, fold_index=i,
                             on_epoch=on_epoch))
    best = max(reports, key=lambda r: (r.best_bleu4, -r.fold_index))
    return reports, best

