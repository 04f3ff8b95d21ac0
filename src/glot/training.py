"""Cross-entropy training with Adam, plateau learning-rate decay, and
5-fold cross-validation with best-fold selection.

Two hyperparameter presets are carried through from the model side:
set1 starts at 5e-5 and halves on plateau (patience 3) down to 2e-6;
set2 holds 1e-3 constant. Both run 30 epochs with batch size 32 by
default. Everything is seeded and bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import metrics, numcore as nc
from .dataio import EOS, PAD, SignSample, Vocabulary
from .model import GlotModel, save_checkpoint
from .numcore import ContractError, Tape, Tensor


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss."""


@dataclass
class TrainConfig:
    hyperparameter_set: str = "set2"       # "set1" or "set2"
    epochs: int = 30
    batch_size: int = 32
    lr_initial: float = 1e-3
    lr_floor: float = 2e-6
    lr_factor: float = 0.5
    plateau_patience: int = 3
    schedule: str = "constant"             # "constant", "plateau", "fixed"
    fixed_decay_epochs: tuple[int, ...] = ()
    seed: int = 0
    checkpoint_dir: str | None = None
    stop_bleu1: float | None = None        # early exit once reached on val
    max_decode_len: int | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.epochs < 1:
            raise nc.ConfigError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size < 1:
            raise nc.ConfigError(f"batch_size must be positive, got "
                                 f"{self.batch_size}")
        if not self.lr_initial > 0:
            raise nc.ConfigError(f"lr_initial must be positive, got "
                                 f"{self.lr_initial:g}")

    @classmethod
    def set1(cls, **overrides) -> "TrainConfig":
        cfg = cls(hyperparameter_set="set1", epochs=30, batch_size=32,
                  lr_initial=5e-5, lr_floor=2e-6, lr_factor=0.5,
                  plateau_patience=3, schedule="plateau")
        return replace(cfg, **overrides)

    @classmethod
    def set2(cls, **overrides) -> "TrainConfig":
        cfg = cls(hyperparameter_set="set2", epochs=30, batch_size=32,
                  lr_initial=1e-3, schedule="constant")
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
    best_bleu: dict[int, float] = field(default_factory=dict)
    checkpoint_path: str | None = None

    def log_text(self) -> str:
        lines = [e.line() for e in self.epochs]
        lines.append(f"summary fold={self.fold_index} "
                     f"best_epoch={self.best_epoch} "
                     f"best_bleu4={self.best_bleu4:.6f}")
        return "\n".join(lines) + "\n"

    def write_log(self, path: Path | str) -> None:
        Path(path).write_text(self.log_text(), encoding="utf-8")


# ---------------------------------------------------------------------------
# loss

def cross_entropy_loss(logits: Tensor, targets: list[int],
                       pad_id: int = PAD) -> Tensor:
    """Mean negative log-likelihood over non-pad target positions."""
    targets = list(targets)
    if len(targets) != logits.shape[0]:
        raise nc.ShapeError("one target per logit row required")
    keep = [i for i, t in enumerate(targets) if t != pad_id]
    if not keep:
        raise ContractError("cross_entropy_loss: every position is padding")
    lp = nc.log_softmax_rows(logits)
    picked = nc.pick_per_row(lp, [t if t != pad_id else 0 for t in targets])
    mask = np.zeros(len(targets))
    mask[keep] = 1.0
    total = nc.tsum(nc.mul(picked, Tensor(mask)))
    return nc.scale(total, -1.0 / len(keep))


def sample_loss(model: GlotModel, sample_frames: np.ndarray,
                gloss_ids: list[int], text_ids: list[int]) -> Tensor:
    """Teacher-forced CE(gloss) + CE(text), unweighted."""
    gloss_logits, text_logits = model.s2g2t_forward(sample_frames, gloss_ids,
                                                    text_ids)
    gl = cross_entropy_loss(gloss_logits, list(gloss_ids) + [EOS])
    tl = cross_entropy_loss(text_logits, list(text_ids) + [EOS])
    return nc.add(gl, tl)


# ---------------------------------------------------------------------------
# optimizer and schedule

class Adam:
    """Standard Adam with bias correction (beta1=0.9, beta2=0.999)."""

    def __init__(self, params: dict[str, Tensor], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name in self.params:
            p = self.params[name]
            if p.grad is None:
                continue
            g = p.grad
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            mhat = self.m[name] / b1c
            vhat = self.v[name] / b2c
            p.data = p.data - lr * mhat / (np.sqrt(vhat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


class LrSchedule:
    """Constant, reduce-on-plateau, or fixed-epoch halving with a floor."""

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self.lr = cfg.lr_initial
        self._best: float | None = None
        self._bad = 0

    def on_epoch_end(self, epoch: int, metric: float) -> float:
        cfg = self.cfg
        if cfg.schedule == "constant":
            return self.lr
        if cfg.schedule == "fixed":
            if epoch in cfg.fixed_decay_epochs:
                self.lr = max(self.lr * cfg.lr_factor, cfg.lr_floor)
            return self.lr
        # plateau: halve after `plateau_patience` evaluations with no
        # improvement, clamped at the floor
        if self._best is None or metric > self._best:
            self._best = metric
            self._bad = 0
        else:
            self._bad += 1
            if self._bad >= cfg.plateau_patience:
                self.lr = max(self.lr * cfg.lr_factor, cfg.lr_floor)
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


def evaluate_bleu(model: GlotModel, samples: list[EncodedSample],
                  max_decode_len: int | None = None
                  ) -> tuple[metrics.BleuReport, metrics.BleuReport]:
    """(gloss report, text report) from greedy decoding every sample."""
    gloss_pairs, text_pairs = [], []
    for s in samples:
        res = model.greedy_decode(s.features, max_len=max_decode_len)
        gloss_pairs.append((model.gloss_vocab.decode_content(res.gloss_ids),
                            [s.gloss_tokens]))
        text_pairs.append((model.text_vocab.decode_content(res.text_ids),
                           [s.text_tokens]))
    return metrics.corpus_bleu(gloss_pairs), metrics.corpus_bleu(text_pairs)


# ---------------------------------------------------------------------------
# training loops

def train(model: GlotModel, train_set: list[EncodedSample],
          val_set: list[EncodedSample], cfg: TrainConfig,
          fold_index: int = 1) -> FoldReport:
    """Seeded epoch/batch training; keeps the checkpoint of the best
    validation BLEU-4 epoch when a checkpoint_dir is configured."""
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
                total = None
                for s in batch:
                    ls = sample_loss(model, s.features, s.gloss_ids, s.text_ids)
                    total = ls if total is None else nc.add(total, ls)
                loss = nc.scale(total, 1.0 / len(batch))
            val = loss.item()
            if not math.isfinite(val):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, batch {start}")
            opt.zero_grad()
            tape.backward(loss)
            opt.step(lr=sched.lr)
            losses.append(val)
        model.eval()
        _, text_report = evaluate_bleu(model, val_set,
                                       max_decode_len=cfg.max_decode_len)
        bleu = dict(text_report.bleu)
        rec = EpochRecord(epoch=epoch, train_loss=float(np.mean(losses)),
                          bleu=bleu, lr=sched.lr)
        report.epochs.append(rec)
        if bleu[4] > best_bleu4:
            best_bleu4 = bleu[4]
            report.best_epoch = epoch
            report.best_bleu4 = bleu[4]
            report.best_bleu = bleu
            if ckpt_path is not None:
                save_checkpoint(model, ckpt_path)
                report.checkpoint_path = str(ckpt_path)
        sched.on_epoch_end(epoch, bleu[4])
        if cfg.stop_bleu1 is not None and bleu[1] >= cfg.stop_bleu1:
            break
    if ckpt_path is not None and report.checkpoint_path is None:
        save_checkpoint(model, ckpt_path)
        report.checkpoint_path = str(ckpt_path)
    return report


def make_folds(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle, then contiguous near-equal folds (earlier folds take
    the remainder)."""
    if k < 2:
        raise nc.ConfigError(f"cross-validation needs at least 2 folds, got {k}")
    if n < k:
        raise nc.ConfigError(f"dataset of {n} samples cannot form {k} folds")
    order = np.random.default_rng(seed).permutation(n)
    base, rem = divmod(n, k)
    folds, start = [], 0
    for i in range(k):
        size = base + (1 if i < rem else 0)
        folds.append(order[start:start + size])
        start += size
    return folds


def cross_validate(samples: list[EncodedSample], cfg: TrainConfig,
                   model_factory, k: int = 5
                   ) -> tuple[list[FoldReport], FoldReport]:
    """Train k folds; the best fold is the argmax of validation BLEU-4
    (ties resolved toward the lowest fold index)."""
    folds = make_folds(len(samples), k, cfg.seed)
    reports = []
    for i, val_idx in enumerate(folds, start=1):
        val_mask = np.zeros(len(samples), dtype=bool)
        val_mask[val_idx] = True
        train_set = [s for j, s in enumerate(samples) if not val_mask[j]]
        val_set = [samples[j] for j in val_idx]
        model = model_factory(i)
        reports.append(train(model, train_set, val_set, cfg, fold_index=i))
    best = max(reports, key=lambda r: (r.best_bleu4, -r.fold_index))
    return reports, best


# ---------------------------------------------------------------------------
# whole-model gradient verification

@dataclass
class GroupCheck:
    name: str
    max_rel_err: float
    passed: bool


def gradient_check_model(model: GlotModel, frames: np.ndarray,
                         gloss_ids: list[int], text_ids: list[int],
                         tol: float = 1e-3, step: float = 1e-5,
                         corrupt: str | None = None) -> list[GroupCheck]:
    """Compare every parameter's backward gradient against central finite
    differences of the teacher-forced loss.

    ``corrupt`` names a parameter whose analytic gradient is deliberately
    perturbed; used as a negative control of the harness itself.
    """
    model.eval()
    model.zero_grad()
    with Tape() as tape:
        loss = sample_loss(model, frames, gloss_ids, text_ids)
    tape.backward(loss)

    def loss_value() -> float:
        return sample_loss(model, frames, gloss_ids, text_ids).item()

    results = []
    for name, p in model.params.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        if corrupt == name:
            analytic = analytic + 1.0
        numeric = nc.numeric_grad(loss_value, p.data, step=step)
        err = nc.rel_err(analytic, numeric)
        results.append(GroupCheck(name=name, max_rel_err=err, passed=err <= tol))
    return results
