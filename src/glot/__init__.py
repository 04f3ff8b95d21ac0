"""Gated log-sparse transformer toolkit for sign->gloss->text experiments."""

from .numcore import Tape, Tensor, grad_check
from .sparse_attention import (build_mask, count_attention_pairs,
                               log_index_set, stacked_lssa)
from .model import GlotConfig, GlotModel, load_checkpoint, save_checkpoint
from .metrics import BleuReport, corpus_bleu, sentence_bleu
from .dataio import Manifest, SignSample, Vocabulary, synth_generate
from .training import Adam, FoldReport, TrainConfig, cross_validate, train

__all__ = [
    "Adam", "BleuReport", "FoldReport", "GlotConfig", "GlotModel",
    "Manifest", "SignSample", "Tape", "Tensor", "TrainConfig",
    "Vocabulary", "build_mask", "corpus_bleu", "count_attention_pairs",
    "cross_validate", "grad_check", "load_checkpoint", "log_index_set",
    "save_checkpoint", "sentence_bleu", "stacked_lssa",
    "synth_generate", "train",
]
