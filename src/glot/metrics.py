"""BLEU-1..4 with clipped n-gram precision and brevity penalty.

No smoothing: any zero n-gram precision zeroes the corresponding BLEU-n.
Scores are in [0, 1]. Tokens are compared case-sensitively as given.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import GlotError

ORDERS = (1, 2, 3, 4)   # the n of every BLEU-n reported


class MetricError(GlotError, ValueError):
    pass


@dataclass
class BleuReport:
    bleu: dict[int, float]            # n -> BLEU-n
    precisions: dict[int, float]      # n -> clipped precision p_n
    brevity_penalty: float
    candidate_length: int
    reference_length: int

    def record(self) -> str:
        """Single-line key=value form for machine parsing."""
        parts = []
        for n in sorted(self.bleu):
            parts.append(f"bleu{n}={self.bleu[n]:.6f}")
        for n in sorted(self.precisions):
            parts.append(f"p{n}={self.precisions[n]:.6f}")
        parts.append(f"bp={self.brevity_penalty:.6f}")
        parts.append(f"c={self.candidate_length}")
        parts.append(f"r={self.reference_length}")
        return " ".join(parts)


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def ngram_counts(candidate: list[str], reference: list[str],
                 n: int) -> tuple[int, int]:
    """(clipped matches, total candidate n-grams)."""
    if n < 1:
        raise MetricError(f"n must be >= 1, got {n}")
    cand = _ngrams(candidate, n)
    total = sum(cand.values())
    if total == 0:
        return 0, 0
    ref = _ngrams(reference, n)
    clipped = sum(min(c, ref[gram]) for gram, c in cand.items())
    return clipped, total


def ngram_clipped_precision(candidate: list[str], reference: list[str],
                            n: int) -> float:
    clipped, total = ngram_counts(candidate, reference, n)
    return clipped / total if total else 0.0


def brevity_penalty(c: int, r: int) -> float:
    """1 when the candidate is longer than the reference, else e^(1 - r/c).
    An empty candidate scores 0."""
    if c == 0:
        return 0.0
    if c > r:
        return 1.0
    return math.exp(1.0 - r / c)


def corpus_bleu(pairs: list[tuple[list[str], list[str]]]) -> BleuReport:
    """Accumulate clipped counts and lengths over all (candidate,
    reference) pairs before taking ratios; BLEU-1..4."""
    if not pairs:
        raise MetricError("corpus_bleu requires at least one pair")
    numers = {n: 0 for n in ORDERS}
    denoms = {n: 0 for n in ORDERS}
    c = r = 0
    for candidate, reference in pairs:
        for n in ORDERS:
            num, den = ngram_counts(candidate, reference, n)
            numers[n] += num
            denoms[n] += den
        c += len(candidate)
        r += len(reference)
    precisions = {n: numers[n] / denoms[n] if denoms[n] else 0.0
                  for n in ORDERS}
    bp = brevity_penalty(c, r)
    bleu = {}
    for n in ORDERS:
        ps = [precisions[i] for i in range(1, n + 1)]
        if any(p == 0.0 for p in ps):
            bleu[n] = 0.0
        else:
            bleu[n] = bp * math.exp(math.fsum(math.log(p) for p in ps) / n)
    return BleuReport(bleu=bleu, precisions=precisions, brevity_penalty=bp,
                      candidate_length=c, reference_length=r)


def sentence_bleu(candidate: list[str], reference: list[str]) -> BleuReport:
    """BLEU of one candidate: corpus_bleu of the single pair."""
    return corpus_bleu([(candidate, reference)])
