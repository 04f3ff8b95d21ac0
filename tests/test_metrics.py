import math

import numpy as np
import pytest

from glot import metrics


def test_unigram_precision_perfect_match():
    assert metrics.ngram_clipped_precision(list("abcd"), list("abcd"), 1) == 1.0


def test_clipped_counts():
    cand = "the the the the the the the".split()
    ref = "the cat is on the mat".split()
    assert metrics.ngram_clipped_precision(cand, ref, 1) == pytest.approx(2 / 7)


def test_disjoint_vocab_zero():
    assert metrics.ngram_clipped_precision(["x", "y"], ["a", "b"], 1) == 0.0


def test_short_candidate_flagged_zero():
    assert metrics.ngram_clipped_precision(["a"], ["a", "b"], 2) == 0.0
    assert metrics.ngram_clipped_precision([], ["a"], 1) == 0.0


def test_brevity_penalty_cases():
    assert metrics.brevity_penalty(7, 4) == 1.0
    assert metrics.brevity_penalty(5, 5) == 1.0
    assert metrics.brevity_penalty(3, 6) == pytest.approx(math.exp(-1.0), abs=1e-9)
    assert metrics.brevity_penalty(0, 3) == 0.0


def test_sentence_bleu_identical():
    rep = metrics.sentence_bleu(list("wxyz"), list("wxyz"))
    for n in range(1, 5):
        assert rep.bleu[n] == pytest.approx(1.0)


def test_sentence_bleu_zero_bigram_rule():
    cand = ["a", "c", "b"]
    ref = ["a", "b", "c"]  # shares unigrams, shares no bigram
    rep = metrics.sentence_bleu(cand, ref)
    assert rep.bleu[1] > 0.0
    assert rep.bleu[2] == rep.bleu[3] == rep.bleu[4] == 0.0


def test_sentence_bleu_brevity_case():
    rep = metrics.sentence_bleu("a b c d".split(), "a b c d e f".split())
    for n in range(1, 5):
        assert rep.precisions[n] == 1.0
    assert rep.brevity_penalty == pytest.approx(math.exp(-0.5), abs=1e-9)
    assert rep.bleu[4] == pytest.approx(0.6065, abs=1e-4)


def test_corpus_equals_sentence_on_singleton():
    rng = np.random.default_rng(0)
    vocab = [f"w{i}" for i in range(10)]
    for _ in range(100):
        cand = [vocab[i] for i in rng.integers(0, 10, rng.integers(1, 9))]
        ref = [vocab[i] for i in rng.integers(0, 10, rng.integers(1, 9))]
        s = metrics.sentence_bleu(cand, ref)
        c = metrics.corpus_bleu([(cand, ref)])
        for n in range(1, 5):
            assert c.bleu[n] == pytest.approx(s.bleu[n], abs=1e-12)


def test_corpus_duplication_invariance():
    pairs = [("a b c".split(), "a b d".split()),
             ("x y".split(), "x y z".split())]
    once = metrics.corpus_bleu(pairs)
    twice = metrics.corpus_bleu(pairs + pairs)
    for n in range(1, 5):
        assert twice.bleu[n] == pytest.approx(once.bleu[n], abs=1e-12)


def test_corpus_two_pair_naive_accumulator():
    pairs = [("a b c".split(), "a b c d".split()),
             ("e f".split(), "e g".split())]
    rep = metrics.corpus_bleu(pairs)

    # independent accumulation by hand
    def counts(cand, ref, n):
        from collections import Counter
        cg = Counter(tuple(cand[i:i + n]) for i in range(len(cand) - n + 1))
        rg = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
        num = sum(min(c, rg[g]) for g, c in cg.items())
        return num, sum(cg.values())

    def precision(n):
        n1 = counts(*pairs[0], n)
        n2 = counts(*pairs[1], n)
        return (n1[0] + n2[0]) / (n1[1] + n2[1])

    p1, p2 = precision(1), precision(2)
    assert rep.precisions[1] == pytest.approx(p1, abs=1e-12)
    assert rep.precisions[2] == pytest.approx(p2, abs=1e-12)
    c = len(pairs[0][0]) + len(pairs[1][0])
    r = 4 + 2
    bp = metrics.brevity_penalty(c, r)
    assert rep.brevity_penalty == pytest.approx(bp, abs=1e-12)
    # BLEU-1 and BLEU-2 of the full report, which always holds BLEU-1..4
    assert sorted(rep.bleu) == [1, 2, 3, 4]
    assert rep.bleu[1] == pytest.approx(bp * p1, abs=1e-12)
    assert rep.bleu[2] == pytest.approx(bp * math.sqrt(p1 * p2), abs=1e-12)


def test_scores_in_range_random():
    rng = np.random.default_rng(1)
    vocab = [f"t{i}" for i in range(6)]
    for _ in range(50):
        cand = [vocab[i] for i in rng.integers(0, 6, rng.integers(1, 12))]
        ref = [vocab[i] for i in rng.integers(0, 6, rng.integers(1, 12))]
        rep = metrics.sentence_bleu(cand, ref)
        assert 0.0 < rep.brevity_penalty <= 1.0
        for n in range(1, 5):
            assert 0.0 <= rep.bleu[n] <= 1.0


def test_monotone_weighting_when_precisions_ordered():
    rng = np.random.default_rng(2)
    vocab = ["a", "b", "c", "d"]
    checked = 0
    for _ in range(200):
        cand = [vocab[i] for i in rng.integers(0, 4, rng.integers(4, 10))]
        ref = [vocab[i] for i in rng.integers(0, 4, rng.integers(4, 10))]
        rep = metrics.sentence_bleu(cand, ref)
        ps = [rep.precisions[n] for n in range(1, 5)]
        if all(p > 0 for p in ps) and all(a >= b for a, b in zip(ps, ps[1:])):
            checked += 1
            bs = [rep.bleu[n] for n in range(1, 5)]
            assert all(a >= b - 1e-12 for a, b in zip(bs, bs[1:]))
    assert checked > 0


def test_record_schema():
    rep = metrics.sentence_bleu(["a"], ["a"])
    rec = rep.record()
    for key in ("bleu1", "bleu2", "bleu3", "bleu4", "p1", "p2", "p3", "p4",
                "bp", "c", "r"):
        assert f"{key}=" in rec


def test_empty_corpus_rejected():
    with pytest.raises(metrics.MetricError):
        metrics.corpus_bleu([])

