"""Walk through BLEU scoring: clipped precision, brevity penalty, BLEU-1..4.

The classic degenerate candidate "the the the ..." shows why n-gram counts
are clipped against the reference; a short candidate shows the brevity
penalty at work; a corpus example shows how counts are pooled before the
precision ratios are formed.
"""

from glot import metrics


def show(report, label):
    print(f"{label}: {report.record()}")


def main():
    cand = "the the the the the the the".split()
    ref = "the cat is on the mat".split()
    p1 = metrics.ngram_clipped_precision(cand, ref, 1)
    print(f'candidate "{" ".join(cand)}"')
    print(f'reference "{" ".join(ref)}"')
    print(f"clipped unigram precision: {p1:.4f}  (2/7 — 'the' is clipped "
          f"to its reference count of 2)\n")

    short = "a b c".split()
    long_ref = "a b c d e f".split()
    bp = metrics.brevity_penalty(len(short), len(long_ref))
    print(f"candidate of length 3 vs reference of length 6: "
          f"brevity penalty e^(1-6/3) = {bp:.4f}\n")

    rep = metrics.sentence_bleu("a b c d".split(), long_ref)
    show(rep, "sentence")
    print(f"  (all precisions are 1, so BLEU-4 = BP = e^-0.5 "
          f"= {rep.bleu[4]:.4f})\n")

    pairs = [
        ("the cat sat".split(), "the cat sat down".split()),
        ("a quick fox".split(), "a quick brown fox".split()),
        ("hello world".split(), "hello there world".split()),
    ]
    show(metrics.corpus_bleu(pairs), "corpus ")
    print("  (counts pooled across segments before the ratios are taken)")


if __name__ == "__main__":
    main()
