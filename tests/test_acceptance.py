"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured evidence (run pytest -s to see them)."""

import functools
import math
import time

import numpy as np

from glot import cli, dataio, metrics, numcore as nc, sparse_attention as sa
from glot import training
from glot.model import GlotConfig, GlotModel, save_checkpoint
from glot.numcore import Tensor


def _passed(n, msg):
    print(f"PASS criterion {n}: {msg}")


def test_criterion_1_index_set_oracle():
    t0 = time.perf_counter()
    for p in range(1, 4097):
        diff = p - np.arange(1, p + 1)
        is_pow2 = (diff > 0) & ((diff & (diff - 1)) == 0)
        oracle = tuple(int(q) for q in np.arange(1, p + 1)[is_pow2 | (diff == 0)])
        assert sa.log_index_set(p) == oracle, p
    dt = time.perf_counter() - t0
    assert dt < 1.0, f"oracle sweep took {dt:.2f}s"
    _passed(1, f"log index sets match brute force for p in [1,4096] in {dt:.2f}s")


def _taped_weights(backward) -> np.ndarray:
    """The softmax weights offset_attention's tape entry keeps, in the
    closure of its kernel's gradient: the shifted kernel's alpha, or the
    last of the arrays the dense kernel saves."""
    def cells(fn):
        return dict(zip(fn.__code__.co_freevars,
                        (c.cell_contents for c in fn.__closure__)))
    grads = cells(backward)["grads"]
    if isinstance(grads, functools.partial):  # _attend_grads and its saved
        return grads.args[0][-1]
    return cells(grads)["alpha"]


def test_criterion_2_complexity_counts():
    rng = np.random.default_rng(0)
    d = 8
    for L in (8, 64, 512, 1024):
        expected_sparse = sum(len(sa.log_index_set(p))
                              for p in range(1, L + 1))
        assert sa.count_attention_pairs(L, "logsparse") == expected_sparse
        assert expected_sparse <= L * (math.floor(math.log2(L)) + 2)
        assert sa.count_attention_pairs(L, "dense") == L * L

        # What the kernels score: the nonzero softmax weights a layer's
        # one offset_attention entry keeps on the tape, of its dense
        # kernel under build_mask below the crossover and of its shifted
        # kernel from it on.
        assert int(sa.build_mask(L).sum()) == expected_sparse
        x = Tensor(rng.normal(size=(L, d)), requires_grad=True)
        w_q, w_k = (Tensor(rng.normal(size=(d, d)) / 3) for _ in range(2))
        with nc.Tape() as tape:
            nc.offset_attention(x, w_q, w_k)
        [(_, _, backward)] = tape._entries
        assert backward.__qualname__.split(".")[0] == "offset_attention"
        weights = _taped_weights(backward)
        assert weights.shape == ((1, L, L) if L < nc.OFFSET_MIN_LENGTH else
                                 (len(nc.log_sparse_offsets(L)), L)), L
        assert np.count_nonzero(weights) == expected_sparse
    assert sa.count_attention_pairs(8, "logsparse") == 25
    assert sa.count_attention_pairs(8, "dense") == 64
    assert sa.count_attention_pairs(8, "causal_dense") == 36
    _passed(2, "pairs the kernels score equal the enumeration and bound "
               "for L in {8,64,512,1024}; L=8 gives 25/64/36")


def test_criterion_3_gradient_acceptance():
    cfg = GlotConfig.tiny(d_model=8, max_frames=8, feat_dim=5,
                          gloss_vocab_size=7, text_vocab_size=11)
    model = GlotModel(cfg, seed=0)
    frames = np.random.default_rng(1).normal(size=(6, 5))
    t0 = time.perf_counter()
    model.eval()
    results = nc.grad_check(
        lambda: training.batch_loss(model, [frames], [[5, 6, 5]],
                                    [[5, 7, 9, 6]]),
        model.params, tol=1e-3)
    dt = time.perf_counter() - t0
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    assert dt < 120.0, f"gradient sweep took {dt:.1f}s"
    worst = max(r.max_rel_err for r in results)
    _passed(3, f"{len(results)} parameter groups pass at 1e-3 "
               f"(worst {worst:.2e}) in {dt:.1f}s")


def test_criterion_4_gating_contract():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        F = int(rng.integers(1, 7))
        lssa_out = rng.normal(size=(F, 4)) * 3
        gap = rng.normal(size=(1, 4)) * 3
        g = rng.uniform(1e-6, 1 - 1e-6, size=(F, 1))
        out = nc.gated_mix(Tensor(g), Tensor(lssa_out), Tensor(gap), [F]).data
        lo = np.minimum(lssa_out, gap)
        hi = np.maximum(lssa_out, gap)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)
    lssa_out = Tensor(rng.normal(size=(5, 4)))
    gap = Tensor(rng.normal(size=(1, 4)))
    pure_lssa = nc.gated_mix(Tensor(np.ones((5, 1))), lssa_out, gap, [5])
    assert np.array_equal(pure_lssa.data, lssa_out.data)
    pure_gap = nc.gated_mix(Tensor(np.zeros((5, 1))), lssa_out, gap, [5])
    assert np.array_equal(pure_gap.data, np.tile(gap.data, (5, 1)))
    _passed(4, "1000 random gates stay inside the [min,max] envelope; "
               "g=0 and g=1 reproduce the pure branches bit-exactly")


def test_criterion_5_stacked_receptive_field():
    for L in range(1, 65):
        depth = max(1, math.ceil(math.log2(L))) if L > 1 else 1
        closure = sa.mask_closure(sa.build_mask(L), depth)
        assert np.array_equal(closure, np.tril(np.ones((L, L), bool))), L
    _passed(5, "ceil(log2 L) compositions reach the full causal pattern "
               "for all L <= 64")


def test_criterion_6_bleu_fidelity():
    cand = "the the the the the the the".split()
    ref = "the cat is on the mat".split()
    assert abs(metrics.ngram_clipped_precision(cand, ref, 1) - 2 / 7) < 1e-6
    assert abs(metrics.brevity_penalty(3, 6) - math.exp(-1)) < 1e-6
    rep = metrics.sentence_bleu("a b c d".split(), "a b c d e f".split())
    assert abs(rep.bleu[4] - math.exp(-0.5)) < 1e-6

    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(8)]
    for _ in range(100):
        c = [vocab[i] for i in rng.integers(0, 8, rng.integers(1, 10))]
        r = [vocab[i] for i in rng.integers(0, 8, rng.integers(1, 10))]
        s = metrics.sentence_bleu(c, r)
        k = metrics.corpus_bleu([(c, r)])
        for n in range(1, 5):
            assert abs(s.bleu[n] - k.bleu[n]) < 1e-12
    _passed(6, "hand-derived BLEU cases reproduce to 1e-6; corpus equals "
               "sentence on 100 singleton corpora")


def _learnability_setup(tmp_path, seed=7, n=16, noise=0.0):
    manifest = dataio.synth_generate(seed, n, 5, 8, noise, tmp_path)
    samples = manifest.load_samples()
    gv = dataio.build_vocab([s.gloss for s in samples])
    tv = dataio.build_vocab([s.text for s in samples])
    max_f = max(s.features.shape[0] for s in samples)
    max_t = max(max(len(s.gloss), len(s.text)) for s in samples)
    return manifest, samples, gv, tv, max_f, max_t


def _tiny_width_config(kind, gv, tv, max_f, max_t):
    return GlotConfig.tiny(d_model=16, ff_size=32, n_heads=2,
                           max_frames=max_f, max_target_len=max_t + 2,
                           gloss_vocab_size=len(gv), text_vocab_size=len(tv),
                           feat_dim=8, encoder_kind=kind)


def test_criterion_7_end_to_end_learnability(tmp_path, capsys):
    t0 = time.perf_counter()
    manifest, samples, gv, tv, max_f, max_t = _learnability_setup(tmp_path / "d")
    encoded = training.encode_samples(samples, gv, tv)
    tcfg = training.TrainConfig.set2(epochs=200, batch_size=4, lr_initial=1e-3,
                                     seed=0, stop_bleu1=0.9)
    trained = {}
    for kind in ("glot", "dense_baseline"):
        cfg = _tiny_width_config(kind, gv, tv, max_f, max_t)
        model = GlotModel(cfg, gloss_vocab=gv, text_vocab=tv, seed=0)
        report = training.train(model, encoded, encoded, tcfg)
        last = report.epochs[-1]
        assert last.bleu[1] >= 0.9, (kind, last.bleu)
        assert last.epoch <= 200
        trained[kind] = (model, last)
    dt = time.perf_counter() - t0
    assert dt < 300.0, f"learnability runs took {dt:.0f}s"

    # the overfit checkpoint also satisfies the CLI evaluation path
    ckpt = tmp_path / "overfit.ckpt"
    save_checkpoint(trained["glot"][0], ckpt)
    man = dataio.read_manifest(tmp_path / "d" / "manifest.tsv")
    for e in man.entries:
        e.split = "cv"
    allcv = tmp_path / "d" / "allcv.tsv"
    dataio.write_manifest(allcv, man.entries)
    code = cli.main(["eval", "--manifest", str(allcv), "--checkpoint",
                     str(ckpt), "--split", "cv"])
    out = capsys.readouterr().out
    assert code == 0
    text_line = next(l for l in out.splitlines() if l.startswith("text"))
    bleu1 = float(text_line.split("bleu1=")[1].split()[0])
    assert bleu1 >= 0.9
    epochs = {k: v[1].epoch for k, v in trained.items()}
    _passed(7, f"text BLEU-1 >= 0.9 on training data for both encoder kinds "
               f"(epochs {epochs}) in {dt:.0f}s")


def test_criterion_8_ab_trend_table(tmp_path):
    manifest, samples, gv, tv, max_f, max_t = _learnability_setup(
        tmp_path, seed=11, n=80, noise=0.05)
    cv = [s for s, e in zip(samples, manifest.entries) if e.split == "cv"]
    test = [s for s, e in zip(samples, manifest.entries) if e.split == "test"]
    assert len(cv) == 64 and len(test) == 16
    train_enc = training.encode_samples(cv, gv, tv)
    test_enc = training.encode_samples(test, gv, tv)

    def run_cell(kind, seed):
        cfg = _tiny_width_config(kind, gv, tv, max_f, max_t)
        model = GlotModel(cfg, gloss_vocab=gv, text_vocab=tv, seed=seed)
        tcfg = training.TrainConfig.set2(epochs=3, batch_size=8,
                                         lr_initial=1e-3, seed=seed)
        training.train(model, train_enc, test_enc, tcfg)
        _, text_report = training.evaluate_bleu(model, test_enc)
        return text_report.bleu[4]

    rows = []
    for seed in range(5):
        rows.append((seed, run_cell("glot", seed),
                     run_cell("dense_baseline", seed)))
    header = f"{'seed':>4} {'glot_bleu4':>12} {'dense_bleu4':>12}"
    table = [header] + [f"{s:>4} {g:>12.6f} {d:>12.6f}" for s, g, d in rows]
    print("\n".join(table))
    # deterministic: repeating one cell reproduces its value exactly
    assert run_cell("glot", 0) == rows[0][1]
    assert all(0.0 <= g <= 1.0 and 0.0 <= d <= 1.0 for _, g, d in rows)
    _passed(8, "held-out A/B BLEU-4 table produced deterministically over "
               "5 seeds (no superiority threshold enforced)")


def test_criterion_9_protocol_fidelity(tmp_path, capsys):
    manifest, samples, gv, tv, max_f, max_t = _learnability_setup(
        tmp_path, seed=13, n=10)
    encoded = training.encode_samples(samples, gv, tv)
    tcfg = training.TrainConfig.set2(epochs=1, batch_size=4, seed=1)
    cfg = _tiny_width_config("glot", gv, tv, max_f, max_t)

    def factory(fold):
        return GlotModel(cfg, gloss_vocab=gv, text_vocab=tv, seed=fold)

    reports, best = training.cross_validate(encoded, tcfg, factory, k=5)
    folds = training.make_folds(len(encoded), 5, tcfg.seed)
    union = sorted(int(i) for f in folds for i in f)
    assert union == list(range(10))
    sizes = [len(f) for f in folds]
    assert sizes == [2, 2, 2, 2, 2]
    best_b4 = max(r.best_bleu4 for r in reports)
    assert best.best_bleu4 == best_b4
    assert best.fold_index == min(r.fold_index for r in reports
                                  if r.best_bleu4 == best_b4)

    cli._print_effective_config(GlotConfig.set1(), training.TrainConfig.set1())
    out1 = capsys.readouterr().out
    for token in ("d_model=512", "n_heads=8", "ff_size=2048", "dropout=0.1",
                  "lr_initial=5e-05", "lr_floor=2e-06"):
        assert token in out1, token
    cli._print_effective_config(GlotConfig.set2(), training.TrainConfig.set2())
    out2 = capsys.readouterr().out
    for token in ("d_model=256", "n_heads=8", "ff_size=256", "dropout=0.0",
                  "lr_initial=0.001"):
        assert token in out2, token
    _passed(9, "5 disjoint covering folds, argmax-BLEU-4 selection, and "
               "exact Table-style preset values")


def test_criterion_10_pipeline_determinism(tmp_path, capsys):
    def pipeline(root):
        root.mkdir()
        assert cli.main(["synth", "--samples", "10", "--seed", "21",
                         "--out", str(root / "data")]) == 0
        assert cli.main(["train", "--manifest",
                         str(root / "data" / "manifest.tsv"),
                         "--epochs", "2", "--d-model", "8", "--ff-size", "8",
                         "--heads", "2", "--batch-size", "4", "--seed", "5",
                         "--out", str(root / "run")]) == 0
        assert cli.main(["eval", "--manifest",
                         str(root / "data" / "manifest.tsv"),
                         "--checkpoint", str(root / "run" / "fold1_best.ckpt"),
                         "--split", "test",
                         "--out", str(root / "eval.txt")]) == 0
        capsys.readouterr()
        return ((root / "run" / "fold1_best.ckpt").read_bytes(),
                (root / "eval.txt").read_bytes())

    ckpt1, rec1 = pipeline(tmp_path / "one")
    ckpt2, rec2 = pipeline(tmp_path / "two")
    assert ckpt1 == ckpt2
    assert rec1 == rec2
    _passed(10, "synth->train->eval twice with one seed gives bit-identical "
                "checkpoints and BLEU records")
