import numpy as np
import pytest

from glot import dataio, numcore as nc, training
from glot.dataio import EOS, PAD
from glot.model import GlotConfig, GlotModel
from glot.numcore import Tape, Tensor


def test_cross_entropy_uniform():
    logits = Tensor(np.zeros((3, 4)))
    loss = training.cross_entropy_loss(logits, [1, 2, 3])
    assert loss.item() == pytest.approx(np.log(4), abs=1e-12)


def test_cross_entropy_saturates_to_zero():
    logits = np.zeros((2, 4))
    logits[0, 1] = logits[1, 2] = 50.0
    loss = training.cross_entropy_loss(Tensor(logits), [1, 2])
    assert loss.item() < 1e-9


def test_cross_entropy_matches_naive_loop():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(5, 6))
    targets = [5, 1, PAD, 3, 2]
    loss = training.cross_entropy_loss(Tensor(logits), targets).item()
    total, n = 0.0, 0
    for i, t in enumerate(targets):
        if t == PAD:
            continue
        row = logits[i]
        total += -(row[t] - np.log(np.exp(row - row.max()).sum()) - row.max())
        n += 1
    assert loss == pytest.approx(total / n, abs=1e-12)


def test_cross_entropy_all_pad_rejected():
    with pytest.raises(nc.ContractError):
        training.cross_entropy_loss(Tensor(np.zeros((2, 3))), [PAD, PAD])


def test_adam_zero_gradient_no_change():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = training.Adam({"p": p})
    p.grad = np.zeros(2)
    opt.step(lr=0.1)
    assert np.array_equal(p.data, [1.0, 2.0])


def test_adam_first_step_is_lr_times_sign():
    for g in (3.7, -0.002):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = training.Adam({"p": p})
        p.grad = np.array([g])
        opt.step(lr=0.01)
        assert p.data[0] == pytest.approx(-0.01 * np.sign(g), rel=1e-4)


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(1)
        p = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        opt = training.Adam({"p": p})
        for _ in range(10):
            p.grad = rng.normal(size=(3, 3))
            opt.step(lr=1e-3)
        return p.data.copy()

    assert np.array_equal(run(), run())


def test_plateau_schedule():
    cfg = training.TrainConfig.set1()
    sched = training.LrSchedule(cfg)
    assert sched.lr == 5e-5
    sched.on_epoch_end(1, 0.5)             # first value becomes best
    for e in range(2, 5):
        sched.on_epoch_end(e, 0.4)          # 3 non-improvements
    assert sched.lr == pytest.approx(2.5e-5)
    # improvement resets patience without changing lr
    sched.on_epoch_end(5, 0.9)
    sched.on_epoch_end(6, 0.1)
    assert sched.lr == pytest.approx(2.5e-5)


def test_plateau_floor_clamp():
    cfg = training.TrainConfig.set1()
    sched = training.LrSchedule(cfg)
    sched.on_epoch_end(0, 1.0)
    epoch = 1
    for _ in range(8):                      # enough decays to hit the floor
        for _ in range(3):
            sched.on_epoch_end(epoch, 0.0)
            epoch += 1
    assert sched.lr == 2e-6
    # the geometric sequence 5e-5 * 0.5^5 would undershoot the floor
    assert 5e-5 * 0.5 ** 5 < 2e-6


def test_schedule_monotone_nonincreasing():
    cfg = training.TrainConfig.set1()
    sched = training.LrSchedule(cfg)
    rng = np.random.default_rng(2)
    last = sched.lr
    for e in range(100):
        lr = sched.on_epoch_end(e, float(rng.random()))
        assert lr <= last and lr >= 2e-6
        last = lr


def test_fixed_decay_schedule():
    cfg = training.TrainConfig.set1(schedule="fixed",
                                    fixed_decay_epochs=(2, 4, 6))
    sched = training.LrSchedule(cfg)
    for e in range(1, 8):
        sched.on_epoch_end(e, 0.0)
    assert sched.lr == pytest.approx(5e-5 * 0.125)


def test_make_folds_partition():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        k = int(rng.integers(2, min(n, 8) + 1))
        folds = training.make_folds(n, k, seed=int(rng.integers(1000)))
        union = np.concatenate(folds)
        assert len(union) == n and len(set(union.tolist())) == n


def test_make_folds_sizes():
    folds = training.make_folds(10, 5, seed=0)
    assert [len(f) for f in folds] == [2, 2, 2, 2, 2]
    folds = training.make_folds(11, 5, seed=0)
    assert [len(f) for f in folds] == [3, 2, 2, 2, 2]


def test_make_folds_too_small():
    with pytest.raises(nc.ConfigError):
        training.make_folds(3, 5, seed=0)


@pytest.mark.parametrize("k", [1, 0, -2])
def test_make_folds_needs_two_folds(k):
    with pytest.raises(nc.ConfigError):
        training.make_folds(10, k, seed=0)


@pytest.mark.parametrize("field, value", [
    ("epochs", 0), ("batch_size", -1), ("lr_initial", 0.0),
    ("lr_initial", float("nan"))])
def test_train_config_rejects_nonpositive(field, value):
    with pytest.raises(nc.ConfigError):
        training.TrainConfig.set2(**{field: value})
    with pytest.raises(nc.ConfigError):
        training.TrainConfig(**{field: value})


def _tiny_corpus(tmp_path, n=6, seed=9, noise=0.0):
    manifest = dataio.synth_generate(seed, n, 4, 5, noise, tmp_path)
    samples = manifest.load_samples()
    gv = dataio.build_vocab([s.gloss for s in samples])
    tv = dataio.build_vocab([s.text for s in samples])
    max_f = max(s.features.shape[0] for s in samples)
    max_t = max(max(len(s.gloss), len(s.text)) for s in samples)
    cfg = GlotConfig.tiny(max_frames=max_f, max_target_len=max_t + 2,
                          gloss_vocab_size=len(gv), text_vocab_size=len(tv),
                          feat_dim=5)
    encoded = training.encode_samples(samples, gv, tv)
    return cfg, gv, tv, encoded


def test_train_deterministic_and_logged(tmp_path):
    cfg, gv, tv, encoded = _tiny_corpus(tmp_path / "data")

    def run(ckpt_dir):
        model = GlotModel(cfg, gloss_vocab=gv, text_vocab=tv, seed=1)
        tcfg = training.TrainConfig.set2(epochs=2, batch_size=3, seed=4,
                                         checkpoint_dir=str(ckpt_dir))
        rep = training.train(model, encoded[:4], encoded[4:], tcfg)
        return rep, model

    rep1, m1 = run(tmp_path / "a")
    rep2, m2 = run(tmp_path / "b")
    assert [e.train_loss for e in rep1.epochs] == \
        [e.train_loss for e in rep2.epochs]
    for name in m1.params:
        assert np.array_equal(m1.params[name].data, m2.params[name].data)
    assert rep1.checkpoint_path is not None
    log = tmp_path / "log.txt"
    rep1.write_log(log)
    lines = log.read_text().splitlines()
    assert len(lines) == 3  # 2 epochs + summary
    assert lines[0].startswith("epoch=1 train_loss=")
    for key in ("bleu1=", "bleu2=", "bleu3=", "bleu4=", "lr="):
        assert key in lines[0]


def test_train_batch_count(tmp_path):
    cfg, gv, tv, encoded = _tiny_corpus(tmp_path, n=7)
    model = GlotModel(cfg, gloss_vocab=gv, text_vocab=tv, seed=1)
    tcfg = training.TrainConfig.set2(epochs=1, batch_size=3, seed=0)

    calls = []
    orig_step = training.Adam.step

    def counting_step(self, lr):
        calls.append(lr)
        orig_step(self, lr)

    training.Adam.step = counting_step
    try:
        training.train(model, encoded[:7], encoded[:1], tcfg)
    finally:
        training.Adam.step = orig_step
    assert len(calls) == int(np.ceil(7 / 3))


def test_cross_validate_selects_best(tmp_path):
    cfg, gv, tv, encoded = _tiny_corpus(tmp_path, n=10)
    tcfg = training.TrainConfig.set2(epochs=1, batch_size=4, seed=7)

    def factory(fold):
        return GlotModel(cfg, gloss_vocab=gv, text_vocab=tv, seed=fold)

    reports, best = training.cross_validate(encoded, tcfg, factory, k=5)
    assert len(reports) == 5
    assert [r.fold_index for r in reports] == [1, 2, 3, 4, 5]
    best_b4 = max(r.best_bleu4 for r in reports)
    assert best.best_bleu4 == best_b4
    assert best.fold_index == min(r.fold_index for r in reports
                                  if r.best_bleu4 == best_b4)


def test_gradient_check_model_negative_control():
    cfg = GlotConfig.tiny(max_frames=8, feat_dim=5)
    model = GlotModel(cfg, seed=0)
    frames = np.random.default_rng(0).normal(size=(3, 5))
    target = "enc0.gate_b"
    results = training.gradient_check_model(model, frames, [5, 6], [5, 7],
                                            corrupt=target)
    bad = [r for r in results if not r.passed]
    assert [r.name for r in bad] == [target]


def test_no_divergence_across_seeds(tmp_path):
    # loss finiteness on short seeded runs; divergence would raise
    cfg, gv, tv, encoded = _tiny_corpus(tmp_path, n=5, noise=0.1)
    for seed in range(5):
        model = GlotModel(cfg, gloss_vocab=gv, text_vocab=tv, seed=seed)
        tcfg = training.TrainConfig.set2(epochs=1, batch_size=5, seed=seed)
        training.train(model, encoded[:4], encoded[4:], tcfg)
