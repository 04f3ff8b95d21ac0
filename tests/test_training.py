import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from glot import dataio, numcore as nc, training
from glot.model import GlotConfig, GlotModel, save_checkpoint
from glot.numcore import Tape, Tensor


def _mean_weights(n):
    """Row weights under which the loss is the mean over n rows."""
    return np.full(n, 1.0 / n)


def test_cross_entropy_uniform():
    logits = Tensor(np.zeros((3, 4)))
    loss = training.cross_entropy_loss(logits, [1, 2, 3], _mean_weights(3))
    assert loss.item() == pytest.approx(np.log(4), abs=1e-12)


def test_cross_entropy_saturates_to_zero():
    logits = np.zeros((2, 4))
    logits[0, 1] = logits[1, 2] = 50.0
    loss = training.cross_entropy_loss(Tensor(logits), [1, 2],
                                       _mean_weights(2))
    assert loss.item() < 1e-9


def test_cross_entropy_matches_naive_loop():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(5, 6))
    targets = [5, 1, 4, 3, 2]
    loss = training.cross_entropy_loss(Tensor(logits), targets,
                                       _mean_weights(5)).item()
    total = 0.0
    for i, t in enumerate(targets):
        row = logits[i]
        total += -(row[t] - np.log(np.exp(row - row.max()).sum()) - row.max())
    assert loss == pytest.approx(total / len(targets), abs=1e-12)


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
    sched.on_epoch_end(0.5)                # first value becomes best
    for _ in range(3):
        sched.on_epoch_end(0.4)             # 3 non-improvements
    assert sched.lr == pytest.approx(2.5e-5)
    # improvement resets patience without changing lr
    sched.on_epoch_end(0.9)
    sched.on_epoch_end(0.1)
    assert sched.lr == pytest.approx(2.5e-5)


def test_plateau_floor_clamp():
    cfg = training.TrainConfig.set1()
    sched = training.LrSchedule(cfg)
    sched.on_epoch_end(1.0)
    for _ in range(8 * 3):                  # enough decays to hit the floor
        sched.on_epoch_end(0.0)
    assert sched.lr == 2e-6
    # the geometric sequence 5e-5 * 0.5^5 would undershoot the floor
    assert 5e-5 * 0.5 ** 5 < 2e-6


def test_schedule_monotone_nonincreasing():
    cfg = training.TrainConfig.set1()
    sched = training.LrSchedule(cfg)
    rng = np.random.default_rng(2)
    last = sched.lr
    for _ in range(100):
        lr = sched.on_epoch_end(float(rng.random()))
        assert lr <= last and lr >= 2e-6
        last = lr


def test_unknown_schedule_rejected():
    with pytest.raises(nc.ConfigError, match="unknown schedule 'fixed'"):
        training.TrainConfig.set1(schedule="fixed")


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


def test_make_folds_rejects_a_negative_seed():
    # numpy's generators take no negative seed; the library says so first
    with pytest.raises(nc.ConfigError, match="seed must be non-negative"):
        training.make_folds(10, 2, -1)


@pytest.mark.parametrize("field, value", [
    ("epochs", 0), ("batch_size", -1), ("lr_initial", 0.0),
    ("lr_initial", float("nan")), ("seed", -1)])
def test_train_config_rejects_nonpositive(field, value):
    with pytest.raises(nc.ConfigError):
        training.TrainConfig.set2(**{field: value})
    with pytest.raises(nc.ConfigError):
        training.TrainConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("epochs", "3"), ("seed", 1.5), ("batch_size", np.int64(4)),
    ("lr_initial", True), ("schedule", None), ("checkpoint_dir", 3),
    ("stop_bleu1", "0.5")])
def test_train_config_rejects_a_field_of_the_wrong_type(field, value):
    with pytest.raises(nc.ConfigError,
                       match=rf"^config {field}=.* is not a valid "):
        training.TrainConfig(**{field: value})


def test_train_config_float_fields_take_an_int():
    cfg = training.TrainConfig(lr_initial=1, checkpoint_dir="runs",
                               stop_bleu1=1)
    assert (cfg.lr_initial, cfg.checkpoint_dir, cfg.stop_bleu1) == \
        (1, "runs", 1)


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
    lines = rep1.log_text().splitlines()
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


def test_full_model_grad_check_negative_control():
    cfg = GlotConfig.tiny(max_frames=8, feat_dim=5)
    model = GlotModel(cfg, seed=0)
    frames = np.random.default_rng(0).normal(size=(3, 5))
    target = "enc0.gate_b"
    model.eval()
    results = nc.grad_check(
        lambda: training.batch_loss(model, [frames], [[5, 6]], [[5, 7]]),
        model.params, tol=1e-3, corrupt=target)
    bad = [r for r in results if not r.passed]
    assert [r.name for r in bad] == [target]


def test_no_divergence_across_seeds(tmp_path):
    # loss finiteness on short seeded runs; divergence would raise
    cfg, gv, tv, encoded = _tiny_corpus(tmp_path, n=5, noise=0.1)
    for seed in range(5):
        model = GlotModel(cfg, gloss_vocab=gv, text_vocab=tv, seed=seed)
        tcfg = training.TrainConfig.set2(epochs=1, batch_size=5, seed=seed)
        training.train(model, encoded[:4], encoded[4:], tcfg)


def test_train_with_dropout_bit_reproducible(tmp_path):
    cfg, gv, tv, encoded = _tiny_corpus(tmp_path / "data")
    cfg = replace(cfg, dropout=0.2)

    def run():
        model = GlotModel(cfg, gloss_vocab=gv, text_vocab=tv, seed=1)
        tcfg = training.TrainConfig.set2(epochs=2, batch_size=3, seed=4)
        return training.train(model, encoded[:4], encoded[4:], tcfg), model

    (rep1, m1), (rep2, m2) = run(), run()
    assert [e.line() for e in rep1.epochs] == [e.line() for e in rep2.epochs]
    for name in m1.params:
        assert np.array_equal(m1.params[name].data, m2.params[name].data)


# Three samples of mixed frame, gloss and text lengths; the last has no
# gloss, so its text memory is its encoder memory alone.
BATCH = ([np.random.default_rng(40).normal(size=(n, 5)) for n in (3, 7, 5)],
         [[5, 6], [6, 5, 6, 5], []],
         [[5, 7, 9], [8], [10, 6, 7, 5]])


def _batch_model(kind, **overrides):
    cfg = GlotConfig.tiny(max_frames=8, feat_dim=5, encoder_kind=kind,
                          **overrides)
    return GlotModel(cfg, seed=3)


def _loss_and_grads(model, *batch):
    training.Adam(model.params).zero_grad()
    with Tape() as tape:
        loss = training.batch_loss(model, *batch)
    tape.backward(loss)
    return loss.item(), {n: np.zeros_like(p.data) if p.grad is None
                         else p.grad for n, p in model.params.items()}


@pytest.mark.parametrize("kind", ["glot", "dense_baseline"],
                         ids=["glot-sinusoidal", "dense_baseline-sinusoidal"])
def test_batch_loss_is_mean_of_sample_losses(kind):
    model = _batch_model(kind)
    loss, grads = _loss_and_grads(model, *BATCH)
    singles = [_loss_and_grads(model, *([x] for x in sample))
               for sample in zip(*BATCH)]
    mean = sum(v for v, _ in singles) / len(singles)
    assert abs(loss - mean) <= 1e-12 * abs(mean)
    for name, g in grads.items():
        ref = sum(s[name] for _, s in singles) / len(singles)
        scale = max(np.abs(ref).max(), 1e-300)
        assert np.abs(g - ref).max() <= 1e-12 * scale, name


@pytest.mark.parametrize("kind", ["glot", "dense_baseline"])
@pytest.mark.parametrize("n", [1, 3])
def test_packed_encode_matches_encoding_clip_by_clip(kind, n):
    # One encode over the packed clips against one encode per clip, its
    # memories stacked: the batch loss to 1e-12 relative and every
    # gradient to 1e-12 of its group's largest entry (the row-wise layers
    # sum a weight's gradient over all clips at once); a lone clip is the
    # same computation, so equal to the bit.
    batch = [part[:n] for part in BATCH]
    model = _batch_model(kind)
    packed_loss, packed = _loss_and_grads(model, *batch)
    model.encode = lambda frames: nc.concat_rows(*(
        GlotModel.encode(model, [f]) for f in frames))
    loss, grads = _loss_and_grads(model, *batch)
    tol = 0.0 if n == 1 else 1e-12
    assert abs(packed_loss - loss) <= tol * abs(loss)
    for name, g in grads.items():
        scale = max(np.abs(g).max(), 1e-300)
        assert np.abs(packed[name] - g).max() <= tol * scale, name


def _adam_reference_step(params, m, v, t, lr, beta1=0.9, beta2=0.999,
                         eps=1e-8):
    """The per-parameter Adam loop that the one-pass step replaced."""
    b1c = 1.0 - beta1 ** t
    b2c = 1.0 - beta2 ** t
    for name, p in params.items():
        g = p.grad
        m[name] = beta1 * m[name] + (1 - beta1) * g
        v[name] = beta2 * v[name] + (1 - beta2) * g * g
        mhat = m[name] / b1c
        vhat = v[name] / b2c
        p.data = p.data - lr * mhat / (np.sqrt(vhat) + eps)


def test_adam_one_pass_bit_equal_to_per_parameter_loop():
    rng = np.random.default_rng(41)
    shapes = {"w": (3, 4), "b": (4,), "s": (), "u": (2, 2)}
    start = {n: rng.normal(size=shape) for n, shape in shapes.items()}
    params = {n: Tensor(a.copy(), requires_grad=True) for n, a in start.items()}
    ref = {n: Tensor(a.copy(), requires_grad=True) for n, a in start.items()}
    opt = training.Adam(params)
    m = {n: np.zeros(shape) for n, shape in shapes.items()}
    v = {n: np.zeros(shape) for n, shape in shapes.items()}
    for t in range(1, 12):
        for n, shape in shapes.items():
            g = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
            params[n].grad = ref[n].grad = g
        opt.step(lr=1e-2)
        _adam_reference_step(ref, m, v, t, lr=1e-2)
        for n in shapes:
            assert params[n].data.shape == shapes[n]
            assert np.array_equal(params[n].data, ref[n].data), (t, n)
        # the flat moments hold each parameter's segment in params' order
        for flat, per_param in ((opt.m, m), (opt.v, v)):
            assert np.array_equal(flat, np.concatenate(
                [per_param[n].reshape(-1) for n in shapes])), t


def test_adam_step_with_a_missing_gradient_raises_and_changes_nothing():
    rng = np.random.default_rng(42)
    params = {n: Tensor(rng.normal(size=shape), requires_grad=True)
              for n, shape in (("w", (3, 2)), ("b", (2,)), ("s", ()))}
    opt = training.Adam(params)
    for p in params.values():
        p.grad = rng.normal(size=p.shape)
    opt.step(lr=1e-2)
    before = {n: p.data.copy() for n, p in params.items()}
    m, v = opt.m.copy(), opt.v.copy()
    params["w"].grad = rng.normal(size=(3, 2))
    params["b"].grad = None
    params["s"].grad = rng.normal(size=())
    with pytest.raises(nc.ContractError, match="'b' has no gradient"):
        opt.step(lr=1e-2)
    assert opt.t == 1
    assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)
    for n, p in params.items():
        assert np.array_equal(p.data, before[n]), n


def test_adam_gives_each_parameter_an_array_of_its_own():
    # A 0-d parameter stays a 0-d array that in-place edits reach (as
    # grad_check's perturbations do), and no parameter is a view into
    # another's memory or into the moments: views of one flat array made
    # greedy decoding slower.
    rng = np.random.default_rng(44)
    shapes = {"w": (3, 4), "s": (), "b": (4,), "u": (2, 2)}
    params = {n: Tensor(rng.normal(size=shape), requires_grad=True)
              for n, shape in shapes.items()}
    opt = training.Adam(params)
    for _ in range(3):
        for p in params.values():
            p.grad = rng.normal(size=p.shape)
        opt.step(lr=1e-2)
    for n, p in params.items():
        assert type(p.data) is np.ndarray and p.data.shape == shapes[n], n
        assert p.data.flags.c_contiguous and p.data.flags.writeable, n
        owner = p.data if p.data.base is None else p.data.base
        assert owner.nbytes == p.data.nbytes, n
        others = [q.data for k, q in params.items() if k != n]
        assert not any(np.shares_memory(p.data, o)
                       for o in [*others, opt.m, opt.v]), n


def test_adam_step_at_set2_width_holds_at_most_3_5_parameter_copies():
    # The moments update in place, the flat gradient is freed once they
    # are, and the step is one flat array, so a step's traced peak stays
    # near 3 copies of the N parameters; keeping the flat gradient made it
    # 4, and a flat copy of the parameters on top of that 8.
    rng = np.random.default_rng(45)
    params = GlotModel(GlotConfig.set2(), seed=0).params
    for p in params.values():
        p.grad = rng.normal(size=p.shape)
    n = sum(p.data.size for p in params.values())
    opt = training.Adam(params)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        opt.step(lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert n > 10 ** 6 and peak <= 3.5 * n * 8, peak / (n * 8)


@pytest.mark.parametrize("kind", ["glot", "dense_baseline"])
def test_batch_loss_gradients_match_finite_differences(kind):
    model = _batch_model(kind)
    names = ("frame_embed", "dec_gloss0.self.wq", "dec_text0.cross.wk",
             "embed_gloss")
    checks = nc.grad_check(lambda: training.batch_loss(model, *BATCH),
                           {n: model.params[n] for n in names}, tol=1e-3)
    assert [(c.name, c.max_rel_err) for c in checks if not c.passed] == []


def test_decoder_and_loss_record_once_per_batch():
    # The encoder's row-wise layers, the decoders and the loss record the
    # same ops for any batch size. A sample adds the slices of its rows
    # (the log-sparse stack's input and its text memory), its gloss
    # embedding's two ops (the third sample has none) and, for glot, its
    # log-sparse stack of one op per layer. Packing a second sample adds
    # glot's concat_rows of the stacks' outputs. A lone sample's slices
    # are its whole memory and record nothing.
    for kind in ("glot", "dense_baseline"):
        model = _batch_model(kind)
        stack = model.config.lssa_depth if kind == "glot" else 0
        slices = 2 if kind == "glot" else 1
        entries = []
        for n in (1, 2, 3):
            with Tape() as tape:
                training.batch_loss(model, *(part[:n] for part in BATCH))
            entries.append(len(tape))
        assert entries[1] - entries[0] == stack + 2 * slices + 2 + (stack > 0)
        assert entries[2] - entries[1] == stack + slices


def test_one_tape_entry_per_attention_block():
    # A 4-clip batch at tiny width records 75 tape entries for glot and 46
    # for the dense baseline, 97 and 72 when each attention block was five
    # ops and 81 and 52 when each stage's loss was four (log-softmax, pick,
    # mul, sum): each block is one attention entry, the two decoder stages'
    # self- and cross-attention and the dense encoder's self-attention, and
    # each stage's loss one cross_entropy entry.
    rng = np.random.default_rng(40)
    frames = [rng.normal(size=(n, 5)) for n in (3, 7, 5, 8)]
    gloss = [[5, 6], [6, 5, 6, 5], [5], [6, 6]]
    text = [[5, 7, 9], [8], [10, 6, 7, 5], [7, 8]]
    for kind, entries, blocks in (("glot", 75, 4), ("dense_baseline", 46, 5)):
        cfg = GlotConfig.tiny(max_frames=32, feat_dim=5, encoder_kind=kind)
        model = GlotModel(cfg, seed=3)
        with Tape() as tape:
            training.batch_loss(model, frames, gloss, text)
            ops = [bw.__qualname__.split(".")[0] for _, _, bw in tape._entries]
        assert len(ops) == entries
        assert ops.count("attention") == blocks
        assert ops.count("cross_entropy") == 2


def test_long_clip_training_run_is_pinned(tmp_path):
    # Two clips of 130 and 200 frames run the LSSA offset op in 3 layers,
    # so any reordering of that op's float sums, forward or backward,
    # changes these bytes. The three ops that the fused offset op replaced
    # (two matmul projections, then attention over them) gave this digest.
    rng = np.random.default_rng(5)
    pairs = [(130, ["a", "b", "c"], ["x", "y"]),
             (200, ["b", "c"], ["y", "z", "x"])]
    gv = dataio.build_vocab([g for _, g, _ in pairs])
    tv = dataio.build_vocab([t for _, _, t in pairs])
    samples = [training.EncodedSample(
        id=f"s{i}", features=rng.normal(size=(F, 5)), gloss_ids=gv.encode(g),
        text_ids=tv.encode(t), gloss_tokens=g, text_tokens=t)
        for i, (F, g, t) in enumerate(pairs)]
    cfg = GlotConfig.tiny(feat_dim=5, max_frames=200, n_lssa_layers=3,
                          gloss_vocab_size=len(gv), text_vocab_size=len(tv))
    model = GlotModel(cfg, gloss_vocab=gv, text_vocab=tv, seed=2)
    tcfg = training.TrainConfig.set2(epochs=2, batch_size=2, seed=3)
    training.train(model, samples, samples[:1], tcfg)
    save_checkpoint(model, tmp_path / "last.ckpt")
    assert hashlib.sha256((tmp_path / "last.ckpt").read_bytes()).hexdigest() \
        == "f5893d8ce8313fae703797e69d616385914a1792d9f6ca5fdb25a44979bf13b3"
