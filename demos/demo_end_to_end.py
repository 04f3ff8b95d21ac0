"""End-to-end walk-through: synthesize a corpus, train a tiny model on it,
and decode.

A noise-free synthetic corpus is learnable to near-perfect BLEU in under a
minute at tiny width, which makes it a good smoke test for the whole
pipeline: feature files, vocabularies, the gated log-sparse encoder, the
two-stage gloss-then-text decoder, Adam, and greedy decoding.
"""

import tempfile
from pathlib import Path

from glot import dataio, training
from glot.model import GlotConfig, GlotModel


def main():
    # Samples load into memory, so the corpus files need not outlive this.
    with tempfile.TemporaryDirectory(prefix="glot_demo_") as workdir:
        manifest = dataio.synth_generate(seed=7, n_samples=16, n_signs=5,
                                         feat_dim=8, noise_sigma=0.0,
                                         out_dir=Path(workdir))
        samples = manifest.load_samples()
    print(f"synthesized {len(samples)} samples under {workdir}")
    print(f"example gloss: {samples[0].gloss}")
    print(f"example text:  {samples[0].text}\n")

    gloss_vocab = dataio.build_vocab([s.gloss for s in samples])
    text_vocab = dataio.build_vocab([s.text for s in samples])
    max_frames = max(s.features.shape[0] for s in samples)
    max_target = max(max(len(s.gloss), len(s.text)) for s in samples)

    cfg = GlotConfig.tiny(d_model=16, ff_size=32, n_heads=2,
                          max_frames=max_frames, max_target_len=max_target + 2,
                          gloss_vocab_size=len(gloss_vocab),
                          text_vocab_size=len(text_vocab), feat_dim=8)
    model = GlotModel(cfg, gloss_vocab=gloss_vocab, text_vocab=text_vocab,
                      seed=0)
    encoded = training.encode_samples(samples, gloss_vocab, text_vocab)

    tcfg = training.TrainConfig.set2(epochs=200, batch_size=4,
                                     lr_initial=1e-3, seed=0, stop_bleu1=0.9)
    print("training until text BLEU-1 >= 0.9 on the training data ...")
    report = training.train(model, encoded, encoded, tcfg)
    for rec in report.epochs[:: max(1, len(report.epochs) // 8)]:
        print("  " + rec.line())
    print("  " + report.epochs[-1].line())

    model.eval()
    sample = samples[0]
    res = model.greedy_decode(sample.features)
    print(f"\ndecoded gloss: {gloss_vocab.decode_content(res.gloss_ids)}")
    print(f"true gloss:    {sample.gloss}")
    print(f"decoded text:  {text_vocab.decode_content(res.text_ids)}")
    print(f"true text:     {sample.text}")


if __name__ == "__main__":
    main()
