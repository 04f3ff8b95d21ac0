"""The benchmark's workloads and the checks on their outputs.

Each workload turns a seed into GLOTFEAT files and a manifest through
glot's public data API, builds the models, and then runs one *unit*: train
every model with per-epoch validation, then ``glot eval`` on its best
checkpoint. A unit's work depends only on the seed, so every unit of a run
repeats the same computation, and the outputs of the first unit are checked
in full while later units must reproduce them exactly.

Why these three (each stresses a different layer of the same code):

* ``tiny_learn`` - the acceptance learnability corpus at tiny width. Python
  dispatch per numcore op and the per-epoch greedy validation decode
  dominate; sparse attention is a few percent, so sparse-attention work
  should not move it.
* ``set2_train`` - the criterion-8 corpus at the paper's set2 width
  (d_model 256, 1.56M parameters). Teacher-forced forward and backward
  passes dominate, then Adam and the 12.5 MB checkpoint writes. It runs
  by hand only: BENCHMARK.json keeps the other two (see README.md).
* ``long_video`` - the tiny corpus stretched to video-like lengths
  (192..736 frames) with 10 log-sparse layers. ``stacked_lssa`` and its
  L x L masked softmax dominate, and so does their memory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from glot import cli, dataio, training
from glot.model import GlotConfig, GlotModel, load_checkpoint, save_checkpoint

N_SIGNS = 5
FEAT_DIM = 8
TINY_WIDTH = dict(d_model=16, ff_size=32, n_heads=2)
# Frame count of each long_video sample, by sample index. Fixed lengths
# keep the attention work (which grows as F^2) and the length mix of every
# training batch the same for every seed; the seed still picks each
# sample's signs, their order and the share of frames each sign spans.
LONG_FRAMES = np.linspace(192, 736, 16).round().astype(int)
LONG_LSSA_LAYERS = 10
# Largest sample synth_generate can draw: 8 signs of up to 4 frames each,
# and a text of the 8 signs plus 2 function words. Models are sized from
# these bounds rather than from a corpus's own maxima, so a model's shape
# (its position tables and its number of LSSA layers) and the decode
# length limit are the same for every seed.
SYNTH_MAX_FRAMES = 8 * 4
SYNTH_MAX_TOKENS = 8 + 2
# Relative tolerance on recorded training losses. Float sums taken in
# another order change a loss in its last digits only; anything larger
# is a change in the computation.
LOSS_RTOL = 1e-8

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Job:
    """One model trained and then evaluated within a unit."""
    label: str
    model: GlotModel
    train_set: list
    val_set: list
    tconfig: training.TrainConfig


@dataclass
class Prepared:
    workdir: Path
    manifest: Path
    eval_split: str
    jobs: list[Job]

    def train_steps(self) -> int:
        return sum(j.tconfig.epochs * math.ceil(len(j.train_set) / j.tconfig.batch_size)
                   for j in self.jobs)

    def train_samples(self) -> int:
        return sum(j.tconfig.epochs * len(j.train_set) for j in self.jobs)


@dataclass
class JobResult:
    label: str
    report: training.FoldReport
    checkpoint: Path
    eval_lines: list[str]


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    epochs: int

    def prepare(self, seed: int, workdir: Path) -> Prepared:
        return _PREPARE[self.name](self, seed, workdir)


# The default seeds are those of the acceptance tests' corpora. The small
# epoch counts keep the tiny-width models decoding to the length limit on
# almost every sample, so their decode work hardly depends on how well a
# seed's corpus is learnt; the set2-width model emits EOS early from the
# first epoch on, so its decode lengths do vary with the seed.
WORKLOADS = {w.name: w for w in (
    Workload("tiny_learn", 7, 3),
    Workload("set2_train", 11, 3),
    Workload("long_video", 7, 2),
)}


# ---------------------------------------------------------------------------
# inputs

def _vocabs(samples):
    return (dataio.build_vocab([s.gloss for s in samples]),
            dataio.build_vocab([s.text for s in samples]))


def _model_config(preset, gv, tv, max_frames=SYNTH_MAX_FRAMES,
                  **overrides) -> GlotConfig:
    return preset(max_frames=max_frames, max_target_len=SYNTH_MAX_TOKENS + 2,
                  gloss_vocab_size=len(gv), text_vocab_size=len(tv),
                  feat_dim=FEAT_DIM, **overrides)


def _train_config(w: Workload, batch_size: int, ckpt_dir: Path):
    return training.TrainConfig.set2(epochs=w.epochs, batch_size=batch_size,
                                     lr_initial=1e-3, seed=0,
                                     checkpoint_dir=str(ckpt_dir))


def _all_cv(entries, path: Path) -> Path:
    """Rewrite a manifest with every sample in the cv split (val = train)."""
    for e in entries:
        e.split = "cv"
    dataio.write_manifest(path, entries)
    return path


def _prepare_tiny_learn(w: Workload, seed: int, workdir: Path) -> Prepared:
    synth = dataio.synth_generate(seed, 16, N_SIGNS, FEAT_DIM, 0.0,
                                  workdir / "data")
    path = _all_cv(synth.entries, workdir / "data" / "manifest.tsv")
    samples = dataio.read_manifest(path).load_samples()
    gv, tv = _vocabs(samples)
    enc = training.encode_samples(samples, gv, tv)
    jobs = []
    for kind in ("glot", "dense_baseline"):
        cfg = _model_config(GlotConfig.tiny, gv, tv, encoder_kind=kind,
                            **TINY_WIDTH)
        jobs.append(Job(kind, GlotModel(cfg, gv, tv, seed=0), enc, enc,
                        _train_config(w, 4, workdir / kind)))
    return Prepared(workdir, path, "cv", jobs)


def _prepare_set2_train(w: Workload, seed: int, workdir: Path) -> Prepared:
    manifest = dataio.synth_generate(seed, 80, N_SIGNS, FEAT_DIM, 0.05,
                                     workdir / "data")
    samples = manifest.load_samples()
    splits = [e.split for e in manifest.entries]
    cv = [s for s, tag in zip(samples, splits) if tag == "cv"]
    test = [s for s, tag in zip(samples, splits) if tag == "test"]
    gv, tv = _vocabs(samples)
    cfg = _model_config(GlotConfig.set2, gv, tv, encoder_kind="glot")
    job = Job("glot", GlotModel(cfg, gv, tv, seed=0),
              training.encode_samples(cv, gv, tv),
              training.encode_samples(test, gv, tv),
              _train_config(w, 32, workdir / "glot"))
    return Prepared(workdir, workdir / "data" / "manifest.tsv", "test", [job])


def _prepare_long_video(w: Workload, seed: int, workdir: Path) -> Prepared:
    base = dataio.synth_generate(seed, len(LONG_FRAMES), N_SIGNS, FEAT_DIM,
                                 0.0, workdir / "base")
    source = base.load_samples()
    out = workdir / "data"
    (out / "features").mkdir(parents=True)
    for target, sample, entry in zip(LONG_FRAMES, source, base.entries):
        feats = sample.features
        reps = np.full(len(feats), target // len(feats))
        reps[:target % len(feats)] += 1
        dataio.write_feature_file(out / entry.path,
                                  np.repeat(feats, reps, axis=0))
    path = _all_cv(base.entries, out / "manifest.tsv")
    samples = dataio.read_manifest(path).load_samples()
    gv, tv = _vocabs(samples)
    cfg = _model_config(GlotConfig.tiny, gv, tv, max_frames=int(LONG_FRAMES.max()),
                        encoder_kind="glot", n_lssa_layers=LONG_LSSA_LAYERS,
                        **TINY_WIDTH)
    enc = training.encode_samples(samples, gv, tv)
    job = Job("glot", GlotModel(cfg, gv, tv, seed=0), enc, enc,
              _train_config(w, 4, workdir / "glot"))
    return Prepared(workdir, path, "cv", [job])


_PREPARE = {"tiny_learn": _prepare_tiny_learn,
            "set2_train": _prepare_set2_train,
            "long_video": _prepare_long_video}


# ---------------------------------------------------------------------------
# one unit of work

def run_jobs(prepared: Prepared) -> list[JobResult]:
    """Train each job, then run ``glot eval`` on its best checkpoint."""
    results = []
    for job in prepared.jobs:
        report = training.train(job.model, job.train_set, job.val_set,
                                job.tconfig)
        eval_out = prepared.workdir / f"{job.label}_eval.txt"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["eval", "--manifest", str(prepared.manifest),
                             "--checkpoint", report.checkpoint_path,
                             "--split", prepared.eval_split,
                             "--out", str(eval_out)])
        if code != 0:
            raise CheckFailed(f"{job.label}: glot eval exited {code}")
        results.append(JobResult(job.label, report, Path(report.checkpoint_path),
                                 eval_out.read_text(encoding="utf-8").splitlines()))
    return results


# ---------------------------------------------------------------------------
# output checks

def _epoch_records(report: training.FoldReport) -> list:
    return [[e.epoch, e.train_loss, {str(k): v for k, v in e.bleu.items()}, e.lr]
            for e in report.epochs]


def fingerprint(results: list[JobResult]) -> dict:
    """What a repeat of the unit must reproduce bit for bit."""
    return {r.label: {
        "epochs": _epoch_records(r.report),
        "eval_lines": r.eval_lines,
        "checkpoint_sha256": hashlib.sha256(r.checkpoint.read_bytes()).hexdigest(),
    } for r in results}


def check_first_unit(prepared: Prepared, results: list[JobResult],
                     reference: dict | None) -> tuple[list[str], int, dict]:
    """Full checks of one unit's outputs.

    Returns (failures, number of checks made, eval token ids per job as
    one "gloss ids / text ids" string per sample).
    """
    failures: list[str] = []
    checks = 0
    tokens = {}
    for job, res in zip(prepared.jobs, results):
        checks += 1
        for e in res.report.epochs:
            if not math.isfinite(e.train_loss):
                failures.append(f"{res.label}: epoch {e.epoch} loss {e.train_loss}")
            if not all(0.0 <= b <= 1.0 for b in e.bleu.values()):
                failures.append(f"{res.label}: epoch {e.epoch} BLEU {e.bleu}")
        if len(res.report.epochs) != job.tconfig.epochs:
            failures.append(f"{res.label}: {len(res.report.epochs)} epochs run, "
                            f"{job.tconfig.epochs} configured")

        checks += 1
        blob = res.checkpoint.read_bytes()
        reloaded = load_checkpoint(res.checkpoint)
        again = prepared.workdir / f"{res.label}_roundtrip.ckpt"
        save_checkpoint(reloaded, again)
        if again.read_bytes() != blob:
            failures.append(f"{res.label}: checkpoint does not round-trip bit-exact")

        checks += 1
        decoded = []
        decode = reloaded.greedy_decode

        def capture(frames, max_len=None):
            out = decode(frames, max_len=max_len)
            decoded.append(" ".join(map(str, out.gloss_ids)) + " / "
                           + " ".join(map(str, out.text_ids)))
            return out

        reloaded.greedy_decode = capture
        eval_set = job.val_set  # the manifest split glot eval decodes
        max_len = min(reloaded.config.max_target_len,
                      2 + max(max(len(s.gloss_ids), len(s.text_ids))
                              for s in eval_set))
        gloss, text = training.evaluate_bleu(reloaded, eval_set,
                                             max_decode_len=max_len)
        expected = [f"gloss {gloss.record()}", f"text {text.record()}"]
        if res.eval_lines != expected:
            failures.append(f"{res.label}: glot eval printed {res.eval_lines}, "
                            f"evaluate_bleu on the reloaded checkpoint gives "
                            f"{expected}")
        tokens[res.label] = decoded

    if reference is not None:
        checks += 1
        failures += compare_reference(results, tokens, reference)
    return failures, checks, tokens


def compare_reference(results: list[JobResult], tokens: dict,
                      reference: dict) -> list[str]:
    failures = []
    for res in results:
        ref = reference["jobs"].get(res.label)
        if ref is None:
            failures.append(f"{res.label}: no reference recorded")
            continue
        if tokens[res.label] != ref["eval_token_ids"]:
            failures.append(f"{res.label}: eval token ids differ from the reference")
        if res.eval_lines != ref["eval_lines"]:
            failures.append(f"{res.label}: eval record differs from the reference")
        got = _epoch_records(res.report)
        if len(got) != len(ref["epochs"]):
            failures.append(f"{res.label}: {len(got)} epoch records, "
                            f"reference has {len(ref['epochs'])}")
            continue
        for g, r in zip(got, ref["epochs"]):
            if g[0] != r[0] or g[2] != r[2] or g[3] != r[3]:
                failures.append(f"{res.label}: epoch record {g} differs from "
                                f"reference {r}")
            elif not math.isclose(g[1], r[1], rel_tol=LOSS_RTOL, abs_tol=0.0):
                failures.append(f"{res.label}: epoch {g[0]} loss {g[1]!r} not "
                                f"within {LOSS_RTOL} of reference {r[1]!r}")
    return failures


def reference_record(workload: Workload, results: list[JobResult],
                     tokens: dict) -> dict:
    return {
        "workload": workload.name,
        "seed": workload.default_seed,
        "loss_rtol": LOSS_RTOL,
        "jobs": {r.label: {
            "epochs": _epoch_records(r.report),
            "eval_lines": r.eval_lines,
            "eval_token_ids": tokens[r.label],
        } for r in results},
    }


def load_reference(workload: Workload) -> dict:
    path = REFERENCE_DIR / f"{workload.name}.json"
    return json.loads(path.read_text(encoding="utf-8"))
