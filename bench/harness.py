"""Measurement loop, metric derivation and output of one benchmark run."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import probes
import workloads

# setup_s is the median of at least this many set-ups in one run.
MIN_SETUPS = 20
# A traced run needs two traced units for the exact-count check and one
# untraced unit for the tracing overhead.
MIN_TRACED, MIN_UNTRACED = 2, 1


@dataclass
class Unit:
    traced: bool
    lo: int                 # first span of the unit's set-up
    hi: int                 # one past its last span
    setup_s: float
    wall_s: float           # training with validation plus glot eval
    train_samples: int
    train_steps: int
    decodes: int
    counts: dict


@dataclass
class Outcome:
    """What one run measured, and every check it made."""
    units: list[Unit] = field(default_factory=list)
    setups: list[int] = field(default_factory=list)  # paced set-up spans
    attempted: int = 0      # training steps, decodes and checks
    failures: list[str] = field(default_factory=list)
    first: dict | None = None   # fingerprint of the first unit's outputs

    def record(self, failures: list[str], attempts: int = 1) -> None:
        self.attempted += attempts
        self.failures += failures


# ---------------------------------------------------------------------------
# environment

def _blas_threads() -> int | None:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for ln in fh:
                if ln.startswith("model name"):
                    return ln.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for ln in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if ln.endswith(" " + ref):
                return ln.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(root),
        "workload": workload,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# metrics

def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(tracer: probes.Tracer, units: list[Unit],
               setups: list[int]) -> tuple[dict, dict, dict]:
    """(metrics, notes, raw) from the untraced units of a run.

    Every time is paced (see probes): scaled to the reference machine's
    usual speed by the pace loops run next to it. ``raw`` holds the same
    times as the clock read them. Rates and wall_s are totals over the
    run's units rather than medians of per-unit values.
    """
    plain = [u for u in units if not u.traced]
    samples = tokens = 0.0
    # index 0: paced, index 1: as the clock read them (pace loops excluded)
    train_s, decode_s, wall, pace = np.zeros(2), np.zeros(2), np.zeros(2), []
    latencies = []
    val = ("training.evaluate_bleu", "training.train")
    for u in plain:
        view = probes.SpanView(tracer, u.lo, u.hi)
        for i, scale in enumerate((True, False)):
            train_s[i] += (view.paced("training.train", scale=scale).sum()
                           - view.paced(*val, scale=scale).sum())
            wall[i] += view.paced("bench.unit", scale=scale).sum()
        samples += u.train_samples
        decode = view.paced("model.greedy_decode")
        decode_s += (decode.sum(), view.seconds("model.greedy_decode"))
        tokens += u.counts["model.decode_tokens"]
        latencies.append(decode)
        pace.append(view.pace_ratio())
    lat_ms = np.concatenate(latencies) * 1e3
    n = len(plain)
    whole = probes.SpanView(tracer, 0, len(tracer))
    setup = whole.paced_at(np.asarray(setups))
    raw_setup = whole.paced_at(np.asarray(setups), scale=False)
    metrics = {
        "setup_s": (_median(setup), "s"),
        "wall_s": (wall[0] / n, "s"),
        "train_samples_per_s": (samples / train_s[0], "1/s"),
        "decode_tokens_per_s": (tokens / decode_s[0], "1/s"),
        "decode_ms_p50": (float(np.percentile(lat_ms, 50)), "ms"),
        "decode_ms_p90": (float(np.percentile(lat_ms, 90)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    raw = {
        "setup_s": _median(raw_setup),
        "wall_s": wall[1] / n,
        "train_samples_per_s": samples / train_s[1],
        "decode_tokens_per_s": tokens / decode_s[1],
        "pace_ratio": _median(pace),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"mean of {n} units, pace loops excluded",
        "train_samples_per_s": f"{samples:.0f} samples in {n} units, "
                               f"validation excluded",
        "decode_tokens_per_s": f"{tokens:.0f} tokens, EOS included, in {n} units",
        "decode_ms_p50": f"{len(lat_ms)} greedy decodes",
        "decode_ms_p90": f"{len(lat_ms)} greedy decodes",
        "peak_rss_mb": "whole process",
    }
    return metrics, notes, raw


def per_layer(tracer: probes.Tracer, u: Unit) -> dict:
    """Every per-layer metric of one traced unit."""
    v = probes.SpanView(tracer, u.lo, u.hi)
    c = u.counts
    m = {}
    not_ops = ("numcore.backward",)
    ops = v.layer_calls("numcore", exclude=not_ops)
    op_s = v.layer_seconds("numcore", exclude=not_ops)
    m["numcore.ops"] = (ops, "count")
    m["numcore.op_s"] = (op_s, "s")
    m["numcore.us_per_op"] = (op_s / ops * 1e6, "us")
    m["numcore.matmul.calls"] = (v.calls("numcore.matmul"), "count")
    m["numcore.matmul.s"] = (v.seconds("numcore.matmul"), "s")
    m["numcore.matmul.flop"] = (c.get("numcore.matmul.flop", 0), "flop")
    m["numcore.masked_softmax_rows.calls"] = (v.calls("numcore.masked_softmax_rows"), "count")
    m["numcore.masked_softmax_rows.s"] = (v.seconds("numcore.masked_softmax_rows"), "s")
    m["numcore.masked_softmax_rows.elems"] = (c.get("numcore.masked_softmax_rows.elems", 0), "count")
    m["numcore.layer_norm.s"] = (v.seconds("numcore.layer_norm"), "s")
    m["numcore.head_split.s"] = (v.seconds("numcore.slice_cols")
                                 + v.seconds("numcore.concat_channels"), "s")
    m["numcore.bytes_out"] = (c.get("numcore.bytes_out", 0), "bytes")
    m["numcore.backward_s"] = (v.seconds("numcore.backward"), "s")
    m["numcore.tape_entries"] = (c.get("numcore.tape_entries", 0), "count")

    lssa_s = v.seconds("sparse_attention.stacked_lssa")
    pairs = c.get("sparse_attention.pairs", 0)
    m["sparse_attention.stacked_lssa.calls"] = (v.calls("sparse_attention.stacked_lssa"), "count")
    m["sparse_attention.stacked_lssa.s"] = (lssa_s, "s")
    m["sparse_attention.build_mask.calls"] = (v.calls("sparse_attention.build_mask"), "count")
    m["sparse_attention.build_mask.s"] = (v.seconds("sparse_attention.build_mask"), "s")
    m["sparse_attention.pairs"] = (pairs, "count")
    m["sparse_attention.ns_per_pair"] = (lssa_s / pairs * 1e9 if pairs else 0.0, "ns")

    greedy_calls = v.calls("model.greedy_decode")
    greedy_s = v.seconds("model.greedy_decode")
    for fn in ("encode", "decoder_forward", "greedy_decode"):
        m[f"model.{fn}.calls"] = (v.calls(f"model.{fn}"), "count")
        m[f"model.{fn}.s"] = (v.seconds(f"model.{fn}"), "s")
    m["model.decode_rows_per_token"] = (c["model.decode_rows"] / c["model.decode_tokens"], "ratio")
    m["model.truncation_rate"] = (c.get("model.truncated_stages", 0) / (2 * greedy_calls), "ratio")
    m["model.checkpoint_save.calls"] = (v.calls("model.checkpoint_save"), "count")
    m["model.checkpoint_save.s"] = (v.seconds("model.checkpoint_save"), "s")
    m["model.checkpoint_save.bytes"] = (c.get("model.checkpoint_save.bytes", 0), "bytes")
    m["model.checkpoint_load_s"] = (v.seconds("model.checkpoint_load"), "s")

    train = "training.train"
    forward_s = v.seconds("model.s2g2t_forward", parent=train)
    backward_s = v.seconds("numcore.backward", parent=train)
    validate_s = v.seconds("training.evaluate_bleu", parent=train)
    m["training.steps"] = (c.get("training.steps", 0), "count")
    m["training.forward_s"] = (forward_s, "s")
    m["training.loss_s"] = (v.seconds("training.cross_entropy_loss", parent=train), "s")
    m["training.backward_s"] = (backward_s, "s")
    m["training.optimizer_s"] = (v.seconds("training.optimizer_step", parent=train), "s")
    m["training.validate_s"] = (validate_s, "s")
    m["training.val_share"] = (validate_s / v.seconds(train), "ratio")

    m["metrics.corpus_bleu.calls"] = (v.calls("metrics.corpus_bleu"), "count")
    m["metrics.corpus_bleu.s"] = (v.seconds("metrics.corpus_bleu"), "s")
    m["dataio.synth_s"] = (v.seconds("dataio.synth_generate"), "s")
    m["dataio.read_feature_file.calls"] = (v.calls("dataio.read_feature_file"), "count")
    m["dataio.read_feature_file.s"] = (v.seconds("dataio.read_feature_file"), "s")
    m["dataio.bytes_read"] = (c.get("dataio.bytes_read", 0), "bytes")
    m["cli.eval_s"] = (v.seconds("cli.main"), "s")

    self_s = v.layer_self_seconds()
    for layer in probes.LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    m["model.greedy_decode.share"] = (greedy_s / u.wall_s, "ratio")
    m["training.forward_backward.share"] = ((forward_s + backward_s) / u.wall_s, "ratio")
    m["sparse_attention.stacked_lssa.share"] = (lssa_s / u.wall_s, "ratio")
    return m


def median_layers(per_unit: list[dict]) -> dict:
    return {k: (_median(d[k][0] for d in per_unit), per_unit[0][k][1])
            for k in per_unit[0]}


# ---------------------------------------------------------------------------
# the run

def _timed_prepare(tracer, workload, seed, workdir, pacing: bool):
    """(prepared inputs, set-up span index, raw set-up seconds)."""
    if pacing:
        tracer.pace()
    start = time.perf_counter()
    with tracer.span("bench.setup") as idx:
        prepared = workload.prepare(seed, workdir)
    setup_s = time.perf_counter() - start
    if pacing:
        tracer.pace()
    return prepared, idx, setup_s


def _run_unit(tracer, workload, seed, workdir, traced: bool):
    """Set up and run one unit with the full or the coarse probes.

    Returns (unit, prepared inputs, results, set-up span index)."""
    lo = len(tracer)
    before = dict(tracer.counts)
    tracer.install("full" if traced else "coarse")
    try:
        prepared, setup_idx, setup_s = _timed_prepare(tracer, workload, seed,
                                                       workdir, not traced)
        start = time.perf_counter()
        with tracer.span("bench.unit"):
            results = workloads.run_jobs(prepared)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
    decodes = probes.SpanView(tracer, lo, len(tracer)).calls("model.greedy_decode")
    unit = Unit(traced, lo, len(tracer), setup_s, wall, prepared.train_samples(),
                prepared.train_steps(), decodes, counts)
    return unit, prepared, results, setup_idx


def measure(args, workload, seed: int, reference, work: Path):
    """Set up MIN_SETUPS times, then run units until --seconds would pass."""
    tracer = probes.Tracer()
    out = Outcome()
    begin = time.perf_counter()
    try:
        for i in range(MIN_SETUPS - 1):
            _, idx, _ = _timed_prepare(tracer, workload, seed,
                                       work / f"setup{i}", True)
            out.setups.append(idx)
            shutil.rmtree(work / f"setup{i}")
        while True:
            traced = bool(args.trace) and len(out.units) % 2 == 0
            unit_dir = work / f"unit{len(out.units)}"
            unit, prepared, results, setup_idx = _run_unit(
                tracer, workload, seed, unit_dir, traced)
            out.units.append(unit)
            if not traced:
                out.setups.append(setup_idx)
            out.attempted += unit.train_steps + unit.decodes
            if out.first is None:
                failures, n_checks, tokens = workloads.check_first_unit(
                    prepared, results, reference)
                out.record(failures, n_checks)
                out.first = workloads.fingerprint(results)
                if args.write_reference:
                    _write_reference(workload, results, tokens)
            elif workloads.fingerprint(results) != out.first:
                out.record([f"unit {len(out.units)} outputs differ from unit 1 "
                            f"of the same seed"])
            else:
                out.record([])
            del prepared, results  # free the models before the next unit
            shutil.rmtree(unit_dir)

            n_traced = sum(u.traced for u in out.units)
            owed = args.trace and (n_traced < MIN_TRACED
                                   or len(out.units) - n_traced < MIN_UNTRACED)
            elapsed = time.perf_counter() - begin
            if not owed and elapsed + unit.setup_s + unit.wall_s > args.seconds:
                break
    except (workloads.CheckFailed, ArithmeticError, ValueError,
            RuntimeError) as exc:
        # glot's own errors: the unit's step or decode failed
        out.record([f"{type(exc).__name__}: {exc}"])
    finally:
        tracer.uninstall()

    out.record(tracer.errors, len(tracer.errors))
    traced_units = [u for u in out.units if u.traced]
    if len(traced_units) >= MIN_TRACED:
        out.record([f"count {key} differs between traced units: {sorted(values)}"
                    for key in probes.EXACT_COUNTS
                    if len(values := {u.counts.get(key, 0) for u in traced_units}) > 1])
    return tracer, out


def run(args, root: Path) -> int:
    # The result line carries exactly the metrics BENCHMARK.json declares.
    # failed_ratio (0 on a correct run) and text_bleu4 (a quality figure
    # fixed by the seed) are printed above it but gated through "failed"
    # and "correct" instead.
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if args.write_reference and seed != workload.default_seed:
        print(f"error: the reference is kept for seed {workload.default_seed} "
              f"only", file=sys.stderr)
        return 2
    env = environment(root, workload.name, seed)
    print("env " + json.dumps(env, sort_keys=True))
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(
        workload.name, "runs by hand only; not a BENCHMARK.json workload")
    print(f"workload {workload.name}: {why}")
    reference = (workloads.load_reference(workload)
                 if seed == workload.default_seed and not args.write_reference
                 else None)

    work = root / ".bench_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        tracer, out = measure(args, workload, seed, reference, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": not out.failures, "attempted": max(out.attempted, 1),
              "failed": len(out.failures), "metrics": {}}
    report = {"env": env, "failures": out.failures}
    if not out.failures:
        chosen = _report_metrics(args, tracer, out, report)
        declared = "per_layer" if args.trace else "end_to_end"
        result["metrics"] = {d["name"]: {"value": chosen[d["name"]][0],
                                         "unit": chosen[d["name"]][1]}
                             for d in spec[declared]}
    for f in out.failures:
        print(f"FAILED {f}")
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{args.trace}"
    tracer.save(out_dir / f"{stem}-spans.npz")
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True),
                                          encoding="utf-8")
    print(f"spans and report written to {out_dir}/{stem}*")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _report_metrics(args, tracer: probes.Tracer, out: Outcome, report: dict) -> dict:
    """Print every metric, add them to the report; return the mode's metrics."""
    e2e, notes, raw = end_to_end(tracer, out.units, out.setups)
    e2e["failed_ratio"] = (len(out.failures) / out.attempted, "ratio")
    notes["failed_ratio"] = f"{len(out.failures)} failed of {out.attempted} attempted"
    e2e["text_bleu4"] = (_text_bleu4(out.first), "ratio")
    notes["text_bleu4"] = "glot eval record, " + ", ".join(out.first)
    for name, (value, unit) in e2e.items():
        print(f"e2e {name} = {value:.6g} {unit} ({notes[name]})")
    for name, value in raw.items():
        print(f"raw {name} = {value:.6g}")
    report["end_to_end"] = {k: {"value": v, "unit": u, "note": notes[k]}
                            for k, (v, u) in e2e.items()}
    report["raw"] = raw
    if not args.trace:
        return e2e
    # per-layer times are as the clock read them, so the overhead is too
    traced = [u for u in out.units if u.traced]
    layers = median_layers([per_layer(tracer, u) for u in traced])
    overhead = _median(u.wall_s for u in traced) - raw["wall_s"]
    layers["trace.overhead_s"] = (overhead, "s")
    layers["trace.overhead_share"] = (overhead / raw["wall_s"], "ratio")
    for name, (value, unit) in layers.items():
        print(f"layer {name} = {value:.6g} {unit}")
    report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    return layers


def _text_bleu4(fp: dict) -> float:
    values = []
    for job in fp.values():
        line = next(l for l in job["eval_lines"] if l.startswith("text "))
        values.append(float(line.split("bleu4=")[1].split()[0]))
    return _median(values)


def _write_reference(workload, results, tokens) -> None:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    path = workloads.REFERENCE_DIR / f"{workload.name}.json"
    record = workloads.reference_record(workload, results, tokens)
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"reference written to {path}", file=sys.stderr)
