"""The benchmark runs end to end and its outputs match the references.

bench/run.py checks every output of a unit (token ids, epoch losses, BLEU
records) against bench/reference/*.json; a change that moves the
reference tokens fails here before it reaches a timed run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# The traced run (--trace 1) also checks what the bench's probes assume
# of src/: the op rule of numcore, the stacked_lssa and decoder_forward
# signatures and the attention pair counts. Its result line also shows
# that greedy decoding computes one decoder row per emitted token.
@pytest.mark.parametrize("workload, trace", [
    pytest.param(w, t, id=w + ("-traced" if t == "1" else ""))
    for t in ("0", "1") for w in ("tiny_learn", "long_video")])
def test_bench_run_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    if trace == "1":
        rows = result["metrics"]["model.decode_rows_per_token"]["value"]
        assert rows == 1, rows
