"""The fast demos run cleanly and still print their key results.

demo_end_to_end.py is left out: it trains a model and takes several
seconds, and tier-1 already runs its commands through the CLI tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("name, lines", [
    ("demo_bleu.py", [
        "clipped unigram precision: 0.2857  (2/7 — 'the' is clipped to its "
        "reference count of 2)",
        "sentence: bleu1=0.606531 bleu2=0.606531 bleu3=0.606531 "
        "bleu4=0.606531 p1=1.000000 p2=1.000000 p3=1.000000 p4=1.000000 "
        "bp=0.606531 c=4 r=6",
        "corpus : bleu1=0.687289 bleu2=0.532372 bleu3=0.460094 "
        "bleu4=0.000000 p1=1.000000 p2=0.600000 p3=0.500000 p4=0.000000 "
        "bp=0.687289 c=8 r=11"]),
    ("demo_logsparse_attention.py", [
        "stacking 4 layers at L=16 covers the causal pattern: True",
        "stacked output shape: (16, 8), pairs scored: 260 "
        "(dense would score 1024)"]),
])
def test_demo_prints_its_key_lines(name, lines):
    out = run_demo(name).splitlines()
    for line in lines:
        assert line in out, line
