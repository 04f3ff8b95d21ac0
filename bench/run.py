"""Benchmark of the glot train -> decode pipeline.

    python3 bench/run.py --workload tiny_learn --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. One run is one fresh process: it sets up the workload's inputs
from the seed a few times (``setup_s`` is their median), then repeats the
workload's unit of work - train with per-epoch validation, then
``glot eval`` - until ``--seconds`` would be exceeded, and checks every
output. ``--trace 0`` reports the end-to-end metrics, timed with probes
on three coarse boundaries only; ``--trace 1`` alternates traced and
untraced units and reports the per-layer metrics of the traced ones. The
last line of standard output is one JSON object; the lines before it
describe the environment and every metric in words. See README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread (nproc is the ceiling): the matrices are small, and a
# second thread mostly adds run-to-run noise on a shared machine.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["tiny_learn", "set2_train", "long_video"])
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's reference seed)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measure for about this long")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="record this run's outputs as the reference for the "
                        "workload's default seed")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "glot" / "__init__.py").is_file():
        print(f"error: no glot sources under {ROOT / 'src'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import harness  # imports numpy, so only after the thread variables
    return harness.run(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
