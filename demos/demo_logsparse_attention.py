"""Walk through log-sparse attention: index sets, masks, and pair counts.

Each query position p attends to {p - 2^k : k = floor(log2 p) .. 0} plus
itself, so the number of scored (query, key) pairs grows like L log L
instead of the L^2 of dense attention. Stacking ceil(log2 L) such layers
recovers the full causal receptive field.
"""

import math

import numpy as np

from glot import sparse_attention as sa
from glot.numcore import Tensor


def main():
    print("index sets for the first positions:")
    for p in (1, 2, 3, 8, 13):
        print(f"  I_{p} = {sa.log_index_set(p)}")

    L = 8
    print(f"\nboolean mask for L={L} (rows are queries):")
    mask = sa.build_mask(L)
    for row in mask:
        print("  " + "".join("#" if v else "." for v in row))

    print("\npair counts per layer:")
    print(f"  {'L':>6} {'dense':>10} {'causal':>10} {'logsparse':>10} "
          f"{'bound':>10}")
    for L in (8, 64, 512, 1024):
        bound = L * (math.floor(math.log2(L)) + 2)
        print(f"  {L:>6} {sa.count_attention_pairs(L, 'dense'):>10} "
              f"{sa.count_attention_pairs(L, 'causal_dense'):>10} "
              f"{sa.count_attention_pairs(L, 'logsparse'):>10} {bound:>10}")

    L, d = 16, 8
    depth = sa.default_depth(L)
    mask = sa.build_mask(L)
    closure = sa.mask_closure(mask, depth)
    full = np.tril(np.ones((L, L), dtype=bool))
    print(f"\nstacking {depth} layers at L={L} covers the causal pattern: "
          f"{np.array_equal(closure, full)}")

    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(L, d)))
    layers = [(Tensor(rng.normal(size=(d, d)) / math.sqrt(d)),
               Tensor(rng.normal(size=(d, d)) / math.sqrt(d)))
              for _ in range(depth)]
    out = sa.stacked_lssa(x, layers, mask)
    print(f"stacked output shape: {out.data.shape}, "
          f"pairs scored: {depth * int(mask.sum())} "
          f"(dense would score {depth * L * L})")


if __name__ == "__main__":
    main()
