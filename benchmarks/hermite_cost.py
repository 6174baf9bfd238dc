#!/usr/bin/env python3
"""Optional, non-gating benchmark: how much does iterating Hermite reduction
cost on top of a single reduction?

It times both on denominators (x^2+1)^m (x-1)^m (x+3)^(m-1) x for growing m
and prints the ratio (all layers / first reduction).  The ratio is not near 1
and grows with m: measured on Python 3.11 it was 1.62 at m = 2 and 3.57 at
m = 10, because every further layer runs Yun's squarefree decomposition
again on a new denominator.  The benchmark in perfbench/ reports the same
ratio as `hermite.layers_over_first` (1.64 on dres-oracle, 2.34 on
deep-poles, seed 1).  Run directly; not part of the test suite.
"""

import time

from dresidues.hermite import hermite_list, hermite_reduction
from dresidues.polys import ONE, Poly, X
from dresidues.ratfun import RatFun

x = X


def bench(m: int, repeats: int = 3) -> tuple[float, float]:
    den = (x**2 + 1) ** m * (x - 1) ** m * (x + 3) ** (m - 1) * x
    f = RatFun(ONE, den)
    first = full = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        hermite_reduction(f)
        first = min(first, time.perf_counter() - t0)
        t0 = time.perf_counter()
        hermite_list(f)
        full = min(full, time.perf_counter() - t0)
    return first, full


def main() -> None:
    print(f"{'m':>3} {'deg':>5} {'first (s)':>10} {'all layers (s)':>15} {'ratio':>7}")
    for m in (2, 4, 6, 8, 10):
        first, full = bench(m)
        deg = 5 * m - 1 + 1
        print(f"{m:>3} {deg:>5} {first:>10.4f} {full:>15.4f} {full / first:>7.2f}")


if __name__ == "__main__":
    main()
