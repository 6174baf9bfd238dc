#!/usr/bin/env python3
"""Optional, non-gating benchmark: how much does iterating Hermite reduction
cost on top of a single reduction?

It times both on denominators (x^2+1)^m (x-1)^m (x+3)^(m-1) x for growing m
and prints the ratio (all layers / first reduction).  Both run Yun's
squarefree decomposition once and split f once into one part per class;
every further layer only repeats the Hermite steps modulo each squarefree
class q_i, so the ratio stays small.  Measured on Python 3.11 (Intel Xeon,
shared 2-vCPU VM, best of 3): 1.00 at m = 2, 1.10 at m = 4, 1.2 at m = 6,
1.3 at m = 8 and 1.43 at m = 10, where all layers take 0.08-0.10 s (0.42-0.53 s
when every layer ran a whole-denominator reduction with its own Yun, at a
ratio of 2.6-3.0).  Run directly; not part of the test suite.
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
