"""Shift-set degree ladder: time `shift_set` and the interpolation route by degree.

For each degree in 5, 8, ..., 23 the ladder draws three squarefree products
from `random.Random(20240601 + degree)`: random quadratics q (`testkit.
random_poly`), each paired with q(x + s) for a random s in 1..3, plus one
linear factor when the degree is odd.  For each product it times
`shift_set(b)`, and separately the two stages of the interpolation route,
`polys.resultant_shift(b)` and `polys.integer_roots` on that resultant,
and records the shift set.

Run from a checkout, with no arguments:

    python3 benchmarks/shift_ladder.py

The result is merged into BENCH_shiftset.json at the checkout root by
`benchfile.record`.
"""

from __future__ import annotations

import json
import random
import sys
import time

from benchfile import ROOT, record

sys.path.insert(0, str(ROOT / "src"))

from dresidues import polys  # noqa: E402
from dresidues.polys import Poly  # noqa: E402
from dresidues.shiftset import shift_set  # noqa: E402
from dresidues.testkit import random_poly  # noqa: E402

DEGREES = (5, 8, 11, 14, 17, 20, 23)
CASES = 3
OUT = ROOT / "BENCH_shiftset.json"


def ladder_poly(rng: random.Random, degree: int) -> Poly:
    b = Poly([1])
    while degree - b.degree >= 2:
        q = random_poly(rng, 2)
        s = rng.randint(1, 3)
        b = b * q
        if degree - b.degree >= 2:
            b = b * q.shift(s)
    if b.degree < degree:
        b = b * random_poly(rng, 1)
    return b


def ladder_cases(degree: int) -> list[Poly]:
    rng = random.Random(20240601 + degree)
    cases: list[Poly] = []
    while len(cases) < CASES:
        b = ladder_poly(rng, degree)
        if polys.is_squarefree(b):
            cases.append(b)
    return cases


def best_time(fn) -> float:
    """Minimum over up to three runs, stopping once one second is spent."""
    times: list[float] = []
    while len(times) < 3 and sum(times) < 1.0:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> int:
    rows = []
    for degree in DEGREES:
        row = {"degree": degree, "shift_set_s": 0.0, "resultant_shift_s": 0.0, "integer_roots_s": 0.0, "shifts": []}
        for b in ladder_cases(degree):
            row["shift_set_s"] += best_time(lambda: shift_set(b))
            row["resultant_shift_s"] += best_time(lambda: polys.resultant_shift(b))
            r = polys.resultant_shift(b)
            row["integer_roots_s"] += best_time(lambda: polys.integer_roots(r))
            row["shifts"].append(list(shift_set(b).shifts))
        for key in ("shift_set_s", "resultant_shift_s", "integer_roots_s"):
            row[key] = round(row[key], 4)
        print(json.dumps(row), flush=True)
        rows.append(row)
    record(
        OUT,
        "shift_set by degree: sums over 3 squarefree products of shifted random quadratics per degree "
        "(benchmarks/shift_ladder.py); times are the minimum of up to 3 runs, in seconds",
        "ladder",
        {"rows": rows},
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
