"""Shift-set degree ladder: time `shift_set` and the interpolation route by degree.

For each degree in 5, 8, ..., 23 the ladder draws three squarefree products
from `random.Random(20240601 + degree)`: random quadratics q (`testkit.
random_poly`), each paired with q(x + s) for a random s in 1..3, plus one
linear factor when the degree is odd.  Per degree each `benchfile.pair_loop`
round is a fresh interpreter (`benchfile.run`) that draws the products with
the side's own code and times, per product, `shift_set(b)` and separately
the two stages of the interpolation route, `polys.resultant_shift(b)` and
`polys.integer_roots` on that resultant, keeping the best of each
(`benchfile.best`: up to 5 calls, stopping once a second is spent), summed
over the three products; the sha256 covers the shift sets, resultants and
roots.  A row has each side's q1/median/q3 of the three sums over up to 5
alternated rounds (one when a sum is over 5 s), its runs and sha256 and,
with a parent, the change's wins and `same_output`.

Run from a checkout, optionally with a checkout of the parent commit:

    python3 benchmarks/shift_ladder.py [PARENT_DIR]

The rows are merged into BENCH_shiftset.json at the checkout root under the
key "pair loop" by `benchfile.record`.
"""

from __future__ import annotations

import random

from benchfile import best, digest, table
from dresidues import polys
from dresidues.polys import Poly
from dresidues.shiftset import shift_set
from dresidues.testkit import random_poly

DEGREES = (5, 8, 11, 14, 17, 20, 23)
CASES = 3


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


def stages(degree: int) -> tuple[dict[str, float], str]:
    """Run in a child: the summed best times of the three stages at one degree, and the outputs' sha256."""
    values = {"shift_set_s": 0.0, "resultant_shift_s": 0.0, "integer_roots_s": 0.0}
    texts = []
    for b in ladder_cases(degree):
        seconds, shifts = best(lambda: shift_set(b))
        values["shift_set_s"] += seconds
        seconds, r = best(lambda: polys.resultant_shift(b))
        values["resultant_shift_s"] += seconds
        seconds, roots = best(lambda: polys.integer_roots(r))
        values["integer_roots_s"] += seconds
        texts += [str(shifts.shifts), str(r), str(sorted(roots))]
    return values, digest("\n".join(texts))


if __name__ == "__main__":
    table(__doc__, lambda: [({"degree": d}, ["shift_ladder", "stages", d]) for d in DEGREES], out="BENCH_shiftset.json")
