"""Long-shift certificates: time `reduce --certificate` and `summable --certificate`.

Inputs:

- `1/x - 1/(x+n)` for n = 50, 100, 200, 300: one orbit, one certificate sum
  of n terms;
- eight seeded multi-orbit inputs (`random.Random(2121)`): each is Delta(g)
  = g(x+1) - g(x) for g a sum of c/q(x+s) over two distinct orbits drawn
  from x^2+1, x^2-2, x^2+x+1, x^3-2 and a random rational pole, with two or
  three poles per orbit at distinct shifts s in 0..25 and numerator
  coefficients in {-2, -1, 1, 2}.  Each orbit then holds up to six poles,
  whose certificate pieces at distinct l share poles, and both commands
  return the certificate g;
- two inputs with three or more poles far apart in one orbit, neither
  summable: `far-apart`, poles at shifts 0, 20, 23 of x^2+1 and 0, 15 of
  x^3-2 (reduction indices 0, 3, 15, 23), and `far-apart-40`, the same with
  a third x^3-2 pole at shift 40.

Each input runs as `dresidues COMMAND --certificate --json` through
`benchfile.table` and `benchfile.cli_wall`: every run is a fresh
interpreter, so a time includes start-up and parsing; per side, input and
command the row has the q1/median/q3 wall time over up to 5 alternated
rounds (one when a run takes over 5 s), the runs, the sha256 of the stdout
and, with a parent, the change's wins and `same_output`.  A run past the
per-input budget is stopped and its side recorded as timed out.

Run from a checkout, optionally with a checkout of the parent commit:

    python3 benchmarks/long_shift.py [PARENT_DIR] [--budget 60]

The rows are merged into BENCH_long_shift.json at the checkout root under
the key "pair loop" by `benchfile.record`.
"""

from __future__ import annotations

import random
from fractions import Fraction

from benchfile import cli_wall, table
from dresidues.polys import Poly, X
from dresidues.ratfun import RF_ZERO, RatFun

SHIFTS = (50, 100, 200, 300)
FAR_APART = "1/(x^2+1) + 2/((x+20)^2+1) - 1/((x+23)^2+1) + 1/(x^3-2) + x/((x+15)^3-2)"
FAMILY = 8
COMMANDS = ("reduce", "summable")


def family() -> list[str]:
    rng = random.Random(2121)
    exprs = []
    for _ in range(FAMILY):
        bases = [X**2 + 1, X**2 - 2, X**2 + X + 1, X**3 - 2, X - Fraction(rng.randint(-9, 9), rng.randint(1, 3))]
        f = RF_ZERO
        for q in rng.sample(bases, 2):
            for s in rng.sample(range(26), rng.randint(2, 3)):
                f = f + RatFun(Poly([rng.choice([-2, -1, 1, 2]) for _ in range(q.degree)]), q.shift(s))
        exprs.append(str(f.delta()))
    return exprs


def inputs() -> list[tuple[dict, list[str]]]:
    exprs = [(f"shift-{n}", f"1/x - 1/(x+{n})") for n in SHIFTS]
    exprs += [(f"family-{i}", e) for i, e in enumerate(family(), 1)]
    exprs += [("far-apart", FAR_APART), ("far-apart-40", f"{FAR_APART} - 3/((x+40)^3-2)")]
    return [({"input": label, "command": c, "expr": e}, [c, "--certificate", "--json", e]) for label, e in exprs for c in COMMANDS]


if __name__ == "__main__":
    table(__doc__, inputs, cli_wall, "BENCH_long_shift.json", 60.0)
