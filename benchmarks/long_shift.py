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

Each input runs through `python -m dresidues.cli COMMAND --certificate --json`
in a fresh interpreter, so a time includes start-up and parsing.  Per side,
input and command the script keeps the median wall time of up to 3 runs (one
run when it takes over 5 s), the number of runs and the sha256 of the stdout;
the two sides alternate run by run, each after one untimed import that
writes its bytecode cache (`benchfile.time_cli`).  A run past the per-input
budget is stopped and recorded as timed out.

Run from a checkout, optionally with a checkout of the parent commit:

    python3 benchmarks/long_shift.py [PARENT_DIR] [--budget 60]

The result, with `same_output` per row when both sides finished, is merged
into BENCH_long_shift.json at the checkout root by `benchfile.record`.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from benchfile import ROOT, git, record, time_cli, warm

sys.path.insert(0, str(ROOT / "src"))

from dresidues.polys import Poly, X  # noqa: E402
from dresidues.ratfun import RF_ZERO, RatFun  # noqa: E402

SHIFTS = (50, 100, 200, 300)
FAR_APART = "1/(x^2+1) + 2/((x+20)^2+1) - 1/((x+23)^2+1) + 1/(x^3-2) + x/((x+15)^3-2)"
FAMILY = 8
COMMANDS = ("reduce", "summable")
OUT = ROOT / "BENCH_long_shift.json"


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


def inputs() -> list[tuple[str, str]]:
    pairs = [(f"shift-{n}", f"1/x - 1/(x+{n})") for n in SHIFTS]
    pairs += [(f"family-{i}", e) for i, e in enumerate(family(), 1)]
    return pairs + [("far-apart", FAR_APART), ("far-apart-40", f"{FAR_APART} - 3/((x+40)^3-2)")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?", help="a checkout of the parent commit")
    parser.add_argument("--budget", type=float, default=60.0, help="seconds per run before it is stopped")
    args = parser.parse_args()
    trees = {"change": ROOT} | ({"parent": args.parent.resolve()} if args.parent else {})
    for tree in trees.values():
        warm(tree)
    rows = []
    for label, expr in inputs():
        for command in COMMANDS:
            row = {"input": label, "command": command, "expr": expr, **time_cli(trees, [command, "--certificate", "--json", expr], args.budget)}
            if "parent" in row and "sha256" in row["parent"]:
                row["same_output"] = row["parent"]["sha256"] == row["change"].get("sha256")
            print(json.dumps({k: v for k, v in row.items() if k != "expr"}), flush=True)
            rows.append(row)
    record(
        OUT,
        "reduce --certificate and summable --certificate on long shifts and seeded multi-orbit inputs "
        "(benchmarks/long_shift.py); CLI wall times in seconds, median of up to 3 runs, with the sha256 of stdout",
        "inputs",
        {"parent_commit": git("-C", str(args.parent), "rev-parse", "HEAD") if args.parent else None, "budget_s": args.budget, "rows": rows},
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
