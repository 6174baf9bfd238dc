"""High-degree denominators: time `dres`, `summable --certificate` and `vspace`.

Each denominator is built from one q of degree n = 10, 20, 30, 40: its
coefficients below x^n are drawn in -9..9 by a fresh `random.Random(11)`
and it is monic (n = 20 gives the q of the degree-60 CI step).  Two families,
each of degree 3n = 30..120:

- `three-orbit`: b = q(x) q(x+3) q(x+7);
- `square`: b = q(x)^2 q(x+2).

Commands on each b (Q(x+c) is written as the text of q with x replaced by
(x+c), as a user would enter it):

- `dres --json "1/b"`;
- `summable --certificate --json`: for `three-orbit` on
  1/Q(x) + 1/Q(x+3) - 2/Q(x+7), which is summable over the denominator b, so
  the certificate is built; for `square` on 1/b, which is not summable;
- `vspace --json` on 1/Q(x), 1/Q(x+3), 1/Q(x+7) (`three-orbit`) and on
  1/Q(x)^2, 1/Q(x), 1/Q(x+2) (`square`), whose denominators have lcm b.

Each input runs through `python -m dresidues.cli` in a fresh interpreter, so
a time includes start-up and parsing.  Per side, input and command the script
keeps the median wall time of up to 3 runs (one run when it takes over 5 s),
the number of runs and the sha256 of the stdout; the two sides alternate run
by run, each after one untimed import that writes its bytecode cache
(`benchfile.time_cli`).  A run past the per-input budget is stopped and
recorded as not finished (`timed_out_s`).

Run from a checkout, optionally with a checkout of the parent commit:

    python3 benchmarks/high_degree.py [PARENT_DIR] [--budget 120]

The result, with `same_output` per row when both sides finished, is merged
into BENCH_high_degree.json at the checkout root by `benchfile.record`.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from benchfile import ROOT, git, record, time_cli, warm

sys.path.insert(0, str(ROOT / "src"))

from dresidues.polys import Poly  # noqa: E402

DEGREES = (10, 20, 30, 40)
OUT = ROOT / "BENCH_high_degree.json"


def q_text(n: int) -> str:
    rng = random.Random(11)
    return str(Poly([rng.randint(-9, 9) for _ in range(n)] + [1]))


def commands(family: str, n: int) -> dict[str, list[str]]:
    """The argv tail of each command on the family's denominator for q of degree n."""
    q = q_text(n)

    def at(c: int) -> str:
        return f"({q.replace('x', f'(x+{c})')})" if c else f"({q})"

    if family == "three-orbit":
        b = f"{at(0)}*{at(3)}*{at(7)}"
        summable = f"1/{at(0)} + 1/{at(3)} - 2/{at(7)}"
        fs = [f"1/{at(0)}", f"1/{at(3)}", f"1/{at(7)}"]
    else:
        b = f"{at(0)}^2*{at(2)}"
        summable = f"1/({b})"
        fs = [f"1/{at(0)}^2", f"1/{at(0)}", f"1/{at(2)}"]
    return {
        "dres": ["dres", "--json", f"1/({b})"],
        "summable": ["summable", "--certificate", "--json", summable],
        "vspace": ["vspace", "--json", *fs],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?", help="a checkout of the parent commit")
    parser.add_argument("--budget", type=float, default=120.0, help="seconds per run before it is stopped")
    args = parser.parse_args()
    trees = {"change": ROOT} | ({"parent": args.parent.resolve()} if args.parent else {})
    for tree in trees.values():
        warm(tree)
    rows = []
    for family in ("three-orbit", "square"):
        for n in DEGREES:
            for command, argv in commands(family, n).items():
                row = {"family": family, "degree": 3 * n, "command": command, **time_cli(trees, argv, args.budget)}
                if "sha256" in row.get("parent", {}):
                    row["same_output"] = row["parent"]["sha256"] == row["change"].get("sha256")
                print(json.dumps(row), flush=True)
                rows.append(row)
    record(
        OUT,
        "dres --json, summable --certificate --json and vspace --json on orbit-structured denominators "
        "q(x) q(x+3) q(x+7) and q(x)^2 q(x+2) of degree 30-120 (benchmarks/high_degree.py); CLI wall times in seconds, "
        "median of up to 3 runs, with the sha256 of stdout",
        "inputs",
        {"parent_commit": git("-C", str(args.parent), "rev-parse", "HEAD") if args.parent else None, "budget_s": args.budget, "rows": rows},
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
