"""High-degree denominators: time `dres`, `dres --per-order`, `summable --certificate` and `vspace`.

Each denominator is built from one q of degree n = 10, 20, 30, 40: its
coefficients below x^n are drawn in -9..9 by a fresh `random.Random(11)`
and it is monic (n = 20 gives the q of the degree-60 CI step).  Two families,
each of degree 3n = 30..120:

- `three-orbit`: b = q(x) q(x+3) q(x+7);
- `square`: b = q(x)^2 q(x+2).

Commands on each b (Q(x+c) is written as the text of q with x replaced by
(x+c), as a user would enter it):

- `dres --json "1/b"` and `dres --per-order --json "1/b"`;
- `summable --certificate --json`: for `three-orbit` on
  1/Q(x) + 1/Q(x+3) - 2/Q(x+7), which is summable over the denominator b, so
  the certificate is built; for `square` on 1/b, which is not summable;
- `vspace --json` on 1/Q(x), 1/Q(x+3), 1/Q(x+7) (`three-orbit`) and on
  1/Q(x)^2, 1/Q(x), 1/Q(x+2) (`square`), whose denominators have lcm b.

Each input runs through `benchfile.table` and `benchfile.cli_wall`: every
run is a fresh interpreter, so a time includes start-up and parsing; per
side, input and command the row has the q1/median/q3 wall time over up to 5
alternated rounds (one when a run takes over 5 s), the runs, the sha256 of
the stdout and, with a parent, the change's wins and `same_output`.  A run
past the per-input budget is stopped and its side recorded as not finished
(`timed_out_s`).

Run from a checkout, optionally with a checkout of the parent commit:

    python3 benchmarks/high_degree.py [PARENT_DIR] [--budget 120]

The rows are merged into BENCH_high_degree.json at the checkout root under
the key "pair loop" by `benchfile.record`.
"""

from __future__ import annotations

import random

from benchfile import cli_wall, table
from dresidues.polys import Poly

DEGREES = (10, 20, 30, 40)


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
        "dres-per-order": ["dres", "--per-order", "--json", f"1/({b})"],
        "summable": ["summable", "--certificate", "--json", summable],
        "vspace": ["vspace", "--json", *fs],
    }


def inputs() -> list[tuple[dict, list[str]]]:
    return [
        ({"family": family, "degree": 3 * n, "command": command}, argv)
        for family in ("three-orbit", "square")
        for n in DEGREES
        for command, argv in commands(family, n).items()
    ]


if __name__ == "__main__":
    table(__doc__, inputs, cli_wall, "BENCH_high_degree.json", 120.0)
