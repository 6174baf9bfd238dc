"""Parser corpus: time `cli.parse` and `cli._tokenize` on the `dres-oracle` inputs.

The expressions are the ones the `dres-oracle` perfbench workload hands to
`dresidues dres --json`, at seeds 1 and 7 (105 each, about 430 characters:
a sum of `c/d*x^k` terms over another).  They are regenerated by running
the workload's own generator (`perfbench/workloads.py`, imported, not
changed) with stand-ins for `cli.main`, which records its argument, and for
`testkit.build_from_spec`, which also writes the same function as its
partial fractions, `c/(x - a)^k + ...`: a second corpus of the same values
in which no polynomial has more than two terms.  Both corpora are built
once, in this checkout, and handed to both sides.

Per seed each `benchfile.pair_loop` round is a fresh interpreter
(`benchfile.run`) that times passes of `cli.parse` over each corpus and of
`cli._tokenize` over the first, keeping the best of each (`benchfile.best`:
up to 5 passes, stopping once a second is spent), and takes the sha256 of
the parsed values' text and the tokens.  A row has each side's q1/median/q3
of the three times over 5 alternated rounds, its runs and sha256 and, with
a parent, the change's wins and `same_output`.

Run from a checkout, optionally with a checkout of the parent commit:

    python3 benchmarks/parse_corpus.py [PARENT_DIR]

The rows are merged into BENCH_parser.json at the checkout root under the
key "pair loop" by `benchfile.record`.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

from benchfile import best, digest, table
import workloads
from dresidues import cli, testkit

SEEDS = (1, 7)


def corpus(seed: int) -> tuple[list[str], list[str]]:
    """The `dres-oracle` expressions of one seed, in workload order, and the
    same functions written as sums of partial fractions."""
    exprs: list[str] = []
    fractions: list[str] = []

    def record(argv: list[str]) -> int:
        exprs.append(argv[-1])
        return 0

    def build(spec: testkit.OrbitSpec):
        terms = [f"{c}/(x {'-' if a >= 0 else '+'} {abs(a)})^{k}" for a, k, c in spec.terms]
        fractions.append(" + ".join(terms).replace("+ -", "- "))
        return testkit.build_from_spec(spec)

    kit = SimpleNamespace(random_orbit_spec=testkit.random_orbit_spec, build_from_spec=build)
    lib = SimpleNamespace(testkit=kit, cli=SimpleNamespace(main=record))
    for item in workloads.dres_oracle(lib, random.Random(seed)):
        item.run()
    return exprs, fractions


def passes(exprs: list[str], fractions: list[str]) -> tuple[dict[str, float], str]:
    """Run in a child: the best pass times over both corpora, and the sha256 of the outputs."""
    values, texts = {}, []
    for name, fn, corpus in (("parse_s", cli.parse, exprs), ("tokenize_s", cli._tokenize, exprs), ("partial_fractions_parse_s", cli.parse, fractions)):
        values[name], out = best(lambda: [fn(e) for e in corpus])
        texts += map(str, out)
    return values, digest("\n".join(texts))


def inputs() -> list[tuple[dict, list]]:
    rows = []
    for seed in SEEDS:
        exprs, fractions = corpus(seed)
        labels = {"seed": seed, "exprs": len(exprs), "chars": sum(map(len, exprs)), "partial_fractions_chars": sum(map(len, fractions))}
        rows.append((labels, ["parse_corpus", "passes", exprs, fractions]))
    return rows


if __name__ == "__main__":
    table(__doc__, inputs, out="BENCH_parser.json")
