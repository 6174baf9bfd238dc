"""Parser corpus: time `cli.parse` and `cli._tokenize` on the `dres-oracle` inputs.

The expressions are the ones the `dres-oracle` perfbench workload hands to
`dresidues dres --json`, at seeds 1 and 7 (105 each, about 430 characters:
a sum of `c/d*x^k` terms over another).  They are regenerated by running
the workload's own generator (`perfbench/workloads.py`, imported, not
changed) with stand-ins for `cli.main`, which records its argument, and for
`testkit.build_from_spec`, which also writes the same function as its
partial fractions, `c/(x - a)^k + ...`: a second corpus of the same values
in which no polynomial has more than two terms.  For each seed the script
times one pass of `cli.parse` over each corpus and one of `cli._tokenize`
over the first, keeps the best of 7 passes, and records a sha256 of the
parsed values' text for each corpus, so two checkouts can be compared for
both time and result (the two corpora give the same digest).

Run from a checkout, with no arguments:

    python3 benchmarks/parse_corpus.py

The result is merged into BENCH_parser.json at the checkout root by
`benchfile.record`.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from types import SimpleNamespace

from benchfile import ROOT, record

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

from dresidues import cli, testkit  # noqa: E402

SEEDS = (1, 7)
PASSES = 7
OUT = ROOT / "BENCH_parser.json"


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


def digest(exprs: list[str]) -> str:
    return hashlib.sha256("\n".join(str(cli.parse(e)) for e in exprs).encode()).hexdigest()


def best_pass(fn, exprs: list[str]) -> float:
    """Minimum over PASSES of the time to call fn on every expression."""
    times = []
    for _ in range(PASSES):
        t0 = time.perf_counter()
        for e in exprs:
            fn(e)
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> int:
    rows = []
    for seed in SEEDS:
        exprs, fractions = corpus(seed)
        row = {
            "seed": seed,
            "exprs": len(exprs),
            "chars": sum(map(len, exprs)),
            "parse_s": round(best_pass(cli.parse, exprs), 4),
            "tokenize_s": round(best_pass(cli._tokenize, exprs), 4),
            "parse_digest": digest(exprs),
            "partial_fractions_chars": sum(map(len, fractions)),
            "partial_fractions_parse_s": round(best_pass(cli.parse, fractions), 4),
            "partial_fractions_digest": digest(fractions),
        }
        print(json.dumps(row), flush=True)
        rows.append(row)
    record(
        OUT,
        "cli.parse and cli._tokenize on the dres-oracle expressions of seeds 1 and 7 "
        "(benchmarks/parse_corpus.py); times are the best of 7 passes over a seed's corpus, in seconds",
        "seeds",
        {"rows": rows},
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
