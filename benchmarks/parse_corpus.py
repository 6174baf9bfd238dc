"""Parser corpus: time `cli.parse` and `cli._tokenize` on the `dres-oracle` inputs.

The expressions are the ones the `dres-oracle` perfbench workload hands to
`dresidues dres --json`, at seeds 1 and 7 (105 each, about 430 characters:
a sum of `c/d*x^k` terms over another).  They are regenerated by running
the workload's own generator (`perfbench/workloads.py`, imported, not
changed) with a stand-in for `cli.main` that records its argument.  For
each seed the script times one pass of `cli.parse` and one of
`cli._tokenize` over the corpus, keeps the best of 7 passes, and records a
sha256 of the parsed values' text, so two checkouts can be compared for
both time and result.

Run from a checkout, with no arguments:

    python3 benchmarks/parse_corpus.py

The result is merged into BENCH_parser.json at the checkout root under
the sha256 of the checkout's `src/dresidues/*.py`, so running the script in
two checkouts that share the file keeps both results side by side.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

from dresidues import cli, testkit  # noqa: E402

SEEDS = (1, 7)
PASSES = 7
OUT = ROOT / "BENCH_parser.json"


def corpus(seed: int) -> list[str]:
    """The `dres-oracle` expressions of one seed, in workload order."""
    exprs: list[str] = []

    def record(argv: list[str]) -> int:
        exprs.append(argv[-1])
        return 0

    lib = SimpleNamespace(testkit=testkit, cli=SimpleNamespace(main=record))
    for item in workloads.dres_oracle(lib, random.Random(seed)):
        item.run()
    return exprs


def best_pass(fn, exprs: list[str]) -> float:
    """Minimum over PASSES of the time to call fn on every expression."""
    times = []
    for _ in range(PASSES):
        t0 = time.perf_counter()
        for e in exprs:
            fn(e)
        times.append(time.perf_counter() - t0)
    return min(times)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dresidues").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main() -> int:
    rows = []
    for seed in SEEDS:
        exprs = corpus(seed)
        values = "\n".join(str(cli.parse(e)) for e in exprs)
        row = {
            "seed": seed,
            "exprs": len(exprs),
            "chars": sum(map(len, exprs)),
            "parse_s": round(best_pass(cli.parse, exprs), 4),
            "tokenize_s": round(best_pass(cli._tokenize, exprs), 4),
            "parse_digest": hashlib.sha256(values.encode()).hexdigest(),
        }
        print(json.dumps(row), flush=True)
        rows.append(row)
    result = {
        "git_head": git("rev-parse", "HEAD"),
        "git_dirty": bool(git("status", "--porcelain", "--", "src")),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()} {platform.release()}, "
        f"{platform.python_implementation()} {platform.python_version()}",
        "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seeds": rows,
    }
    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    data.setdefault(
        "title",
        "cli.parse and cli._tokenize on the dres-oracle expressions of seeds 1 and 7 "
        "(benchmarks/parse_corpus.py); times are the best of 7 passes over a seed's corpus, in seconds",
    )
    data.setdefault("runs", {})[source_digest()] = result
    OUT.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
