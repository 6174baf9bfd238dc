"""Alternated perfbench pairs of a parent checkout and this one.

    python3 benchmarks/perf_pairs.py PARENT_DIR OUT_NAME TITLE --seed 31 \
        --pairs deep-poles=10 dres-oracle=3 vspace-relations=3

For each workload W and pair i, the script runs
`perfbench/run.py --workload W --seed SEED --seconds S --trace 0` once in
PARENT_DIR and once in this checkout, one run at a time, with S the
`run_seconds` of BENCHMARK.json; the parent runs first when i is even.  Per
workload and end-to-end metric it keeps each side's quartiles (statistics.quantiles,
inclusive method), the pairs the change won (ties count for neither), the
relative worsening of the change's median against the BENCHMARK.json bound,
and whether the medians differ by more than the parent's interquartile
range.  It also records both sides' output digests from `--seconds 1` runs
at seeds 1 and 7, and `hermite_list` times on two high-multiplicity inputs:
HERMITE_ROUNDS alternated rounds, each side's best of 3 in a fresh
interpreter per round, kept with each side's quartiles (one interpreter per
side swung by about 20% between runs on unchanged code).

The result is merged into OUT_NAME at the checkout root by `benchfile.record`,
under the key "comparison seed SEED", so runs at several seeds sit side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from benchfile import ROOT, git, record

DIGEST_SEEDS = (1, 7)
HERMITE_ROUNDS = 5
HIGH_MULTIPLICITY = ("1/(x^300*(x+2)^300)", "1/(x^100*(x^2+1)^60*(x+3)^40)")
HERMITE_TIMER = """
import sys, time
from dresidues.cli import parse
from dresidues.hermite import hermite_list
f = parse(sys.argv[1])
times = []
for _ in range(3):
    t0 = time.perf_counter()
    hermite_list(f)
    times.append(time.perf_counter() - t0)
print(min(times))
"""


def perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in `tree`: its report and result objects."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree,
        capture_output=True,
        text=True,
        check=True,
    )
    report, result = out.stdout.splitlines()[-2:]
    return {"report": json.loads(report)["report"], "result": json.loads(result)}


def hermite_best(tree: Path, expr: str) -> float:
    out = subprocess.run(
        [sys.executable, "-c", HERMITE_TIMER, expr], env={**os.environ, "PYTHONPATH": str(tree / "src")}, capture_output=True, text=True, check=True
    )
    return float(out.stdout)


def hermite_rounds(trees: dict[str, Path], expr: str) -> dict:
    """Both sides' `hermite_best` on expr in HERMITE_ROUNDS alternated rounds."""
    times: dict[str, list[float]] = {side: [] for side in trees}
    for i in range(HERMITE_ROUNDS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            times[side].append(hermite_best(trees[side], expr))
    return {side: {"q1_med_q3": quartiles(ts), "rounds": [round(t, 3) for t in ts]} for side, ts in times.items()}


def quartiles(values: list[float]) -> list[float]:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(med, 4), round(q3, 4)]


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: quartiles, pair wins and the change's worsening, for one workload."""
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
    pairs = [p for p in by_pair.values() if len(p) == 2]
    summary: dict = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        ratio = cq[1] / pq[1]
        summary[name] = {
            "parent_q1_med_q3": pq,
            "change_q1_med_q3": cq,
            "change_wins": f"{wins}/{len(pairs)}",
            "ratio_change_over_parent": round(ratio, 4),
            "worse_frac": round((1 - ratio) if higher else (ratio - 1), 4),
            "bound": metric["bound"],
            "median_gap_exceeds_parent_iqr": abs(cq[1] - pq[1]) > pq[2] - pq[0],
        }
    for side in ("parent", "change"):
        summary[f"failed_ops_{side}"] = sum(p[side]["failed"] for p in pairs)
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="a checkout of the parent commit")
    parser.add_argument("out", help="file name of the BENCH_*.json at the checkout root")
    parser.add_argument("title")
    parser.add_argument("--seed", type=int, required=True, help="a seed not used in development")
    parser.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=N")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    runs, summary = [], {}
    for spec in args.pairs:
        workload, count = spec.split("=")
        mine = []
        for i in range(int(count)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run = perfbench(trees[side], workload, args.seed, bench["run_seconds"])
                mine.append({"side": side, "workload": workload, "seed": args.seed, "pair": i, "first": order[0], **run})
                print(workload, i, side, run["result"]["metrics"]["ops_per_s"]["value"], flush=True)
        summary[workload] = summarize(mine, bench["end_to_end"])
        runs += mine
    digests = {}
    for workload in bench["workloads"]:
        for seed in DIGEST_SEEDS:
            digests[f"{workload['name']} seed {seed}"] = {
                side: perfbench(tree, workload["name"], seed, 1)["report"]["output_digest"] for side, tree in trees.items()
            }
    hermite = {expr: hermite_rounds(trees, expr) for expr in HIGH_MULTIPLICITY}
    record(
        ROOT / args.out,
        args.title,
        f"comparison seed {args.seed}",
        {
            "parent_commit": git("-C", str(trees["parent"]), "rev-parse", "HEAD"),
            "seed": args.seed,
            "summary": summary,
            "output_digests": digests,
            "hermite_list_s": hermite,
            "untraced_runs": runs,
        },
    )


if __name__ == "__main__":
    main()
