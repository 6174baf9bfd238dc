"""Alternated perfbench pairs of a parent checkout and this one.

    python3 benchmarks/perf_pairs.py PARENT_DIR OUT_NAME TITLE --seed 31 \
        --pairs deep-poles=10 dres-oracle=3 vspace-relations=3

For each workload W the script runs `perfbench/run.py --workload W --seed
SEED --seconds S --trace 0`, with S the `run_seconds` of BENCHMARK.json, in
PARENT_DIR and in this checkout for the given number of `benchfile.pair_loop`
rounds, one run at a time, the parent first in even rounds; the loop checks
that each side's output digest repeats.  Per workload and end-to-end metric
it keeps each side's quartiles, the pairs the change won (ties count for
neither), the relative worsening of the change's median against the
BENCHMARK.json bound, and whether the medians differ by more than the
parent's interquartile range.  It also records both sides' output digests
from `--seconds 1` runs at seeds 1 and 7, and `hermite_list` times on two
high-multiplicity inputs in 5 alternated rounds, each a fresh interpreter
(`benchfile.run`) that keeps the best of up to 5 calls (`benchfile.best`),
with each side's quartiles (one interpreter per side swung by about 20%
between runs on unchanged code).

The result is merged into OUT_NAME at the checkout root by `benchfile.record`,
under the key "pair loop seed SEED", so runs at several seeds sit side by side.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

from benchfile import ROOT, best, digest, pair_loop, parent_commit, record, run
from dresidues.cli import parse
from dresidues.hermite import hermite_list

DIGEST_SEEDS = (1, 7)
HIGH_MULTIPLICITY = ("1/(x^300*(x+2)^300)", "1/(x^100*(x^2+1)^60*(x+3)^40)")


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


def hermite(expr: str) -> tuple[dict[str, float], str]:
    """Run in a child: the best time of `hermite_list` on expr, and the sha256 of its layers."""
    f = parse(expr)
    seconds, layers = best(lambda: hermite_list(f))
    return {"best_s": seconds}, digest(str(layers))


def summarize(row: dict, runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric of one workload's `pair_loop` row: quartiles, pair wins and the change's worsening."""
    summary: dict = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        pq, cq = row["parent"][name], row["change"][name]
        ratio = cq[1] / pq[1]
        summary[name] = {
            "parent_q1_med_q3": pq,
            "change_q1_med_q3": cq,
            "change_wins": row["change_wins"][name],
            "ratio_change_over_parent": round(ratio, 4),
            "worse_frac": round((1 - ratio) if higher else (ratio - 1), 4),
            "bound": metric["bound"],
            "median_gap_exceeds_parent_iqr": abs(cq[1] - pq[1]) > pq[2] - pq[0],
        }
    for side in ("parent", "change"):
        summary[f"failed_ops_{side}"] = sum(run["result"]["failed"] for run in runs if run["side"] == side)
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
    names = [metric["name"] for metric in bench["end_to_end"]]
    higher = {metric["name"] for metric in bench["end_to_end"] if metric["better"] == "higher"}
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    runs, summary = [], {}
    for spec in args.pairs:
        workload, count = spec.split("=")
        mine: list[dict] = []

        def measure(side: str) -> tuple[dict[str, float], str]:
            out = perfbench(trees[side], workload, args.seed, bench["run_seconds"])
            metrics = out["result"]["metrics"]
            print(workload, len(mine) // 2, side, metrics["ops_per_s"]["value"], flush=True)
            mine.append({"side": side, "workload": workload, "seed": args.seed, "pair": len(mine) // 2, **out})
            return {name: metrics[name]["value"] for name in names}, out["report"]["output_digest"]

        row = pair_loop(measure, list(trees), int(count), slow=math.inf, higher=higher)
        summary[workload] = summarize(row, mine, bench["end_to_end"])
        runs += mine
    digests = {}
    for workload in bench["workloads"]:
        for seed in DIGEST_SEEDS:
            digests[f"{workload['name']} seed {seed}"] = {
                side: perfbench(tree, workload["name"], seed, 1)["report"]["output_digest"] for side, tree in trees.items()
            }
    hermite_rows = {expr: pair_loop(lambda side: run(trees[side], "perf_pairs", "hermite", expr), list(trees)) for expr in HIGH_MULTIPLICITY}
    record(
        ROOT / args.out,
        args.title,
        f"pair loop seed {args.seed}",
        {
            "parent_commit": parent_commit(args.parent),
            "seed": args.seed,
            "summary": summary,
            "output_digests": digests,
            "hermite_list_s": hermite_rows,
            "untraced_runs": runs,
        },
    )


if __name__ == "__main__":
    main()
