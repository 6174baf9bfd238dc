"""The pair loop, the runner and the BENCH_*.json writer shared by the scripts in this directory.

`pair_loop` alternates a measure over the sides of a comparison (a parent
checkout and this one) and summarises each side by its quartiles, its output
sha256 and the change's wins.  `run` calls a plain function of a module in
this directory in a fresh interpreter with a chosen tree's `src` first on
the path, and checks there that `dresidues` came from that tree.  Importing
this module puts this checkout's `src` and `perfbench` last on the path, so
the scripts can import `dresidues` and `workloads` while a child's own tree
stays first.

Each run is merged into its file at the checkout root under the sha256 of the
checkout's `src/dresidues/*.py` and the run's key, with its own git head,
whether `src` has uncommitted changes, the machine and the time, so running
a script in two checkouts that share the file, or under two keys, keeps both
results side by side.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections.abc import Callable, Collection, Sequence
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 5
PASSES = 5
SLOW_S = 5.0
# The runner's program: the tree's src and this directory go first on the path.
LAUNCHER = "import sys; sys.path[:0] = sys.argv[1:3]; import benchfile; benchfile.child()"

sys.path += [str(ROOT / "src"), str(ROOT / "perfbench")]


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


def record(out: Path, title: str, key: str, fields: dict) -> None:
    """Merge one run, its fields and metadata stored under `key` in its
    source's entry, into the file `out`; the title is written only when the
    file has none."""
    run = {
        "git_head": git("rev-parse", "HEAD"),
        "git_dirty": bool(git("status", "--porcelain", "--", "src")),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()} {platform.release()}, "
        f"{platform.python_implementation()} {platform.python_version()}",
        "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **fields,
    }
    data = json.loads(out.read_text()) if out.exists() else {}
    data.setdefault("title", title)
    data.setdefault("runs", {}).setdefault(source_digest(), {})[key] = run
    out.write_text(json.dumps(data, indent=1) + "\n")


def parent_commit(parent: Path | None) -> str | None:
    return git("-C", str(parent), "rev-parse", "HEAD") if parent else None


def quartiles(values: Sequence[float]) -> list[float]:
    """q1, median and q3 (statistics.quantiles, inclusive method), to 5 significant digits."""
    qs = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else list(values) * 3
    return [float(f"{q:.5g}") for q in qs]


def pair_loop(
    measure: Callable[[str], tuple[dict[str, float], str]],
    sides: Sequence[str],
    rounds: int = ROUNDS,
    budget: float | None = None,
    slow: float = SLOW_S,
    higher: Collection[str] = (),
) -> dict:
    """Up to `rounds` rounds of `measure(side)` -> (values by name, output
    sha256) over `sides`, one side after the other, the first side swapping
    every round.  A side stops after a run with a value over `slow`, and a
    run that raises subprocess.TimeoutExpired stops its side, which is
    recorded as timed out after `budget` seconds.  A side whose sha256
    changes between rounds raises RuntimeError.

    Per side: the q1/median/q3 of each value, the runs and the sha256.  With
    sides "parent" and "change" that both finished, also the rounds in which
    the change won per value (lower wins, or higher for names in `higher`;
    ties count for neither) and whether the two sha256 agree."""
    runs: dict[str, list[dict[str, float]]] = {side: [] for side in sides}
    digests: dict[str, str] = {}
    timed_out: set[str] = set()
    for i in range(rounds):
        for side in sides[:: 1 if i % 2 == 0 else -1]:
            if side in timed_out or (runs[side] and max(runs[side][-1].values()) > slow):
                continue
            try:
                values, sha = measure(side)
            except subprocess.TimeoutExpired:
                timed_out.add(side)
                continue
            if digests.setdefault(side, sha) != sha:
                raise RuntimeError(f"{side}: the output changed between rounds")
            runs[side].append(values)
    row: dict = {}
    for side, rs in runs.items():
        if side in timed_out:
            row[side] = {"timed_out_s": budget}
        else:
            row[side] = {name: quartiles([r[name] for r in rs]) for name in rs[0]} | {"runs": len(rs), "sha256": digests[side]}
    if {"parent", "change"} <= runs.keys() and not timed_out:
        pairs = list(zip(runs["parent"], runs["change"]))
        row["change_wins"] = {
            name: f"{sum((c[name] > p[name]) if name in higher else (c[name] < p[name]) for p, c in pairs)}/{len(pairs)}"
            for name in runs["change"][0]
        }
        row["same_output"] = digests["parent"] == digests["change"]
    return row


def best(fn: Callable[[], object]) -> tuple[float, object]:
    """The least time of up to PASSES calls of fn, stopping once a second is
    spent, and the last call's result."""
    times: list[float] = []
    while len(times) < PASSES and sum(times) < 1.0:
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(tree: Path, module: str, function: str, *args, timeout: float | None = None):
    """`module.function(*args)`, for a module in this directory, in a fresh
    interpreter with `tree`'s src first on the path; the arguments go in and
    the result comes back as JSON.  The child writes its bytecode cache."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    argv = [sys.executable, "-c", LAUNCHER, str(tree / "src"), str(ROOT / "benchmarks"), module, function]
    out = subprocess.run(argv, input=json.dumps(args), stdout=subprocess.PIPE, text=True, env=env, timeout=timeout, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def child() -> None:
    """The runner's side: import the module, check that `dresidues` came from
    the tree, call the function on the arguments read from stdin and print
    its result."""
    src, _, module, function = sys.argv[1:]
    fn = getattr(importlib.import_module(module), function)
    import dresidues

    if Path(dresidues.__file__).resolve().parent != (Path(src) / "dresidues").resolve():
        raise SystemExit(f"dresidues was imported from {dresidues.__file__}, not from {src}")
    print(json.dumps(fn(*json.loads(sys.stdin.read()))))


def cli(argv: list[str]) -> str:
    """The sha256 of the stdout of `dresidues` run on argv; a nonzero exit code raises."""
    from dresidues.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code:
        raise SystemExit(f"dresidues {argv[0]} exited with {code}")
    return digest(out.getvalue())


def cli_wall(tree: Path, argv: list[str], budget: float | None) -> tuple[dict[str, float], str]:
    """The wall time of `cli(argv)` in a fresh interpreter, start-up included, and its sha256."""
    t0 = time.perf_counter()
    sha = run(tree, "benchfile", "cli", argv, timeout=budget)
    return {"wall_s": time.perf_counter() - t0}, sha


def called(tree: Path, call: list, budget: float | None) -> tuple[dict[str, float], str]:
    """`run(tree, *call)`: a child's own values and sha256."""
    return run(tree, *call, timeout=budget)


def table(doc: str, inputs: Callable[[], list[tuple[dict, list]]], measure=called, out: str | None = None, budget: float | None = None) -> None:
    """The command line and body of a script: per (labels, call) of
    `inputs()`, one `pair_loop` row of `measure(tree, call, budget)` on the
    sides, printed and then merged into `out` (or the OUT_NAME argument) at
    the checkout root under the key "pair loop".  With a `budget`, the
    script takes `--budget` seconds per run.  Each side first runs once
    untimed, which writes its bytecode cache."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    if out is None:
        parser.add_argument("out", help="file name of the BENCH_*.json at the checkout root")
    parser.add_argument("parent", type=Path, nargs="?", help="a checkout of the parent commit")
    if budget is not None:
        parser.add_argument("--budget", type=float, default=budget, help="seconds per run before it is stopped")
    args = parser.parse_args()
    budget = getattr(args, "budget", None)
    sides = ({"parent": args.parent.resolve()} if args.parent else {}) | {"change": ROOT}
    for tree in sides.values():
        run(tree, "benchfile", "cli", ["--help"])
    rows = []
    for labels, call in inputs():
        row = {**labels, **pair_loop(lambda side: measure(sides[side], call, budget), list(sides), budget=budget)}
        print(json.dumps(row), flush=True)
        rows.append(row)
    fields = {"parent_commit": parent_commit(args.parent), "budget_s": budget, "rows": rows}
    record(ROOT / (out or args.out), f"{doc.splitlines()[0]} (benchmarks/{Path(sys.argv[0]).name})", "pair loop", fields)
