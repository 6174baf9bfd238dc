"""The BENCH_*.json writer and the CLI timer shared by the scripts in this directory.

Each run is merged into its file at the checkout root under the sha256 of the
checkout's `src/dresidues/*.py` and the run's key, with its own git head,
whether `src` has uncommitted changes, the machine and the time, so running
a script in two checkouts that share the file, or under two keys, keeps both
results side by side.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
SLOW_S = 5.0


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


def warm(tree: Path) -> None:
    """One untimed import of the package in `tree`, which writes its bytecode
    cache, so that no timed run compiles it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run([sys.executable, "-c", "import dresidues.cli"], env={**env, "PYTHONPATH": str(tree / "src")}, check=True)


def time_cli(trees: dict[str, Path], argv: list[str], budget: float) -> dict[str, dict]:
    """Per side of `trees`, the median wall time and stdout sha256 of
    `python -m dresidues.cli *argv` with that tree's src first on the path,
    each run in a fresh interpreter.  The sides alternate run by run, the
    first side swapping every round, for up to REPEATS rounds; a side stops
    after a run over SLOW_S seconds, and a run past `budget` seconds is
    stopped and recorded as timed out.  Callers `warm` each tree once first."""
    times: dict[str, list[float]] = {side: [] for side in trees}
    digests: dict[str, set[str]] = {side: set() for side in trees}
    out: dict[str, dict] = {}
    for i in range(REPEATS):
        for side in list(trees)[:: 1 if i % 2 == 0 else -1]:
            if side in out or (times[side] and times[side][-1] > SLOW_S):
                continue
            env = {**os.environ, "PYTHONPATH": str(trees[side] / "src")}
            t0 = time.perf_counter()
            try:
                run = subprocess.run([sys.executable, "-m", "dresidues.cli", *argv], env=env, capture_output=True, timeout=budget, check=True)
            except subprocess.TimeoutExpired:
                out[side] = {"timed_out_s": budget}
                continue
            times[side].append(time.perf_counter() - t0)
            digests[side].add(hashlib.sha256(run.stdout).hexdigest())
    for side, ts in times.items():
        if side in out:
            continue
        if len(digests[side]) != 1:
            raise SystemExit(f"{trees[side]}: {argv[0]} gave different outputs on repeated runs")
        out[side] = {"median_s": round(statistics.median(ts), 4), "runs": len(ts), "sha256": digests[side].pop()}
    return {side: out[side] for side in trees}
