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


def time_cli(tree: Path, argv: list[str], budget: float) -> dict:
    """Median wall time and stdout sha256 of `python -m dresidues.cli *argv`
    with `tree`'s src first on the path, each run in a fresh interpreter: up
    to REPEATS runs, one when it takes over SLOW_S seconds.  A run past
    `budget` seconds is stopped and recorded as timed out."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    times, digests = [], set()
    while len(times) < REPEATS and not (times and times[-1] > SLOW_S):
        t0 = time.perf_counter()
        try:
            out = subprocess.run([sys.executable, "-m", "dresidues.cli", *argv], env=env, capture_output=True, timeout=budget, check=True)
        except subprocess.TimeoutExpired:
            return {"timed_out_s": budget}
        times.append(time.perf_counter() - t0)
        digests.add(hashlib.sha256(out.stdout).hexdigest())
    if len(digests) != 1:
        raise SystemExit(f"{tree}: {argv[0]} gave different outputs on repeated runs")
    return {"median_s": round(statistics.median(times), 4), "runs": len(times), "sha256": digests.pop()}
