#!/usr/bin/env python3
"""Benchmark of the dresidues package, run from the root of a source tree.

    python3 perfbench/run.py --workload dres-oracle --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --self-check

One process, one caller, closed loop: the next op starts when the previous
one returns.  The corpus is generated from --seed during set-up.  The
measured loop makes whole passes over it: at least MIN_PASSES, and another
one only while it is expected to end within --seconds.  An op's time is the
mean of its times over the passes.  Outputs are reduced to canonical text
right after each op, outside its timing, and checked after the loop against
an independent reference (`oracle.py`); an op that raised or failed its
check counts as failed, with its kind recorded.

Reported times are scaled to a fixed host speed.  After every op, outside
its timing, the loop times `reference_work`, a fixed computation in the
library's number type that uses nothing from `dresidues`.  Every time of
the run is multiplied by REF_NOMINAL_S over the mean reference time of the
same run, so a host that other tenants slow by a third for a minute slows
the ops and the reference alike, and the reported times stay put; a change
to the library moves only the ops.  The report line keeps the raw times.

--trace 0 prints the end-to-end metrics.  --trace 1 times untraced passes
for half of --seconds, then makes one traced pass with spans around the
library's public functions (`tracer.py`) and prints the per-layer metrics.
The last line of stdout is the result object; the line before it is a
report with the machine, seed, op counts, failure kinds and output digest.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
WARMUP_OPS = 2
MIN_OPS = 100  # corpus size: p90 over per-op times needs ten ops above it
MIN_PASSES = 3  # samples per op; their mean is the op's time
SELF_CHECK_OPS = 4
SETUP_PROBES = 10  # reference timings after each set-up repeat

# Operands of the reference computation, and its mean time on the machine
# in README.md.  The constant only sets the scale of reported times.
REF_P = tuple(Fraction(k * k - 7, 2 * k + 3) for k in range(10))
REF_Q = tuple(Fraction(3 - k, k + 5) for k in range(9))
REF_NOMINAL_S = 0.0045


def reference_work() -> list[Fraction]:
    """A product of two fixed polynomials over Q, then five Taylor shifts
    of it by synthetic division: the arithmetic that dominates the
    library's own profile, without the library."""
    out = [Fraction(0)] * (len(REF_P) + len(REF_Q) - 1)
    for i, a in enumerate(REF_P):
        for j, b in enumerate(REF_Q):
            out[i + j] += a * b
    for c in (1, -2, 3, -1, 2):
        for k in range(len(out) - 1):
            for j in range(len(out) - 2, k - 1, -1):
                out[j] += c * out[j + 1]
    return out


def probe() -> float:
    """Time one reference computation, with the cyclic collector off so
    that it never pays for the library's garbage."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def scale(probes: list[float]) -> float:
    """Factor that takes times measured next to `probes` to REF_NOMINAL_S
    host speed."""
    return REF_NOMINAL_S / statistics.fmean(probes)


def import_library():
    """Import `dresidues` afresh; src/ of this tree is first on sys.path."""
    for name in [m for m in sys.modules if m == "dresidues" or m.startswith("dresidues.")]:
        del sys.modules[name]
    return argparse.Namespace(
        **{m: importlib.import_module(f"dresidues.{m}") for m in ("cli", "galois", "polys", "ratfun", "summability", "testkit")}
    )


def setup(workload: str, seed: int, limit: int | None):
    """Import, corpus generation and warm-up, repeated; returns the last
    repeat's corpus, every repeat's time and the reference timings taken
    after each repeat."""
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = import_library()
        items = workloads.WORKLOADS[workload](lib, random.Random(seed))[:limit]
        for item in items[:WARMUP_OPS]:
            try:
                item.run()
            except Exception:  # counted when the same op runs in the measured loop
                pass
        times.append(time.perf_counter() - t0)
        probes += [probe() for _ in range(SETUP_PROBES)]
    return items, times, probes


def run_passes(items, seconds: float, min_passes: int, trace: tracer.Tracer | None = None):
    """Whole passes over the corpus: at least `min_passes`, and more while
    the next one is expected to end within `seconds`.  Returns one row per
    pass, holding (latency, canonical output, exception) per item, and the
    reference timings taken after each op.  The output is None when the op
    raised, the exception None when it did not."""
    passes, probes = [], []
    t0 = time.perf_counter()
    while True:
        gc.collect()
        row = []
        for idx, item in enumerate(items):
            if trace is not None:
                trace.op_id = len(passes) * len(items) + idx
            start = time.perf_counter()
            try:
                result, error = item.run(), None
            except Exception as exc:  # a failed op is counted, and the loop goes on
                result, error = None, exc
            lat = time.perf_counter() - start
            if error is None:
                try:
                    result = item.canon(result)
                except Exception as exc:  # an output of the wrong shape fails
                    result, error = None, exc
            row.append((lat, result, error))
            probes.append(probe())
        passes.append(row)
        elapsed = time.perf_counter() - t0
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, probes


def op_times(passes) -> list[float]:
    """Each op's mean latency over the passes, in corpus order."""
    return [statistics.fmean(row[idx][0] for row in passes) for idx in range(len(passes[0]))]


def verify(items, passes):
    """Check every op's output; returns (failed, failure kinds, labels of
    the failed items, digest).

    The digest hashes each corpus item's canonical output of the first
    pass, so it repeats exactly across runs with the same seed."""
    first: dict[int, str] = {}
    verdict: dict[tuple[int, str], bool] = {}
    kinds: Counter = Counter()
    bad: set[str] = set()
    for row in passes:
        for idx, (_, text, error) in enumerate(row):
            if error is not None:
                kinds[type(error).__name__] += 1
                bad.add(items[idx].label)
                first.setdefault(idx, f"error {type(error).__name__}")
                continue
            first.setdefault(idx, text)
            if (idx, text) not in verdict:
                try:
                    verdict[idx, text] = items[idx].check(text)
                except Exception:  # a malformed output fails its check
                    verdict[idx, text] = False
            if not verdict[idx, text]:
                kinds["wrong-output"] += 1
                bad.add(items[idx].label)
            elif text != first[idx]:
                kinds["nondeterministic-output"] += 1
                bad.add(items[idx].label)
    digest = hashlib.sha256()
    for idx in sorted(first):
        digest.update(f"{idx}\t{first[idx]}\n".encode())
    return sum(kinds.values()), dict(kinds), sorted(bad), digest.hexdigest()


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def machine_info() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, limit: int | None = None):
    """One run; returns (report, result) as printed."""
    items, setup_times, setup_probes = setup(workload, seed, limit)
    if limit is None and len(items) < MIN_OPS:
        raise ValueError(f"{workload}: corpus of {len(items)} ops, fewer than {MIN_OPS}")
    min_passes = 1 if limit else MIN_PASSES
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_info(),
        "corpus_ops": len(items),
        "setup_s_repeats": setup_times,
        "setup_scale": scale(setup_probes),
    }
    if not trace:
        t0 = time.perf_counter()
        passes, probes = run_passes(items, seconds, min_passes)
        wall = time.perf_counter() - t0
        raw = sorted(op_times(passes))
        k = scale(probes)
        metrics = {
            "ops_per_s": (len(raw) / (k * sum(raw)), "ops/s"),
            "lat_p50_ms": (1000 * k * statistics.median(raw), "ms"),
            "lat_p90_ms": (1000 * k * percentile(raw, 0.9), "ms"),
            "setup_s": (scale(setup_probes) * statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        report.update(
            passes=len(passes),
            latency_samples=len(raw),
            loop_scale=k,
            reference_mean_ms=1000 * statistics.fmean(probes),
            raw_ops_per_s=len(raw) / sum(raw),
            raw_lat_p50_ms=1000 * statistics.median(raw),
            raw_lat_p90_ms=1000 * percentile(raw, 0.9),
            raw_setup_s=statistics.median(setup_times),
            loop_wall_s=wall,
            pass_s=[sum(lat for lat, _, _ in row) for row in passes],
        )
    else:
        plain, plain_probes = run_passes(items, seconds / 2, 1)
        spans = tracer.Tracer()
        spans.install()
        try:
            traced, traced_probes = run_passes(items, 0, 1, trace=spans)
        finally:
            spans.uninstall()
        traced_times = [lat for lat, _, _ in traced[0]]
        layer = spans.layer_metrics(sum(traced_times))
        untraced_rate = len(items) / (scale(plain_probes) * sum(op_times(plain)))
        traced_rate = len(items) / (scale(traced_probes) * sum(traced_times))
        layer["trace.overhead_ops_per_s"] = untraced_rate - traced_rate
        metrics = {name: (layer[name], unit) for name, unit in tracer.per_layer_names()}
        report["untraced_passes"] = len(plain)
        report["untraced_ops_per_s"] = untraced_rate
        report["traced_ops_per_s"] = traced_rate
        report["tracing_overhead_frac"] = 1 - traced_rate / untraced_rate
        passes = plain + traced
    attempted = sum(len(row) for row in passes)
    failed, kinds, bad, digest = verify(items, passes)
    report.update(
        attempted=attempted,
        failed=failed,
        fail_frac=failed / attempted,
        failure_kinds=kinds,
        failed_items=bad,
        output_digest=digest,
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return report, result


def self_check() -> int:
    """A few ops of every workload in both modes: every metric that
    BENCHMARK.json declares is emitted with its unit, and nothing fails."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            report, result = measure(workload, 0, 0, bool(trace), limit=SELF_CHECK_OPS)
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != declared[trace]:
                problems.append(f"{workload} trace={trace}: metrics {emitted} != declared {declared[trace]}")
            if report["fail_frac"] != 0:
                problems.append(f"{workload} trace={trace}: failures {report['failure_kinds']}")
            print(f"{workload} trace={trace}: {report['attempted']} ops, fail_frac {report['fail_frac']}")
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="a few ops per workload; assert metric names and no failures")
    args = parser.parse_args(argv)
    if not (SRC / "dresidues" / "__init__.py").is_file():
        print(f"error: no dresidues sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    report, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
