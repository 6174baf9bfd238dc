"""In-process time of `discrete_residues_multi` on each side of its path choice.

Three corpora of families, built per side with the side's `src` first on the
path:

- "vspace seed S", S in SEEDS: the 70 `vspace` families (4-8 functions each)
  of the `vspace-relations` corpus of `perfbench/workloads.py` at seed S.  Their
  denominators are mostly shared (every function has the same simple poles,
  plus a delta image on the orbit of 0), so they are read over one lcm.
- "disjoint": 30 seeded families of 4-8 functions with pairwise
  disjoint denominators, each function two terms c/p(x+s)^k, k <= 3, on its own
  Z-orbit, p linear or an irreducible quadratic.  The lcm is the product of the
  denominators, so each function takes its own Hermite remainders.
- "mixed": 30 seeded families of 2-8 functions over one to three shared
  poles p(x+s)^k, k <= 3, on orbits of their own: each function has one term
  c/p(x+s)^k on an orbit of its own and one over each of a random nonempty
  subset of the shared poles.  Their
  n*deg L lies on both sides of, and near, twice the total degree of the
  denominators, where `discrete_residues_multi` chooses its path.

Per side and corpus the script runs one pass over the families in a fresh
interpreter to take the sha256 of every (places, values), then REPEATS timed
passes, and keeps the best pass time in milliseconds.

Run from a checkout, optionally with a checkout of the parent commit:

    python3 benchmarks/multi_residues.py OUT_NAME [PARENT_DIR]

The result, with `same_output` per corpus when both sides ran, is merged into
OUT_NAME at the checkout root by `benchfile.record`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from benchfile import ROOT, git, record

SEEDS = (1, 5)
REPEATS = 12
TIMER = """
import argparse, hashlib, importlib, json, random, sys, time
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
import workloads
from dresidues.polys import Poly
from dresidues.ratfun import RatFun
from dresidues.residues import discrete_residues_multi

def vspace(seed):
    names = ("cli", "galois", "polys", "ratfun", "summability", "testkit")
    lib = argparse.Namespace(**{m: importlib.import_module(f"dresidues.{m}") for m in names})
    # A vspace item runs lib.summability.vspace on its family, so with this
    # stand-in its run() returns the family.
    lib.summability = argparse.Namespace(vspace=lambda fs: fs)
    items = workloads.WORKLOADS["vspace-relations"](lib, random.Random(seed))
    return [item.run() for item in items if item.label.startswith("vspace")]

X = Poly([0, 1])

# A linear or irreducible quadratic p, on a Z-orbit of its own per orbit number.
def base(rng, orbit):
    return X - Fraction(1, orbit + 7) if rng.random() < 0.5 else X**2 + X * Fraction(1, orbit + 3) + (orbit + 2)

# A nonzero c with deg c < deg p.
def coef(rng, p):
    return Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(p.degree - 1)] + [rng.randint(1, 4)])

# c/p(x+s)^k with s <= 3 and k <= 3.
def term(rng, p):
    num = coef(rng, p)
    return RatFun(num, p.shift(rng.randint(0, 3)) ** rng.randint(1, 3))

def disjoint():
    rng, orbit, families = random.Random(0), 0, []
    for i in range(30):
        fs = []
        for _ in range(4 + i % 5):
            orbit += 1
            p = base(rng, orbit)
            fs.append(term(rng, p) + term(rng, p))
        families.append(fs)
    return families

# Each shared orbit holds one pole p(x+s)^k per family.
def mixed():
    rng, orbit, families = random.Random(1), 0, []
    for i in range(30):
        shared = []
        for _ in range(1 + i % 3):
            orbit += 1
            p = base(rng, orbit)
            shared.append((p, term(rng, p).den))
        fs = []
        for _ in range(2 + i % 7):
            orbit += 1
            f = term(rng, base(rng, orbit))
            for p, den in rng.sample(shared, rng.randint(1, len(shared))):
                f = f + RatFun(coef(rng, p), den)
            fs.append(f)
        families.append(fs)
    return families

corpus = sys.argv[2]
families = vspace(int(corpus.split()[-1])) if corpus.startswith("vspace") else {"disjoint": disjoint, "mixed": mixed}[corpus]()
digest = hashlib.sha256()
for fs in families:
    md = discrete_residues_multi(fs)
    digest.update(repr((md.places, md.values)).encode())
best = float("inf")
for _ in range(int(sys.argv[3])):
    t0 = time.perf_counter()
    for fs in families:
        discrete_residues_multi(fs)
    best = min(best, time.perf_counter() - t0)
print(json.dumps({"families": len(families), "best_ms": round(best * 1000, 1), "sha256": digest.hexdigest()}))
"""


def best_pass(tree: Path, corpus: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    argv = [sys.executable, "-c", TIMER, str(ROOT / "perfbench"), corpus, str(REPEATS)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="file name of the BENCH_*.json at the checkout root")
    parser.add_argument("parent", type=Path, nargs="?", help="a checkout of the parent commit")
    args = parser.parse_args()
    trees = {"change": ROOT} | ({"parent": args.parent.resolve()} if args.parent else {})
    rows = []
    for corpus in [f"vspace seed {seed}" for seed in SEEDS] + ["disjoint", "mixed"]:
        row: dict = {"corpus": corpus}
        for side, tree in trees.items():
            row[side] = best_pass(tree, corpus)
        if "parent" in row:
            row["same_output"] = row["parent"]["sha256"] == row["change"]["sha256"]
        print(json.dumps(row), flush=True)
        rows.append(row)
    record(
        ROOT / args.out,
        "discrete_residues_multi on the perfbench vspace families and on families with disjoint or partly shared denominators "
        "(benchmarks/multi_residues.py); "
        f"best of {REPEATS} in-process passes in ms, with the sha256 of the outputs",
        "in_process_discrete_residues_multi",
        {
            "parent_commit": git("-C", str(args.parent), "rev-parse", "HEAD") if args.parent else None,
            "repeats": REPEATS,
            "rows": rows,
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
