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

Per side and corpus each `benchfile.pair_loop` round is a fresh interpreter
(`benchfile.run`) that builds the families with the side's own code, times
passes of `discrete_residues_multi` over them and keeps the best
(`benchfile.best`: up to 5 passes, stopping once a second is spent) and the
sha256 of every (places, values).  A row has each side's q1/median/q3 of
that best time over 5 alternated rounds, its runs and sha256 and, with a
parent, the change's wins and `same_output`.

Run from a checkout, optionally with a checkout of the parent commit:

    python3 benchmarks/multi_residues.py OUT_NAME [PARENT_DIR]

The rows are merged into OUT_NAME at the checkout root under the key
"pair loop" by `benchfile.record`.
"""

from __future__ import annotations

import argparse
import importlib
import random
from fractions import Fraction

from benchfile import best, digest, table
import workloads
from dresidues.polys import Poly, X
from dresidues.ratfun import RatFun
from dresidues.residues import discrete_residues_multi

SEEDS = (1, 5)
CORPORA = [f"vspace seed {seed}" for seed in SEEDS] + ["disjoint", "mixed"]


def vspace(seed: int) -> list[list[RatFun]]:
    names = ("cli", "galois", "polys", "ratfun", "summability", "testkit")
    lib = argparse.Namespace(**{m: importlib.import_module(f"dresidues.{m}") for m in names})
    # A vspace item runs lib.summability.vspace on its family, so with this
    # stand-in its run() returns the family.
    lib.summability = argparse.Namespace(vspace=lambda fs: fs)
    items = workloads.WORKLOADS["vspace-relations"](lib, random.Random(seed))
    return [item.run() for item in items if item.label.startswith("vspace")]


def base(rng: random.Random, orbit: int) -> Poly:
    """A linear or irreducible quadratic p, on a Z-orbit of its own per orbit number."""
    return X - Fraction(1, orbit + 7) if rng.random() < 0.5 else X**2 + X * Fraction(1, orbit + 3) + (orbit + 2)


def coef(rng: random.Random, p: Poly) -> Poly:
    """A nonzero c with deg c < deg p."""
    return Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(p.degree - 1)] + [rng.randint(1, 4)])


def term(rng: random.Random, p: Poly) -> RatFun:
    """c/p(x+s)^k with s <= 3 and k <= 3."""
    num = coef(rng, p)
    return RatFun(num, p.shift(rng.randint(0, 3)) ** rng.randint(1, 3))


def disjoint() -> list[list[RatFun]]:
    rng, orbit, families = random.Random(0), 0, []
    for i in range(30):
        fs = []
        for _ in range(4 + i % 5):
            orbit += 1
            p = base(rng, orbit)
            fs.append(term(rng, p) + term(rng, p))
        families.append(fs)
    return families


def mixed() -> list[list[RatFun]]:
    """Each shared orbit holds one pole p(x+s)^k per family."""
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


def corpus_pass(corpus: str) -> tuple[dict[str, float], str]:
    """Run in a child: the best time of one pass over the corpus's families, and the outputs' sha256."""
    families = vspace(int(corpus.split()[-1])) if corpus.startswith("vspace") else {"disjoint": disjoint, "mixed": mixed}[corpus]()
    seconds, outs = best(lambda: [discrete_residues_multi(fs) for fs in families])
    return {"best_s": seconds}, digest(repr([(md.places, md.values) for md in outs]))


if __name__ == "__main__":
    table(__doc__, lambda: [({"corpus": c}, ["multi_residues", "corpus_pass", c]) for c in CORPORA])
