"""The three seeded workloads: corpus generators, the timed public call of
each op, its canonical output, and the independent check of that output.

Corpora are stratified by the input property that sets an op's cost
(distinct poles, pole order, family size), cycling through a fixed list of
strata, so that every seed gives a corpus of about the same total work and
the seed only moves pole positions, shifts and coefficients.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import oracle


@dataclass(frozen=True)
class Item:
    """One op: `run` is the timed public call, `canon` turns its result into
    the canonical output string, `check` decides that string independently."""

    label: str
    run: Callable[[], Any]
    canon: Callable[[Any], str]
    check: Callable[[str], bool]


class ExitCodeError(RuntimeError):
    """The CLI returned a nonzero exit code."""


def _coeffs(p) -> list[str]:
    return [str(c) for c in p.coeffs]


def _fracs(strs) -> list[Fraction]:
    return [Fraction(s) for s in strs]


# -- dres-oracle ------------------------------------------------------------------

# Distinct poles per instance: the squarefree denominator degree, which sets
# the size of the shift resultant and hence most of an op's cost.  The
# denominator degree, which sets the size of the expression the CLI parses
# and of the Hermite reduction, is capped at two per distinct pole, so that
# the shift set stays the largest layer.
DRES_POLES = (4, 5, 6, 7, 8)
DRES_PER_STRATUM = 21
DRES_DEGREE_PER_POLE = 2


def dres_oracle(lib, rng: random.Random) -> list[Item]:
    """`dresidues dres --json <expr>` on criterion-2 instances, checked against
    residues computed from the pole data by definition."""
    items = []
    for i in range(len(DRES_POLES) * DRES_PER_STRATUM):
        want = DRES_POLES[i % len(DRES_POLES)]
        while True:
            spec = lib.testkit.random_orbit_spec(rng, max_orbits=6, max_order=4)
            orders: dict[Fraction, int] = {}
            for alpha, k, _ in spec.terms:
                orders[alpha] = max(k, orders.get(alpha, 0))
            if len(orders) == want and sum(orders.values()) <= DRES_DEGREE_PER_POLE * want:
                break
        expr = str(lib.testkit.build_from_spec(spec))
        items.append(
            Item(
                f"dres poles={want}",
                _cli_call(lib, ["dres", "--json", expr]),
                str,
                _dres_check(spec.terms),
            )
        )
    return items


def _cli_call(lib, argv: list[str]) -> Callable[[], str]:
    def run() -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(argv)
        if code != 0:
            raise ExitCodeError(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    return run


def _dres_check(terms) -> Callable[[str], bool]:
    return lambda text: oracle.dres_json_matches(json.loads(text), terms)


# -- deep-poles -------------------------------------------------------------------

# Pole orders of g per stratum, one per rational orbit; "q" marks an orbit
# at the roots of x^2 + a.  g has one pole per orbit, so f = Delta(g) has two.
DEEP_SHAPES = (
    (10,),
    (5, 3),
    (4, "q"),
    (5, 4),
    (6, 2),
    (6, "q"),
)
DEEP_PER_STRATUM = 18
NOT_SUMMABLE_EVERY = 4  # every 4th op gets a simple pole that blocks summability


def deep_poles(lib, rng: random.Random) -> list[Item]:
    """`is_summable(f, want_certificate=True)` on high-order delta images,
    some made non-summable; checked by Delta(g) = f or by construction."""
    RatFun, Poly = lib.ratfun.RatFun, lib.polys.Poly
    items = []
    for i in range(len(DEEP_SHAPES) * DEEP_PER_STRATUM):
        shape = DEEP_SHAPES[i % len(DEEP_SHAPES)]
        g = RatFun(Poly())
        keys = set()
        for order in shape:
            if order == "q":
                a, s, k = rng.choice((1, 2, 3, 5, 6, 7)), rng.randint(0, 3), 3
                den = Poly([s * s + a, 2 * s, 1]) ** k
                g = g + RatFun(Poly([_coef(rng), _coef(rng)]), den)
                continue
            while True:
                alpha = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4)))
                if oracle.orbit_key(alpha) not in keys:
                    keys.add(oracle.orbit_key(alpha))
                    break
            g = g + RatFun(Poly([_coef(rng)]), Poly([-alpha, 1]) ** order)
            g = g + RatFun(Poly([_coef(rng)]), Poly([-alpha, 1]) ** rng.randint(1, order))
        f = g.delta()
        summable = i % NOT_SUMMABLE_EVERY != NOT_SUMMABLE_EVERY - 1
        if not summable:
            beta = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
            f = f + RatFun(Poly([_coef(rng)]), Poly([-beta, 1]))
        items.append(
            Item(
                f"deep {'summable' if summable else 'blocked'} {shape}",
                _summable_call(lib, f),
                _summable_canon,
                _summable_check(summable, _fracs(_coeffs(f.num)), _fracs(_coeffs(f.den))),
            )
        )
    return items


def _coef(rng: random.Random) -> Fraction:
    c = Fraction(0)
    while c == 0:
        c = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
    return c


def _summable_call(lib, f) -> Callable[[], Any]:
    return lambda: lib.summability.is_summable(f, want_certificate=True)


def _summable_canon(result) -> str:
    ok, cert = result
    body = None if cert is None else {"num": _coeffs(cert.num), "den": _coeffs(cert.den)}
    return json.dumps({"summable": ok, "certificate": body})


def _summable_check(summable: bool, f_num, f_den) -> Callable[[str], bool]:
    def check(text: str) -> bool:
        out = json.loads(text)
        if out["summable"] != summable:
            return False
        if not summable:
            return out["certificate"] is None
        cert = out["certificate"]
        return oracle.is_difference(_fracs(cert["num"]), _fracs(cert["den"]), f_num, f_den)

    return check


# -- vspace-relations -------------------------------------------------------------

VSPACE_SIZES = (4, 5, 6, 7, 8)  # functions per family, cycled
VSPACE_FRACTIONS = (1, 2, 3)  # simple fractions per family, cycled
VSPACE_TAIL_BASES = (Fraction(0),)  # Z-orbits of the delta image added to each function
RELATION_SIZE = 3  # functions per relation tuple
# (orbit, shift) of the factors of r_1; orbit 2 is x^2 + a
RELATION_FIRST = ((0, 0), (2, 0))
# Each round is two vspace ops, then one relations op.  A relations op costs
# about two vspace ops, so with this mix the median op lies inside the range
# of vspace op times, not in the gap between the two kinds of op.
VR_ROUNDS = 35


def vspace_relations(lib, rng: random.Random) -> list[Item]:
    """`vspace` on criterion-5 families interleaved with
    `multiplicative_relations` on products of shifted factors."""
    items = []
    for i in range(2 * VR_ROUNDS):
        n, m = VSPACE_SIZES[i % len(VSPACE_SIZES)], VSPACE_FRACTIONS[i % len(VSPACE_FRACTIONS)]
        items.append(_vspace_item(lib, rng, n, m))
        if i % 2:
            items.append(_relations_item(lib, rng, RELATION_SIZE))
    return items


def _vspace_item(lib, rng: random.Random, n: int, m: int) -> Item:
    """n functions whose residues span a rank-r space: f_i = sum_j M_ij /
    (x - 1/(j+2)) over m simple fractions plus a delta image, with M = A B
    of rank r."""
    RatFun, Poly = lib.ratfun.RatFun, lib.polys.Poly
    r = rng.randint(1, min(n, m))
    a_mat = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
    a_mat += [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(n - r)]
    b_mat = [[Fraction(int(i == j)) for j in range(r)] + [Fraction(rng.randint(-3, 3)) for _ in range(m - r)] for i in range(r)]
    m_known = [[sum(a_mat[i][t] * b_mat[t][j] for t in range(r)) for j in range(m)] for i in range(n)]
    fs, specs = [], []
    for i in range(n):
        tail = lib.testkit.random_orbit_spec(
            rng, max_order=2, bases=list(VSPACE_TAIL_BASES), max_shift=1
        )
        f = lib.testkit.build_from_spec(tail).delta()
        terms = oracle.delta_terms(tail.terms)
        for j in range(m):
            alpha = Fraction(1, j + 2)
            f = f + RatFun(Poly([m_known[i][j]]), Poly([-alpha, 1]))
            terms.append((alpha, 1, m_known[i][j]))
        fs.append(f)
        specs.append(oracle.merge_terms(terms))
    return Item(
        f"vspace n={n} r={r}",
        lambda: lib.summability.vspace(fs),
        lambda basis: json.dumps([[str(c) for c in v] for v in basis]),
        _vspace_check(specs, n - r),
    )


def _vspace_check(specs, dim: int) -> Callable[[str], bool]:
    def check(text: str) -> bool:
        basis = [_fracs(v) for v in json.loads(text)]
        if len(basis) != dim or (basis and oracle.rank(basis) != dim):
            return False
        for v in basis:
            combo = [(alpha, k, vi * c) for vi, spec in zip(v, specs) for alpha, k, c in spec]
            if oracle.residues_by_definition(combo):
                return False
        return True

    return check


def _relations_item(lib, rng: random.Random, n: int) -> Item:
    """r_i = c_i * shifted monic factors from three Z-orbits (two linear, one
    x^2 + a), each to the power +-1.  Which factor sits at which shift is
    fixed, so every seed gives the same degrees; the seed moves the orbits,
    the signs of the exponents and the constants.  r_n is planted as
    sigma(r_1) / r_2, with its constant kept (a relation) or doubled (a
    candidate only)."""
    RatFun, Poly = lib.ratfun.RatFun, lib.polys.Poly
    keys, bases = set(), []
    while len(bases) < 2:
        a = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
        if oracle.orbit_key(a) not in keys:
            keys.add(oracle.orbit_key(a))
            bases.append(Poly([-a, 1]))
    bases.append(Poly([rng.choice((1, 2, 3, 5)), 0, 1]))

    def random_fun(orbit_shifts):
        const = Fraction(rng.choice((-1, 1))) * Fraction(2) ** rng.randint(-1, 1) * Fraction(3) ** rng.randint(-1, 1)
        return const, [(o, sh, rng.choice((-1, 1))) for o, sh in orbit_shifts]

    data = [random_fun(RELATION_FIRST)]
    data += [random_fun(((0, i % 2), (1, (i + 1) % 2))) for i in range(2, n)]
    (c1, f1), (c2, f2) = data[0], data[1]
    data.append((c1 / c2 * rng.choice((1, 2)), [(o, sh + 1, e) for o, sh, e in f1] + [(o, sh, -e) for o, sh, e in f2]))
    rs, orbit_exps, consts = [], [], []
    for const, factors in data:
        r = RatFun(Poly([const]))
        exps = [0, 0, 0]
        for o, sh, e in factors:
            r = r * RatFun(bases[o].shift(sh)) ** e
            exps[o] += e
        rs.append(r)
        orbit_exps.append(exps)
        consts.append(const)
    return Item(
        f"relations n={n}",
        lambda: lib.galois.multiplicative_relations(rs),
        _relations_canon,
        _relations_check(orbit_exps, consts),
    )


def _relations_canon(rel) -> str:
    return json.dumps(
        {"candidate_basis": rel.candidate_basis, "gammas": [str(g) for g in rel.gammas], "basis": rel.basis}
    )


def _relations_check(orbit_exps, consts) -> Callable[[str], bool]:
    return lambda text: json.loads(text)["basis"] == oracle.relation_lattice(orbit_exps, consts)


WORKLOADS: dict[str, Callable[[Any, random.Random], list[Item]]] = {
    "dres-oracle": dres_oracle,
    "deep-poles": deep_poles,
    "vspace-relations": vspace_relations,
}
