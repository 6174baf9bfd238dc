"""Shared fixtures: the worked golden example, the oracle alignment check,
seeded random matrices and the per-function first-residues reference."""

from __future__ import annotations

from fractions import Fraction

import pytest

from dresidues import polys
from dresidues.polys import ONE, ZERO, Poly, X
from dresidues.ratfun import RatFun
from dresidues.residues import TRIVIAL_PAIR, ResiduePair
from dresidues.testkit import OrbitSpec, dres_by_definition, rational_roots

x = X


@pytest.fixture(scope="session")
def golden():
    """The running example: f = 1/(x^3 (x+2)^3 (x+3) (x^2+1) (x^2+4x+5)^2)
    together with every intermediate value displayed for it."""
    den = x**3 * (x + 2) ** 3 * (x + 3) * (x**2 + 1) * (x**2 + 4 * x + 5) ** 2
    f = RatFun(ONE, den)
    f1 = RatFun(
        Poly([5008, 9502, 9721, 9659, 4803, 787]) * Fraction(1, 18000),
        (x**2 + 1) * (x + 3) * (x**2 + 4 * x + 5) * (x + 2) * x,
    )
    f2 = RatFun(
        -Poly([1030, 4696, 3372, 787]) * Fraction(1, 18000),
        (x**2 + 4 * x + 5) * x * (x + 2),
    )
    f3 = RatFun(-Poly([-1, 7]) * Fraction(1, 300), (x + 2) * x)
    b0 = (x + 3) * (x**2 + 4 * x + 5)
    fbar1 = RatFun(Poly([1387, 273]) * Fraction(1, 20000), b0)
    return {
        "f": f,
        "layers": [f1, f2, f3],
        "b0": b0,
        "b1": x + 2,
        "b2": x**2 + 1,
        "b3": x,
        "a0": -Poly([-9293, 37742, 13391]) * Fraction(1, 1080000),
        "a1": Poly([Fraction(1, 250)]),
        "a2": Poly([-1, -7]) * Fraction(1, 8000),
        "a3": Poly([Fraction(313, 33750)]),
        "fbar1": fbar1,
        "B1": b0,
        "D1": Poly([Fraction(-1321, 80000), Fraction(33, 40000), Fraction(59, 16000)]),
    }


def assert_pairs_match_oracle(pairs: list[ResiduePair], spec: OrbitSpec) -> None:
    """Check symbolic residue pairs against the brute-force definition.

    Roots of each places polynomial must represent the oracle's orbits up to
    an integer shift, exactly once each, with matching values."""
    by_order: dict[int, list[tuple[Fraction, Fraction]]] = {}
    for rep, k, value in dres_by_definition(spec):
        by_order.setdefault(k, []).append((rep, value))
    assert set(by_order) <= set(range(1, len(pairs) + 1))
    for k, pair in enumerate(pairs, 1):
        expected = by_order.get(k, [])
        if pair.is_trivial:
            assert not expected, f"order {k}: oracle sees residues, output is trivial"
            continue
        roots = rational_roots(pair.places)
        assert len(roots) == pair.places.degree, "irrational root in a rational-pole instance"
        assert len(roots) == len(expected), f"order {k}: orbit count mismatch"
        for root in roots:
            hits = [(rep, val) for rep, val in expected if (root - rep).denominator == 1]
            assert len(hits) == 1, f"order {k}: root {root} matches {len(hits)} orbits"
            assert pair.values(root) == hits[0][1], f"order {k}: wrong residue at {root}"


def assert_multi_matches_oracle(places, value_rows, specs: list[OrbitSpec]) -> None:
    """The multi-function analogue: one shared places polynomial, one row of
    value polynomials per input."""
    if places == ONE:
        for spec in specs:
            assert dres_by_definition(spec) == []
        for row in value_rows:
            assert all(d.is_zero for d in row)
        return
    roots = rational_roots(places)
    assert len(roots) == places.degree
    covered = set()
    for spec, row in zip(specs, value_rows):
        for rep, k, value in dres_by_definition(spec):
            hits = [root for root in roots if (root - rep).denominator == 1]
            assert len(hits) == 1, f"orbit of {rep} not uniquely represented"
            assert row[k - 1](hits[0]) == value
            covered.add(hits[0])
        # All claimed residues must be real: evaluate every root.
        for k, d in enumerate(row, 1):
            oracle = {
                rep: value for rep, kk, value in dres_by_definition(spec) if kk == k
            }
            for root in roots:
                hits = [rep for rep in oracle if (root - rep).denominator == 1]
                want = oracle[hits[0]] if hits else Fraction(0)
                assert d(root) == want
    assert covered == set(roots), "places has a root representing no residue orbit"


def random_matrices(rng, count, rational):
    """Seeded matrices with zero rows, duplicate rows and rank deficiency,
    shared by the nullspace and integer-kernel differential tests."""
    out = [([], n) for n in range(4)]
    for _ in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 7)

        def entry():
            num = rng.randint(-9, 9)
            return Fraction(num, rng.randint(1, 5)) if rational else num

        rank = rng.randint(0, min(m, n))
        base = [[entry() for _ in range(n)] for _ in range(rank)]
        rows = []
        for _ in range(m):
            kind = rng.random()
            if kind < 0.15 or not base:
                rows.append([0] * n)
            elif kind < 0.3:
                rows.append(list(rng.choice(base)))
            else:
                coef = [rng.randint(-3, 3) for _ in base]
                rows.append([sum(c * r[j] for c, r in zip(coef, base)) for j in range(n)])
        rng.shuffle(rows)
        out.append((rows, n))
    return out


def ref_first_residues(f):
    """One Trager inverse modulo f's own denominator; a test-only reference."""
    if f.is_zero:
        return TRIVIAL_PAIR
    b = f.den
    return ResiduePair(b, (f.num * polys.inverse_mod(b.derivative(), b)) % b)


def ref_first_residues_multi(fs):
    """One Trager inverse per function, then one Chinese-remainder lift per
    function onto the lcm of the denominators; a test-only reference shared
    by the residue and relation-lattice differential tests."""
    pairs = [ref_first_residues(f) for f in fs]
    big = polys.lcm_all(pair.places for pair in pairs)
    ps = []
    for pair in pairs:
        if pair.is_trivial:
            ps.append(ZERO)
            continue
        cof = big.exact_div(pair.places)
        if cof == ONE:
            ps.append(pair.values)
            continue
        lift = polys.inverse_mod(cof, pair.places)
        ps.append((pair.values * lift) % pair.places * cof)
    return big, ps
