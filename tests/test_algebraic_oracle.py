"""Residues at algebraic (irrational) poles against the definition, evaluated exactly by sympy.

Each f comes from seeded pole data on Z-orbits of irreducible quadratics (`conftest.algebraic_instance`),
so the order-k residue of every orbit is known as the sum of its order-k coefficients.  The roots of
`places` are checked to be the expected representatives, and `values` there to be those sums, by exact
evaluation in Q(sqrt(disc)); no partial fraction decomposition is computed."""

import random
from fractions import Fraction

import pytest

from conftest import algebraic_instance, algebraic_sums, algebraic_term
from dresidues.residues import discrete_residues, discrete_residues_coordinated
from dresidues.summability import is_summable

sympy = pytest.importorskip("sympy")

SEEDS = range(60)


def _at(poly, point):
    """poly at a sympy point, exactly, as a canonical a + b*sqrt(disc)."""
    return sympy.expand(sum(sympy.Rational(c) * point**i for i, c in enumerate(poly.coeffs)))


def _roots(p, q, shift):
    """beta + shift and its conjugate, for beta = (-p + sqrt(p^2 - 4q))/2, with beta and conj(beta)."""
    root = sympy.sqrt(p * p - 4 * q)
    return [((-p + sign * root) / 2 + shift, (-p + sign * root) / 2) for sign in (1, -1)]


def _check(pair, orbits, k, leftmost):
    """pair is the order-k residue pair of f: places has one root per conjugate orbit whose order-k sum
    is nonzero, at leftmost(orbit), and values there is that sum."""
    live = [(o, s) for o in orbits for kk, s in algebraic_sums(o).items() if kk == k and any(s)]
    assert pair.places.degree == 2 * len(live), (k, live)
    for orbit, (u, v) in live:
        for rho, beta in _roots(orbit[0], orbit[1], leftmost(orbit, k)):
            assert _at(pair.places, rho) == 0, (k, orbit)
            want = sympy.Rational(u) + sympy.Rational(v) * beta
            assert sympy.expand(_at(pair.values, rho) - want) == 0, (k, orbit)


@pytest.fixture(scope="module")
def instances():
    """(seed, f, orbits); every fourth instance has every orbit sum 0, so f is summable."""
    return [(seed, *algebraic_instance(random.Random(seed), zero_sums=seed % 4 == 3)) for seed in SEEDS]


def test_instances_cover_the_cases(instances):
    sums = [[any(s) for o in orbits for s in algebraic_sums(o).values()] for _, _, orbits in instances]
    assert any(all(row) for row in sums) and any(not any(row) for row in sums)
    assert any(any(row) and not all(row) for row in sums)
    assert {k for _, _, orbits in instances for o in orbits for _, k, _ in o[2]} == {1, 2, 3}
    assert {len(orbits) for _, _, orbits in instances} == {2, 3}
    assert any(o[0] ** 2 - 4 * o[1] > 0 for _, _, orbits in instances for o in orbits)
    # some order-k sum is nonzero at an orbit whose leftmost pole has no order-k term
    assert any(
        any(s) and min(t[0] for t in o[2]) < min(t[0] for t in o[2] if t[1] == k)
        for _, _, orbits in instances
        for o in orbits
        for k, s in algebraic_sums(o).items()
    )


def test_coordinated_matches_definition(instances):
    """Every order is read at the orbit's leftmost pole, over all orders."""
    for seed, f, orbits in instances:
        pairs = discrete_residues_coordinated(f)
        top = max(k for o in orbits for _, k, _ in o[2])
        assert len(pairs) == top, seed
        for k, pair in enumerate(pairs, 1):
            _check(pair, orbits, k, lambda orbit, _k: min(s for s, _, _ in orbit[2]))


def test_per_order_matches_definition(instances):
    """Each order is read at the orbit's leftmost pole with a nonzero order-k coefficient."""
    for seed, f, orbits in instances:
        for k, pair in enumerate(discrete_residues(f), 1):
            _check(pair, orbits, k, lambda orbit, k: min(s for s, kk, _ in orbit[2] if kk == k))


def test_summable_exactly_when_every_sum_vanishes(instances):
    for seed, f, orbits in instances:
        want = not any(any(s) for o in orbits for s in algebraic_sums(o).values())
        assert is_summable(f)[0] == want, seed


def test_term_matches_sympy():
    """`conftest.algebraic_term` is the conjugate pair of partial fractions it claims to be."""
    x = sympy.Symbol("x")
    for p, q, s, k, c in [(1, 1, 2, 3, (Fraction(1, 2), Fraction(3))), (0, -2, 0, 1, (Fraction(1), Fraction(1)))]:
        f = algebraic_term(p, q, s, k, c)
        want = sum((sympy.Rational(c[0]) + sympy.Rational(c[1]) * beta) / (x - rho) ** k for rho, beta in _roots(p, q, s))
        assert sympy.simplify(want - _at(f.num, x) / _at(f.den, x)) == 0
