"""Seeded invariance properties: residues commute with x -> x + c, and relation lattices with
permuting the inputs."""

import random
from fractions import Fraction

from conftest import algebraic_instance
from dresidues.galois import hermite_normal_form, multiplicative_relations
from dresidues.polys import Poly
from dresidues.ratfun import RatFun
from dresidues.residues import discrete_residues, discrete_residues_coordinated
from dresidues.testkit import build_from_spec, random_orbit_spec


def _shift_inputs():
    """Rational-pole inputs from testkit specs and algebraic-pole inputs on quadratic orbits."""
    rng = random.Random(20261021)
    rational = [build_from_spec(random_orbit_spec(rng, max_orbits=4, max_order=3)) for _ in range(20)]
    algebraic = [algebraic_instance(rng)[0] for _ in range(12)]
    return [f for f in rational + algebraic if not f.is_zero]


def test_residues_commute_with_shifts():
    """The residue pairs of f(x + c) are the pairs of f with both polynomials shifted by c, for integer
    and non-integer rational c, in both the coordinated and the per-order read-out."""
    rng = random.Random(3)
    for f in _shift_inputs():
        for c in (rng.choice([-7, -3, 1, 2, 5]), Fraction(rng.choice([-5, 1, 7]), rng.choice([2, 3, 4]))):
            g = f.shift(c)
            for read in (discrete_residues_coordinated, discrete_residues):
                want = [(p.places.shift(c), p.values.shift(c)) for p in read(f)]
                assert [(p.places, p.values) for p in read(g)] == want, (f, c, read.__name__)


def _relation_inputs(rng: random.Random) -> list[RatFun]:
    """3-5 functions c * prod base(x + s)^(+-1) over two linear orbits and x^2 + a, one of them planted
    as sigma(r_1) / r_2 times a constant, so that every lattice is nontrivial."""
    bases = [Poly([rng.randint(-3, 3), 1]), Poly([Fraction(rng.choice([1, -1]), 2) + rng.randint(-2, 2), 1])]
    bases.append(Poly([rng.choice([1, 2, 3]), 0, 1]))
    rs = []
    for _ in range(rng.randint(2, 4)):
        r = RatFun(Poly([Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2]))]))
        for base in rng.sample(bases, rng.randint(1, 3)):
            r = r * RatFun(base.shift(rng.randint(0, 2))) ** rng.choice([-1, 1])
        rs.append(r)
    rs.append(rs[0].shift(1) / rs[1] * rng.choice([1, 2, -1]))
    return rs


def _in_original_columns(rows: list[list[int]], perm: list[int]) -> list[list[int]]:
    """Rows over the permuted inputs (column i is input perm[i]) as rows over the original order."""
    out = []
    for row in rows:
        back = [0] * len(row)
        for i, e in enumerate(row):
            back[perm[i]] = e
        out.append(back)
    return out


def test_relations_commute_with_permutations():
    """multiplicative_relations on permuted inputs gives the same candidate and relation lattices with
    the columns permuted: equal Hermite normal forms once the columns are put back."""
    rng = random.Random(11)
    seen_relation = False
    for _ in range(12):
        rs = _relation_inputs(rng)
        perm = rng.sample(range(len(rs)), len(rs))
        rel = multiplicative_relations(rs)
        got = multiplicative_relations([rs[i] for i in perm])
        for mine, theirs in ((rel.candidate_basis, got.candidate_basis), (rel.basis, got.basis)):
            assert hermite_normal_form(_in_original_columns(theirs, perm)) == hermite_normal_form(mine), (rs, perm)
        seen_relation |= bool(rel.basis)
    assert seen_relation
