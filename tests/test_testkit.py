import random
from fractions import Fraction

import pytest

from dresidues.errors import DomainError
from dresidues.polys import ONE, Poly, X
from dresidues.ratfun import RatFun
from conftest import orbit_spec, random_dispersion_zero, random_summable, rational_roots

from dresidues.testkit import (
    OrbitSpec,
    build_from_spec,
    dres_by_definition,
    parse_spec_text,
    random_orbit_spec,
)

x = X


class TestBuildFromSpec:
    def test_single_pole(self):
        assert build_from_spec(orbit_spec([(0, 1, 1)])) == RatFun(ONE, x)

    def test_telescoping_pair(self):
        f = build_from_spec(orbit_spec([(0, 1, 1), (-1, 1, -1)]))
        assert f == RatFun(ONE, x * (x + 1))

    def test_double_pole(self):
        assert build_from_spec(orbit_spec([(0, 2, 1)])) == RatFun(ONE, x**2)

    def test_validation(self):
        with pytest.raises(DomainError):
            orbit_spec([(0, 1, 0)])
        with pytest.raises(DomainError):
            orbit_spec([(0, 0, 1)])
        with pytest.raises(DomainError):
            orbit_spec([(0, 1, 1), (0, 1, 2)])


class TestDresByDefinition:
    def test_telescoping_cancels(self):
        assert dres_by_definition(orbit_spec([(0, 1, 1), (-1, 1, -1)])) == []

    def test_same_orbit_sums(self):
        got = dres_by_definition(orbit_spec([(0, 1, 1), (5, 1, 2)]))
        assert got == [(Fraction(0), 1, Fraction(3))]

    def test_distinct_orbits_stay_separate(self):
        got = dres_by_definition(orbit_spec([(Fraction(1, 2), 1, 1), (0, 1, 1)]))
        assert got == [(Fraction(0), 1, Fraction(1)), (Fraction(1, 2), 1, Fraction(1))]

    def test_orders_tracked_separately(self):
        got = dres_by_definition(orbit_spec([(0, 1, 1), (3, 2, 5)]))
        assert got == [(Fraction(0), 1, Fraction(1)), (Fraction(0), 2, Fraction(5))]


class TestSpecFiles:
    def test_parse(self):
        spec = parse_spec_text("-3 1 1/1080\n\n# comment\n-2 1 1/250\n0 1 313/33750\n")
        assert len(spec.terms) == 3
        assert dres_by_definition(spec) == [(Fraction(-3), 1, Fraction(71, 5000))]

    def test_parse_errors(self):
        with pytest.raises(DomainError):
            parse_spec_text("1 2\n")
        with pytest.raises(DomainError):
            parse_spec_text("a 1 1\n")
        # an exponent literal would build 10^999999999 before any check
        for text in ("0 1 1e999999999\n", "1E3 1 1\n"):
            with pytest.raises(DomainError, match="line 1:"):
                parse_spec_text(text)
        assert parse_spec_text("0.5 1 -1.25\n").terms == ((Fraction(1, 2), 1, Fraction(-5, 4)),)


class TestRationalRoots:
    def test_mixed(self):
        p = (x - 2) * (x + Fraction(1, 2)) * (x**2 + 1)
        assert rational_roots(p) == [Fraction(-1, 2), Fraction(2)]

    def test_random_constructed(self):
        rng = random.Random(229)
        for _ in range(20):
            roots = set()
            while len(roots) < rng.randint(1, 4):
                roots.add(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            p = ONE
            for r in roots:
                p = p * Poly([-r, 1])
            assert set(rational_roots(p)) == roots


    def test_zero_root_and_large_leading_coefficient(self):
        p = x * (12 * x - 5) * (35 * x + 18) * (x**2 - 2)
        assert rational_roots(p) == [Fraction(-18, 35), Fraction(0), Fraction(5, 12)]
        assert rational_roots(Poly([7])) == []
        assert rational_roots(Poly([-3, 9])) == [Fraction(1, 3)]

class TestGenerators:
    def test_orbit_spec_shape(self):
        rng = random.Random(233)
        for _ in range(20):
            spec = random_orbit_spec(rng)
            assert isinstance(spec, OrbitSpec)
            fracs = {
                (a - a.numerator // a.denominator) for a, _, _ in spec.terms
            }
            assert len(fracs) <= 6
            assert all(1 <= k <= 4 for _, k, _ in spec.terms)

    def test_summable_is_summable_shaped(self):
        from dresidues.summability import is_summable

        rng = random.Random(239)
        for _ in range(5):
            f = random_summable(rng)
            assert not f.is_zero
            assert is_summable(f)[0]

    def test_dispersion_zero_shape(self):
        from dresidues.polys import is_squarefree
        from dresidues.shiftset import dispersion

        rng = random.Random(241)
        for _ in range(10):
            f = random_dispersion_zero(rng)
            assert not f.is_zero
            assert is_squarefree(f.den)
            assert f.den.is_constant or dispersion(f.den) == 0
