import random
from fractions import Fraction

import pytest

from conftest import ref_parfrac

from dresidues import polys
from dresidues.errors import DomainError
from dresidues.polys import ONE, ZERO, Poly, X
from dresidues.ratfun import RF_ZERO, RatFun, parfrac
from dresidues.residues import discrete_residues
from dresidues.testkit import build_from_spec, random_orbit_spec, random_poly

x = X


class TestNormalize:
    def test_reduces_and_makes_monic(self):
        assert RatFun(Poly([2, 2]), Poly([0, 2, 2])) == RatFun(ONE, x)

    def test_zero_numerator(self):
        f = RatFun(ZERO, x**3)
        assert f.num == ZERO and f.den == ONE

    def test_constant_denominator(self):
        f = RatFun(x, Poly([3]))
        assert f.num == x * Fraction(1, 3) and f.den == ONE

    def test_zero_denominator_rejected(self):
        with pytest.raises(DomainError):
            RatFun(ONE, ZERO)

    def test_idempotent(self):
        f = RatFun(Poly([2, 2]), Poly([0, 2, 2]))
        assert RatFun(f.num, f.den) == f

    def test_invariants_random(self):
        from dresidues.polys import gcd

        rng = random.Random(19)
        for _ in range(40):
            num = random_poly(rng, rng.randint(0, 5))
            den = random_poly(rng, rng.randint(0, 5))
            if den.is_zero:
                continue
            f = RatFun(num, den)
            assert f.den.is_monic
            if not f.is_zero:
                assert gcd(f.num, f.den) == ONE


class TestCanonicalFormConstantParts:
    # A constant numerator or denominator skips the gcd; the form must not change.
    def test_constant_over_non_monic(self):
        f = RatFun(Poly([3]), 2 * x + 4)
        assert f.num == Poly([Fraction(3, 2)]) and f.den == x + 2

    def test_polynomial_over_constant(self):
        f = RatFun(4 * x**2 - 2, Poly([Fraction(2, 3)]))
        assert f.num == 6 * x**2 - 3 and f.den == ONE

    def test_negative_constants(self):
        f = RatFun(Poly([-5]), Poly([-10]))
        assert f.num == Poly([Fraction(1, 2)]) and f.den == ONE
        g = RatFun(Poly([-1]), -x**2 + 1)
        assert g.num == ONE and g.den == x**2 - 1

    def test_zero_over_constant_and_polynomial(self):
        for den in (Poly([-7]), 3 * x + 1):
            f = RatFun(ZERO, den)
            assert f.num == ZERO and f.den == ONE

    def test_matches_normalised_quotient(self):
        rng = random.Random(47)
        for _ in range(40):
            c = Poly([Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))])
            p = random_poly(rng, rng.randint(1, 5))
            if p.is_zero:
                continue
            for f, num, den in ((RatFun(c, p), c * (1 / p.lc), p.monic()), (RatFun(p, c), p * (1 / c.lc), ONE)):
                assert f.num == num and f.den == den


class TestProperPart:
    def test_splits_polynomial(self):
        f = RatFun(x**2 + 1, x)  # x + 1/x
        p, fp = f.proper_part()
        assert p == x and fp == RatFun(ONE, x)

    def test_proper_input_untouched(self):
        f = RatFun(ONE, x)
        assert f.proper_part() == (ZERO, f)

    def test_cubic_over_square(self):
        p, fp = RatFun(x**3 + 1, x**2).proper_part()
        assert p == x and fp == RatFun(ONE, x**2)

    def test_keeps_denominator(self):
        f = RatFun(x**3 + x + 3, x * (x + 1))
        _, fp = f.proper_part()
        assert fp.den == f.den


    def test_matches_gcd_normalised(self):
        # proper_part skips the gcd; the gcd-normalised remainder is the reference.
        fs = _arithmetic_inputs() + [RatFun(x**5 - 3, 2 * x**2 + x), RatFun(x**4, (x + 1) ** 3)]
        for f in fs:
            q, fp = f.proper_part()
            assert q == f.num // f.den
            assert fp == RatFun(f.num % f.den, f.den) and fp.is_proper


class TestDelta:
    def test_telescoper(self):
        assert RatFun(Poly([-1]), x).delta() == RatFun(ONE, x * (x + 1))

    def test_kernel_is_constants(self):
        assert RatFun(Poly([7])).delta().is_zero

    def test_polynomial(self):
        assert RatFun(x**2).delta() == RatFun(2 * x + 1)

    def test_delta_images_are_summable(self, subtests=None):
        rng = random.Random(71)
        for _ in range(15):
            g = build_from_spec(random_orbit_spec(rng, max_orbits=3, max_order=3))
            if g.is_zero:
                continue
            pairs = discrete_residues(g.delta())
            assert all(p.places == ONE for p in pairs)


class TestParfrac:
    def test_two_linear_parts(self):
        assert parfrac(RatFun(ONE, x * (x + 1)), [x, x + 1]) == [ONE, Poly([-1])]

    def test_golden_four_parts(self, golden):
        f1 = golden["layers"][0]
        parts = [golden["b0"], golden["b1"], golden["b2"], golden["b3"]]
        nums = parfrac(f1, parts)
        assert nums == [golden["a0"], golden["a1"], golden["a2"], golden["a3"]]

    def test_single_part_identity(self):
        f = RatFun(Poly([3, 1]), x * (x + 2))
        assert parfrac(f, [f.den]) == [f.num]

    def test_unit_part_gets_zero(self):
        f = RatFun(ONE, x * (x + 1))
        assert parfrac(f, [ONE, x, x + 1]) == [ZERO, ONE, Poly([-1])]

    def test_resummation_random(self):
        rng = random.Random(29)
        for _ in range(25):
            factors = []
            prod = ONE
            for r in rng.sample(range(-9, 10), rng.randint(2, 4)):
                factors.append(Poly([-r, 1]))
                prod = prod * factors[-1]
            num = random_poly(rng, rng.randint(0, prod.degree - 1))
            if num.is_zero:
                continue
            f = RatFun(num, prod)
            if f.den != prod:  # accidental cancellation
                continue
            nums = parfrac(f, factors)
            acc = RF_ZERO
            for a, b in zip(nums, factors):
                assert a.is_zero or a.degree < b.degree
                acc = acc + RatFun(a, b)
            assert acc == f

    def test_one_inverse_per_call(self, monkeypatch, golden):
        calls = []
        original = polys.inverse_mod

        def counted(a, m):
            calls.append(m)
            return original(a, m)

        def forbidden(p):
            raise AssertionError("parfrac must not test squarefreeness separately")

        monkeypatch.setattr(polys, "inverse_mod", counted)
        monkeypatch.setattr(polys, "is_squarefree", forbidden)
        f1 = golden["layers"][0]
        parfrac(f1, [golden["b0"], golden["b1"], golden["b2"], golden["b3"]])
        assert calls == [f1.den]

    def test_matches_per_part_inverse_reference(self):
        rng = random.Random(808)
        cases = [(RF_ZERO, []), (RF_ZERO, [ONE]), (RF_ZERO, [ONE, ONE, ONE])]
        while len(cases) < 60:
            parts = []
            for _ in range(rng.randint(1, 5)):
                deg = rng.choice((0, 1, 1, 2, 3))
                coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg)]
                parts.append(Poly(coeffs + [1]))
            den = ONE
            for b in parts:
                den = den * b
            if not polys.is_squarefree(den):
                continue
            if den.is_constant:
                cases.append((RF_ZERO, parts))
                continue
            num = random_poly(rng, rng.randint(0, den.degree - 1)) * Fraction(1, rng.randint(1, 5))
            f = RatFun(num, den)
            if f.den == den:  # no accidental cancellation
                cases.append((f, parts))
        for f, parts in cases:
            assert parfrac(f, parts) == ref_parfrac(f, parts)

    def test_rejections_match_reference(self):
        bad = [
            (RatFun(x**2, x), [x]),
            (RatFun(ONE, x**2), [x, x]),
            (RatFun(ONE, x**2), [2 * x, x * Fraction(1, 2)]),
            (RatFun(ONE, x * (x + 1)), [x, x + 2]),
            (RatFun(ONE, x * (x + 1)), [2 * x, (x + 1) * Fraction(1, 2)]),
            (RatFun(ONE, x * (x + 1)), [ZERO, x]),
        ]
        for f, parts in bad:
            with pytest.raises(DomainError) as got:
                parfrac(f, parts)
            with pytest.raises(DomainError) as ref:
                ref_parfrac(f, parts)
            assert str(got.value) == str(ref.value)

    def test_rejects_non_coprime(self):
        with pytest.raises(DomainError):
            parfrac(RatFun(ONE, x * (x + 1)), [x * (x + 1), x + 1])

    def test_rejects_wrong_product(self):
        with pytest.raises(DomainError):
            parfrac(RatFun(ONE, x * (x + 1)), [x, x + 2])

    def test_rejects_non_squarefree(self):
        with pytest.raises(DomainError):
            parfrac(RatFun(ONE, x**2), [x, x])


def _arithmetic_inputs():
    """Seeded rational functions: zero, polynomials, negative and non-monic
    constant numerators, and random quotients."""
    rng = random.Random(20261018)
    fs = [
        RatFun(Poly([-3]), x**2 + 1),
        RatFun(Poly([Fraction(2, 3)]), 2 * x**2 - 1),
        RatFun(Poly([-5])),
        RatFun(x - 2),
        RF_ZERO,
    ]
    for _ in range(12):
        fs.append(RatFun(random_poly(rng, rng.randint(0, 3)), random_poly(rng, rng.randint(0, 3))))
    return fs


class TestArithmetic:
    def test_field_ops(self):
        f = RatFun(ONE, x)
        g = RatFun(ONE, x + 1)
        assert f + g == RatFun(2 * x + 1, x * (x + 1))
        assert f - f == RF_ZERO
        assert f * g == RatFun(ONE, x * (x + 1))
        assert (f / g) == RatFun(x + 1, x)
        assert f**-2 == RatFun(x**2)

    def test_power_matches_repeated_product(self):
        for f in _arithmetic_inputs():
            assert f**0 == 1
            for n in range(-5, 10):
                if n < 0 and f.is_zero:
                    with pytest.raises(DomainError):
                        f**n
                    continue
                base = f if n >= 0 else RatFun(ONE) / f
                expected = RatFun(ONE)
                for _ in range(abs(n)):
                    expected = expected * base
                got = f**n
                assert got == expected
                assert got == RatFun(got.num, got.den)  # canonical without a gcd

    def test_add_matches_cross_multiplied_sum(self):
        fs = _arithmetic_inputs()
        for f in fs:
            for g in fs:
                got = f + g
                assert got == RatFun(f.num * g.den + g.num * f.den, f.den * g.den)
                assert got == RatFun(got.num, got.den)

    def test_add_zero_returns_other_operand_without_gcd(self, monkeypatch):
        def forbidden(a, b):
            raise AssertionError("adding zero must not take a gcd")

        fs = _arithmetic_inputs() + [RatFun(x + 1, x**2 + 1)]
        monkeypatch.setattr(polys, "gcd", forbidden)
        for f in fs:
            for zero in (RF_ZERO, ZERO, 0, Fraction(0)):
                assert (f + zero).num == f.num and (f + zero).den == f.den
                assert (zero + f).num == f.num and (zero + f).den == f.den
                if not f.is_zero:
                    assert f + zero is f and zero + f is f
                    assert f - zero is f
            for other in (x + 1, Poly([Fraction(-2, 3)]), 5, Fraction(1, 2)):
                assert RF_ZERO + other == RatFun(other) == other + RF_ZERO

    def test_negation_and_shift_match_normalised(self):
        # Both skip the gcd; the gcd-normalised quotient is the reference.
        for f in _arithmetic_inputs():
            assert -f == RatFun(-f.num, f.den)
            for c in (1, -3, Fraction(1, 2), Fraction(-7, 3)):
                assert f.shift(c) == RatFun(f.num.shift(c), f.den.shift(c))

    def test_sigma_is_automorphism(self):
        rng = random.Random(41)
        for _ in range(10):
            num = random_poly(rng, rng.randint(0, 3))
            den = random_poly(rng, rng.randint(1, 3))
            if den.is_zero or num.is_zero:
                continue
            f = RatFun(num, den)
            g = RatFun(den, num)
            assert (f * g).sigma() == f.sigma() * g.sigma()
            assert f.sigma(2).sigma(-2) == f

    def test_derivative_quotient_rule(self):
        f = RatFun(ONE, x)
        assert f.derivative() == RatFun(Poly([-1]), x**2)
