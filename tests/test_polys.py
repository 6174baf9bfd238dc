import random
from fractions import Fraction

import pytest

from dresidues.errors import DomainError
from dresidues.polys import (
    ONE,
    ZERO,
    Poly,
    X,
    _int_resultant,
    _to_int_primitive,
    divisors_upto,
    ext_gcd,
    factor_int,
    gcd,
    integer_roots,
    interpolate,
    inverse_mod,
    is_squarefree,
    lcm,
    resultant,
    resultant_shift,
    resultant_shift_prs,
    squarefree_decomposition,
)
from dresidues.testkit import random_poly

x = X


def frac(a, b=1):
    return Fraction(a, b)


class TestDivrem:
    def test_exact_factor(self):
        assert (x**2 - 1).divrem(x - 1) == (x + 1, ZERO)

    def test_with_remainder(self):
        assert (x**3).divrem(x**2 + 1) == (x, -x)

    def test_low_degree(self):
        assert Poly([5]).divrem(x + 2) == (ZERO, Poly([5]))

    def test_zero_divisor(self):
        with pytest.raises(DomainError):
            x.divrem(ZERO)

    def test_reconstruction_random(self):
        rng = random.Random(101)
        for _ in range(50):
            a = random_poly(rng, rng.randint(0, 6))
            b = random_poly(rng, rng.randint(0, 4))
            q, r = a.divrem(b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree


class TestGcd:
    def test_simple(self):
        assert gcd(x**2 - 1, x**2 - 2 * x + 1) == x - 1

    def test_coprime(self):
        assert gcd(x, x + 1) == ONE

    def test_section9_shift_gcd(self):
        # gcd(b0(x-1), b) = x + 2 for the worked example's denominators
        b0 = (x + 3) * (x**2 + 4 * x + 5)
        b = (x**2 + 1) * (x + 3) * (x**2 + 4 * x + 5) * (x + 2) * x
        assert gcd(b0.shift(-1), b) == x + 2

    def test_gcd_with_zero(self):
        assert gcd(2 * x, ZERO) == x
        with pytest.raises(DomainError):
            gcd(ZERO, ZERO)

    def test_divides_both_random(self):
        rng = random.Random(7)
        for _ in range(40):
            common = random_poly(rng, rng.randint(0, 3))
            a = random_poly(rng, rng.randint(0, 4)) * common
            b = random_poly(rng, rng.randint(0, 4)) * common
            if a.is_zero and b.is_zero:
                continue
            g = gcd(a, b)
            assert g.is_monic
            if not a.is_zero:
                assert a % g == ZERO
            if not b.is_zero:
                assert b % g == ZERO
            if not (a.is_zero or b.is_zero):
                assert (g % common.monic()) == ZERO


class TestExtGcd:
    def test_coprime_linear(self):
        assert ext_gcd(x, x + 1) == (ONE, Poly([-1]), ONE)

    def test_equal_inputs(self):
        assert ext_gcd(x - 1, x - 1) == (x - 1, ZERO, ONE)

    def test_bezout_identity(self):
        a, b = 2 * x, x**2 + 1
        g, s, t = ext_gcd(a, b)
        assert g == ONE
        assert s * a + t * b == ONE

    def test_identity_and_degree_bound_random(self):
        rng = random.Random(13)
        for _ in range(40):
            a = random_poly(rng, rng.randint(0, 5))
            b = random_poly(rng, rng.randint(1, 5))
            g, s, t = ext_gcd(a, b)
            assert s * a + t * b == g
            assert g.is_monic
            if g != b.monic() and not s.is_zero:
                assert s.degree < b.degree - g.degree


    def test_zero_argument(self):
        assert ext_gcd(2 * x, ZERO) == (x, Poly([Fraction(1, 2)]), ZERO)
        assert ext_gcd(ZERO, 2 * x) == (x, ZERO, Poly([Fraction(1, 2)]))

    def test_inverse_mod_matches_cofactor(self):
        with pytest.raises(DomainError):
            inverse_mod(x**2 - 1, x - 1)
        rng = random.Random(17)
        for _ in range(30):
            a, m = random_poly(rng, rng.randint(0, 8)), random_poly(rng, rng.randint(1, 8))
            g, s, _ = ext_gcd(a % m, m)
            if g == ONE:
                inv = inverse_mod(a, m)
                assert inv == s % m
                assert (a * inv) % m == ONE

class TestShiftEvalDerivative:
    def test_shift_one(self):
        assert (x**2).shift(1) == x**2 + 2 * x + 1

    def test_shift_zero_identity(self):
        p = Poly([1, 2, 3])
        assert p.shift(0) == p

    def test_shift_roundtrip_random(self):
        rng = random.Random(3)
        for _ in range(30):
            p = random_poly(rng, rng.randint(0, 6))
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            assert p.shift(c).shift(-c) == p

    def test_shift_matches_horner_composition(self):
        # Reference: p(x + c) by a Horner scheme over Poly products.
        def compose(p: Poly, c: Fraction) -> Poly:
            acc = ZERO
            for coef in reversed(p.coeffs):
                acc = acc * Poly([c, 1]) + coef
            return acc

        rng = random.Random(37)
        for deg in range(9):
            for _ in range(4):
                lead = frac(rng.randint(1, 9), rng.randint(1, 5))
                p = Poly([frac(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(deg)] + [lead])
                c = frac(rng.randint(-9, 9), rng.randint(1, 7))
                assert p.shift(c) == compose(p, c)

    def test_shift_composes(self):
        rng = random.Random(41)
        for _ in range(30):
            p = random_poly(rng, rng.randint(0, 8))
            a = frac(rng.randint(-9, 9), rng.randint(1, 5))
            b = frac(rng.randint(-9, 9), rng.randint(1, 5))
            assert p.shift(a).shift(b) == p.shift(a + b)

    def test_derivative(self):
        assert (x**3).derivative() == 3 * x**2
        assert Poly([42]).derivative() == ZERO

    def test_eval_golden_value(self):
        d1 = Poly([frac(-1321, 80000), frac(33, 40000), frac(59, 16000)])
        assert d1(-3) == frac(71, 5000)


class TestSquarefree:
    def test_golden_decomposition(self):
        p = x**3 * (x + 2) ** 3 * (x + 3) * (x**2 + 1) * (x**2 + 4 * x + 5) ** 2
        d = squarefree_decomposition(p)
        assert {(q.coeffs, m) for q, m in d.factors} == {
            (((x + 3) * (x**2 + 1)).coeffs, 1),
            ((x**2 + 4 * x + 5).coeffs, 2),
            ((x * (x + 2)).coeffs, 3),
        }
        assert d.expand() == p

    def test_already_squarefree(self):
        b = x * (x + 1) * (x**2 + 3)
        d = squarefree_decomposition(b)
        assert d.factors == ((b.monic(), 1),)

    def test_double_root(self):
        assert squarefree_decomposition((x - 1) ** 2).factors == ((x - 1, 2),)

    def test_reexpansion_random(self):
        rng = random.Random(5)
        for _ in range(25):
            p = ONE * rng.randint(1, 5)
            for _ in range(rng.randint(1, 3)):
                p = p * random_poly(rng, rng.randint(1, 2), 4) ** rng.randint(1, 3)
            d = squarefree_decomposition(p)
            assert d.expand() == p
            for q, _ in d.factors:
                assert is_squarefree(q) and q.is_monic and not q.is_constant
            for i in range(len(d.factors)):
                for j in range(i + 1, len(d.factors)):
                    assert gcd(d.factors[i][0], d.factors[j][0]) == ONE


class TestResultantShift:
    def test_two_integer_roots(self):
        z = x
        assert resultant_shift(x * (x + 1)) == z**2 * (z**2 - 1)

    def test_double_root(self):
        assert resultant_shift(x**2) == x**4

    def test_imaginary_pair_no_integer_roots(self):
        r = resultant_shift(x**2 + 1)
        assert integer_roots(r) == {0}

    def test_r_at_zero_vanishes(self):
        rng = random.Random(11)
        for _ in range(10):
            b = random_poly(rng, rng.randint(2, 5))
            assert resultant_shift(b)(0) == 0

    def test_degree_precondition(self):
        with pytest.raises(DomainError):
            resultant_shift(x)

    def test_dual_backend_agreement(self):
        rng = random.Random(17)
        for _ in range(20):
            b = random_poly(rng, rng.randint(2, 6))
            assert resultant_shift(b) == resultant_shift_prs(b)

    def test_dual_backend_agreement_rational_coefficients(self):
        # Non-integer, non-primitive coefficients and a leading coefficient
        # that is negative (even degrees) or positive but not 1 (odd degrees)
        # exercise the scale and sign of the integer evaluation backend.
        rng = random.Random(43)
        for deg in range(2, 9):
            lead = frac(rng.randint(2, 9), rng.randint(2, 7)) * (-1 if deg % 2 == 0 else 1)
            cs = [frac(rng.randint(-20, 20), rng.randint(2, 9)) for _ in range(deg)] + [lead]
            b = Poly(cs) * frac(6, 35)
            assert resultant_shift(b) == resultant_shift_prs(b), f"backends disagree on {b}"


class TestResultantCores:
    def _euclid_resultant(self, a: Poly, b: Poly) -> Fraction:
        # Naive Fraction-arithmetic oracle used only to validate the fast cores.
        if a.is_zero or b.is_zero:
            return Fraction(0)
        acc = Fraction(1)
        if a.is_constant and b.is_constant:
            return acc
        if a.degree < b.degree:
            if a.degree * b.degree % 2:
                acc = -acc
            a, b = b, a
        while not b.is_constant:
            _, r = a.divrem(b)
            if r.is_zero:
                return Fraction(0)
            acc *= b.lc ** (a.degree - r.degree)
            if a.degree * b.degree % 2:
                acc = -acc
            a, b = b, r
        return acc * b.coeffs[0] ** a.degree

    def test_against_euclid_oracle(self):
        rng = random.Random(23)
        for _ in range(60):
            a = random_poly(rng, rng.randint(1, 5))
            b = random_poly(rng, rng.randint(1, 5))
            assert resultant(a, b) == self._euclid_resultant(a, b)

    def test_int_core_known_value(self):
        # Res(x^2 - 1, x - 2) = (2-1)(2+1) = 3
        assert _int_resultant([-1, 0, 1], [-2, 1]) == 3

    def test_root_product(self):
        a = (x - 1) * (x - 2) * (x + 3)
        b = (x - 5) * (x + 7)
        want = Fraction(1)
        for r in (1, 2, -3):
            want *= b(r)
        assert resultant(a, b) == want


class TestInterpolate:
    def test_recovers_polynomial(self):
        rng = random.Random(31)
        for _ in range(20):
            p = random_poly(rng, rng.randint(0, 6))
            pts = [(Fraction(i), p(i)) for i in range(p.degree + 1)]
            assert interpolate(pts) == p


class TestIntegerRoots:
    def test_examples(self):
        z = x
        assert integer_roots(z * (z - 1) * (z + 2)) == {0, 1, -2}
        assert integer_roots(z**2 + 1) == set()
        # T(z) = z - 1 arising from b = x(x+1)
        assert integer_roots(z - 1) == {1}

    def test_rational_coefficients(self):
        p = (x - 3) * (x + 5) * Fraction(1, 7) * (2 * x - 1)
        assert integer_roots(p) == {3, -5}

    def test_zero_poly_rejected(self):
        with pytest.raises(DomainError):
            integer_roots(ZERO)

    def test_random_constructed_roots(self):
        rng = random.Random(37)
        for _ in range(25):
            roots = set(rng.sample(range(-20, 21), rng.randint(1, 4)))
            p = ONE
            for r in roots:
                p = p * Poly([-r, 1])
            p = p * (x**2 + x + 1)  # irreducible cofactor
            assert integer_roots(p) == roots


class TestDivisorsUpto:
    def test_from_factorization(self):
        assert divisors_upto(factor_int(360), 20) == [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 18, 20]
        assert divisors_upto({2: 0, 7: 2}, 100) == [1, 7, 49]
        assert divisors_upto({}, 5) == [1]
        assert divisors_upto({3: 1}, 0) == []

    def test_matches_trial_division(self):
        for n in range(1, 200):
            for limit in (1, 7, n):
                assert divisors_upto(factor_int(n), limit) == [d for d in range(1, limit + 1) if n % d == 0]


class TestPrimitive:
    def test_primitive_int_form(self):
        assert _to_int_primitive(Poly([frac(1, 2), frac(1, 3)])) == [3, 2]
        assert _to_int_primitive(Poly([-2, -4])) == [1, 2]

    def test_lcm(self):
        assert lcm(x * (x + 1), (x + 1) * (x + 2)) == x * (x + 1) * (x + 2)
