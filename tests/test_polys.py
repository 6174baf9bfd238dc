import math
import random
from fractions import Fraction

import pytest
from conftest import RefPoly, resultant_shift_prs

from dresidues.errors import DomainError, FactorLimitError, InexactDivisionError
from dresidues.polys import (
    ONE,
    ZERO,
    Poly,
    X,
    _cauchy_bound,
    _subresultant,
    _to_int_primitive,
    divisors_upto,
    ext_gcd,
    factor_int,
    gcd,
    integer_roots,
    inverse_mod,
    is_squarefree,
    lcm,
    resultant,
    resultant_shift,
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
        # Constant operands, on one side or both, integer or not.
        for _ in range(30):
            c = random_poly(rng, 0) * frac(rng.randint(1, 9), rng.randint(1, 9))
            d = random_poly(rng, 0) * frac(rng.randint(1, 9), rng.randint(1, 9))
            b = random_poly(rng, rng.randint(1, 5)) * frac(6, 35)
            for u, v in ((c, b), (b, c), (c, d)):
                got = resultant(u, v)
                assert type(got) is Fraction and got == self._euclid_resultant(u, v), (u, v)

    def test_int_core_known_value(self):
        # Res(x^2 - 1, x - 2) = (2-1)(2+1) = 3
        assert _subresultant([-1, 0, 1], [-2, 1]) == 3

    def test_shared_loop_over_qz_matches_shift_backends(self):
        # The loop behind `resultant` runs unchanged on lists of Poly in z:
        # on the operands b(x), b(x+z) it is the shift resultant.
        rng = random.Random(59)
        for _ in range(30):
            deg = rng.randint(2, 6)
            cs = [frac(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg)]
            b = Poly(cs + [frac(rng.choice([-5, -2, 3, 4]), rng.randint(1, 6))]) * frac(6, 35)
            bc = b.coeffs
            shifted = [Poly([bc[k] * math.comb(k, i) for k in range(i, deg + 1)]) for i in range(deg + 1)]
            got = _subresultant([Poly([c]) for c in bc], shifted)
            assert got == resultant_shift_prs(b) == resultant_shift(b), f"loop disagrees on {b}"

    def test_loop_returns_in_the_inputs_ring(self):
        # Res(x^2 - 1, x + 1) = 0 and Res(2, x + 1) = 2, over Z and over Q[z].
        assert _subresultant([-1, 0, 1], [1, 1]) == 0
        assert _subresultant([2], [1, 1]) == 2
        zero = _subresultant([Poly([-1]), ZERO, ONE], [ONE, ONE])
        two = _subresultant([Poly([2])], [ONE, ONE])
        assert isinstance(zero, Poly) and zero == ZERO
        assert isinstance(two, Poly) and two == Poly([2])

    def test_root_product(self):
        a = (x - 1) * (x - 2) * (x + 3)
        b = (x - 5) * (x + 7)
        want = Fraction(1)
        for r in (1, 2, -3):
            want *= b(r)
        assert resultant(a, b) == want


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

    def test_large_trailing_coefficient_below_the_bound(self):
        # The trailing coefficient 6 * 1000003 * 1000033 cannot be certified by
        # trial division, but only primes up to the root bound can divide a
        # root, and the quadratic's roots have absolute value 1.
        big = 1000003 * 1000033
        p = (x - 2) * (x + 3) * (big * x**2 + x + big)
        assert integer_roots(p) == {2, -3}


class TestRootBound:
    def test_above_every_root(self):
        rng = random.Random(71)
        for _ in range(40):
            roots = [frac(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(rng.randint(1, 12))]
            p = Poly([rng.choice([-1, 1]) * rng.randint(1, 10**6)])
            for r in roots:
                p = p * Poly([-r, 1])
            assert _cauchy_bound(_to_int_primitive(p)) > max(abs(r) for r in roots), p

    def test_small_roots_with_large_coefficients(self):
        # Cauchy's 1 + max |c_i / c_n| for prod (x - k), k = 1..20, exceeds
        # 10^18; the least integer above Cauchy's radius is 297.
        p = ONE
        for k in range(1, 21):
            p = p * (x - k)
        assert max(abs(c) for c in p.coeffs) > 10**18
        assert _cauchy_bound(_to_int_primitive(p)) == 297

    def test_cauchy_bound_is_the_least_integer_above_cauchys_radius(self):
        rng = random.Random(73)
        for _ in range(40):
            roots = [frac(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(rng.randint(1, 12))]
            p = Poly([rng.choice([-1, 1]) * rng.randint(1, 10**6)])
            for r in roots:
                p = p * Poly([-r, 1])
            cs = _to_int_primitive(p)
            bound = _cauchy_bound(cs)
            assert max(abs(r) for r in roots) < bound, p

            def above(r):
                return abs(cs[-1]) * r ** (len(cs) - 1) > sum(abs(c) * r**k for k, c in enumerate(cs[:-1]))

            assert above(bound) and (bound == 1 or not above(bound - 1)), p

    def test_cauchy_bound_of_centred_roots(self):
        # prod (x - k), k = 1..20, moved by 10: the roots -9..10.
        cs = _to_int_primitive(math.prod((x - k for k in range(-9, 11)), start=ONE))
        assert _cauchy_bound(cs) == 27
        assert _cauchy_bound([5]) == 1 and _cauchy_bound([0, 0, 3]) == 1


class TestFactorInt:
    def test_upto_keeps_small_primes_only(self):
        n = 2**3 * 3 * 1000003 * 1000033
        assert factor_int(n, 100) == {2: 3, 3: 1}
        assert factor_int(n, 2) == {2: 3}
        assert factor_int(n, 1) == {}
        with pytest.raises(FactorLimitError):
            factor_int(n)

    def test_upto_matches_complete_factorization(self):
        for n in range(1, 400):
            full = factor_int(n)
            for upto in (1, 5, 6, 13, 10**6, 10**7):
                assert factor_int(n, upto) == {p: e for p, e in full.items() if p <= upto}


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


def _kernel_coeffs(rng):
    """Seeded rational coefficients: the zero polynomial, degrees 0 to 20,
    numerators up to 2^80, denominators 1 to 10^6 (sometimes shared), sparse
    entries, and leading coefficients that are 1, -1, integral or rational."""
    if rng.random() < 0.08:
        return []
    bits = rng.choice((3, 20, 80))
    den_max = rng.choice((1, 12, 10**6))
    common = rng.randint(1, den_max) if rng.random() < 0.3 else None
    out = []
    for _ in range(rng.randint(0, 20) + 1):
        num = rng.randint(-(2**bits), 2**bits) if rng.random() < 0.8 else 0
        out.append(Fraction(num, common or rng.randint(1, den_max)))
    kind = rng.random()
    if kind < 0.2:
        out[-1] = Fraction(1)
    elif kind < 0.3:
        out[-1] = Fraction(-1)
    elif kind < 0.5:
        out[-1] = Fraction(rng.choice((-1, 1)) * rng.randint(2, 2**bits))
    else:
        out[-1] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 2**bits), rng.randint(2, 10**6))
    return out


def _kernel_pairs(count=320, seed=20261018):
    rng = random.Random(seed)
    return [(_kernel_coeffs(rng), _kernel_coeffs(rng)) for _ in range(count)]


def _assert_same(p, ref):
    """p has the reference's value and satisfies the representation invariant."""
    assert isinstance(p, Poly)
    assert p.coeffs == ref.coeffs
    assert isinstance(p._c, tuple) and all(type(c) is int for c in p._c)
    assert type(p._d) is int and p._d > 0
    assert math.gcd(p._d, *p._c) == 1
    assert not p._c or p._c[-1] != 0


class TestIntegerKernel:
    """Every `Poly` operation against `conftest.RefPoly`, the Fraction-tuple
    polynomial it replaced, on seeded inputs."""

    @pytest.fixture(scope="class")
    def pairs(self):
        return _kernel_pairs()

    def test_queries(self, pairs):
        for a, _ in pairs:
            p, ref = Poly(a), RefPoly(a)
            _assert_same(p, ref)
            assert p.degree == ref.degree
            assert p.is_zero == ref.is_zero
            assert p.is_monic == ref.is_monic
            assert p.is_constant == ref.is_constant
            for k in range(-1, len(a) + 2):
                assert p.coeff(k) == ref.coeff(k)
            if not p.is_zero:
                assert p.lc == ref.lc and type(p.lc) is Fraction
            assert str(p) == str(ref)

    def test_ring_operations(self, pairs):
        rng = random.Random(1)
        for a, b in pairs:
            p, q, rp, rq = Poly(a), Poly(b), RefPoly(a), RefPoly(b)
            _assert_same(p + q, rp + rq)
            _assert_same(p - q, rp - rq)
            _assert_same(p * q, rp * rq)
            _assert_same(-p, -rp)
            n = rng.randint(-(2**70), 2**70)
            s = Fraction(rng.randint(-(2**40), 2**40), rng.randint(1, 10**6))
            for c in (n, s, 0, 1, -1):
                _assert_same(p * c, rp * c)
                _assert_same(c * p, c * rp)
                _assert_same(p + c, rp + c)
                _assert_same(c + p, c + rp)
                _assert_same(p - c, rp - c)
                _assert_same(c - p, c - rp)
                assert (p == c) == (rp == c)

    def test_powers(self, pairs):
        for i, (a, _) in enumerate(pairs):
            e = i % 7
            _assert_same(Poly(a) ** e, RefPoly(a) ** e)

    def test_division(self, pairs):
        for a, b in pairs:
            if not b:
                with pytest.raises(DomainError):
                    Poly(a).divrem(Poly(b))
                continue
            p, q, rp, rq = Poly(a), Poly(b), RefPoly(a), RefPoly(b)
            quo, rem = p.divrem(q)
            rquo, rrem = rp.divrem(rq)
            _assert_same(quo, rquo)
            _assert_same(rem, rrem)
            _assert_same(p // q, rquo)
            _assert_same(p % q, rrem)
            _assert_same((p * q).exact_div(q), (rp * rq).exact_div(rq))
            if not rrem.is_zero:
                with pytest.raises(InexactDivisionError):
                    p.exact_div(q)

    def test_normal_forms_and_calculus(self, pairs):
        rng = random.Random(2)
        for a, _ in pairs:
            p, ref = Poly(a), RefPoly(a)
            if a:
                _assert_same(p.monic(), ref.monic())
            _assert_same(p.derivative(), ref.derivative())
            for c in (1, -3, Fraction(rng.randint(-50, 50), rng.randint(1, 40)), Fraction(-7, 2**40)):
                _assert_same(p.shift(c), ref.shift(c))
            for point in (0, -1, Fraction(rng.randint(-(2**30), 2**30), rng.randint(1, 10**6))):
                value = p(point)
                assert type(value) is Fraction and value == ref(point)

    def test_canonical_equality_and_hash(self, pairs):
        for a, b in pairs:
            p, q = Poly(a), Poly(b)
            if b:
                same = (p * q).exact_div(q)
                assert same == p and hash(same) == hash(p)
            for same in ((p + q) - q, Poly(p.coeffs), Poly(str(c) for c in p.coeffs), -(-p)):
                assert same == p and hash(same) == hash(p)
            assert (p == q) == (RefPoly(a) == RefPoly(b))
            if a:
                assert p * Fraction(1, 3) != p and p * 3 != p and p + 1 != p
        assert Poly([Fraction(1, 2), Fraction(3, 2)]) * 2 == Poly([1, 3])
        assert hash(Poly(["1/2", 0])) == hash(Poly([Fraction(2, 4)]))
        assert (Poly([]) == 0) and Poly([0, 0])._c == () and Poly([0])._d == 1
