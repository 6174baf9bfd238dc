import math
import random
import re
from fractions import Fraction

import pytest
from conftest import RefPoly, count_calls, gcd_prs, ref_squarefree_decomposition, resultant_shift_prs, yun_inputs

from dresidues import polys
from dresidues.errors import DomainError, FactorLimitError, InexactDivisionError
from dresidues.polys import (
    ONE,
    ZERO,
    Poly,
    X,
    _cauchy_bound,
    _coprime,
    _from_falling,
    _horner,
    _mul_int,
    _newton,
    _pow_int,
    _subresultant,
    _to_int_primitive,
    _yun,
    divisors_upto,
    ext_gcd,
    factor_int,
    gcd,
    integer_roots,
    inverse_mod,
    is_squarefree,
    lcm,
    lcm_all,
    resultant,
    resultant_shift,
    squarefree_decomposition,
)
from dresidues.testkit import random_poly

x = X


def frac(a, b=1):
    return Fraction(a, b)


def _rational_poly(rng, degree):
    """A random polynomial of exactly the given degree with rational coefficients."""
    lead = 0
    while not lead:
        lead = rng.randint(-9, 9)
    return Poly([frac(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(degree)] + [frac(lead, rng.randint(1, 9))])


def _compose(p: Poly, c) -> Poly:
    """p(x + c) by a Horner scheme over Poly products; a test-only reference."""
    acc = ZERO
    for coef in reversed(p.coeffs):
        acc = acc * Poly([c, 1]) + coef
    return acc


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
        for a in (x, ZERO, Poly([frac(3, 4)])):
            for op in (lambda: a // ZERO, lambda: a % ZERO, lambda: a.exact_div(ZERO)):
                with pytest.raises(DomainError):
                    op()

    def test_each_half_matches_divrem(self):
        # `//`, `%` and `exact_div` build only the half they return; divrem builds both.
        rng = random.Random(3302)
        fixed = [Poly([7]), Poly([frac(-3, 5)]), 3 * x - 2, Poly([frac(1, 2), 0, frac(-7, 3)])]
        inexact = short = 0
        for k in range(300):
            b = fixed[k % 4] if k % 3 else _rational_poly(rng, rng.randint(0, 5))
            kind = k % 5
            if kind == 0:
                a = ZERO
            elif kind == 1:
                a = _rational_poly(rng, rng.randint(0, 8)) * b
            else:
                a = _rational_poly(rng, rng.randint(0, 8))
            q, r = a.divrem(b)
            assert a // b == q and a % b == r
            assert q * b + r == a
            short += q.is_zero
            if r.is_zero:
                assert a.exact_div(b) == q
            else:
                inexact += 1
                with pytest.raises(InexactDivisionError, match=f"^{re.escape(f'inexact division: {a} by {b}')}$"):
                    a.exact_div(b)
        assert inexact > 100 and short > 50

    def test_each_operator_builds_one_poly(self, monkeypatch):
        a, b = Poly([frac(1, 2), 3, -1, 4]), Poly([2, frac(5, 3)])
        product = a * b
        calls = count_calls(monkeypatch, [(polys, "_new"), (polys, "_as_rat")])
        for op in (lambda: a % b, lambda: a // b, lambda: product.exact_div(b)):
            calls["_new"] = 0
            op()
            assert calls["_new"] == 1
        a.shift(3)
        assert calls["_as_rat"] == 0

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


def _coprime_pairs(count=2000, seed=20261019):
    """Seeded integer-list pairs (a, b, planted) of degrees 0-10 with
    coefficients up to 10^6; every second pair shares a planted factor
    prod (c x - r) of degree 1-3, with c up to 10^3 and r up to 10^9."""
    rng = random.Random(seed)

    def rand(deg):
        lead = 0
        while not lead:
            lead = rng.randint(-(10**6), 10**6)
        return [rng.randint(-(10**6), 10**6) for _ in range(deg)] + [lead]

    pairs = []
    for i in range(count):
        common = [1]
        if i % 2:
            for _ in range(rng.randint(1, 3)):
                common = _mul_int(common, [rng.randint(-(10**9), 10**9), rng.choice((-1, 1)) * rng.randint(1, 10**3)])
        top = 11 - len(common)
        a = _mul_int(common, rand(rng.randint(0, top)))
        b = _mul_int(common, rand(rng.randint(0, top)))
        pairs.append((a, b, i % 2 == 1))
    return pairs


class TestCoprimeCertificate:
    def test_seeded_pairs_against_the_prs_reference(self):
        certified = 0
        for a, b, planted in _coprime_pairs():
            for u, v in ((a, b), (b, a)):
                if planted:
                    assert not _coprime(u, v), (u, v)
                elif _coprime(u, v):
                    certified += 1
                    assert _subresultant(u, v) != 0, (u, v)
            assert gcd(Poly(a), Poly(b)) == gcd_prs(Poly(a), Poly(b)), (a, b)
        # The certificate is not vacuous: it settles nearly every pair
        # without a planted factor.
        assert certified > 0.9 * 2000

    def test_defeated_certificate_falls_back_to_the_prs(self):
        # a = b + b(2^k) is coprime to b for every k, but a(2^k) = 2 b(2^k),
        # so the value gcd is as large as b(2^k) at the test's own point.
        for b in ([-7, 3, 1], [1, 0, 1], [5, -2, 0, 3], [-6, 9, 2, 0, -8, 4, -7]):
            defeated = 0
            for k in range(1, 81):
                a = [b[0] + _horner(b, 2**k)] + b[1:]
                assert gcd(Poly(a), Poly(b)) == ONE, (b, k)
                defeated += not _coprime(a, b)
            assert defeated, b


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
        rng = random.Random(37)
        for deg in range(9):
            for _ in range(4):
                lead = frac(rng.randint(1, 9), rng.randint(1, 5))
                p = Poly([frac(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(deg)] + [lead])
                c = frac(rng.randint(-9, 9), rng.randint(1, 7))
                assert p.shift(c) == _compose(p, c)

    def test_int_shift_matches_rational_path(self):
        # An int c shifts the integer part in place; Fraction(c) takes the u/v-scaled path.
        rng = random.Random(3301)
        ps = [ZERO, Poly([5]), Poly([frac(-7, 3)])] + [_rational_poly(rng, rng.randint(1, 7)) for _ in range(24)]
        shifts = [0, 1, -1, True, False, 10**6, -(10**6)] + [rng.randint(-(10**6), 10**6) for _ in range(4)]
        for p in ps:
            for c in shifts:
                assert p.shift(c) == p.shift(Fraction(c)) == _compose(p, c), (p, c)

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


class TestConstantsAndMonomials:
    """Constants and c x^k take the general paths: gcd(c, 0) = 1, Yun finds no class, a Cauchy bound
    of 1 leaves +-1 as the only candidates, and binary powering of c x needs no case of its own."""

    def test_constants(self):
        for c in (Poly([Fraction(-3, 7)]), Poly([5]), ONE):
            assert is_squarefree(c)
            assert squarefree_decomposition(c) == polys.SquarefreeDecomposition(c.lc, ())
            assert integer_roots(c) == set()
        assert integer_roots(Poly([0, 0, 0, Fraction(-2, 3)])) == {0}

    def test_monomial_powers(self):
        for c, n in ((1, 1), (-3, 5), (7, 12)):
            assert _pow_int([0, c], n) == [0] * n + [c**n]
        assert not is_squarefree(x**2) and is_squarefree(Poly([0, 4]))


class TestSquarefree:
    def test_golden_decomposition(self):
        p = x**3 * (x + 2) ** 3 * (x + 3) * (x**2 + 1) * (x**2 + 4 * x + 5) ** 2
        d = squarefree_decomposition(p)
        assert {(q.coeffs, m) for q, m in d.factors} == {
            (((x + 3) * (x**2 + 1)).coeffs, 1),
            ((x**2 + 4 * x + 5).coeffs, 2),
            ((x * (x + 2)).coeffs, 3),
        }
        assert math.prod((q**m for q, m in d.factors), start=Poly([d.unit])) == p

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
            assert math.prod((q**m for q, m in d.factors), start=Poly([d.unit])) == p
            for q, _ in d.factors:
                assert is_squarefree(q) and q.is_monic and not q.is_constant
            for i in range(len(d.factors)):
                for j in range(i + 1, len(d.factors)):
                    assert gcd(d.factors[i][0], d.factors[j][0]) == ONE


class TestYunOnIntegerLists:
    @pytest.fixture(scope="class")
    def inputs(self):
        return yun_inputs()

    def test_matches_reference(self, inputs):
        for p in inputs:
            assert squarefree_decomposition(p) == ref_squarefree_decomposition(p), p

    def test_kernel_multiplies_back(self, inputs):
        for p in inputs:
            if p.is_constant:
                continue
            prim = _to_int_primitive(p)
            classes = _yun(prim)
            assert len(classes[-1]) > 1 and all(f == _to_int_primitive(Poly(f)) for f in classes)
            prod = [1]
            for i, f in enumerate(classes, 1):
                prod = _mul_int(prod, _pow_int(f, i))
            assert prod == prim, p

    def test_inputs_cover_the_cases(self, inputs):
        decomps = [squarefree_decomposition(p) for p in inputs]
        assert any(d.unit.denominator != 1 for d in decomps) and any(d.unit < 0 for d in decomps)
        assert any(not d.factors for d in decomps)
        assert {q.degree for d in decomps for q, _ in d.factors} >= {1, 2, 3}
        assert {max((m for _, m in d.factors), default=0) for d in decomps} >= set(range(1, 13)) | {300}

    def test_one_poly_per_class(self, monkeypatch, inputs):
        built = []
        original = polys._new

        def counted(cs, d):
            built.append(1)
            return original(cs, d)

        monkeypatch.setattr(polys, "_new", counted)
        for p in inputs + [x * (x + 1) ** 3, (x**2 + 1) ** 5]:
            built.clear()
            d = squarefree_decomposition(p)
            assert len(built) == len(d.factors), p


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


class TestNewtonKernel:
    def test_round_trip_through_falling_factorials(self):
        rng = random.Random(1917)
        for n in range(26):
            for _ in range(4):
                big = [rng.randint(-50, 50) for _ in range(n)] + [rng.choice([-1, 1]) * rng.randint(1, 50)]
                assert _from_falling(_newton([_horner(big, j) for j in range(n + 1)])) == big, big

    def test_falling_factorial_is_a_unit_vector(self):
        # z(z-1)(z-2) at 0..4 is 0, 0, 0, 6, 24.
        assert _newton([0, 0, 0, 6, 24]) == [0, 0, 0, 1, 0]
        assert _from_falling([0, 0, 0, 1]) == [0, 2, -3, 1]

    def test_non_integral_interpolant_raises(self):
        # The values 0, 0, 1 interpolate z(z-1)/2, which is not in Z[z].
        with pytest.raises(InexactDivisionError):
            _newton([0, 0, 1])


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

    def test_loop_returns_in_the_inputs_ring(self):
        # Res(x^2 - 1, x + 1) = 0 and Res(2, x + 1) = 2, as Python ints over Z.
        zero = _subresultant([-1, 0, 1], [1, 1])
        two = _subresultant([2], [1, 1])
        assert type(zero) is int and zero == 0
        assert type(two) is int and two == 2

    def test_corrupted_remainder_raises(self, monkeypatch):
        # With 1 added to the constant term of the second pseudo-remainder, the
        # division by g h^delta leaves -791 / 4: a floor division would have
        # returned a wrong resultant.
        prem, calls = polys._int_prem, []

        def corrupt(a, b):
            r = prem(a, b)
            calls.append(r)
            if len(calls) == 2:
                r = [r[0] + 1, *r[1:]]
            return r

        monkeypatch.setattr(polys, "_int_prem", corrupt)
        with pytest.raises(InexactDivisionError):
            _subresultant([1, -3, 4, 0, 7, 3], [2, 5, -1, 6, 2])

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

    def test_lcm_all_folds_each_distinct_operand_once(self, monkeypatch):
        a, b = x * (x + 1), 2 * (x + 1) * (x + 2)
        calls = []

        def counted(p, q):
            calls.append(q)
            return lcm(p, q)

        monkeypatch.setattr(polys, "lcm", counted)
        assert lcm_all([]) == ONE
        assert lcm_all([ONE, ONE]) == ONE
        assert calls == []
        assert lcm_all([a, ONE, a, b, ONE, a, b]) == lcm(a, b)
        assert calls == [a, b]
        assert lcm_all([2 * x, x, x]) == x

    def test_lcm_all_rejects_zero(self):
        for ps in ([ZERO], [x, ZERO], [ONE, x, ZERO, ZERO], [ZERO, ZERO]):
            with pytest.raises(DomainError):
                lcm_all(ps)


class TestMonomialPower:
    def test_matches_repeated_product(self):
        for c in (1, -1, 3, frac(2, 3), frac(-5, 7), frac(1, 10**6)):
            p = x * c
            expected = ONE
            for k in range(21):
                _assert_same(p**k, expected)
                expected = expected * p
        assert x**0 == ONE and x**1 == x and (x**20).coeffs == (0,) * 20 + (1,)


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


def _int_coeffs(rng, length):
    """Seeded integers of 3 to 90 bits, the last one nonzero."""
    bits = rng.choice((3, 30, 90))
    out = [rng.randint(-(2**bits), 2**bits) for _ in range(length)]
    if out:
        out[-1] = out[-1] or rng.choice((-1, 1)) * rng.randint(1, 2**bits)
    return out


class TestDivremKernel:
    """`polys._divrem_int(a, b)` gives (q, r, s) with s*a = q*b + r."""

    def test_identity_on_seeded_inputs(self):
        rng = random.Random(41)
        shapes = {"non-monic": 0, "shorter": 0, "zero": 0}
        for _ in range(400):
            b = _int_coeffs(rng, rng.randint(1, 9))
            kind = rng.random()
            if kind < 0.05:
                a = []
            elif kind < 0.15:
                a = _int_coeffs(rng, rng.randint(0, len(b) - 1))
            else:
                a = _int_coeffs(rng, rng.randint(len(b), 20))
            shapes["non-monic"] += abs(b[-1]) != 1
            shapes["shorter"] += 0 < len(a) < len(b)
            shapes["zero"] += not a
            q, r, s = polys._divrem_int(a, b)
            assert type(s) is int and s > 0
            assert all(type(c) is int for c in q + r)
            assert len(r) < len(b)
            lhs = polys._lin_int(a, s, polys._mul_int(q, b), -1)
            assert lhs + [0] * (len(r) - len(lhs)) == r + [0] * (len(lhs) - len(r))
            if len(a) < len(b):
                assert (q, r, s) == ([], a, 1)
        assert all(shapes.values()), shapes

    def test_no_scale_for_integral_quotient(self):
        rng = random.Random(43)
        for _ in range(200):
            b = _to_int_primitive(random_poly(rng, rng.randint(1, 6)))
            q = _int_coeffs(rng, rng.randint(1, 8))
            assert polys._divrem_int(polys._mul_int(q, b), b) == (q, [0] * (len(b) - 1), 1)

    def test_matches_poly_divrem(self):
        for a, b in _kernel_pairs(count=120, seed=45):
            if not b:
                continue
            p, d = Poly(a), Poly(b)
            q, r, s = polys._divrem_int(p._c, d._c)
            quo, rem = p.divrem(d)
            assert quo == Poly([Fraction(c * d._d, s * p._d) for c in q])
            assert rem == Poly([Fraction(c, s * p._d) for c in r])


def _ref_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _ref_sub(a, b):
    out = list(a) + [Fraction(0)] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _ref_trim(out)


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _ref_trim(out)


def _ref_divmod(a, b):
    r, q = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(r) >= len(b):
        c, k = r[-1] / b[-1], len(r) - len(b)
        q[k] = c
        r = _ref_sub(r, [Fraction(0)] * k + [c * bc for bc in b])
    return _ref_trim(q), r


def ref_ext_gcd(a, b):
    """Monic g with s*a + t*b = g by the textbook extended Euclid loop on
    `Fraction` coefficient lists; a test-only reference."""
    r0, r1, s0, s1, t0, t1 = a, b, [Fraction(1)], [], [], [Fraction(1)]
    while r1:
        q, r = _ref_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _ref_sub(s0, _ref_mul(q, s1))
        t0, t1 = t1, _ref_sub(t0, _ref_mul(q, t1))
    lc = r0[-1]
    return [c / lc for c in r0], [c / lc for c in s0], [c / lc for c in t0]


def _rational_pair(rng):
    """Two polynomials with small rational coefficients, often sharing a factor."""
    def rand(deg):
        p = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(deg + 1)]
        while p[-1] == 0:
            p[-1] = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        return p
    a, b = rand(rng.randint(0, 7)), rand(rng.randint(0, 7))
    if rng.random() < 0.4:
        common = rand(rng.randint(1, 3))
        a, b = _ref_mul(a, common), _ref_mul(b, common)
    if rng.random() < 0.05:
        a = []
    return a, b


class TestExtendedEuclidReference:
    """`gcd`, `ext_gcd` and `inverse_mod` against `ref_ext_gcd` on 500 seeded pairs."""

    @pytest.fixture(scope="class")
    def pairs(self):
        rng = random.Random(2718)
        return [_rational_pair(rng) for _ in range(500)]

    def test_gcd_and_ext_gcd(self, pairs):
        for a, b in pairs:
            g, s, t = ref_ext_gcd(a, b)
            assert ext_gcd(Poly(a), Poly(b)) == (Poly(g), Poly(s), Poly(t))
            assert gcd(Poly(a), Poly(b)) == Poly(g)

    def test_inverse_mod(self, pairs):
        inverses = 0
        for a, m in pairs:
            if len(m) < 2:
                continue
            reduced = _ref_divmod(a, m)[1]
            g, s, _ = ref_ext_gcd(reduced, m)
            if g != [1]:
                with pytest.raises(DomainError):
                    inverse_mod(Poly(a), Poly(m))
                continue
            inverses += 1
            assert inverse_mod(Poly(a), Poly(m)) == Poly(_ref_divmod(s, m)[1])
        assert inverses > 100

    def test_non_coprime_and_zero_arguments(self):
        with pytest.raises(DomainError):
            inverse_mod((x - 1) * (x + 2) * (3 * x + 1), (x - 1) * (x**2 + 5))
        with pytest.raises(DomainError):
            inverse_mod(Fraction(1, 2) * (x**2 + 1), x**2 + 1)
        g, s, t = ext_gcd(Fraction(3, 4) * (x**2 - 2), ZERO)
        assert (g, s, t) == (x**2 - 2, Poly([Fraction(4, 3)]), ZERO)
        with pytest.raises(DomainError):
            ext_gcd(ZERO, ZERO)

    def test_inverse_modulo_a_constant_is_zero(self):
        # Z/(c) for a nonzero constant c is the zero ring, where every inverse is 0.
        for m in (Poly([3]), Poly([Fraction(1, 2)])):
            for a in (x + 1, Poly([7]), Fraction(2, 3) * x**4 - 1):
                assert inverse_mod(a, m) == ZERO

    def test_zero_residue_raises(self):
        m = 2 * x**2 + 3 * x - 5
        for a in (ZERO, m, Fraction(5, 7) * m * (x**3 - 4)):
            with pytest.raises(DomainError):
                inverse_mod(a, m)

    def test_non_monic_modulus_and_long_input(self):
        rng, checked = random.Random(2719), 0
        for deg_m in range(1, 7):
            m = Fraction(rng.randint(2, 9), rng.randint(1, 5)) * random_poly(rng, deg_m)
            for deg_a in (deg_m, deg_m + 1, 2 * deg_m + 3):
                a = random_poly(rng, deg_a)
                ref = [list(p.coeffs) for p in (a, m)]
                g, s, _ = ref_ext_gcd(_ref_divmod(*ref)[1], ref[1])
                if g != [1]:
                    continue
                w = inverse_mod(a, m)
                assert w == Poly(s) and (w * a) % m == ONE
                assert w.degree < m.degree
                assert ext_gcd(a, m) == tuple(Poly(p) for p in ref_ext_gcd(*ref))
                checked += 1
        assert checked >= 15

    def test_gcd_after_several_remainder_steps(self):
        common = 3 * x**2 - x + 2
        a, b = common * (x**4 - 2 * x**3 + x + 5), common * (2 * x**3 + x**2 - 7)
        steps, r0, r1 = 0, list(a.coeffs), list(b.coeffs)
        while r1:
            r0, r1, steps = r1, _ref_divmod(r0, r1)[1], steps + 1
        assert steps >= 4 and len(r0) == 3
        g, s, t = ext_gcd(a, b)
        assert (g, s, t) == tuple(Poly(p) for p in ref_ext_gcd(list(a.coeffs), list(b.coeffs)))
        assert g == common.monic() and s * a + t * b == g
        assert ext_gcd(b, a)[0] == g

    def test_inexact_beta_division_raises(self):
        assert polys._exact_quo([12, -8, 0], 4) == [3, -2, 0]
        with pytest.raises(InexactDivisionError):
            polys._exact_quo([12, -6], 4)


def _orbit_denominator(rng, family, deg_q):
    """b = q*q(x+3)*q(x+7) or q^2*q(x+2) for a random q of degree deg_q with
    coefficients in -9..9, and q."""
    q = Poly([rng.randint(-9, 9) for _ in range(deg_q)] + [rng.choice([-3, -2, -1, 1, 2, 3])])
    if family == "three-orbit":
        return q * q.shift(3) * q.shift(7), q
    return q**2 * q.shift(2), q


class TestHighDegreeInverse:
    """Trager inverses on orbit-structured denominators b of degree 21-60,
    checked exactly, and against `ref_ext_gcd` for moduli up to degree 24:
    w = 1/b' mod b for b = q*q(x+3)*q(x+7), and for b = q^2*q(x+2), where
    gcd(b', b) = q, w = 1/(b'/q) mod b/q."""

    CASES = [("three-orbit", 7), ("three-orbit", 8), ("three-orbit", 13), ("three-orbit", 20), ("square", 7), ("square", 12), ("square", 16), ("square", 20)]

    @pytest.mark.parametrize("family,deg_q", CASES)
    def test_trager_inverse(self, family, deg_q):
        rng = random.Random(3001 + deg_q)
        b, q = _orbit_denominator(rng, family, deg_q)
        a, m = b.derivative(), b
        assert 21 <= b.degree <= 60
        if family == "square":
            with pytest.raises(DomainError):
                inverse_mod(a, m)
            g, s, t = ext_gcd(a, m)
            assert g == q.monic() and s * a + t * m == g and s.degree < m.degree - g.degree
            a, m = a.exact_div(q), m.exact_div(q)
        w = inverse_mod(a, m)
        assert (w * a) % m == ONE and w.degree < m.degree
        if m.degree <= 24:
            ref = [list(p.coeffs) for p in (a, m)]
            g, s, _ = ref_ext_gcd(_ref_divmod(*ref)[1], ref[1])
            assert g == [1] and w == Poly(s)
