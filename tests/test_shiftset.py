import random

import pytest

from dresidues import polys
from dresidues.errors import DomainError
from dresidues.polys import Poly, X, gcd
from dresidues.shiftset import dispersion, shift_set
from dresidues.testkit import random_poly

x = X


class TestShiftSet:
    def test_golden_denominator(self, golden):
        assert shift_set(golden["layers"][0].den).shifts == (1, 2, 3)

    def test_adjacent_roots(self):
        res = shift_set(x * (x + 1))
        assert res.shifts == (1,)
        assert res.resultant == x**2 * (x**2 - 1)

    def test_low_degree_branch(self):
        res = shift_set(x)
        assert res.shifts == () and res.resultant is None

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            shift_set(Poly())

    def test_resultant_parity(self):
        # R(-z) = (-1)^deg(b) R(z): Res_x(b(x), b(x-z)) = Res_x(b(x+z), b(x))
        # by translation invariance, and swapping the arguments gives (-1)^(n^2).
        rng = random.Random(91)
        bs = [random_poly(rng, rng.randint(2, 5)) for _ in range(15)]
        bs += [x**2 * (x + 1), (x**2 + 1) ** 2 * (x - 3), (2 * x + 1) ** 3]
        for b in bs:
            r = shift_set(b).resultant
            assert Poly([c * (-1) ** k for k, c in enumerate(r.coeffs)]) == (-1) ** b.degree * r, b

    def test_soundness_and_local_completeness(self):
        rng = random.Random(97)
        for _ in range(25):
            b = Poly([1])
            for r in rng.sample(range(-8, 9), rng.randint(2, 5)):
                b = b * Poly([-r, 1]) ** rng.randint(1, 2)
            s = shift_set(b).as_set()
            top = max(s) if s else 0
            for ell in s:
                assert not gcd(b, b.shift(ell)).is_constant
            for ell in range(1, top + 6):
                if ell not in s:
                    assert gcd(b, b.shift(ell)).is_constant

    def test_one_factorization_per_call(self, monkeypatch, golden):
        calls = []
        original = polys.factor_int

        def counted(n, *args):
            calls.append(n)
            return original(n, *args)

        monkeypatch.setattr(polys, "factor_int", counted)
        cases = [
            (golden["layers"][0].den, (1, 2, 3)),
            (x * (x + 1), (1,)),
            (x * (x + 3) * (x + 7), (3, 4, 7)),
            ((x**2 + 1) * (x**2 + 2 * x + 2), (1,)),
            (x**2 + 1, ()),
        ]
        for b, shifts in cases:
            calls.clear()
            assert shift_set(b).shifts == shifts
            assert len(calls) == 1, b


    def test_large_constant_term_is_not_factored(self):
        # The trailing coefficient of R(z) / z^deg(b) has a cofactor that trial
        # division up to 10^6 cannot certify; only primes up to R's root bound
        # can divide a root, so the cofactor is never factored.
        b = Poly([-6, 9, 2, 0, -8, 4, -7])
        want = {ell for ell in range(1, 41) if not gcd(b, b.shift(ell)).is_constant}
        assert shift_set(b).as_set() == want

    def test_no_gcd_calls(self, monkeypatch, golden):
        calls = []
        original = polys.gcd

        def counted(a, b):
            calls.append((a, b))
            return original(a, b)

        monkeypatch.setattr(polys, "gcd", counted)
        assert shift_set(golden["layers"][0].den).shifts == (1, 2, 3)
        assert shift_set(x * (x + 3) * (x + 7)).shifts == (3, 4, 7)
        assert calls == []

    def test_degree_twelve_shifted_quadratics_match_gcd_scan(self):
        # Each product pairs random quadratics q with q(x + s), s in 1..3.
        for seed in range(3):
            rng = random.Random(613 + seed)
            b = Poly([1])
            for _ in range(3):
                q = random_poly(rng, 2)
                b = b * q * q.shift(rng.randint(1, 3))
            assert b.degree == 12
            want = {ell for ell in range(1, 41) if not gcd(b, b.shift(ell)).is_constant}
            assert want and shift_set(b).as_set() == want, b

    def test_random_degrees_six_to_eight_match_gcd_scan(self):
        rng = random.Random(2024)
        for deg in (6, 7, 8):
            for _ in range(10):
                b = random_poly(rng, deg)
                want = {ell for ell in range(1, 41) if not gcd(b, b.shift(ell)).is_constant}
                assert shift_set(b).as_set() == want, b


class TestDispersion:
    def test_examples(self):
        assert dispersion(x * (x + 3)) == 3
        assert dispersion(x**2 + 1) == 0

    def test_golden(self, golden):
        assert dispersion(golden["layers"][0].den) == 3

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            dispersion(Poly([4]))

    def test_matches_gcd_scan(self):
        rng = random.Random(103)
        for _ in range(20):
            roots = rng.sample(range(-7, 8), rng.randint(2, 4))
            b = Poly([1])
            for r in roots:
                b = b * Poly([-r, 1])
            want = 0
            for i in roots:
                for j in roots:
                    if i - j > 0:
                        want = max(want, i - j)
            assert dispersion(b) == want
