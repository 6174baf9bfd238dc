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
        assert res.core == x**2 - 1
        assert res.descended == x - 1

    def test_low_degree_branch(self):
        res = shift_set(x)
        assert res.shifts == () and res.resultant is None

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            shift_set(Poly())

    def test_core_is_even_and_z_free(self):
        rng = random.Random(91)
        for _ in range(15):
            b = random_poly(rng, rng.randint(2, 5))
            res = shift_set(b)
            core = res.core
            assert all(core.coeff(k) == 0 for k in range(1, len(core.coeffs), 2))
            assert core.coeff(0) != 0

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
        # The descended constant term has a cofactor that trial division up to
        # 10^6 cannot certify; only primes up to twice b's root bound can
        # divide a shift, so the cofactor is never factored.
        b = Poly([-6, 9, 2, 0, -8, 4, -7])
        want = {ell for ell in range(1, 41) if not gcd(b, b.shift(ell)).is_constant}
        assert shift_set(b).as_set() == want

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
