import random

import pytest

from conftest import gcd_prs

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
        assert shift_set(x * (x + 1)).shifts == (1,)
        assert polys.resultant_shift(x * (x + 1)) == x**2 * (x**2 - 1)

    def test_low_degree_branch(self):
        assert shift_set(x).shifts == ()

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
            r = polys.resultant_shift(b)
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

    def test_factor_int_calls_by_route(self, monkeypatch, golden):
        # The scan route (centred shift bound L <= deg(b)^2 + 1) factors
        # nothing; the interpolation route factors R's trailing coefficient
        # once.  x*(x+5) has L = 8 > 5 and x*(x+4)*(x+9) has L = 12 > 10.
        calls = []
        original = polys.factor_int

        def counted(n, *args):
            calls.append(n)
            return original(n, *args)

        monkeypatch.setattr(polys, "factor_int", counted)
        cases = [
            (golden["layers"][0].den, (1, 2, 3), 0),
            ((x**2 + 1) * (x**2 + 2 * x + 2), (1,), 0),
            (x**30 + x + 1, (), 0),
            (x * (x + 1), (1,), 0),
            (x * (x + 3) * (x + 7), (3, 4, 7), 0),
            (x**2 + 1, (), 0),
            (x * (x + 5), (5,), 1),
            (x * (x + 4) * (x + 9), (4, 5, 9), 1),
            ((x**2 + 1) * (x - 20), (), 1),
        ]
        for b, shifts, factorizations in cases:
            calls.clear()
            assert shift_set(b).shifts == shifts
            assert len(calls) == factorizations, b

    def test_centred_bound_far_from_the_origin(self, monkeypatch):
        # Roots near 10^9: the root bound of b itself is 2^34, but the
        # roots of b(x + c), c the floor of their mean, lie within 7 of 0.
        calls = []
        original = polys.integer_roots

        def counted(p):
            calls.append(p)
            return original(p)

        monkeypatch.setattr(polys, "integer_roots", counted)
        b = Poly([1])
        for r in (0, 1, 3, 4, 7, 9, 12, 13):
            b = b * (x - 10**9 - r)
        assert shift_set(b).shifts == tuple(range(1, 14))
        assert calls == []

    def test_differential_against_gcd_scan_below_the_centred_bound(self):
        # Every shift lies below the centred bound L, so the gcd scan over
        # 1..L-1 is the whole shift set.  Spread-out linear products make
        # sure that the interpolation route (L > deg(b)^2 + 1) is taken too.
        rng = random.Random(1107)
        bs = [random_poly(rng, deg) for deg in range(2, 11) for _ in range(3)]
        for _ in range(6):
            b = Poly([1])
            for r in rng.sample(range(-40, 41), rng.randint(2, 4)):
                b = b * (x - r)
            bs.append(b)
        for _ in range(6):
            b = Poly([1])
            for _ in range(rng.randint(1, 3)):
                q = random_poly(rng, 2)
                b = b * q * q.shift(rng.randint(1, 4))
            bs.append(b)
        for _ in range(6):
            centre = rng.choice([-1, 1]) * rng.randint(10**5, 10**12)
            b = Poly([1])
            for r in rng.sample(range(-12, 13), rng.randint(2, 6)):
                b = b * (x - centre - r)
            bs.append(b)
        interpolated = 0
        for b in bs:
            big = polys._to_int_primitive(b)
            centred = list(big)
            polys._taylor_shift(centred, -big[-2] // (b.degree * big[-1]))
            bound = 2 * polys._cauchy_bound(centred)
            interpolated += bound > b.degree**2 + 1
            want = tuple(ell for ell in range(1, bound) if not gcd(b, b.shift(ell)).is_constant)
            assert shift_set(b).shifts == want, b
        assert 0 < interpolated < len(bs)


    def test_large_constant_term_is_not_factored(self):
        # The trailing coefficient of R(z) / z^deg(b) has a cofactor that trial
        # division up to 10^6 cannot certify; only primes up to R's root bound
        # can divide a root, so the cofactor is never factored.
        b = Poly([-6, 9, 2, 0, -8, 4, -7])
        want = {ell for ell in range(1, 41) if not gcd(b, b.shift(ell)).is_constant}
        assert shift_set(b).as_set() == want

    def test_matches_the_subresultant_definition_on_both_routes(self):
        # The shift set is {l < L : Res_x(B(x), B(x+l)) = 0}, with no gcd and
        # no value certificate in the reference.  Clustered roots up to 10^7
        # take the scan route, spread ones the interpolation route, and the
        # interpolation route is also run on every input directly.
        rng = random.Random(1907)
        bs = []
        for spread in (6, 15, 40):
            for _ in range(5):
                centre = rng.randint(-(10**7), 10**7)
                b = Poly([1])
                for r in rng.sample(range(-spread, spread + 1), rng.randint(2, 6)):
                    b = b * (x - centre - r)
                bs.append(b)
        for _ in range(8):
            centre = rng.randint(-(10**7), 10**7)
            b = Poly([1])
            for _ in range(rng.randint(1, 2)):
                q = random_poly(rng, 2).shift(-centre)
                b = b * q * q.shift(rng.randint(1, 4))
            bs.append(b)
        routes = set()
        for b in bs:
            big = polys._to_int_primitive(b)
            centred = list(big)
            polys._taylor_shift(centred, -big[-2] // (b.degree * big[-1]))
            bound = 2 * polys._cauchy_bound(centred)
            routes.add(bound > b.degree**2 + 1)
            shifted, want = list(big), []
            for ell in range(1, bound):
                polys._taylor_shift(shifted, 1)
                if not polys._subresultant(big, shifted):
                    want.append(ell)
            assert shift_set(b).shifts == tuple(want), b
            roots = polys.integer_roots(polys.resultant_shift(b))
            assert tuple(sorted(ell for ell in roots if ell > 0)) == tuple(want), b
        assert routes == {False, True}

    def test_gcds_match_the_prs_reference_on_both_routes(self):
        # gcds[i] is the monic gcd(b(x), b(x + shifts[i])) that the candidate loop kept,
        # checked against the primitive PRS on every pair.  The last input is the CI
        # interpolation-route step, whose shifts reach 5991.
        rng = random.Random(3131)
        bs = [x * (x + 3) * (x + 7), (x**2 + 1) * ((x + 2) ** 2 + 1) * (x - 5) * (x + 1)]
        for spread in (6, 40):
            for _ in range(4):
                centre = rng.randint(-(10**6), 10**6)
                b = Poly([1])
                for r in rng.sample(range(-spread, spread + 1), rng.randint(2, 5)):
                    b = b * (x - centre - r)
                bs.append(b)
        for _ in range(4):
            q = random_poly(rng, 2)
            bs.append(q * q.shift(rng.randint(1, 4)) * random_poly(rng, 3))
        bs.append((x - 3000) * (x + 2990) * (x**2 + 1) * (x**2 + 2 * x + 2) * (x**3 - 2) * (x**3 - 3 * x + 5) * (x - 3001) * x)
        routes = set()
        for b in bs:
            big = polys._to_int_primitive(b)
            centred = list(big)
            polys._taylor_shift(centred, -big[-2] // (b.degree * big[-1]))
            routes.add(2 * polys._cauchy_bound(centred) > b.degree**2 + 1)
            got = shift_set(b)
            assert got.shifts and len(got.gcds) == len(got.shifts), b
            assert list(got.gcds) == [gcd_prs(b, b.shift(ell)) for ell in got.shifts], b
        assert routes == {False, True}
        assert shift_set(bs[-1]).shifts == (1, 2990, 3000, 3001, 5990, 5991)

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
