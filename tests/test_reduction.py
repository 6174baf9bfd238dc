import random
from fractions import Fraction

import pytest

from conftest import count_calls, ref_parfrac, ref_reduce

from dresidues import galois, hermite, polys, reduction, shiftset
from dresidues.errors import DomainError
from dresidues.polys import ONE, Poly, X, gcd, is_squarefree
from dresidues.ratfun import RF_ZERO, RatFun
from dresidues.reduction import ReductionOutput, ReductionParts, _reduce, simple_reduction, simple_reduction_multi
from dresidues.residues import discrete_residues_coordinated
from dresidues.shiftset import dispersion
from dresidues.summability import is_summable
from dresidues.testkit import build_from_spec, orbit_spec, random_orbit_spec

x = X


def ref_simple_reduction(f, want_certificate=False):
    """Single-input shift reduction with its own prelude (the b = f.den case
    written out); a test-only reference."""
    b = f.den
    shifts = shiftset.shift_set(b).shifts
    if not shifts:
        parts = ReductionParts(b, (0,), {0: b}, {0: f.num}, {}, ONE)
        return ReductionOutput(f, RF_ZERO if want_certificate else None, parts)
    shift_gcds = {ell: polys.gcd(b, b.shift(-ell)) for ell in shifts}
    overlap = polys.lcm_all(shift_gcds.values())
    initial = b.exact_div(overlap)
    factors = {0: initial}
    for ell in shifts:
        bl = polys.gcd(initial.shift(-ell), b)
        if not bl.is_constant:
            factors[ell] = bl
    indices = tuple(sorted(factors))
    numerators = dict(zip(indices, ref_parfrac(f, [factors[ell] for ell in indices])))
    reduced = RF_ZERO
    certificate = RF_ZERO if want_certificate else None
    for ell in indices:
        piece = RatFun(numerators[ell], factors[ell])
        reduced = reduced + piece.sigma(ell)
        if want_certificate:
            for i in range(ell):
                certificate = certificate - piece.sigma(i)
    parts = ReductionParts(initial, indices, factors, numerators, shift_gcds, overlap)
    return ReductionOutput(reduced, certificate, parts)


def _differential_inputs():
    rng = random.Random(4041)
    fs = []
    # rational poles in up to four orbits, integer and rational offsets
    for _ in range(15):
        f = build_from_spec(random_orbit_spec(rng, max_orbits=4, max_order=1))
        if not f.is_zero:
            fs.append(f)
    # algebraic poles: integer shifts of irreducible quadratics and a cubic,
    # plus a rational pole, with rational non-primitive numerators
    irreducible = [x**2 + 1, x**2 - 2, x**2 + x + 1, x**3 - 2]
    for _ in range(12):
        q = rng.choice(irreducible)
        den = ONE
        for s in rng.sample(range(-4, 5), rng.randint(1, 3)):
            den = den * q.shift(s)
        den = den * (x - Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
        num = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(den.degree)])
        f = RatFun(num, den)
        if not f.is_zero:
            fs.append(f)
    # empty shift sets: the early return
    fs += [RatFun(ONE, x), RatFun(x, x**2 + 1), RatFun(ONE, (x - Fraction(1, 2)) * (x + Fraction(1, 3)))]
    return fs + _long_shift_inputs()


def _long_shift_inputs():
    """Long shifts whose certificate pieces overlap across l: three poles in
    the orbit of a rational pole and two in that of an irreducible from above,
    at shifts up to 25; then 1/x - 1/(x+n) for n up to 60."""
    rng = random.Random(2121)
    fs = []
    for _ in range(20):
        rational = x - Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        f = RF_ZERO
        for q, poles in ((rational, 3), (rng.choice([x**2 + 1, x**2 - 2, x**2 + x + 1, x**3 - 2]), 2)):
            for s in rng.sample(range(26), poles):
                f = f + RatFun(Poly([rng.choice([-2, -1, 1, 2]) for _ in range(q.degree)]), q.shift(s))
        fs.append(f)
    return fs + [RatFun(ONE, x) - RatFun(ONE, x + n) for n in (1, 17, 39, 60)]


class TestDifferential:
    """The shared reduction core against the single-input reference."""

    @pytest.fixture(scope="class")
    def inputs(self):
        return _differential_inputs()

    def test_matches_reference(self, inputs):
        for f in inputs:
            for want in (False, True):
                got = simple_reduction(f, want)
                ref = ref_simple_reduction(f, want)
                assert got.reduced == ref.reduced, f
                assert got.certificate == ref.certificate, f
                if want:
                    assert got.certificate.delta() == f - got.reduced, f
                for field in ("initial", "indices", "factors", "numerators", "shift_gcds", "overlap"):
                    assert getattr(got.parts, field) == getattr(ref.parts, field), (f, field)

    def test_single_matches_multi(self, inputs):
        for f in inputs:
            assert simple_reduction(f).reduced == simple_reduction_multi([f])[0], f

    def test_inputs_cover_the_cases(self, inputs):
        parts = [ref_simple_reduction(f).parts for f in inputs]
        assert any(p.indices == (0,) and not p.shift_gcds for p in parts)
        assert any(len(p.indices) >= 3 for p in parts)
        assert any(p.initial.degree >= 2 and p.overlap.degree >= 2 for p in parts)
        assert any(c.denominator != 1 for f in inputs for c in f.den.coeffs)
        # long shifts, and one orbit met at two distinct l > 0 (overlapping pieces)
        assert any(max(p.indices) >= 20 for p in parts) and any(p.indices[-1] == 60 for p in parts)

        def overlaps(p):
            moved = [p.factors[ell].shift(ell) for ell in p.indices[1:]]
            return any(polys.gcd(a, b) != ONE for i, a in enumerate(moved) for b in moved[i + 1 :])

        assert sum(map(overlaps, parts)) >= 10


def _multi_input_lists():
    """Seeded input lists with zero inputs, several numerators over one
    denominator and repeated inputs."""
    rng = random.Random(1515)
    lists = [[RF_ZERO], [RF_ZERO, RF_ZERO], [RatFun(ONE, x), RF_ZERO, RatFun(ONE, x)]]
    while len(lists) < 24:
        fs = []
        for _ in range(rng.randint(1, 3)):
            f = build_from_spec(random_orbit_spec(rng, max_orbits=4, max_order=1))
            if f.is_zero:
                continue
            fs.append(f)
            for _ in range(rng.randint(0, 3)):
                num = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(f.den.degree)])
                fs.append(RatFun(num, f.den))
        fs += [RF_ZERO] * rng.randint(0, 2) + rng.sample(fs, min(len(fs), rng.randint(0, 2)))
        rng.shuffle(fs)
        lists.append(fs)
    return lists


class TestMultiInputDifferential:
    """`_reduce` on several inputs against the per-input reference."""

    @pytest.fixture(scope="class")
    def lists(self):
        return _multi_input_lists()

    def test_matches_reference(self, lists):
        for fs in lists:
            for want in (False, True):
                got = _reduce(fs, want)
                ref = ref_reduce(fs, want)
                assert len(got) == len(ref) == len(fs)
                for f, a, r in zip(fs, got, ref):
                    assert a.reduced == r.reduced, (fs, f)
                    assert a.certificate == r.certificate, (fs, f)
                    for field in ("initial", "indices", "factors", "numerators", "shift_gcds", "overlap"):
                        assert getattr(a.parts, field) == getattr(r.parts, field), (fs, f, field)

    def test_lists_cover_the_cases(self, lists):
        def shares_den(fs):
            dens = [f.den for f in fs if not f.is_zero]
            return len(set(dens)) < len(dens)

        assert sum(any(f.is_zero for f in fs) for fs in lists) >= 5
        assert sum(shares_den([f for f in fs if fs.count(f) == 1]) for fs in lists) >= 5
        assert sum(any(fs.count(f) > 1 for f in fs if not f.is_zero) for fs in lists) >= 5
        assert any(len(ref_reduce(fs, False)[0].parts.shift_gcds) >= 2 for fs in lists)

    def test_inverses_and_prs_at_orbit_size(self, monkeypatch):
        """On the three-orbit b = q(x) q(x+3) q(x+7) of degree 30 and 60 (`benchmarks/high_degree.py`),
        a reduction of several numerators over b, the coordinated residues of 1/b and the summability
        certificate of 1/q(x) + 1/q(x+3) - 2/q(x+7) take no modular inverse modulo anything larger than
        initial or an orbit piece, and one PRS per shift: one pseudo-division of two operands of
        degree deg b each, and no subresultant."""
        moduli, full, calls = [], [], []
        inverse_mod, ext, prem = polys.inverse_mod, polys._ext_subresultant, polys._int_prem

        def counted_inverse(a, m):
            moduli.append(m.degree)
            return inverse_mod(a, m)

        def counted_ext(m, a):
            moduli.append(len(m) - 1)
            return ext(m, a)

        def counted_prem(a, b):
            full.append((len(a), len(b)))
            return prem(a, b)

        monkeypatch.setattr(polys, "inverse_mod", counted_inverse)
        monkeypatch.setattr(polys, "_ext_subresultant", counted_ext)
        monkeypatch.setattr(polys, "_int_prem", counted_prem)
        monkeypatch.setattr(polys, "_subresultant", lambda a, b: calls.append((a, b)))
        for n in (10, 20):
            rng = random.Random(11)
            q = Poly([rng.randint(-9, 9) for _ in range(n)] + [1])
            den = q * q.shift(3) * q.shift(7)
            fs = [RatFun(Poly(range(k, k + den.degree)), den) for k in range(1, 5)]
            assert all(f.den == den for f in fs)
            runs = [
                lambda: _reduce(fs + [RF_ZERO], True),
                lambda: discrete_residues_coordinated(RatFun(ONE, den)),
                lambda: is_summable(RatFun(ONE, q) + RatFun(ONE, q.shift(3)) - RatFun(Poly([2]), q.shift(7)), True),
            ]
            for run in runs:
                moduli.clear()
                full.clear()
                out = run()
                assert max(moduli) <= n and full.count((3 * n + 1, 3 * n + 1)) == 3, (n, run)
            assert out[0] and out[1].den.degree > 0
            outs = _reduce(fs + [RF_ZERO], True)
            parts = outs[0].parts
            assert parts.indices == (0, 4, 7) and parts.shift_gcds == {3: q, 4: q.shift(3), 7: q}
            assert max(f.degree for f in parts.factors.values()) == parts.initial.degree == n
            factors = [out.parts.factors for out in outs]
            assert len({id(d) for d in factors}) == len(factors)
        assert calls == []


def _cost_targets():
    """The read-out stages and the Hermite stages, which no simple-pole call should reach."""
    return (
        (reduction, "_orbits"),
        (reduction, "_orbit_residues"),
        (reduction, "_orbit_split"),
        (reduction, "_suffix_certificate"),
        (galois, "_suffix_certificate"),
        (polys, "squarefree_decomposition"),
        (hermite, "_remainders"),
    )


class TestOneReadoutPerCall:
    """Each reduction and lattice call runs one `_orbits` and one `_orbit_residues`, splits each
    distinct denominator once, runs no Yun and no Hermite remainders, and takes one
    `_suffix_certificate` per certificate or candidate."""

    def expect(self, certificates, dens):
        return {"_orbits": 1, "_orbit_residues": 1, "_orbit_split": dens, "_suffix_certificate": certificates,
                "squarefree_decomposition": 0, "_remainders": 0}

    def test_reductions(self, monkeypatch):
        inputs = _differential_inputs()[::3]
        lists = _multi_input_lists()[::2]
        calls = count_calls(monkeypatch, _cost_targets())
        for f in inputs:
            for want in (False, True):
                calls.update(dict.fromkeys(calls, 0))
                simple_reduction(f, want)
                assert calls == self.expect(int(want), 1), (f, want)
        for fs in lists:
            calls.update(dict.fromkeys(calls, 0))
            simple_reduction_multi(fs)
            assert calls == self.expect(0, len({f.den for f in fs if not f.is_zero})), fs

    def test_lattices(self, monkeypatch):
        pool = [x, x + 1, x - Fraction(1, 2), x**2 + 1, (x + 2) ** 2 + 1, x**2 - 3]
        rng = random.Random(3030)
        tuples = [[RatFun(x), RatFun(2 * x), RatFun(4 * x)], [RatFun(x), RatFun(x**2 + 1)], [RatFun(Poly([3])), RatFun(x)]]
        for _ in range(8):
            rs = []
            for _ in range(rng.randint(2, 4)):
                r = RatFun(Poly([rng.choice((1, -2, 3))]))
                for q in rng.sample(pool, rng.randint(1, 2)):
                    r = r * RatFun(q.shift(rng.randint(-2, 2))) ** rng.choice((-2, -1, 1, 2))
                rs.append(r)
            tuples.append(rs)
        calls = count_calls(monkeypatch, _cost_targets())
        seen = set()
        for rs in tuples:
            fs = [galois.log_derivative(r) for r in rs]
            dens = len({f.den for f in fs if not f.is_zero})
            calls.update(dict.fromkeys(calls, 0))
            galois.integer_lattice_solutions(fs)
            assert calls == self.expect(0, dens), rs
            calls.update(dict.fromkeys(calls, 0))
            rel = galois.multiplicative_relations(rs)
            assert calls == self.expect(len(rel.candidate_basis), dens), rs
            seen.add(min(len(rel.candidate_basis), 2))
        assert seen == {0, 1, 2}


class TestFarApartPoles:
    """The far-apart inputs of `benchmarks/long_shift.py`: poles of the x^2+1 orbit at shifts 0,
    20, 23 and of the x^3-2 orbit at 0, 15 (and 40), whose certificates have denominators of
    degree 90 and more."""

    f = (RatFun(ONE, x**2 + 1) + RatFun(Poly([2]), (x + 20) ** 2 + 1) - RatFun(ONE, (x + 23) ** 2 + 1)
         + RatFun(ONE, x**3 - 2) + RatFun(x, (x + 15) ** 3 - 2))

    def test_against_reference(self):
        got, ref = simple_reduction(self.f, True), ref_reduce([self.f], True)[0]
        assert got.parts.indices == (0, 3, 15, 23) and got.certificate.den.degree >= 90
        assert (got.reduced, got.certificate) == (ref.reduced, ref.certificate)

    def test_shift_40_by_delta(self):
        f = self.f - RatFun(Poly([3]), (x + 40) ** 3 - 2)
        out = simple_reduction(f, True)
        assert not out.reduced.is_zero and max(out.parts.indices) == 40
        # f - reduced = g(x+1) - g(x), cross-multiplied: no gcd of the certificate's denominators
        h, num, den = f - out.reduced, out.certificate.num, out.certificate.den
        assert (num.shift(1) * den - num * den.shift(1)) * h.den == h.num * den * den.shift(1)


def simple_instance(rng):
    """Random proper function with squarefree denominator."""
    spec = random_orbit_spec(rng, max_orbits=4, max_order=1)
    return build_from_spec(spec)


class TestSimpleReduction:
    def test_golden_reduced_form(self, golden):
        out = simple_reduction(golden["layers"][0], want_certificate=True)
        assert out.reduced == golden["fbar1"]
        assert out.parts.initial == golden["b0"]
        assert out.parts.factors[1] == golden["b1"]
        assert out.parts.factors[2] == golden["b2"]
        assert out.parts.factors[3] == golden["b3"]
        assert out.parts.numerators[0] == golden["a0"]
        assert out.parts.numerators[3] == golden["a3"]
        assert out.reduced + out.certificate.delta() == golden["layers"][0]

    def test_telescoping_pair(self):
        out = simple_reduction(RatFun(ONE, x * (x + 1)), want_certificate=True)
        assert out.reduced.is_zero
        assert out.certificate == RatFun(Poly([-1]), x)

    def test_identity_branch(self):
        out = simple_reduction(RatFun(ONE, x), want_certificate=True)
        assert out.reduced == RatFun(ONE, x)
        assert out.certificate.is_zero

    def test_rejects_higher_poles(self):
        with pytest.raises(DomainError):
            simple_reduction(RatFun(ONE, x**2))

    def test_rejects_non_proper(self):
        with pytest.raises(DomainError):
            simple_reduction(RatFun(x**2, x + 1))

    def test_contract_random(self):
        rng = random.Random(111)
        for _ in range(25):
            f = simple_instance(rng)
            if f.is_zero:
                continue
            out = simple_reduction(f, want_certificate=True)
            red = out.reduced
            # reduced: zero or squarefree denominator with dispersion 0
            assert red.is_zero or (
                is_squarefree(red.den)
                and (red.den.is_constant or dispersion(red.den) == 0)
            )
            # certificate identity, which also witnesses summability of f - reduced
            assert red + out.certificate.delta() == f
            # partition of the denominator (eq. (5.1)-style)
            parts = out.parts
            prod = ONE
            for ell in parts.indices:
                prod = prod * parts.factors[ell]
            assert prod == f.den
            idx = list(parts.indices)
            for i in range(len(idx)):
                for j in range(i + 1, len(idx)):
                    bi, bj = parts.factors[idx[i]], parts.factors[idx[j]]
                    if not (bi.is_constant or bj.is_constant):
                        assert gcd(bi, bj) == ONE
            # reduced denominator divides the divisor of initial roots, which
            # itself has dispersion 0
            if not red.is_zero:
                assert parts.initial % red.den == Poly()
                assert parts.initial.is_constant or dispersion(parts.initial) == 0


class TestSimpleReductionMulti:
    def test_pair_share_pole(self):
        outs = simple_reduction_multi([RatFun(ONE, x), RatFun(ONE, x + 1)])
        assert outs == [RatFun(ONE, x + 1), RatFun(ONE, x + 1)]

    def test_symmetry(self, golden):
        f1 = golden["layers"][0]
        outs = simple_reduction_multi([f1, f1])
        assert outs[0] == outs[1]

    def test_singleton_matches_golden(self, golden):
        assert simple_reduction_multi([golden["layers"][0]]) == [golden["fbar1"]]

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            simple_reduction_multi([])

    def test_each_difference_summable(self):
        rng = random.Random(117)
        for _ in range(10):
            fs = [simple_instance(rng) for _ in range(rng.randint(1, 3))]
            outs = simple_reduction_multi(fs)
            for f, red in zip(fs, outs):
                assert is_summable(f - red)[0]
                assert red.is_zero or (
                    is_squarefree(red.den)
                    and (red.den.is_constant or dispersion(red.den) == 0)
                )

    def test_shared_orbits_become_shared_poles(self):
        # Constructed instances with known common orbits: nonzero first-order
        # residues at the orbit of 0 for both inputs, disjoint extra poles.
        f1 = build_from_spec(orbit_spec([(0, 1, 1), (Fraction(1, 2), 1, 2)]))
        f2 = build_from_spec(orbit_spec([(5, 1, 3), (Fraction(1, 3), 1, 1)]))
        r1, r2 = simple_reduction_multi([f1, f2])
        common = gcd(r1.den, r2.den)
        assert not common.is_constant
        roots_share = common  # the shared pole must represent the orbit of 0
        assert roots_share.degree == 1
        root = -roots_share.coeff(0)
        assert root.denominator == 1  # integer, i.e. in the orbit of 0
