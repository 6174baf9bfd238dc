import math
import random
from fractions import Fraction

import pytest

from conftest import (
    assert_multi_matches_oracle,
    assert_pairs_match_oracle,
    ref_discrete_residues,
    ref_discrete_residues_multi,
    ref_first_residues,
    ref_first_residues_multi,
)
from dresidues import hermite, polys, reduction, residues, shiftset
from dresidues.hermite import hermite_list
from dresidues.errors import DomainError
from dresidues.polys import ONE, ZERO, Poly, X, is_squarefree
from dresidues.ratfun import RF_ZERO, RatFun
from dresidues.residues import (
    MultiResidues,
    TRIVIAL_PAIR,
    discrete_residues,
    discrete_residues_coordinated,
    discrete_residues_multi,
    first_residues,
    first_residues_multi,
)
from dresidues.shiftset import dispersion
from dresidues.summability import nullspace
from dresidues.testkit import build_from_spec, orbit_spec, random_orbit_spec, rational_roots

x = X


class TestFirstResidues:
    def test_single_pole(self):
        pair = first_residues(RatFun(ONE, x))
        assert pair.astuple() == (x, ONE)

    def test_golden(self, golden):
        pair = first_residues(golden["fbar1"])
        assert pair.places == golden["B1"]
        assert pair.values == golden["D1"]
        assert pair.values(-3) == Fraction(71, 5000)

    def test_irreducible_quadratic(self):
        pair = first_residues(RatFun(ONE, x**2 + 1))
        assert pair.places == x**2 + 1
        assert pair.values == -x * Fraction(1, 2)
        # r * db/dx = a (mod b), re-verified
        assert (pair.values * Poly([0, 2]) - ONE) % (x**2 + 1) == ZERO

    def test_zero_convention(self):
        assert first_residues(RF_ZERO) == TRIVIAL_PAIR

    def test_rejects_non_squarefree(self):
        with pytest.raises(DomainError):
            first_residues(RatFun(ONE, x**2))

    def test_congruence_random(self):
        rng = random.Random(131)
        for _ in range(25):
            f = build_from_spec(random_orbit_spec(rng, max_orbits=4, max_order=1))
            if f.is_zero:
                continue
            pair = first_residues(f)
            assert (pair.values * pair.places.derivative() - f.num) % pair.places == ZERO
            assert pair.values.degree < pair.places.degree


class TestFirstResiduesMulti:
    def test_singleton(self):
        big, ps = first_residues_multi([RatFun(ONE, x)])
        assert big == x and ps == [ONE]

    def test_crt_pair(self):
        big, ps = first_residues_multi([RatFun(ONE, x), RatFun(ONE, x + 1)])
        assert big == x * (x + 1)
        assert ps[0](0) == 1 and ps[0](-1) == 0
        assert ps[1](-1) == 1 and ps[1](0) == 0
        assert ps[0] == x + 1 and ps[1] == -x

    def test_all_zero(self):
        assert first_residues_multi([RF_ZERO, RF_ZERO]) == (ONE, [ZERO, ZERO])

    def test_crt_conditions_random(self):
        rng = random.Random(137)
        for _ in range(15):
            fs = [
                build_from_spec(random_orbit_spec(rng, max_orbits=3, max_order=1))
                for _ in range(rng.randint(1, 4))
            ]
            big, ps = first_residues_multi(fs)
            for f, p in zip(fs, ps):
                if f.is_zero:
                    assert p.is_zero
                    continue
                assert p.is_zero or p.degree < big.degree
                assert (p * f.den.derivative() - f.num) % f.den == ZERO
                cof = big.exact_div(f.den)
                if cof != ONE:
                    assert p % cof == ZERO


def _rational_numerator(rng, den):
    """A random nonzero numerator of degree below deg(den), with
    non-integral rational coefficients."""
    num = ZERO
    while num.is_zero:
        num = Poly([Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(rng.randint(1, den.degree))])
    return num


def _simple_pole_tuples():
    """Seeded tuples of proper simple-pole functions: rational poles,
    integer shifts of irreducible quadratics, shared and disjoint factors,
    rational numerators and zero functions."""
    rng = random.Random(2025)
    quadratics = [x**2 + 1, x**2 + 2, x**2 + x + 1, x**2 - 3]
    linears = [x, x - Fraction(1, 2), x + Fraction(1, 3)]
    tuples = []
    for _ in range(25):
        fs = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.random()
            if kind < 0.15:
                fs.append(RF_ZERO)
            elif kind < 0.4:
                fs.append(build_from_spec(random_orbit_spec(rng, max_orbits=3, max_order=1)))
            else:
                pool = rng.sample(quadratics, 2) + rng.sample(linears, 2)
                den = ONE
                for q in rng.sample(pool, rng.randint(1, 3)):
                    den = den * q.shift(rng.randint(-2, 2))
                if not is_squarefree(den):
                    continue
                fs.append(RatFun(_rational_numerator(rng, den), den))
        if fs:
            tuples.append(fs)
    tuples.append([RF_ZERO])
    tuples.append([RF_ZERO, RF_ZERO, RF_ZERO])
    tuples.append([RatFun(ONE, x**2 + 1), RatFun(x, (x**2 + 1) * (x - 2)), RF_ZERO])
    return tuples


class TestOneTragerInverse:
    """The one-inverse map against per-function Trager inverses plus CRT."""

    @pytest.fixture(scope="class")
    def tuples(self):
        return _simple_pole_tuples()

    def test_multi_matches_reference(self, tuples):
        for fs in tuples:
            big, ps = first_residues_multi(fs)
            ref_big, ref_ps = ref_first_residues_multi(fs)
            assert big.coeffs == ref_big.coeffs, fs
            assert [p.coeffs for p in ps] == [p.coeffs for p in ref_ps], fs

    def test_single_matches_reference(self, tuples):
        for f in (f for fs in tuples for f in fs):
            pair, ref = first_residues(f), ref_first_residues(f)
            assert (pair.places.coeffs, pair.values.coeffs) == (ref.places.coeffs, ref.values.coeffs), f

    def test_inputs_cover_the_cases(self, tuples):
        fs = [f for t in tuples for f in t]
        assert any(f.is_zero for f in fs)
        assert any(len(rational_roots(f.den)) < f.den.degree for f in fs)
        assert any(c.denominator != 1 for f in fs for c in f.num.coeffs)
        assert any(len(t) > 1 and polys.lcm_all(f.den for f in t).degree < sum(f.den.degree for f in t) for t in tuples)

    def test_one_inverse_per_call(self, monkeypatch, tuples):
        calls = []
        original = polys.inverse_mod

        def counted(a, m):
            calls.append(m)
            return original(a, m)

        monkeypatch.setattr(polys, "inverse_mod", counted)
        for fs in tuples:
            calls.clear()
            big, _ = first_residues_multi(fs)
            assert len(calls) == (0 if big.is_constant else 1), fs
        assert any(sum(not f.is_zero for f in fs) > 1 for fs in tuples)

    def test_rejects_non_proper_and_non_squarefree(self):
        with pytest.raises(DomainError):
            first_residues_multi([RatFun(ONE, x), RatFun(x**2, x + 1)])
        with pytest.raises(DomainError):
            first_residues_multi([RatFun(ONE, x + 1), RatFun(ONE, x**2)])


class TestDiscreteResidues:
    def test_layers_skip_the_squarefree_check(self, monkeypatch, golden):
        # Hermite layers are squarefree by construction; only the public
        # reduction functions test it.
        calls = []
        original = polys.is_squarefree

        def counted(p):
            calls.append(p)
            return original(p)

        monkeypatch.setattr(polys, "is_squarefree", counted)
        f = golden["f"]
        assert discrete_residues(f)[0].places == golden["B1"]
        assert discrete_residues_coordinated(f)[0].places == golden["B1"]
        assert discrete_residues_multi([f, f.sigma()]).order_count == 3
        assert calls == []

    def test_golden_first_pair(self, golden):
        pairs = discrete_residues(golden["f"])
        assert pairs[0].places == golden["B1"]
        assert pairs[0].values == golden["D1"]

    def test_summable_input_all_trivial(self):
        f = RatFun(Poly([-1]), x).delta()  # 1/(x(x+1))
        assert all(p.is_trivial for p in discrete_residues(f))

    def test_double_pole(self):
        pairs = discrete_residues(RatFun(ONE, x**2))
        assert pairs[0] == TRIVIAL_PAIR
        assert pairs[1].astuple() == (x, ONE)

    def test_zero_gives_empty(self):
        assert discrete_residues(RF_ZERO) == []

    def test_rejects_non_proper(self):
        with pytest.raises(DomainError):
            discrete_residues(RatFun(x**2, x + 1))

    def test_oracle_equivalence_random(self):
        rng = random.Random(139)
        for _ in range(40):
            spec = random_orbit_spec(rng, max_orbits=4, max_order=3)
            f = build_from_spec(spec)
            if f.is_zero:
                continue
            assert_pairs_match_oracle(discrete_residues(f), spec)
            assert_pairs_match_oracle(discrete_residues_coordinated(f), spec)

    def test_structural_invariants_random(self):
        rng = random.Random(149)
        for _ in range(20):
            f = build_from_spec(random_orbit_spec(rng))
            if f.is_zero:
                continue
            for pair in discrete_residues(f):
                if pair.is_trivial:
                    assert pair.values.is_zero
                    continue
                assert is_squarefree(pair.places)
                assert pair.places.is_constant or dispersion(pair.places) == 0
                assert not pair.values.is_zero
                assert pair.values.degree < pair.places.degree

    def test_coordinated_shares_representatives(self, golden):
        pairs = discrete_residues_coordinated(golden["f"])
        # all three orders put the integer-orbit representative at the same
        # root set drawn from one divisor of initial roots
        nontrivial = [p for p in pairs if not p.is_trivial]
        for p in nontrivial:
            assert golden["b0"] % p.places == ZERO

    def test_linearity_via_vspace_membership(self):
        # dres is additive: (f, g, f+g) always admits the combination (1,1,-1).
        from dresidues.summability import vspace

        rng = random.Random(151)
        for _ in range(8):
            f = build_from_spec(random_orbit_spec(rng, max_orbits=3, max_order=2))
            g = build_from_spec(random_orbit_spec(rng, max_orbits=3, max_order=2))
            h = f + g
            if f.is_zero or g.is_zero or h.is_zero:
                continue
            basis = vspace([f, g, h])
            # (1, 1, -1) must lie in the span: residuals of solving must vanish
            rows = [[v[i] for v in basis] for i in range(3)]
            target = [Fraction(1), Fraction(1), Fraction(-1)]
            aug = [row + [t] for row, t in zip(rows, target)]
            # consistency check: rank of [rows] equals rank of [rows | target]
            assert len(nullspace(aug, ncols=len(basis) + 1)) > len(nullspace(rows, ncols=len(basis)))


class TestDiscreteResiduesMulti:
    def test_pair(self):
        md = discrete_residues_multi([RatFun(ONE, x), RatFun(ONE, x + 1)])
        assert md.places == x + 1
        assert md.values[0][0] == ONE and md.values[1][0] == ONE

    def test_mixed_orders(self):
        md = discrete_residues_multi([RatFun(ONE, x**2), RatFun(ONE, x)])
        assert md.places == x
        assert [d for d in md.values[0]] == [ZERO, ONE]
        assert [d for d in md.values[1]] == [ONE, ZERO]

    def test_singleton_consistent_with_single(self, golden):
        md = discrete_residues_multi([golden["f"]])
        assert md.values[0][0](-3) == Fraction(71, 5000)
        pairs = discrete_residues(golden["f"])
        # same orbit count at order 1 even if representatives differ
        assert md.places.degree >= pairs[0].places.degree

    def test_all_summable_degenerates_to_one(self):
        f = RatFun(Poly([-1]), x).delta()
        md = discrete_residues_multi([f, f])
        assert md.places == ONE
        assert all(d.is_zero for row in md.values for d in row)

    def test_zero_input_has_all_zero_values_row(self):
        md = discrete_residues_multi([RF_ZERO, RatFun(ONE, x**2)])
        assert md.places == x
        assert md.values == [[ZERO, ZERO], [ZERO, ONE]]
        md = discrete_residues_multi([RF_ZERO])
        assert md.places == ONE and md.values == [[]]

    def test_rejects_improper_input(self):
        with pytest.raises(DomainError):
            discrete_residues_multi([RatFun(x)])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            discrete_residues_multi([])

    def test_oracle_equivalence_random(self):
        rng = random.Random(157)
        for _ in range(15):
            specs = []
            fs = []
            for _ in range(rng.randint(1, 3)):
                spec = random_orbit_spec(rng, max_orbits=3, max_order=3)
                f = build_from_spec(spec)
                if not f.is_zero:
                    specs.append(spec)
                    fs.append(f)
            if not fs:
                continue
            md = discrete_residues_multi(fs)
            assert_multi_matches_oracle(md.places, md.values, specs)
            assert md.places == ONE or is_squarefree(md.places)
            if not md.places.is_constant:
                assert dispersion(md.places) == 0

    def test_shared_orbit_single_representative(self):
        # both functions have order-1 residues on the orbit of 0, plus private orbits
        f1 = build_from_spec(orbit_spec([(0, 1, 1), (Fraction(1, 2), 1, 2)]))
        f2 = build_from_spec(orbit_spec([(7, 1, 3)]))
        md = discrete_residues_multi([f1, f2])
        # orbit of 0 must appear exactly once among the roots of places
        from dresidues.testkit import rational_roots

        roots = rational_roots(md.places)
        integer_roots_found = [r for r in roots if r.denominator == 1]
        assert len(integer_roots_found) == 1
        root = integer_roots_found[0]
        assert md.values[0][0](root) == 1
        assert md.values[1][0](root) == 3


# Bases of the Z-orbits the common-denominator families draw poles from:
# rational roots, irreducible quadratics and irreducible cubics.
_BASES = (x - Fraction(1, 2), x + Fraction(1, 3), x**2 + 1, x**2 + x + 3, x**3 - 2, x**3 + x + 1)


def _random_term(rng, bases, max_order=3):
    """c/p(x+s)^k with p from bases and deg c < deg p."""
    p = rng.choice(bases)
    num = Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(p.degree - 1)] + [rng.randint(1, 4)])
    return RatFun(num, p.shift(rng.randint(0, 3)) ** rng.randint(1, max_order))


def _random_poly_below(rng, n):
    return Poly([Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)])


def _common_den_families():
    """Seeded (kind, family, cancelled base) triples for the common-denominator
    read-out of `discrete_residues_multi`, one kind per case it must keep
    exact; the base is None except for the "cancel" kind."""
    rng = random.Random(2323)
    out = []
    for _ in range(6):
        # shared: every input over one denominator
        den = ONE
        for _ in range(rng.randint(1, 3)):
            den = den * _random_term(rng, _BASES).den
        fs = [RatFun(_random_poly_below(rng, den.degree), den) for _ in range(rng.randint(2, 4))]
        out.append(("shared", fs, None))
        # disjoint: no orbit in common
        bases = rng.sample(_BASES, 4)
        out.append(("disjoint", [_random_term(rng, [p]) + _random_term(rng, [p]) for p in bases], None))
        # zero inputs among nonzero ones
        fs = [_random_term(rng, _BASES) + _random_term(rng, _BASES) for _ in range(3)]
        out.append(("zero", fs[:1] + [RF_ZERO] + fs[1:] + [RF_ZERO], None))
        # inputs that lack the top pole order
        top = _random_term(rng, _BASES, 1) + RatFun(ONE, rng.choice(_BASES) ** 3)
        out.append(("low-order", [top] + [_random_term(rng, _BASES, 1) for _ in range(3)], None))
        # all summable: places = 1
        out.append(("summable", [_random_term(rng, _BASES).delta() for _ in range(rng.randint(2, 4))], None))
        # one orbit, that of p, cancels for every input, so places != initial
        p, *rest = rng.sample(_BASES, 4)
        fs = [_random_term(rng, rest) + _random_term(rng, [p]).delta() for _ in range(rng.randint(2, 4))]
        out.append(("cancel", fs, p))
    out += [("all-zero", [RF_ZERO], None), ("all-zero", [RF_ZERO] * 3, None)]
    return out


def _lcm_grouping(fs):
    """`residues._groups` forced over L = lcm of the denominators (no group when no input has a pole)."""
    big = polys.lcm_all(f.den for f in fs)
    return {big: [f.num * big.exact_div(f.den) for f in fs]} if big.degree else {}


def _per_den_grouping(fs):
    """`residues._groups` forced per distinct denominator."""
    return {den: [f.num if f.den == den else ZERO for f in fs] for den in dict.fromkeys(f.den for f in fs if not f.is_zero)}


def _each_grouping(fs, monkeypatch):
    """`discrete_residues_multi(fs)` with the grouping it chooses, then with each grouping forced."""
    out = [discrete_residues_multi(fs)]
    for grouping in (_lcm_grouping, _per_den_grouping):
        with monkeypatch.context() as patch:
            patch.setattr(residues, "_groups", grouping)
            out.append(discrete_residues_multi(fs))
    return out


class TestCommonDenominator:
    """`discrete_residues_multi` reads inputs that share most of their
    denominator over one common denominator (`residues._groups`); places and
    values are canonical, so on every family, whichever grouping it takes,
    both equal the per-function reference pipeline's exactly."""

    @pytest.fixture(scope="class")
    def families(self):
        return _common_den_families()

    def test_matches_per_function_reference(self, families, monkeypatch):
        for kind, fs, _ in families:
            ref = ref_discrete_residues_multi(fs)
            for md in _each_grouping(fs, monkeypatch):
                assert (md.places, md.values) == (ref.places, ref.values), (kind, fs)

    def test_families_cover_the_cases(self, families):
        by_kind = {}
        for kind, fs, _ in families:
            by_kind.setdefault(kind, []).append(discrete_residues_multi(fs))
        assert all(md.places == ONE for md in by_kind["summable"])
        assert all(md.places == ONE and md.values == [[]] * len(md.values) for md in by_kind["all-zero"])
        assert any(md.places.degree >= 2 for md in by_kind["shared"])
        assert all(any(row == [ZERO] * md.order_count for row in md.values) for md in by_kind["zero"])
        assert all(md.order_count == 3 and md.values[1][2].is_zero for md in by_kind["low-order"])
        for kind, fs, p in families:
            if kind == "cancel":
                # p's orbit holds poles of the inputs, so one of its roots is
                # initial, but no root of places
                orbit = [p.shift(s) for s in range(-1, 6)]
                assert any(polys.gcd(f.den, q) != ONE for f in fs for q in orbit)
                assert all(polys.gcd(discrete_residues_multi(fs).places, q) == ONE for q in orbit)

    def test_one_yun_and_one_shift_set_per_call(self, monkeypatch):
        """Yun and the shift set run once on inputs over mostly one
        denominator; inputs with no pole in common take one Yun each."""
        calls = {"squarefree_decomposition": 0, "shift_set": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(p):
                calls[name] += 1
                return original(p)

            monkeypatch.setattr(module, name, wrapper)

        counted(polys, "squarefree_decomposition")
        counted(shiftset, "shift_set")
        den = x**2 * (x + 1) * (x**2 + 1) ** 2
        fs = [RatFun(ONE, den), RatFun(x, den * (x + 3)), RatFun(x**3 + 2, x**2 * (x**2 + 1) ** 2)]
        discrete_residues_multi(fs)
        assert calls == {"squarefree_decomposition": 1, "shift_set": 1}
        calls.update(squarefree_decomposition=0, shift_set=0)
        fs = [RatFun(ONE, x**2 * (x + 1)), RatFun(x, (x**2 + 1) ** 3 * (x + 3)), RatFun(ONE, (x + Fraction(1, 2)) ** 2)]
        discrete_residues_multi(fs)
        assert calls == {"squarefree_decomposition": 3, "shift_set": 1}


def _pole(rng, p, k):
    """c/p^k with c nonzero of degree below deg p."""
    num = Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(p.degree - 1)] + [rng.randint(1, 4)])
    return RatFun(num, p**k)


def _remainder_families():
    """Seeded (kind, family) pairs for the read-out of Hermite remainders at
    the Z-orbits, one kind per case that read-out must keep exact."""
    rng = random.Random(2424)
    cubics = [b for b in _BASES if b.degree == 3]
    out = []
    for _ in range(4):
        # split: the poles c/p(x+s)^k, s in shifts, fall in one Yun class
        # whose roots lie at two or more shifts from initial roots
        p, *rest = rng.sample(_BASES, 3)
        shifts, k = rng.sample(range(5), rng.randint(2, 3)), rng.randint(1, 3)
        fs = [sum((_pole(rng, p.shift(s), k) for s in shifts), _random_term(rng, rest)) for _ in range(rng.randint(2, 4))]
        out.append(("split", fs))
        # no-simple: every pole of order 2 or 3, so no class of multiplicity 1
        fs = [sum((_pole(rng, rng.choice(_BASES).shift(rng.randint(0, 3)), rng.randint(2, 3)) for _ in range(2)), RF_ZERO) for _ in range(3)]
        out.append(("no-simple", fs))
        # cubic: irreducible cubic orbits only
        out.append(("cubic", [_random_term(rng, cubics) + _random_term(rng, cubics) for _ in range(rng.randint(2, 4))]))
        # zero: zero inputs among nonzero ones
        fs = [_random_term(rng, _BASES) + _random_term(rng, _BASES) for _ in range(2)]
        out.append(("zero", [RF_ZERO, fs[0], RF_ZERO, fs[1]]))
        # same-den: two inputs over one denominator, two over orbits of their own
        own = rng.sample(_BASES, 2)
        other = [b for b in _BASES if b not in own]
        den = _pole(rng, own[0], rng.randint(1, 3)).den * _pole(rng, own[1].shift(rng.randint(1, 3)), rng.randint(1, 3)).den
        fs = [RatFun(_random_poly_below(rng, den.degree), den) for _ in range(2)]
        out.append(("same-den", fs + [_random_term(rng, other) + _random_term(rng, other) for _ in range(2)]))
    out.append(("all-zero", [RF_ZERO, RF_ZERO]))
    return out


def _radical(p):
    return math.prod((q for q, _ in polys.squarefree_decomposition(p).factors), start=ONE)


class TestHermiteRemainders:
    """Both groupings of `discrete_residues_multi` (`residues._groups`), over
    the lcm and per distinct denominator, read each part r/q of a Hermite
    remainder through its Trager polynomial and sum it over each Z-orbit;
    places and values are canonical, so on every family both equal the
    per-function reference pipeline's exactly."""

    @pytest.fixture(scope="class")
    def families(self):
        return _remainder_families()

    def test_both_branches_match_reference(self, families, monkeypatch):
        for kind, fs in families:
            ref = ref_discrete_residues_multi(fs)
            for md in _each_grouping(fs, monkeypatch):
                assert (md.places, md.values) == (ref.places, ref.values), (kind, fs)

    def test_families_cover_the_cases(self, families):
        by_kind = {}
        for kind, fs in families:
            by_kind.setdefault(kind, []).append(fs)
        for fs in by_kind["split"]:
            big = polys.lcm_all(f.den for f in fs)
            moved = reduction._orbits(_radical(big))[3]
            splits = [reduction._orbit_split(q, moved) for q, _ in polys.squarefree_decomposition(big).factors]
            assert any(sum(not f.is_constant for f in split.values()) >= 2 for split in splits)
        for fs in by_kind["no-simple"]:
            dens = [f.den for f in fs] + [polys.lcm_all(f.den for f in fs)]
            assert all(i >= 2 for den in dens for _, i in polys.squarefree_decomposition(den).factors)
        assert all(polys.lcm_all(f.den for f in fs).degree % 3 == 0 for fs in by_kind["cubic"])
        assert any(discrete_residues_multi(fs).places.degree >= 3 for fs in by_kind["cubic"])
        for fs in by_kind["zero"]:
            md = discrete_residues_multi(fs)
            assert md.values[0] == md.values[2] == [ZERO] * md.order_count
        assert [discrete_residues_multi(fs) for fs in by_kind["all-zero"]] == [MultiResidues(ONE, [[], []])]
        for fs in by_kind["same-den"]:
            assert fs[0].den == fs[1].den != fs[2].den
            # the path rule of `discrete_residues_multi` picks the per-function branch
            assert len(fs) * polys.lcm_all(f.den for f in fs).degree >= 2 * sum(f.den.degree for f in fs)

    def test_one_yun_per_distinct_denominator(self, families, monkeypatch):
        calls = []
        original = polys.squarefree_decomposition
        monkeypatch.setattr(polys, "squarefree_decomposition", lambda p: calls.append(p) or original(p))
        for kind, fs in families:
            if kind == "same-den":
                calls.clear()
                discrete_residues_multi(fs)
                assert len(calls) == len({f.den for f in fs}) == 3


def _readout_inputs():
    """Seeded (kind, f) pairs for the two single-function pipelines, one kind
    per case their read-out of the Hermite remainders must keep exact."""
    rng = random.Random(2525)
    quadratics = [b for b in _BASES if b.degree == 2]
    cubics = [b for b in _BASES if b.degree == 3]
    out = []
    for _ in range(4):
        # poles on orbits of irreducible quadratics and cubics, at two or more shifts each
        for kind, bases in (("quadratic", quadratics), ("cubic", cubics)):
            p = rng.choice(bases)
            shifts = rng.sample(range(4), rng.randint(2, 3))
            out.append((kind, sum((_pole(rng, p.shift(s), rng.randint(1, 3)) for s in shifts), _random_term(rng, bases))))
        # interior zero layer: (r/q)'' has only order-3 poles, plus simple poles
        g = _random_term(rng, _BASES, 1) + _random_term(rng, _BASES, 1)
        out.append(("zero-layer", g.derivative().derivative() + _random_term(rng, _BASES, 1)))
        # summable top layer: h = Delta(c/p) is summable and h'' has top layer 2h
        h = _random_term(rng, _BASES, 1).delta()
        out.append(("summable-top", h.derivative().derivative() + _random_term(rng, _BASES, 2)))
        # the orbit's leftmost pole has order 1 only, so order 2 sits further right
        p = rng.choice(_BASES)
        s = rng.randint(1, 3)
        other = _random_term(rng, [b for b in _BASES if b != p])
        out.append(("leftmost", _pole(rng, p.shift(s), 1) + _pole(rng, p, 2) + other))
        out.append(("random", build_from_spec(random_orbit_spec(rng, max_orbits=4, max_order=3))))
    for p in _BASES:
        # (c/q)' has no order-1 residue, so on the class p(x+s)·p the order-1 t vanishes at the roots of p(x+s)
        g = _pole(rng, p.shift(rng.randint(1, 3)), 1) + _pole(rng, p, 1)
        out.append(("cut", g.derivative() + _pole(rng, p, 1)))
    return out


class TestOneResidueReadout:
    """`discrete_residues` and `discrete_residues_coordinated` read the Hermite
    remainders at the Z-orbits (`_orbit_residues`); places and values are
    canonical, so on every input both equal the reduced-layer reference
    pipeline's exactly."""

    @pytest.fixture(scope="class")
    def inputs(self):
        return _readout_inputs()

    def test_matches_reference(self, inputs):
        for kind, f in inputs:
            assert discrete_residues(f) == ref_discrete_residues(f, False), (kind, f)
            assert discrete_residues_coordinated(f) == ref_discrete_residues(f, True), (kind, f)

    def test_inputs_cover_the_cases(self, inputs):
        by_kind = {}
        for kind, f in inputs:
            by_kind.setdefault(kind, []).append(f)
        for kind, degree in (("quadratic", 2), ("cubic", 3)):
            assert all(f.den.degree % degree == 0 for f in by_kind[kind])
            assert any(len(hermite_list(f)) >= 2 for f in by_kind[kind])
        for f in by_kind["zero-layer"]:
            layers = hermite_list(f)
            assert len(layers) == 3 and layers[1].is_zero and not layers[0].is_zero
        for f in by_kind["summable-top"]:
            assert len(hermite_list(f)) == 3
            assert discrete_residues(f)[2] == discrete_residues_coordinated(f)[2] == TRIVIAL_PAIR
        for f in by_kind["leftmost"]:
            assert discrete_residues(f)[1].places != discrete_residues_coordinated(f)[1].places
        assert any(not pair.is_trivial for f in by_kind["random"] for pair in discrete_residues(f))
        for f in by_kind["cut"]:
            (row,), _ = hermite._remainders([f.num], f.den)
            assert any(not t.is_zero and not polys.gcd(t, q).is_constant for t, q in row[0])
            assert discrete_residues(f)[0].places != discrete_residues_coordinated(f)[0].places

    @staticmethod
    def _counted(monkeypatch):
        """Count Yun, the shift set and Hermite layers, `hermite_list` also by
        name in `residues` should it be imported there again."""
        calls = {"squarefree_decomposition": 0, "shift_set": 0, "hermite_list": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(p):
                calls[name] += 1
                return original(p)

            monkeypatch.setattr(module, name, wrapper)

        counted(polys, "squarefree_decomposition")
        counted(shiftset, "shift_set")
        counted(hermite, "hermite_list")
        monkeypatch.setattr(residues, "hermite_list", hermite.hermite_list, raising=False)
        return calls

    def test_one_yun_and_one_shift_set_per_call(self, monkeypatch, golden):
        """The coordinated pipeline runs Yun and the shift set once each and
        builds no Hermite layers."""
        calls = self._counted(monkeypatch)
        for f in (golden["f"], RatFun(x, (x**2 + 1) ** 3 * ((x + 2) ** 2 + 1) * x**2)):
            calls.update(squarefree_decomposition=0, shift_set=0, hermite_list=0)
            discrete_residues_coordinated(f)
            assert calls == {"squarefree_decomposition": 1, "shift_set": 1, "hermite_list": 0}

    def test_per_order_one_yun_per_call(self, monkeypatch, golden, inputs):
        """The per-order pipeline runs Yun once, builds no Hermite layers and
        takes one shift set per nonzero layer."""
        fs = [golden["f"]] + [f for _, f in inputs]
        rows = [hermite._remainders([f.num], f.den)[0][0] for f in fs]
        nonzero = [sum(any(not t.is_zero for t, _ in layer) for layer in row) for row in rows]
        calls = self._counted(monkeypatch)
        for f, layers in zip(fs, nonzero):
            calls.update(squarefree_decomposition=0, shift_set=0, hermite_list=0)
            discrete_residues(f)
            assert calls == {"squarefree_decomposition": 1, "shift_set": layers, "hermite_list": 0}, f
