import math
import random
from fractions import Fraction

import pytest
from conftest import ref_setup, yun_inputs

from dresidues import hermite, polys, residues, summability
from dresidues.errors import DomainError, InternalError
from dresidues.hermite import hermite_list, hermite_reduction
from dresidues.polys import ONE, ZERO, Poly, X, is_squarefree, squarefree_decomposition
from dresidues.ratfun import RF_ZERO, RatFun
from dresidues.testkit import build_from_spec, random_orbit_spec, random_poly

x = X


# -- reference: the iterated reduction on whole denominators --------------------


def ref_hermite_reduction(f):
    """Hermite reduction over the whole denominator, one squarefree
    decomposition per call and a gcd-normalised g; a test-only reference."""
    if f.is_zero:
        return RF_ZERO, RF_ZERO
    entries = list(squarefree_decomposition(f.den).factors)
    g = RF_ZERO
    num = f.num
    while entries and max(m for _, m in entries) > 1:
        j = max(m for _, m in entries)
        v = ONE
        u = ONE
        lower = []
        for q, m in entries:
            if m == j:
                v = v * q
            else:
                u = u * q**m
                lower.append((q, m))
        dv = v.derivative()
        b = (num * polys.inverse_mod(u * dv, v)) % v
        c = (num - b * u * dv).exact_div(v)
        scale = Fraction(1, j - 1)
        g = g + RatFun(-b * scale, v ** (j - 1))
        num = u * b.derivative() * scale + c
        entries = lower + [(v, j - 1)]
    den = ONE
    for q, m in entries:
        den = den * q**m
    return g, RatFun(num, den)


def ref_hermite_list(f):
    """Layers by iterating `ref_hermite_reduction` on each new g."""
    hats = []
    g = f
    while not g.is_zero:
        g, h = ref_hermite_reduction(g)
        hats.append(h)
    return [h * (Fraction(-1) ** k * math.factorial(k)) for k, h in enumerate(hats)]


def reconstruct(layers):
    """f from its layers via the alternating-derivative identity."""
    acc = RF_ZERO
    for k, fk in enumerate(layers, 1):
        d = fk
        for _ in range(k - 1):
            d = d.derivative()
        acc = acc + d * (Fraction(-1) ** (k - 1) / math.factorial(k - 1))
    return acc


class TestHermiteReduction:
    def test_pure_double_pole(self):
        g, h = hermite_reduction(RatFun(ONE, x**2))
        assert g == RatFun(Poly([-1]), x) and h.is_zero

    def test_already_squarefree(self):
        g, h = hermite_reduction(RatFun(ONE, x))
        assert g.is_zero and h == RatFun(ONE, x)

    def test_golden_first_layer(self, golden):
        g, h = hermite_reduction(golden["f"])
        assert h == golden["layers"][0]
        assert g.derivative() + h == golden["f"]

    def test_rejects_non_proper(self):
        with pytest.raises(DomainError):
            hermite_reduction(RatFun(x**2, x))

    def test_contract_random(self):
        rng = random.Random(57)
        for _ in range(25):
            f = build_from_spec(random_orbit_spec(rng, max_orbits=3, max_order=4))
            if f.is_zero:
                continue
            g, h = hermite_reduction(f)
            assert g.derivative() + h == f
            assert g.is_proper and h.is_proper
            assert h.is_zero or is_squarefree(h.den)


class TestHermiteList:
    def test_golden_layers_verbatim(self, golden):
        assert hermite_list(golden["f"]) == golden["layers"]

    def test_simple_pole_is_its_own_layer(self):
        f = RatFun(ONE, x)
        assert hermite_list(f) == [f]

    def test_interior_zero_layer(self):
        # 1/x^2 has no order-1 residues: forced layers (0, 1/x).
        layers = hermite_list(RatFun(ONE, x**2))
        assert layers == [RF_ZERO, RatFun(ONE, x)]
        assert reconstruct(layers) == RatFun(ONE, x**2)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            hermite_list(RF_ZERO)

    def test_reconstruction_and_shape_random(self):
        rng = random.Random(63)
        for _ in range(30):
            f = build_from_spec(random_orbit_spec(rng, max_orbits=4, max_order=4))
            if f.is_zero:
                continue
            layers = hermite_list(f)
            assert reconstruct(layers) == f
            assert not layers[-1].is_zero
            for layer in layers:
                assert layer.is_proper
                assert layer.is_zero or is_squarefree(layer.den)
            assert len(layers) == max((m for _, m in squarefree_decomposition(f.den).factors), default=0)


def _rational_poly(rng, degree):
    """Random polynomial with non-integral, non-primitive rational coefficients."""
    return Poly([Fraction(rng.randint(-40, 40), rng.randint(1, 9)) * rng.choice((2, 6, 10)) for _ in range(degree + 1)])


def _numerator_over(rng, den):
    """A random numerator of degree below deg(den), nonzero."""
    num = ZERO
    while num.is_zero:
        num = _rational_poly(rng, rng.randint(0, den.degree - 1))
    return num


def _differential_inputs():
    rng = random.Random(2024)
    quadratics = [x**2 + 1, x**2 + 2, x**2 + x + 1, x**2 + 4 * x + 5, x**2 - 3]
    cubics = [x**3 - 2, x**3 + x + 1, x**3 - 3 * x + 1]
    fs = []
    # testkit specs: rational poles in several orbits, orders up to 5
    for _ in range(12):
        f = build_from_spec(random_orbit_spec(rng, max_orbits=4, max_order=5))
        if not f.is_zero:
            fs.append(f)
    # algebraic poles: irreducible quadratic and cubic factors, with multiplicities
    for _ in range(10):
        den = ONE
        for q in rng.sample(quadratics, 2) + rng.sample(cubics, 1):
            den = den * q.shift(rng.randint(-3, 3)) ** rng.randint(1, 4)
        fs.append(RatFun(_numerator_over(rng, den), den))
    # multiplicity gaps: only some classes exist
    for den in (x**4 * (x**2 + 2), x**5 * (x - 1) ** 2, (x**2 + 1) ** 6 * (x + 3), x**7 * (x**3 - 2) ** 3 * (x + 1)):
        fs.append(RatFun(ONE, den))
        fs.append(RatFun(_numerator_over(rng, den), den))
    # one class of order up to 10
    for m in range(2, 11):
        for q in (x - Fraction(1, 3), x**2 + 1, (x - 1) * (x + 2), x**3 + x + 1):
            den = q**m
            fs.append(RatFun(_numerator_over(rng, den), den))
    # rational, non-primitive numerators over mixed denominators
    for _ in range(10):
        den = random_poly(rng, 2).monic() ** rng.randint(1, 3) * (x - rng.randint(-5, 5)) ** rng.randint(1, 4)
        fs.append(RatFun(_numerator_over(rng, den), den))
    # multiplicity 20 to 40, one class alone and beside lower classes; numerators
    # of degree below 6 keep the whole-denominator reference fast
    for den in ((x + 2) ** 40, (x**2 + 1) ** 20, x**25 * (x - 1), (x - 1) ** 3 * (x**2 + x + 1) ** 20, x * (x + 3) ** 2 * (x - 2) ** 30):
        fs.append(RatFun(_numerator_over(rng, x**6), den))
    return fs


def reconstruct_horner(layers):
    """f from its layers by f = sum_k (-1)^(k-1)/(k-1)! d^(k-1) f_k in Horner
    form: acc = f_k - acc'/k for k = m, ..., 1."""
    acc = RF_ZERO
    for k in range(len(layers), 0, -1):
        acc = layers[k - 1] - acc.derivative() * Fraction(1, k)
    return acc


def _high_multiplicity_inputs():
    """The multiplicity 20-40 shapes of `_differential_inputs` with numerators
    of full degree, too slow for the whole-denominator reference."""
    rng = random.Random(4040)
    fs = []
    for den in ((x + 2) ** 40, (x**2 + 1) ** 20, x**25 * (x - 1), (x - 1) ** 3 * (x**2 + x + 1) ** 20, x * (x + 3) ** 2 * (x - 2) ** 30):
        num = _rational_poly(rng, den.degree - 1)
        fs.append(RatFun(num, den))
    return fs


class TestHighMultiplicity:
    def test_layers_satisfy_the_derivative_identity(self):
        for f in _high_multiplicity_inputs():
            assert f.num.degree == f.den.degree - 1, f
            layers = hermite_list(f)
            assert len(layers) == max((m for _, m in squarefree_decomposition(f.den).factors), default=0)
            assert not layers[-1].is_zero
            for layer in layers:
                assert layer.is_proper and (layer.is_zero or is_squarefree(layer.den))
            assert reconstruct_horner(layers) == f


class TestDifferential:
    """The per-class core against the whole-denominator reference."""

    @pytest.fixture(scope="class")
    def inputs(self):
        return _differential_inputs()

    def test_layers_match_reference(self, inputs):
        for f in inputs:
            ref = ref_hermite_list(f)
            got = hermite_list(f)
            assert len(got) == len(ref), f
            for k, (a, b) in enumerate(zip(got, ref)):
                assert a.num.coeffs == b.num.coeffs and a.den.coeffs == b.den.coeffs, (f, k)

    def test_reduction_matches_reference(self, inputs):
        for f in inputs:
            assert hermite_reduction(f) == ref_hermite_reduction(f), f

    def test_inputs_cover_the_cases(self, inputs):
        shapes = [squarefree_decomposition(f.den).factors for f in inputs]
        assert any(max(m for _, m in s) == 10 for s in shapes)
        assert any([m for _, m in s] == [1, 4] for s in shapes)
        assert any(q.degree == 3 and m > 1 for s in shapes for q, m in s)
        assert any(c.denominator != 1 for f in inputs for c in f.num.coeffs)
        assert any(len(s) == 1 and s[0][1] >= 20 for s in shapes)
        assert any(len(s) > 1 and max(m for _, m in s) >= 20 for s in shapes)


class TestSetupOnIntegerLists:
    @staticmethod
    def _tuples(setup):
        per_class, simple = setup
        return [(q, i, cof, (tuple(dq[0]), dq[1]), t, s) for q, i, cof, dq, t, s in per_class], simple

    def test_matches_reference(self, golden):
        dens = [golden["f"].den] + [f.den for f in _differential_inputs()]
        dens += [p.monic() for p in yun_inputs() if not p.is_constant]
        for den in dens:
            assert self._tuples(hermite._setup(den)) == self._tuples(ref_setup(den)), den


class TestSmallDivisions:
    def test_steps_divide_below_twice_deg_q(self, monkeypatch):
        """Every division in a Hermite step has a dividend of degree below 2 deg q - 1."""
        rng = random.Random(11)
        qs = (x - Fraction(1, 3), x**2 + 1, (x - 1) * (x + 2), x**3 + x + 1)
        fs = []
        for e in range(2, 11):
            for q in qs:
                fs.append(RatFun(_numerator_over(rng, q**e), q**e))
            q, r = rng.sample(qs, 2)
            den = q**e * r ** rng.randint(1, 3)
            fs.append(RatFun(_numerator_over(rng, den), den))
        divisions, inside = [], []
        divrem, reduce = polys._divrem_int, hermite._reduce

        def recorded_divrem(a, b):
            if inside:
                divisions.append((len(a) - 1, len(b) - 1))
            return divrem(a, b)

        def flagged_reduce(*args):
            inside.append(True)
            try:
                return reduce(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(polys, "_divrem_int", recorded_divrem)
        monkeypatch.setattr(hermite, "_reduce", flagged_reduce)
        for f in fs:
            hermite_list(f)
            hermite_reduction(f)
        assert divisions
        large = [(d, dq) for d, dq in divisions if d >= 2 * dq - 1]
        assert not large, large[:5]


class TestOneDecomposition:
    def test_one_squarefree_decomposition_per_call(self, monkeypatch, golden):
        calls = []
        original = polys.squarefree_decomposition

        def counted(p):
            calls.append(p)
            return original(p)

        monkeypatch.setattr(polys, "squarefree_decomposition", counted)
        inputs = [golden["f"], RatFun(ONE, x**10), RatFun(ONE, x), RatFun(x, (x**2 + 1) ** 3 * (x - 1))]
        for f in inputs:
            hermite_list(f)
        assert len(calls) == len(inputs)
        calls.clear()
        for f in inputs:
            hermite_reduction(f)
        assert len(calls) == len(inputs)


class TestExactOrException:
    """Each consistency check of `hermite_list` fires when the core misbehaves."""

    @staticmethod
    def _drop_g(monkeypatch):
        original = hermite._reduce

        def drops_g(q, e, n, dq, s):
            return [], original(q, e, n, dq, s)[1]

        monkeypatch.setattr(hermite, "_reduce", drops_g)

    def test_layer_count_below_pole_order(self, monkeypatch):
        self._drop_g(monkeypatch)
        with pytest.raises(InternalError, match="layers for a pole of order 3"):
            hermite_list(RatFun(ONE, x**3 * (x + 1)))

    @pytest.mark.parametrize(
        "call",
        [
            residues.discrete_residues_coordinated,
            residues.discrete_residues,
            lambda f: residues.discrete_residues_multi([f, RatFun(ONE, x + 1)]),
            summability.is_summable,
            lambda f: summability.is_summable(f, True),
        ],
        ids=["coordinated", "per-order", "multi", "summable", "certificate"],
    )
    def test_layer_count_checked_for_every_reader(self, monkeypatch, call):
        """The count is checked where the layers are made (`_remainders`), so the pipelines that read
        the remainders without `hermite_list` cannot return an answer from a dropped layer."""
        self._drop_g(monkeypatch)
        with pytest.raises(InternalError, match="layers for a pole of order 3"):
            call(RatFun(ONE, x**3 * (x + 1)))

    def test_last_layer_zero(self, monkeypatch):
        original = hermite._reduce

        def loses_last(q, e, n, dq, s):
            g, r = original(q, e, n, dq, s)
            return g, (ZERO if e == 1 else r)

        monkeypatch.setattr(hermite, "_reduce", loses_last)
        with pytest.raises(InternalError, match="last Hermite layer is zero"):
            hermite_list(RatFun(ONE, x**2))
