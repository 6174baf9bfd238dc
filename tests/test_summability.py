import math
import random
from fractions import Fraction

import pytest

from conftest import count_calls, random_dispersion_zero, random_matrices, random_summable, ref_reduce, ref_vspace

from dresidues import galois, hermite, polys, reduction, residues, shiftset, summability
from dresidues.errors import DomainError
from dresidues.galois import _integer_row, hermite_normal_form
from dresidues.hermite import hermite_list
from dresidues.polys import ONE, ZERO, Poly, X, integer_roots, lcm_all
from dresidues.ratfun import RF_ZERO, RatFun
from dresidues.summability import _assemble, is_summable, nullspace, poly_antidifference, vspace
from dresidues.testkit import build_from_spec, random_orbit_spec, random_poly

x = X


def ref_nullspace(rows, ncols):
    """Right nullspace by fraction-free (Bareiss) elimination and
    back-substitution, leading entry 1; a test-only reference."""
    mat = []
    for row in rows:
        scale = 1
        for c in row:
            scale = scale * Fraction(c).denominator // math.gcd(scale, Fraction(c).denominator)
        ints = [int(Fraction(c) * scale) for c in row]
        if any(ints):
            mat.append(ints)
    pivots = []
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot_row = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        for i in range(rank + 1, len(mat)):
            for j in range(col + 1, ncols):
                mat[i][j] = (mat[rank][col] * mat[i][j] - mat[i][col] * mat[rank][j]) // prev
            mat[i][col] = 0
        prev = mat[rank][col]
        pivots.append((rank, col))
        rank += 1
    pivot_cols = [c for _, c in pivots]
    basis = []
    for free in (c for c in range(ncols) if c not in pivot_cols):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, c in reversed(pivots):
            t = sum((Fraction(mat[r][j]) * vec[j] for j in range(c + 1, ncols)), Fraction(0))
            vec[c] = -t / mat[r][c]
        lead = next(c for c in vec if c != 0)
        basis.append([c / lead for c in vec])
    return basis


def _large_matrices(rng, count):
    """Seeded m x (m + 3) matrices, m = 6..9, of integer and rational entries up
    to 10^6, some rows integer combinations of others."""
    out = []
    for k in range(count):
        m = 6 + k % 4
        n = m + 3

        def entry():
            num = rng.randint(-(10**6), 10**6)
            return Fraction(num, rng.randint(1, 10**6)) if rng.random() < 0.5 else num

        base = [[entry() for _ in range(n)] for _ in range(rng.randint(m - 3, m))]
        rows = list(base)
        for _ in range(m - len(base)):
            coef = [rng.randint(-3, 3) for _ in base]
            rows.append([sum(c * row[j] for c, row in zip(coef, base)) for j in range(n)])
        rng.shuffle(rows)
        out.append((rows, n))
    return out


class TestPolyAntidifference:
    def test_basics(self):
        for p in (ZERO, ONE, x, x**2, Poly([3, 0, -2, 7])):
            q = poly_antidifference(p)
            assert q.shift(1) - q == p

    def test_random(self):
        rng = random.Random(163)
        for _ in range(20):
            p = random_poly(rng, rng.randint(0, 7))
            q = poly_antidifference(p)
            assert q.shift(1) - q == p


def ref_poly_antidifference(p):
    """The antidifference with q(0) = 0 from the iterated differences of p at
    0 in the binomial basis, with `Fraction` values and binomial products; a
    test-only reference."""
    diffs = []
    cur = p
    while not cur.is_zero:
        diffs.append(cur(0))
        cur = cur.shift(1) - cur
    q = Poly()
    binom = Poly([0, 1])  # binomial(x, 1) = x
    for k, d in enumerate(diffs):
        binom = binom if k == 0 else binom * Poly([-k, 1]) * Fraction(1, k + 1)
        q = q + binom * d
    return q


class TestPolyAntidifferenceReference:
    def test_matches_binomial_reference(self):
        rng = random.Random(20261019)
        cases = [ZERO]
        for _ in range(240):
            n = rng.randint(0, 30)
            lead = 0
            while not lead:
                lead = rng.randint(-20, 20)
            cs = [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(n)]
            cases.append(Poly(cs + [Fraction(lead, rng.randint(1, 12))]))
        for p in cases:
            q = poly_antidifference(p)
            assert q == ref_poly_antidifference(p), p
            assert q(0) == 0 and q.shift(1) - q == p, p
        assert {p.degree for p in cases} >= set(range(31))


class TestIsSummable:
    def test_telescoping(self):
        ok, cert = is_summable(RatFun(ONE, x * (x + 1)), want_certificate=True)
        assert ok and cert == RatFun(Poly([-1]), x)

    def test_single_pole_not_summable(self):
        assert is_summable(RatFun(ONE, x)) == (False, None)

    def test_golden_not_summable(self, golden):
        assert not is_summable(golden["f"])[0]

    def test_polynomials_always_summable(self):
        ok, cert = is_summable(RatFun(x**3 - 2), want_certificate=True)
        assert ok and cert.delta() == RatFun(x**3 - 2)

    def test_zero(self):
        ok, cert = is_summable(RF_ZERO, want_certificate=True)
        assert ok and cert.delta().is_zero

    def test_soundness_random(self):
        # delta images are summable, and the returned certificate works
        rng = random.Random(167)
        for _ in range(20):
            f = random_summable(rng)
            ok, cert = is_summable(f, want_certificate=True)
            assert ok
            assert cert.delta() == f

    def test_completeness_random(self):
        # nonzero proper with polar dispersion 0 is never summable
        rng = random.Random(173)
        for _ in range(20):
            f = random_dispersion_zero(rng)
            assert not is_summable(f)[0]

    def test_mixed_poly_plus_summable(self):
        rng = random.Random(179)
        for _ in range(10):
            f = random_summable(rng) + RatFun(random_poly(rng, rng.randint(0, 3)))
            ok, cert = is_summable(f, want_certificate=True)
            assert ok and cert.delta() == f


def ref_is_summable(f, want_certificate=False):
    """One reduction per Hermite layer (`ref_reduce`), each against its own
    shift set; a test-only reference."""
    poly_part, fp = f.proper_part()
    cert = RatFun(poly_antidifference(poly_part)) if want_certificate else None
    if fp.is_zero:
        return True, cert
    outs = [ref_reduce([layer], want_certificate)[0] for layer in hermite_list(fp)]
    if any(not out.reduced.is_zero for out in outs):
        return False, None
    if want_certificate:
        for k, out in enumerate(outs, 1):
            piece = out.certificate
            for _ in range(k - 1):
                piece = piece.derivative()
            cert = cert + piece * (Fraction(-1) ** (k - 1) / math.factorial(k - 1))
    return True, cert


def _summability_inputs():
    """Seeded summable and blocked inputs: delta images with rational and
    irreducible-quadratic poles, polynomial parts, rational numerators,
    summable parts spoiled at one pole order, and orbits with gaps."""
    rng = random.Random(2026)
    quadratics = [x**2 + 1, x**2 + x + 1, x**2 - 3]
    fs = [RF_ZERO, RatFun(x**2 - 1), RatFun(ONE, x**2), RatFun(ONE, x**3).delta()]
    for _ in range(6):
        fs.append(random_summable(rng, max_order=4))
        fs.append(random_summable(rng) + RatFun(random_poly(rng, rng.randint(0, 2))))
        fs.append(random_dispersion_zero(rng))
    for _ in range(5):
        den = ONE
        for q in rng.sample(quadratics, 2):
            den = den * q.shift(rng.randint(-2, 2)) ** rng.randint(1, 2)
        num = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(den.degree)])
        g = RatFun(num, den)
        if g.is_zero:
            continue
        fs.append(g.delta())
        fs.append(g.delta() + RatFun(ONE, quadratics[0].shift(rng.randint(-2, 2)) ** rng.randint(1, 3)))
    # Orbits with poles at shifts 0, 3 and 7 only, so the certificate has poles
    # at shifts where f has none.
    for q in (x**2 + x + 1, x**3 - x + 2):
        h = [RatFun(ONE, q.shift(c)) for c in (0, 3, 7)]
        g = RatFun(x, q**2)
        fs.append(h[0] + h[1] - h[2] * 2)
        fs.append(g.shift(7) - g + (g.shift(3) - g) * 2 + h[1] - h[0])
        fs.append(h[0] + h[1] - h[2])
    fs.append(RatFun(ONE, x) - RatFun(ONE, x + 5))
    return fs


class TestOneReduction:
    """All layers reduced together against the per-layer reference."""

    @pytest.fixture(scope="class")
    def inputs(self):
        return _summability_inputs()

    def test_matches_reference(self, inputs):
        for f in inputs:
            assert is_summable(f) == ref_is_summable(f), f
            ok, cert = is_summable(f, want_certificate=True)
            ref_ok, ref_cert = ref_is_summable(f, want_certificate=True)
            assert ok == ref_ok, f
            if ok:
                assert (cert.num.coeffs, cert.den.coeffs) == (ref_cert.num.coeffs, ref_cert.den.coeffs), f
                assert cert.delta() == f
            else:
                assert cert is None and ref_cert is None

    def test_inputs_cover_the_cases(self, inputs):
        decided = [ref_is_summable(f)[0] for f in inputs]
        proper = [f.proper_part()[1] for f in inputs]
        assert any(decided) and not all(decided)
        assert any(ok and len(hermite_list(p)) >= 3 for ok, p in zip(decided, proper) if not p.is_zero)
        assert any(not ok and len(hermite_list(p)) >= 2 for ok, p in zip(decided, proper) if not p.is_zero)
        assert any(not f.proper_part()[0].is_zero and not p.is_zero for f, p in zip(inputs, proper))
        # a summable layer with terms at shifts l > 1 but none at some 0 < j < l
        gaps = []
        for ok, p in zip(decided, proper):
            if ok and not p.is_zero:
                (row,), b = hermite._remainders([p.num], p.den)
                shifts = [{ell for ell, _ in ts} for ts in reduction._orbit_residues(row, b)[1]]
                gaps += [set(range(1, max(ls, default=0))) - ls for ls in shifts]
        assert any(gaps)

    def test_one_shift_set_per_call(self, monkeypatch, inputs):
        calls = []
        original = shiftset.shift_set

        def counted(b, *args):
            calls.append(b)
            return original(b, *args)

        monkeypatch.setattr(shiftset, "shift_set", counted)
        for i, f in enumerate(inputs[:16]):
            calls.clear()
            is_summable(f, want_certificate=i % 2 == 1)
            assert len(calls) == (0 if f.proper_part()[1].is_zero else 1), f

    def test_certificates_only_for_summable_inputs(self, monkeypatch, inputs):
        # The layer certificate and the assembly as is_summable calls them, and
        # the coprime sum under the certificate by its name in `reduction`
        # (the Hermite core calls it by its own name).
        calls = {"_suffix_certificate": 0, "_over_product": 0, "_assemble": 0}
        targets = ((summability, "_suffix_certificate"), (reduction, "_over_product"), (summability, "_assemble"))
        for module, name in targets:
            original = getattr(module, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counted)
        seen = set()
        for f in inputs:
            p = f.proper_part()[1]
            layers = 0 if p.is_zero else len(hermite_list(p))
            for name in calls:
                calls[name] = 0
            ok, _ = is_summable(f, want_certificate=True)
            if ok:
                assert calls == {"_suffix_certificate": layers, "_over_product": layers, "_assemble": min(layers, 1)}, f
            else:
                assert calls == {"_suffix_certificate": 0, "_over_product": 0, "_assemble": 0}, f
            seen.add(ok)
        assert seen == {True, False}

    def test_one_pass_per_call(self, monkeypatch, inputs):
        """One Yun and one shift set per call on a nonzero proper part, and no
        Hermite layers or reduced forms, also by name in `summability` should
        either be imported there again."""
        calls = {"squarefree_decomposition": 0, "shift_set": 0, "hermite_list": 0, "_reduce": 0}
        targets = (
            (polys, "squarefree_decomposition"),
            (shiftset, "shift_set"),
            (hermite, "hermite_list"),
            (reduction, "_reduce"),
        )
        for module, name in targets:
            original = getattr(module, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counted)
            if module in (hermite, reduction):
                monkeypatch.setattr(summability, name, counted, raising=False)
        for i, f in enumerate(inputs):
            one = 0 if f.proper_part()[1].is_zero else 1
            for name in calls:
                calls[name] = 0
            is_summable(f, want_certificate=i % 2 == 1)
            assert calls == {"squarefree_decomposition": one, "shift_set": one, "hermite_list": 0, "_reduce": 0}, f


class TestThreeOrbitCertificate:
    """The degree-30 three-orbit input of `benchmarks/high_degree.py`:
    1/Q(x) + 1/Q(x+3) - 2/Q(x+7) with Q of degree 10, the family whose
    degree-60 and degree-90 certificates CI pins by sha256."""

    def test_degree_30_against_reference(self):
        rng = random.Random(11)
        q = Poly([rng.randint(-9, 9) for _ in range(10)] + [1])
        f = RatFun(ONE, q) + RatFun(ONE, q.shift(3)) - RatFun(Poly([2]), q.shift(7))
        assert f.den.degree == 30
        ok, cert = is_summable(f, want_certificate=True)
        ref_ok, ref = ref_is_summable(f, want_certificate=True)
        assert ok and ref_ok
        assert (cert.num.coeffs, cert.den.coeffs) == (ref.num.coeffs, ref.den.coeffs)
        # Delta(cert) = f, cross-multiplied: no gcd of the degree-70 denominators
        num, den = cert.num, cert.den
        assert (num.shift(1) * den - num * den.shift(1)) * f.den == f.num * den * den.shift(1)


def ref_assemble(certs):
    """sum_k (-1)^(k-1)/(k-1)! d^(k-1)/dx^(k-1) c_k by the derivative chain,
    one `RatFun` derivative and one addition (each with a gcd) per step; a
    test-only reference for `summability._assemble`."""
    acc = RF_ZERO
    for k, piece in enumerate(certs, 1):
        for _ in range(k - 1):
            piece = piece.derivative()
        acc = acc + piece * (Fraction(-1) ** (k - 1) / math.factorial(k - 1))
    return acc


def _certificate_inputs():
    """Seeded summable inputs: delta images with pole orders up to 8, with
    (x^2 + a)^k poles, with a polynomial part; one whose certificate
    denominator is below E^m and one with zero layer certificates."""
    rng = random.Random(616)
    fs = []
    for order in range(1, 9):
        for _ in range(3):
            fs.append(random_summable(rng, max_order=order))
        fs.append(random_summable(rng, max_order=order) + RatFun(random_poly(rng, rng.randint(0, 3))))
    for a in (1, 2, 3, 5):
        for k in (1, 2, 3, 4):
            num = Poly([Fraction(rng.randint(1, 9), rng.randint(1, 5)), rng.randint(-3, 3)])
            g = RatFun(num, (x**2 + a).shift(rng.randint(-2, 2)) ** k)
            fs.append((g + RatFun(ONE, (x - Fraction(1, 3)) ** rng.randint(1, 3))).delta())
    fs.append((RatFun(ONE, x**3) + RatFun(ONE, x - 10)).delta())
    fs.append(RatFun(ONE, x**4).delta())
    return fs


class TestCertificateAssembly:
    """The one-denominator certificate against the derivative chain."""

    @pytest.fixture(scope="class")
    def cases(self):
        out = []
        for f in _certificate_inputs():
            outs = ref_reduce(hermite_list(f.proper_part()[1]), True)
            out.append((f, [o.certificate for o in outs]))
        return out

    def test_matches_derivative_chain(self, cases):
        for f, certs in cases:
            ref = ref_assemble(certs)
            assert _assemble(certs) == (ref.num, ref.den), f
            ok, g = is_summable(f, want_certificate=True)
            assert ok
            assert g == ref + RatFun(poly_antidifference(f.proper_part()[0])), f
            assert g.delta() == f

    def test_random_simple_pole_lists(self):
        rng = random.Random(617)
        pool = [x, x + 1, x - 2, x + Fraction(1, 2), x**2 + 1, x**2 + x + 1, x**2 - 3]
        for _ in range(60):
            certs = []
            for _ in range(rng.randint(1, 6)):
                den = ONE
                for q in rng.sample(pool, rng.randint(0, 3)):
                    den = den * q
                num = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(den.degree + 1)])
                certs.append(RatFun(num, den).proper_part()[1] if rng.random() < 0.8 else RF_ZERO)
            ref = ref_assemble(certs)
            assert _assemble(certs) == (ref.num, ref.den), certs

    def test_cases_cover_the_shapes(self, cases):
        def below(certs):
            e = lcm_all(c.den for c in certs)
            return _assemble(certs)[1].degree < len(certs) * e.degree

        assert max(len(certs) for _, certs in cases) == 8
        assert any(not f.proper_part()[0].is_zero for f, _ in cases)
        assert any(c.is_zero for _, certs in cases for c in certs[:-1])
        assert any(below(certs) for _, certs in cases)
        assert any(not integer_roots(c.den) for _, certs in cases for c in certs if not c.den.is_constant)


class TestNullspace:
    def test_identity_has_trivial_kernel(self):
        assert nullspace([[1, 0], [0, 1]]) == []

    def test_single_row(self):
        assert nullspace([[1, 1]]) == [[Fraction(1), Fraction(-1)]]

    def test_rank_one_3cols(self):
        basis = nullspace([[1, 2, 3], [2, 4, 6]])
        assert len(basis) == 2
        for v in basis:
            assert v[0] + 2 * v[1] + 3 * v[2] == 0

    def test_rank_nullity_random(self):
        rng = random.Random(181)
        for _ in range(25):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            mat = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)] for _ in range(rows)]
            basis = nullspace(mat, ncols=cols)
            for v in basis:
                for row in mat:
                    assert sum(a * b for a, b in zip(row, v)) == 0
            # rank + nullity = ncols, rank computed via an independent elimination
            import itertools

            def rank_bruteforce(m):
                # Gaussian elimination with plain Fractions
                m = [row[:] for row in m]
                r = 0
                for c in range(cols):
                    piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
                    if piv is None:
                        continue
                    m[r], m[piv] = m[piv], m[r]
                    for i in range(len(m)):
                        if i != r and m[i][c] != 0:
                            scale = m[i][c] / m[r][c]
                            m[i] = [a - scale * b for a, b in zip(m[i], m[r])]
                    r += 1
                return r

            assert rank_bruteforce(mat) + len(basis) == cols
            # basis vectors are linearly independent
            if basis:
                assert rank_bruteforce(basis) == len(basis)

    def test_matches_reference(self):
        cases = random_matrices(random.Random(5150), 400, rational=True)
        for rows, n in cases:
            assert nullspace(rows, ncols=n) == ref_nullspace(rows, n), rows
        assert any(len(ref_nullspace(rows, n)) not in (0, n) for rows, n in cases)
        assert any(any(c.denominator != 1 for row in rows for c in row) for rows, n in cases)
        # Wide matrices with entries up to 10^6, so the integer back-substitution
        # meets Hermite-normal-form pivots above 1 and several free columns.
        large = _large_matrices(random.Random(5151), 24)
        pivots, nullities = [], []
        for rows, n in large:
            basis = nullspace(rows, ncols=n)
            assert basis == ref_nullspace(rows, n), rows
            echelon = hermite_normal_form([_integer_row(row) for row in rows])
            pivots += [next(a for a in row if a) for row in echelon]
            nullities.append(len(basis))
        assert max(pivots) > 1
        assert max(nullities) >= 3

    def test_empty_matrix_needs_ncols(self):
        with pytest.raises(DomainError):
            nullspace([])
        assert len(nullspace([], ncols=4)) == 4


class TestVspace:
    def test_pair_of_shifted_poles(self):
        assert vspace([RatFun(ONE, x), RatFun(ONE, x + 1)]) == [[Fraction(1), Fraction(-1)]]

    def test_duplicate_function(self):
        f = build_from_spec(random_orbit_spec(random.Random(5), max_orbits=2))
        basis = vspace([f, f])
        assert [Fraction(1), Fraction(-1)] in basis

    def test_independent_orbits_trivial_space(self):
        assert vspace([RatFun(ONE, x), RatFun(ONE, x**2 + 1)]) == []

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            vspace([])

    def test_zero_input(self):
        assert vspace([RF_ZERO, RatFun(ONE, x)]) == [[1, 0]]
        assert vspace([RF_ZERO, RF_ZERO]) == [[1, 0], [0, 1]]

    def test_constructed_dimension(self):
        # f_i = sum_j M[i][j] s_j + delta(g_i) with known-rank M: the summable
        # combination space is the nullspace of M^T, of dimension n - rank.
        rng = random.Random(191)
        # summable tails drawn from a shared pole universe to keep the lcm of
        # all layer denominators small (the multi-reduction works on that lcm)
        tail_bases = [Fraction(0), Fraction(1, 2)]
        for _ in range(8):
            n = rng.randint(2, 5)
            m_fracs = rng.randint(1, 4)
            r = rng.randint(1, min(n, m_fracs))
            # M = A @ B with identity blocks pinned so rank(M) = r exactly
            A = [[Fraction(1 if i == j else 0) for j in range(r)] for i in range(r)]
            A += [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(n - r)]
            B = [[Fraction(1 if i == j else 0) for j in range(r)] for i in range(r)]
            for i in range(r):
                B[i] += [Fraction(rng.randint(-3, 3)) for _ in range(m_fracs - r)]
            M = [
                [sum(A[i][t] * B[t][j] for t in range(r)) for j in range(m_fracs)]
                for i in range(n)
            ]
            # poles 1/2, 1/3, ... have pairwise distinct fractional parts,
            # i.e. they sit in pairwise distinct Z-orbits
            fractions_ = [RatFun(ONE, Poly([Fraction(-1, j + 2), 1])) for j in range(m_fracs)]
            fs = []
            for i in range(n):
                f = RF_ZERO
                for j in range(m_fracs):
                    f = f + fractions_[j] * M[i][j]
                # a summable tail never changes any discrete residue
                fs.append(f + random_summable(rng, max_order=2, bases=tail_bases, max_shift=1))
            basis = vspace(fs)
            assert len(basis) == n - r
            for v in basis:
                combo = RF_ZERO
                for vi, fi in zip(v, fs):
                    combo = combo + fi * vi
                assert is_summable(combo)[0]

    def test_all_summable_gives_full_space(self):
        rng = random.Random(193)
        bases = [Fraction(0), Fraction(1, 3)]
        fs = [random_summable(rng, bases=bases, max_shift=2) for _ in range(3)]
        basis = vspace(fs)
        assert len(basis) == 3


# Orbit bases of the differential vspace families: rational and quadratic poles.
_VSPACE_BASES = (x, x + Fraction(1, 2), x**2 + 1, x**2 + x + 3)


def _vspace_families():
    """Seeded vspace inputs on both sides of the path choice of `residues._groups`:
    pole orders up to 3, rational and quadratic orbits, zero inputs, and inputs
    with a polynomial part, read by their proper part as the CLI reads them.
    Each input is an integer combination of a few shifted pole terms, plus a
    summable tail in the "lcm" kind, so the space is rarely trivial."""
    rng = random.Random(3535)

    def term():
        p = rng.choice(_VSPACE_BASES)
        num = Poly([rng.randint(-4, 4) for _ in range(p.degree - 1)] + [rng.randint(1, 4)])
        return RatFun(num, p.shift(rng.randint(0, 2)) ** rng.randint(1, 3))

    out = []
    for _ in range(10):
        pool = [term() for _ in range(rng.randint(1, 3))]
        fs = [sum((t * rng.randint(-2, 2) for t in pool), rng.choice(pool).delta()) for _ in range(rng.randint(2, 4))]
        out.append(("lcm", fs))
        pool = [term() for _ in range(rng.randint(2, 3))]
        fs = [rng.choice(pool).sigma(rng.randint(0, 3)) * rng.randint(1, 3) for _ in range(rng.randint(3, 5))]
        out.append(("per-den", fs))
        fs = [RF_ZERO, term() + term(), RF_ZERO, term()]
        out.append(("zero", fs))
        fs = [RatFun(random_poly(rng, rng.randint(0, 3))) + term() for _ in range(3)] + [RatFun(random_poly(rng, 2))]
        out.append(("polynomial", [f.proper_part()[1] for f in fs]))
    return out


class TestVspaceReference:
    """`vspace` reads the residue sums R at the roots of initial, `ref_vspace`
    the residue values D at the roots of places: sum v_i R_i = 0 exactly when
    sum v_i D_i = 0, and the nullspace basis depends only on the solution
    space, so both give the same basis."""

    @pytest.fixture(scope="class")
    def families(self):
        return _vspace_families()

    def test_matches_reference(self, families):
        for kind, fs in families:
            assert vspace(fs) == ref_vspace(fs), (kind, fs)

    def test_families_cover_both_groupings(self, families):
        sides = set()
        for _, fs in families:
            degrees = [f.den.degree for f in fs if not f.is_zero]
            sides.add(len(degrees) * lcm_all(f.den for f in fs).degree < 2 * sum(degrees))
        assert sides == {True, False}
        assert any(len(vspace(fs)) not in (0, len(fs)) for kind, fs in families if kind == "per-den")
        assert any(max(len(row) for row in residues._sums(fs)[1]) == 3 for _, fs in families)
        assert any(f.is_zero for kind, fs in families if kind == "polynomial" for f in fs)

    def test_same_errors(self):
        for fs in ([], [RatFun(x)], [RatFun(ONE, x), RatFun(x**2, x + 1)]):
            for fn in (vspace, ref_vspace):
                with pytest.raises(DomainError):
                    fn(fs)


class TestIntegerRows:
    """`galois._coefficient_rows` builds each row from the sums' integers over
    their denominators with no Fraction, and `vspace` passes those rows to
    `summability._integer_nullspace`, with no second clearing."""

    def test_rows_match_the_fraction_rows(self):
        rng = random.Random(3739)
        cases = [residues._sums(fs)[1] for _, fs in _vspace_families()]
        cases += [[row[-1:] for row in sums] for sums in cases if sums[0]]  # one order per input, as the relation lattices read
        for _ in range(40):
            width, orders = rng.randint(1, 5), rng.randint(1, 3)

            def entry():
                return Fraction(rng.choice((0, rng.randint(-9, 9))), rng.choice((1, 2, 3, 4, 6, 9)))

            cases.append([[Poly([entry() for _ in range(rng.randint(0, 4))]) for _ in range(orders)] for _ in range(width)])
        for sums in cases:
            want = [_integer_row([r.coeff(k) for r in col]) for col in zip(*sums) for k in range(max(len(r._c) for r in col))]
            assert galois._coefficient_rows(sums) == [row for row in want if any(row)], sums
        assert any(r._d > 1 and any(math.gcd(c, r._d) > 1 for c in r._c) for sums in cases for col in sums for r in col)

    def test_vspace_clears_no_fraction_row(self, monkeypatch):
        calls = count_calls(monkeypatch, [(galois, "_integer_row"), (summability, "_integer_row")])
        for _, fs in _vspace_families():
            vspace(fs)
        assert calls["_integer_row"] == 0
        nullspace([[Fraction(1, 2), Fraction(1, 3)]])
        assert calls["_integer_row"] == 1
