"""Shared fixtures: the worked golden example, the pole-data helpers (spec
builder, rational roots, summable and dispersion-zero generators), lattice
membership, the oracle alignment check, seeded random matrices, a call
counter, the per-function first-residues and multi-residues references, the
residue-value `vspace` reference, the per-input shift-reduction reference,
the reduced-layer discrete-residues reference, the per-part-inverse
partial-fraction reference, the character-loop tokenizer and expression-tree
parser references, the Fraction-tuple polynomial reference, the
subresultant-PRS shift-resultant reference, the primitive-PRS gcd reference
and the shift scan on it, the quotient log-derivative reference, the Poly Yun
and Hermite set-up references and their seeded inputs, and the seeded
algebraic-pole instances."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from dresidues import cli, polys, residues, shiftset
from dresidues.errors import DomainError, InexactDivisionError, ParseError
from dresidues.polys import _COEF_TYPES, ONE, ZERO, Poly, X, _as_rat, _taylor_shift, poly_str
from dresidues.galois import hermite_normal_form
from dresidues.hermite import hermite_list
from dresidues.ratfun import RF_ZERO, RatFun
from dresidues.reduction import ReductionOutput, ReductionParts
from dresidues.residues import TRIVIAL_PAIR, MultiResidues, ResiduePair, first_residues_multi
from dresidues.summability import nullspace
from dresidues.testkit import OrbitSpec, Term, build_from_spec, dres_by_definition, random_orbit_spec

x = X


@pytest.fixture(scope="session")
def golden():
    """The running example: f = 1/(x^3 (x+2)^3 (x+3) (x^2+1) (x^2+4x+5)^2)
    together with every intermediate value displayed for it."""
    den = x**3 * (x + 2) ** 3 * (x + 3) * (x**2 + 1) * (x**2 + 4 * x + 5) ** 2
    f = RatFun(ONE, den)
    f1 = RatFun(
        Poly([5008, 9502, 9721, 9659, 4803, 787]) * Fraction(1, 18000),
        (x**2 + 1) * (x + 3) * (x**2 + 4 * x + 5) * (x + 2) * x,
    )
    f2 = RatFun(
        -Poly([1030, 4696, 3372, 787]) * Fraction(1, 18000),
        (x**2 + 4 * x + 5) * x * (x + 2),
    )
    f3 = RatFun(-Poly([-1, 7]) * Fraction(1, 300), (x + 2) * x)
    b0 = (x + 3) * (x**2 + 4 * x + 5)
    fbar1 = RatFun(Poly([1387, 273]) * Fraction(1, 20000), b0)
    return {
        "f": f,
        "layers": [f1, f2, f3],
        "b0": b0,
        "b1": x + 2,
        "b2": x**2 + 1,
        "b3": x,
        "a0": -Poly([-9293, 37742, 13391]) * Fraction(1, 1080000),
        "a1": Poly([Fraction(1, 250)]),
        "a2": Poly([-1, -7]) * Fraction(1, 8000),
        "a3": Poly([Fraction(313, 33750)]),
        "fbar1": fbar1,
        "B1": b0,
        "D1": Poly([Fraction(-1321, 80000), Fraction(33, 40000), Fraction(59, 16000)]),
    }


# -- pole data and lattices: test-only helpers over testkit's OrbitSpec and galois --


def orbit_spec(terms) -> OrbitSpec:
    return OrbitSpec(tuple((Fraction(a), int(k), Fraction(c)) for a, k, c in terms))


def rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots of a nonzero polynomial, with multiplicity ignored.

    With c the primitive integer coefficients of p, n its degree and
    l = c_n, the rational roots are y/l for the integer roots y of the monic
    sum(c_k l^(n-1-k) y^k) (y = l*x)."""
    if p.is_zero:
        raise DomainError("the zero polynomial has every rational as a root")
    cs = polys._to_int_primitive(p)
    n, lead = len(cs) - 1, cs[-1]
    monic = Poly([c * lead ** (n - 1 - k) for k, c in enumerate(cs[:-1])] + [1])
    return sorted(Fraction(y, lead) for y in polys.integer_roots(monic))


def random_summable(
    rng: random.Random,
    max_order: int = 3,
    bases: list[Fraction] | None = None,
    max_shift: int = 4,
) -> RatFun:
    """Delta(g) for a random nonzero proper g built from pole data."""
    while True:
        g = build_from_spec(
            random_orbit_spec(
                rng, max_orbits=3, max_order=max_order, bases=bases, max_shift=max_shift
            )
        )
        if not g.is_zero:
            return g.delta()


def random_dispersion_zero(rng: random.Random, max_poles: int = 4) -> RatFun:
    """A nonzero simple-pole function whose poles all sit in distinct orbits,
    hence polar dispersion zero and (being nonzero) never summable."""
    n = rng.randint(1, max_poles)
    terms: list[Term] = []
    fracs = set()
    while len(terms) < n:
        alpha = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
        key = alpha - alpha.numerator // alpha.denominator
        if key in fracs:
            continue
        fracs.add(key)
        c = Fraction(0)
        while c == 0:
            c = Fraction(rng.randint(-20, 20), rng.randint(1, 8))
        terms.append((alpha, 1, c))
    return build_from_spec(OrbitSpec(tuple(terms)))


def lattice_contains(basis: list[list[int]], vec: list[int]) -> bool:
    """Membership of an integer vector in the lattice spanned by `basis`."""
    return hermite_normal_form(basis + [vec]) == hermite_normal_form(basis)


def assert_pairs_match_oracle(pairs: list[ResiduePair], spec: OrbitSpec) -> None:
    """Check symbolic residue pairs against the brute-force definition.

    Roots of each places polynomial must represent the oracle's orbits up to
    an integer shift, exactly once each, with matching values."""
    by_order: dict[int, list[tuple[Fraction, Fraction]]] = {}
    for rep, k, value in dres_by_definition(spec):
        by_order.setdefault(k, []).append((rep, value))
    assert set(by_order) <= set(range(1, len(pairs) + 1))
    for k, pair in enumerate(pairs, 1):
        expected = by_order.get(k, [])
        if pair.places == ONE:
            assert not expected, f"order {k}: oracle sees residues, output is trivial"
            continue
        roots = rational_roots(pair.places)
        assert len(roots) == pair.places.degree, "irrational root in a rational-pole instance"
        assert len(roots) == len(expected), f"order {k}: orbit count mismatch"
        for root in roots:
            hits = [(rep, val) for rep, val in expected if (root - rep).denominator == 1]
            assert len(hits) == 1, f"order {k}: root {root} matches {len(hits)} orbits"
            assert pair.values(root) == hits[0][1], f"order {k}: wrong residue at {root}"


def assert_multi_matches_oracle(places, value_rows, specs: list[OrbitSpec]) -> None:
    """The multi-function analogue: one shared places polynomial, one row of
    value polynomials per input."""
    if places == ONE:
        for spec in specs:
            assert dres_by_definition(spec) == []
        for row in value_rows:
            assert all(d.is_zero for d in row)
        return
    roots = rational_roots(places)
    assert len(roots) == places.degree
    covered = set()
    for spec, row in zip(specs, value_rows):
        for rep, k, value in dres_by_definition(spec):
            hits = [root for root in roots if (root - rep).denominator == 1]
            assert len(hits) == 1, f"orbit of {rep} not uniquely represented"
            assert row[k - 1](hits[0]) == value
            covered.add(hits[0])
        # All claimed residues must be real: evaluate every root.
        for k, d in enumerate(row, 1):
            oracle = {
                rep: value for rep, kk, value in dres_by_definition(spec) if kk == k
            }
            for root in roots:
                hits = [rep for rep in oracle if (root - rep).denominator == 1]
                want = oracle[hits[0]] if hits else Fraction(0)
                assert d(root) == want
    assert covered == set(roots), "places has a root representing no residue orbit"


def random_matrices(rng, count, rational):
    """Seeded matrices with zero rows, duplicate rows and rank deficiency,
    shared by the nullspace and integer-kernel differential tests."""
    out = [([], n) for n in range(4)]
    for _ in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 7)

        def entry():
            num = rng.randint(-9, 9)
            return Fraction(num, rng.randint(1, 5)) if rational else num

        rank = rng.randint(0, min(m, n))
        base = [[entry() for _ in range(n)] for _ in range(rank)]
        rows = []
        for _ in range(m):
            kind = rng.random()
            if kind < 0.15 or not base:
                rows.append([0] * n)
            elif kind < 0.3:
                rows.append(list(rng.choice(base)))
            else:
                coef = [rng.randint(-3, 3) for _ in base]
                rows.append([sum(c * r[j] for c, r in zip(coef, base)) for j in range(n)])
        rng.shuffle(rows)
        out.append((rows, n))
    return out


def count_calls(monkeypatch, targets) -> dict[str, int]:
    """Wrap each function `module.name`, for (module, name) in `targets`, to
    count its calls into the returned dict under `name`."""
    calls = dict.fromkeys((name for _, name in targets), 0)
    for module, name in targets:
        original = getattr(module, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def ref_first_residues(f):
    """One Trager inverse modulo f's own denominator; a test-only reference."""
    if f.is_zero:
        return TRIVIAL_PAIR
    b = f.den
    return ResiduePair(b, (f.num * polys.inverse_mod(b.derivative(), b)) % b)


def ref_first_residues_multi(fs):
    """One Trager inverse per function, then one Chinese-remainder lift per
    function onto the lcm of the denominators; a test-only reference shared
    by the residue and relation-lattice differential tests."""
    pairs = [ref_first_residues(f) for f in fs]
    big = polys.lcm_all(pair.places for pair in pairs)
    ps = []
    for pair in pairs:
        if pair.places == ONE:
            ps.append(ZERO)
            continue
        cof = big.exact_div(pair.places)
        if cof == ONE:
            ps.append(pair.values)
            continue
        lift = polys.inverse_mod(cof, pair.places)
        ps.append((pair.values * lift) % pair.places * cof)
    return big, ps


def _ref_sum(terms):
    """The sum of RatFuns: the numerators over each distinct denominator added,
    those sums cross-multiplied, and one gcd at the end."""
    by_den = {}
    for t in terms:
        by_den[t.den] = by_den.get(t.den, ZERO) + t.num
    num, den = ZERO, ONE
    for d, n in by_den.items():
        num, den = num * d + n * den, den * d
    return RatFun(num, den)


def ref_reduce(fs, want_certificate):
    """The shared reduction core with every input reduced on its own: shifts
    of `initial`, gcds, partial fractions and sums recomputed per input; a
    test-only reference."""
    b = ONE
    for f in fs:
        b = polys.lcm(b, f.den)
    shifts = shiftset.shift_set(b).shifts
    shift_gcds = {ell: polys.gcd(b, b.shift(-ell)) for ell in shifts}
    overlap = ONE
    for g in shift_gcds.values():
        overlap = polys.lcm(overlap, g)
    initial = b.exact_div(overlap)
    out = []
    for f in fs:
        factors = {0: polys.gcd(initial, f.den)}
        for ell in shifts:
            bl = polys.gcd(initial.shift(-ell), f.den)
            if not bl.is_constant:
                factors[ell] = bl
        indices = tuple(sorted(factors))
        numerators = dict(zip(indices, ref_parfrac(f, [factors[ell] for ell in indices])))
        pieces = {ell: RatFun(numerators[ell], factors[ell]) for ell in indices}
        reduced = _ref_sum(piece.sigma(ell) for ell, piece in pieces.items())
        certificate = None
        if want_certificate:
            certificate = _ref_sum(-piece.sigma(i) for ell, piece in pieces.items() for i in range(ell))
        parts = ReductionParts(initial, indices, factors, numerators, shift_gcds, overlap)
        out.append(ReductionOutput(reduced, certificate, parts))
    return out


def ref_discrete_residues_multi(fs: list[RatFun]) -> MultiResidues:
    """The per-function `discrete_residues_multi`, as it was before inputs
    could be read over one common denominator: `hermite_list` of each
    function, padding to a common layer count, one joint reduction of the
    layer RatFuns (`ref_reduce`) and `first_residues_multi` of the reduced
    forms; a test-only reference."""
    all_layers = [[] if f.is_zero else hermite_list(f) for f in fs]
    m = max(len(layers) for layers in all_layers)
    flat = [g for layers in all_layers for g in layers + [RF_ZERO] * (m - len(layers))]
    places, ps = first_residues_multi([out.reduced for out in ref_reduce(flat, False)])
    values = [ps[i * m : (i + 1) * m] for i in range(len(fs))]
    return MultiResidues(places, values)


def ref_vspace(fs: list[RatFun]) -> list[list[Fraction]]:
    """`summability.vspace` as it was before it read the residue sums R: one
    linear condition per (order, power-of-x) coefficient of the shared
    residue-value polynomials D of `discrete_residues_multi`, kept verbatim
    apart from its name, this docstring and the order count read off
    `md.values`; a test-only reference."""
    if not fs:
        raise DomainError("vspace requires at least one function")
    md = residues.discrete_residues_multi(fs)
    width = md.places.degree  # value polys have smaller degree
    rows = [[row[k].coeff(power) for row in md.values] for k in range(len(md.values[0])) for power in range(width)]
    return nullspace(rows, ncols=len(fs))


def ref_discrete_residues(f: RatFun, coordinated: bool) -> list[ResiduePair]:
    """The layer pipeline that `discrete_residues` (coordinated=False) and
    `discrete_residues_coordinated` ran before both read the Hermite
    remainders at the orbits: `hermite_list`, one reduction of the layer
    RatFuns and one Trager inverse per reduced denominator, kept verbatim
    apart from its name, this docstring and the reduction, now `ref_reduce`
    in place of the package's own; a test-only reference."""
    if not f.is_proper:
        raise DomainError("discrete_residues requires a proper rational function")
    if f.is_zero:
        return []
    # Hermite layers are squarefree by construction: no public input checks.
    layers = hermite_list(f)
    if coordinated:
        outs = ref_reduce(layers, False)
    else:
        outs = [ref_reduce([layer], False)[0] for layer in layers]
    # first_residues per layer, with one inverse per distinct denominator.
    inverses: dict[Poly, Poly] = {}
    pairs = []
    for out in outs:
        f = out.reduced
        if f.is_zero:
            pairs.append(TRIVIAL_PAIR)
            continue
        if f.den not in inverses:
            inverses[f.den] = polys.inverse_mod(f.den.derivative(), f.den)
        pairs.append(ResiduePair(f.den, (f.num * inverses[f.den]) % f.den))
    return pairs


def ref_parfrac(f: RatFun, parts: list[Poly]) -> list[Poly]:
    """The per-part-inverse `parfrac` that the single-inverse one replaced,
    kept verbatim apart from its name; a test-only reference.

    Partial fractions of a proper f over a pairwise coprime monic
    factorization of its squarefree denominator.

    Returns the unique numerators a_i with deg(a_i) < deg(b_i) and
    f = sum(a_i / b_i).  Entries equal to 1 are permitted and receive the
    numerator 0, so callers can keep a uniform index set.

    Coprimality needs no check of its own: parts whose product is the
    denominator, once that is known to be squarefree, are pairwise coprime,
    since a common factor of two parts would divide it squared.
    """
    if not f.is_proper:
        raise DomainError("parfrac requires a proper rational function")
    if not polys.is_squarefree(f.den):
        raise DomainError("parfrac requires a squarefree denominator")
    prod = ONE
    for b in parts:
        if b.is_zero or not b.is_monic:
            raise DomainError("parfrac parts must be monic")
        prod = prod * b
    if prod != f.den:
        raise DomainError("parfrac parts do not multiply to the denominator")
    out: list[Poly] = []
    for b in parts:
        if b.is_constant:
            out.append(ZERO)
            continue
        cofactor = f.den.exact_div(b)
        a = (f.num * polys.inverse_mod(cofactor, b)) % b
        out.append(a)
    return out


_TOKEN_OPS = set("+-*/^()")


def ref_tokenize(text: str) -> list[tuple[str, str, int]]:
    """The character loop that `cli._tokenize` replaced; a test-only
    reference.  Its digits are `str.isdigit`, which is wider than the
    decimal digits int() accepts, so it is only compared on text whose
    digits are decimal."""
    tokens = []
    limit = cli._max_digits()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if limit and j - i > limit:
                raise ParseError(f"integer literal of {j - i} digits exceeds the limit of {limit}", i)
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch == "x":
            tokens.append(("var", ch, i))
            i += 1
        elif ch in _TOKEN_OPS:
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


def ref_parse(text):
    """The expression tree parser with a separate evaluator that the one-pass
    `cli.parse` replaced; a test-only reference.  It tokenizes with
    `ref_tokenize` and evaluates every node as a RatFun.  Nodes are tuples:
    ("num", n), ("var",), ("neg", arg), ("bin", op, left, right, offset),
    ("pow", base, exponent, offset)."""
    tokens, pos = ref_tokenize(text), 0

    def peek():
        return tokens[pos]

    def take(kind=None):
        nonlocal pos
        tok = tokens[pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        pos += 1
        return tok

    def expr():
        node = term()
        while peek()[0] in ("+", "-"):
            op, _, off = take()
            node = ("bin", op, node, term(), off)
        return node

    def term():
        node = unary()
        while peek()[0] in ("*", "/"):
            op, _, off = take()
            node = ("bin", op, node, unary(), off)
        return node

    def unary():
        tok = peek()
        if tok[0] == "-":
            take()
            return ("neg", unary())
        if tok[0] == "+":
            take()
            return unary()
        return power()

    def power():
        base = atom()
        if peek()[0] != "^":
            return base
        _, _, off = take()
        sign = 1
        if peek()[0] == "-":
            take()
            sign = -1
        tok = take("int")
        if int(tok[1]) > cli.MAX_DEGREE:
            raise ParseError(f"exponent {tok[1]} exceeds the cap {cli.MAX_DEGREE}", tok[2])
        return ("pow", base, sign * int(tok[1]), off)

    def atom():
        tok = take()
        if tok[0] == "int":
            return ("num", int(tok[1]))
        if tok[0] == "var":
            return ("var",)
        if tok[0] == "(":
            node = expr()
            take(")")
            return node
        raise ParseError(f"expected a value, found {tok[1] or 'end of input'!r}", tok[2])

    def evaluate(node):
        if node[0] == "num":
            return RatFun(Poly([node[1]]))
        if node[0] == "var":
            return RatFun(X)
        if node[0] == "neg":
            return -evaluate(node[1])
        if node[0] == "pow":
            _, base_node, exponent, off = node
            base = evaluate(base_node)
            if base.is_zero and exponent < 0:
                raise ParseError("negative power of zero", off)
            if max(base.num.degree or 0, base.den.degree) * abs(exponent) > cli.MAX_DEGREE:
                raise ParseError("power exceeds the degree cap", off)
            limit = cli._max_digits()
            if limit and abs(exponent) > 1:
                bits = max(
                    max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in base.num.coeffs + base.den.coeffs
                )
                if abs(exponent) * bits * math.log10(2) > limit:
                    raise ParseError("power exceeds the coefficient size limit", off)
            return base**exponent
        _, op, left, right, off = node
        left, right = evaluate(left), evaluate(right)
        # The degrees of the numerator and denominator the operation forms
        # before cancelling.
        ln, ld = left.num.degree or 0, left.den.degree
        rn, rd = right.num.degree or 0, right.den.degree
        if op == "/" and right.is_zero:
            raise ParseError("division by zero", off)
        if op in "+-":
            formed = (max(ln + rd, rn + ld), ld + rd)
        else:
            formed = (ln + rn, ld + rd) if op == "*" else (ln + rd, ld + rn)
        if max(formed) > cli.MAX_DEGREE:
            raise ParseError("result exceeds the degree cap", off)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        return left / right

    tree = expr()
    if peek()[0] != "end":
        raise ParseError(f"unexpected {peek()[1]!r}", peek()[2])
    return evaluate(tree)


class RefPoly:
    """The tuple-of-`Fraction` polynomial that the integer-content `Poly`
    replaced, kept verbatim apart from its name; a test-only reference for
    the kernel differential tests."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RefPoly is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        """Degree, or ``None`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def lc(self) -> Fraction:
        """Leading coefficient."""
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x^k (zero beyond the degree)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    # -- ring operations ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, _COEF_TYPES):
            other = RefPoly([other])
        if not isinstance(other, RefPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> RefPoly:
        return RefPoly([-c for c in self.coeffs])

    def __add__(self, other) -> RefPoly:
        if isinstance(other, _COEF_TYPES):
            other = RefPoly([other])
        if not isinstance(other, RefPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RefPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> RefPoly:
        if isinstance(other, _COEF_TYPES):
            other = RefPoly([other])
        if not isinstance(other, RefPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> RefPoly:
        return (-self) + other

    def __mul__(self, other) -> RefPoly:
        if isinstance(other, _COEF_TYPES):
            s = _as_rat(other)
            return RefPoly([c * s for c in self.coeffs])
        if not isinstance(other, RefPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RefPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return RefPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> RefPoly:
        if n < 0:
            raise DomainError("negative power of a polynomial")
        result = RefPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- division ----------------------------------------------------------

    def divrem(self, other: RefPoly) -> tuple[RefPoly, RefPoly]:
        """Euclidean division: self = q * other + r with r = 0 or deg r < deg other."""
        if other.is_zero:
            raise DomainError("division by the zero polynomial")
        if self.is_zero or len(self.coeffs) < len(other.coeffs):
            return RefPoly(), self
        r = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        inv_lc = 1 / b[-1]
        q = [Fraction(0)] * (len(r) - db)
        for i in range(len(r) - 1, db - 1, -1):
            c = r[i]
            if c:
                c *= inv_lc
                q[i - db] = c
                for j in range(db + 1):
                    r[i - db + j] -= c * b[j]
        return RefPoly(q), RefPoly(r[:db])

    def __floordiv__(self, other: RefPoly) -> RefPoly:
        return self.divrem(other)[0]

    def __mod__(self, other: RefPoly) -> RefPoly:
        return self.divrem(other)[1]

    def exact_div(self, other: RefPoly) -> RefPoly:
        """Division known to be exact; a nonzero remainder is an internal error."""
        q, r = self.divrem(other)
        if not r.is_zero:
            raise InexactDivisionError(f"inexact division: {self} by {other}")
        return q

    def monic(self) -> RefPoly:
        if self.is_zero:
            raise DomainError("cannot normalize the zero polynomial")
        if self.is_monic:
            return self
        return self * (1 / self.lc)

    # -- calculus-flavoured operations --------------------------------------

    def derivative(self) -> RefPoly:
        return RefPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def shift(self, c) -> RefPoly:
        """The composition p(x + c).  With c = u/v and D the common denominator,
        Q(y) = v^n D p(y/v) has integer coefficients and Q(vx + u) = v^n D p(x + c),
        so only Q is shifted, by the integer u."""
        c = _as_rat(c)
        if c == 0 or self.is_zero:
            return self
        n = len(self.coeffs) - 1
        u, v = c.numerator, c.denominator
        den = math.lcm(*(a.denominator for a in self.coeffs))
        cs = [a.numerator * (den // a.denominator) * v ** (n - k) for k, a in enumerate(self.coeffs)]
        _taylor_shift(cs, u)
        return RefPoly([Fraction(q, den * v ** (n - k)) for k, q in enumerate(cs)])

    def __call__(self, point) -> Fraction:
        point = _as_rat(point)
        acc = Fraction(0)
        for coef in reversed(self.coeffs):
            acc = acc * point + coef
        return acc

    # -- presentation --------------------------------------------------------

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"RefPoly({poly_str(self)!r})"


# A polynomial in K[z][x] is a list of Poly (in z) indexed by the power of x.


def _zx_trim(f: list[Poly]) -> list[Poly]:
    while f and f[-1].is_zero:
        f.pop()
    return f


def _zx_prem(a: list[Poly], b: list[Poly]) -> list[Poly]:
    """Pseudo-remainder in K[z][x], mirroring the integer version."""
    da, db = len(a) - 1, len(b) - 1
    lead = b[-1]
    r = list(a)
    e = da - db + 1
    while r and len(r) - 1 >= db:
        top = r[-1]
        shift = len(r) - 1 - db
        r = [lead * c for c in r]
        for i, bc in enumerate(b):
            r[shift + i] = r[shift + i] - top * bc
        _zx_trim(r)
        e -= 1
    if e > 0:
        scale = lead**e
        r = [c * scale for c in r]
    return r


def resultant_shift_prs(b: Poly) -> Poly:
    """R(z) = Res_x(b(x), b(x+z)) by a direct subresultant PRS over K[z].

    Kept as an independent oracle for `resultant_shift`."""
    if b.is_zero or b.degree < 2:
        raise DomainError("resultant_shift requires degree >= 2")
    bc = b.coeffs
    fa: list[Poly] = [Poly([c]) for c in bc]
    # b(x+z) = sum_k b_k (x+z)^k; the x^i coefficient is sum_k b_k C(k,i) z^(k-i).
    n = b.degree
    fb: list[Poly] = []
    for i in range(n + 1):
        fb.append(Poly([bc[k] * math.comb(k, i) for k in range(i, n + 1)]))
    sign = 1
    a_, b_ = fa, fb
    g = h = ONE
    while len(b_) - 1 > 0:
        delta = len(a_) - len(b_)
        if (len(a_) - 1) % 2 and (len(b_) - 1) % 2:
            sign = -sign
        r = _zx_prem(a_, b_)
        if not r:
            return ZERO
        a_ = b_
        factor = g * h**delta
        b_ = [c.exact_div(factor) for c in r]
        g = a_[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = (g**delta).exact_div(h ** (delta - 1))
    da = len(a_) - 1
    if da == 0:
        return ONE * sign
    return (b_[0] ** da).exact_div(h ** (da - 1)) * sign


def _primitive(cs: list[int]) -> list[int]:
    g = math.gcd(*cs)
    if cs[-1] < 0:
        g = -g
    return [c // g for c in cs]


def _int_prem_ref(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^(deg a - deg b + 1) * a mod b over Z, one leading term at a time."""
    lead, r = b[-1], list(a)
    e = len(a) - len(b) + 1
    while len(r) >= len(b):
        top, shift = r[-1], len(r) - len(b)
        r = [lead * c for c in r]
        for i, bc in enumerate(b):
            r[shift + i] -= top * bc
        while r and r[-1] == 0:
            r.pop()
        e -= 1
    return [c * lead**e for c in r] if e > 0 else r


def gcd_prs(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the primitive PRS over Z on every pair, the loop `polys.gcd`
    ran before it certified coprime pairs first.

    Kept as an independent oracle for `polys.gcd` and `polys._coprime`."""
    if a.is_zero and b.is_zero:
        raise DomainError("gcd(0, 0) is undefined")
    if a.is_zero or b.is_zero:
        return (a + b).monic()
    den = math.lcm(*(c.denominator for c in a.coeffs + b.coeffs))
    aa = _primitive([int(c * den) for c in a.coeffs])
    bb = _primitive([int(c * den) for c in b.coeffs])
    if len(aa) < len(bb):
        aa, bb = bb, aa
    while bb:
        rr = _int_prem_ref(aa, bb)
        aa, bb = bb, _primitive(rr) if rr else rr
    return Poly(aa).monic()


def ref_shift_scan(b: Poly) -> tuple[tuple[int, ...], tuple[Poly, ...]]:
    """`shiftset.shift_set` with no value certificate: the candidates 1..L-1 below the
    centred bound L, or the positive integer roots of `resultant_shift_prs`(b) when
    L > deg(b)^2 + 1, each kept with `gcd_prs`(b(x+l), b) when that is nonconstant;
    a test-only reference for the shifts and their gcds."""
    big = polys._to_int_primitive(b)
    centred = list(big)
    _taylor_shift(centred, -big[-2] // (b.degree * big[-1]))
    bound = 2 * polys._cauchy_bound(centred)
    if bound <= b.degree**2 + 1:
        candidates = range(1, bound)
    else:
        candidates = sorted(ell for ell in polys.integer_roots(resultant_shift_prs(b)) if ell > 0)
    found = [(ell, gcd_prs(b.shift(ell), b)) for ell in candidates]
    found = [(ell, g) for ell, g in found if not g.is_constant]
    return tuple(ell for ell, _ in found), tuple(g for _, g in found)


def ref_log_derivative(r: RatFun) -> RatFun:
    """d/dx(r) / r as one `RatFun` quotient, normalised by its gcds: the
    `galois.log_derivative` that built its result in lowest terms replaced;
    a test-only reference."""
    return r.derivative() / r


def ref_squarefree_decomposition(p: Poly) -> polys.SquarefreeDecomposition:
    """Yun's algorithm on Polys, which the integer-list `polys._yun` replaced,
    kept verbatim apart from its name and `gcd_prs` in place of `polys.gcd`; a
    test-only reference."""
    if p.is_zero:
        raise DomainError("squarefree decomposition of the zero polynomial")
    unit = p.lc
    if p.is_constant:
        return polys.SquarefreeDecomposition(unit, ())
    p = p.monic()
    dp = p.derivative()
    u = gcd_prs(p, dp)
    v, w = p.exact_div(u), dp.exact_div(u)
    factors: list[tuple[Poly, int]] = []
    i = 1
    while not v.is_constant:
        dv = v.derivative()
        q = gcd_prs(v, w - dv)
        if not q.is_constant:
            factors.append((q, i))
        v = v.exact_div(q)
        w = (w - dv).exact_div(q)
        i += 1
    return polys.SquarefreeDecomposition(unit, tuple(factors))


def ref_setup(den: Poly) -> tuple[list[tuple], tuple[Poly, Poly] | None]:
    """The Poly-built `hermite._setup` that the integer-list one replaced, on
    `ref_squarefree_decomposition`, with the same outputs (q' as a (tuple,
    denominator) pair); a test-only reference."""
    classes, setup, high = ref_squarefree_decomposition(den).factors, [], ONE
    for q, i in (c for c in classes if c[1] > 1):
        power = q**i
        high, cof = high * power, den.exact_div(power)
        dq, cof_q = q.derivative(), cof % q
        w = polys.inverse_mod(cof_q * dq, q)
        setup.append((q, i, cof, (dq._c, dq._d), (w * dq) % q, (w * cof_q) % q))
    return setup, ((classes[0][0], high) if classes[0][1] == 1 else None)


def yun_inputs(count: int = 40, seed: int = 20261020) -> list[Poly]:
    """Constants, x^300 (x+2)^300 and seeded c * prod q_j^(m_j): c a rational
    other than 1, each q_j of degree 1-3 with rational, non-monic coefficients
    and m_j up to 12, the largest m_j cycling through 1..12; shared by the Yun
    and Hermite set-up differential tests."""
    rng = random.Random(seed)
    out = [Poly([Fraction(-3, 7)]), Poly([5]), x**300 * (x + 2) ** 300]
    for k in range(count):
        p, top = Poly([Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9))]), k % 12 + 1
        for j in range(rng.randint(1, 3)):
            low = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(j + 1 if k % 4 else rng.randint(1, 3))]
            p = p * Poly(low + [Fraction(rng.randint(2, 5), rng.randint(1, 3))]) ** (top if j == 0 else rng.randint(1, top))
        out.append(p)
    return out


# -- algebraic poles: Z-orbits of irreducible quadratics ----------------------
#
# An element u + v*beta of Q(beta), beta a root of x^2 + p x + q, is the pair
# (u, v); beta^2 = -p beta - q, and the conjugate of beta is -p - beta.


def _qmul(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction], p: int, q: int) -> tuple[Fraction, Fraction]:
    top = a[1] * b[1]
    return a[0] * b[0] - q * top, a[0] * b[1] + a[1] * b[0] - p * top


def algebraic_term(p: int, q: int, s: int, k: int, c: tuple[Fraction, Fraction]) -> RatFun:
    """c/(x - beta - s)^k + conj(c)/(x - conj(beta) - s)^k for c = c[0] + c[1] beta: the trace of
    c (x - s - conj(beta))^k over m(x - s)^k, with m = x^2 + p x + q."""
    num = [c]  # c (x - s + p + beta)^k, ascending in x, by one linear factor at a time
    for _ in range(k):
        low = [_qmul(a, (Fraction(p - s), Fraction(1)), p, q) for a in num]
        num = [(a[0] + b[0], a[1] + b[1]) for a, b in zip(low + [(0, 0)], [(0, 0)] + num)]
    m = Poly([q, p, 1]).shift(-s)
    return RatFun(Poly([2 * u - p * v for u, v in num]), m**k)


def algebraic_instance(rng: random.Random, zero_sums: bool = False) -> tuple[RatFun, list[tuple]]:
    """f from seeded pole data on 2-3 Z-orbits of monic irreducible quadratics x^2 + p x + q with distinct
    discriminants (so distinct orbits), and per orbit (p, q, terms), each term (s, k, c): the pair of
    conjugate poles beta + s, conj(beta) + s of order k <= 3, shift 0 <= s <= 4, with coefficient
    c = c[0] + c[1] beta and its conjugate.  Each order's coefficients on an orbit are one group of 1-3
    shifts; with zero_sums every group sums to 0, and otherwise about a third of those with two or more."""
    orbits, seen, count = [], set(), rng.randint(2, 3)
    while len(orbits) < count:
        p, q = rng.randint(-3, 3), rng.randint(-5, 5)
        disc = p * p - 4 * q
        if disc in seen or (disc >= 0 and math.isqrt(disc) ** 2 == disc):
            continue
        seen.add(disc)
        terms = []
        for k in rng.sample(range(1, 4), rng.randint(1, 2)):
            shifts = rng.sample(range(5), rng.randint(2 if zero_sums else 1, 3))
            cs = [(Fraction(rng.randint(-6, 6), rng.randint(1, 3)), Fraction(rng.randint(-6, 6))) for _ in shifts]
            cs = [c if any(c) else (Fraction(1), Fraction(0)) for c in cs]
            if len(cs) > 1 and (zero_sums or rng.random() < 0.35):
                rest = (-sum(c[0] for c in cs[:-1]), -sum(c[1] for c in cs[:-1]))
                if any(rest):
                    cs[-1] = rest
                else:
                    del cs[-1], shifts[-1]
            terms += [(s, k, c) for s, c in zip(shifts, cs)]
        orbits.append((p, q, terms))
    f = sum((algebraic_term(p, q, *t) for p, q, terms in orbits for t in terms), RF_ZERO)
    return f, orbits


def algebraic_sums(orbit: tuple) -> dict[int, tuple[Fraction, Fraction]]:
    """Per order k, the order-k discrete residue of f at the orbit of beta: the sum of its order-k
    coefficients, as a pair (u, v) for u + v beta; zero sums are kept."""
    sums: dict[int, tuple[Fraction, Fraction]] = {}
    for _, k, (u, v) in orbit[2]:
        a, b = sums.get(k, (Fraction(0), Fraction(0)))
        sums[k] = (a + u, b + v)
    return sums
