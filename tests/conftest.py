"""Shared fixtures: the worked golden example, the oracle alignment check,
seeded random matrices, the per-function first-residues reference and the
expression-tree parser reference."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from dresidues import cli, polys
from dresidues.errors import ParseError
from dresidues.polys import ONE, ZERO, Poly, X
from dresidues.ratfun import RatFun
from dresidues.residues import TRIVIAL_PAIR, ResiduePair
from dresidues.testkit import OrbitSpec, dres_by_definition, rational_roots

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
        if pair.is_trivial:
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
        if pair.is_trivial:
            ps.append(ZERO)
            continue
        cof = big.exact_div(pair.places)
        if cof == ONE:
            ps.append(pair.values)
            continue
        lift = polys.inverse_mod(cof, pair.places)
        ps.append((pair.values * lift) % pair.places * cof)
    return big, ps


def ref_parse(text):
    """The expression tree parser with a separate evaluator that the one-pass
    `cli.parse` replaced; a test-only reference.  It shares the tokenizer.
    Nodes are tuples: ("num", n), ("var",), ("neg", arg),
    ("bin", op, left, right, offset), ("pow", base, exponent, offset)."""
    tokens, pos = cli._tokenize(text), 0

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
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if right.is_zero:
            raise ParseError("division by zero", off)
        return left / right

    tree = expr()
    if peek()[0] != "end":
        raise ParseError(f"unexpected {peek()[1]!r}", peek()[2])
    return evaluate(tree)
