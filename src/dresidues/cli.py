"""Terminal front end: parse expressions over Q(x), run the pipeline stages,
emit exact text or JSON.

Grammar (everything exact, no floats): integer literals (runs of Unicode
decimal digits, the ones int() reads), the variable x, binary + - * /,
integer ^, parentheses, unary minus.  Precedence is ^ before unary - before
* / before + -, with left associativity for the binary operators; implicit
multiplication is rejected.  The parser is one recursive descent whose rules
return the exact value of the text they consumed: a Poly while it is a
polynomial, lifted to a RatFun only by a division by a nonconstant
polynomial, a negative power or a RatFun operand.  A monomial (a literal, x,
x^k, their products and quotients by constants) is a (coefficient, degree)
pair, and each run of them under + - is summed once into one Poly.  The
guards a pair skips cannot fire: a sum of polynomials has no larger degree
than its terms, and x^k is within the power's caps when k is within the
literal's.  The guards read Polys and RatFuns alike, at the same tokens.
Each guard is a parse error raised before its value is computed: an exponent
literal above MAX_DEGREE (at the literal); a power of degree above
MAX_DEGREE, a negative power of zero, or a power whose coefficients are
estimated longer than Python's integer string conversion limit
(sys.get_int_max_str_digits; |exponent| times the largest coefficient
bit-length of the base), at the ^; a + - * / whose numerator or denominator
before cancellation would exceed MAX_DEGREE, or a division by zero, at the
operator.  Unknown characters and literals longer than that limit are found
before anything is computed; other errors come in the order the parser meets
them, so in "1/0 )" the division by zero is reported, not the ")".
Exit codes: 0 ok, 1 usage or parse error or an output number longer than
Python's integer string conversion limit, 2 precondition violation,
3 internal assertion.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import re
import sys
from typing import Iterator

from . import __version__, galois, residues, shiftset, summability, testkit
from .errors import DomainError, InexactDivisionError, InternalError, ParseError
from .hermite import hermite_list
from .polys import ONE, Poly, _new, poly_str
from .ratfun import RatFun
from .reduction import simple_reduction


# -- expression parsing -----------------------------------------------------

MAX_DEGREE = 1000  # cap on exponent literals and on the degree of a power


def _max_digits() -> int:
    """Python's limit on decimal digits in int <-> str conversion, 0 for none
    (interpreters before 3.10.7 have no limit)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


# One token per match after any whitespace: a literal of the Unicode decimal
# digits int() accepts, an operator, x, a stray character, or the end.  Some
# group matches at every position, so finditer never skips text.
_TOKEN = re.compile(r"\s*(?:(\d+)|([-+*/^()])|(x)|(.)|())", re.S)
_KINDS = (None, "int", "op", "var", "bad", "end")  # by group number


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    limit = _max_digits()
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        kind, lit, at = _KINDS[group], m[group], m.start(group)
        if kind == "op":
            tokens.append((lit, lit, at))
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {lit!r}", at)
        if kind == "int" and limit and len(lit) > limit:
            raise ParseError(f"integer literal of {len(lit)} digits exceeds the limit of {limit}", at)
        tokens.append((kind, lit, at))
        if kind == "end":
            return tokens


class _Parser:
    """Recursive descent that evaluates as it goes: every rule returns the
    exact value of the text it consumed, and every guard fires at the token
    where its value is formed.  A (coefficient, degree) pair (n, d, k) is
    n/d*x^k, the fraction not reduced.  `atom` and `power` return one for a
    literal, x or x^k; `term` multiplies pairs or divides one by a constant
    pair (a zero coefficient has degree 0, as `_deg` reads the zero Poly); and
    `expr` sums each run of pair terms once, over one common denominator.  A
    pair becomes a Poly only at another operand, a RatFun or its run's end."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self, kind: str | None = None) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> Poly | RatFun:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return value

    def expr(self) -> Poly | RatFun:
        value, run, op, off = None, [], "+", 0  # run: the pairs after value
        while True:
            right = self.term()
            if type(right) is tuple and not isinstance(value, RatFun):
                run.append(right if op == "+" else (-right[0], right[1], right[2]))
            else:
                left, run = _sum(value, run), []
                value = _value(right) if left is None else _apply(op, left, _value(right), off)
            if self.peek()[0] not in ("+", "-"):
                return _sum(value, run)
            op, _, off = self.take()

    def term(self) -> tuple | Poly | RatFun:
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, off = self.take()
            right = self.factor()
            if type(value) is tuple and type(right) is tuple and (op == "*" or not right[2]):
                value = _pair_op(op, value, right, off)
            else:
                value = _apply(op, _value(value), _value(right), off)
        return value

    def factor(self) -> tuple | Poly | RatFun:
        tok = self.peek()
        if tok[0] == "-":
            self.take()
            value = self.factor()
            return (-value[0], value[1], value[2]) if type(value) is tuple else -value
        if tok[0] == "+":
            self.take()
            return self.factor()
        return self.power()

    def power(self) -> tuple | Poly | RatFun:
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        _, _, off = self.take()
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        tok = self.take("int")
        exponent = int(tok[1])
        if exponent > MAX_DEGREE:
            raise ParseError(f"exponent {exponent} exceeds the cap {MAX_DEGREE}", tok[2])
        if base == (1, 1, 1) and sign > 0:
            # x^k: the degree guard reads k <= MAX_DEGREE, checked above, and
            # the coefficient guard k*log10(2) < 302 digits, below 640, the
            # least nonzero digit limit (sys.int_info.str_digits_check_threshold).
            return (1, 1, exponent)
        base = _value(base)
        num, den = _num_den(base)
        if base.is_zero and sign * exponent < 0:
            raise ParseError("negative power of zero", off)
        if max(_deg(num), den.degree) * exponent > MAX_DEGREE:
            raise ParseError(f"power exceeds the degree cap {MAX_DEGREE}", off)
        limit = _max_digits()
        if limit and exponent > 1:
            # Bit lengths of each coefficient in lowest terms, as in Fraction.
            bits = 0
            for p in (num, den):
                for c in p._c:
                    g = math.gcd(c, p._d)
                    bits = max(bits, (c // g).bit_length(), (p._d // g).bit_length())
            if exponent * bits * math.log10(2) > limit:
                raise ParseError(f"power exceeds the coefficient size limit of {limit} digits", off)
        if sign < 0:
            base = _lift(base)
        return base ** (sign * exponent)

    def atom(self) -> tuple | Poly | RatFun:
        tok = self.take()
        if tok[0] == "int":
            return (int(tok[1]), 1, 0)
        if tok[0] == "var":
            return (1, 1, 1)
        if tok[0] == "(":
            value = self.expr()
            self.take(")")
            return value
        raise ParseError(f"expected a value, found {tok[1] or 'end of input'!r}", tok[2])


def _value(value: tuple | Poly | RatFun) -> Poly | RatFun:
    """A pair as a Poly; any other value as it is."""
    if type(value) is not tuple:
        return value
    n, d, k = value
    return _new([0] * k + [n], d)


def _pair_op(op: str, left: tuple, right: tuple, offset: int) -> tuple:
    """left * right, or left / right for a constant right, with `_apply`'s guards."""
    (a, d, j), (b, e, k) = left, right
    if op == "/":
        if not b:
            raise ParseError("division by zero", offset)
        return (a * e, d * b, j)
    if j + k > MAX_DEGREE:
        raise ParseError(f"result of '*' exceeds the degree cap {MAX_DEGREE}", offset)
    return (a * b, d * e, j + k) if a and b else (0, 1, 0)


def _sum(value: Poly | RatFun | None, run: list[tuple]) -> Poly | RatFun | None:
    """value (None for nothing) plus the pairs of run, summed over their
    common denominator into one Poly."""
    if not run:
        return value
    den = math.lcm(*(d for _, d, _ in run))
    cs = [0] * (1 + max(k for _, _, k in run))
    for n, d, k in run:
        cs[k] += n * (den // d)
    total = _new(cs, den)
    return total if value is None else value + total


def _deg(p: Poly) -> int:
    return p.degree or 0


def _num_den(value: Poly | RatFun) -> tuple[Poly, Poly]:
    """Numerator and denominator of a parsed value, a Poly being over 1: the
    one place the guards read degrees and coefficients from."""
    return (value, ONE) if isinstance(value, Poly) else (value.num, value.den)


def _lift(value: Poly | RatFun) -> RatFun:
    return RatFun.from_lowest_terms(value, ONE) if isinstance(value, Poly) else value


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _apply(op: str, left: Poly | RatFun, right: Poly | RatFun, offset: int) -> Poly | RatFun:
    """left op right, after checking that neither the numerator nor the
    denominator RatFun forms before cancelling exceeds MAX_DEGREE."""
    (lnum, lden), (rnum, rden) = _num_den(left), _num_den(right)
    ln, ld, rn, rd = _deg(lnum), lden.degree, _deg(rnum), rden.degree
    if op == "/":
        if right.is_zero:
            raise ParseError("division by zero", offset)
        rn, rd = rd, rn
    num = ln + rn if op in "*/" else max(ln + rd, rn + ld)
    if max(num, ld + rd) > MAX_DEGREE:
        raise ParseError(f"result of {op!r} exceeds the degree cap {MAX_DEGREE}", offset)
    if op == "/":
        if isinstance(right, Poly) and right.is_constant:
            return left * (1 / right.lc)
        left = _lift(left)
    return _OPS[op](left, right)


def parse(text: str) -> RatFun:
    """Parse and exactly evaluate an expression into a rational function.

    >>> parse("1/x + 1/x")
    RatFun('(2)/(x)')
    """
    return _lift(_Parser(text).parse())


def parse_poly(text: str) -> Poly:
    num, den = _num_den(_Parser(text).parse())
    if den != ONE:
        raise DomainError("expected a polynomial expression")
    return num


# -- output rendering ----------------------------------------------------------


def _poly_coeffs(p: Poly) -> list[str]:
    return [str(c) for c in p.coeffs]


def _fmt_poly(p: Poly, pretty: bool) -> str:
    if pretty:
        return poly_str(p)
    return "[" + " ".join(_poly_coeffs(p)) + "]"


def _fmt_ratfun(f: RatFun, pretty: bool) -> str:
    if pretty:
        return str(f)
    return f"num{_fmt_poly(f.num, False)} den{_fmt_poly(f.den, False)}"


def _ratfun_json(f: RatFun) -> dict:
    return {"num": _poly_coeffs(f.num), "den": _poly_coeffs(f.den)}


def _vec_str(vec) -> str:
    return " ".join(str(v) for v in vec)


# -- subcommand handlers: each computes, yields, then renders and yields (lines, payload) --
_Steps = Iterator[tuple[list[str], dict] | None]


def _cmd_dres(args) -> _Steps:
    _, f = parse(args.expr).proper_part()
    pairs = (residues.discrete_residues if args.per_order else residues.discrete_residues_coordinated)(f)
    yield
    if args.json:  # main prints the payload alone
        lines = []
    elif args.pretty:
        lines = [f"k={k}: B = {poly_str(p.places)}, D = {poly_str(p.values)}" for k, p in enumerate(pairs, 1)]
    else:
        lines = [f"k={k} B{_fmt_poly(p.places, False)} D{_fmt_poly(p.values, False)}" for k, p in enumerate(pairs, 1)]
    payload = {
        "pairs": [
            {"k": k, "B": _poly_coeffs(p.places), "D": _poly_coeffs(p.values)}
            for k, p in enumerate(pairs, 1)
        ]
    }
    yield lines, payload


def _cmd_dres_multi(args) -> _Steps:
    fs = [parse(e).proper_part()[1] for e in args.exprs]
    md = residues.discrete_residues_multi(fs)
    yield
    eq, colon = (" = ", ":") if args.pretty else ("", "")
    lines = [f"B{eq}{_fmt_poly(md.places, args.pretty)}"]
    for i, row in enumerate(md.values, 1):
        for k, d in enumerate(row, 1):
            lines.append(f"i={i} k={k}{colon} D{eq}{_fmt_poly(d, args.pretty)}")
    payload = {
        "B": _poly_coeffs(md.places),
        "D": [[_poly_coeffs(d) for d in row] for row in md.values],
    }
    yield lines, payload


def _cmd_reduce(args) -> _Steps:
    _, f = parse(args.expr).proper_part()
    out = simple_reduction(f, want_certificate=args.certificate)
    yield
    lines = [f"reduced {_fmt_ratfun(out.reduced, args.pretty)}"]
    payload = {"reduced": _ratfun_json(out.reduced), "certificate": None}
    if args.certificate:
        lines.append(f"certificate {_fmt_ratfun(out.certificate, args.pretty)}")
        payload["certificate"] = _ratfun_json(out.certificate)
    yield lines, payload


def _cmd_hermite(args) -> _Steps:
    _, f = parse(args.expr).proper_part()
    layers = hermite_list(f) if not f.is_zero else []
    yield
    lines = [f"k={k} {_fmt_ratfun(layer, args.pretty)}" for k, layer in enumerate(layers, 1)]
    yield lines, {"layers": [_ratfun_json(layer) for layer in layers]}


def _cmd_shift_set(args) -> _Steps:
    shifts = shiftset.shift_set(parse_poly(args.expr)).shifts
    yield
    yield [" ".join(str(s) for s in shifts)], {"shifts": list(shifts)}


def _cmd_summable(args) -> _Steps:
    ok, cert = summability.is_summable(parse(args.expr), want_certificate=args.certificate)
    yield
    lines = ["summable" if ok else "not summable"]
    payload = {"summable": ok, "certificate": None}
    if ok and args.certificate:
        lines.append(f"certificate {_fmt_ratfun(cert, args.pretty)}")
        payload["certificate"] = _ratfun_json(cert)
    yield lines, payload


def _cmd_vspace(args) -> _Steps:
    fs = [parse(e).proper_part()[1] for e in args.exprs]
    basis = summability.vspace(fs)
    yield
    yield [_vec_str(v) for v in basis], {"basis": [[str(c) for c in v] for v in basis]}


def _cmd_mult_relations(args) -> _Steps:
    rs = [parse(e) for e in args.exprs]
    rel = galois.multiplicative_relations(rs)
    yield
    lines = []
    for e, gamma in zip(rel.candidate_basis, rel.gammas):
        lines.append(f"candidate {_vec_str(e)} gamma {gamma}")
    for e in rel.basis:
        lines.append(f"relation {_vec_str(e)}")
    payload = {
        "candidate_basis": rel.candidate_basis,
        "gammas": [str(g) for g in rel.gammas],
        "basis": rel.basis,
    }
    yield lines, payload


def _cmd_oracle(args) -> _Steps:
    with open(args.specfile, encoding="utf-8") as handle:
        spec = testkit.parse_spec_text(handle.read())
    table = testkit.dres_by_definition(spec)
    yield
    lines = [f"{rep} {k} {value}" for rep, k, value in table]
    payload = {
        "table": [{"alpha": str(rep), "k": k, "value": str(value)} for rep, k, value in table]
    }
    yield lines, payload


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="dresidues",
        description="Exact discrete residues and rational summability over Q(x).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument("--quiet", action="store_true", help="suppress stdout")
    common.add_argument("--pretty", action="store_true", help="render polynomials as expressions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dres", parents=[common], help="discrete residues of one function")
    p.add_argument("expr")
    p.add_argument(
        "--per-order",
        action="store_true",
        help="represent each order at the leftmost poles of its own layer instead of at one shared divisor of initial roots",
    )
    p.set_defaults(handler=_cmd_dres)

    p = sub.add_parser("dres-multi", parents=[common], help="coordinated residues of several functions")
    p.add_argument("exprs", nargs="+")
    p.set_defaults(handler=_cmd_dres_multi)

    p = sub.add_parser("reduce", parents=[common], help="shift-reduce a simple-pole function")
    p.add_argument("expr")
    p.add_argument("--certificate", action="store_true")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("hermite", parents=[common], help="simple-pole layers of a function")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_hermite)

    p = sub.add_parser("shift-set", parents=[common], help="shift set of a polynomial")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_shift_set)

    p = sub.add_parser("summable", parents=[common], help="decide rational summability")
    p.add_argument("expr")
    p.add_argument("--certificate", action="store_true")
    p.set_defaults(handler=_cmd_summable)

    p = sub.add_parser("vspace", parents=[common], help="basis of summable coefficient vectors")
    p.add_argument("exprs", nargs="+")
    p.set_defaults(handler=_cmd_vspace)

    p = sub.add_parser(
        "galois",
        parents=[common],
        help="alias of vspace: the difference Galois group of the block-diagonal unipotent system",
    )
    p.add_argument("exprs", nargs="+")
    p.set_defaults(handler=_cmd_vspace)

    p = sub.add_parser("mult-relations", parents=[common], help="multiplicative relation lattice")
    p.add_argument("exprs", nargs="+")
    p.set_defaults(handler=_cmd_mult_relations)

    p = sub.add_parser("oracle", parents=[common], help="brute-force residues of a pole-data file")
    p.add_argument("specfile")
    p.set_defaults(handler=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        steps = args.handler(args)
        next(steps)  # the output is rendered only when it is printed
        if args.quiet:
            return 0
        lines, payload = next(steps)
        if args.json:
            lines = [json.dumps(payload)]
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, UnicodeDecodeError) as exc:  # the latter from a spec file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalError, InexactDivisionError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # str() of an integer longer than Python's conversion limit, raised
        # while the output is rendered.
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: the output has a number longer than the limit of {_max_digits()} digits", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
