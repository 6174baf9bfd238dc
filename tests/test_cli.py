import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import ref_parse, ref_tokenize

from dresidues import cli, polys, testkit
from dresidues.cli import MAX_DEGREE, _tokenize, main, parse, parse_poly
from dresidues.errors import ParseError
from dresidues.polys import ONE, Poly, X
from dresidues.ratfun import RatFun

x = X

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = json.loads((REPO_ROOT / "tests" / "data" / "cli_corpus.json").read_text(encoding="utf-8"))


class TestParse:
    def test_golden_input(self, golden):
        f = parse("1/(x^3*(x+2)^3*(x+3)*(x^2+1)*(x^2+4*x+5)^2)")
        assert f == golden["f"]

    def test_cancellation(self):
        assert parse("x - x").is_zero

    def test_addition(self):
        assert parse("1/x + 1/x") == RatFun(Poly([2]), x)

    def test_precedence(self):
        assert parse("2*x^2") == RatFun(2 * x**2)
        assert parse("-x^2") == RatFun(-(x**2))
        assert parse("2 - 3 - 4") == RatFun(Poly([-5]))
        assert parse("12/3/2") == RatFun(Poly([2]))
        assert parse("1/2*x") == RatFun(x * Fraction(1, 2))

    def test_negative_exponent(self):
        assert parse("x^-2") == RatFun(ONE, x**2)

    def test_rational_literals(self):
        assert parse("1/1080") == RatFun(Poly([Fraction(1, 1080)]))

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError) as info:
            parse("2x")
        assert info.value.offset == 1

    def test_unknown_character(self):
        with pytest.raises(ParseError) as info:
            parse("1 + y")
        assert info.value.offset == 4

    def test_division_by_zero_polynomial(self):
        with pytest.raises(ParseError):
            parse("1/(x - x)")

    def test_unicode_decimal_digits(self):
        # A literal is a run of Unicode decimal digits, the ones int() reads.
        assert parse("\u0663/x") == RatFun(Poly([3]), x)
        assert parse("\uff11\uff12 + 1") == RatFun(Poly([13]))

    def test_other_digit_characters_rejected(self):
        # Superscripts and circled digits are str.isdigit but not decimal.
        for text, offset in (("\u00b2", 0), ("1\u00b2", 1), ("x^\u00b3", 2), ("\u2460", 0)):
            with pytest.raises(ParseError) as info:
                parse(text)
            assert info.value.offset == offset
            assert "unexpected character" in str(info.value)

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("(1 + x")

    def test_parse_poly_rejects_fractions(self):
        from dresidues.errors import DomainError

        with pytest.raises(DomainError):
            parse_poly("1/x")

    def test_print_parse_round_trip(self, golden):
        for f in [
            golden["f"],
            golden["layers"][0],
            golden["fbar1"],
            RatFun(Poly([2])),
            RatFun(Poly()),
            RatFun(-x**2 + 1, x**3 + x),
        ]:
            assert parse(str(f)) == f


class TestInputCaps:
    # Only values just above the cap: a broken guard must not be able to
    # build a huge polynomial.
    def test_exponent_literal_at_cap_accepted(self):
        assert parse(f"x^{MAX_DEGREE}").num.degree == MAX_DEGREE

    def test_exponent_literal_above_cap_rejected(self):
        for text in (f"x^{MAX_DEGREE + 1}", f"x^-{MAX_DEGREE + 1}", f"2^{MAX_DEGREE + 1}"):
            with pytest.raises(ParseError):
                parse(text)

    def test_power_degree_above_cap_rejected(self):
        half = MAX_DEGREE // 2 + 1
        for text in (f"(x^2)^{half}", f"(x^2+1)^-{half}", f"(1/x^2)^{half}", f"((x^{half})^2)^1"):
            with pytest.raises(ParseError):
                parse(text)

    def test_cap_exit_code(self, capsys):
        assert main(["dres", f"(x^2)^{MAX_DEGREE // 2 + 1}"]) == 1
        assert "degree cap" in capsys.readouterr().err

    def test_literal_at_digit_limit_accepted(self):
        limit = sys.get_int_max_str_digits()
        assert parse("9" * limit) == RatFun(Poly([10**limit - 1]))

    def test_literal_above_digit_limit_rejected(self, capsys):
        text = "1/(x-" + "9" * (sys.get_int_max_str_digits() + 1) + ")"
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.offset == 5
        assert main(["dres", text]) == 1
        assert "exceeds the limit" in capsys.readouterr().err

    def test_power_above_coefficient_limit_rejected(self, capsys):
        # 9^5000 has 4772 digits; its base 9^1000 has 3170 bits.
        with pytest.raises(ParseError) as info:
            parse("1/(x-(9^1000)^5)")
        assert info.value.offset == 13
        assert main(["dres", "--json", "1/(x-(9^1000)^5)"]) == 1
        assert "coefficient size limit" in capsys.readouterr().err

    def test_power_below_coefficient_limit_accepted(self):
        assert parse("(9^1000)^4") == RatFun(Poly([9**4000]))

    def test_output_above_digit_limit_is_exit_1(self, capsys):
        # Each literal passes the parser; their product has 2 * digits > limit
        # digits and only fails when the output is rendered.
        n = "9" * (sys.get_int_max_str_digits() // 2 + 1)
        for argv in (["dres", "--json", f"1/(x-{n}*{n})"], ["dres", f"1/(x-{n}*{n})"]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                f"error: the output has a number longer than the limit of {sys.get_int_max_str_digits()} digits"
            ]

    def test_operation_degree_above_cap_rejected(self):
        # Estimated before cancelling: numerator and denominator degrees add
        # under * and /, and a sum's denominator is the product of both.
        for text, offset in (
            ("x^1000*x", 6),
            ("x^600*x^600", 5),
            ("1/x^600 + 1/(x+1)^600", 8),
            ("1/x^600 + 1/x^600", 8),
            ("x/(1/x^1000)", 1),
        ):
            with pytest.raises(ParseError) as info:
                parse(text)
            assert info.value.offset == offset
            assert "degree cap" in str(info.value)

    def test_operation_degree_at_cap_accepted(self):
        assert parse("x^600 + x^600") == RatFun(2 * x**600)
        assert parse("x^999*x") == RatFun(x**1000)
        assert parse("x^1000") == RatFun(x**1000)
        assert parse("x^1000/x^1000") == RatFun(ONE)

    def test_operation_cap_exit_code(self, capsys):
        assert main(["dres", "x^600*x^600"]) == 1
        assert "degree cap" in capsys.readouterr().err


def _gen_expr(rng, depth):
    """A random expression over the whole grammar: nested parentheses,
    unary - and +, powers with negative exponents, - and / chains, rational
    literals as quotients and x.  Degrees stay far below MAX_DEGREE; zero
    literals and x - x make some evaluations fail."""

    def atom():
        roll = rng.random()
        if depth > 0 and roll < 0.3:
            return "(" + _gen_expr(rng, depth - 1) + ")"
        if roll < 0.55:
            return "x"
        if roll < 0.6:
            return "(x - x)"
        return str(rng.choice([0, 1, 2, 3, 7, 12, 45, 99]))

    def unary():
        text = atom()
        if rng.random() < 0.3:
            text += f"^{rng.choice(['', '-'])}{rng.randint(0, 3)}"
        return rng.choice(["", "", "", "-", "+", "- -"]) + text

    def chain(item, ops, longest):
        text = item()
        for _ in range(rng.randint(0, longest)):
            text += rng.choice([" ", ""]) + rng.choice(ops) + rng.choice([" ", ""]) + item()
        return text

    return chain(lambda: chain(unary, "*//", 2), "+--", 2)


def _outcome(fn, text):
    try:
        return fn(text)
    except ParseError as exc:
        return (type(exc), exc.offset)


def _token_outcome(fn, text):
    """The token list, or the error message, which ends with the offset."""
    try:
        return fn(text)
    except ParseError as exc:
        return str(exc)


def _one_syntax_error(rng, text):
    """text, which evaluates without error, with one syntax error put where
    nothing that text does not compute gets computed before it."""
    tokens = _tokenize(text)[:-1]
    roll = rng.random()
    if roll < 0.3:
        return text + " " + rng.choice([")", "x", "7", "(x)", "+", "*", "/", "^", "^-"])
    if roll < 0.6:
        # Right after an operator or "(" the parser is expecting a value.
        spots = [off + 1 for kind, _, off in tokens if kind in "+-*/(^"]
        if spots:
            at = rng.choice(spots)
            return text[:at] + rng.choice("*/)^") + text[at:]
    if roll < 0.8:
        exponents = [
            tok
            for i, tok in enumerate(tokens)
            if i >= 2 and tok[0] == "int" and "^" in (tokens[i - 1][0], tokens[i - 2][0])
        ]
        if exponents:
            _, lit, off = rng.choice(exponents)
            return text[:off] + str(MAX_DEGREE + 1) + text[off + len(lit):]
    at = rng.randint(0, len(text))
    return text[:at] + rng.choice("?.y") + text[at:]


class TestParserDifferential:
    """The one-pass parser against the expression tree parser it replaced."""

    def test_valid_syntax_same_value_or_error(self):
        rng = random.Random(20261018)
        kinds = set()
        for _ in range(400):
            text = _gen_expr(rng, 3)
            got, want = _outcome(parse, text), _outcome(ref_parse, text)
            assert got == want, text
            kinds.add(type(want))
        assert kinds == {RatFun, tuple}

    def test_one_syntax_error_same_type_and_offset(self):
        rng = random.Random(20261019)
        checked = 0
        while checked < 400:
            text = _gen_expr(rng, 3)
            if not isinstance(_outcome(ref_parse, text), RatFun):
                continue
            bad = _one_syntax_error(rng, text)
            want = _outcome(ref_parse, bad)
            assert isinstance(want, tuple), bad
            assert _outcome(parse, bad) == want, bad
            checked += 1

    def test_tokenizer_matches_reference(self):
        rng = random.Random(20261020)
        limit = cli._max_digits()
        grammar = list("0123456789x+-*/^()  ")
        spaces = ["\t", "\n", "\u00a0", "\u2003", "\u2028", "\u3000"]
        digits = ["\u0663", "\u0967", "\uff10", "\U0001d7d7"]  # decimal, not ASCII
        stray = ["y", "?", ".", "\u00e9", "\u2217"]
        outcomes = set()
        for _ in range(400):
            pieces = []
            for _ in range(rng.randint(0, 40)):
                roll = rng.random()
                if roll < 0.01:
                    # A literal at the digit limit or one digit over it.
                    pieces.append("9" * limit + rng.choice(digits + ["", "7"]))
                elif roll < 0.03:
                    pieces.append(rng.choice(stray))
                elif roll < 0.1:
                    pieces.append(rng.choice(spaces))
                elif roll < 0.17:
                    pieces.append(rng.choice(digits))
                else:
                    pieces.append(rng.choice(grammar))
            text = "".join(pieces)
            got, want = _token_outcome(_tokenize, text), _token_outcome(ref_tokenize, text)
            assert got == want, text
            outcomes.add(want.split()[0] if isinstance(want, str) else "tokens")
        assert outcomes >= {"tokens", "unexpected", "integer"}

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("(x - x)^-0", None),  # the exponent is 0, not negative
            ("(x - x)^0", None),
            ("(x - x)^-1", 7),
            ("x^500*x^501", 5),
            ("x^1000 + 1/x", 7),
            ("x^999*x + 1", None),
            ("(x+1)/(x-x)", 5),
            ("2/0", 1),
            ("(x^2 + 1)/2^0", None),
            ("(9^1000*x + 1)^5", 14),
            ("(9^1000*x + 1)^4", None),
            # (coefficient, degree) pairs at their guards' boundaries
            ("0*x^600*x^600", None),
            ("x^0*x^1000", None),
            ("3/4/x^2", None),
            ("x^600*x^401", 5),
            ("x^1000*x^1000*x^1000", 6),
            ("2/0*x", 1),
            ("x^2/0", 3),
            ("-x^1001", 3),
            ("x^500*x^500 + 1/x", 12),
            ("-3/4*x^2 + 1/x^1000", 9),
        ],
    )
    def test_guards_on_polynomial_operands(self, text, offset):
        got = _outcome(parse, text)
        assert got == _outcome(ref_parse, text)
        assert got == (ParseError, offset) if offset is not None else isinstance(got, RatFun)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no integer string conversion limit")
    def test_power_of_x_within_least_digit_limit(self):
        # x^k is a pair and skips the coefficient guard, which reads
        # k*log10(2) < 302 digits: within 640, the least limit Python allows.
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(sys.int_info.str_digits_check_threshold)
        try:
            assert sys.get_int_max_str_digits() == 640
            for text, offset in (("x^1000", None), ("(2*x)^1000", None), ("(4*x)^1000", 5)):
                got = _outcome(parse, text)
                assert got == _outcome(ref_parse, text)
                assert got == (ParseError, offset) if offset is not None else isinstance(got, RatFun)
        finally:
            sys.set_int_max_str_digits(old)

    def test_coefficient_limit_reads_lowest_terms(self):
        # x/2^(b-1) + 1/3 is (3x + 2^(b-1)) / (3*2^(b-1)) over one common
        # denominator of b + 1 bits; in lowest terms no number has more than b.
        limit = sys.get_int_max_str_digits()
        b = int(limit / (9 * math.log10(2)))
        assert 9 * b * math.log10(2) <= limit < 9 * (b + 1) * math.log10(2)
        half = (b - 1) // 2
        accepted = f"(x/(2^{half}*2^{b - 1 - half}) + 1/3)^9"
        rejected = f"(x/(2^{half}*2^{b - half}) + 1/3)^9"
        want = RatFun((x * Fraction(1, 2 ** (b - 1)) + Fraction(1, 3)) ** 9)
        assert _outcome(parse, accepted) == _outcome(ref_parse, accepted) == want
        assert _outcome(parse, rejected) == _outcome(ref_parse, rejected) == (ParseError, len(rejected) - 2)

    def test_oracle_functions_round_trip(self):
        # The dres-oracle benchmark's input shape: a sum of c/(x - a)^k,
        # printed as one polynomial over another.
        rng = random.Random(20261021)
        for _ in range(200):
            f = testkit.build_from_spec(testkit.random_orbit_spec(rng))
            text = str(f)
            assert parse(text) == f == ref_parse(text), text

    def test_polys_built_independent_of_term_count(self, monkeypatch):
        # (p)/(q), with p and q written out term by term as in the dres-oracle
        # inputs: the parser builds one Poly per run of monomial terms, not
        # one per factor and per +.
        original = polys._new
        built = []

        def counted(cs, d):
            built.append(len(cs))
            return original(cs, d)

        counts = []
        for terms in (4, 32):
            rng = random.Random(terms)
            p, q = (Poly([Fraction(rng.randint(1, 99), rng.randint(1, 99)) for _ in range(terms)]) for _ in range(2))
            text, want = f"({p})/({q})", RatFun(p, q)
            assert text.count("+") == 2 * (terms - 1)
            built.clear()
            with monkeypatch.context() as m:
                m.setattr(polys, "_new", counted)
                m.setattr(cli, "_new", counted)
                assert parse(text) == want
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_error_order(self):
        # The one behaviour that moved: an evaluation error left of a syntax
        # error is reported first.
        with pytest.raises(ParseError) as info:
            ref_parse("1/0 )")
        assert info.value.offset == 4
        with pytest.raises(ParseError) as info:
            parse("1/0 )")
        assert info.value.offset == 1


class TestMain:
    def test_summable_text(self, capsys):
        assert main(["summable", "1/(x*(x+1))"]) == 0
        assert capsys.readouterr().out.strip() == "summable"

    def test_shift_set_golden(self, capsys):
        assert main(["shift-set", "(x^2+1)*(x+3)*(x^2+4*x+5)*(x+2)*x"]) == 0
        assert capsys.readouterr().out.strip() == "1 2 3"

    def test_dres_simple(self, capsys):
        assert main(["dres", "1/x"]) == 0
        assert capsys.readouterr().out.strip() == "k=1 B[0 1] D[1]"

    def test_dres_json_schema(self, capsys):
        assert main(["dres", "--json", "1/x^2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "pairs": [
                {"k": 1, "B": ["1"], "D": []},
                {"k": 2, "B": ["0", "1"], "D": ["1"]},
            ]
        }

    def test_dres_per_order_flag(self, capsys, golden):
        assert main(["dres", "--per-order", "--json", "1/(x^3*(x+2)^3*(x+3)*(x^2+1)*(x^2+4*x+5)^2)"]) == 0
        payload = json.loads(capsys.readouterr().out)
        b1 = payload["pairs"][0]["B"]
        assert [Fraction(c) for c in b1] == list(golden["B1"].coeffs)
        d1 = payload["pairs"][0]["D"]
        assert [Fraction(c) for c in d1] == list(golden["D1"].coeffs)

    def test_dres_multi_json(self, capsys):
        assert main(["dres-multi", "--json", "1/x^2", "1/x"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["B"] == ["0", "1"]
        assert payload["D"] == [[[], ["1"]], [["1"], []]]

    def test_reduce_with_certificate(self, capsys):
        assert main(["reduce", "--certificate", "--json", "1/(x*(x+1))"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reduced"] == {"num": [], "den": ["1"]}
        assert payload["certificate"] == {"num": ["-1"], "den": ["0", "1"]}

    def test_hermite_json(self, capsys, golden):
        assert main(["hermite", "--json", "1/(x^3*(x+2)^3*(x+3)*(x^2+1)*(x^2+4*x+5)^2)"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["layers"]) == 3
        got_f3 = payload["layers"][2]
        f3 = golden["layers"][2]
        assert [Fraction(c) for c in got_f3["num"]] == list(f3.num.coeffs)
        assert [Fraction(c) for c in got_f3["den"]] == list(f3.den.coeffs)

    def test_vspace_and_alias(self, capsys):
        assert main(["vspace", "1/x", "1/(x+1)"]) == 0
        assert capsys.readouterr().out.strip() == "1 -1"
        assert main(["galois", "1/x", "1/(x+1)"]) == 0
        assert capsys.readouterr().out.strip() == "1 -1"

    def test_vspace_zero_input(self, capsys):
        assert main(["vspace", "x", "1/x"]) == 0
        assert capsys.readouterr().out == "1 0\n"

    def test_leading_minus_expression_after_double_dash(self, capsys):
        assert main(["dres", "--", "-1/x"]) == 0
        assert capsys.readouterr().out == "k=1 B[0 1] D[-1]\n"
        assert main(["dres", "-1/x"]) == 1
        capsys.readouterr()

    def test_mult_relations(self, capsys):
        assert main(["mult-relations", "--json", "x", "2*x"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"candidate_basis": [[1, -1]], "gammas": ["1/2"], "basis": []}

    def test_oracle(self, capsys, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("-3 1 1/1080\n-2 1 1/250\n0 1 313/33750\n")
        assert main(["oracle", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "-3 1 71/5000"
        assert main(["oracle", str(tmp_path / "missing.txt")]) == 1
        path.write_bytes(b"\xff\xfe 1 1\n")  # not UTF-8
        assert main(["oracle", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_quiet(self, capsys):
        assert main(["dres", "--quiet", "1/x"]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no integer string conversion limit")
    def test_quiet_renders_nothing(self, capsys):
        # The certificate of 1/x - 1/(x+500) has numbers longer than 640 digits, the least limit
        # Python allows: only a run that prints it fails.
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert main(["reduce", "--certificate", "--quiet", "1/x - 1/(x+500)"]) == 0
            assert capsys.readouterr() == ("", "")
            assert main(["reduce", "--certificate", "1/x - 1/(x+500)"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == ["error: the output has a number longer than the limit of 640 digits"]
        finally:
            sys.set_int_max_str_digits(old)

    def test_denominator_with_uncertifiable_constant_term(self, capsys):
        # The shift set's constant term has a cofactor above the trial limit.
        for cmd in ("dres", "summable"):
            assert main([cmd, "1/(-7*x^6 + 4*x^5 - 8*x^4 + 2*x^2 + 9*x - 6)"]) == 0
        capsys.readouterr()

    def test_exit_codes(self, capsys):
        assert main(["dres", "2x"]) == 1  # parse error
        assert main(["reduce", "1/x^2"]) == 2  # precondition violation
        assert main(["nonsense"]) == 1  # usage error
        assert main([]) == 1
        capsys.readouterr()

    def test_digit_characters(self, capsys):
        assert main(["dres", "\u0663/x"]) == 0
        assert capsys.readouterr().out == "k=1 B[0 1] D[3]\n"
        assert main(["dres", "\u00b2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: unexpected character '\u00b2' (at offset 0)\n"

    def test_pretty_round_trips(self, capsys):
        assert main(["reduce", "--pretty", "1/(x*(x+3))"]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("reduced ")
        reparsed = parse(line[len("reduced "):])
        from dresidues.reduction import simple_reduction

        expected = simple_reduction(parse("1/(x*(x+3))")).reduced
        assert reparsed == expected


class TestParserReuse:
    """`main` parses with one argparse tree per process; a call that fails
    in argparse must leave nothing behind for the next call."""

    CALLS = (
        ["dres", "--bogus", "1/x"],
        ["dres", "--json", "1/x^2"],
        ["summable"],
        ["nonsense", "1/x"],
        ["summable", "--certificate", "1/(x*(x+1))"],
        ["--version"],
        ["vspace", "--pretty", "1/x", "1/(x+1)"],
    )

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_reuse_matches_fresh_parsers(self, capsys, monkeypatch):
        def run():
            out = []
            for argv in self.CALLS:
                code = main(list(argv))
                out.append((code, capsys.readouterr()))
            return out

        reused = run()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = run()
        assert [code for code, _ in reused] == [1, 0, 1, 1, 0, 0, 0]
        assert reused == fresh


class TestGoldenCorpus:
    """Exit code and exact stdout of every subcommand on a fixed corpus
    (`tests/data/cli_corpus.json`, spec files beside it).  Refactors must
    leave it byte for byte unchanged."""

    @pytest.mark.parametrize(
        "case", CORPUS, ids=[f"{i:02d}-{c['argv'][0] if c['argv'] else 'none'}" for i, c in enumerate(CORPUS)]
    )
    def test_case(self, case, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code = main(list(case["argv"]))
        assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])

    def test_covers_every_subcommand_and_exit_code(self):
        commands = {c["argv"][0] for c in CORPUS if c["argv"]}
        assert commands >= {
            "dres", "dres-multi", "reduce", "hermite", "shift-set", "summable",
            "vspace", "galois", "mult-relations", "oracle",
        }
        assert {c["exit"] for c in CORPUS} == {0, 1, 2}
