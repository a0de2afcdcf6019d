"""Tokenizer, parser and jet-evaluation tests for the expression DSL."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pgcurves.dsl import (
    BinOp,
    Call,
    Const,
    DomainError,
    LexError,
    Neg,
    ParseError,
    Var,
    eval_jet3,
    parse,
    parse_expr,
    to_source,
    tokenize,
)
from pgcurves.jets import jet_pow, jet_variable


class TestTokenize:
    def test_function_call(self):
        kinds = [(t.kind, t.text) for t in tokenize("cosh(s)")]
        assert kinds == [("IDENT", "cosh"), ("LPAREN", "("),
                         ("IDENT", "s"), ("RPAREN", ")")]

    def test_power_and_division(self):
        kinds = [(t.kind, t.text) for t in tokenize("s^2/2")]
        assert kinds == [("IDENT", "s"), ("OP", "^"), ("NUM", "2"),
                         ("OP", "/"), ("NUM", "2")]

    def test_malformed_number(self):
        with pytest.raises(LexError) as err:
            tokenize("2..5")
        assert err.value.offset == 1

    def test_unrecognized_character(self):
        with pytest.raises(LexError) as err:
            tokenize("3!")
        assert err.value.offset == 1

    def test_scientific_notation(self):
        tokens = tokenize("1e3 2.5E-2 7e+1")
        assert [t.value for t in tokens] == [1000.0, 0.025, 70.0]

    def test_e_not_followed_by_digits_is_identifier(self):
        tokens = tokenize("2e")
        assert [(t.kind, t.text) for t in tokens] == [("NUM", "2"), ("IDENT", "e")]

    @pytest.mark.parametrize("source, offset", [("\u0663*s", 0), ("s + \u00b2", 4)])
    def test_non_ascii_digits_rejected(self, source, offset):
        with pytest.raises(LexError) as err:
            tokenize(source)
        assert err.value.offset == offset

    @pytest.mark.parametrize("source, offset", [("1e999", 0), ("s + 2.5e400", 4)])
    def test_overflowing_literal_rejected(self, source, offset):
        with pytest.raises(LexError, match="overflows") as err:
            tokenize(source)
        assert err.value.offset == offset

    def test_offsets(self):
        tokens = tokenize(" s + 1")
        assert [t.offset for t in tokens] == [1, 3, 5]


class TestParse:
    def test_precedence(self):
        assert parse_expr("1+2*3") == BinOp("+", Const(1.0),
                                            BinOp("*", Const(2.0), Const(3.0)))

    def test_power_right_associative(self):
        assert parse_expr("2^3^2") == BinOp("^", Const(2.0),
                                            BinOp("^", Const(3.0), Const(2.0)))
        assert eval_jet3(parse_expr("2^3^2"), 0.0).v == 512.0

    def test_empty_argument(self):
        with pytest.raises(ParseError):
            parse_expr("sin()")

    def test_left_associativity(self):
        assert eval_jet3(parse_expr("1-2-3"), 0.0).v == -4.0
        assert eval_jet3(parse_expr("12/4/2"), 0.0).v == 1.5

    def test_unary_minus_binds_below_power(self):
        assert eval_jet3(parse_expr("-2^2"), 0.0).v == -4.0
        assert eval_jet3(parse_expr("2^-2"), 0.0).v == 0.25
        assert eval_jet3(parse_expr("-s^2"), 3.0).v == -9.0

    def test_variable_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("2^s")
        with pytest.raises(ParseError):
            parse_expr("s^(s+1)")

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse_expr("q+1")

    def test_custom_parameter_name(self):
        e = parse_expr("t^2", param="t")
        assert eval_jet3(e, 3.0).v == 9.0
        with pytest.raises(ParseError):
            parse_expr("s^2", param="t")

    def test_function_requires_call(self):
        with pytest.raises(ParseError):
            parse_expr("sin + 1")

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse_expr("foo(s)")

    def test_trailing_tokens(self):
        with pytest.raises(ParseError):
            parse_expr("1 2")

    def test_missing_paren(self):
        with pytest.raises(ParseError):
            parse_expr("sin(s")
        with pytest.raises(ParseError):
            parse_expr("(1+2")

    def test_literal_negation_folds(self):
        assert parse_expr("-2.5") == Const(-2.5)
        assert parse_expr("-s") == Neg(Var("s"))

    def test_parse_from_tokens(self):
        assert parse(tokenize("1+1")) == BinOp("+", Const(1.0), Const(1.0))


class TestEvalJet:
    def test_parabola(self):
        jet = eval_jet3(parse_expr("s^2/2"), 3.0)
        assert (jet.v, jet.d1, jet.d2, jet.d3) == (4.5, 3.0, 1.0, 0.0)

    def test_cosh(self):
        jet = eval_jet3(parse_expr("cosh(s)"), 0.0)
        assert (jet.v, jet.d1, jet.d2, jet.d3) == (1.0, 0.0, 1.0, 0.0)

    def test_identity(self):
        jet = eval_jet3(parse_expr("s"), 7.0)
        assert (jet.v, jet.d1, jet.d2, jet.d3) == (7.0, 1.0, 0.0, 0.0)

    def test_shifted_square(self):
        jet = eval_jet3(parse_expr("(s+1)^2"), 1.0)
        assert (jet.v, jet.d1, jet.d2, jet.d3) == (4.0, 4.0, 2.0, 0.0)

    def test_domain_error_names_node(self):
        with pytest.raises(DomainError, match="log"):
            eval_jet3(parse_expr("log(s-2)"), 1.0)
        with pytest.raises(DomainError, match=r"division by zero.*s - 1"):
            eval_jet3(parse_expr("1/(s-1)"), 1.0)

    @pytest.mark.parametrize("source, node", [
        ("s^log(0-1)", "log(0.0 - 1.0)"),
        ("s^((0-8)^(1/3))", "(0.0 - 8.0)^(1.0/3.0)"),
    ])
    def test_constant_exponent_outside_domain(self, source, node):
        with pytest.raises(DomainError, match=re.escape(f"'{node}'")):
            eval_jet3(parse_expr(source), 1.0)

    @pytest.mark.parametrize("s", [-1.0, 2.0])
    @pytest.mark.parametrize("source", [
        "s^(1e308*10-1e308*10)",    # NaN
        "s^(1e308*10)",             # +inf
        "s^(0-1e308*10)",           # -inf
    ])
    def test_non_finite_constant_exponent(self, source, s):
        message = f"non-finite constant exponent in '{to_source(parse_expr(source))}'"
        with pytest.raises(DomainError, match=re.escape(message)):
            eval_jet3(parse_expr(source), s)

    @pytest.mark.parametrize("exponent", ["cosh(0.4)", "1.3^3", "exp(1)", "sqrt(2)"])
    def test_exponent_uses_the_jet_evaluator(self, exponent):
        # one evaluator: the exponent's value is the one eval_jet3 gives it
        p = eval_jet3(parse_expr(exponent), 0.0).v
        assert eval_jet3(parse_expr(f"s^({exponent})"), 1.7) == jet_pow(jet_variable(1.7), p)

    def test_non_constant_exponent_node(self):
        with pytest.raises(DomainError, match=re.escape("exponent is not constant in 's^s'")):
            eval_jet3(BinOp("^", Var(), Var()), np.array([1.0, 2.0]))

    def test_overflow_is_domain_error(self):
        with pytest.raises(DomainError):
            eval_jet3(parse_expr("exp(s)"), 1e4)

    def test_array_evaluation(self):
        s = np.linspace(0.0, 2.0, 5)
        jet = eval_jet3(parse_expr("sinh(s)"), s)
        np.testing.assert_allclose(jet.v, np.sinh(s), rtol=1e-15)
        np.testing.assert_allclose(jet.d2, np.sinh(s), rtol=1e-15)


# Recursive expression strategy.  Neg never wraps a literal (the parser folds
# those), and exponents are constant by construction.
_consts = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).map(Const)
_funcs = st.sampled_from(["sin", "cos", "sinh", "cosh", "tanh", "exp", "sqrt", "log"])


def _extend(children):
    nonconst = children.filter(lambda e: not isinstance(e, Const))
    return st.one_of(
        st.builds(Neg, nonconst),
        st.builds(lambda op, a, b: BinOp(op, a, b),
                  st.sampled_from(["+", "-", "*", "/"]), children, children),
        st.builds(lambda base, p: BinOp("^", base, Const(float(p))),
                  children, st.integers(min_value=0, max_value=3)),
        st.builds(Call, _funcs, children),
    )


_exprs = st.recursive(st.one_of(_consts, st.just(Var("s"))), _extend, max_leaves=12)


class TestProperties:
    @given(_exprs)
    @settings(max_examples=200, deadline=None)
    def test_print_parse_round_trip(self, e):
        assert parse_expr(to_source(e)) == e

    @given(_exprs, _exprs, st.floats(min_value=-2, max_value=2, allow_nan=False),
           st.floats(min_value=0.1, max_value=2.0))
    @settings(max_examples=100, deadline=None)
    def test_linearity(self, e1, e2, a, s):
        combined = BinOp("+", BinOp("*", Const(a), e1), e2)
        try:
            j1 = eval_jet3(e1, s)
            j2 = eval_jet3(e2, s)
            jc = eval_jet3(combined, s)
        except DomainError:
            assume(False)
        expected = a * j1 + j2
        for got, want in zip((jc.v, jc.d1, jc.d2, jc.d3),
                             (expected.v, expected.d1, expected.d2, expected.d3)):
            assume(abs(want) < 1e12)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    @given(_exprs, _exprs, st.floats(min_value=0.1, max_value=2.0))
    @settings(max_examples=100, deadline=None)
    def test_product_is_truncated_cauchy_product(self, e1, e2, s):
        try:
            j1 = eval_jet3(e1, s)
            j2 = eval_jet3(e2, s)
            jp = eval_jet3(BinOp("*", e1, e2), s)
        except DomainError:
            assume(False)
        cauchy = j1 * j2
        for got, want in zip((jp.v, jp.d1, jp.d2, jp.d3),
                             (cauchy.v, cauchy.d1, cauchy.d2, cauchy.d3)):
            assume(abs(want) < 1e12)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


_SMOOTH_CORPUS = [
    "cosh(s)",
    "exp(-s^2/2)",
    "s^3/6 + sin(s)",
    "log(s)*s",
    "sqrt(s^2+1)",
    "tanh(s)",
    "sinh(s)/(cosh(s)+2)",
    "(s+1)^3/(s+2)",
]


class TestFiniteDifferenceCrossCheck:
    @pytest.mark.parametrize("source", _SMOOTH_CORPUS)
    @pytest.mark.parametrize("point", [0.7, 1.3])
    def test_first_derivative(self, source, point):
        e = parse_expr(source)
        jet = eval_jet3(e, point)
        for h in (1e-4, 1e-5):
            fd = (eval_jet3(e, point + h).v - eval_jet3(e, point - h).v) / (2 * h)
            assert abs(fd - jet.d1) <= 1e-6 * max(1.0, abs(jet.d1))

    @pytest.mark.parametrize("source", _SMOOTH_CORPUS)
    @pytest.mark.parametrize("point", [0.7, 1.3])
    def test_second_derivative_richardson(self, source, point):
        e = parse_expr(source)
        jet = eval_jet3(e, point)

        def second_difference(h):
            return (eval_jet3(e, point + h).v - 2 * eval_jet3(e, point).v
                    + eval_jet3(e, point - h).v) / h**2

        h = 1e-3
        richardson = (4.0 * second_difference(h / 2) - second_difference(h)) / 3.0
        assert abs(richardson - jet.d2) <= 1e-6 * max(1.0, abs(jet.d2))
