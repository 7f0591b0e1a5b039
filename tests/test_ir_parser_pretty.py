"""Parser and pretty-printer tests, including the round-trip property."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.dsl import (
    XS,
    add,
    div,
    fold,
    fold_sum,
    gt,
    ite,
    lam,
    length,
    mul,
    powi,
    program,
    proj,
    sub,
    tup,
)
from repro.ir.nodes import Const, Expr, Lambda, ListVar, Var
from repro.ir.parser import ParseError, parse_expr, parse_program
from repro.ir.pretty import pretty, program_to_sexpr, to_sexpr


class TestParsing:
    def test_number_literals(self):
        assert parse_expr("42") == Const(42)
        assert parse_expr("-3") == Const(-3)
        assert parse_expr("1/3") == Const(Fraction(1, 3))
        assert parse_expr("2.5") == Const(2.5)

    def test_boolean_literals(self):
        assert parse_expr("true") == Const(True)
        assert parse_expr("false") == Const(False)

    def test_list_variable_resolution(self):
        assert parse_expr("xs") == ListVar("xs")
        assert parse_expr("ys") == Var("ys")

    def test_shadowing_in_lambda(self):
        # A lambda parameter named xs shadows the list variable.
        lam_expr = parse_expr("(lambda (xs) xs)")
        assert isinstance(lam_expr, Lambda)
        assert lam_expr.body == Var("xs")

    def test_builtin_call(self):
        assert parse_expr("(add 1 2)") == add(1, 2)

    def test_unknown_function_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("(frobnicate 1)")

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("(add 1 2")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("(add 1 2) 3")

    def test_eta_expansion_of_builtin_in_fold(self):
        fold_expr = parse_expr("(foldl add 0 xs)")
        assert isinstance(fold_expr.func, Lambda)
        assert len(fold_expr.func.params) == 2

    def test_comments_stripped(self):
        assert parse_expr("(add 1 2) ; a comment") == add(1, 2)

    def test_program_with_extra_params(self):
        prog = parse_program("(lambda (xs t) (gt t 0))")
        assert prog.extra_params == ("t",)
        assert prog.param == "xs"

    def test_program_requires_lambda(self):
        with pytest.raises(ParseError):
            parse_program("(add 1 2)")

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_program, "(lambda)"),  # no parameters, no body
            (parse_program, "(lambda (xs))"),  # no body
            (parse_program, "(lambda ((a) b) 1)"),  # a parameter that is a list
            (parse_program, "(lambda (xs) 1 2)"),  # a second body
            (parse_expr, "(lambda ((a) b) 1)"),
            (parse_expr, "1/0"),  # zero denominator
            (parse_expr, "(proj (tuple 1 2) " + "9" * 5000 + ")"),  # int too long
            (parse_expr, "(neg " * 300 + "1" + ")" * 300),  # nested too deep
        ],
        ids=["lambda", "no-body", "list-param", "two-bodies", "expr-list-param",
             "zero-denominator", "long-int", "deep-nesting"],
    )
    def test_malformed_input_raises_parse_error(self, parse, text):
        with pytest.raises(ParseError):
            parse(text)


def sample_programs():
    avg = div(fold_sum(XS), length(XS))
    return [
        program(fold_sum(XS)),
        program(avg),
        program(div(fold(lam("a", "v", add("a", powi(sub("v", avg), 2))), 0, XS), length(XS))),
        program(ite(gt(length(XS), 0), avg, 0)),
        program(proj(fold(lam("t", "v", tup(add(proj("t", 0), "v"), mul(proj("t", 1), "v"))), tup(0, 1), XS), 1)),
        program(fold(lam("a", "v", ite(gt("v", "t"), add("a", 1), Var("a"))), 0, XS), ("t",)),
    ]


class TestRoundTrip:
    @pytest.mark.parametrize("prog", sample_programs())
    def test_program_roundtrip(self, prog):
        assert parse_program(program_to_sexpr(prog)) == prog

    @pytest.mark.parametrize("prog", sample_programs())
    def test_expr_roundtrip(self, prog):
        body = prog.body
        assert parse_expr(to_sexpr(body)) == body


class TestPretty:
    def test_infix_precedence(self):
        expr = mul(add(1, 2), 3)
        assert pretty(expr) == "(1 + 2) * 3"

    def test_no_spurious_parens(self):
        expr = add(add(1, 2), 3)
        assert pretty(expr) == "1 + 2 + 3"

    def test_division_precedence(self):
        expr = div(1, add(2, 3))
        assert pretty(expr) == "1 / (2 + 3)"

    def test_conditional(self):
        expr = ite(gt("x", 0), "x", 0)
        assert pretty(expr) == "x > 0 ? x : 0"

    def test_fraction_rendering(self):
        assert pretty(Const(Fraction(1, 3))) == "1/3"

    def test_tuple_rendering(self):
        assert pretty(tup(1, 2)) == "(1, 2)"
        assert pretty(proj(Var("t"), 0)) == "t[0]"


# A recursive hypothesis strategy over a safe expression subset.
_leaf = st.sampled_from(
    [Const(0), Const(1), Const(Fraction(1, 2)), Var("a"), Var("b"), ListVar("xs")]
)


def _combine(children):
    binops = st.sampled_from(["add", "sub", "mul", "div"])

    @st.composite
    def build(draw):
        from repro.ir.nodes import Call

        op = draw(binops)
        left = draw(children)
        right = draw(children)
        if isinstance(left, ListVar) or isinstance(right, ListVar):
            return draw(_leaf.filter(lambda e: not isinstance(e, ListVar)))
        return Call(op, (left, right))

    return build()


scalar_exprs = st.recursive(
    _leaf.filter(lambda e: not isinstance(e, ListVar)), _combine, max_leaves=12
)


class TestRoundTripProperty:
    @settings(max_examples=80, deadline=None)
    @given(scalar_exprs)
    def test_sexpr_roundtrip(self, expr: Expr):
        assert parse_expr(to_sexpr(expr)) == expr
