"""Lexer and parser tests for the loop language."""

from fractions import Fraction

import pytest

from repro.errors import LexError, ParseError, ReproError
from repro.frontend.lexer import tokenize
from repro.frontend.nodes import (
    ArrayRef,
    Assign,
    BinOp,
    BoolOp,
    Call,
    Compare,
    IfStmt,
    NotOp,
    Num,
    UnaryOp,
    VarRef,
)
from repro.frontend.parser import MAX_EXPR_DEPTH, parse_program
from repro.frontend.pipeline import compile_source
from repro.frontend.tokens import TokenKind

DAXPY = """
real a
real x(100), y(100)
do i = 1, 100
  y(i) = y(i) + a * x(i)
end do
"""


class TestLexer:
    def test_tokenizes_identifiers_keywords_numbers(self):
        tokens = tokenize("do i = 1, 10")
        kinds = [t.kind for t in tokens]
        assert kinds == [
            TokenKind.KEYWORD,
            TokenKind.IDENT,
            TokenKind.OPERATOR,
            TokenKind.NUMBER,
            TokenKind.COMMA,
            TokenKind.NUMBER,
            TokenKind.NEWLINE,
            TokenKind.EOF,
        ]

    def test_comment_runs_to_end_of_line(self):
        tokens = tokenize("a = 1 ! the rest is ignored * / (\nb = 2")
        texts = [t.text for t in tokens if t.kind is TokenKind.IDENT]
        assert texts == ["a", "b"]

    def test_multicharacter_operators_are_greedy(self):
        tokens = tokenize("a <= b >= c == d /= e")
        ops = [t.text for t in tokens if t.kind is TokenKind.OPERATOR]
        assert ops == ["<=", ">=", "==", "/="]

    def test_decimal_numbers(self):
        tokens = tokenize("x = 0.5")
        number = [t for t in tokens if t.kind is TokenKind.NUMBER][0]
        assert number.text == "0.5"

    def test_consecutive_newlines_collapse(self):
        tokens = tokenize("a = 1\n\n\nb = 2")
        newline_count = sum(
            1 for t in tokens if t.kind is TokenKind.NEWLINE
        )
        assert newline_count == 2

    def test_locations_are_tracked(self):
        tokens = tokenize("a = 1\n  b = 2")
        b_token = [t for t in tokens if t.text == "b"][0]
        assert (b_token.location.line, b_token.location.column) == (2, 3)

    def test_bad_character_raises_with_location(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("a = 1 $ 2")
        assert "unexpected character" in str(excinfo.value)
        assert "line 1" in str(excinfo.value)


class TestParserStructure:
    def test_daxpy_parses(self):
        program = parse_program(DAXPY)
        assert program.scalar_names() == ("a",)
        assert program.array_names() == ("x", "y")
        assert program.loop.var == "i"
        assert len(program.loop.body) == 1

    def test_declaration_mixing_scalars_and_arrays(self):
        program = parse_program(
            "real a, x(10), b, y(20)\ndo i = 1, 10\n  b = a\nend do"
        )
        assert program.scalar_names() == ("a", "b")
        assert program.array_names() == ("x", "y")

    def test_loop_bounds_are_expressions(self):
        program = parse_program(
            "real n\ndo i = 1, 100\n  n = n + 1\nend do"
        )
        assert isinstance(program.loop.lower, Num)
        assert program.loop.upper == Num(
            Fraction(100), program.loop.upper.location
        )

    def test_end_do_suffix_optional(self):
        program = parse_program("real s\ndo i = 1, 5\n  s = s\nend")
        assert program.loop.var == "i"

    def test_missing_do_is_an_error(self):
        with pytest.raises(ParseError, match="expected a 'do' loop"):
            parse_program("real a\n")

    def test_trailing_garbage_is_an_error(self):
        with pytest.raises(ParseError, match="unexpected text"):
            parse_program("do i = 1, 5\n  i2 = 1\nend do\nreal b\n")

    def test_unterminated_block(self):
        with pytest.raises(ParseError, match="unterminated block"):
            parse_program("real s\ndo i = 1, 5\n  s = s + 1\n")

    def test_array_extent_must_be_positive_integer(self):
        with pytest.raises(ParseError, match="extent"):
            parse_program("real x(0)\ndo i = 1, 5\n  x(i) = 1\nend do")


class TestParserExpressions:
    def _value(self, text: str):
        source = f"real s, k\nreal x(9), ind(9)\ndo i = 1, 5\n  s = {text}\nend do"
        return parse_program(source).loop.body[0].value

    def test_precedence_mul_over_add(self):
        value = self._value("1 + 2 * 3")
        assert isinstance(value, BinOp) and value.op == "+"
        assert isinstance(value.rhs, BinOp) and value.rhs.op == "*"

    def test_left_associativity_of_subtraction(self):
        value = self._value("1 - 2 - 3")
        assert value.op == "-"
        assert isinstance(value.lhs, BinOp) and value.lhs.op == "-"

    def test_parentheses_override(self):
        value = self._value("(1 + 2) * 3")
        assert value.op == "*"
        assert isinstance(value.lhs, BinOp) and value.lhs.op == "+"

    def test_unary_minus(self):
        value = self._value("-s + 1")
        assert value.op == "+"
        assert isinstance(value.lhs, UnaryOp)

    def test_intrinsic_call(self):
        value = self._value("sqrt(s)")
        assert isinstance(value, Call)
        assert value.func == "sqrt"

    def test_intrinsic_arity_checked(self):
        with pytest.raises(ParseError, match="sqrt takes 1 argument"):
            self._value("sqrt(s, s)")

    def test_two_argument_intrinsic(self):
        value = self._value("max(s, 1)")
        assert isinstance(value, Call) and len(value.args) == 2

    def test_array_reference_with_affine_subscript(self):
        value = self._value("x(i + 1)")
        assert isinstance(value, ArrayRef)
        assert isinstance(value.subscripts[0], BinOp)

    def test_nested_array_reference(self):
        value = self._value("x(ind(i))")
        assert isinstance(value, ArrayRef)
        assert isinstance(value.subscripts[0], ArrayRef)


class TestParserControlFlow:
    def test_if_then_else(self):
        program = parse_program(
            """
            real s
            real x(10)
            do i = 1, 10
              if (x(i) > 0) then
                s = s + x(i)
              else
                s = s - x(i)
              end if
            end do
            """
        )
        stmt = program.loop.body[0]
        assert isinstance(stmt, IfStmt)
        assert isinstance(stmt.cond, Compare)
        assert len(stmt.then_body) == 1
        assert len(stmt.else_body) == 1

    def test_if_without_else(self):
        program = parse_program(
            "real s\nreal x(5)\ndo i = 1, 5\n"
            "  if (x(i) < 1) then\n    s = s + 1\n  end if\nend do"
        )
        stmt = program.loop.body[0]
        assert stmt.else_body == ()

    def test_boolean_connectives_and_not(self):
        program = parse_program(
            "real s, lo, hi\nreal x(5)\ndo i = 1, 5\n"
            "  if (not (x(i) < lo) and x(i) < hi or s == 0) then\n"
            "    s = s + 1\n  end if\nend do"
        )
        cond = program.loop.body[0].cond
        # 'or' binds loosest.
        assert isinstance(cond, BoolOp) and cond.op == "or"
        assert isinstance(cond.lhs, BoolOp) and cond.lhs.op == "and"
        assert isinstance(cond.lhs.lhs, NotOp)

    def test_parenthesised_condition_vs_expression(self):
        program = parse_program(
            "real s\nreal x(5)\ndo i = 1, 5\n"
            "  if ((x(i) + 1) > (2 * s)) then\n    s = s + 1\n  end if\n"
            "end do"
        )
        cond = program.loop.body[0].cond
        assert isinstance(cond, Compare) and cond.op == ">"

    def test_missing_relop_in_condition(self):
        with pytest.raises(ParseError, match="relational"):
            parse_program(
                "real s\ndo i = 1, 5\n  if (s) then\n    s = 1\n  end if\n"
                "end do"
            )

    def test_nested_ifs(self):
        program = parse_program(
            """
            real s, a, b
            real x(5)
            do i = 1, 5
              if (x(i) > a) then
                if (x(i) < b) then
                  s = s + 1
                end if
              end if
            end do
            """
        )
        outer = program.loop.body[0]
        inner = outer.then_body[0]
        assert isinstance(inner, IfStmt)


def _loop_assigning(expr: str) -> str:
    return (
        "real x(1000), y(1000)\n"
        "do i = 1, 1000\n"
        f"  y(i) = {expr}\n"
        "end do\n"
    )


class TestExpressionDepthLimit:
    """Deep expressions fail as a located ParseError in the parser,
    before the parser's or any later pass's recursion overflows."""

    def test_thousand_nested_parentheses(self):
        source = _loop_assigning("(" * 1000 + "x(i)" + ")" * 1000)
        with pytest.raises(ParseError, match="nested deeper than") as info:
            compile_source(source)
        assert isinstance(info.value, ReproError)
        assert "line 3:" in str(info.value)

    def test_flat_three_thousand_term_sum(self):
        source = _loop_assigning(" + ".join(["x(i)"] * 3000))
        with pytest.raises(ParseError, match="nested deeper than") as info:
            compile_source(source)
        assert "line 3:" in str(info.value)

    def test_deep_condition(self):
        cond = " and ".join(["x(i) > 0"] * 1000)
        source = (
            "real s\nreal x(5)\ndo i = 1, 5\n"
            f"  if ({cond}) then\n    s = 1\n  end if\nend do"
        )
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_program(source)

    def test_deep_unary_chain(self):
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_program(_loop_assigning("-" * 1000 + "x(i)"))

    def test_expressions_at_the_limit_compile(self):
        # The statement's own expression and the x(i) subscript are two
        # of the levels; a chain of k terms is k + 1 deep over x(i).
        nested = "(" * (MAX_EXPR_DEPTH - 2) + "x(i)" + ")" * (MAX_EXPR_DEPTH - 2)
        flat = " + ".join(["x(i)"] * (MAX_EXPR_DEPTH - 1))
        for expr in (nested, flat):
            compile_source(_loop_assigning(expr))
        with pytest.raises(ParseError):
            parse_program(_loop_assigning("(" + nested + ")"))
        with pytest.raises(ParseError):
            parse_program(_loop_assigning(flat + " + x(i)"))


def _nested_ifs(levels: int, expr: str = "1") -> str:
    ifs = "".join(f"  if (x(i) > {k}) then\n" for k in range(levels))
    ends = "  end if\n" * levels
    return (
        "real s\nreal x(5)\ndo i = 1, 5\n"
        f"{ifs}    s = {expr}\n{ends}end do\n"
    )


class TestIfNestingLimit:
    """Deeply nested ``if`` statements fail as a located ParseError at
    the ``if`` that crosses :data:`MAX_EXPR_DEPTH`, not as a
    RecursionError from the parser."""

    def test_four_hundred_levels_raise_parse_error(self):
        with pytest.raises(ParseError, match="nested deeper than") as info:
            compile_source(_nested_ifs(400))
        # Line 1-3 are declarations and the loop header; the first if
        # past the limit sits on line 4 + MAX_EXPR_DEPTH.
        assert f"line {4 + MAX_EXPR_DEPTH}:" in str(info.value)

    def test_hundred_levels_compile(self):
        compile_source(_nested_ifs(MAX_EXPR_DEPTH))

    def test_limit_plus_one_is_rejected(self):
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_program(_nested_ifs(MAX_EXPR_DEPTH + 1))

    def test_deep_ifs_around_a_deep_expression_never_overflow(self):
        deep = "(" * (MAX_EXPR_DEPTH - 2) + "x(i)" + ")" * (MAX_EXPR_DEPTH - 2)
        # Either outcome is typed; a RecursionError would escape both.
        try:
            compile_source(_nested_ifs(MAX_EXPR_DEPTH, deep))
        except ReproError:
            pass
