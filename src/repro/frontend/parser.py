"""Recursive-descent parser for the loop language.

Grammar (newline-terminated statements, ``!`` comments)::

    program   := decl* doloop
    decl      := "real" declitem ("," declitem)*
    declitem  := IDENT [ "(" NUMBER ")" ]        -- extent => array
    doloop    := "do" IDENT "=" expr "," expr NL stmt* "end" ["do"]
    stmt      := assign | ifstmt
    assign    := lvalue "=" expr NL
    lvalue    := IDENT [ "(" expr ")" ]
    ifstmt    := "if" "(" cond ")" "then" NL stmt*
                 [ "else" NL stmt* ] "end" ["if"] NL
    cond      := andcond ( "or" andcond )*
    andcond   := notcond ( "and" notcond )*
    notcond   := "not" notcond | "(" cond ")" | compare
    compare   := expr RELOP expr
    expr      := term ( ("+"|"-") term )*
    term      := factor ( ("*"|"/") factor )*
    factor    := "-" factor | primary
    primary   := NUMBER | IDENT [ "(" args ")" ] | "(" expr ")"

An ``IDENT(...)`` primary is an intrinsic call when the name is one of
:data:`~repro.frontend.nodes.INTRINSICS`, otherwise an array reference;
the semantic pass later checks that array references name declared
arrays.
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import ParseError
from repro.frontend.lexer import tokenize
from repro.frontend.nodes import (
    INTRINSICS,
    ArrayDecl,
    ArrayRef,
    Assign,
    BinOp,
    BoolOp,
    Call,
    Compare,
    Cond,
    DoLoop,
    Expr,
    IfStmt,
    NotOp,
    Num,
    Program,
    ScalarDecl,
    Stmt,
    UnaryOp,
    VarRef,
)
from repro.frontend.source import format_diagnostic
from repro.frontend.tokens import Token, TokenKind

#: Relational operators accepted in conditions (``/=`` is not-equal).
RELOPS = frozenset({"<", "<=", ">", ">=", "==", "/="})

#: Deepest expression or condition the parser accepts.  Two measures
#: are held to it: the nesting of the text being parsed (parentheses,
#: unary operators, call arguments, subscripts, ``not``), which bounds
#: the parser's own recursion, and the depth of the tree it builds
#: (a flat ``a + a + ...`` is one level per operator), which bounds the
#: recursion of every later pass.  Nested ``if`` statements are held to
#: the same limit, counted apart from expressions.  Deeper input raises
#: a ParseError at the token that crossed the limit.
MAX_EXPR_DEPTH = 100


def parse_program(source: str) -> Program:
    """Parse *source* into a :class:`Program`."""
    return _Parser(source).parse_program()


class _Parser:
    """Token-stream cursor with one-token lookahead."""

    def __init__(self, source: str) -> None:
        self._source = source
        self._tokens = tokenize(source)
        self._index = 0
        self._nesting = 0
        self._if_nesting = 0

    # ------------------------------------------------------------------
    # Cursor primitives
    # ------------------------------------------------------------------
    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def _error(self, message: str, token: Token | None = None) -> ParseError:
        token = token or self._current
        return ParseError(
            format_diagnostic(self._source, token.location, message)
        )

    def _descend(self) -> None:
        """Enter one more level of nested expression text."""
        self._nesting += 1
        if self._nesting > MAX_EXPR_DEPTH:
            raise self._too_deep()

    def _too_deep(self, token: Token | None = None) -> ParseError:
        return self._error(
            f"expression nested deeper than {MAX_EXPR_DEPTH} levels", token
        )

    def _checked(self, depth: int, token: Token) -> int:
        """*depth* of a node built at *token*, if within the limit."""
        if depth > MAX_EXPR_DEPTH:
            raise self._too_deep(token)
        return depth

    def _expect_operator(self, symbol: str) -> Token:
        if not self._current.is_operator(symbol):
            raise self._error(f"expected {symbol!r}")
        return self._advance()

    def _expect_kind(self, kind: TokenKind) -> Token:
        if self._current.kind is not kind:
            raise self._error(f"expected {kind.value}")
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        if not self._current.is_keyword(word):
            raise self._error(f"expected {word!r}")
        return self._advance()

    def _skip_newlines(self) -> None:
        while self._current.kind is TokenKind.NEWLINE:
            self._advance()

    def _end_statement(self) -> None:
        if self._current.kind is TokenKind.EOF:
            return
        if self._current.kind is not TokenKind.NEWLINE:
            raise self._error("expected end of statement")
        self._skip_newlines()

    # ------------------------------------------------------------------
    # Program structure
    # ------------------------------------------------------------------
    def parse_program(self) -> Program:
        scalars: list[ScalarDecl] = []
        arrays: list[ArrayDecl] = []
        self._skip_newlines()
        while self._current.is_keyword("real"):
            scalar_decl, array_decl = self._parse_decl()
            if scalar_decl.names:
                scalars.append(scalar_decl)
            if array_decl.names:
                arrays.append(array_decl)
        if not self._current.is_keyword("do"):
            raise self._error("expected a 'do' loop")
        loop = self._parse_doloop()
        self._skip_newlines()
        if self._current.kind is not TokenKind.EOF:
            raise self._error("unexpected text after the loop")
        return Program(tuple(scalars), tuple(arrays), loop)

    def _parse_decl(self) -> tuple[ScalarDecl, ArrayDecl]:
        location = self._expect_keyword("real").location
        scalar_names: list[str] = []
        array_names: list[str] = []
        array_shapes: list[tuple[int, ...]] = []
        while True:
            name = self._expect_kind(TokenKind.IDENT)
            if self._current.kind is TokenKind.LPAREN:
                self._advance()
                extents = [self._parse_extent()]
                while self._current.kind is TokenKind.COMMA:
                    self._advance()
                    extents.append(self._parse_extent())
                self._expect_kind(TokenKind.RPAREN)
                array_names.append(name.text)
                array_shapes.append(tuple(extents))
            else:
                scalar_names.append(name.text)
            if self._current.kind is not TokenKind.COMMA:
                break
            self._advance()
        self._end_statement()
        return (
            ScalarDecl(tuple(scalar_names), location),
            ArrayDecl(tuple(array_names), tuple(array_shapes), location),
        )

    def _parse_extent(self) -> int:
        size = self._expect_kind(TokenKind.NUMBER)
        extent = Fraction(size.text)
        if extent.denominator != 1 or extent < 1:
            raise self._error(
                "array extent must be a positive integer", size
            )
        return int(extent)

    def _parse_doloop(self) -> DoLoop:
        location = self._expect_keyword("do").location
        var = self._expect_kind(TokenKind.IDENT).text
        self._expect_operator("=")
        lower = self._parse_expr()
        self._expect_kind(TokenKind.COMMA)
        upper = self._parse_expr()
        step = 1
        if self._current.kind is TokenKind.COMMA:
            self._advance()
            step = self._parse_step()
        self._end_statement()
        body = self._parse_stmts()
        self._expect_keyword("end")
        if self._current.is_keyword("do"):
            self._advance()
        self._end_statement()
        return DoLoop(var, lower, upper, tuple(body), step, location)

    def _parse_step(self) -> int:
        """A loop step: a nonzero integer literal, optionally negated."""
        negate = False
        if self._current.is_operator("-"):
            self._advance()
            negate = True
        token = self._expect_kind(TokenKind.NUMBER)
        value = Fraction(token.text)
        if value.denominator != 1 or value == 0:
            raise self._error(
                "loop step must be a nonzero integer literal", token
            )
        step = int(value)
        return -step if negate else step

    def _parse_stmts(self) -> list[Stmt]:
        stmts: list[Stmt] = []
        self._skip_newlines()
        while not self._current.is_keyword("end") and not self._current.is_keyword("else"):
            if self._current.kind is TokenKind.EOF:
                raise self._error("unterminated block: expected 'end'")
            stmts.append(self._parse_stmt())
            self._skip_newlines()
        return stmts

    def _parse_stmt(self) -> Stmt:
        if self._current.is_keyword("if"):
            return self._parse_if()
        return self._parse_assign()

    def _parse_assign(self) -> Assign:
        token = self._current
        if token.kind is not TokenKind.IDENT:
            raise self._error("expected a statement")
        self._advance()
        target: VarRef | ArrayRef
        if self._current.kind is TokenKind.LPAREN:
            self._advance()
            subscripts, _ = self._expr_list()
            target = ArrayRef(token.text, subscripts, token.location)
        else:
            target = VarRef(token.text, token.location)
        self._expect_operator("=")
        value = self._parse_expr()
        self._end_statement()
        return Assign(target, value, token.location)

    def _parse_if(self) -> IfStmt:
        token = self._expect_keyword("if")
        self._if_nesting += 1
        if self._if_nesting > MAX_EXPR_DEPTH:
            raise self._error(
                f"if statements nested deeper than {MAX_EXPR_DEPTH} levels",
                token,
            )
        self._expect_kind(TokenKind.LPAREN)
        cond, _ = self._cond()
        self._expect_kind(TokenKind.RPAREN)
        self._expect_keyword("then")
        self._end_statement()
        then_body = self._parse_stmts()
        else_body: list[Stmt] = []
        if self._current.is_keyword("else"):
            self._advance()
            self._end_statement()
            else_body = self._parse_stmts()
        self._expect_keyword("end")
        if self._current.is_keyword("if"):
            self._advance()
        self._end_statement()
        self._if_nesting -= 1
        return IfStmt(cond, tuple(then_body), tuple(else_body), token.location)

    # ------------------------------------------------------------------
    # Conditions
    # ------------------------------------------------------------------
    # Each condition and expression method returns its node with the
    # depth of the tree under it (a leaf is 1).

    def _cond(self) -> tuple[Cond, int]:
        cond, depth = self._and_cond()
        while self._current.is_keyword("or"):
            token = self._advance()
            rhs, rhs_depth = self._and_cond()
            cond = BoolOp("or", cond, rhs, token.location)
            depth = self._checked(1 + max(depth, rhs_depth), token)
        return cond, depth

    def _and_cond(self) -> tuple[Cond, int]:
        cond, depth = self._not_cond()
        while self._current.is_keyword("and"):
            token = self._advance()
            rhs, rhs_depth = self._not_cond()
            cond = BoolOp("and", cond, rhs, token.location)
            depth = self._checked(1 + max(depth, rhs_depth), token)
        return cond, depth

    def _not_cond(self) -> tuple[Cond, int]:
        self._descend()
        if self._current.is_keyword("not"):
            token = self._advance()
            operand, depth = self._not_cond()
            result = (
                NotOp(operand, token.location),
                self._checked(1 + depth, token),
            )
        elif self._current.kind is TokenKind.LPAREN and self._is_paren_cond():
            self._advance()
            result = self._cond()
            self._expect_kind(TokenKind.RPAREN)
        else:
            result = self._compare()
        self._nesting -= 1
        return result

    def _is_paren_cond(self) -> bool:
        """Disambiguate ``(cond)`` from a parenthesised arithmetic operand.

        Scan forward from the current ``(`` to its matching ``)``; if a
        relational operator or boolean keyword appears at depth >= 1 the
        parenthesis opens a condition.
        """
        depth = 0
        for token in self._tokens[self._index:]:
            if token.kind is TokenKind.LPAREN:
                depth += 1
            elif token.kind is TokenKind.RPAREN:
                depth -= 1
                if depth == 0:
                    return False
            elif depth >= 1:
                if token.kind is TokenKind.OPERATOR and token.text in RELOPS:
                    return True
                if token.kind is TokenKind.KEYWORD and token.text in (
                    "and",
                    "or",
                    "not",
                ):
                    return True
            if token.kind in (TokenKind.NEWLINE, TokenKind.EOF):
                return False
        return False

    def _compare(self) -> tuple[Compare, int]:
        lhs, lhs_depth = self._expr()
        token = self._current
        if token.kind is not TokenKind.OPERATOR or token.text not in RELOPS:
            raise self._error("expected a relational operator")
        self._advance()
        rhs, rhs_depth = self._expr()
        return (
            Compare(token.text, lhs, rhs, token.location),
            self._checked(1 + max(lhs_depth, rhs_depth), token),
        )

    # ------------------------------------------------------------------
    # Arithmetic expressions
    # ------------------------------------------------------------------
    def _parse_expr(self) -> Expr:
        return self._expr()[0]

    def _expr(self) -> tuple[Expr, int]:
        self._descend()
        expr, depth = self._term()
        while self._current.is_operator("+") or self._current.is_operator("-"):
            token = self._advance()
            rhs, rhs_depth = self._term()
            expr = BinOp(token.text, expr, rhs, token.location)
            depth = self._checked(1 + max(depth, rhs_depth), token)
        self._nesting -= 1
        return expr, depth

    def _term(self) -> tuple[Expr, int]:
        expr, depth = self._factor()
        while self._current.is_operator("*") or self._current.is_operator("/"):
            token = self._advance()
            rhs, rhs_depth = self._factor()
            expr = BinOp(token.text, expr, rhs, token.location)
            depth = self._checked(1 + max(depth, rhs_depth), token)
        return expr, depth

    def _factor(self) -> tuple[Expr, int]:
        token = self._current
        if token.is_operator("-") or token.is_operator("+"):
            self._advance()
            self._descend()
            operand, depth = self._factor()
            self._nesting -= 1
            if token.text == "+":
                return operand, depth
            return (
                UnaryOp("-", operand, token.location),
                self._checked(1 + depth, token),
            )
        return self._primary()

    def _primary(self) -> tuple[Expr, int]:
        token = self._current
        if token.kind is TokenKind.NUMBER:
            self._advance()
            return Num(Fraction(token.text), token.location), 1
        if token.kind is TokenKind.LPAREN:
            self._advance()
            result = self._expr()
            self._expect_kind(TokenKind.RPAREN)
            return result
        if token.kind is TokenKind.IDENT:
            self._advance()
            if self._current.kind is not TokenKind.LPAREN:
                return VarRef(token.text, token.location), 1
            self._advance()
            if token.text in INTRINSICS:
                args, depth = self._expr_list()
                arity = INTRINSICS[token.text]
                if len(args) != arity:
                    raise self._error(
                        f"{token.text} takes {arity} argument"
                        f"{'s' if arity != 1 else ''}, got {len(args)}",
                        token,
                    )
                return (
                    Call(token.text, args, token.location),
                    self._checked(1 + depth, token),
                )
            subscripts, depth = self._expr_list()
            return (
                ArrayRef(token.text, subscripts, token.location),
                self._checked(1 + depth, token),
            )
        raise self._error("expected an expression")

    def _expr_list(self) -> tuple[tuple[Expr, ...], int]:
        """Comma-separated expressions up to and including the ``)``
        (the ``(`` is already consumed), with the deepest one's depth."""
        expr, depth = self._expr()
        exprs = [expr]
        while self._current.kind is TokenKind.COMMA:
            self._advance()
            expr, expr_depth = self._expr()
            exprs.append(expr)
            depth = max(depth, expr_depth)
        self._expect_kind(TokenKind.RPAREN)
        return tuple(exprs), depth
