"""Expression DSL for curve components and invariant profiles.

Grammar (EBNF, also documented in the README):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;              (* right associative *)
    atom    = NUMBER | PARAM | FUNC "(" expr ")" | "(" expr ")" ;
    FUNC    = "sin" | "cos" | "sinh" | "cosh" | "tanh"
            | "exp" | "log" | "sqrt" | "abs" ;

Each expression has exactly one free variable, the curve parameter (by
default "s").  Exponents of "^" must be constant subexpressions; the jet
evaluator computes them like any other subexpression.  Numbers
are decimal literals of ASCII digits with optional fraction and exponent;
a literal too large for a float is a LexError.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .jets import (
    JET_FUNCTIONS,
    DomainError,
    Jet3,
    jet_constant,
    jet_pow,
    jet_variable,
)

__all__ = [
    "Expr", "Const", "Var", "Neg", "BinOp", "Call",
    "Token", "LexError", "ParseError", "DomainError",
    "tokenize", "parse", "parse_expr", "to_source",
    "eval_jet3", "as_expr", "FUNCTION_NAMES",
]

FUNCTION_NAMES = frozenset(JET_FUNCTIONS)


class LexError(ValueError):
    """Unrecognized or malformed input text; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ParseError(ValueError):
    """Token stream violates the grammar; carries the token index."""

    def __init__(self, message: str, index: int):
        super().__init__(f"{message} (token {index})")
        self.index = index


class Expr:
    """Base class of expression nodes.  Nodes are immutable and hashable."""

    def jet3(self, s) -> Jet3:
        return eval_jet3(self, s)

    def __str__(self) -> str:
        return to_source(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str = "s"


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * / ^
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


@dataclass(frozen=True)
class Token:
    kind: str  # NUM | IDENT | OP | LPAREN | RPAREN
    text: str
    offset: int
    value: float = 0.0


# ASCII digits only: str.isdigit() would also accept other scripts' digits
_NUMBER = re.compile(r"[0-9]+(\.[0-9]*)?([eE][+-]?[0-9]+)?")


def _byte_offset(source: str, index: int) -> int:
    return len(source[:index].encode("utf-8"))


def tokenize(source: str) -> list[Token]:
    """Split source text into number / identifier / operator / paren tokens."""
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            # an e/E without exponent digits is left to start an identifier
            number = _NUMBER.match(source, i)
            text, fraction = number.group(), number.group(1)
            if fraction == ".":
                raise LexError("expected digits after decimal point",
                               _byte_offset(source, number.start(1)))
            value = float(text)
            if math.isinf(value):
                raise LexError(f"number {text!r} overflows a float",
                               _byte_offset(source, i))
            tokens.append(Token("NUM", text, _byte_offset(source, i), value))
            i = number.end()
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(Token("IDENT", source[start:i], _byte_offset(source, start)))
            continue
        if ch in "+-*/^":
            tokens.append(Token("OP", ch, _byte_offset(source, i)))
            i += 1
            continue
        if ch == "(":
            tokens.append(Token("LPAREN", ch, _byte_offset(source, i)))
            i += 1
            continue
        if ch == ")":
            tokens.append(Token("RPAREN", ch, _byte_offset(source, i)))
            i += 1
            continue
        raise LexError(f"unrecognized character {ch!r}", _byte_offset(source, i))
    return tokens


def _contains_var(e: Expr) -> bool:
    if isinstance(e, Var):
        return True
    if isinstance(e, Neg):
        return _contains_var(e.arg)
    if isinstance(e, BinOp):
        return _contains_var(e.lhs) or _contains_var(e.rhs)
    if isinstance(e, Call):
        return _contains_var(e.arg)
    return False


class _Parser:
    def __init__(self, tokens: list[Token], param: str):
        self.tokens = tokens
        self.param = param
        self.pos = 0

    def _peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> Token:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos)
        self.pos += 1
        return tok

    def _fail(self, expected: str):
        tok = self._peek()
        got = f"{tok.kind} {tok.text!r}" if tok else "end of input"
        raise ParseError(f"expected {expected}, got {got}", self.pos)

    def parse(self) -> Expr:
        e = self._expr()
        if self._peek() is not None:
            self._fail("end of input")
        return e

    def _expr(self) -> Expr:
        e = self._term()
        while (tok := self._peek()) is not None and tok.kind == "OP" and tok.text in "+-":
            self._next()
            e = BinOp(tok.text, e, self._term())
        return e

    def _term(self) -> Expr:
        e = self._unary()
        while (tok := self._peek()) is not None and tok.kind == "OP" and tok.text in "*/":
            self._next()
            e = BinOp(tok.text, e, self._unary())
        return e

    def _unary(self) -> Expr:
        tok = self._peek()
        if tok is not None and tok.kind == "OP" and tok.text == "-":
            self._next()
            arg = self._unary()
            if isinstance(arg, Const):
                return Const(-arg.value)  # fold literal negation for round-trips
            return Neg(arg)
        return self._power()

    def _power(self) -> Expr:
        base = self._atom()
        tok = self._peek()
        if tok is not None and tok.kind == "OP" and tok.text == "^":
            op_index = self.pos
            self._next()
            exponent = self._unary()
            if _contains_var(exponent):
                raise ParseError("exponent must be a constant expression", op_index)
            return BinOp("^", base, exponent)
        return base

    def _atom(self) -> Expr:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos)
        if tok.kind == "NUM":
            self._next()
            return Const(tok.value)
        if tok.kind == "LPAREN":
            self._next()
            e = self._expr()
            if (nxt := self._peek()) is None or nxt.kind != "RPAREN":
                self._fail("')'")
            self._next()
            return e
        if tok.kind == "IDENT":
            self._next()
            nxt = self._peek()
            if nxt is not None and nxt.kind == "LPAREN":
                if tok.text not in FUNCTION_NAMES:
                    raise ParseError(f"unknown function {tok.text!r}", self.pos - 1)
                self._next()
                arg = self._expr()
                if (close := self._peek()) is None or close.kind != "RPAREN":
                    self._fail("')'")
                self._next()
                return Call(tok.text, arg)
            if tok.text == self.param:
                return Var(tok.text)
            if tok.text in FUNCTION_NAMES:
                raise ParseError(f"function {tok.text!r} must be called with '('",
                                 self.pos - 1)
            raise ParseError(f"unknown identifier {tok.text!r}", self.pos - 1)
        self._fail("a number, parameter, function call or '('")


def parse(tokens: list[Token], param: str = "s") -> Expr:
    """Parse a token sequence into an expression tree."""
    return _Parser(tokens, param).parse()


def parse_expr(source: str, param: str = "s") -> Expr:
    """Tokenize and parse source text in one step."""
    return parse(tokenize(source), param)


def as_expr(value, param: str = "s") -> Expr:
    """Coerce a string, number or Expr into an Expr."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, str):
        return parse_expr(value, param)
    return Const(float(value))


_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e: Expr) -> int:
    if isinstance(e, BinOp):
        if e.op in "+-":
            return _LEVEL_ADD
        if e.op in "*/":
            return _LEVEL_MUL
        return _LEVEL_POW
    if isinstance(e, Neg):
        return _LEVEL_UNARY
    if isinstance(e, Const) and math.copysign(1.0, e.value) < 0:
        return _LEVEL_UNARY  # prints with a leading minus
    return _LEVEL_ATOM


def _render(e: Expr, minimum: int) -> str:
    text = _render_node(e)
    if _level(e) < minimum:
        return f"({text})"
    return text


def _render_node(e: Expr) -> str:
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return "-" + _render(e.arg, _LEVEL_UNARY)
    if isinstance(e, Call):
        return f"{e.func}({_render(e.arg, 0)})"
    if isinstance(e, BinOp):
        if e.op in "+-":
            return f"{_render(e.lhs, _LEVEL_ADD)} {e.op} {_render(e.rhs, _LEVEL_MUL)}"
        if e.op in "*/":
            return f"{_render(e.lhs, _LEVEL_MUL)}{e.op}{_render(e.rhs, _LEVEL_UNARY)}"
        return f"{_render(e.lhs, _LEVEL_ATOM)}^{_render(e.rhs, _LEVEL_UNARY)}"
    raise TypeError(f"not an expression node: {e!r}")


def to_source(e: Expr) -> str:
    """Render an expression tree to text that parses back to the same tree."""
    return _render(e, 0)


def _eval_jet(e: Expr, s) -> Jet3:
    if isinstance(e, Const):
        return jet_constant(e.value)
    if isinstance(e, Var):
        return jet_variable(s)
    if isinstance(e, Neg):
        return -_eval_jet(e.arg, s)
    if isinstance(e, BinOp):
        lhs = _eval_jet(e.lhs, s)
        if e.op == "^":
            # the exponent's own errors already name the node they come from
            p = _eval_jet(e.rhs, s)
            try:
                if np.ndim(p.v):
                    raise DomainError("exponent is not constant")
                if not math.isfinite(p.v):
                    raise DomainError("non-finite constant exponent")
                if p.d1 or p.d2 or p.d3:
                    raise DomainError("exponent is not constant")
                return jet_pow(lhs, float(p.v))
            except (DomainError, ZeroDivisionError, OverflowError) as err:
                raise DomainError(f"{err} in '{to_source(e)}'") from None
        rhs = _eval_jet(e.rhs, s)
        if e.op == "+":
            return lhs + rhs
        if e.op == "-":
            return lhs - rhs
        if e.op == "*":
            return lhs * rhs
        try:
            return lhs / rhs
        except (DomainError, ZeroDivisionError, OverflowError) as err:
            raise DomainError(f"{err} in '{to_source(e)}'") from None
    if isinstance(e, Call):
        arg = _eval_jet(e.arg, s)
        try:
            return JET_FUNCTIONS[e.func](arg)
        except (DomainError, ZeroDivisionError, OverflowError) as err:
            raise DomainError(f"{err} in '{to_source(e)}'") from None
    raise TypeError(f"not an expression node: {e!r}")


def eval_jet3(e: Expr, s) -> Jet3:
    """Evaluate the expression and its first three derivatives at s.

    s may be a float or a numpy array; constants stay scalar and broadcast.
    Raises DomainError when a primitive is evaluated outside its domain or
    the result overflows.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        jet = _eval_jet(e, s)
    if not jet.is_finite():
        raise DomainError(f"non-finite result evaluating '{to_source(e)}'")
    return jet

