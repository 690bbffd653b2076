"""Parser and printer for coordinate-ring expressions.

Grammar (whitespace free between tokens):

    expr       := term (('+' | '-') term)*
    term       := factor ('*' factor)*
    factor     := base ('^' natural)?
    base       := rational | 'zeta' | identifier | '(' expr ')'
    rational   := '-'? natural ('/' natural)?
    natural    := digit+
    identifier := letter (letter | digit | '_')*

Digits and letters are ASCII only: any other character but whitespace and
the operators, such as a superscript two, is a ``ParseError`` at its
position, and so is a ``_`` that would start a name.

There is no unary minus on subexpressions: a leading sign is part of a
rational literal, so ``-1*x2`` is valid while ``-x2`` is not.  ``zeta``
denotes the primitive root of unity of the ambient order.  The printer
emits strings that re-parse to the same polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import CycScalar
from .jetpoly import JetPoly
from .value import Value, setters


class ParseError(ValueError):
    """Syntax or name error with a 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class Token(Value):
    __slots__ = __match_args__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value: str, line: int, col: int):
        _set_kind(self, kind)  # "number", "name", "op", "end"
        _set_value(self, value)
        _set_line(self, line)
        _set_col(self, col)


_set_kind, _set_value, _set_line, _set_col = setters(Token)


_OPS = set("+-*^()/")


def tokenize(text: str) -> list[Token]:
    # isascii first: isdigit and isalpha alone also take other scripts'
    # digits and superscripts, which int() reads or rejects
    out: list[Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if c in _OPS:
            out.append(Token("op", c, line, col))
            col += 1
            i += 1
            continue
        if c.isascii() and c.isdigit():
            j = i
            while j < len(text) and text[j].isascii() and text[j].isdigit():
                j += 1
            out.append(Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isascii() and c.isalpha():
            j = i
            while j < len(text) and text[j].isascii() and (
                text[j].isalnum() or text[j] == "_"
            ):
                j += 1
            out.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c == "_":
            raise ParseError("a name must start with a letter", line, col)
        raise ParseError(f"unexpected character {c!r}", line, col)
    out.append(Token("end", "", line, col))
    return out


class _Parser:
    def __init__(self, tokens: list[Token], order: int, var_map: dict[str, int]):
        self.tokens = tokens
        self.pos = 0
        self.order = order
        self.var_map = var_map

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, value: str) -> Token:
        tok = self.peek()
        if tok.kind != "op" or tok.value != value:
            raise ParseError(
                f"expected {value!r}, found {tok.value!r}" if tok.kind != "end"
                else f"expected {value!r}, found end of input",
                tok.line,
                tok.col,
            )
        return self.take()

    def parse(self) -> JetPoly:
        p = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.value!r}", tok.line, tok.col)
        return p

    def expr(self) -> JetPoly:
        p = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value in "+-":
                self.take()
                q = self.term()
                p = p + q if tok.value == "+" else p - q
            else:
                return p

    def term(self) -> JetPoly:
        p = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value == "*":
                self.take()
                p = p * self.factor()
            else:
                return p

    def factor(self) -> JetPoly:
        p = self.base()
        tok = self.peek()
        if tok.kind == "op" and tok.value == "^":
            self.take()
            p = p ** self.natural()
        return p

    def natural(self) -> int:
        tok = self.peek()
        if tok.kind != "number":
            raise ParseError(
                f"expected an exponent, found {tok.value!r}", tok.line, tok.col
            )
        self.take()
        return int(tok.value)

    def base(self) -> JetPoly:
        tok = self.peek()
        if tok.kind == "op" and tok.value == "-":
            self.take()
            return JetPoly.const(self.order, -self.rational_tail())
        if tok.kind == "number":
            return JetPoly.const(self.order, self.rational_tail())
        if tok.kind == "name":
            self.take()
            if tok.value == "zeta":
                return JetPoly.const(self.order, CycScalar.zeta(self.order))
            idx = self.var_map.get(tok.value)
            if idx is None:
                raise ParseError(f"unknown name {tok.value!r}", tok.line, tok.col)
            return JetPoly.var(self.order, idx)
        if tok.kind == "op" and tok.value == "(":
            self.take()
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(
            f"unexpected {tok.value!r}" if tok.kind != "end" else "unexpected end of input",
            tok.line,
            tok.col,
        )

    def rational_tail(self) -> Fraction:
        tok = self.peek()
        if tok.kind != "number":
            raise ParseError(
                f"expected a number, found {tok.value!r}", tok.line, tok.col
            )
        self.take()
        num = int(tok.value)
        nxt = self.peek()
        if nxt.kind == "op" and nxt.value == "/":
            self.take()
            den_tok = self.peek()
            if den_tok.kind != "number":
                raise ParseError(
                    f"expected a denominator, found {den_tok.value!r}",
                    den_tok.line,
                    den_tok.col,
                )
            self.take()
            den = int(den_tok.value)
            if den == 0:
                raise ParseError("zero denominator", den_tok.line, den_tok.col)
            return Fraction(num, den)
        return Fraction(num)


def parse_expression(text: str, order: int, variables) -> JetPoly:
    """Parse an expression over the named level-0 coordinates.

    ``variables`` is the ordered list of coordinate names; name i maps to
    coordinate index i+1.
    """
    var_map = {name: i + 1 for i, name in enumerate(variables)}
    return _Parser(tokenize(text), order, var_map).parse()


def format_poly(p: JetPoly, variables) -> str:
    """Grammar-valid rendering of a level-0 polynomial, re-parsing to p."""
    names = {i + 1: name for i, name in enumerate(variables)}
    if p.is_zero:
        return "0"
    pieces: list[tuple[bool, str, str]] = []  # (negative, coeff body, mono)
    for mon, c in p.terms:
        bits = []
        for v, e in mon.factors:
            if v.level != 0 or v.point != 0:
                raise ValueError("only level-0 coordinate polynomials print")
            name = names.get(v.index)
            if name is None:
                raise ValueError(f"no name for coordinate {v.index}")
            bits.append(name if e == 1 else f"{name}^{e}")
        mono = "*".join(bits)
        if c.is_rational():
            r = c.as_rational()
            pieces.append((r < 0, str(abs(r)), mono))
        else:
            pieces.append((False, f"({c})", mono))
    out = []
    for k, (neg, coeff, mono) in enumerate(pieces):
        if mono and coeff == "1":
            body = mono
            signed_head = f"-1*{mono}"
        elif mono:
            body = f"{coeff}*{mono}"
            signed_head = f"-{body}"
        else:
            body = coeff
            signed_head = f"-{body}"
        if k == 0:
            out.append(signed_head if neg else body)
        else:
            out.append(f" - {body}" if neg else f" + {body}")
    return "".join(out)
