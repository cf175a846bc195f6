"""Text formats for rings and polynomials.

Ring declarations are ``;``- or newline-separated statements::

    field Q; vars Z1..Z9,Y; weights 1,1,1,1,1,1,1,1,1,0

Polynomials use ``^`` for powers, ``*`` for products and rational literals
like ``3/4`` (division is allowed between integer literals only, so the
coefficient field stays a field of scalars, never rational functions).
The grammar is ASCII-only; see docs/grammar.md for the EBNF.
"""

from __future__ import annotations

import re

from .errors import InputError, ParseError
from .fields import parse_field
from .orders import GrevlexOrder, LexOrder
from .rings import Polynomial, PolyRing

_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r]+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<newline>\n)"
    r"|(?P<int>\d+)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<range>\.\.)"
    r"|(?P<sym>[-+*^/(),;])"
)


class Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


def tokenize(text: str, keep_newlines: bool = False):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind == "newline":
            if keep_newlines:
                tokens.append(Token("newline", value, line, col))
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                tokens.append(Token(kind, value, line, col))
            col += len(value)
        pos = m.end()
    tokens.append(Token("end", "", line, col))
    return tokens


class _TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def accept(self, kind, value=None):
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.next()
        return None

    def expect(self, kind, value=None, what=None) -> Token:
        tok = self.accept(kind, value)
        if tok is None:
            found = self.peek()
            wanted = what or value or kind
            raise ParseError(f"expected {wanted}, found {found.value!r}", found.line, found.column)
        return tok


# ---------------------------------------------------------------------------
# ring declarations

_RANGE_VAR = re.compile(r"^([A-Za-z][A-Za-z0-9_]*?)(\d+)$")


def _expand_var_item(stream: _TokenStream):
    first = stream.expect("ident", what="variable name")
    if stream.accept("range") is None:
        return [first.value]
    second = stream.expect("ident", what="variable name after '..'")
    m1 = _RANGE_VAR.match(first.value)
    m2 = _RANGE_VAR.match(second.value)
    if not m1 or not m2 or m1.group(1) != m2.group(1):
        raise ParseError(
            f"range endpoints must share a prefix with numeric suffixes: "
            f"{first.value!r}..{second.value!r}",
            first.line,
            first.column,
        )
    lo, hi = int(m1.group(2)), int(m2.group(2))
    if lo > hi:
        raise ParseError("descending variable range", first.line, first.column)
    return [f"{m1.group(1)}{i}" for i in range(lo, hi + 1)]


def parse_ring(text: str) -> PolyRing:
    """Parse a ring declaration; deterministic, errors carry line/column."""
    stream = _TokenStream(tokenize(text, keep_newlines=True))
    field = None
    names: list[str] = []
    weights = None
    order_name = None
    while True:
        while stream.accept("newline") or stream.accept("sym", ";"):
            pass
        tok = stream.peek()
        if tok.kind == "end":
            break
        stmt = stream.expect("ident", what="statement keyword")
        if stmt.value == "field":
            ftok = stream.expect("ident", what="field name (Q or F<p>)")
            try:
                field = parse_field(ftok.value)
            except InputError as exc:
                raise ParseError(str(exc), ftok.line, ftok.column) from None
        elif stmt.value == "vars":
            while True:
                for name in _expand_var_item(stream):
                    if name in names:
                        raise ParseError(f"duplicate variable {name!r}", stmt.line, stmt.column)
                    names.append(name)
                if stream.accept("sym", ",") is None:
                    break
        elif stmt.value == "weights":
            weights = []
            while True:
                wtok = stream.expect("int", what="weight")
                weights.append(int(wtok.value))
                if stream.accept("sym", ",") is None:
                    break
        elif stmt.value == "order":
            otok = stream.expect("ident", what="order name")
            if otok.value not in ("grevlex", "lex"):
                raise ParseError(f"unknown order {otok.value!r}", otok.line, otok.column)
            order_name = otok.value
        else:
            raise ParseError(f"unknown statement {stmt.value!r}", stmt.line, stmt.column)
        if stream.peek().kind not in ("end",) and not (
            stream.peek().kind == "newline" or stream.peek().value == ";"
        ):
            bad = stream.peek()
            raise ParseError(f"expected ';' or newline, found {bad.value!r}", bad.line, bad.column)
    if field is None:
        raise ParseError("missing 'field' statement", 1, 1)
    if not names:
        raise ParseError("missing 'vars' statement", 1, 1)
    if weights is not None and len(weights) != len(names):
        raise ParseError(f"{len(names)} variables but {len(weights)} weights", 1, 1)
    order = None
    if order_name == "lex":
        order = LexOrder(len(names))
    elif order_name == "grevlex":
        order = GrevlexOrder(weights if weights is not None else (1,) * len(names))
    try:
        return PolyRing(names, field, weights, order)
    except InputError as exc:
        raise ParseError(str(exc), 1, 1) from None


# ---------------------------------------------------------------------------
# polynomial expressions

def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse a polynomial expression in ``ring``; parse(str(f)) == f."""
    stream = _TokenStream(tokenize(text))
    poly = _parse_sum(stream, ring)
    tail = stream.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected trailing input {tail.value!r}", tail.line, tail.column)
    return poly


def _parse_sum(stream, ring):
    negate = False
    if stream.accept("sym", "-"):
        negate = True
    elif stream.accept("sym", "+"):
        pass
    result = _parse_term(stream, ring)
    if negate:
        result = -result
    while True:
        if stream.accept("sym", "+"):
            result = result + _parse_term(stream, ring)
        elif stream.accept("sym", "-"):
            result = result - _parse_term(stream, ring)
        else:
            return result


def _parse_term(stream, ring):
    result = _parse_factor(stream, ring)
    while True:
        if stream.accept("sym", "*"):
            result = result * _parse_factor(stream, ring)
            continue
        nxt = stream.peek()
        if nxt.kind == "sym" and nxt.value == "/":
            raise ParseError(
                "division is only allowed between integer literals", nxt.line, nxt.column
            )
        return result


def _parse_factor(stream, ring):
    base = _parse_atom(stream, ring)
    if stream.accept("sym", "^"):
        etok = stream.expect("int", what="exponent")
        return base ** int(etok.value)
    return base


def _parse_atom(stream, ring):
    tok = stream.peek()
    if tok.kind == "int":
        stream.next()
        numerator = int(tok.value)
        if stream.accept("sym", "/"):
            dtok = stream.expect("int", what="integer denominator")
            try:
                return ring.constant(ring.field.scalar(numerator, int(dtok.value)))
            except InputError as exc:
                raise ParseError(str(exc), dtok.line, dtok.column) from None
        return ring.constant(ring.field.scalar(numerator))
    if tok.kind == "ident":
        stream.next()
        try:
            return ring.variable(tok.value)
        except InputError:
            raise ParseError(f"unknown variable {tok.value!r}", tok.line, tok.column) from None
    if tok.kind == "sym" and tok.value == "(":
        stream.next()
        inner = _parse_sum(stream, ring)
        stream.expect("sym", ")", what="')'")
        return inner
    if tok.kind == "sym" and tok.value == "/":
        raise ParseError("division is only allowed between integer literals", tok.line, tok.column)
    raise ParseError(f"expected a polynomial atom, found {tok.value!r}", tok.line, tok.column)


def parse_generators(text: str, ring: PolyRing) -> list[Polynomial]:
    """Parse an ideal file: one polynomial per line, '#' comments allowed."""
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            gens.append(parse_polynomial(line, ring))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc.args[0]}", lineno, exc.column) from None
    return gens
