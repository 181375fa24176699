"""Recursive-descent parser for calculator expressions.

Grammar (precedence low to high; +, -, *, / left-associative):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' exponent)*
    exponent:= ['-'] NUMBER | '(' ['-'] NUMBER ')'
    atom    := NUMBER | NAME | '(' expr ')' | 'root' '(' expr ',' NUMBER ')'

Exponents are integer literals only, and every integer literal has at
most MAX_LITERAL_DIGITS digits. Every node carries its source span
(start, end) in byte offsets, and every failure is a ParseError with the
offset and the tokens that would have been accepted; nesting depth is
bounded so arbitrary input cannot blow the interpreter stack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ParseError

MAX_DEPTH = 150
# longest integer literal accepted, well below the interpreter's own
# limit on int/str conversion (4300 digits by default)
MAX_LITERAL_DIGITS = 1000

_OPS = set("+-*/^(),=")


@dataclass(frozen=True)
class Token:
    kind: str  # "number", "name", the operator itself, or "end"
    text: str
    start: int
    end: int


# ASCII-only classes: str.isdigit/isalnum accept Unicode lookalikes
# (superscripts, fullwidth forms) that int() and the grammar reject.
_DIGITS = frozenset("0123456789")
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CONT = _NAME_START | _DIGITS


def tokenize(src: str) -> list[Token]:
    out = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i + 1
            while j < n and src[j] in _DIGITS:
                j += 1
            if j - i > MAX_LITERAL_DIGITS:
                raise ParseError(
                    i,
                    {f"an integer of at most {MAX_LITERAL_DIGITS} digits"},
                    f"an integer of {j - i} digits",
                )
            out.append(Token("number", src[i:j], i, j))
            i = j
            continue
        if ch in _NAME_START:
            j = i + 1
            while j < n and src[j] in _NAME_CONT:
                j += 1
            out.append(Token("name", src[i:j], i, j))
            i = j
            continue
        if ch in _OPS:
            out.append(Token(ch, ch, i, i + 1))
            i += 1
            continue
        raise ParseError(i, {"a number", "a name", "an operator"}, repr(ch))
    out.append(Token("end", "", n, n))
    return out


# -- syntax tree ---------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    start: int
    end: int


@dataclass(frozen=True)
class Num(Node):
    value: int


@dataclass(frozen=True)
class Name(Node):
    name: str


@dataclass(frozen=True)
class Unary(Node):
    operand: Node


@dataclass(frozen=True)
class BinOp(Node):
    op: str
    lhs: Node
    rhs: Node


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: int


@dataclass(frozen=True)
class Root(Node):
    arg: Node
    depth: int


# -- parser ------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.start, {what}, _describe(tok))
        return self.advance()

    def expr(self, depth: int):
        self._guard(depth)
        node = self.term(depth)
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term(depth)
            node = BinOp(node.start, rhs.end, op, node, rhs)
        return node

    def term(self, depth: int):
        node = self.unary(depth)
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.unary(depth)
            node = BinOp(node.start, rhs.end, op, node, rhs)
        return node

    def unary(self, depth: int):
        self._guard(depth)
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            operand = self.unary(depth + 1)
            return Unary(tok.start, operand.end, operand)
        return self.power(depth)

    def power(self, depth: int):
        node = self.atom(depth)
        while self.peek().kind == "^":
            self.advance()
            value, end = self.exponent()
            node = Pow(node.start, end, node, value)
        return node

    def exponent(self) -> tuple[int, int]:
        if self.peek().kind != "(":
            return self._signed_number()
        self.advance()
        value, _ = self._signed_number()
        return value, self.expect(")", "')'").end

    def _signed_number(self) -> tuple[int, int]:
        sign = 1
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            sign = -1
        num = self.expect("number", "an integer exponent")
        return sign * int(num.text), num.end

    def atom(self, depth: int):
        self._guard(depth)
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(tok.start, tok.end, int(tok.text))
        if tok.kind == "name":
            self.advance()
            if tok.text == "root":
                return self._root(tok, depth)
            if self.peek().kind == "(":
                raise ParseError(
                    self.peek().start,
                    {"an operator"},
                    f"'(' (the only function is root; '{tok.text}' is not callable)",
                )
            return Name(tok.start, tok.end, tok.text)
        if tok.kind == "(":
            self.advance()
            node = self.expr(depth + 1)
            close = self.expect(")", "')'")
            # keep the parenthesized span so error messages point at the group
            return replace(node, start=tok.start, end=close.end)
        raise ParseError(tok.start, {"a number", "a name", "'('", "'-'"}, _describe(tok))

    def _root(self, kw: Token, depth: int):
        self.expect("(", "'(' after root")
        arg = self.expr(depth + 1)
        self.expect(",", "',' between the root argument and its depth")
        num = self.expect("number", "a non-negative root depth")
        close = self.expect(")", "')'")
        return Root(kw.start, close.end, arg, int(num.text))

    def _guard(self, depth: int):
        if depth > MAX_DEPTH:
            raise ParseError(
                self.peek().start, {"a shallower expression"}, "nesting too deep"
            )


def _describe(tok: Token) -> str:
    if tok.kind == "end":
        return "end of input"
    return f"'{tok.text}'"


def parse_expression(src: str) -> Node:
    """Parse a complete expression; trailing input is an error."""
    parser = _Parser(tokenize(src))
    node = parser.expr(0)
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(tok.start, {"end of input", "an operator"}, _describe(tok))
    return node


def parse_prefix(src: str) -> tuple[Node, int]:
    """Parse an expression prefix; returns the node and the offset where
    parsing stopped. Commands with trailing arguments use this."""
    parser = _Parser(tokenize(src))
    node = parser.expr(0)
    return node, parser.peek().start
