"""Evaluate perffield's printed and JSON outputs at points of a finite field.

The oracles for the CLI never feed an output back through perffield.
They parse the text with this module's own reader of the calculator
grammar and evaluate both sides at random points of F_{p^m} (gf.GF),
where x_i^(1/p^k) is the unique p^k-th root of the coordinate. Two
rational functions that differ disagree at a random point with
probability about degree/p^m, so a few points catch a wrong answer.

The grammar, as the README states it: + - left-associative, then * /,
then unary minus, then ^ with an integer exponent that may be written
(-k), then atoms: numbers, names and root(expr, depth).
"""

from __future__ import annotations

import re

from gf import Pole

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(.))")


class SyntaxFault(Exception):
    """Output text that the calculator grammar does not accept."""


def tokenize(src):
    out = []
    for num, name, op in _TOKEN.findall(src.rstrip()):
        if num:
            out.append(("num", int(num)))
        elif name:
            out.append(("name", name))
        else:
            out.append((op, op))
    out.append(("end", None))
    return out


class _Reader:
    def __init__(self, src):
        self.toks = tokenize(src)
        self.i = 0

    def peek(self):
        return self.toks[self.i][0]

    def take(self, kind=None):
        tok = self.toks[self.i]
        if kind is not None and tok[0] != kind:
            raise SyntaxFault(f"expected {kind}, found {tok[0]}")
        self.i += 1
        return tok[1]

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = ("bin", op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            node = ("bin", op, node, self.unary())
        return node

    def unary(self):
        if self.peek() == "-":
            self.take()
            return ("neg", self.unary())
        node = self.atom()
        while self.peek() == "^":
            self.take()
            node = ("pow", node, self.exponent())
        return node

    def exponent(self):
        paren = self.peek() == "("
        if paren:
            self.take()
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        value = sign * self.take("num")
        if paren:
            self.take(")")
        return value

    def atom(self):
        kind = self.peek()
        if kind == "num":
            return ("num", self.take())
        if kind == "name":
            name = self.take()
            if name != "root":
                return ("name", name)
            self.take("(")
            arg = self.expr()
            self.take(",")
            depth = self.take("num")
            self.take(")")
            return ("root", arg, depth)
        if kind == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        raise SyntaxFault(f"unexpected {kind}")


def parse(src):
    reader = _Reader(src)
    node = reader.expr()
    if reader.peek() != "end":
        raise SyntaxFault(f"trailing input in {src!r}")
    return node


def evaluate(node, gf, env):
    """Value of a parsed expression; env maps names to field encodings."""
    kind = node[0]
    if kind == "num":
        return gf.const(node[1])
    if kind == "name":
        return env[node[1]]
    if kind == "neg":
        return gf.neg(evaluate(node[1], gf, env))
    if kind == "pow":
        return gf.pow(evaluate(node[1], gf, env), node[2])
    if kind == "root":
        return gf.root(evaluate(node[1], gf, env), node[2])
    a = evaluate(node[2], gf, env)
    b = evaluate(node[3], gf, env)
    op = node[1]
    if op == "+":
        return gf.add(a, b)
    if op == "-":
        return gf.sub(a, b)
    if op == "*":
        return gf.mul(a, b)
    return gf.div(a, b)


def eval_terms(terms, gf, roots):
    """Sparse polynomial given as (exponents, coeff) pairs."""
    acc = 0
    for mono, c in terms:
        term = gf.const(c)
        for x, e in zip(roots, mono):
            if e:
                term = gf.mul(term, gf.pow(x, e))
        acc = gf.add(acc, term)
    return acc


def eval_element(level, num, den, gf, xs):
    """A perfect-closure element stored as (level, num terms, den terms):
    its variables are the p^level-th roots of the coordinates."""
    roots = [gf.root(x, level) for x in xs]
    return gf.div(eval_terms(num, gf, roots), eval_terms(den, gf, roots))


def eval_element_json(obj, gf, xs):
    return eval_element(obj["level"], obj["num"], obj["den"], gf, xs)


def eval_value_json(obj, gf, xs, t):
    """A CLI JSON value: an element, or a polynomial in t."""
    if obj["kind"] == "element":
        return eval_element_json(obj, gf, xs)
    acc = 0
    for c in reversed(obj["coeffs"]):
        acc = gf.add(gf.mul(acc, t), eval_element_json(c, gf, xs))
    return acc


def eval_perfelem(elem, gf, xs):
    """A library PerfElem, read through its stored fields only."""
    body = elem.body
    return eval_element(
        elem.level, body.num.terms.items(), body.den.terms.items(), gf, xs
    )


def eval_unipoly(poly, gf, xs, t):
    acc = 0
    for c in reversed(poly.coeffs):
        acc = gf.add(gf.mul(acc, t), eval_perfelem(c, gf, xs))
    return acc


def agree(rng, gf, nvars, sides, points=3, tries=40):
    """True when every callable in `sides` (taking xs, t) gives one value
    at each of `points` random points; points where any side has a pole
    are skipped. False if not enough pole-free points turn up."""
    good = 0
    for _ in range(tries):
        xs = [rng.randrange(1, gf.q) for _ in range(nvars)]
        t = rng.randrange(gf.q)
        try:
            values = [side(xs, t) for side in sides]
        except Pole:
            continue
        if any(v != values[0] for v in values):
            return False
        good += 1
        if good == points:
            return True
    return False
