"""Tests for the expression tokenizer and recursive-descent parser."""

import pytest

from perffield.errors import ParseError
from perffield.parser import (
    MAX_DEPTH,
    MAX_LITERAL_DIGITS,
    BinOp,
    Name,
    Num,
    Pow,
    Root,
    Unary,
    parse_expression,
    parse_prefix,
    tokenize,
)


def test_tokenize_basic():
    toks = tokenize("x1 + 23")
    assert [(t.kind, t.text) for t in toks[:-1]] == [
        ("name", "x1"),
        ("+", "+"),
        ("number", "23"),
    ]
    assert toks[-1].kind == "end"


def test_tokenize_offsets():
    toks = tokenize("x1 + x2")
    assert (toks[0].start, toks[0].end) == (0, 2)
    assert (toks[1].start, toks[1].end) == (3, 4)
    assert (toks[2].start, toks[2].end) == (5, 7)


def test_tokenize_rejects_stray_character():
    with pytest.raises(ParseError) as exc:
        tokenize("x1 $ x2")
    assert exc.value.offset == 3


def test_tokenize_bounds_literal_length():
    ok = "9" * MAX_LITERAL_DIGITS
    assert tokenize(ok)[0].text == ok
    with pytest.raises(ParseError) as exc:
        tokenize("x1^" + ok + "9")
    assert exc.value.offset == 3
    assert f"at most {MAX_LITERAL_DIGITS} digits" in str(exc.value)


def test_precedence_mul_before_add():
    node = parse_expression("x1 + x2*x1")
    assert isinstance(node, BinOp) and node.op == "+"
    assert isinstance(node.lhs, Name) and node.lhs.name == "x1"
    assert isinstance(node.rhs, BinOp) and node.rhs.op == "*"
    assert node.rhs.lhs.name == "x2"
    assert node.rhs.rhs.name == "x1"


def test_root_then_power():
    node = parse_expression("root(x1, 2)^2")
    assert isinstance(node, Pow) and node.exponent == 2
    assert isinstance(node.base, Root) and node.base.depth == 2
    assert isinstance(node.base.arg, Name) and node.base.arg.name == "x1"


def test_truncated_input_error_offset():
    with pytest.raises(ParseError) as exc:
        parse_expression("x1 +")
    assert exc.value.offset == 4
    assert "end of input" in str(exc.value)


def test_left_associativity():
    node = parse_expression("1 - 2 - 3")
    assert node.op == "-"
    assert isinstance(node.lhs, BinOp) and node.lhs.op == "-"
    assert node.lhs.lhs.value == 1 and node.lhs.rhs.value == 2
    assert node.rhs.value == 3
    div = parse_expression("8/4/2")
    assert div.op == "/" and isinstance(div.lhs, BinOp)


def test_power_binds_tighter_than_unary_minus():
    node = parse_expression("-x1^2")
    assert isinstance(node, Unary)
    assert isinstance(node.operand, Pow) and node.operand.exponent == 2


def test_unary_in_product():
    node = parse_expression("2*-x1")
    assert node.op == "*"
    assert isinstance(node.rhs, Unary)


def test_negative_exponents():
    bare = parse_expression("x1^-2")
    assert isinstance(bare, Pow) and bare.exponent == -2
    wrapped = parse_expression("x1^(-2)")
    assert isinstance(wrapped, Pow) and wrapped.exponent == -2


def test_exponent_must_be_integer_literal():
    with pytest.raises(ParseError) as exc:
        parse_expression("x1^x2")
    assert "integer exponent" in str(exc.value)


def test_chained_powers():
    # each ^ consumes one integer literal; the result reapplies to the base
    node = parse_expression("x1^2^3")
    assert isinstance(node, Pow) and node.exponent == 3
    assert isinstance(node.base, Pow) and node.base.exponent == 2


def test_spans():
    node = parse_expression("x1 + x2")
    assert (node.start, node.end) == (0, 7)
    assert (node.lhs.start, node.lhs.end) == (0, 2)
    assert (node.rhs.start, node.rhs.end) == (5, 7)


def test_parenthesized_span_covers_parens():
    node = parse_expression("(x1)")
    assert isinstance(node, Name)
    assert (node.start, node.end) == (0, 4)


def test_root_syntax_errors():
    with pytest.raises(ParseError) as exc:
        parse_expression("root x1")
    assert "after root" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_expression("root(x1)")
    assert "root argument" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_expression("root(x1, x2)")
    assert "root depth" in str(exc.value)


def test_only_root_is_callable():
    with pytest.raises(ParseError) as exc:
        parse_expression("foo(x1)")
    assert "not callable" in str(exc.value)


def test_trailing_input_rejected():
    with pytest.raises(ParseError) as exc:
        parse_expression("x1 x2")
    assert exc.value.offset == 3


def test_empty_input():
    with pytest.raises(ParseError) as exc:
        parse_expression("")
    assert exc.value.offset == 0


def test_missing_close_paren():
    with pytest.raises(ParseError) as exc:
        parse_expression("(x1 + x2")
    assert "')'" in str(exc.value)


def test_depth_guard_instead_of_recursion_error():
    deep = "(" * (MAX_DEPTH + 10) + "x1" + ")" * (MAX_DEPTH + 10)
    with pytest.raises(ParseError) as exc:
        parse_expression(deep)
    assert "nesting too deep" in str(exc.value)
    minus = "-" * (MAX_DEPTH + 10) + "x1"
    with pytest.raises(ParseError):
        parse_expression(minus)


def test_parse_prefix_stops_at_first_nonexpression():
    node, stop = parse_prefix("x1 + x2 3")
    assert isinstance(node, BinOp)
    assert stop == 8
    assert "x1 + x2 3"[stop:].strip() == "3"


def test_parse_prefix_consumes_everything_when_it_can():
    node, stop = parse_prefix("x1 * x2")
    assert stop == 7


def test_numbers():
    node = parse_expression("042")
    assert isinstance(node, Num) and node.value == 42
