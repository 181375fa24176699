"""Tests for normalized rational functions over Z_p."""

import random

import pytest

from perffield.errors import (
    ContextMismatch,
    DivisionByZero,
    PoleAtPoint,
    ZeroDenominator,
)
from perffield.fqtower import make_field
from perffield.multipoly import MultiPoly, poly_gcd
from perffield.perfclosure import PerfContext, PerfElem
from perffield.primefield import PrimeField
from perffield.ratfunc import RatFunc

from helpers import (
    oracle_add,
    oracle_div,
    oracle_pow,
    oracle_ratmul,
    oracle_reduce,
    oracle_sub,
    random_multipoly,
    random_nonzero_multipoly,
    random_ratfunc,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def mp(field, nvars, terms):
    return MultiPoly(field, nvars, terms)


def test_constructor_reduces_to_lowest_terms():
    # (y1^2 - y2^2)/(y1 - y2) cancels down to y1 + y2
    num = mp(F5, 2, {(2, 0): 1, (0, 2): -1})
    den = mp(F5, 2, {(1, 0): 1, (0, 1): -1})
    r = RatFunc(num, den)
    assert r.is_poly
    assert r.num == mp(F5, 2, {(1, 0): 1, (0, 1): 1})
    assert r.den == 1


def test_constructor_cancels_to_one():
    y1 = mp(F2, 1, {(1,): 1})
    assert RatFunc(y1, y1) == 1


def test_constructor_makes_denominator_monic():
    r = RatFunc(mp(F3, 1, {(1,): 2}), mp(F3, 1, {(0,): 2}))
    assert r.num == mp(F3, 1, {(1,): 1})
    assert r.den == 1


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        RatFunc(mp(F2, 1, {(1,): 1}), MultiPoly.zero(F2, 1))


def test_add_cancels_char2():
    inv_y1 = RatFunc(mp(F2, 1, {(0,): 1}), mp(F2, 1, {(1,): 1}))
    assert (inv_y1 + inv_y1).is_zero


def test_mul_inverse():
    y1 = RatFunc.variable(F3, 1, 0)
    assert y1 * y1.inv() == 1


def test_partial_fraction_sum_mod5():
    # 1/(y1-1) + 1/(y1+1) = 2*y1 / (y1^2 + 4)
    y1 = RatFunc.variable(F5, 1, 0)
    one = RatFunc.const(F5, 1, 1)
    s = (y1 - one).inv() + (y1 + one).inv()
    assert s.num == mp(F5, 1, {(1,): 2})
    assert s.den == mp(F5, 1, {(2,): 1, (0,): 4})


def test_division_by_zero():
    y1 = RatFunc.variable(F3, 1, 0)
    with pytest.raises(DivisionByZero):
        y1 / RatFunc.const(F3, 1, 0)
    with pytest.raises(DivisionByZero):
        RatFunc.const(F3, 1, 0).inv()


def test_normalization_idempotent():
    rng = random.Random(77)
    for p in (2, 3, 5):
        field = PrimeField(p)
        for _ in range(50):
            r = random_ratfunc(rng, field, 2)
            again = RatFunc(r.num, r.den)
            assert again.num == r.num and again.den == r.den


def test_invariants_hold_after_arithmetic():
    rng = random.Random(88)
    for _ in range(60):
        a = random_ratfunc(rng, F3, 2)
        b = random_ratfunc(rng, F3, 2)
        for r in (a + b, a - b, a * b):
            assert not r.den.is_zero
            assert r.den.leading_coeff() == 1
            if not r.num.is_zero:
                assert poly_gcd(r.num, r.den).is_constant


def test_equality_matches_cross_multiplication():
    rng = random.Random(99)
    for _ in range(80):
        a = random_ratfunc(rng, F5, 2)
        b = random_ratfunc(rng, F5, 2)
        structural = a == b
        cross = a.num * b.den == b.num * a.den
        assert structural == cross


def test_eval_simple():
    y1 = RatFunc.variable(F3, 1, 0)
    assert y1.eval((2,), F3) == 2


def test_eval_pole():
    r = RatFunc(mp(F2, 1, {(0,): 1}), mp(F2, 1, {(1,): 1}))
    with pytest.raises(PoleAtPoint):
        r.eval((0,), F2)


def test_eval_example_mod5():
    # (y1 + y2)/(y1 - y2) at (3, 1) is 4/2 = 2
    num = mp(F5, 2, {(1, 0): 1, (0, 1): 1})
    den = mp(F5, 2, {(1, 0): 1, (0, 1): -1})
    assert RatFunc(num, den).eval((3, 1), F5) == 2


def _pole_free_points(rng, fq, funcs, count):
    pts = []
    while len(pts) < count:
        pt = tuple(fq.from_encoding(rng.randrange(fq.order)) for _ in range(2))
        if all(not f.den.eval(pt, fq) == 0 for f in funcs):
            pts.append(pt)
    return pts


def test_field_axioms_with_evaluation_witness():
    rng = random.Random(1234)
    for p in (2, 3):
        field = PrimeField(p)
        fq = make_field(p, 8)
        for _ in range(20):
            a = random_ratfunc(rng, field, 2)
            b = random_ratfunc(rng, field, 2)
            c = random_ratfunc(rng, field, 2)
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            lhs, rhs = (a + b) * c, a * c + b * c
            for pt in _pole_free_points(rng, fq, (a, b, c, lhs, rhs), 5):
                assert lhs.eval(pt, fq) == rhs.eval(pt, fq)


def test_format():
    y1 = RatFunc.variable(F5, 2, 0)
    y2 = RatFunc.variable(F5, 2, 1)
    assert str(y1 + y2) == "x1 + x2"
    assert str(y1 / y2) == "x1 / x2"
    assert str((y1 + 1) / (y2 + 1)) == "(x1 + 1) / (x2 + 1)"


def _henrici_pool(rng, field, nvars, max_terms=3):
    """Operands for every branch of the Henrici rules: denominators 1 and
    not 1, fewer variables (the pad path), zero, constants, and fractions
    whose numerators and denominators share factors across the pool."""

    def poly(n=nvars):
        return random_nonzero_multipoly(rng, field, n, max_terms, 2)

    one = MultiPoly.const(field, nvars, 1)
    f, g, h, k = poly(), poly(), poly(), poly()
    fewer = rng.randint(1, nvars)
    return [
        RatFunc(poly(), one),
        RatFunc(random_multipoly(rng, field, nvars, 2, 2), one),
        RatFunc.const(field, nvars, rng.randrange(field.p)),
        RatFunc.const(field, 0, rng.randrange(1, field.p)),
        RatFunc(f * g, h),
        RatFunc(h * k, g * f),
        RatFunc(k, g * h),
        RatFunc(f * h, g * g * k),
        RatFunc(poly(n=fewer), poly(n=fewer)),
    ]


def _same(got, want):
    assert got.nvars == want.nvars
    assert got.num.terms == want.num.terms
    assert got.den.terms == want.den.terms
    assert str(got) == str(want)


def test_henrici_arithmetic_matches_multiply_then_reduce():
    rng = random.Random(4242)
    for p in (2, 3, 5, 7, 101):
        field = PrimeField(p)
        for nvars in (1, 2, 3):
            pool = _henrici_pool(rng, field, nvars)
            for x in pool:
                _same(RatFunc(x.num, x.den), oracle_reduce(x.num, x.den))
                for e in (-3, -1, 0, 1, 2, 3):
                    if e < 0 and x.is_zero:
                        with pytest.raises(DivisionByZero):
                            x**e
                        continue
                    _same(x**e, oracle_pow(x, e))
                for y in pool:
                    _same(x + y, oracle_add(x, y))
                    _same(x - y, oracle_sub(x, y))
                    _same(x * y, oracle_ratmul(x, y))
                    if y.is_zero:
                        with pytest.raises(DivisionByZero):
                            x / y
                    else:
                        _same(x / y, oracle_div(x, y))
                # sums that cancel to zero or to a constant
                c = RatFunc.const(field, nvars, rng.randrange(p))
                rest = oracle_sub(c, x)
                _same(x + rest, c)
                _same(rest + x, c)
                _same(x - x, RatFunc.const(field, x.nvars, 0))
                _same(x + (-x), RatFunc.const(field, x.nvars, 0))


def test_henrici_results_are_valid_perfect_closure_elements():
    rng = random.Random(4343)
    for p in (2, 3, 5, 7, 101):
        for nvars in (1, 2, 3):
            ctx = PerfContext(p, nvars)
            # validate certifies lowest terms with poly_gcd, whose PRS is
            # slow on coprime inputs in 3 variables (seconds for degree 6
            # at p = 101), and a level multiplies every degree by p; so
            # this pool has 2-term factors and only small primes get a level
            top = 1 if p < 10 else 0
            elems = [
                PerfElem.canonical(ctx, rng.randint(0, top), x)
                for x in _henrici_pool(rng, ctx.field, nvars, max_terms=2)
            ]
            for a in elems:
                (a**2).validate()
                if not a.is_zero:
                    (a**-1).validate()
                for b in elems:
                    for r in (a + b, a - b, a * b):
                        r.validate()
                    if not b.is_zero:
                        (a / b).validate()


def test_constructor_folds_constant_denominator():
    x1 = MultiPoly.variable(F5, 1, 0)
    r = RatFunc(x1, 3)
    assert r.num.terms == {(1,): 2}  # 3^-1 = 2 mod 5
    assert r.den.terms == {(0,): 1}
    assert str(r) == "2*x1"


def test_equal_but_distinct_prime_fields_combine():
    F5b = PrimeField(5)
    assert F5b == F5 and F5b is not F5
    x = RatFunc(mp(F5, 2, {(1, 0): 1}), mp(F5, 2, {(0, 1): 1, (0, 0): 1}))
    y = RatFunc(mp(F5b, 1, {(1,): 2}), mp(F5b, 1, {(1,): 1, (0,): 3}))
    y_same = RatFunc(mp(F5, 1, {(1,): 2}), mp(F5, 1, {(1,): 1, (0,): 3}))
    for got, want in (
        (x + y, x + y_same),
        (x - y, x - y_same),
        (x * y, x * y_same),
        (x / y, x / y_same),
        (y + x, y_same + x),
    ):
        assert got == want and str(got) == str(want)
    assert mp(F5, 1, {(1,): 1}) * mp(F5b, 1, {(1,): 1}) == mp(F5, 1, {(2,): 1})


def test_mixing_primes_raises_context_mismatch():
    x3 = RatFunc.variable(F3, 1, 0)
    x5 = RatFunc.variable(F5, 1, 0)
    for op in (
        lambda: x3 + x5,
        lambda: x3 * x5,
        lambda: x3 / x5,
        lambda: x3.num + x5.num,
        lambda: PerfContext(3, 1).variable(0) * PerfContext(5, 1).variable(0),
    ):
        with pytest.raises(ContextMismatch):
            op()


def test_separately_built_contexts_combine():
    c1, c2 = PerfContext(3, 2), PerfContext(3, 2)
    assert c1 == c2 and c1 is not c2
    x = c1.variable(0).pth_root() + 1
    y = (c2.variable(1) + 2).inv()
    y_same = (c1.variable(1) + 2).inv()
    for got, want in (
        (x + y, x + y_same),
        (x * y, x * y_same),
        (y - x, y_same - x),
        (x / y, x / y_same),
    ):
        got.validate()
        assert got == want and str(got) == str(want)
