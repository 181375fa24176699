"""Tests for normalized rational functions over Z_p."""

import itertools
import random

import pytest

from perffield.errors import (
    ContextMismatch,
    DivisionByZero,
    PoleAtPoint,
    ZeroDenominator,
)
from perffield import multipoly
from perffield.fqtower import FqField, make_field
from perffield.multipoly import MultiPoly, poly_gcd
from perffield.perfclosure import PerfContext, PerfElem
from perffield.primefield import PrimeField
from perffield.ratfunc import RatFunc

from helpers import (
    oracle_add,
    oracle_div,
    oracle_multipoly_eval,
    oracle_perfelem_eval,
    oracle_pow,
    oracle_ratfunc_eval,
    oracle_ratmul,
    oracle_reduce,
    oracle_sub,
    random_multipoly,
    random_nonzero_multipoly,
    random_perfelem,
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
            # validate certifies lowest terms with poly_gcd, and a level
            # multiplies every degree by p, so at p = 101 a gcd of lifted
            # 3-term factors has degrees past 100
            elems = [
                PerfElem.canonical(ctx, rng.randint(0, 1), x)
                for x in _henrici_pool(rng, ctx.field, nvars)
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


# -- evaluation on encodings, against the element-by-element oracles --------


def _same_eval(value, oracle, point, field=None):
    """value.eval(point, field) gives the oracle's element of the oracle's
    field, or raises the oracle's error with its message; the outcome."""
    try:
        want = oracle(value, point, field)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            value.eval(point, field)
        assert str(got.value) == str(exc)
        return type(exc)
    got = value.eval(point, field)
    assert type(got) is type(want) and got.field == want.field and got == want
    return "value"


def _check_evals(rng, field, nvars, points, point_field=None, count=4):
    """Seeded MultiPolys, RatFuncs and PerfElems up to level 2 over field,
    each at every point; the outcomes seen."""
    ctx = PerfContext(field.p, nvars)
    seen = set()
    for _ in range(count):
        f = random_multipoly(rng, field, nvars)
        r = random_ratfunc(rng, field, nvars)
        a = random_perfelem(rng, ctx, max_level=2, max_deg=4)
        for pt in points:
            seen.add(_same_eval(f, oracle_multipoly_eval, pt, point_field))
            seen.add(_same_eval(r, oracle_ratfunc_eval, pt, point_field))
            seen.add(_same_eval(a, oracle_perfelem_eval, pt, point_field))
    return seen


@pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (3, 2)])
def test_eval_at_every_point_of_a_small_field_matches_the_oracle(p, n):
    # F_4, F_8 and F_9 on their tables, zero coordinates and poles included
    F = make_field(p, n)
    rng = random.Random(70 + p * n)
    for nvars in (1, 2):
        points = list(itertools.product(F.elements(), repeat=nvars))
        seen = _check_evals(rng, PrimeField(p), nvars, points)
        assert seen == {"value", PoleAtPoint}


@pytest.mark.parametrize("p, n", [(5, 6), (2, 16), (3, 10)])
def test_eval_at_seeded_points_matches_the_oracle(p, n):
    # F_{5^6} on tables; F_{2^16} and F_{3^10} past them, on the packed
    # ring; some coordinates are 0 or ints
    F = make_field(p, n)
    rng = random.Random(700 + p * n)
    points = [(F.zero(), F.zero()), (0, F.gen()), (F.one(), 1)]
    for _ in range(12):
        points.append(tuple(
            rng.choice((0, rng.randrange(p), F.zero())) if rng.random() < 0.25
            else F.from_encoding(rng.randrange(F.order))
            for _ in range(2)
        ))
    seen = _check_evals(rng, PrimeField(p), 2, points, count=6)
    assert "value" in seen


@pytest.mark.parametrize("p", [2, 3, 101])
def test_eval_at_points_of_z_p_matches_the_oracle(p):
    # ints with PrimeField(p), PFElems, and the two mixed; the value is
    # a PFElem, as the oracle's element-by-element sum is
    Zp = PrimeField(p)
    rng = random.Random(900 + p)
    points = [(0, 0), (Zp.zero(), 1)]
    for _ in range(10):
        points.append((rng.randrange(p), rng.randrange(p)))
        points.append((Zp.elem(rng.randrange(p)), Zp.elem(rng.randrange(p))))
        points.append((rng.randrange(p), Zp.elem(rng.randrange(p))))
    ints = [pt for pt in points if all(isinstance(c, int) for c in pt)]
    elems = [pt for pt in points if pt not in ints]
    seen = _check_evals(rng, Zp, 2, ints, Zp)
    seen |= _check_evals(rng, Zp, 2, elems)
    seen |= _check_evals(rng, Zp, 2, elems, Zp)
    assert "value" in seen


def test_eval_raises_pole_then_zero_divisor_on_a_reducible_modulus():
    # Z_2[t]/(t^2): at x1 = t the denominator x1 is t, nonzero but a zero
    # divisor, so DivisionByZero; at 0 it dies first, so PoleAtPoint; and
    # 1 + t is a unit, its own inverse
    F = FqField(2, 2, (0, 0, 1))
    t = F.gen()
    r = RatFunc(mp(F2, 1, {(0,): 1}), mp(F2, 1, {(1,): 1}))
    assert _same_eval(r, oracle_ratfunc_eval, (t,)) is DivisionByZero
    assert _same_eval(r, oracle_ratfunc_eval, (F.zero(),)) is PoleAtPoint
    assert _same_eval(r, oracle_ratfunc_eval, (t + 1,)) == "value"
    assert r.eval((t + 1,)) == t + 1
    # the coordinate count comes before the pole: 1/x2 at a point of one
    s = RatFunc(mp(F2, 2, {(0, 0): 1}), mp(F2, 2, {(0, 1): 1}))
    with pytest.raises(ValueError, match="^need 2 coordinates, got 1$"):
        s.eval((F.zero(),))


def test_eval_resolves_the_point_once(monkeypatch):
    # one resolve per evaluation, for both polynomials of a RatFunc and
    # at every level of a PerfElem
    calls = []
    resolve = multipoly.resolve_point_field

    def counting(*args):
        calls.append(args)
        return resolve(*args)

    monkeypatch.setattr(multipoly, "resolve_point_field", counting)
    F = make_field(3, 4)
    ctx = PerfContext(3, 2)
    a = ((ctx.variable(0) + 1) / (ctx.variable(1) ** 2 + ctx.variable(0))).pn_root(2)
    assert a.level == 2
    for value in (a.body.num, a.body, a):
        calls.clear()
        value.eval((F.gen(), F.one()))
        assert len(calls) == 1
