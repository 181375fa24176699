"""Tests for the perfect closure: level-tagged elements, Frobenius, roots."""

import random
import time

import pytest

from perffield.errors import (
    BoundExceeded,
    ContextMismatch,
    DivisionByZero,
    LevelOverflow,
    LevelTooLow,
    PoleAtPoint,
)
from perffield.fqtower import FqField, make_field
from perffield.multipoly import MultiPoly
from perffield.perfclosure import PerfContext, PerfElem
from perffield.primefield import PrimeField
from perffield.ratfunc import RatFunc
from perffield.septools import UniPoly

from helpers import oracle_perfelem_eval, random_nonzero_perfelem, random_perfelem


def body(ctx, num_terms, den_terms=None):
    num = MultiPoly(ctx.field, ctx.nvars, num_terms)
    if den_terms is None:
        den = MultiPoly.const(ctx.field, ctx.nvars, 1)
    else:
        den = MultiPoly(ctx.field, ctx.nvars, den_terms)
    return RatFunc(num, den)


def test_canonicalize_reduces_square_at_level_one():
    ctx = PerfContext(2, 1)
    a = PerfElem.canonical(ctx, 1, body(ctx, {(2,): 1}))
    assert a.level == 0
    assert a.body == body(ctx, {(1,): 1})


def test_canonicalize_keeps_odd_exponent():
    ctx = PerfContext(2, 1)
    a = PerfElem.canonical(ctx, 1, body(ctx, {(1,): 1}))
    assert a.level == 1
    assert a.body == body(ctx, {(1,): 1})


def test_canonicalize_partial_reduction():
    # level 2 with body x1^9/x2^3 comes down exactly one level
    ctx = PerfContext(3, 2)
    a = PerfElem.canonical(ctx, 2, body(ctx, {(9, 0): 1}, {(0, 3): 1}))
    assert a.level == 1
    assert a.body == body(ctx, {(3, 0): 1}, {(0, 1): 1})


def test_lift_scales_exponents():
    ctx = PerfContext(2, 1)
    x1 = ctx.variable(0)
    lifted = x1.lift(1)
    assert lifted.level == 1
    assert lifted.body == body(ctx, {(2,): 1})
    assert not lifted.is_canonical
    assert lifted.canonicalize() == x1


def test_lift_to_own_level_is_identity():
    ctx = PerfContext(3, 1)
    a = ctx.variable(0).pth_root()
    assert a.lift(1).body == a.body
    assert a.lift(2).body == body(ctx, {(3,): 1})


def test_lift_below_level_rejected():
    ctx = PerfContext(2, 1)
    a = ctx.variable(0).pth_root()
    with pytest.raises(LevelTooLow):
        a.lift(0)


def test_level_cap():
    ctx = PerfContext(2, 1, max_level=2)
    a = ctx.variable(0)
    a.pn_root(2)
    with pytest.raises(LevelOverflow):
        a.pn_root(3)
    with pytest.raises(LevelOverflow):
        a.lift(3)


def test_add_cancels_char2():
    ctx = PerfContext(2, 1)
    r = ctx.variable(0).pth_root()
    assert (r + r).is_zero


def test_root_times_root_drops_level():
    ctx = PerfContext(2, 1)
    r = ctx.variable(0).pth_root()
    prod = r * r
    assert prod.level == 0
    assert prod == ctx.variable(0)


def test_mixed_level_addition():
    # x1^(1/3) + x2 lives at level 1 with body y1 + y2^3
    ctx = PerfContext(3, 2)
    s = ctx.variable(0).pth_root() + ctx.variable(1)
    assert s.level == 1
    assert s.body == body(ctx, {(1, 0): 1, (0, 3): 1})


def test_frobenius_of_root():
    ctx = PerfContext(2, 1)
    assert ctx.variable(0).pth_root().frobenius() == ctx.variable(0)


def test_frobenius_freshman_dream():
    ctx = PerfContext(3, 1)
    a = ctx.variable(0) + ctx.one()
    assert a.frobenius() == PerfElem.canonical(ctx, 0, body(ctx, {(3,): 1, (0,): 1}))


def test_frobenius_of_reciprocal():
    # squaring 1/(x1^(1/2)+1) gives 1/(x1+1) in char 2
    ctx = PerfContext(2, 1)
    a = (ctx.variable(0).pth_root() + ctx.one()).inv()
    f = a.frobenius()
    assert f.level == 0
    assert f.body == body(ctx, {(0,): 1}, {(1,): 1, (0,): 1})


def test_pth_root_of_variable():
    for p in (2, 3, 5):
        ctx = PerfContext(p, 1)
        r = ctx.variable(0).pth_root()
        assert r.level == 1
        assert r.body == body(ctx, {(1,): 1})
        assert str(r) == "root(x1,1)"


def test_pth_root_of_existing_power():
    ctx = PerfContext(2, 1)
    sq = ctx.variable(0) ** 2
    assert sq.pth_root() == ctx.variable(0)


def test_pth_root_of_sum():
    ctx = PerfContext(2, 2)
    r = (ctx.variable(0) + ctx.variable(1)).pth_root()
    assert r.level == 1
    assert r.body == body(ctx, {(1, 0): 1, (0, 1): 1})
    assert r * r == ctx.variable(0) + ctx.variable(1)


def test_pn_root():
    ctx = PerfContext(2, 1)
    x1 = ctx.variable(0)
    assert x1.pn_root(0) == x1
    assert x1.pn_root(3).level == 3
    ctx3 = PerfContext(3, 1)
    x9 = ctx3.variable(0) ** 9
    assert x9.pn_root(2) == ctx3.variable(0)


def test_pn_root_power_roundtrip():
    rng = random.Random(3030)
    ctx = PerfContext(3, 2)
    for _ in range(25):
        a = random_perfelem(rng, ctx, max_level=2, max_deg=4)
        k = rng.randint(0, 3)
        r = a.pn_root(k)
        assert r.frobenius_iter(k) == a


def test_frobenius_iter_refuses_negative_or_non_int_counts():
    ctx = PerfContext(2, 1)
    x1 = ctx.variable(0)
    for k in (-1, -3, 1.0, "2"):
        with pytest.raises(ValueError, match="Frobenius count must be a non-negative integer"):
            x1.frobenius_iter(k)
    assert x1.frobenius_iter(0) == x1
    assert x1.pth_root().frobenius_iter(1) == x1


def test_root_power_roundtrip_randomized():
    rng = random.Random(4040)
    for p in (2, 3, 5):
        ctx = PerfContext(p, 2)
        for _ in range(60):
            a = random_perfelem(rng, ctx, max_level=3, max_deg=4)
            assert a.pth_root().frobenius() == a
            assert a.frobenius().pth_root() == a


def test_canonical_form_uniqueness():
    rng = random.Random(5050)
    ctx = PerfContext(2, 2)
    for _ in range(40):
        a = random_perfelem(rng, ctx, max_level=2, max_deg=3)
        b = random_nonzero_perfelem(rng, ctx, max_level=2, max_deg=3)
        left = (a * b) / b
        assert left.level == a.level and left.body == a.body


def test_minimality_after_operations():
    rng = random.Random(6060)
    ctx = PerfContext(3, 2)
    for _ in range(40):
        a = random_perfelem(rng, ctx, max_level=3, max_deg=4)
        b = random_nonzero_perfelem(rng, ctx, max_level=3, max_deg=4)
        for r in (
            a + b, a - b, a * b, a / b, b.inv(),
            a.frobenius(), a.frobenius_iter(2), a.pth_root(),
        ):
            r.validate()


def test_level_zero_closure():
    rng = random.Random(7070)
    ctx = PerfContext(5, 2)
    for _ in range(30):
        a = random_perfelem(rng, ctx, max_level=0, max_deg=4)
        b = random_nonzero_perfelem(rng, ctx, max_level=0, max_deg=4)
        for r in (a + b, a - b, a * b, a / b):
            assert r.level == 0


def test_division_by_zero():
    ctx = PerfContext(2, 1)
    with pytest.raises(DivisionByZero):
        ctx.one() / ctx.zero()
    with pytest.raises(DivisionByZero):
        ctx.zero().inv()


def test_context_mismatch():
    a = PerfContext(2, 1).variable(0)
    b = PerfContext(3, 1).variable(0)
    with pytest.raises(ContextMismatch):
        a + b


def test_eval_level_zero():
    ctx = PerfContext(3, 1)
    F3 = make_field(3, 1)
    assert ctx.variable(0).eval((F3.const(2),)) == 2


def test_eval_root_at_one():
    ctx = PerfContext(2, 1)
    F2 = make_field(2, 1)
    r = ctx.variable(0).pth_root()
    assert r.eval((F2.one(),)) == 1


def test_eval_root_in_f4():
    # square root of t in F4 is t^2 = t + 1
    ctx = PerfContext(2, 1)
    F4 = make_field(2, 2)
    t = F4.gen()
    r = ctx.variable(0).pth_root()
    v = r.eval((t,))
    assert v == t * t
    assert v * v == t


def test_eval_consistency_with_roots():
    rng = random.Random(8080)
    for p in (2, 3):
        ctx = PerfContext(p, 2)
        fq = make_field(p, 6)
        for _ in range(12):
            a = random_perfelem(rng, ctx, max_level=2, max_deg=3)
            r = a.pth_root()
            hits = 0
            while hits < 5:
                pt = tuple(
                    fq.from_encoding(rng.randrange(fq.order)) for _ in range(2)
                )
                try:
                    va = a.eval(pt)
                    vr = r.eval(pt)
                except PoleAtPoint:
                    continue
                assert vr**p == va
                hits += 1


def test_eval_refuses_a_point_of_another_characteristic():
    # 2*x1 over Z_3 at a point of F_{2^4}: reading 2 as 0 there would
    # answer 0, so every evaluator refuses the point instead
    ctx = PerfContext(3, 1)
    pt = (make_field(2, 4).gen(),)
    a = 2 * ctx.variable(0)
    for value in (a.body.num, a.body, a, a.pth_root()):
        with pytest.raises(ContextMismatch):
            value.eval(pt)


def test_eval_refuses_a_point_with_coordinates_in_two_fields():
    # x1*x2 over Z_3 at (t in F_9, t in F_27): the characteristic agrees,
    # but the product of the coordinates is in neither field
    ctx = PerfContext(3, 2)
    pt = (make_field(3, 2).gen(), make_field(3, 3).gen())
    a = ctx.variable(0) * ctx.variable(1)
    for value in (a.body.num, a.body, a, a.pth_root()):
        with pytest.raises(ContextMismatch):
            value.eval(pt)


def test_eval_refuses_a_foreign_point_before_taking_roots():
    # the point's field is checked before the level-2 roots of its
    # coordinates, so F_16's ring, which would hold the tables of its
    # inverse Frobenius, is never built
    ctx = PerfContext(3, 1)
    f16 = FqField(2, 4, make_field(2, 4).modulus)
    a = ctx.variable(0).pth_root().pth_root()
    assert a.level == 2
    with pytest.raises(ContextMismatch):
        a.eval((f16.gen(),))
    assert f16._ring is None


def test_eval_of_an_empty_point_needs_a_field():
    ctx = PerfContext(3, 0)
    one = ctx.one()
    for value in (one.body.num, one.body, one):
        with pytest.raises(ValueError, match="^field required to evaluate with an empty point$"):
            value.eval(())
        assert value.eval((), make_field(3, 2)) == 1


def test_eval_of_a_root_at_an_int_coordinate():
    # 3 lies in Z_5, so it is its own 5th root in every field of
    # characteristic 5, Z_5 included
    r = PerfContext(5, 1).variable(0).pth_root()
    v = r.eval([3], make_field(5, 2))
    assert v == 3 and v**5 == 3
    assert r.eval([3], PrimeField(5)) == 3


def test_eval_at_a_point_whose_first_coordinate_is_an_int():
    # the point field comes from the first coordinate that is not an int
    ctx = PerfContext(5, 2)
    F25 = make_field(5, 2)
    t = F25.gen()
    x1, x2 = ctx.variable(0), ctx.variable(1)
    assert x1.body.num.eval([3, t]) == 3
    a = (x1 + 2 * x2**2) / (x1 * x2 + 1)
    for level in (0, 1, 2):
        b = a.pn_root(level)
        assert b.level == level
        for value in (b.body.num, b.body, b):
            assert value.eval([3, t]) == value.eval([F25.const(3), t])


def test_eval_powers_an_int_coordinate_in_the_point_field():
    # x2^(5^40) at the int 3: as a Python int the power would need about
    # 10^28 bits, so the coordinate becomes a field element first
    class Residue(int):
        def __pow__(self, e):
            raise AssertionError("an int coordinate was powered as an int")

    a = PerfContext(5, 2).variable(1).frobenius_iter(40)
    assert a.eval([make_field(5, 2).gen(), Residue(3)]) == 3


def test_eval_at_a_point_of_ints_needs_a_field():
    a = PerfContext(5, 2).variable(0).pth_root()
    for value in (a.body.num, a.body, a):
        with pytest.raises(ValueError, match="^field required to evaluate at a point of ints$"):
            value.eval([3, 4])
        assert value.eval([3, 4], make_field(5, 2)) == 3


@pytest.mark.parametrize("bad", [1.5, "a", None])
def test_eval_refuses_a_coordinate_that_is_not_a_field_element(bad):
    F = make_field(3, 2)
    x = PerfContext(3, 2).variable(0)
    message = f"^a point coordinate is an int or a field element, not {type(bad).__name__}$"
    # MultiPoly, RatFunc and PerfElem at levels 0 and 1; the bad coordinate
    # is met by the default-field search or by the membership loop
    for value in (x.body.num, x.body, x, x.pth_root()):
        for point in ([bad, 2], [2, bad], [F.gen(), bad]):
            for field in (F, None):
                with pytest.raises(TypeError, match=message):
                    value.eval(point, field)


def test_eval_matches_the_per_coordinate_roots_oracle():
    # rooting the body's value once per level agrees with rooting every
    # coordinate and evaluating there element by element, poles included,
    # at points that mix ints and FqElems
    rng = random.Random(1919)
    values = poles = 0
    levels = set()
    for p in (2, 3, 5, 7):
        fq = make_field(p, 2 if p == 7 else 3)
        for d in (1, 2):
            ctx = PerfContext(p, d)
            for level in range(4):
                for _ in range(4):
                    a = random_perfelem(rng, ctx, max_level=0, max_deg=3).pn_root(level)
                    levels.add(a.level)
                    for _ in range(4):
                        pt = [
                            rng.randrange(p) if rng.random() < 0.4
                            else fq.from_encoding(rng.randrange(fq.order))
                            for _ in range(d)
                        ]
                        field = fq if all(isinstance(c, int) for c in pt) else None
                        try:
                            want = oracle_perfelem_eval(a, pt, field)
                        except PoleAtPoint:
                            with pytest.raises(PoleAtPoint):
                                a.eval(pt, field)
                            poles += 1
                        else:
                            assert a.eval(pt, field) == want
                            values += 1
    assert levels == {0, 1, 2, 3} and values > 0 and poles > 0


def test_str_and_json():
    ctx = PerfContext(2, 2)
    a = ctx.variable(0).pth_root() + ctx.variable(1)
    assert str(a) == "root(x2,1)^2 + root(x1,1)"
    d = a.to_json()
    assert d["level"] == 1
    assert d["num"] == [[[0, 2], 1], [[1, 0], 1]]
    assert d["den"] == [[[0, 0], 1]]


def test_constants_stay_level_zero():
    ctx = PerfContext(5, 1)
    c = ctx.const(3)
    assert c.level == 0
    assert c.pth_root() == c
    assert c.pth_root().level == 0


def test_context_refuses_oversized_parameters():
    # a level cap of 100000 at p = 2 would let root(x1, 20000) print an
    # exponent far past what int/str conversion accepts
    with pytest.raises(ValueError, match="max_level 100000 would let exponents pass"):
        PerfContext(2, 2, 100000)
    with pytest.raises(ValueError, match="at most 1024 variables, got 2000"):
        PerfContext(2, 2000)
    PerfContext(2, 1024)
    PerfContext(2, 1, 4095)
    PerfContext(2147483647, 1)


def test_powers_and_frobenius_bounded_before_work():
    ctx = PerfContext(2, 3)
    x1, x2, x3 = (ctx.variable(i) for i in range(3))
    f = x1 + x2 + x3 + 1
    refused = [
        lambda: x1 ** 2**5000,
        lambda: x1 ** -(2**5000),
        lambda: f ** (2**15 - 1),
        lambda: x1.frobenius_iter(5000),
        lambda: UniPoly.t_var(ctx) ** 70000,
        # a constant polynomial is bounded as its coefficient is
        lambda: UniPoly.const(ctx, f) ** (2**15 - 1),
    ]
    for work in refused:
        start = time.perf_counter()
        with pytest.raises(BoundExceeded):
            work()
        assert time.perf_counter() - start < 1.0
    # the boundary cases still compute
    assert x1.frobenius_iter(4095) == x1 ** 2**4095
    assert str(x1.frobenius_iter(4095)) == f"x1^{2**4095}"
    assert len((f**8192).body.num.terms) == 4
    assert str(UniPoly.t_var(ctx) ** 65536) == "t^65536"
    assert UniPoly.const(ctx, f) ** 8192 == UniPoly.const(ctx, f**8192)
    assert UniPoly.const(ctx, f) ** 0 == UniPoly.const(ctx, 1)
    assert UniPoly.zero(ctx) ** 3 == UniPoly.zero(ctx)
    with pytest.raises(ValueError, match="cannot be raised to negative powers"):
        UniPoly.t_var(ctx) ** -1
