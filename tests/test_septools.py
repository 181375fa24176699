"""Tests for the characteristic-p separability toolkit."""

import random
import time

import pytest

from perffield.errors import (
    ConstantPolynomial,
    DerivativeNonzero,
    DivisionByZero,
    NotPerfectMode,
    PoleAtPoint,
)
from perffield.fqtower import make_field
from perffield.perfclosure import PerfContext
from perffield.septools import (
    UniPoly,
    is_separable,
    pth_root_poly,
    separable_decomposition,
    squarefree_decomposition,
)

from helpers import random_monic_unipoly


def up(ctx, coeffs, mode="perfect"):
    return UniPoly(ctx, coeffs, mode)


def x1(ctx):
    return ctx.variable(0)


def test_degree_and_zero():
    ctx = PerfContext(2, 1)
    z = UniPoly.zero(ctx)
    assert z.degree is None and z.is_zero
    t = UniPoly.t_var(ctx)
    assert t.degree == 1
    assert (t * t + t).degree == 2


def test_derivative_examples():
    ctx2 = PerfContext(2, 1)
    t = UniPoly.t_var(ctx2)
    f = t**2 + x1(ctx2)
    assert f.derivative().is_zero
    g = t**3 + t.scale(x1(ctx2))
    assert g.derivative() == t**2 + x1(ctx2)

    ctx3 = PerfContext(3, 1)
    t3 = UniPoly.t_var(ctx3)
    h = t3**3 + t3 + 1
    assert h.derivative() == UniPoly.const(ctx3, 1)


def test_gcd_square_against_root():
    # t^2 + x1 is (t + root(x1,1))^2 in char 2
    ctx = PerfContext(2, 1)
    t = UniPoly.t_var(ctx)
    f = t**2 + x1(ctx)
    g = t + x1(ctx).pth_root()
    d = f.gcd(g)
    assert d == g


def test_gcd_example_mod3():
    ctx = PerfContext(3, 1)
    t = UniPoly.t_var(ctx)
    f = t**3 - t
    g = t**2 - 1
    assert f.gcd(g) == t**2 + 2


def test_gcd_with_zero():
    ctx = PerfContext(3, 1)
    t = UniPoly.t_var(ctx)
    f = (t + 1).scale(ctx.const(2))
    assert f.gcd(UniPoly.zero(ctx)) == t + 1
    with pytest.raises(ValueError):
        UniPoly.zero(ctx).gcd(UniPoly.zero(ctx))


def test_divmod_and_divexact():
    ctx = PerfContext(5, 1)
    t = UniPoly.t_var(ctx)
    f = (t + 1) * (t + 2) + 3
    q, r = divmod(f, t + 1)
    assert q * (t + 1) + r == f
    assert ((t + 1) * (t + 2)).divexact(t + 2) == t + 1
    with pytest.raises(DivisionByZero):
        divmod(f, UniPoly.zero(ctx))


def test_is_separable_examples():
    ctx = PerfContext(2, 1)
    t = UniPoly.t_var(ctx)
    f = t**2 + x1(ctx)
    assert not is_separable(f)
    assert not is_separable(f.with_mode("level0"))
    # the squarefree part of the same polynomial is separable
    part = squarefree_decomposition(f).parts[0][0]
    assert is_separable(part)

    ctx3 = PerfContext(3, 1)
    t3 = UniPoly.t_var(ctx3)
    assert is_separable(t3**3 - t3 + 1)

    with pytest.raises(ConstantPolynomial):
        is_separable(UniPoly.const(ctx, 1))


def test_pth_root_poly_perfect():
    ctx = PerfContext(2, 1)
    t = UniPoly.t_var(ctx)
    f = t**2 + x1(ctx)
    g = pth_root_poly(f)
    assert g == t + x1(ctx).pth_root()
    assert g**2 == f


def test_pth_root_poly_level0_witness():
    ctx = PerfContext(2, 1)
    t = UniPoly.t_var(ctx, mode="level0")
    f = t**2 + x1(ctx)
    with pytest.raises(NotPerfectMode):
        pth_root_poly(f)


def test_pth_root_poly_no_root_needed():
    # t^3 has coefficient 1, fine in either mode
    for mode in ("perfect", "level0"):
        ctx = PerfContext(3, 1)
        t = UniPoly.t_var(ctx, mode=mode)
        assert pth_root_poly(t**3) == t


def test_pth_root_poly_rejects_nonzero_derivative():
    ctx = PerfContext(3, 1)
    t = UniPoly.t_var(ctx)
    with pytest.raises(DerivativeNonzero):
        pth_root_poly(t**2 + t)


def test_squarefree_repeated_linear():
    ctx = PerfContext(2, 1)
    t = UniPoly.t_var(ctx)
    f = (t + 1) ** 2 * (t + x1(ctx))
    dec = squarefree_decomposition(f)
    assert dec.parts == ((t + x1(ctx), 1), (t + 1, 2))
    assert dec.reassemble() == f


def test_squarefree_pure_pth_power():
    ctx = PerfContext(3, 1)
    t = UniPoly.t_var(ctx)
    f = t**3 + x1(ctx)
    dec = squarefree_decomposition(f)
    assert dec.parts == ((t + x1(ctx).pth_root(), 3),)
    assert dec.reassemble() == f


def test_squarefree_input_already_squarefree():
    ctx = PerfContext(2, 1)
    t = UniPoly.t_var(ctx)
    f = t**2 + t + 1
    dec = squarefree_decomposition(f)
    assert dec.parts == ((f, 1),)


def test_squarefree_separable_input_single_part():
    rng = random.Random(1717)
    for p in (2, 3):
        ctx = PerfContext(p, 1)
        for _ in range(20):
            f = random_monic_unipoly(rng, ctx, min_deg=1, max_deg=3)
            if f.gcd(f.derivative()).is_constant:
                dec = squarefree_decomposition(f)
                assert dec.parts == ((f.monic(), 1),)


def test_squarefree_reassembly_randomized():
    rng = random.Random(2626)
    for p in (2, 3):
        ctx = PerfContext(p, 1)
        for _ in range(40):
            f = UniPoly.const(ctx, 1)
            for _ in range(rng.randint(1, 3)):
                g = random_monic_unipoly(rng, ctx, min_deg=1, max_deg=2)
                f = f * g ** rng.randint(1, 3)
            dec = squarefree_decomposition(f)
            assert dec.reassemble() == f
            for part, mult in dec.parts:
                assert mult >= 1
                assert part.leading_coeff() == ctx.one()
                assert part.gcd(part.derivative()).is_constant


def test_squarefree_reassembly_two_variables():
    rng = random.Random(2627)
    ctx = PerfContext(2, 2)
    for _ in range(10):
        a = random_monic_unipoly(rng, ctx, min_deg=1, max_deg=2)
        b = random_monic_unipoly(rng, ctx, min_deg=1, max_deg=2)
        f = a**2 * b
        dec = squarefree_decomposition(f)
        assert dec.reassemble() == f


def test_squarefree_parts_pairwise_coprime():
    rng = random.Random(3737)
    ctx = PerfContext(2, 1)
    for _ in range(25):
        f = UniPoly.const(ctx, 1)
        for _ in range(rng.randint(2, 3)):
            g = random_monic_unipoly(rng, ctx, min_deg=1, max_deg=2)
            f = f * g ** rng.randint(1, 4)
        parts = squarefree_decomposition(f).parts
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert parts[i][0].gcd(parts[j][0]).is_constant


def test_separable_decomposition_unchanged_coefficients():
    # regrouping keeps the same coefficients: f(t) = s(t^2) exactly
    ctx = PerfContext(2, 1)
    t = UniPoly.t_var(ctx)
    f = t**4 + (t**2).scale(x1(ctx)) + x1(ctx)
    dec = separable_decomposition(f)
    assert dec.e == 1
    assert dec.s == t**2 + t.scale(x1(ctx)) + x1(ctx)
    assert dec.recompose() == f
    assert not dec.s.derivative().is_zero


def test_separable_decomposition_cubic():
    ctx = PerfContext(3, 1)
    t = UniPoly.t_var(ctx)
    f = t**3 + x1(ctx)
    dec = separable_decomposition(f)
    assert dec.e == 1
    assert dec.s == t + x1(ctx)
    assert dec.recompose() == f


def test_separable_decomposition_already_separable():
    ctx = PerfContext(5, 1)
    t = UniPoly.t_var(ctx)
    f = t**2 + t + 3
    dec = separable_decomposition(f)
    assert dec.e == 0 and dec.s == f


def test_separable_decomposition_randomized():
    rng = random.Random(4848)
    for p in (2, 3):
        ctx = PerfContext(p, 1)
        for _ in range(40):
            s0 = random_monic_unipoly(rng, ctx, min_deg=1, max_deg=3)
            if s0.derivative().is_zero:
                continue
            e0 = rng.randint(0, 2)
            f = s0.subst_tpow(p**e0)
            dec = separable_decomposition(f)
            assert dec.recompose() == f
            assert not dec.s.derivative().is_zero
            assert dec.e >= e0


def test_perfect_mode_pth_root_total():
    # in perfect mode, anything of the form g^p has a root; never raises
    rng = random.Random(5959)
    for p in (2, 3, 5):
        ctx = PerfContext(p, 2)
        for _ in range(25):
            g = random_monic_unipoly(rng, ctx, min_deg=1, max_deg=2, coeff_level=1)
            f = g**p
            assert pth_root_poly(f) == g


def test_level0_mode_blocks_variable_root():
    for p in (2, 3, 5):
        ctx = PerfContext(p, 1)
        t = UniPoly.t_var(ctx, mode="level0")
        f = t**p - x1(ctx)
        with pytest.raises(NotPerfectMode):
            pth_root_poly(f)


def test_level0_coefficients_enforced():
    ctx = PerfContext(2, 1)
    rooted = x1(ctx).pth_root()
    with pytest.raises(NotPerfectMode):
        UniPoly(ctx, [rooted, ctx.one()], mode="level0")


def test_gcd_against_evaluation_oracle():
    rng = random.Random(6868)
    for p in (2, 3):
        ctx = PerfContext(p, 1)
        fq = make_field(p, 6)
        for _ in range(15):
            c = random_monic_unipoly(rng, ctx, min_deg=1, max_deg=2)
            a = random_monic_unipoly(rng, ctx, min_deg=1, max_deg=2)
            b = random_monic_unipoly(rng, ctx, min_deg=1, max_deg=2)
            f, g = a * c, b * c
            d = f.gcd(g)
            pt, fe, ge, de = _evaluated(rng, fq, f, g, d)
            assert _dense_divides(de, fe, fq)
            assert _dense_divides(de, ge, fq)
            ed = _dense_gcd(fe, ge, fq)
            assert len(ed) >= len(de)


def _evaluated(rng, fq, f, g, d):
    while True:
        pt = (fq.from_encoding(rng.randrange(fq.order)),)
        try:
            fe = [f.coeff(i).eval(pt) for i in range(f.degree + 1)]
            ge = [g.coeff(i).eval(pt) for i in range(g.degree + 1)]
            de = [d.coeff(i).eval(pt) for i in range(d.degree + 1)]
        except PoleAtPoint:
            continue
        return pt, fe, ge, de


def _dense_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _dense_mod(a, b, fq):
    r = _dense_trim(list(a))
    inv_lc = b[-1].inv()
    while len(r) >= len(b):
        q = r[-1] * inv_lc
        shift = len(r) - len(b)
        for i, c in enumerate(b):
            r[shift + i] = r[shift + i] - q * c
        _dense_trim(r)
    return r


def _dense_gcd(a, b, fq):
    a, b = _dense_trim(list(a)), _dense_trim(list(b))
    while b:
        a, b = b, _dense_mod(a, b, fq)
    return a


def _dense_divides(d, f, fq):
    return not _dense_mod(f, d, fq)


def _power_by_multiplication(f, e):
    out = UniPoly.const(f.ctx, 1, f.mode)
    for _ in range(e):
        out = out * f
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("mode", ["perfect", "level0"])
def test_power_by_digits_matches_repeated_multiplication(p, mode):
    ctx = PerfContext(p, 2)
    rng = random.Random(p)
    x, y = ctx.variable(0), ctx.variable(1)
    t = UniPoly.t_var(ctx, mode)
    bases = [UniPoly.zero(ctx, mode), t, t + x, t * t - y / (x + 1), (t + 1) * (t + x)]
    if mode == "perfect":
        bases.append(t + x.pth_root() * y.pn_root(2))
    level = 2 if mode == "perfect" else 0
    bases += [random_monic_unipoly(rng, ctx, 1, 3, mode, level) for _ in range(2)]
    for f in bases:
        for e in range(p * p + 2):
            got = f**e
            want = _power_by_multiplication(f, e)
            assert got == want and str(got) == str(want), (str(f), e)


def test_power_by_digits_is_cheap_for_large_exponents():
    ctx = PerfContext(3, 2)
    f = UniPoly.t_var(ctx) + ctx.variable(1)
    start = time.perf_counter()
    g = f**4096
    assert time.perf_counter() - start < 1.0
    # 4096 = 1 + 2*3^2 + 3^3 + 2*3^4 + 3^5 + 2*3^6 + 3^7 in base 3, so
    # (t + x2)^4096 has (1+1)(2+1)(1+1)(2+1)(1+1)(2+1)(1+1) = 432 terms
    assert len([c for c in g.coeffs if not c.is_zero]) == 432
    assert g.degree == 4096 and g.coeff(4096) == 1
    assert g.coeff(0) == ctx.variable(1) ** 4096
