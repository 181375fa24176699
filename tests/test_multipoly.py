"""Tests for sparse multivariate polynomials over Z_p."""

import random
import time

import pytest

from perffield import modgcd, multipoly
from perffield.errors import DivisionByZero, NotAPthPower, NotDivisible
from perffield.fqtower import make_field
from perffield.multipoly import MultiPoly, gcd_cofactors, poly_gcd
from perffield.primefield import PrimeField

from helpers import (
    oracle_divexact,
    oracle_mul,
    oracle_poly_gcd,
    random_multipoly,
    random_nonzero_multipoly,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def mk(field, nvars, terms):
    return MultiPoly(field, nvars, terms)


def test_normalization_drops_zero_coeffs():
    f = mk(F3, 2, {(1, 0): 3, (0, 1): 4})
    assert f.terms == {(0, 1): 1}


def test_zero_polynomial():
    z = MultiPoly.zero(F5, 2)
    assert z.is_zero
    assert z.total_degree() is None
    assert z + z == z
    assert str(z) == "0"


def test_add_cancels():
    f = mk(F2, 1, {(1,): 1})
    assert (f + f).is_zero


def test_mul_example():
    # (x1 + x2)^2 = x1^2 + x2^2 in char 2
    f = mk(F2, 2, {(1, 0): 1, (0, 1): 1})
    assert f * f == mk(F2, 2, {(2, 0): 1, (0, 2): 1})


def test_add_cancels_to_zero_mod3():
    a = mk(F3, 1, {(1,): 1, (0,): 1})
    b = mk(F3, 1, {(1,): 2, (0,): 2})
    assert (a + b).is_zero


def test_difference_of_squares_mod5():
    s = mk(F5, 2, {(1, 0): 1, (0, 1): 1})
    d = mk(F5, 2, {(1, 0): 1, (0, 1): -1})
    assert s * d == mk(F5, 2, {(2, 0): 1, (0, 2): 4})


def test_pow_matches_repeated_mul():
    # exponents with up to four base-p digits (three at p = 5), zero
    # digits included; bases include zero, one term and a constant
    rng = random.Random(11)
    for p in (2, 3, 5):
        field = PrimeField(p)
        fixed = [
            MultiPoly.zero(field, 2),
            mk(field, 2, {(2, 1): p - 1}),
            MultiPoly.const(field, 2, 2),
        ]
        for f in fixed + [random_multipoly(rng, field, 2) for _ in range(20)]:
            g = MultiPoly.const(field, 2, 1)
            for e in range(p**3 + 2 if p < 5 else p * p + p + 2):
                assert (f**e).terms == g.terms
                g = oracle_mul(g, f)


def test_grlex_leading_term():
    # total degree first, then lex with x1 most significant
    f = mk(F5, 2, {(1, 2): 1, (2, 1): 2, (0, 3): 3, (3, 0): 4})
    assert f.leading_monomial() == (3, 0)
    assert f.leading_coeff() == 4
    assert str(f) == "4*x1^3 + 2*x1^2*x2 + x1*x2^2 + 3*x2^3"


def test_monic():
    f = mk(F5, 1, {(2,): 3, (0,): 1})
    m = f.monic()
    assert m.leading_coeff() == 1
    assert m == mk(F5, 1, {(2,): 1, (0,): 2})


def test_frobenius_substitute_is_pth_power():
    rng = random.Random(101)
    for p in (2, 3, 5):
        field = PrimeField(p)
        for _ in range(25):
            g = random_multipoly(rng, field, 3)
            assert g.frobenius_substitute() == g**p


def test_pth_root_inverts_frobenius_substitute():
    rng = random.Random(202)
    cases = 0
    for p in (2, 3, 5):
        field = PrimeField(p)
        for _ in range(400):
            g = random_multipoly(rng, field, rng.randint(1, 3))
            assert g.frobenius_substitute().pth_root() == g
            cases += 1
    assert cases >= 1000


def test_frobenius_substitute_examples():
    # exponents scale by p, coefficients stay put
    g = mk(F3, 2, {(1, 2): 2})
    assert g.frobenius_substitute() == mk(F3, 2, {(3, 6): 2})
    c = mk(F5, 1, {(0,): 3})
    assert c.frobenius_substitute() == c


def test_pth_root_examples():
    f = mk(F2, 2, {(2, 2): 1, (0, 4): 1})
    assert f.pth_root() == mk(F2, 2, {(1, 1): 1, (0, 2): 1})
    g = mk(F3, 1, {(3,): 2})
    assert g.pth_root() == mk(F3, 1, {(1,): 2})


def test_pth_root_rejects_non_power():
    f = mk(F2, 2, {(1, 0): 1})
    with pytest.raises(NotAPthPower):
        f.pth_root()
    g = mk(F2, 1, {(3,): 1})
    with pytest.raises(NotAPthPower):
        g.pth_root()


def test_derivative():
    # d/dx1 (x1^2*x2 + x1 + x2) = 2*x1*x2 + 1
    f = mk(F5, 2, {(2, 1): 1, (1, 0): 1, (0, 1): 1})
    assert f.derivative(0) == mk(F5, 2, {(1, 1): 2, (0, 0): 1})
    # p-th powers die: d/dx1 x1^3 = 0 in char 3
    g = mk(F3, 1, {(3,): 1})
    assert g.derivative(0).is_zero


def test_divexact_basic():
    f = mk(F3, 2, {(1, 0): 1, (0, 1): 1})
    g = mk(F3, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})  # (x1+x2)^2
    assert g.divexact(f) == f
    with pytest.raises(NotDivisible):
        (f + 1).divexact(f)
    with pytest.raises(DivisionByZero):
        f.divexact(MultiPoly.zero(F3, 2))


def test_divexact_random_products():
    rng = random.Random(303)
    for p in (2, 3, 5):
        field = PrimeField(p)
        for _ in range(40):
            a = random_nonzero_multipoly(rng, field, 2)
            b = random_nonzero_multipoly(rng, field, 2)
            assert (a * b).divexact(b) == a


def test_gcd_char2_square():
    # gcd(x1^2 + x2^2, x1 + x2) = x1 + x2 since the square factors
    a = mk(F2, 2, {(2, 0): 1, (0, 2): 1})
    b = mk(F2, 2, {(1, 0): 1, (0, 1): 1})
    assert poly_gcd(a, b) == b


def test_gcd_with_zero_and_constants():
    f = mk(F5, 1, {(2,): 3})
    z = MultiPoly.zero(F5, 1)
    assert poly_gcd(f, z) == f.monic()
    assert poly_gcd(z, f) == f.monic()
    assert poly_gcd(f, MultiPoly.const(F5, 1, 2)) == 1
    with pytest.raises(ValueError):
        poly_gcd(z, z)
    assert gcd_cofactors(f, z) == (f.monic(), 3, 0)
    assert gcd_cofactors(z, f) == (f.monic(), 0, 3)


def test_gcd_difference_of_squares_mod5():
    # common factor y1 - y2 comes back in its monic form y1 + 4*y2
    a = mk(F5, 2, {(2, 0): 1, (0, 2): -1})
    b = mk(F5, 2, {(1, 0): 1, (0, 1): -1})
    assert poly_gcd(a, b) == mk(F5, 2, {(1, 0): 1, (0, 1): 4})


def test_gcd_disjoint_supports():
    a = mk(F3, 3, {(2, 0, 0): 1, (0, 0, 0): 1})
    b = mk(F3, 3, {(0, 1, 2): 1})
    assert poly_gcd(a, b) == 1


def test_gcd_univariate_agrees_with_euclid():
    # (x+1)^2(x+2) and (x+1)(x+3) share exactly x+1 over Z_5
    x = MultiPoly.variable(F5, 1, 0)
    a = (x + 1) ** 2 * (x + 2)
    b = (x + 1) * (x + 3)
    assert poly_gcd(a, b) == x + 1


def test_gcd_structured_random():
    rng = random.Random(404)
    for p in (2, 3):
        field = PrimeField(p)
        for _ in range(60):
            g = random_nonzero_multipoly(rng, field, 2, max_terms=3, max_deg=2)
            u = random_nonzero_multipoly(rng, field, 2, max_terms=2, max_deg=2)
            v = random_nonzero_multipoly(rng, field, 2, max_terms=2, max_deg=2)
            a, b = g * u, g * v
            d = poly_gcd(a, b)
            # common factor divides the gcd, and the gcd divides both inputs
            assert g.divides(d)
            assert d.divides(a) and d.divides(b)


def _gcd_pairs(rng, field, nvars):
    """Coprime pairs, planted common factors, a common content free of
    the highest variable, one zero operand, monomial operands, pairs
    where one input lacks a variable the other uses, a pair with
    disjoint supports, cases for Brown's gcd (a leading coefficient that
    vanishes at the first points, unlucky points, degrees past p at
    p <= 3, and a main-variable degree of p and more), and equal
    inputs."""

    def poly(terms, deg, n=nvars):
        f = random_nonzero_multipoly(rng, field, n, max_terms=terms, max_deg=deg)
        return f._pad(nvars)

    pairs = [(poly(4, 3), poly(4, 3)) for _ in range(3)]
    for _ in range(3):
        g = poly(3, 2)
        pairs.append((g * poly(3, 2), g * poly(3, 2)))
    for _ in range(2):
        c = poly(2, 2, max(nvars - 1, 1))
        g = poly(2, 2)
        pairs.append((c * g * poly(3, 2), c * g * poly(2, 2)))
    pairs.append((poly(4, 3), MultiPoly.zero(field, nvars)))

    def mono(exps):
        return MultiPoly(field, nvars, {tuple(exps): rng.randrange(1, field.p)})

    # a constant; a monomial above every exponent of an input with a
    # planted monomial factor; two monomials
    pairs.append((poly(4, 3), mono([0] * nvars)))
    f = mono(rng.randint(0, 2) for _ in range(nvars)) * poly(3, 2)
    pairs.append((f, mono(f.degree_in(i) + rng.randint(0, 2) for i in range(nvars))))
    pairs.append(tuple(mono(rng.randint(0, 4) for _ in range(nvars)) for _ in range(2)))
    if nvars > 1:
        # one input lacks a variable the other uses: x_n, or else x_1
        def without_last(terms, deg):
            return poly(terms, deg, nvars - 1)

        def without_first(terms, deg):
            f = random_nonzero_multipoly(rng, field, nvars - 1, max_terms=terms, max_deg=deg)
            return MultiPoly(field, nvars, {(0,) + m: c for m, c in f.terms.items()})

        for low in (without_last, without_first):
            pairs.append((poly(4, 3), low(4, 3)))
            for _ in range(2):
                g = low(2, 2)
                pairs.append((g * poly(3, 2), g * low(3, 2)))
            g = poly(2, 2)
            pairs.append((low(2, 1) * g * poly(2, 1), low(2, 2) * g))
        # disjoint supports of two terms or more: x_1 against the others
        x = [MultiPoly.variable(field, nvars, i) for i in range(nvars)]
        c = rng.randrange(1, field.p)
        pairs.append((x[0] ** rng.randint(1, 3) + c, sum(x[1:], x[-1] ** 3) ** rng.randint(1, 2)))
        # Brown's gcd: a leading coefficient in x1 that vanishes at the
        # first points (0, 1, 2, 3 when Z_p has enough of them)
        vanish = 1
        for i in range(4):
            vanish *= x[-1] - i
        g = poly(3, 2)
        pairs.append((g * (vanish * x[0] ** 6 + poly(3, 2)), g * (vanish * x[0] ** 5 + poly(3, 2))))
        # unlucky points: x1 + x_n and x1 + x_n^2 agree at x_n in {0, 1},
        # and x1 + x_n and x1 + x_n^p at every x_n in Z_p
        g = poly(3, 2)
        for e in (2, field.p):
            pairs.append((g * (x[0] + x[-1]), g * (x[0] + x[-1] ** e)))
        if field.p <= 3:
            # every variable past degree p, so the points come from F_{p^k}
            for _ in range(2):
                g = poly(4, 2 * field.p + 2)
                pairs.append((g * poly(3, field.p + 2), g * poly(3, field.p + 2)))
    # a main-variable degree of p and more
    g = poly(2, 1) + MultiPoly.variable(field, nvars, 0, field.p)
    pairs.append((g * poly(2, 2), g * (poly(2, 1) + MultiPoly.variable(field, nvars, 0, field.p + 1))))
    # equal inputs
    f = poly(4, 3)
    pairs.append((f, f.mul_scalar(1)))
    if nvars > 1:
        # x1 + x_n^N and x1^N + x_n, N a power of p, are coprime but agree
        # at every point of F_{p^k} with p^k <= N: with N p past
        # MAX_POINT_FIELD, the points come from a field without tables
        x = [MultiPoly.variable(field, nvars, i) for i in range(nvars)]
        n = 1
        while n * field.p <= modgcd.MAX_POINT_FIELD:
            n *= field.p
        g = x[0] * x[-1] + x[-1] ** 2 + rng.randrange(1, field.p)
        pairs.append((g * (x[0] + x[-1] ** n), g * (x[0] ** n + x[-1])))
    return pairs


def test_gcd_cofactors_match_recursive_prs_oracle():
    rng = random.Random(909)
    for p in (2, 3, 5, 7, 101):
        field = PrimeField(p)
        for nvars in range(1, 5):
            for a, b in _gcd_pairs(rng, field, nvars):
                g, ag, bg = gcd_cofactors(a, b)
                want = oracle_poly_gcd(a, b)
                assert g.terms == want.terms, (p, a, b)
                assert ag.terms == oracle_divexact(a, want).terms
                assert bg.terms == oracle_divexact(b, want).terms


def test_gcd_certifies_once_per_call(monkeypatch):
    # content x1 + x2 + 1 in x3 and a common factor of degree 2 in x3: the
    # recursion stays inside the gcd, and the only exact divisions are the
    # one pair that certifies the gcd and gives the cofactors
    entries, divisions = [], []
    top, divexact = multipoly.gcd_cofactors, MultiPoly.divexact
    monkeypatch.setattr(
        multipoly, "gcd_cofactors", lambda a, b: entries.append(1) or top(a, b)
    )
    monkeypatch.setattr(
        MultiPoly, "divexact", lambda f, d: divisions.append((f, d)) or divexact(f, d)
    )
    x1, x2, x3 = (MultiPoly.variable(F5, 3, i) for i in range(3))
    c, g = x1 + x2 + 1, x3**2 + x1 * x3 + x2
    a = c * g * (x3**3 + x1 * x3 + 2)
    b = c * g * (x3**2 + x2 * x3 + x1 + 1)
    assert multipoly.gcd_cofactors(a, b)[0] == c * g
    assert len(entries) == 1
    assert divisions == [(a, c * g), (b, c * g)]


def test_gcd_four_variables_dense_factors_is_fast():
    # 8-term factors of degree 5 in 4 variables at p = 5: the PRS oracle
    # takes tens of seconds on this pair, and confirmed g = c once
    rng = random.Random(5)

    def factor():
        terms = {}
        while len(terms) < 8:
            mono = [0] * 4
            for _ in range(rng.randint(1, 5)):
                mono[rng.randrange(4)] += 1
            terms[tuple(mono)] = rng.randrange(1, 5)
        return MultiPoly(F5, 4, terms)

    a, b, c = factor(), factor(), factor()
    start = time.perf_counter()
    g = poly_gcd(a * c, b * c)
    assert time.perf_counter() - start < 0.5
    assert g == c.monic()


def test_gcd_with_a_sparse_main_degree_past_10_4_is_fast():
    # x1-degrees of 2 * 10^4 in few terms: Euclid on images in x1 would
    # take seconds per point, so x2 becomes the main variable, and x1 is
    # evaluated at points of F_{101^3}
    F101 = PrimeField(101)
    x1, x2 = (MultiPoly.variable(F101, 2, i) for i in range(2))
    g = x2**2 + x1 + 1
    a, b = g * (x2 + x1**20011 + 3), g * (x2**2 + x1 * 5 + x1**15013)
    start = time.perf_counter()
    got = gcd_cofactors(a, b)
    assert time.perf_counter() - start < 0.5
    assert got[0] == g
    assert (got[1] * g, got[2] * g) == (a, b)


def test_gcd_past_the_table_fields_is_fast():
    # two variables of degree 20000 at p = 2 take their points from
    # F_{2^17}, past MAX_POINT_FIELD; a common factor would divide the
    # difference x1 + x2, which does not divide either input
    x1, x2 = (MultiPoly.variable(F2, 2, i) for i in range(2))
    start = time.perf_counter()
    g = poly_gcd(x1**20000 + x2**20001 + x1, x1**20000 + x2**20001 + x2)
    assert time.perf_counter() - start < 0.5
    assert g == MultiPoly.const(F2, 2, 1)


# Total degrees on either side of powers of two, where the digit width of
# a packed monomial changes.
BOUNDARY_DEGREES = (3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33)


def _with_degree(rng, field, nvars, deg):
    """A random polynomial of total degree exactly deg; half the time the
    top term is one variable to the deg, so a single exponent reaches it."""
    terms = dict(random_multipoly(rng, field, nvars, max_terms=4, max_deg=deg).terms)
    mono = [0] * nvars
    if rng.random() < 0.5:
        mono[rng.randrange(nvars)] = deg
    else:
        for _ in range(deg):
            mono[rng.randrange(nvars)] += 1
    terms[tuple(mono)] = rng.randrange(1, field.p)
    return MultiPoly(field, nvars, terms)


def _quotient_or_error(divide, a, b):
    try:
        return divide(a, b).terms
    except NotDivisible as err:
        return type(err)


def test_packed_kernels_match_tuple_oracles():
    rng = random.Random(606)
    for p in (2, 3, 5, 7, 101):
        field = PrimeField(p)
        for nvars in range(1, 5):
            for total in BOUNDARY_DEGREES:
                da = rng.randint(1, total - 1)
                a = _with_degree(rng, field, nvars, da)
                b = _with_degree(rng, field, nvars, total - da)
                prod = a * b
                assert prod.terms == oracle_mul(a, b).terms
                assert prod.divexact(b).terms == oracle_divexact(prod, b).terms == a.terms
                # a divisor of higher degree than the dividend sets the width
                big = _with_degree(rng, field, nvars, total)
                for dividend in (a, b):
                    with pytest.raises(NotDivisible):
                        dividend.divexact(big)
                    with pytest.raises(NotDivisible):
                        oracle_divexact(dividend, big)
                # small pairs, mostly not divisible, some only after a few steps
                u = random_nonzero_multipoly(rng, field, nvars, max_terms=3, max_deg=2)
                v = random_nonzero_multipoly(rng, field, nvars, max_terms=3, max_deg=2)
                r = random_multipoly(rng, field, nvars, max_terms=2, max_deg=2)
                for w in (u, u * v + r):
                    assert _quotient_or_error(MultiPoly.divexact, w, v) == (
                        _quotient_or_error(oracle_divexact, w, v)
                    )
                # cofactors from the gcd's own post-check
                x, y = u * v, (r + 1) * v
                g, xg, yg = gcd_cofactors(x, y)
                assert g * xg == x and g * yg == y
                assert poly_gcd(x, y) == g


def test_eval_ring_homomorphism():
    rng = random.Random(505)
    F4 = make_field(2, 2)
    pts = [(F4.from_encoding(rng.randrange(4)), F4.from_encoding(rng.randrange(4)))
           for _ in range(5)]
    for _ in range(25):
        f = random_multipoly(rng, F2, 2)
        g = random_multipoly(rng, F2, 2)
        for pt in pts:
            assert (f + g).eval(pt, F4) == f.eval(pt, F4) + g.eval(pt, F4)
            assert (f * g).eval(pt, F4) == f.eval(pt, F4) * g.eval(pt, F4)


def test_eval_example():
    # x1*x2 at (t, t+1) in F4 is t^2+t = 1
    F4 = make_field(2, 2)
    f = mk(F2, 2, {(1, 1): 1})
    t = F4.gen()
    assert f.eval((t, t + 1)) == F4.one()


def test_variable_count_reconciliation():
    a = mk(F3, 1, {(1,): 1})
    b = mk(F3, 2, {(0, 1): 1})
    assert a + b == mk(F3, 2, {(1, 0): 1, (0, 1): 1})


def test_format_constants_and_ones():
    assert str(mk(F5, 2, {(0, 0): 3})) == "3"
    assert str(mk(F5, 2, {(1, 0): 1})) == "x1"
    assert str(mk(F5, 2, {(1, 1): 2, (0, 0): 1})) == "2*x1*x2 + 1"
