"""Tests for zpoly's extended Euclid, and for the remainders and powers
of fqtower's packed ring, which took over zpoly's other arithmetic."""

import random

import pytest

from perffield import modgcd, zpoly
from perffield.fqtower import FqField, make_field, point_field

from helpers import oracle_long_division, oracle_poly_mul, oracle_poly_powmod, oracle_poly_rem

PRIMES = (2, 3, 5, 7, 101)


def random_poly(rng, p, max_deg=20):
    return zpoly.trim([rng.randrange(p) for _ in range(rng.randint(0, max_deg + 1))])


def random_nonzero_poly(rng, p, max_deg=20):
    while True:
        a = random_poly(rng, p, max_deg)
        if a:
            return a


def add(a, b, p):
    out = [0] * max(len(a), len(b))
    for poly in (a, b):
        for i, c in enumerate(poly):
            out[i] = (out[i] + c) % p
    return zpoly.trim(out)


@pytest.mark.parametrize("p", PRIMES)
def test_divmod_identity(p):
    # the division identity a = q*b + r, deg r < deg b, of an independent
    # long division, and the residue of a in Z_p[t]/(b), which the field's
    # packed ring evaluates at t, has r as its digits
    rng = random.Random(1000 + p)
    for _ in range(200):
        a = random_poly(rng, p)
        b = random_nonzero_poly(rng, p)
        q, r = oracle_long_division(a, b, p)
        assert len(r) < len(b)
        assert add(oracle_poly_mul(q, b, p), r, p) == a
        assert oracle_poly_rem(a, b, p) == r
        if len(b) > 1:
            n = len(b) - 1
            assert FqField(p, n, tuple(b)).elem(a).coeffs == tuple(r) + (0,) * (n - len(r))


@pytest.mark.parametrize("p", PRIMES)
def test_gcd_divides_both(p):
    rng = random.Random(2000 + p)
    for _ in range(200):
        c = random_poly(rng, p, 6)
        a = oracle_poly_mul(random_poly(rng, p, 14), c, p)
        b = oracle_poly_mul(random_poly(rng, p, 14), c, p)
        if not a and not b:
            continue
        # the Euclid over Z_p[t] is Brown's base case over the point field Z_p
        g = modgcd._univar_gcd(a, b, point_field(p, 1))
        assert g[-1] == 1
        assert oracle_poly_rem(a, g, p) == []
        assert oracle_poly_rem(b, g, p) == []
        # a planted common factor divides the gcd
        if c:
            assert oracle_poly_rem(g, c, p) == []


@pytest.mark.parametrize("p", PRIMES)
def test_powmod_matches_repeated_mul(p):
    # the packed ring's powers, on moduli irreducible or not, against
    # repeated dense products
    rng = random.Random(3000 + p)
    for _ in range(40):
        a = random_poly(rng, p)
        f = random_nonzero_poly(rng, p) + [1]
        field = FqField(p, len(f) - 1, tuple(f))
        R, x = field.ring(), field.elem(a).enc
        expect = [1]
        for e in range(12):
            assert R.pow(x, e) == field.elem(expect).enc
            expect = oracle_poly_rem(oracle_poly_mul(expect, a, p), f, p)


@pytest.mark.parametrize("p, n", [(2, 8), (3, 5)])
def test_invmod_over_every_nonzero_element(p, n):
    f = make_field(p, n).modulus
    for k in range(1, p**n):
        a = zpoly.trim([(k // p**i) % p for i in range(n)])
        inv = zpoly.invmod(a, f, p)
        assert len(inv) <= n
        assert oracle_poly_rem(oracle_poly_mul(a, inv, p), f, p) == [1]


@pytest.mark.parametrize("p, n", [(2, 16), (3, 10), (101, 2)])
def test_invmod_matches_fermat(p, n):
    # in F_q, q = p^n, every nonzero a has a^(q-2) as its inverse; the
    # operand is padded to n coefficients, as an FqElem's residue tuple is
    f = make_field(p, n).modulus
    rng = random.Random(4000 + p)
    for _ in range(60):
        a = zpoly.trim([rng.randrange(p) for _ in range(n)])
        if not a:
            continue
        expect = oracle_poly_powmod(a, p**n - 2, f, p)
        assert zpoly.invmod(a + [0] * (n - len(a)), f, p) == expect


def test_invmod_refuses_a_common_factor():
    # t + 1 divides t^2 + 1 over Z_2
    with pytest.raises(ValueError):
        zpoly.invmod([1, 1], [1, 0, 1], 2)
    with pytest.raises(ValueError):
        zpoly.invmod([], [1, 1, 1], 2)
