"""Tests for dense Z_p[t] arithmetic on coefficient lists."""

import random

import pytest

from perffield import modgcd, zpoly
from perffield.fqtower import make_field

PRIMES = (2, 3, 5, 7, 101)


def random_poly(rng, p, max_deg=20):
    return zpoly.trim([rng.randrange(p) for _ in range(rng.randint(0, max_deg + 1))])


def random_nonzero_poly(rng, p, max_deg=20):
    while True:
        a = random_poly(rng, p, max_deg)
        if a:
            return a


def add(a, b, p):
    return zpoly.sub(a, zpoly.sub([], b, p), p)


@pytest.mark.parametrize("p", PRIMES)
def test_divmod_identity(p):
    rng = random.Random(1000 + p)
    for _ in range(200):
        a = random_poly(rng, p)
        b = random_nonzero_poly(rng, p)
        q, r = zpoly.divmod(a, b, p)
        assert len(r) < len(b)
        assert add(zpoly.mul(q, b, p), r, p) == a
        assert zpoly.rem(a, b, p) == r


@pytest.mark.parametrize("p", PRIMES)
def test_gcd_divides_both(p):
    rng = random.Random(2000 + p)
    for _ in range(200):
        c = random_poly(rng, p, 6)
        a = zpoly.mul(random_poly(rng, p, 14), c, p)
        b = zpoly.mul(random_poly(rng, p, 14), c, p)
        if not a and not b:
            continue
        # the Euclid over Z_p[t] is modgcd's
        g = modgcd.univar_gcd(a, b, p)
        assert g[-1] == 1
        assert zpoly.rem(a, g, p) == []
        assert zpoly.rem(b, g, p) == []
        # a planted common factor divides the gcd
        if c:
            assert zpoly.rem(g, c, p) == []


@pytest.mark.parametrize("p", PRIMES)
def test_powmod_matches_repeated_mul(p):
    rng = random.Random(3000 + p)
    for _ in range(40):
        a = random_poly(rng, p)
        f = random_nonzero_poly(rng, p) + [1]
        expect = [1]
        for e in range(12):
            assert zpoly.powmod(a, e, f, p) == expect
            expect = zpoly.rem(zpoly.mul(expect, a, p), f, p)


@pytest.mark.parametrize("p, n", [(2, 8), (3, 5)])
def test_invmod_over_every_nonzero_element(p, n):
    f = make_field(p, n).modulus
    for k in range(1, p**n):
        a = zpoly.trim([(k // p**i) % p for i in range(n)])
        inv = zpoly.invmod(a, f, p)
        assert len(inv) <= n
        assert zpoly.rem(zpoly.mul(a, inv, p), f, p) == [1]


def test_invmod_refuses_a_common_factor():
    # t + 1 divides t^2 + 1 over Z_2
    with pytest.raises(ValueError):
        zpoly.invmod([1, 1], [1, 0, 1], 2)
    with pytest.raises(ValueError):
        zpoly.invmod([], [1, 1, 1], 2)
