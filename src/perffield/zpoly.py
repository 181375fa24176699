"""Dense arithmetic in Z_p[t] on coefficient lists.

A polynomial is a list (or tuple) of residues mod a prime p, index =
degree; the zero polynomial is []. Inputs may carry trailing zeros, as
the padded residue tuples of fqtower do, except that a divisor or
modulus must end in a nonzero coefficient. Every function returns a
fresh list without trailing zeros and leaves its inputs alone, except
`trim`, which trims in place.

fqtower builds F_{p^n} and its Frobenius matrices on it, modgcd's
point fields past their table bound take their products, powers and
inverses from it, and _accel builds its reduction table with it. The gcd
over Z_p[t] is `modgcd.univar_gcd`, the Euclid that Brown's algorithm
runs over every point field, Z_p among them.
"""

from __future__ import annotations

from typing import Sequence

Poly = Sequence[int]


def trim(a: list[int]) -> list[int]:
    """Drop trailing zeros from a in place and return it."""
    while a and a[-1] == 0:
        a.pop()
    return a


def sub(a: Poly, b: Poly, p: int) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return trim(out)


def mul(a: Poly, b: Poly, p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return trim(out)


def divmod(a: Poly, b: Poly, p: int) -> tuple[list[int], list[int]]:
    """(q, r) with a = q*b + r and deg r < deg b; b must be nonzero."""
    r = trim(list(a))
    db = len(b) - 1
    inv_lc = pow(b[-1], p - 2, p)
    q = [0] * max(len(r) - db, 1)
    while len(r) - 1 >= db and r:
        c = (r[-1] * inv_lc) % p
        shift = len(r) - 1 - db
        q[shift] = c
        for i, cb in enumerate(b):
            r[shift + i] = (r[shift + i] - c * cb) % p
        while r and r[-1] == 0:
            r.pop()
    return trim(q), r


def rem(a: Poly, b: Poly, p: int) -> list[int]:
    """a mod b; b must be nonzero."""
    # divmod's loop without the quotient: every FqElem product ends here,
    # and building q made it about 10% slower (the trim is inlined in both
    # loops for the same reason)
    r = trim(list(a))
    db = len(b) - 1
    inv_lc = pow(b[-1], p - 2, p)
    while len(r) - 1 >= db and r:
        c = (r[-1] * inv_lc) % p
        shift = len(r) - 1 - db
        for i, cb in enumerate(b):
            r[shift + i] = (r[shift + i] - c * cb) % p
        while r and r[-1] == 0:
            r.pop()
    return r


def powmod(a: Poly, e: int, f: Poly, p: int) -> list[int]:
    """a^e mod f for e >= 0 and f of positive degree, by square and multiply."""
    result = [1]
    b = rem(a, f, p)
    while e:
        if e & 1:
            result = rem(mul(result, b, p), f, p)
        e >>= 1
        if e:
            b = rem(mul(b, b, p), f, p)
    return result


def invmod(a: Poly, f: Poly, p: int) -> list[int]:
    """The inverse of a modulo f, by the extended Euclidean algorithm.

    Raises ValueError when gcd(a, f) is not 1.
    """
    # invariants: r0 = s0*f + t0*a, r1 = s1*f + t1*a (s never needed)
    r0, r1 = trim(list(f)), trim(list(a))
    t0, t1 = [], [1]
    while r1:
        q, r2 = divmod(r0, r1, p)
        r0, r1 = r1, r2
        t0, t1 = t1, sub(t0, mul(q, t1, p), p)
    if len(r0) != 1:
        raise ValueError("polynomial is not invertible modulo f")
    scale = pow(r0[0], p - 2, p)
    return rem([(c * scale) % p for c in t0], f, p)
