"""Dense arithmetic in Z_p[t] on coefficient lists.

A polynomial is a list (or tuple) of residues mod a prime p, index =
degree; the zero polynomial is []. Inputs may carry trailing zeros,
except that a divisor or modulus must end in a nonzero coefficient.
Every function returns a fresh list without trailing zeros and leaves
its inputs alone, except `trim`, which trims in place.

fqtower builds on it the moduli of F_{p^n}, the Frobenius matrices and
the powers of the generator behind each field's log tables. Past those
tables (more than MAX_POINT_FIELD elements, or a reducible modulus),
fqtower's `_FqPoly` multiplies on packed ints of its own and takes only
its inverses from here, on decoded digits; _accel builds its reduction
table with it. `invmod`, an extended Euclid by single division steps
that builds no quotient, also serves fqtower's Rabin test, which needs
only whether a gcd is 1. The monic gcd over
Z_p[t] is not here: it is the Euclid that Brown's algorithm (modgcd)
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


def rem(a: Poly, b: Poly, p: int) -> list[int]:
    """a mod b; b must be nonzero."""
    # every power of a table build and of Rabin's test ends here, so the
    # loop builds no quotient and inlines its trim
    r = trim(list(a))
    db = len(b) - 1
    inv_lc = pow(b[-1], -1, p)
    while len(r) > db:
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
    """The inverse of a modulo f (deg f >= 1) by the extended Euclid.

    Raises ValueError when gcd(a, f) is not 1.
    """
    # invariants r0 = t0*a and r1 = t1*a mod f; each division step takes
    # c*t^s*r1 off r0 and c*t^s*t1 off t0, so no quotient is built, and
    # deg t0 stays below deg f
    r0, r1 = trim(list(f)), trim(list(a))
    t0, t1 = [], [1]
    while r1:
        inv_lc = pow(r1[-1], -1, p)
        while len(r0) >= len(r1):
            c, s = (r0[-1] * inv_lc) % p, len(r0) - len(r1)
            for i, x in enumerate(r1):
                r0[s + i] = (r0[s + i] - c * x) % p
            trim(r0)
            t0 += [0] * (s + len(t1) - len(t0))
            for i, x in enumerate(t1):
                t0[s + i] = (t0[s + i] - c * x) % p
            trim(t0)
        r0, r1, t0, t1 = r1, r0, t1, t0
    if len(r0) != 1:
        raise ValueError("polynomial is not invertible modulo f")
    scale = pow(r0[0], -1, p)
    return [(c * scale) % p for c in t0]
