"""The extended Euclid in Z_p[t], on coefficient lists.

A polynomial is a list (or tuple) of residues mod a prime p, index =
degree; the zero polynomial is []. Inputs may carry trailing zeros,
except that a modulus must end in a nonzero coefficient. `invmod`
returns a fresh list without trailing zeros and leaves its inputs
alone; `trim` trims in place.

Every other product, power and remainder in Z_p[t] modulo f is
fqtower's `_FqPoly`, on packed ints. On a modulus that Rabin's test
has accepted it inverts by Itoh and Tsujii, on Frobenius powers; on
any other (a reducible modulus, or one not yet tested) its inverse
decodes the digits and runs `invmod`, an extended Euclid by single
division steps that builds no quotient. That includes the gcds of
Rabin's test itself, which runs before its verdict and needs only
whether a gcd is 1. modgcd trims its dense rows with `trim`. The monic
gcd over Z_p[t] is not here: it is the Euclid that Brown's algorithm
(modgcd) runs over every point field, Z_p among them.
"""

from __future__ import annotations

from typing import Sequence

Poly = Sequence[int]


def trim(a: list[int]) -> list[int]:
    """Drop trailing zeros from a in place and return it."""
    while a and a[-1] == 0:
        a.pop()
    return a


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
