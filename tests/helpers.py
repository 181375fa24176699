"""Shared random-value generators for the test suite.

Everything takes an explicit random.Random so test runs are seeded and
reproducible. Generators return normalized library values; "nonzero"
variants retry until they get one.
"""

from __future__ import annotations

import random

import numpy as np

from perffield import _accel
from perffield.errors import BoundExceeded, DivisionByZero, NotDivisible
from perffield.fqtower import MAX_EXHAUSTIVE, FqField, PerfectReport
from perffield.multipoly import MultiPoly, gcd_cofactors, grlex_key
from perffield.perfclosure import PerfContext, PerfElem
from perffield.primefield import PrimeField
from perffield.ratfunc import RatFunc
from perffield.septools import UniPoly


def random_multipoly(
    rng: random.Random,
    field: PrimeField,
    nvars: int,
    max_terms: int = 4,
    max_deg: int = 4,
) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = _random_mono(rng, nvars, max_deg)
        terms[mono] = rng.randrange(field.p)
    return MultiPoly(field, nvars, terms)


def _random_mono(rng: random.Random, nvars: int, max_deg: int) -> tuple[int, ...]:
    total = rng.randint(0, max_deg)
    mono = [0] * nvars
    for _ in range(total):
        mono[rng.randrange(nvars)] += 1
    return tuple(mono)


def random_nonzero_multipoly(rng, field, nvars, max_terms=4, max_deg=4) -> MultiPoly:
    while True:
        f = random_multipoly(rng, field, nvars, max_terms, max_deg)
        if not f.is_zero:
            return f


def random_ratfunc(rng, field, nvars, max_terms=3, max_deg=3) -> RatFunc:
    num = random_multipoly(rng, field, nvars, max_terms, max_deg)
    den = random_nonzero_multipoly(rng, field, nvars, max_terms, max_deg)
    return RatFunc(num, den)


def random_perfelem(
    rng: random.Random,
    ctx: PerfContext,
    max_level: int = 3,
    max_terms: int = 3,
    max_deg: int = 6,
) -> PerfElem:
    level = rng.randint(0, max_level)
    body = random_ratfunc(rng, ctx.field, ctx.nvars, max_terms, max_deg)
    return PerfElem.canonical(ctx, level, body)


def random_nonzero_perfelem(rng, ctx, max_level=3, max_terms=3, max_deg=6) -> PerfElem:
    while True:
        a = random_perfelem(rng, ctx, max_level, max_terms, max_deg)
        if not a.is_zero:
            return a


def random_unipoly(
    rng: random.Random,
    ctx: PerfContext,
    max_deg: int = 4,
    mode: str = "perfect",
    coeff_level: int = 0,
    coeff_deg: int = 2,
) -> UniPoly:
    deg = rng.randint(0, max_deg)
    coeffs = [
        random_perfelem(rng, ctx, coeff_level, max_terms=2, max_deg=coeff_deg)
        for _ in range(deg + 1)
    ]
    return UniPoly(ctx, coeffs, mode)


def random_monic_unipoly(
    rng: random.Random,
    ctx: PerfContext,
    min_deg: int = 1,
    max_deg: int = 3,
    mode: str = "perfect",
    coeff_level: int = 0,
    coeff_deg: int = 2,
) -> UniPoly:
    deg = rng.randint(min_deg, max_deg)
    coeffs = [
        random_perfelem(rng, ctx, coeff_level, max_terms=2, max_deg=coeff_deg)
        for _ in range(deg)
    ]
    coeffs.append(ctx.one())
    return UniPoly(ctx, coeffs, mode)


# -- reference kernels -------------------------------------------------------
#
# Straightforward versions of MultiPoly's product and exact division on
# exponent tuples, kept as oracles for the packed-monomial kernels.


def oracle_mul(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Schoolbook product over every pair of terms, on exponent tuples."""
    p = a.field.p
    terms: dict[tuple[int, ...], int] = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            s = (terms.get(m, 0) + c1 * c2) % p
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
    return MultiPoly(a.field, a.nvars, terms)


def oracle_divexact(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Exact quotient a/b by rescanning the remainder for its graded-lex
    leader at every step; raises NotDivisible when b does not divide a."""
    if b.is_zero:
        raise DivisionByZero("division by the zero polynomial")
    p = a.field.p
    lm_b = max(b.terms, key=grlex_key)
    inv_lcb = a.field.inv(b.terms[lm_b])
    rem = dict(a.terms)
    quot: dict[tuple[int, ...], int] = {}
    while rem:
        lm_r = max(rem, key=grlex_key)
        qm = tuple(er - eb for er, eb in zip(lm_r, lm_b))
        if any(e < 0 for e in qm):
            raise NotDivisible("leading monomial not divisible")
        qc = (rem[lm_r] * inv_lcb) % p
        quot[qm] = qc
        for m, c in b.terms.items():
            mm = tuple(e1 + e2 for e1, e2 in zip(qm, m))
            s = (rem.get(mm, 0) - qc * c) % p
            if s:
                rem[mm] = s
            else:
                rem.pop(mm, None)
    return MultiPoly(a.field, a.nvars, quot)


# Multiply-then-reduce RatFunc arithmetic: every result is multiplied out
# over the product of the denominators and reduced by one full gcd. Kept
# as the oracle for the Henrici rules in RatFunc.


def oracle_reduce(num: MultiPoly, den: MultiPoly) -> RatFunc:
    """num/den in lowest terms with a monic denominator, by one gcd."""
    num, den = num._reconcile(den)
    if den.is_zero:
        raise DivisionByZero("denominator is the zero polynomial")
    field, nvars = num.field, num.nvars
    if num.is_zero:
        return RatFunc._raw(MultiPoly.zero(field, nvars), MultiPoly.const(field, nvars, 1))
    _, num, den = gcd_cofactors(num, den)
    inv = field.inv(den.leading_coeff())
    return RatFunc._raw(num.mul_scalar(inv), den.mul_scalar(inv))


def _oracle_pad(x: RatFunc, y: RatFunc) -> tuple[RatFunc, RatFunc]:
    n = max(x.nvars, y.nvars)
    return x._pad(n), y._pad(n)


def oracle_add(x: RatFunc, y: RatFunc) -> RatFunc:
    a, b = _oracle_pad(x, y)
    return oracle_reduce(a.num * b.den + b.num * a.den, a.den * b.den)


def oracle_sub(x: RatFunc, y: RatFunc) -> RatFunc:
    a, b = _oracle_pad(x, y)
    return oracle_reduce(a.num * b.den - b.num * a.den, a.den * b.den)


def oracle_ratmul(x: RatFunc, y: RatFunc) -> RatFunc:
    a, b = _oracle_pad(x, y)
    return oracle_reduce(a.num * b.num, a.den * b.den)


def oracle_div(x: RatFunc, y: RatFunc) -> RatFunc:
    a, b = _oracle_pad(x, y)
    if b.num.is_zero:
        raise DivisionByZero("division by the zero rational function")
    return oracle_reduce(a.num * b.den, a.den * b.num)


def oracle_pow(x: RatFunc, e: int) -> RatFunc:
    if e < 0:
        if x.num.is_zero:
            raise DivisionByZero("inverse of the zero rational function")
        x, e = oracle_reduce(x.den, x.num), -e
    return oracle_reduce(x.num**e, x.den**e)


# The matmul sweep of the exhaustive perfectness check: decode every
# element to a row, map all rows through Berlekamp's Q in one int64
# product, and test bijectivity with np.unique. Kept as the oracle for
# the digit-by-digit sweep in fqtower.check_perfect.


def oracle_check_perfect(field: FqField) -> PerfectReport:
    if field.order > MAX_EXHAUSTIVE:
        raise BoundExceeded(
            f"exhaustive check limited to order <= {MAX_EXHAUSTIVE}, "
            f"field has {field.order}"
        )
    p = field.p
    Q = np.array(field.frobenius_matrix(), dtype=np.int64)
    rows = _accel.decode_range(0, field.order, field.n, p)
    enc = _accel.encode_rows((rows @ Q) % p, p)
    if np.unique(enc).size != field.order:
        seen: dict[int, int] = {}
        pair = (0, 0)
        for i, v in enumerate(enc.tolist()):
            if v in seen:
                pair = (seen[v], i)
                break
            seen[v] = i
        return PerfectReport(p, field.n, field.order, False, None, pair)
    home = np.arange(field.order, dtype=enc.dtype)
    k = 1
    cur = enc
    while not np.array_equal(cur, home):
        cur = enc[cur]
        k += 1
        if k > field.n:
            raise RuntimeError("Frobenius order exceeded the extension degree")
    return PerfectReport(p, field.n, field.order, True, k, None)
