"""Shared random-value generators and reference oracles for the test suite.

Everything takes an explicit random.Random so test runs are seeded and
reproducible. Generators return normalized library values; "nonzero"
variants retry until they get one.
"""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np

from perffield.errors import ConstantPolynomial, DivisionByZero, NotDivisible, PoleAtPoint
from perffield.fqtower import FqField, PerfectReport
from perffield.multipoly import MultiPoly, gcd_cofactors, grlex_key, resolve_point_field
from perffield.perfclosure import PerfContext, PerfElem
from perffield.primefield import PrimeField
from perffield.ratfunc import RatFunc
from perffield.septools import UniPoly, pth_root_poly


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


# The recursive primitive PRS gcd on whole polynomials: content and
# primitive part in the highest shared variable, every content gcd
# through oracle_poly_gcd again, and pseudo-remainders taken on whole
# MultiPolys. It checks its result by exact division at every level.
# Kept as the oracle for multipoly's gcd, Brown's evaluation and
# interpolation over finite fields, which certifies once at the top.


def oracle_poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Monic gcd of a and b, not both zero."""
    a, b = a._reconcile(b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero or b.is_zero:
        return (a + b).monic()
    one = MultiPoly.const(a.field, a.nvars, 1)
    common = _oracle_support(a) & _oracle_support(b)
    if a.is_constant or b.is_constant or not common:
        return one
    k = max(common)
    ca, pa = _oracle_content_pp(a, k)
    cb, pb = _oracle_content_pp(b, k)
    g = (oracle_poly_gcd(ca, cb) * _oracle_prs_gcd(pa, pb, k)).monic()
    a.divexact(g)
    b.divexact(g)
    return g


def _oracle_support(f: MultiPoly) -> set[int]:
    return {i for m in f.terms for i, e in enumerate(m) if e}


def _oracle_to_univar(f: MultiPoly, k: int) -> dict[int, MultiPoly]:
    coeffs: dict[int, dict[tuple[int, ...], int]] = {}
    for m, c in f.terms.items():
        coeffs.setdefault(m[k], {})[m[:k] + (0,) + m[k + 1 :]] = c
    return {e: MultiPoly(f.field, f.nvars, t) for e, t in coeffs.items()}


def _oracle_content_pp(f: MultiPoly, k: int) -> tuple[MultiPoly, MultiPoly]:
    content = MultiPoly.zero(f.field, f.nvars)
    for c in _oracle_to_univar(f, k).values():
        content = oracle_poly_gcd(content, c)
    if content.is_constant:
        return MultiPoly.const(f.field, f.nvars, 1), f
    return content, f.divexact(content)


def _oracle_prs_gcd(pa: MultiPoly, pb: MultiPoly, k: int) -> MultiPoly:
    """Primitive PRS of two x_k-primitive polynomials of positive degree
    in x_k; pseudo-remainders are taken on the whole polynomials."""
    if pa.degree_in(k) < pb.degree_in(k):
        pa, pb = pb, pa
    xk = MultiPoly.variable(pa.field, pa.nvars, k)
    while True:
        r = pa
        G = _oracle_to_univar(pb, k)
        dg = max(G)
        while not r.is_zero and r.degree_in(k) >= dg:
            R = _oracle_to_univar(r, k)
            dr = max(R)
            r = r * G[dg] - R[dr] * xk ** (dr - dg) * pb
        if r.is_zero:
            return pb
        if r.degree_in(k) == 0:
            return MultiPoly.const(pa.field, pa.nvars, 1)
        pa, pb = pb, _oracle_content_pp(r, k)[1]


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


# Evaluation element by element: every coordinate becomes an element of
# the point field and each term is built by element `*` and `**`, summed
# by `+`. Kept as the oracle for multipoly.eval_at_point, which runs the
# terms on encodings through the field's arithmetic object.


def oracle_multipoly_eval(f: MultiPoly, point, field=None):
    """f at the point, with the point checked as MultiPoly.eval checks it."""
    field = resolve_point_field(point, field, f.field.p)
    if len(point) < f.nvars:
        raise ValueError(f"need {f.nvars} coordinates, got {len(point)}")
    point = [field.const(c) if isinstance(c, int) else c for c in point]
    acc = field.zero()
    for mono, c in f.terms.items():
        term = c
        for i, e in enumerate(mono):
            if e:
                term = term * point[i] ** e
        acc = acc + term
    return acc


def oracle_ratfunc_eval(r: RatFunc, point, field=None):
    """num/den at the point, the denominator first; PoleAtPoint at its zeros."""
    d = oracle_multipoly_eval(r.den, point, field)
    if not d:
        raise PoleAtPoint("denominator vanishes at the evaluation point")
    return oracle_multipoly_eval(r.num, point, field) * d.inv()


# The per-coordinate evaluation of a level-L element: take the p^L-th
# root of every coordinate, then evaluate the body there. Kept as the
# oracle for PerfElem.eval, which roots the body's value instead.


def oracle_perfelem_eval(a: PerfElem, point, field=None):
    """body(x^(1/p^L)); an int coordinate lies in Z_p, its own p-th root."""
    roots = list(point)
    for _ in range(a.level):
        roots = [c if isinstance(c, int) else c.inv_frobenius() for c in roots]
    return oracle_ratfunc_eval(a.body, roots, field)


# The matmul sweep of the exhaustive perfectness check: decode every
# element to a row, map all rows through Berlekamp's Q in one int64
# product, and test bijectivity with np.unique. Kept as the oracle for
# the digit-by-digit sweep in fqtower.check_perfect, and its image
# encodings for fqtower._frobenius_images.


def oracle_frobenius_images(field: FqField) -> np.ndarray:
    """The encodings of the images under Q of all p^n elements, indexed
    by the encoding of the element: every element's digits times Q."""
    p = field.p
    Q = np.array(field.frobenius_matrix(), dtype=np.int64)
    # rows[k] holds the base-p digits of k, least significant first
    weights = p ** np.arange(field.n, dtype=np.int64)
    rows = np.arange(field.order, dtype=np.int64)[:, None] // weights % p
    return ((rows @ Q) % p) @ weights


def oracle_check_perfect(field: FqField) -> PerfectReport:
    p = field.p
    enc = oracle_frobenius_images(field)
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


# Gauss-Jordan elimination on digit lists, which the embedding root
# search ran before it eliminated on rows packed in the target ring's
# slots. Kept as the oracle for fqtower._null_space.


def oracle_null_space(a: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """A basis of {x : a x = 0} for a square matrix a over Z_p, by
    Gauss-Jordan elimination, and its free columns: basis vector i is 1
    in free column i and 0 in the others."""
    n = len(a)
    a = [list(row) for row in a]
    pivots = []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, n) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [(v * inv) % p for v in a[r]]
        for i in range(n):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[r])]
        pivots.append(c)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for c in free:
        x = [0] * n
        x[c] = 1
        for i, pc in enumerate(pivots):
            x[pc] = (-a[i][c]) % p
        basis.append(x)
    return basis, free


# Residue-tuple arithmetic in F_{p^n}: an element is its padded n-tuple
# of coefficients, constant first. Products, remainders and powers are
# dense Z_p[t] arithmetic on coefficient lists, schoolbook products and
# remainders by single division steps, which fqtower ran before all of
# its arithmetic moved onto packed ints; a sum is taken digit by digit.
# An inverse is a^(q-2) on a modulus that trial division finds
# irreducible, and found by search on a reducible one, so it shares no
# code with the extended Euclid behind `_FqPoly.inv`. Kept as the oracle
# for the tables and for `_FqPoly`.


def _oracle_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def oracle_poly_mul(a, b, p: int) -> list[int]:
    """The product of two coefficient sequences over Z_p, trimmed."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _oracle_trim(out)


def oracle_poly_rem(a, b, p: int) -> list[int]:
    """a mod b over Z_p for b ending in a nonzero coefficient, trimmed."""
    r = _oracle_trim([c % p for c in a])
    db = len(b) - 1
    inv_lc = pow(b[-1], -1, p)
    while len(r) > db:
        c = (r[-1] * inv_lc) % p
        shift = len(r) - 1 - db
        for i, cb in enumerate(b):
            r[shift + i] = (r[shift + i] - c * cb) % p
        _oracle_trim(r)
    return r


def oracle_poly_powmod(a, e: int, f, p: int) -> list[int]:
    """a^e mod f for e >= 0 and f of positive degree, by square and multiply."""
    result = [1]
    b = oracle_poly_rem(a, f, p)
    while e:
        if e & 1:
            result = oracle_poly_rem(oracle_poly_mul(result, b, p), f, p)
        e >>= 1
        if e:
            b = oracle_poly_rem(oracle_poly_mul(b, b, p), f, p)
    return result


def _oracle_residue(field: FqField, cs: list[int]) -> tuple[int, ...]:
    return tuple(cs) + (0,) * (field.n - len(cs))


def oracle_fq_add(field: FqField, a: tuple, b: tuple) -> tuple[int, ...]:
    return tuple((x + y) % field.p for x, y in zip(a, b))


def oracle_fq_neg(field: FqField, a: tuple) -> tuple[int, ...]:
    return tuple(-x % field.p for x in a)


def oracle_fq_mul(field: FqField, a: tuple, b: tuple) -> tuple[int, ...]:
    p = field.p
    return _oracle_residue(field, oracle_poly_rem(oracle_poly_mul(a, b, p), field.modulus, p))


def oracle_fq_pow(field: FqField, a: tuple, e: int) -> tuple[int, ...]:
    """a^e for e >= 0 by square and multiply."""
    return _oracle_residue(field, oracle_poly_powmod(a, e, field.modulus, field.p))


@lru_cache(maxsize=None)
def _oracle_is_field(modulus: tuple[int, ...], p: int) -> bool:
    monic = [c * pow(modulus[-1], -1, p) % p for c in modulus]
    return oracle_small_factor(monic, p) is None


def oracle_fq_inv(field: FqField, a: tuple) -> tuple[int, ...]:
    """The inverse: a^(q-2) when the modulus is irreducible, checked to
    give a*y = 1, and otherwise the residue y with a*y = 1 found among
    all q; ValueError for a zero divisor (zero included)."""
    if not any(a):
        raise ValueError("zero has no inverse")
    f, p, n = field.modulus, field.p, field.n
    if _oracle_is_field(f, p):
        y = oracle_fq_pow(field, a, field.order - 2)
        assert oracle_fq_mul(field, a, y) == _oracle_residue(field, [1])
        return y
    for k in range(field.order):
        y = tuple(k // p**i % p for i in range(n))
        if oracle_fq_mul(field, a, y) == _oracle_residue(field, [1]):
            return y
    raise ValueError("a zero divisor has no inverse")


# Irreducibility by trial division, the oracle for fqtower's canonical
# modulus and its Rabin test: plain loops over coefficient lists, on
# neither fqtower's packed ring nor modgcd.


def oracle_monic_polys(p: int, d: int):
    """The monic polynomials of degree d over Z_p as coefficient lists,
    constant first, in enumeration order: constant term fastest-varying."""
    for k in range(p**d):
        coeffs = []
        for _ in range(d):
            k, c = divmod(k, p)
            coeffs.append(c)
        yield coeffs + [1]


def _oracle_divides(g: list[int], f: list[int], p: int) -> bool:
    """Whether the monic g divides f over Z_p, by long division."""
    r = list(f)
    while len(r) >= len(g):
        c, s = r[-1], len(r) - len(g)
        for i, gi in enumerate(g):
            r[s + i] = (r[s + i] - c * gi) % p
        r.pop()
    return not any(r)


def oracle_long_division(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(q, r) with a = q*b + r and deg r < deg b over Z_p, for b ending in
    a nonzero coefficient: schoolbook long division, top coefficient down,
    with b's leading coefficient inverted by search."""
    inv = next(x for x in range(1, p) if x * b[-1] % p == 1)
    r = [c % p for c in a]
    q = [0] * max(len(r) - len(b) + 1, 0)
    for s in reversed(range(len(q))):
        c = r[s + len(b) - 1] * inv % p
        q[s] = c
        for i, bi in enumerate(b):
            r[s + i] = (r[s + i] - c * bi) % p
    r = r[: len(b) - 1]
    for poly in (q, r):
        while poly and poly[-1] == 0:
            poly.pop()
    return q, r


def oracle_small_factor(f: list[int], p: int) -> list[int] | None:
    """The first monic factor of f of degree 1 to deg f / 2 in
    enumeration order, or None when f (monic) is irreducible."""
    for d in range(1, (len(f) - 1) // 2 + 1):
        for g in oracle_monic_polys(p, d):
            if _oracle_divides(g, f, p):
                return g
    return None


# The Euclidean gcd over the closure and the Musser cascade built on it,
# on UniPoly's per-coefficient long division: the oracle for septools,
# whose gcd, separability test and cascade run on numerators.


def oracle_unipoly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()


def oracle_squarefree(f: UniPoly):
    """(unit, parts) of the Musser cascade, parts sorted as septools does."""
    if f.is_constant:
        raise ConstantPolynomial("squarefree decomposition needs a nonconstant input")
    parts: list = []
    _oracle_sqf(f.monic(), 1, parts)
    parts.sort(key=lambda fm: (fm[1], fm[0].degree, str(fm[0])))
    return f.leading_coeff(), parts


def _oracle_sqf(f: UniPoly, mult: int, parts: list) -> None:
    p = f.ctx.p
    df = f.derivative()
    if df.is_zero:
        _oracle_sqf(pth_root_poly(f), mult * p, parts)
        return
    a = oracle_unipoly_gcd(f, df)
    b = f.divexact(a)
    i = 1
    while not b.is_constant:
        c = oracle_unipoly_gcd(b, a) if not a.is_constant else UniPoly.const(f.ctx, 1, f.mode)
        z = b.divexact(c)
        if not z.is_constant:
            parts.append((z.monic(), mult * i))
        b = c
        if not a.is_constant:
            a = a.divexact(c)
        i += 1
    if not a.is_constant:
        _oracle_sqf(pth_root_poly(a.monic()), mult * p, parts)
