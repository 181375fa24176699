"""Brown's modular gcd over Z_p, and the finite fields it takes points from.

`gcd_candidates` is the gcd of multipoly's `_gcd_nonzero` for inputs
sharing two or more variables; `univar_gcd` is the library's one Euclid
over Z_p, for multipoly's inputs in one variable and fqtower's Rabin
test. Polynomials here are term maps {exponent tuple: residue}, not
MultiPoly, so this module does not import multipoly.

Brown's algorithm evaluates all variables but the main one at points,
one level per variable, takes univariate gcds of the images, and
interpolates them back by Newton. Every value stays in a finite field, so
the cost follows the degrees and the number of points, not the growth of
polynomial coefficients along a remainder sequence. The points come
from Z_p when p is large enough, and otherwise from the smallest
F_{p^k} with enough of them, whose arithmetic runs on log, antilog and
Zech tables of size O(q) up to MAX_POINT_FIELD elements, and on
polynomial products modulo fqtower's canonical modulus past that.
Candidates can be wrong (an early stop, or unlucky points); the caller
certifies one by exact division and asks for the next when it fails
(Las Vegas).
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from typing import Iterable, Iterator, Mapping, Sequence

from . import zpoly

Mono = tuple[int, ...]
# elements of the largest F_{p^k}, k >= 2, whose arithmetic runs on
# tables; building them takes 2 to 7 us per element (22 ms for F_{101^2},
# 117 ms for F_{2^14}), and larger fields serve degrees in the thousands,
# in practice lifted elements with sparse rows, which `_FqPoly`
# evaluates in fewer products
MAX_POINT_FIELD = 1 << 14
# steps of Euclid (deg a * deg b) in the main variable past which another
# main variable may cost less; on seeded mixed-level CLI lines at p in
# {11, 101}, 10^8 to 3 * 10^8 answered the most, 10^7 and 10^9 fewer
EUCLID_STEPS = 10**8


# Inside the recursion a polynomial over a point field F (`_Zp`, `_Fq`
# or `_FqPoly`) is a map of rows (see `_rows`): dense lists in the last
# variable, which is evaluated first, index = degree, without trailing
# zeros. Variable 0 is the main variable. Gcds come back as flat maps {exponent tuple:
# element}, monic in lex order, the order in which Brown's algorithm
# compares images.


class _OutOfPoints(Exception):
    """A level ran out of evaluation points in its field."""


def gcd_candidates(
    a: Mapping[Mono, int], b: Mapping[Mono, int], p: int, shared: Sequence[int]
) -> Iterator[dict[Mono, int]]:
    """Candidates for the gcd of a and b over Z_p, as term maps up to a
    constant factor, by Brown's dense modular algorithm (W. S. Brown,
    JACM 18, 1971; Geddes, Czapor and Labahn, Algorithms for Computer
    Algebra, ch. 7). The caller makes each monic and certifies it by
    exact division.

    a and b are term maps {exponent tuple: nonzero residue} of two terms
    or more, with exponent tuples of one length; they use exactly the
    variables `shared`, and no variable divides either. Where every
    exponent of x_v is a multiple of step_v, the gcd is one in
    x_v^step_v: substituting x_v -> x_v^step_v is a flat extension of the
    polynomial ring, and gcds commute with it. So lifted elements, whose
    exponents are multiples of a power of p, cost what their deflated
    form costs.

    The main variable is the one of largest degree, unless Euclid on its
    images would be too long (see `_order`); the others are evaluated in
    turn, the largest first. The points come from the point
    field of the smallest F_{p^k} with enough of them for every variable,
    and run out only when too many are unlucky; then the search restarts
    one degree up. A monic gcd does not change under field extension, so
    a candidate with a coefficient outside Z_p cannot be the gcd and is
    passed over.
    """
    step = {v: gcd(*{m[v] for m in a}, *{m[v] for m in b}) for v in shared}
    degs = {v: (max(m[v] for m in a) // d, max(m[v] for m in b) // d) for v, d in step.items()}
    order = _order(degs, len(a) + len(b))
    A = {tuple(m[v] // step[v] for v in order): c for m, c in a.items()}
    B = {tuple(m[v] // step[v] for v in order): c for m, c in b.items()}
    # a level in x_v skips at most deg a + deg b points where a leading
    # coefficient vanishes, and interpolates through at most
    # 2 min(deg a, deg b) + 1 (see _interpolate's bound)
    need = max([da + db + 2 * min(da, db) + 2 for da, db in (degs[v] for v in order[1:])], default=0)
    k = 1
    while p**k < need:
        k += 1
    RA, RB = _rows(A.items()), _rows(B.items())
    nvars = len(next(iter(a)))
    while True:
        F = _point_field(p, k)
        try:
            for h in [_gcd_image(RA, RB, F, 0)] if () in RA else _interpolate(RA, RB, F, 0, True):
                if max(h.values()) >= p:
                    continue
                terms = {}
                for m, c in h.items():
                    mono = [0] * nvars
                    for v, e in zip(order, m):
                        mono[v] = e * step[v]
                    terms[tuple(mono)] = c
                yield terms
            return
        except _OutOfPoints:
            k += 1


def _order(degs: Mapping[int, tuple[int, int]], size: int) -> list[int]:
    """The variables, main first and then in reverse order of evaluation,
    from their (deg a, deg b) and the number of terms of a and b.

    The main variable is the one of largest degree, which takes the
    fewest points. Euclid on its images takes about deg a * deg b steps,
    and lifted elements of the perfect closure can reach degrees of 10^4
    to 10^6 in one variable and stay sparse in it. Past EUCLID_STEPS
    steps the main variable is the one of least estimated cost instead:
    the points of a full interpolation in every other variable times the
    steps of one image, Euclid's and the evaluation of every term.
    """
    order = sorted(degs, key=lambda v: (max(degs[v]), v))
    da, db = degs[order[-1]]
    if da * db > EUCLID_STEPS:

        def cost(m: int) -> int:
            points = 1
            for v in order:
                if v != m:
                    points *= min(degs[v]) + 2
            return points * (degs[m][0] * degs[m][1] + size)

        order.append(order.pop(order.index(min(reversed(order), key=cost))))
    order.insert(0, order.pop())
    return order


def _interpolate(RA: dict, RB: dict, F, extra: int, top: bool) -> Iterator[dict]:
    """Brown's loop for A and B in n >= 2 variables over F, given as rows
    (see `_rows`); yields candidates for their gcd, monic in lex.

    The contents in the last variable y come out by univariate gcds, and
    gamma = gcd of the leading coefficients (in F[y], under lex on the
    other variables). At each point alpha where neither leading
    coefficient vanishes, the gcd of the images comes from the level
    below. An image whose leading monomial is above the least seen so far
    is unlucky and dropped; a lower one restarts the interpolation. The
    images, scaled by gamma(alpha), are interpolated by Newton into H,
    whose primitive part in y times the content gcd is the candidate.
    A constant image at a good point shows that the primitive parts are
    coprime, and the content gcd is the answer.

    H has degree at most `bound` in y. A level below the top yields once,
    after bound + 1 + extra points of one leading monomial: its result is
    the gcd, or has a leading monomial above the gcd's when every point
    was unlucky, which the level above drops. So no candidate that
    divides both inputs is a proper factor of their gcd. The top level
    yields whenever one more point leaves a new H unchanged. Resumed, its
    candidate failed the division: the stop was early, or every point of
    a level below was unlucky. It goes on with more points, and the
    levels below with more points each.
    """
    ca, cb = _content(RA.values(), F), _content(RB.values(), F)
    if len(ca) > 1:
        RA = {key: _quo(row, ca, F) for key, row in RA.items()}
    if len(cb) > 1:
        RB = {key: _quo(row, cb, F) for key, row in RB.items()}
    c = _univar_gcd(ca, cb, F)
    la, lb = RA[max(RA)], RB[max(RB)]
    gamma = _univar_gcd(la, lb, F)
    # deg_y H <= deg gamma + deg_y gcd <= deg gamma + min(deg_y A, deg_y B)
    bound = min(max(map(len, RA.values())), max(map(len, RB.values()))) + len(gamma) - 2
    value, mul, sub, axpy = F.value, F.mul, F.sub, F.axpy
    least = None
    fresh = False  # H changed since the last candidate
    for alpha in F.points:
        if not value(la, alpha) or not value(lb, alpha):
            continue
        image = _gcd_image(
            _rows((key, v) for key, row in RA.items() if (v := value(row, alpha))),
            _rows((key, v) for key, row in RB.items() if (v := value(row, alpha))),
            F,
            extra,
        )
        lead = max(image)
        if not any(lead):
            yield {lead + (e,): v for e, v in enumerate(c) if v}
            return
        if least is not None and lead > least:
            continue
        scale = value(gamma, alpha)
        if least is None or lead < least:
            least, npts, changed = lead, 1, True
            H = {key: [mul(scale, v)] for key, v in image.items()}
            Q = [F.neg(alpha), 1]
        else:
            # Newton: H += (scale * image - H(alpha)) / Q(alpha) * Q
            w = F.inv(value(Q, alpha))
            changed = False
            for key in H.keys() | image.keys():
                h = H.get(key, [])
                u = sub(mul(scale, image.get(key, 0)), value(h, alpha))
                if u:
                    changed = True
                    H[key] = axpy(h + [0] * (len(Q) - len(h)), F.neg(mul(u, w)), Q)
            Q = axpy([0] + Q, alpha, Q + [0]) if alpha else [0] + Q
            npts += 1
        fresh = fresh or changed
        if not top:
            if npts > bound + extra:
                yield _finish(H, c, F)
                return
        elif fresh and (npts > bound or not changed):
            fresh = False
            yield _finish(H, c, F)
            extra = 2 * extra + 1
    raise _OutOfPoints


def _gcd_image(RA: dict, RB: dict, F, extra: int) -> dict:
    """The gcd of two nonzero polynomials given as rows, by Euclid in one
    variable and by Brown's loop below the top in more; monic in lex."""
    if () in RA:
        g = _univar_gcd(RA[()], RB[()], F)
        return {(e,): v for e, v in enumerate(g) if v}
    return next(_interpolate(RA, RB, F, extra, False))


def _finish(H: dict, c: list[int], F) -> dict:
    """c times the primitive part of H in its last variable, monic in lex."""
    rows = {key: zpoly.trim(row) for key, row in H.items()}
    cont = _content(rows.values(), F)
    out = {}
    for key, row in rows.items():
        if len(cont) > 1:
            row = _quo(row, cont, F)
        if len(c) > 1:
            row = _mul(row, c, F)
        for e, v in enumerate(row):
            if v:
                out[key + (e,)] = v
    lead = out[max(out)]
    if lead != 1:
        s = F.inv(lead)
        out = {m: F.mul(s, v) for m, v in out.items()}
    return out


def _rows(terms: Iterable[tuple[Mono, int]]) -> dict:
    """Nonzero terms as {exponents of all but the last variable: dense
    row in the last}; a univariate polynomial is {(): its row}."""
    rows: dict = {}
    for m, v in terms:
        key, e = m[:-1], m[-1]
        row = rows.get(key)
        if row is None:
            row = rows[key] = []
        if len(row) <= e:
            row.extend([0] * (e + 1 - len(row)))
        row[e] = v
    return rows


def _content(rows: Iterable[list[int]], F) -> list[int]:
    """The monic gcd of nonzero rows, the shortest first, stopping at 1."""
    g: list[int] = []
    for row in sorted(rows, key=len):
        g = _univar_gcd(g, row, F)
        if len(g) == 1:
            break
    return g


def _univar_gcd(f: list[int], g: list[int], F) -> list[int]:
    """The monic gcd of dense rows f and g over F, not both zero, by
    Euclid; the base case of Brown's recursion, and the gcd of inputs in
    one shared variable."""
    if len(f) == 1 or len(g) == 1:
        return [1]
    if len(f) < len(g):
        f, g = g, f
    while g:
        g = F.scale(F.inv(g[-1]), g)
        f, g = g, F.rem(f, g)
    if f[-1] != 1:
        f = F.scale(F.inv(f[-1]), f)
    return f


def univar_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    """The monic gcd over Z_p of dense coefficient lists without trailing
    zeros, not both zero: the Euclid of Brown's base case, over Z_p."""
    return _univar_gcd(f, g, _Zp(p))


def _rem(f: list[int], g: list[int], F) -> list[int]:
    """f mod g for a monic g, by long division."""
    f = list(f)
    d = len(g) - 1
    while len(f) > d:
        top = f[-1]
        if top:
            s = len(f) - 1 - d
            f[s:] = F.axpy(f[s:], top, g)
        f.pop()
    return zpoly.trim(f)


def _quo(a: list[int], d: list[int], F) -> list[int]:
    """The exact quotient a / d for a monic d."""
    a = list(a)
    n = len(d) - 1
    q = [0] * (len(a) - n)
    for s in range(len(q) - 1, -1, -1):
        top = a[s + n]
        if top:
            q[s] = top
            a[s : s + n + 1] = F.axpy(a[s : s + n + 1], top, d)
    return q


def _mul(a: list[int], b: list[int], F) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(b):
        if c:
            out[i : i + len(a)] = F.axpy(out[i : i + len(a)], F.neg(c), a)
    return out


# -- point fields ---------------------------------------------------------------


class _Zp:
    """Z_p as a point field: residues and modular arithmetic."""

    __slots__ = ("p", "q", "points")

    def __init__(self, p: int):
        self.p = self.q = p
        self.points = range(p)

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def inv(self, a: int) -> int:
        return pow(a, -1, self.p)

    def scale(self, c: int, v: list[int]) -> list[int]:
        p = self.p
        return [c * x % p for x in v]

    def axpy(self, u: list[int], c: int, v: list[int]) -> list[int]:
        """u - c*v, elementwise, for a nonzero c."""
        p = self.p
        return [(x - c * y) % p for x, y in zip(u, v)]

    def value(self, row: list[int], x: int) -> int:
        """The dense row evaluated at x, by Horner."""
        p, acc = self.p, 0
        for c in reversed(row):
            acc = (acc * x + c) % p
        return acc

    def rem(self, f: list[int], g: list[int]) -> list[int]:
        return _rem(f, g, self)


class _Fq:
    """F_q, q = p^k with 2 <= k and q <= MAX_POINT_FIELD, as a point
    field, through O(q) tables.

    Elements are ints in fqtower's base-p encoding (digit i is the
    coefficient of t^i modulo the field's modulus), so F_p is the ints
    below p. With L = q - 1 and g the first primitive element in
    encoding order, `log[a]` is the exponent of g for a != 0 and 3L for
    0, and `exp[i]` is g^(i mod L) below 2L and 0 from 2L to 6L; so
    exp[log a + log b] = a*b with no test for zero. Addition goes through
    Zech logarithms: a + w = exp[log a + zech[lw - log a + 3L]], where lw
    is log w, possibly unreduced up to 2L - 2, or in [3L, 4L) for w = 0;
    the table's three ranges cover a = 0, both nonzero, and w = 0.
    `nlog[a]` is log(-a).
    """

    __slots__ = ("p", "q", "log", "nlog", "exp", "zech", "points")

    def __init__(self, field):
        p, q = field.p, field.order
        n = q - 1
        g = field.primitive_element()
        powers, x = [1], g
        for _ in range(n - 1):
            powers.append(x.encode())
            x = x * g
        log = [3 * n] * q
        for i, a in enumerate(powers):
            log[a] = i
        half = n // 2 if p > 2 else 0
        zech = [0] * (7 * n)
        for d in range(2 * n - 1):
            zech[d] = d - 3 * n
        for d in range(2 * n + 1, 5 * n - 1):
            a = powers[(d - 3 * n) % n]
            a1 = a - a % p + (a + 1) % p
            zech[d] = log[a1] if a1 else 2 * n
        self.p, self.q = p, q
        self.log = log
        self.nlog = [3 * n] + [(i + half) % n for i in log[1:]]
        self.exp = powers * 2 + [0] * (4 * n + 1)
        self.zech = zech
        # g, g^2, ... first: g^i lies in a proper subfield only for i a
        # multiple of (q - 1)/(p^j - 1), and at points of F_p (or of any
        # subfield) x^p and x, or x^(p^j) and x, agree, which makes them
        # unlucky for the lifted inputs of the perfect closure
        self.points = powers[1:] + [1, 0]

    def mul(self, a: int, b: int) -> int:
        log = self.log
        return self.exp[log[a] + log[b]]

    def neg(self, a: int) -> int:
        return self.exp[self.nlog[a]]

    def sub(self, a: int, b: int) -> int:
        la = self.log[a]
        return self.exp[la + self.zech[self.nlog[b] - la + 3 * (self.q - 1)]]

    def inv(self, a: int) -> int:
        return self.exp[self.q - 1 - self.log[a]]

    def scale(self, c: int, v: list[int]) -> list[int]:
        log, exp = self.log, self.exp
        lc = log[c]
        return [exp[lc + log[x]] for x in v]

    def axpy(self, u: list[int], c: int, v: list[int]) -> list[int]:
        """u - c*v, elementwise, for a nonzero c."""
        log, exp, zech = self.log, self.exp, self.zech
        off = 3 * (self.q - 1) + self.nlog[c]
        return [exp[(lx := log[x]) + zech[off + log[y] - lx]] for x, y in zip(u, v)]

    def value(self, row: list[int], x: int) -> int:
        """The dense row evaluated at x, by Horner."""
        if not x:
            return row[0] if row else 0
        log, exp, zech = self.log, self.exp, self.zech
        off = 3 * (self.q - 1) + log[x]
        acc = 0
        for c in reversed(row):
            lc = log[c]
            acc = exp[lc + zech[off + log[acc] - lc]]
        return acc

    def rem(self, f: list[int], g: list[int]) -> list[int]:
        return _rem(f, g, self)


class _FqPoly:
    """F_q, q = p^k past MAX_POINT_FIELD elements, as a point field
    without tables.

    Elements are ints in the base-p encoding of `_Fq`, and their
    arithmetic is zpoly's on their digit lists, modulo fqtower's
    canonical modulus of degree k. A field this large serves degrees in
    the hundreds and more, which in practice are those of lifted
    elements (x^(p^2) at p = 101) with long, sparse rows; so `value` and `rem`
    jump over runs of zero coefficients by powering, Horner's rule with
    gaps, in F and in F[y]/(g). The points are the encodings from p up,
    then F_p: at points of F_p, x^p and x agree.
    """

    __slots__ = ("p", "q", "modulus")

    def __init__(self, p: int, k: int):
        from .fqtower import canonical_modulus

        self.p, self.q = p, p**k
        self.modulus = canonical_modulus(p, k)

    @property
    def points(self) -> Iterable[int]:
        return chain(range(self.p, self.q), range(self.p))

    def _digits(self, a: int) -> list[int]:
        p, out = self.p, []
        while a:
            a, r = divmod(a, p)
            out.append(r)
        return out

    def _encode(self, digits: list[int]) -> int:
        p, a = self.p, 0
        for c in reversed(digits):
            a = a * p + c
        return a

    def mul(self, a: int, b: int) -> int:
        p = self.p
        if a < p and b < p:
            return a * b % p
        prod = zpoly.mul(self._digits(a), self._digits(b), p)
        return self._encode(zpoly.rem(prod, self.modulus, p))

    def neg(self, a: int) -> int:
        p = self.p
        if a < p:
            return -a % p
        return self._encode(zpoly.sub([], self._digits(a), p))

    def sub(self, a: int, b: int) -> int:
        p = self.p
        if a < p and b < p:
            return (a - b) % p
        return self._encode(zpoly.sub(self._digits(a), self._digits(b), p))

    def inv(self, a: int) -> int:
        p = self.p
        if a < p:
            return pow(a, -1, p)
        return self._encode(zpoly.invmod(self._digits(a), self.modulus, p))

    def pow(self, a: int, e: int) -> int:
        return self._encode(zpoly.powmod(self._digits(a), e, self.modulus, self.p))

    def scale(self, c: int, v: list[int]) -> list[int]:
        return [self.mul(c, x) for x in v]

    def axpy(self, u: list[int], c: int, v: list[int]) -> list[int]:
        """u - c*v, elementwise, for a nonzero c."""
        return [self.sub(x, self.mul(c, y)) for x, y in zip(u, v)]

    def value(self, row: list[int], x: int) -> int:
        """The row evaluated at x, by Horner's rule over its nonzero
        coefficients: acc * x^gap + c."""
        acc, last = 0, 0
        for e in reversed([e for e, c in enumerate(row) if c]):
            if acc:
                acc = self.mul(acc, self.pow(x, last - e))
            acc, last = self.sub(acc, self.neg(row[e])), e
        return self.mul(acc, self.pow(x, last)) if last else acc

    def rem(self, f: list[int], g: list[int]) -> list[int]:
        """f mod g for a monic g: by long division, or by Horner's rule
        over the nonzero coefficients of f in F[y]/(g) where that takes
        fewer products (about 4 d^2 log(deg f) per coefficient against
        d per degree, for d = deg g)."""
        d = len(g) - 1
        nonzero = [e for e, c in enumerate(f) if c]
        if 4 * d * len(nonzero) * len(f).bit_length() >= len(f):
            return _rem(f, g, self)
        acc, last = [], 0
        for e in reversed(nonzero):
            if acc:
                acc = self._mulmod(acc, self._ypow(last - e, g), g)
            acc, last = _rem(_add_const(acc, f[e], self), g, self), e
        return self._mulmod(acc, self._ypow(last, g), g) if last else acc

    def _mulmod(self, a: list[int], b: list[int], g: list[int]) -> list[int]:
        return _rem(_mul(a, b, self), g, self)

    def _ypow(self, e: int, g: list[int]) -> list[int]:
        """y^e mod g, by squaring."""
        out, y = [1], _rem([0, 1], g, self)
        while e:
            if e & 1:
                out = self._mulmod(out, y, g)
            e >>= 1
            if e:
                y = self._mulmod(y, y, g)
        return out


def _add_const(a: list[int], c: int, F) -> list[int]:
    """The row a plus the constant c."""
    if not a:
        return [c]
    return [F.sub(a[0], F.neg(c))] + a[1:]


def _point_field(p: int, k: int):
    """F_{p^k} as a point field. The tables of `_Fq` live on fqtower's
    field object, so they are built once per field and go when
    make_field's cache is cleared."""
    if k == 1:
        return _Zp(p)
    if p**k > MAX_POINT_FIELD:
        return _FqPoly(p, k)
    from .fqtower import make_field

    field = make_field(p, k)
    if field.point_tables is None:
        field.point_tables = _Fq(field)
    return field.point_tables
