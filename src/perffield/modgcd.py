"""Brown's modular gcd over Z_p.

`gcd_candidates` is the gcd of multipoly's `_gcd_nonzero` for every
input its exact rules leave, in one variable or more. When one input
uses a single variable, the Euclid of Brown's base case alone gives the
gcd. Polynomials here are term maps {exponent tuple: residue}, not
MultiPoly, so this module does not import multipoly.

Brown's algorithm evaluates all variables but the main one at points,
one level per variable, takes univariate gcds of the images, and
interpolates them back by Newton. Every value stays in a finite field, so
the cost follows the degrees and the number of points, not the growth of
polynomial coefficients along a remainder sequence. The points come
from Z_p when p is large enough, and otherwise from the smallest
F_{p^k} with enough of them (`fqtower.point_field`). Candidates can be
wrong (an early stop, or unlucky points); the caller certifies one by
exact division and asks for the next when it fails (Las Vegas).
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator, Mapping

from . import zpoly
from .errors import BoundExceeded
from .fqtower import point_field

Mono = tuple[int, ...]
# steps of Euclid (deg a * deg b) in the main variable past which another
# main variable may cost less; on seeded mixed-level CLI lines at p in
# {11, 101}, 10^8 to 3 * 10^8 answered the most, 10^7 and 10^9 fewer
EUCLID_STEPS = 10**8
# entries of the longest dense row, in any variable, that a gcd may build
MAX_ROW = 1 << 24


# Inside the recursion a polynomial over a point field F (see
# `fqtower.point_field`) is a map of rows (see `_rows`): dense lists in
# the last variable, which is evaluated first, index = degree, without
# trailing zeros. Variable 0 is the main variable. Gcds come back as flat
# maps {exponent tuple: element}, monic in lex order, the order in which
# Brown's algorithm compares images.


class _OutOfPoints(Exception):
    """A level ran out of evaluation points in its field."""


def gcd_candidates(
    a: Mapping[Mono, int], b: Mapping[Mono, int], p: int
) -> Iterator[dict[Mono, int]]:
    """Candidates for the gcd of a and b over Z_p, as term maps up to a
    constant factor, by Brown's dense modular algorithm (W. S. Brown,
    JACM 18, 1971; Geddes, Czapor and Labahn, Algorithms for Computer
    Algebra, ch. 7). The caller makes each monic and certifies it by
    exact division.

    a and b are term maps {exponent tuple: nonzero residue} of two terms
    or more, with exponent tuples of one length, and no variable divides
    either. The variables are those that either uses, read from the
    terms. When one input uses a single variable, Euclid alone gives
    the gcd (`_gcd_in_one_variable`). Otherwise a variable that only one
    input uses has degree 0 in the other: evaluated, its level has bound
    0 and takes one point, and as the main variable it makes the first
    good image constant. Where every exponent of x_v is a multiple of
    step_v, the gcd is one in x_v^step_v: substituting x_v -> x_v^step_v
    is a flat extension of the polynomial ring, and gcds commute with
    it. So lifted elements, whose exponents are multiples of a power of
    p, cost what their deflated form costs. A deflated degree of
    MAX_ROW or more raises BoundExceeded before any row is built.

    The main variable is the one of largest degree, unless Euclid on its
    images would be too long (see `_order`); the others are evaluated in
    turn, the largest first. The points come from the point field of the
    smallest F_{p^k} with enough of them for every variable, and run out
    only when too many are unlucky; then the search restarts one degree
    up. A monic gcd does not change under field extension, so a candidate
    with a coefficient outside Z_p, an encoding of p or more, cannot be
    the gcd and is passed over.
    """
    nvars = len(next(iter(a)))
    # a variable that neither input uses has step 0 and is left out
    steps = (gcd(*{m[v] for m in a}, *{m[v] for m in b}) for v in range(nvars))
    step = {v: d for v, d in enumerate(steps) if d}
    degs = {v: (max(m[v] for m in a) // d, max(m[v] for m in b) // d) for v, d in step.items()}
    if any(d >= MAX_ROW for pair in degs.values() for d in pair):
        raise BoundExceeded(f"the gcd needs a dense row of more than {MAX_ROW} entries")
    for f, g, side in ((a, b, 1), (b, a, 0)):
        used = [v for v in step if degs[v][side]]
        if len(used) == 1:
            yield _gcd_in_one_variable(f, g, used[0], step[used[0]], p)
            return
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
    while True:
        F = point_field(p, k)
        try:
            for h in _interpolate(RA, RB, F, 0, True):
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


def _gcd_in_one_variable(
    f: Mapping[Mono, int], g: Mapping[Mono, int], v: int, d: int, p: int
) -> dict[Mono, int]:
    """The monic gcd over Z_p of f and g, where g uses x_v alone and d
    divides every exponent of x_v: it lies in Z_p[x_v^d], so it is the
    gcd of g with every coefficient of f in the other variables. That is
    Euclid, Brown's base case, on the fewest terms first, stopping at 1;
    x_v does not divide g, so a monomial coefficient gives 1 at once.
    With f in x_v alone too, f is its own one coefficient."""
    coeffs: dict[Mono, list] = {}
    for m, c in f.items():
        coeffs.setdefault(m[:v] + m[v + 1 :], []).append(((m[v] // d,), c))
    Zp = point_field(p, 1)
    h = _rows(((m[v] // d,), c) for m, c in g.items())[()]
    for terms in sorted(coeffs.values(), key=len):
        h = [1] if len(terms) == 1 else _univar_gcd(h, _rows(terms)[()], Zp)
        if len(h) == 1:
            break
    zero = (0,) * len(next(iter(g)))
    return {zero[:v] + (e * d,) + zero[v + 1 :]: c for e, c in enumerate(h) if c}


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
    one variable."""
    if len(f) == 1 or len(g) == 1:
        return [1]
    if len(f) < len(g):
        f, g = g, f
    while g:
        g = F.scale(F.inv(g[-1]), g)
        f, g = g, _rem(f, g, F)
    if f[-1] != 1:
        f = F.scale(F.inv(f[-1]), f)
    return f


def _rem(f: list[int], g: list[int], F) -> list[int]:
    """f mod g for a monic g: by long division, or by Horner's rule over
    the nonzero coefficients of f in F[y]/(g) where that takes fewer
    products (about 4 d^2 log(deg f) per coefficient against d per
    degree, for d = deg g). Lifted elements (x^(p^2) at p = 101) give
    long, sparse rows, and Euclid's first remainder of one against a
    short row then jumps over its runs of zero coefficients."""
    n, d = len(f), len(g) - 1
    bits = n.bit_length()
    if n > 4 * d * bits:
        nonzero = [e for e, c in enumerate(f) if c]
        if 4 * d * len(nonzero) * bits < n:
            acc, last = [], 0
            for e in reversed(nonzero):
                if acc:
                    acc = _mulmod(acc, _ypow(last - e, g, F), g, F)
                acc, last = _long_rem(_add_const(acc, f[e], F), g, F), e
            return _mulmod(acc, _ypow(last, g, F), g, F) if last else acc
    return _long_rem(f, g, F)


def _long_rem(f: list[int], g: list[int], F) -> list[int]:
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


def _mulmod(a: list[int], b: list[int], g: list[int], F) -> list[int]:
    return _long_rem(_mul(a, b, F), g, F)


def _ypow(e: int, g: list[int], F) -> list[int]:
    """y^e mod g, by squaring."""
    out, y = [1], _long_rem([0, 1], g, F)
    while e:
        if e & 1:
            out = _mulmod(out, y, g, F)
        e >>= 1
        if e:
            y = _mulmod(y, y, g, F)
    return out


def _add_const(a: list[int], c: int, F) -> list[int]:
    """The row a plus the constant c."""
    if not a:
        return [c]
    return [F.sub(a[0], F.neg(c))] + a[1:]
