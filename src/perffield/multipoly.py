"""Sparse multivariate polynomial arithmetic over Z_p.

Polynomials are finite maps from exponent vectors to nonzero residues.
The monomial order is graded lexicographic everywhere: total degree
first, then lexicographic with the lowest variable index most
significant. "Monic" and canonical printing both refer to this order.

The two operations the perfect-closure construction leans on are
`frobenius_substitute` (multiply every exponent by p, which equals
raising the polynomial to the p-th power over Z_p) and its exact inverse
`pth_root` (divide every exponent by p; coefficients are untouched
because c^p = c in Z_p). The first drives `digit_power`, the one power
routine for MultiPoly and septools' UniPoly; `check_power_terms` is the
term bound PerfElem and UniPoly powers pass before any work.

The product and the exact division work on packed monomials. Each
kernel packs its operands once on entry and unpacks its result once on
exit; `.terms` always holds exponent tuples. A packed monomial is one
int whose base-2^w digits, most significant first, are (total degree,
e_0, ..., e_{n-1}). While every digit stays below 2^w, integer order is
graded-lex order and adding two packed monomials multiplies them, so the
product's inner loop is one int addition. Exact division (after Monagan
and Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007) keeps the remainder's monomials in a
max-heap with lazy deletion instead of rescanning for the leader: every
new remainder monomial lies below the leader it came from. Its digits
get one spare top bit each, so one subtraction and one mask test decide
whether the divisor's leading monomial divides the leader.

GCD starts in `_gcd_nonzero`, three exact rules and one Las Vegas path,
each returning the gcd with its cofactors. When either input is a
monomial, the gcd is the monomial of the least exponents; equal inputs
are their own gcd; and monomial contents come out next. Everything else
goes to Brown's modular gcd in `modgcd`, over the variables either input
uses: it evaluates all variables but the main one at points, takes
univariate gcds of the images, and interpolates them back by Newton, so
every value stays in a finite field and the cost follows the degrees and
the number of points. When one input uses a single variable, the gcd
lies in it: Brown's Euclid base case takes it from that input and the
other's coefficients in the other variables, stopping at 1. The points
come from Z_p when p is large enough, otherwise from the smallest
F_{p^k} with enough of them (`fqtower.point_field`), whose arithmetic
runs on log and Zech tables of size O(q) up to
`fqtower.MAX_POINT_FIELD` elements and on polynomial products past it.
Brown's candidates can be wrong (an early stop, or unlucky points);
exact division certifies the one returned, once per `gcd_cofactors`
call, and its quotients are the cofactors a/g and b/g. A candidate that
fails the division makes Brown's loop take more points (Las Vegas).
"""

from __future__ import annotations

import heapq
from functools import partial
from math import comb
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from . import modgcd
from .errors import BoundExceeded, ContextMismatch, DivisionByZero, NotAPthPower, NotDivisible
from .fqtower import FqElem, point_field
from .primefield import PrimeField

Mono = tuple[int, ...]
T = TypeVar("T")
# terms a power may produce in its numerator or its denominator
MAX_POWER_TERMS = 1 << 15


def grlex_key(mono: Mono):
    """Sort key realizing graded lexicographic order (ascending)."""
    return (sum(mono), mono)


class MultiPoly:
    """A sparse multivariate polynomial over a fixed prime field.

    Invariants: every stored coefficient is a nonzero residue in [1, p),
    every exponent vector has length `nvars` with non-negative entries.
    The zero polynomial is the empty term map. Values are immutable;
    all operations allocate fresh results.
    """

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: PrimeField, nvars: int, terms: Mapping[Mono, int]):
        p = field.p
        clean: dict[Mono, int] = {}
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != nvars:
                raise ValueError(f"exponent vector {mono} has length != {nvars}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            c = coeff % p
            if c:
                clean[mono] = c
        self.field = field
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _raw(cls, field: PrimeField, nvars: int, terms: dict[Mono, int]) -> MultiPoly:
        # trusted constructor: terms already normalized
        self = object.__new__(cls)
        self.field = field
        self.nvars = nvars
        self.terms = terms
        return self

    @classmethod
    def zero(cls, field: PrimeField, nvars: int) -> MultiPoly:
        return cls._raw(field, nvars, {})

    @classmethod
    def const(cls, field: PrimeField, nvars: int, c: int) -> MultiPoly:
        c %= field.p
        if not c:
            return cls.zero(field, nvars)
        return cls._raw(field, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, field: PrimeField, nvars: int, i: int, power: int = 1) -> MultiPoly:
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for {nvars} variables")
        mono = tuple(power if j == i else 0 for j in range(nvars))
        return cls._raw(field, nvars, {mono: 1})

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        # two distinct monomials cannot both be the constant monomial
        terms = self.terms
        return not terms or (len(terms) == 1 and not any(next(iter(terms))))

    def constant_value(self) -> int:
        """The value of a constant polynomial (0 for the zero polynomial)."""
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()), 0)

    def total_degree(self) -> int | None:
        """Total degree, or None for the zero polynomial (the -inf sentinel)."""
        if not self.terms:
            return None
        return max(map(sum, self.terms))

    def degree_in(self, i: int) -> int:
        """Degree in variable i; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(m[i] for m in self.terms)

    def leading_monomial(self) -> Mono:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def leading_coeff(self) -> int:
        return self.terms[self.leading_monomial()]

    def support_vars(self) -> frozenset[int]:
        """Indices of variables that actually occur."""
        out = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    out.add(i)
        return frozenset(out)

    # -- arithmetic ----------------------------------------------------

    def _pad(self, nvars: int) -> MultiPoly:
        if nvars == self.nvars:
            return self
        if nvars < self.nvars:
            raise ValueError("cannot shrink variable count")
        pad = (0,) * (nvars - self.nvars)
        return MultiPoly._raw(
            self.field, nvars, {m + pad: c for m, c in self.terms.items()}
        )

    def _reconcile(self, other) -> tuple[MultiPoly, MultiPoly]:
        if (
            type(other) is MultiPoly
            and other.field is self.field
            and other.nvars == self.nvars
        ):
            return self, other
        if isinstance(other, int):
            other = MultiPoly.const(self.field, self.nvars, other)
        elif not isinstance(other, MultiPoly):
            raise TypeError(f"cannot combine MultiPoly with {type(other).__name__}")
        if self.field != other.field:
            raise ContextMismatch(
                f"prime contexts differ: p={self.field.p} vs p={other.field.p}"
            )
        n = max(self.nvars, other.nvars)
        return self._pad(n), other._pad(n)

    def __add__(self, other):
        a, b = self._reconcile(other)
        p = a.field.p
        terms = dict(a.terms)
        for m, c in b.terms.items():
            s = (terms.get(m, 0) + c) % p
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return MultiPoly._raw(a.field, a.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return MultiPoly._raw(
            self.field, self.nvars, {m: p - c for m, c in self.terms.items()}
        )

    def __sub__(self, other):
        a, b = self._reconcile(other)
        return a + (-b)

    def __rsub__(self, other):
        a, b = self._reconcile(other)
        return b + (-a)

    def __mul__(self, other):
        a, b = self._reconcile(other)
        if a.is_constant:
            return b.mul_scalar(a.constant_value())
        if b.is_constant:
            return a.mul_scalar(b.constant_value())
        p = a.field.p
        # every digit of a product monomial is at most deg a + deg b
        w = (a.total_degree() + b.total_degree()).bit_length()
        pb = _pack(b.terms, w)
        terms: dict[int, int] = {}
        get = terms.get
        for q1, c1 in _pack(a.terms, w):
            for q2, c2 in pb:
                m = q1 + q2
                terms[m] = get(m, 0) + c1 * c2
        terms = {m: r for m, c in terms.items() if (r := c % p)}
        return MultiPoly._raw(a.field, a.nvars, _unpack(terms, a.nvars, w))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        p = self.field.p
        if len(self.terms) == 1:
            ((mono, c),) = self.terms.items()
            return MultiPoly._raw(
                self.field, self.nvars, {tuple(k * e for k in mono): pow(c, e, p)}
            )
        one = MultiPoly.const(self.field, self.nvars, 1)
        return digit_power(self, e, p, one, MultiPoly.frobenius_substitute)

    def mul_scalar(self, c: int) -> MultiPoly:
        p = self.field.p
        c %= p
        if not c:
            return MultiPoly.zero(self.field, self.nvars)
        if c == 1:
            return self
        return MultiPoly._raw(
            self.field, self.nvars, {m: (c * v) % p for m, v in self.terms.items()}
        )

    def monic(self) -> MultiPoly:
        """Scale so the graded-lex leading coefficient is 1."""
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        lc = self.leading_coeff()
        if lc == 1:
            return self
        return self.mul_scalar(self.field.inv(lc))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_constant and self.constant_value() == other % self.field.p
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.field != other.field:
            return False
        n = max(self.nvars, other.nvars)
        return self._pad(n).terms == other._pad(n).terms

    def __hash__(self):
        items = frozenset(
            (_strip_trailing_zeros(m), c) for m, c in self.terms.items()
        )
        return hash((self.field.p, items))

    def __bool__(self):
        return bool(self.terms)

    # -- characteristic-p structure -------------------------------------

    def frobenius_substitute(self) -> MultiPoly:
        """g(y1,...,yd) -> g(y1^p,...,yd^p), i.e. multiply every exponent by p.

        Over Z_p this equals g**p.
        """
        p = self.field.p
        return MultiPoly._raw(
            self.field,
            self.nvars,
            {tuple(e * p for e in m): c for m, c in self.terms.items()},
        )

    def pth_root(self) -> MultiPoly:
        """The unique u with u**p == self; requires every exponent divisible by p."""
        p = self.field.p
        terms = {}
        for m, c in self.terms.items():
            if any(e % p for e in m):
                raise NotAPthPower(
                    f"exponent vector {m} is not divisible by p={p}"
                )
            terms[tuple(e // p for e in m)] = c
        return MultiPoly._raw(self.field, self.nvars, terms)

    def all_exponents_divisible(self) -> bool:
        p = self.field.p
        return all(e % p == 0 for m in self.terms for e in m)

    def derivative(self, i: int) -> MultiPoly:
        """Formal partial derivative; exponents divisible by p kill their terms."""
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        p = self.field.p
        terms = {}
        for m, c in self.terms.items():
            e = m[i]
            nc = (c * e) % p
            if e and nc:
                nm = m[:i] + (e - 1,) + m[i + 1 :]
                terms[nm] = nc
        return MultiPoly._raw(self.field, self.nvars, terms)

    # -- evaluation ------------------------------------------------------

    def eval(self, point: Sequence, field=None):
        """Evaluate at a point with coordinates in one finite field F_{p^m}.

        Coordinates are ints or FqElem/PFElem of that field; `eval_at_point`
        resolves the point once and runs the terms on the field's encodings,
        and only the value becomes an element.
        """
        _, elem, (value,) = eval_at_point((self,), point, field)
        return elem(value)

    # -- division --------------------------------------------------------

    def divexact(self, other: MultiPoly) -> MultiPoly:
        """Exact quotient self/other; raises NotDivisible when it isn't."""
        a, b = self._reconcile(other)
        if b.is_zero:
            raise DivisionByZero("division by the zero polynomial")
        if a.is_zero:
            return MultiPoly.zero(a.field, a.nvars)
        if b.is_constant:
            return a.mul_scalar(a.field.inv(b.constant_value()))
        p, n = a.field.p, a.nvars
        # Remainder monomials never pass deg a and divisor monomials never
        # pass deg b, so digits below 2^(w-1) leave the top bit of every
        # field free as a guard: (m | guard) - lm_b borrows across no field,
        # and a field keeps its guard bit exactly when it did not go negative.
        w = max(a.total_degree(), b.total_degree()).bit_length() + 1
        guard = 0
        for _ in range(n + 1):
            guard = (guard << w) | (1 << (w - 1))
        pb = _pack(b.terms, w)
        lm_b, lc_b = max(pb)
        inv_lcb = a.field.inv(lc_b)
        # heap keys are negated packed monomials, so heapq's minimum is the
        # graded-lex leader; negation keeps monomial products additive
        tail = [(-m, c) for m, c in pb if m != lm_b]
        rem = {-m: c for m, c in _pack(a.terms, w)}
        heap = list(rem)
        heapq.heapify(heap)
        push, pop = heapq.heappush, heapq.heappop
        get = rem.get
        quot: dict[int, int] = {}
        while heap:
            key = pop(heap)
            c = rem.pop(key, 0)
            if not c:
                continue  # cancelled since it was pushed, or a duplicate entry
            d = (-key | guard) - lm_b
            if d & guard != guard:
                raise NotDivisible("leading monomial not divisible")
            qc = (c * inv_lcb) % p
            quot[d ^ guard] = qc
            # every product below is under the leader just removed
            shift = key + lm_b
            for mb, cb in tail:
                mm = shift + mb
                old = get(mm)
                if old is None:
                    rem[mm] = (-qc * cb) % p
                    push(heap, mm)
                else:
                    s = (old - qc * cb) % p
                    if s:
                        rem[mm] = s
                    else:
                        del rem[mm]
        return MultiPoly._raw(a.field, n, _unpack(quot, n, w))

    def divides(self, other: MultiPoly) -> bool:
        try:
            other.divexact(self)
            return True
        except (NotDivisible, DivisionByZero):
            return False

    # -- printing ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Mono, int]]:
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def format(self, names: Sequence[str] | None = None) -> str:
        if self.is_zero:
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.nvars)]
        chunks = []
        for mono, coeff in self.sorted_terms():
            factors = []
            if coeff != 1 or not any(mono):
                factors.append(str(coeff))
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            chunks.append("*".join(factors))
        return " + ".join(chunks)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"MultiPoly(p={self.field.p}, {self})"


def digit_power(x: T, e: int, p: int, one: T, frob: Callable[[T], T]) -> T:
    """x**e for e >= 0, where frob(y) = y**p: the product of frob^i(x)**e_i
    over the base-p digits e_i of e, each by binary powering below x**p.
    A Frobenius image only moves exponents, so no intermediate outgrows
    the result. `one` is x**0."""
    result = None
    while e:
        e, digit = divmod(e, p)
        if digit:
            power = x
            for bit in bin(digit)[3:]:
                power = power * power
                if bit == "1":
                    power = power * x
            result = power if result is None else result * power
        if e:
            x = frob(x)
    return one if result is None else result


def eval_at_point(polys: Sequence[MultiPoly], point: Sequence, field=None):
    """The values of polys, all over one Z_p, at one point of F_{p^m}.

    The point is resolved and checked once (`resolve_point_field`), then
    its coordinate count; each coordinate becomes its int encoding once,
    an int c the residue c mod p. Every polynomial is one loop over its
    terms on the point field's arithmetic object (`FqField.arith()`, or
    `point_field(p, 1)` for Z_p), its `mul`, `pow` and `add` on encodings,
    with no element built between steps. Returns that object, the map
    from an encoding to an element of the point field, and the encodings
    of the values in the order of polys.
    """
    p = polys[0].field.p
    field = resolve_point_field(point, field, p)
    nvars = max(f.nvars for f in polys)
    if len(point) < nvars:
        raise ValueError(f"need {nvars} coordinates, got {len(point)}")
    if isinstance(field, PrimeField):
        A, elem = point_field(p, 1), field.elem
    else:
        A, elem = field.arith(), partial(FqElem, field)
    xs = [c % p if isinstance(c, int) else c.encode() for c in point]
    mul, pow_, add = A.mul, A.pow, A.add
    values = []
    for f in polys:
        acc = 0
        for mono, c in f.terms.items():
            for x, e in zip(xs, mono):
                if e:
                    c = mul(c, pow_(x, e))
            acc = add(acc, c)
        values.append(acc)
    return A, elem, values


def resolve_point_field(point: Sequence, field, p: int):
    """The field of an evaluation point's coordinates over Z_p.

    `field` defaults to the first non-int coordinate's, since ints are
    residues of any field. A field of characteristic other than p, or a
    coordinate of another field, raises ContextMismatch, and one that is
    neither an int nor a field element, TypeError.
    """
    if field is None:
        if not point:
            raise ValueError("field required to evaluate with an empty point")
        first = point[0]
        if isinstance(first, int):
            first = next((c for c in point if not isinstance(c, int)), first)
            if isinstance(first, int):
                raise ValueError("field required to evaluate at a point of ints")
        field = _field_of(first)
    if field.p != p:
        raise ContextMismatch(f"point field has p={field.p}, not p={p}")
    # `is` first: a coordinate of the resolved field itself skips FqField.__eq__
    for c in point:
        if not (isinstance(c, int) or _field_of(c) is field or c.field == field):
            raise ContextMismatch(f"point coordinate lies in {c.field!r}, not in {field!r}")
    return field


def _field_of(c):
    """The field of a point coordinate that is not an int."""
    if not hasattr(c, "field"):
        raise TypeError(f"a point coordinate is an int or a field element, not {type(c).__name__}")
    return c.field


def check_power_terms(polys: Iterable[MultiPoly], e: int, p: int) -> None:
    """Raise BoundExceeded if f**e could pass MAX_POWER_TERMS terms for an f in polys."""
    if any(_power_terms(f, e, p) > MAX_POWER_TERMS for f in polys):
        raise BoundExceeded(f"the power could produce more than {MAX_POWER_TERMS} terms")


def _power_terms(f: MultiPoly, e: int, p: int) -> int:
    """An upper bound on the number of terms of f**e over Z_p.

    With e = sum e_i p^i in base p, f**e is the product of the
    Frobenius images of f**e_i, and a Frobenius image keeps the term
    count. f**e_i has total degree e_i * deg f in the v variables f uses,
    and is a sum of products of e_i of f's t terms, so it has at most
    min(C(e_i deg f + v, v), C(e_i + t - 1, t - 1)) terms. The product of
    these bounds f**e; the loop stops once it passes MAX_POWER_TERMS.
    """
    t = len(f.terms)
    if t < 2:
        return t
    deg = f.total_degree()
    v = len(f.support_vars())
    bound = 1
    while e and bound <= MAX_POWER_TERMS:
        e, digit = divmod(e, p)
        if digit:
            bound *= min(comb(digit * deg + v, v), comb(digit + t - 1, t - 1))
    return bound


def _pack(terms: Mapping[Mono, int], w: int) -> list[tuple[int, int]]:
    """Terms as (packed monomial, coefficient) pairs.

    A packed monomial is one int whose base-2^w digits, most significant
    first, are (total degree, e_0, ..., e_{n-1}). When every digit is below
    2^w, integer order is graded-lex order and adding two packed monomials
    multiplies them.
    """
    out = []
    for m, c in terms.items():
        x = sum(m)
        for e in m:
            x = (x << w) | e
        out.append((x, c))
    return out


def _unpack(terms: dict[int, int], n: int, w: int) -> dict[Mono, int]:
    """Inverse of `_pack` for n variables; keeps the dict's order."""
    mask = (1 << w) - 1
    packed = list(terms)
    cols = [[(q >> s) & mask for q in packed] for s in range(w * (n - 1), -1, -w)]
    return dict(zip(zip(*cols), terms.values()))


def _strip_trailing_zeros(mono: Mono) -> Mono:
    n = len(mono)
    while n and mono[n - 1] == 0:
        n -= 1
    return mono[:n]


# -- gcd ------------------------------------------------------------------


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Monic greatest common divisor under graded-lex.

    Past the monomial and equal-input rules, the gcd is Brown's modular
    gcd (`modgcd.gcd_candidates`) over the variables either input uses:
    images at points of Z_p, or of the smallest F_{p^k} with enough
    points, interpolated by Newton. Its candidates are certified by
    exact division, once per call of `gcd_cofactors`.
    """
    return gcd_cofactors(a, b)[0]


def gcd_cofactors(
    a: MultiPoly, b: MultiPoly
) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(g, a/g, b/g) with g = poly_gcd(a, b).

    Each rule of `_gcd_nonzero` returns the cofactors with g: the shifts
    of the monomial rules, the leading coefficient for equal inputs, and
    the quotients of the exact division that certifies Brown's
    candidate, so they cost nothing beyond the gcd itself.
    """
    a, b = a._reconcile(b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero:
        g = b.monic()
        return g, a, MultiPoly.const(b.field, b.nvars, b.leading_coeff())
    if b.is_zero:
        g = a.monic()
        return g, MultiPoly.const(a.field, a.nvars, a.leading_coeff()), b
    return _gcd_nonzero(a, b)


def _gcd_nonzero(
    a: MultiPoly, b: MultiPoly
) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(g, a/g, b/g) for the monic gcd g of two nonzero polynomials.

    Three exact rules come first. When either input is a monomial (a
    constant is the monomial with all exponents 0), the gcd is the
    monomial of the least exponents over every term of both. Equal
    inputs are their own gcd, made monic. Monomial contents come out
    next. What is left goes to Brown's algorithm over the variables
    either input uses, whose candidates can be wrong: the first that
    divides both inputs is the gcd (Las Vegas), and the quotients are
    the cofactors.
    """
    field, nvars = a.field, a.nvars
    if len(a.terms) == 1 or len(b.terms) == 1:
        low = tuple(map(min, *a.terms, *b.terms))
        return MultiPoly._raw(field, nvars, {low: 1}), _shift(a, low), _shift(b, low)
    if a.terms == b.terms:
        # equal denominators of a sum; each cofactor is the leading
        # coefficient
        lc = MultiPoly.const(field, nvars, a.leading_coeff())
        return a.monic(), lc, lc
    low_a, low_b = tuple(map(min, *a.terms)), tuple(map(min, *b.terms))
    if any(low_a) or any(low_b):
        # gcd(x^u a', x^w b') = x^min(u, w) gcd(a', b') when no variable
        # divides a' or b', and a/g = x^(u - min(u, w)) a'/g', b/g likewise
        low = tuple(map(min, low_a, low_b))
        g, ag, bg = _gcd_nonzero(_shift(a, low_a), _shift(b, low_b))
        return (
            _shift(g, [-i for i in low]),
            _shift(ag, [i - j for i, j in zip(low, low_a)]),
            _shift(bg, [i - j for i, j in zip(low, low_b)]),
        )
    for terms in modgcd.gcd_candidates(a.terms, b.terms, field.p):
        g = MultiPoly._raw(field, nvars, terms).monic()
        try:
            return g, a.divexact(g), b.divexact(g)
        except NotDivisible:
            continue
    raise RuntimeError("internal error: no gcd candidate divides both inputs")


def _shift(f: MultiPoly, e: Sequence[int]) -> MultiPoly:
    """f / x^e for a monomial x^e dividing f; x^-e f when e <= 0."""
    if not any(e):
        return f
    terms = {tuple(i - j for i, j in zip(m, e)): c for m, c in f.terms.items()}
    return MultiPoly._raw(f.field, f.nvars, terms)
