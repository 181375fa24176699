"""Finite extension fields F_{p^n} with exhaustive perfectness checks.

This is the everything-enumerable end of the library: fields small
enough that "Frobenius is a bijection" can be verified element by
element rather than proved. Construction is deterministic — the modulus
is the first monic irreducible of degree n in coefficient enumeration
order (constant term fastest-varying), confirmed by Rabin's criterion —
so a given (p, n) always denotes the same concrete field. An element is
its field and its encoding: the int whose base-p digits are the
coefficients of its residue, constant first (`_decode`, `_encode`).

Each field is built on its `ring()`, an `_FqPoly`: Z_p[t] mod f on
packed digits, where a product is one big-int product and a Barrett
reduction. Rabin's test runs there (make_field keeps the ring it
accepted, flagged irreducible), and so do the primitive element, the
powers behind the tables and the rows of every F_p-linear map.
`+ - * / ** inv` and Brown's points (`point_field`) go through one
object per field, picked on first use: log, antilog and Zech tables
(`_FqTables`) up to MAX_POINT_FIELD elements on a modulus that Rabin's
test accepts, the ring otherwise. Past the tables an inverse on a
modulus that Rabin's test accepted is Itoh and Tsujii's:
a^(-1) = a^(r-1) (a^r)^(-1) for r = (q - 1)/(p - 1), where the norm a^r
lies in F_p and a^(r-1) comes from an addition chain of Frobenius
powers and products; on any other modulus it is zpoly's Euclid, and a
reducible modulus's zero divisors raise DivisionByZero.

The Frobenius x -> x^p is F_p-linear, and so are its powers and every
embedding. Such a map is its packed rows, the images of the t^i, and
the ring applies it through chunk tables built from them (`tables`,
`image`): the packed images of every chunk of digits that its packing
table splits an encoding into. The ring holds each power x -> x^(p^k)
once, as rows (`rows`) that the sweeps and `power_map` read, Berlekamp's
Q (t^(ip) mod f) at k = 1, and the field holds no copy; `frobenius`,
`inv_frobenius` and the inverse use their chunk tables, an embedding
those of the powers of its root, each built on first use.
`check_perfect` maps every element of any field make_field accepts
through Q, one digit at a time (by XOR at p = 2, where an encoding is
the coordinate bit vector), and checks x^(p^k) = x on each; the
embedding root search looks only in the subfield ker(Q^m - I) where
every root lies, found by Gauss-Jordan on rows packed on the ring,
whose basis products, also packed, give its multiplication tensor.
None of these builds log tables, and the tests check them against
powering element by element.

numpy is imported inside the two sweeps, `check_perfect` and
`find_embedding_root`, and nowhere else, so importing the library or
the CLI does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, repeat
from math import lcm
from typing import Iterable

from . import zpoly
from .errors import BoundExceeded, DivisionByZero, NoEmbedding
from .primefield import is_prime

MAX_DEGREE = 16
MAX_ORDER = 2**20
# elements of the largest F_{p^k} whose arithmetic runs on tables, for
# FqElem and for Brown's points alike; building them takes 2 to 3 us
# per element on a 2-core Xeon host (20 ms for F_{101^2}, 44 ms for
# F_{2^14}). Past it `_FqPoly` multiplies packed digits in 1-1.3 us, and
# larger point fields serve degrees in the thousands, in practice lifted
# elements with sparse rows, which it evaluates in fewer products
MAX_POINT_FIELD = 1 << 14

# entries of the multiplication matrices of one block of the embedding
# root search (elements times m^2), which bounds its memory when the
# subfield searched is large (m = n)
_BLOCK = 1 << 15


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(R: _FqPoly) -> bool:
    """Rabin's criterion for the modulus f of the ring R, of degree n:
    t^(p^n) = t, and gcd(t^(p^(n/r)) - t, f) = 1 for every prime r
    dividing n, which R's inverse tells by raising unless it holds."""
    p, n = R.p, len(R.modulus) - 1
    if n == 1:
        return True
    t = p  # the encoding of t
    if R.pow(t, R.q) != t:
        return False
    for r in _prime_factors(n):
        h = R.sub(R.pow(t, p ** (n // r)), t)
        # f divides h = 0, so their gcd is f
        if not h:
            return False
        try:
            R.inv(h)
        except DivisionByZero:
            return False
    return True


def _first_primitive(R: _FqPoly) -> int:
    """The encoding of the first element of multiplicative order q - 1
    in the ring R of q elements: g^((q - 1)/r) != 1 for every prime r
    dividing q - 1."""
    q = R.q
    cofactors = [(q - 1) // r for r in _prime_factors(q - 1)]
    for g in range(1, q):
        if all(R.pow(g, m) != 1 for m in cofactors):
            return g
    raise RuntimeError(f"no primitive element modulo {_poly_str(R.modulus)} over Z_{R.p}")


def _decode(k: int, p: int) -> list[int]:
    """The base-p digits of k >= 0, least significant first, without
    trailing zeros: the coefficients of the residue that k encodes."""
    out = []
    while k:
        k, r = divmod(k, p)
        out.append(r)
    return out


def _digits(k: int, p: int, n: int) -> tuple[int, ...]:
    """The n base-p digits of k < p^n, least significant first."""
    cs = _decode(k, p)
    return tuple(cs) + (0,) * (n - len(cs))


def _encode(coeffs, p: int) -> int:
    """The int whose base-p digits, least significant first, are coeffs."""
    k = 0
    for c in reversed(coeffs):
        k = k * p + c
    return k


# -- field and elements ---------------------------------------------------------


class FqField:
    """The finite field with p^n elements, as Z_p[t] mod a fixed modulus."""

    __slots__ = ("p", "n", "modulus", "order", "_hash", "_ring", "_arith")

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        if len(modulus) != n + 1 or not modulus[-1] % p:
            raise ValueError(
                f"modulus {modulus} of F_{p}^{n} needs {n + 1} coefficients and a "
                f"leading one nonzero mod {p}"
            )
        self.p, self.n, self.modulus, self.order = p, n, modulus, p**n
        # the key of embed's cache, so hashed on every embedding
        self._hash = hash((p, n, modulus))
        # the ring, which holds the rows of Q, and the arithmetic of the
        # encodings, each built on first use
        self._ring = self._arith = None

    def ring(self) -> _FqPoly:
        """Z_p[t] modulo the field's modulus on packed digits: every step
        of the field's construction runs on it, and past the tables so
        does FqElem's arithmetic."""
        if self._ring is None:
            self._ring = _FqPoly(self.p, self.modulus)
        return self._ring

    def arith(self) -> _FqTables | _FqPoly:
        """The object that adds, multiplies, powers and inverts encodings:
        tables up to MAX_POINT_FIELD elements on an irreducible modulus,
        the ring otherwise. Picked on the first call, so a field that
        only maps through Q never builds tables. make_field's ring comes
        flagged irreducible by the Rabin test that picked its modulus;
        any other ring gets its flag from one Rabin test here."""
        if self._arith is None:
            R = self.ring()
            if not R.irreducible:
                R.irreducible = _is_irreducible(R)
            small = self.order <= MAX_POINT_FIELD
            self._arith = _FqTables(R) if small and R.irreducible else R
        return self._arith

    def power_map(self, e: int) -> tuple[tuple[int, ...], ...]:
        """Rows of the matrix of a -> a^e for e = p^k, k >= 0, read off the
        ring's rows (any other e raises ValueError): row i is t^(ie) mod f,
        so coefficients times the matrix are the image; Q at e = p."""
        p = self.p
        k = len(_decode(e, p)) - 1 if isinstance(e, int) and e > 0 else 0
        if p**k != e:
            raise ValueError(f"power_map takes e = {p}^k for some k >= 0, got {e!r}")
        R = self.ring()
        return tuple(_digits(R._unpack(r), p, self.n) for r in R.rows(k))

    def frobenius_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Berlekamp's Q: row i is t^(ip) mod f."""
        return self.power_map(self.p)

    def primitive_element(self) -> FqElem:
        """The first element of multiplicative order p^n - 1 in encoding
        order, the generator of the field's tables."""
        return FqElem(self, _first_primitive(self.ring()))

    def elem(self, coeffs) -> FqElem:
        """The residue of a coefficient sequence, constant first."""
        p = self.p
        cs = [c % p for c in coeffs]
        if len(cs) > self.n:
            # the polynomial cs at t, in the ring
            return FqElem(self, self.ring().value(cs, self.gen().enc))
        return FqElem(self, _encode(cs, p))

    def zero(self) -> FqElem:
        return FqElem(self, 0)

    def one(self) -> FqElem:
        return FqElem(self, 1)

    def const(self, c: int) -> FqElem:
        return FqElem(self, c % self.p)

    def gen(self) -> FqElem:
        """The residue of t: the encoding p, or the constant -f_0/f_1
        when the modulus f has degree 1."""
        p, f = self.p, self.modulus
        return FqElem(self, p if self.n > 1 else -f[0] * pow(f[1], -1, p) % p)

    def from_encoding(self, k: int) -> FqElem:
        if not isinstance(k, int):
            raise ValueError(f"an encoding must be an integer, got {k!r}")
        if not 0 <= k < self.order:
            raise ValueError(f"encoding {k} out of range for a field of order {self.order}")
        return FqElem(self, k)

    def elements(self):
        """All field elements in encoding order."""
        for k in range(self.order):
            yield FqElem(self, k)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FqField):
            return NotImplemented
        # two moduli of one degree give isomorphic fields, but residues
        # of one are not residues of the other
        return (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FqField(p={self.p}, n={self.n}, modulus={self.modulus_str()})"

    def modulus_str(self) -> str:
        return _poly_str(self.modulus)


def _power_rows(R: _FqPoly, x: int, k: int) -> tuple[int, ...]:
    """The packed powers x^i for i < k in the ring R: the rows of the
    F_p-linear map that sends t to the element encoded x."""
    rows, cur, x = [], 1, R._pack(x)
    for _ in range(k):
        rows.append(cur)
        cur = R._norm(R._mul(cur, x))
    return tuple(rows)


def _poly_str(coeffs) -> str:
    chunks = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        if e == 0:
            chunks.append(str(c))
        else:
            var = "t" if e == 1 else f"t^{e}"
            chunks.append(var if c == 1 else f"{c}*{var}")
    return " + ".join(chunks) if chunks else "0"


class FqElem:
    """An element of F_{p^n}: its field and its encoding, the int whose
    base-p digits are the coefficients of its residue, constant first.

    `+ - * / ** inv` run on encodings through the field's `arith()`
    object, and `frobenius` and `inv_frobenius` are the ring's `image`
    of the encoding under the chunk tables of x -> x^p or x -> x^(p^(n-1));
    on F_p both are the identity.
    `coeffs` is the residue as an n-tuple, derived from the encoding."""

    __slots__ = ("field", "enc")

    def __init__(self, field: FqField, enc: int):
        self.field = field
        self.enc = enc

    @property
    def coeffs(self) -> tuple[int, ...]:
        return _digits(self.enc, self.field.p, self.field.n)

    def _operand(self, other) -> int:
        """The encoding of an operand: an int is a residue of Z_p."""
        if isinstance(other, int):
            return other % self.field.p
        if not isinstance(other, FqElem) or (
            other.field is not self.field and other.field != self.field
        ):
            raise TypeError("operands belong to different fields")
        return other.enc

    def __add__(self, other):
        F = self.field
        return FqElem(F, F.arith().add(self.enc, self._operand(other)))

    __radd__ = __add__

    def __neg__(self):
        F = self.field
        return FqElem(F, F.arith().neg(self.enc))

    def __sub__(self, other):
        F = self.field
        return FqElem(F, F.arith().sub(self.enc, self._operand(other)))

    def __rsub__(self, other):
        F = self.field
        return FqElem(F, F.arith().sub(self._operand(other), self.enc))

    def __mul__(self, other):
        F = self.field
        return FqElem(F, F.arith().mul(self.enc, self._operand(other)))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        F = self.field
        return FqElem(F, F.arith().pow(self.enc, e))

    def inv(self) -> FqElem:
        if not self.enc:
            raise DivisionByZero("inverse of zero in a finite field")
        F = self.field
        return FqElem(F, F.arith().inv(self.enc))

    def __truediv__(self, other):
        return self * FqElem(self.field, self._operand(other)).inv()

    def __rtruediv__(self, other):
        return FqElem(self.field, self._operand(other)) * self.inv()

    def frobenius(self) -> FqElem:
        """a^p, as the coefficient vector times the ring's one copy of Q."""
        F = self.field
        # a^p = a on F_p, where the one chunk table would hold p entries
        if F.n == 1:
            return self
        R = F.ring()
        return FqElem(F, R.image(self.enc, R.frobenius(1)))

    def inv_frobenius(self) -> FqElem:
        """The unique p-th root a^(p^(n-1)), since a^(p^n) = a, as the
        coefficient vector times the inverse of Q."""
        F = self.field
        if F.n == 1:
            return self
        R = F.ring()
        return FqElem(F, R.image(self.enc, R.frobenius(F.n - 1)))

    def encode(self) -> int:
        return self.enc

    def __eq__(self, other):
        if isinstance(other, int):
            return self.enc == other % self.field.p
        if not isinstance(other, FqElem):
            return NotImplemented
        return self.enc == other.enc and self.field == other.field

    def __hash__(self):
        return hash((self.field.p, self.field.n, self.enc))

    def __bool__(self):
        return bool(self.enc)

    def __str__(self):
        return _poly_str(_decode(self.enc, self.field.p))

    def __repr__(self):
        return f"FqElem(F_{self.field.p}^{self.field.n}, {self})"


# -- construction -----------------------------------------------------------------


@lru_cache(maxsize=None)
def make_field(p: int, n: int) -> FqField:
    """F_{p^n} with the canonical modulus; bounds n <= 16 and p^n <= 2^20.

    The bounds are checked before the trial-division primality test, which
    is slow for a large p.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"extension degree must be a positive integer, got {n!r}")
    if p < 2:
        raise ValueError(f"{p} is not prime")
    if n > MAX_DEGREE or p**n > MAX_ORDER:
        raise BoundExceeded(
            f"field F_{p}^{n} exceeds the supported bounds (n <= {MAX_DEGREE}, "
            f"p^n <= {MAX_ORDER})"
        )
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    R = _canonical_ring(p, n)
    field = FqField(p, n, R.modulus)
    field._ring = R  # the ring that Rabin's test ran on
    return field


def canonical_modulus(p: int, n: int) -> tuple[int, ...]:
    """The modulus of F_{p^n} for a prime p: the first monic irreducible
    of degree n over Z_p in coefficient enumeration order, constant term
    fastest-varying: the encodings from p^n up. make_field and the point
    fields past its bounds take the ring of the same search."""
    return _canonical_ring(p, n).modulus


def _canonical_ring(p: int, n: int) -> _FqPoly:
    """The ring on the canonical modulus: one ring takes each candidate
    as its modulus in turn, until Rabin's test accepts one, and is
    flagged irreducible, so its inverses run by Itoh and Tsujii."""
    R = _FqPoly(p, _decode(p**n, p))
    for k in range(p**n, 2 * p**n):
        R._set_modulus(_decode(k, p))
        if _is_irreducible(R):
            R.irreducible = True
            return R
    raise RuntimeError(f"no irreducible polynomial of degree {n} over Z_{p}")


# -- tables -----------------------------------------------------------------------


class _FqTables:
    """The arithmetic of the encodings of F_q, q = p^n <= MAX_POINT_FIELD,
    modulo an irreducible f, on log, antilog and Zech tables laid out so
    that no product or sum tests for zero: FqElem's arithmetic, and on
    the canonical modulus Brown's point field F_q as well.

    With L = q - 1 and g the first primitive element in encoding order,
    `log[a]` is the exponent of g for a != 0 and 3L for 0, and `exp[i]`
    is g^(i mod L) below 2L and 0 from 2L to 6L; so a*b = exp[log a +
    log b], a^-1 = exp[L - log a] and a^e = exp[log a * e mod L].
    Addition goes through Zech logarithms: a + w = g^la (1 + g^(lw - la))
    = exp[la + zech[lw - la + 3L]], where lw is log w, possibly unreduced
    up to 2L - 2, or in [3L, 4L) for w = 0; the table's three ranges cover
    a = 0, both nonzero (log(1 + g^d), or 2L where 1 + g^d = 0) and w = 0.
    `nlog[a]` is log(-a). The powers of g come from the products of the
    field's ring R on its own modulus, never from FqElem arithmetic, so
    any irreducible modulus gets its own tables; they take about 15q list
    entries (3.7 MiB at F_{5^6}).
    """

    __slots__ = ("p", "q", "log", "nlog", "exp", "zech", "points")

    def __init__(self, R: _FqPoly):
        p, q = R.p, R.q
        L = q - 1
        g = _first_primitive(R)
        # the powers stay packed between steps: a product, a reduction of
        # the slots and a read-back of the encoding each
        mul, norm, read, shift, mask = R._mul, R._norm, R.read, R.shift, R.mask
        powers, x, gx = [1], 1, R._pack(g)
        for _ in range(L - 1):
            x = norm(mul(x, gx))
            powers.append(x * read >> shift & mask)
        exp = powers * 2 + [0] * (4 * L + 1)
        log = [3 * L] * q
        for i, a in enumerate(powers):
            log[a] = i
        # -g^i = g^(i + L/2) (g^0 for p = 2); nlog and the Zech column
        # read their values out of log, so the three share its ints
        half = L // 2 if p > 2 else 0
        nlog = log[:]
        zcol = []
        for i, a in enumerate(powers):
            nlog[a] = log[exp[i + half]]
            # 1 + a changes a's constant digit only
            a1 = a - a % p + (a + 1) % p
            zcol.append(log[a1] if a1 else 2 * L)
        # the docstring's three ranges, in place: a = 0, both nonzero, w = 0
        zech = [0] * (7 * L)
        zech[: 2 * L - 1] = range(-3 * L, -L - 1)
        zech[2 * L + 1 : 3 * L] = zcol[1:]
        zech[3 * L : 4 * L] = zcol
        zech[4 * L : 5 * L - 1] = zcol[:-1]
        self.p, self.q = p, q
        self.log, self.nlog, self.exp, self.zech = log, nlog, exp, zech
        # g, g^2, ... first: g^i lies in a proper subfield only for i a
        # multiple of (q - 1)/(p^j - 1), and at points of F_p (or of any
        # subfield) x^p and x, or x^(p^j) and x, agree, which makes them
        # unlucky for the lifted inputs of the perfect closure
        self.points = powers[1:] + [1, 0]

    def add(self, a: int, b: int) -> int:
        log = self.log
        la = log[a]
        return self.exp[la + self.zech[log[b] - la + 3 * (self.q - 1)]]

    def neg(self, a: int) -> int:
        return self.exp[self.nlog[a]]

    def sub(self, a: int, b: int) -> int:
        la = self.log[a]
        return self.exp[la + self.zech[self.nlog[b] - la + 3 * (self.q - 1)]]

    def mul(self, a: int, b: int) -> int:
        log = self.log
        return self.exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        """The inverse of a nonzero a."""
        return self.exp[self.q - 1 - self.log[a]]

    def pow(self, a: int, e: int) -> int:
        """a^e for e >= 0, with 0^0 = 1."""
        if not a:
            return 0 if e else 1
        return self.exp[self.log[a] * e % (self.q - 1)]

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


# -- point fields -------------------------------------------------------------------


def point_field(p: int, k: int):
    """F_{p^k} as a point field for Brown's modular gcd: an object whose
    elements are ints in the base-p encoding (digit i is the coefficient
    of t^i modulo the canonical modulus), so F_p is the encodings below
    p, with `add`, `mul`, `pow`, `neg`, `sub`, `inv` on elements, `scale`,
    `axpy` and `value` on lists of them, and `points`, every element once,
    in the order the gcd tries them.

    Z_p for k = 1, which multipoly's evaluation at Z_p points runs on
    too; within make_field's bounds, the field's own `arith()`, which its
    FqElems use too, so it is built once per field and goes when
    make_field's cache is cleared; past them, `_FqPoly` on the canonical
    modulus."""
    if k == 1:
        return _Zp(p)
    if k <= MAX_DEGREE and p**k <= MAX_ORDER:
        return make_field(p, k).arith()
    return _canonical_ring(p, k)


class _Zp:
    """Z_p as a point field: residues and modular arithmetic."""

    __slots__ = ("p", "q", "points")

    def __init__(self, p: int):
        self.p = self.q = p
        self.points = range(p)

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self.p)

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


class _FqPoly:
    """Z_p[t] modulo f of degree n without tables, on Kronecker-packed
    ints: digit i of an encoding sits in bits [i*w, (i+1)*w) of one int,
    so a product of residues is one big-int product, reduced modulo f by
    Barrett's method: with U = A*B, q = ((U >> nw) * mu) >> nw and the
    remainder is (U + q*g) masked to n slots, where mu = t^(2n) div f and
    g holds the low coefficients of -f, both over Z_p for f reduced mod p
    and made monic. Barrett is exact for deg U < 2n, and every step is
    Z-linear, so one reduction of each slot mod p, in parallel by a
    multiply-high (`_norm`), gives the Z_p residue; w is picked from the
    worst case, so no slot ever carries into the next. An encoding is
    packed c digits at a time through `chunk`, the packed digits of each
    d < p^c, for the largest c <= n with p^c <= 256 (c = 1 past p = 16),
    and read back by one product whose middle slot is the sum of
    digit * p^i.

    An F_p-linear map (a Frobenius power, an embedding) is its packed
    rows, the images of the t^i; `tables` turns them into one table per
    chunk of c rows, the packed images of all p^c chunk values, and
    `image` applies the map in one lookup and one addition per chunk and
    one reduction. The ring holds the one copy of each Frobenius power
    x -> x^(p^k) it has used: its rows (`rows`), then tables (`frobenius`).

    A ring whose modulus Rabin's test accepted is flagged `irreducible`
    (by make_field's search, or by FqField.arith), and inverts by Itoh
    and Tsujii: with b_k = a^(1 + p + ... + p^(k-1)), b_2k = b_k^(p^k) b_k
    and b_(k+1) = b_k^p a walk an addition chain to b_(n-1), whose p-th
    power is a^(r-1) for r = (q - 1)/(p - 1); the norm a^r = a^(r-1) a is
    a constant, so a^(-1) = a^(r-1) / a^r, all packed. On any other ring
    an inverse is zpoly's extended Euclid on the decoded digits, the
    module's one Euclid, which also gives Rabin's test its gcds, run
    before the flag is set; a zero divisor raises DivisionByZero.

    It is each field's `ring()`, on which the field is built; FqElem's
    arithmetic past MAX_POINT_FIELD elements or on a reducible modulus,
    whose zero divisors raise DivisionByZero; and so Brown's point field
    F_q past MAX_POINT_FIELD.

    A point field this large serves degrees in the hundreds and more,
    which in practice are those of lifted elements (x^(p^2) at p = 101)
    with long, sparse rows; so `value` jumps over runs of zero
    coefficients by powering, Horner's rule with gaps. The points are the
    encodings from p up, then F_p: at points of F_p, x^p and x agree.
    """

    __slots__ = (
        "p", "n", "q", "modulus", "chunk", "base", "width", "w", "nw", "low", "mu", "g",
        "top", "m", "k", "qmask", "read", "shift", "mask", "irreducible", "maps", "frob",
    )

    def __init__(self, p: int, f):
        n = self.n = len(f) - 1
        self.p, self.q = p, p**n
        # slot bounds for digits below p: U, then q, then the remainder,
        # which `top`, a multiple of p, passes; below `s` is every slot
        b1 = n * (p - 1) ** 2
        b2 = (n - 1) * b1 * (p - 1)
        top = -(-(b1 + n * b2 * (p - 1)) // p) * p
        s = top + p
        # floor(x * m / 2^k) = floor(x / p) for x < s, since s * p < 2^k
        k = (s * p).bit_length()
        m = -(-(1 << k) // p)
        w = self.w = max((s * m).bit_length(), (p**n).bit_length())

        def packed(cs):
            return sum(c << i * w for i, c in enumerate(cs))

        self.nw, self.low = n * w, (1 << n * w) - 1
        self.top = packed([top] * n)
        self.m, self.k, self.qmask = m, k, packed([(1 << w - k) - 1] * n)
        # slot n - 1 of x * read is the sum of x's slots times p^i
        self.read = packed([p**j for j in range(n)][::-1])
        self.shift, self.mask = (n - 1) * w, (1 << w) - 1
        # chunk[d] packs the c digits of d < p^c, built digit by digit
        c, chunk = 1, range(p)
        while c < n and p ** (c + 1) <= 256:
            chunk = [t + (d << c * w) for d in range(p) for t in chunk]
            c += 1
        self.chunk, self.base, self.width = chunk, p**c, c * w
        self._set_modulus(f)

    def _set_modulus(self, f) -> None:
        """Make f, of the ring's degree, its modulus: mu and g change, and
        the irreducible flag and the Frobenius rows and tables, which
        belong to the old modulus, go."""
        p, n, w = self.p, self.n, self.w
        # the associate of f that is reduced mod p and monic: the same
        # ideal, and the shape that Barrett and zpoly's Euclid need
        lc = pow(f[-1], -1, p)
        f = self.modulus = tuple(c * lc % p for c in f)
        # mu = t^(2n) div f by long division
        r, mu = [0] * (2 * n) + [1], [0] * (n + 1)
        for i in range(n, -1, -1):
            c = mu[i] = r[i + n]
            for j, fj in enumerate(f):
                r[i + j] = (r[i + j] - c * fj) % p
        self.mu = sum(c << i * w for i, c in enumerate(mu))
        self.g = sum(-c % p << i * w for i, c in enumerate(f[:n]))
        self.irreducible, self.maps, self.frob = False, {}, {}

    @property
    def points(self) -> Iterable[int]:
        return chain(range(self.p, self.q), range(self.p))

    def _pack(self, a: int) -> int:
        """The encoding a with its digits in slots."""
        chunk, base, width = self.chunk, self.base, self.width
        x = s = 0
        while a:
            a, d = divmod(a, base)
            x |= chunk[d] << s
            s += width
        return x

    def _mul(self, x: int, y: int) -> int:
        """x*y mod f on packed residues with digits below p; its slots
        stay below `top`, unreduced."""
        u = x * y
        nw = self.nw
        return (u + ((u >> nw) * self.mu >> nw) * self.g) & self.low

    def _norm(self, x: int) -> int:
        """x with every slot reduced mod p."""
        return x - self.p * (x * self.m >> self.k & self.qmask)

    def _unpack(self, x: int) -> int:
        """The encoding of x, its slots reduced mod p."""
        return self._norm(x) * self.read >> self.shift & self.mask

    def _pow(self, x: int, e: int) -> int:
        """x^e, x and the result with digits below p."""
        r = 1
        for bit in bin(e)[2:]:
            r = self._norm(self._mul(r, r))
            if bit == "1":
                r = self._norm(self._mul(r, x))
        return r

    def mul(self, a: int, b: int) -> int:
        p = self.p
        if a < p and b < p:
            return a * b % p
        return self._unpack(self._mul(self._pack(a), self._pack(b)))

    def add(self, a: int, b: int) -> int:
        p = self.p
        if a < p and b < p:
            return (a + b) % p
        return self._unpack(self._pack(a) + self._pack(b))

    def neg(self, a: int) -> int:
        p = self.p
        if a < p:
            return -a % p
        return self._unpack(self.top - self._pack(a))

    def sub(self, a: int, b: int) -> int:
        p = self.p
        if a < p and b < p:
            return (a - b) % p
        return self._unpack(self._pack(a) + self.top - self._pack(b))

    def inv(self, a: int) -> int:
        """The inverse of a nonzero a: by Itoh and Tsujii on a ring
        flagged irreducible, by the Euclid otherwise."""
        p = self.p
        if a < p:
            return pow(a, -1, p)
        if not self.irreducible:
            try:
                return _encode(zpoly.invmod(_decode(a, p), self.modulus, p), p)
            except ValueError:
                raise DivisionByZero(
                    f"the residue encoded {a} is a zero divisor modulo {_poly_str(self.modulus)}"
                ) from None
        mul, norm, frob = self._mul, self._norm, self._frob
        x = self._pack(a)
        # b = b_k along the addition chain on n - 1, read off its bits
        b, k = x, 1
        for bit in bin(self.n - 1)[3:]:
            b, k = norm(mul(frob(b, k), b)), 2 * k
            if bit == "1":
                b, k = norm(mul(frob(b, 1), x)), k + 1
        y = frob(b, 1)
        c = norm(mul(y, x))
        # a constant has only its lowest slot, so c < p exactly when it is one
        if not 0 < c < p:
            raise RuntimeError(
                f"the norm of the residue encoded {a} is not a unit of Z_{p}"
                f" modulo {_poly_str(self.modulus)}"
            )
        return self._unpack(y * pow(c, -1, p))

    def pow(self, a: int, e: int) -> int:
        """a^e, the inverse powered for e < 0."""
        p = self.p
        if a < p:
            return pow(a, e, p)
        if e < 0:
            a, e = self.inv(a), -e
        return self._unpack(self._pow(self._pack(a), e))

    def tables(self, rows) -> tuple[list[int], ...]:
        """The chunk tables of the F_p-linear map with packed rows `rows`
        (the images of the t^i, digits below p): per chunk of c rows, the
        packed images of all p^c chunk values, each one addition of a
        multiple of one row to an entry built before. An entry's slots
        are at most c (p - 1)^2, and an image's n (p - 1)^2 <= top."""
        p, c = self.p, self.width // self.w
        out = []
        for j in range(0, len(rows), c):
            # the entries of the chunk values below p^i, then d * row i
            # on each of them for d = 1, ..., p - 1
            table = [0]
            for row in rows[j : j + c]:
                table += [x + m for m in accumulate(repeat(row, p - 1)) for x in table]
            out.append(table)
        return tuple(out)

    def _apply(self, a: int, tables) -> int:
        """The packed image of the encoding a under the chunk tables
        `tables`, its slots unreduced."""
        base, x = self.base, 0
        for table in tables:
            a, d = divmod(a, base)
            x += table[d]
        return x

    def image(self, a: int, tables) -> int:
        """The encoding a through the F_p-linear map with chunk tables
        `tables`."""
        return self._unpack(self._apply(a, tables))

    def rows(self, k: int) -> tuple[int, ...]:
        """The packed rows t^(i p^k) of x -> x^(p^k), built on first use;
        t is encoded p, or -f_0 on F_p, whose one row is 1 for every k."""
        if k not in self.maps:
            p = self.p
            t = p if self.n > 1 else -self.modulus[0] % p
            self.maps[k] = _power_rows(self, self.pow(t, p**k), self.n)
        return self.maps[k]

    def frobenius(self, k: int) -> tuple[list[int], ...]:
        """The chunk tables of x -> x^(p^k), from its rows; built on
        first use."""
        tables = self.frob.get(k)
        if tables is None:
            tables = self.frob[k] = self.tables(self.rows(k))
        return tables

    def _frob(self, x: int, k: int) -> int:
        """x^(p^k) for packed x, in and out with digits below p."""
        enc = x * self.read >> self.shift & self.mask
        return self._norm(self._apply(enc, self.frobenius(k)))

    def scale(self, c: int, v: list[int]) -> list[int]:
        c, pack, mul, unpack = self._pack(c), self._pack, self._mul, self._unpack
        return [unpack(mul(c, pack(y))) for y in v]

    def axpy(self, u: list[int], c: int, v: list[int]) -> list[int]:
        """u - c*v, elementwise, for a nonzero c."""
        c, pack, mul, unpack, top = self._pack(c), self._pack, self._mul, self._unpack, self.top
        return [unpack(pack(x) + top - mul(c, pack(y))) for x, y in zip(u, v)]

    def value(self, row: list[int], x: int) -> int:
        """The row evaluated at x, by Horner's rule over its nonzero
        coefficients: acc * x^gap + c, packed throughout. The gaps of a
        lifted row repeat, so each x^gap is powered once per call."""
        x = self._pack(x)
        powers = {1: x}

        def power(gap):
            xg = powers.get(gap)
            if xg is None:
                xg = powers[gap] = self._pow(x, gap)
            return xg

        acc, last = 0, 0
        for e in reversed([e for e, c in enumerate(row) if c]):
            if acc:
                acc = self._mul(acc, power(last - e))
            acc, last = self._norm(acc + self._pack(row[e])), e
        return self._unpack(self._mul(acc, power(last)) if last else acc)


# -- exhaustive perfectness check ---------------------------------------------------


@dataclass(frozen=True)
class PerfectReport:
    """Outcome of the exhaustive Frobenius bijectivity check."""

    p: int
    n: int
    size: int
    passed: bool
    order: int | None
    counterexample: tuple[int, int] | None

    def summary(self) -> str:
        if self.passed:
            return (
                f"pass: Frobenius bijective on {self.size} elements, "
                f"order {self.order}"
            )
        a, b = self.counterexample
        return (
            f"fail: Frobenius not injective on {self.size} elements "
            f"(encodings {a} and {b} collide)"
        )

    def __str__(self):
        return self.summary()


def _row_digits(R: _FqPoly, rows):
    """The digits of rows packed on R as an int64 array, by one broadcast."""
    import numpy as np

    p = R.p
    enc = np.array([R._unpack(r) for r in rows], dtype=np.int64)
    return enc[:, None] // p ** np.arange(R.n, dtype=np.int64) % p


def _frobenius_images(field: FqField):
    """The encodings of the images x^p of all p^n elements x, as an intp
    array indexed by the encoding of x.

    The image of sum c_i t^i is sum c_i Q[i], so the images are built one
    encoding digit at a time: those of the elements below p^(i+1) are the
    p multiples of Q[i] added to those of the elements below p^i. At
    p = 2 an encoding is the coordinate bit vector and a sum is XOR, so
    the images of the elements from 2^i to 2^(i+1) are those below 2^i
    XOR the encoding of Q[i]: one `bitwise_xor` per row, written straight
    into the intp array, with no coordinate table and no Horner pass.

    At odd p a table of the coordinates of all p^n images is filled in
    place, in the narrowest unsigned type that holds 2p - 2 (one byte up
    to p = 127), so a sum of two coordinates is exact and min(x, x - p)
    reduces it: x - p wraps above x exactly when x < p. Horner's rule
    encodes the images, in the narrowest type that holds p^n - 1. The
    table is freed on return, so it is not held while check_perfect
    gathers.
    """
    import numpy as np

    p, n, q, R = field.p, field.n, field.order, field.ring()
    if p == 2:
        enc = np.empty(q, dtype=np.intp)
        enc[0] = 0
        for i, row in enumerate(R.rows(1)):
            np.bitwise_xor(enc[: 1 << i], R._unpack(row), out=enc[1 << i : 2 << i])
        return enc
    coord = np.min_scalar_type(2 * p - 2)
    # images[:, k] holds the coordinates of the image of the element encoded k
    images = np.zeros((n, q), dtype=coord)
    # the multiples d*Q[i] reach (p - 1)^2, and floor division by a
    # scalar is a multiply-high where % is a division
    wide = np.min_scalar_type((p - 1) ** 2)
    digits = np.arange(1, p, dtype=wide)
    for i, row in enumerate(_row_digits(R, R.rows(1)).astype(wide)):
        # block[:, d, j] is the element d*p^i + j, for j below p^i
        block = images[:, : p ** (i + 1)].reshape(n, p, p**i)
        high = block[:, 1:]
        mult = np.outer(row, digits)
        mult = (mult - mult // p * p).astype(coord)
        np.add(mult[:, :, None], block[:, :1], out=high)
        np.minimum(high, high - coord.type(p), out=high)
    enc = images[-1].astype(np.min_scalar_type(q - 1))
    for coords in reversed(images[:-1]):
        enc *= p
        enc += coords
    return enc.astype(np.intp)


def check_perfect(field: FqField) -> PerfectReport:
    """Verify by enumeration that x -> x^p permutes the whole field, and
    return the order of that permutation (the degree n, when all is well).

    A bincount of the encodings of all p^n images (`_frobenius_images`)
    shows whether they are distinct. The map P is F_p-linear, so P^j is
    the identity exactly when it fixes the n basis elements t^i, and the
    order k is the lcm of their orbit lengths: for each j < k some basis
    element is not fixed by P^j. P^k is then computed on every element,
    by binary powering of the image permutation, and checked to be the
    identity. Every field that make_field accepts is answered; a field
    built by hand past its order bound is refused before any work.
    """
    if field.order > MAX_ORDER:
        raise BoundExceeded(f"field of order {field.order} exceeds the bound p^n <= {MAX_ORDER}")
    import numpy as np

    p, n, q = field.p, field.n, field.order
    # enc[k] is the encoding of the image of the element encoded k
    enc = _frobenius_images(field)
    if np.bincount(enc, minlength=q).max() != 1:
        # locate one collision pair for the report
        seen: dict[int, int] = {}
        pair = (0, 0)
        for i, v in enumerate(enc.tolist()):
            if v in seen:
                pair = (seen[v], i)
                break
            seen[v] = i
        return PerfectReport(p, n, q, False, None, pair)
    # the order: the lcm of the orbit lengths of t^i (encoding p^i); an
    # orbit longer than n already puts it past n
    order = 1
    for i in range(n):
        basis = p**i
        x, length = enc.item(basis), 1
        while x != basis and length <= n:
            x, length = enc.item(x), length + 1
        order = lcm(order, length)
        if order > n:
            raise RuntimeError("Frobenius order exceeded the extension degree")
    # P^order on every element, by squaring and multiplying permutations
    power, square, e = None, enc, order
    while True:
        if e & 1:
            power = square if power is None else np.take(square, power)
        e >>= 1
        if not e:
            break
        square = np.take(square, square)
    if not np.array_equal(power, np.arange(q)):
        raise RuntimeError("Frobenius order of the basis does not hold on every element")
    return PerfectReport(p, n, q, True, order, None)


# -- embeddings ---------------------------------------------------------------------


def _null_space(R: _FqPoly, a: list[int]) -> tuple[list[int], list[int]]:
    """A basis of {x : a x = 0} for a square matrix a over Z_p whose rows
    are packed in the slots of the ring R, digits below p, by Gauss-Jordan
    elimination on the packed rows, and its free columns: basis vector i,
    packed the same way, is 1 in free column i and 0 in the others. A
    pivot is read as `row >> c*w & mask`; a row operation a_i - f a_r is
    one sum a_i + (p - f) a_r, whose slots, at most p (p - 1), stay
    within the bound that one `_norm` reduces."""
    p, w, mask = R.p, R.w, R.mask
    n = len(a)
    a = list(a)
    pivots = []
    for c in range(n):
        s, r = c * w, len(pivots)
        piv = next((i for i in range(r, n) if a[i] >> s & mask), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        row = a[r] = R._norm(a[r] * pow(a[r] >> s & mask, -1, p))
        for i in range(n):
            if i != r and (f := a[i] >> s & mask):
                a[i] = R._norm(a[i] + (p - f) * row)
        pivots.append(c)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for c in free:
        s = c * w
        x = 1 << s
        for row, pc in zip(a, pivots):
            x += -(row >> s & mask) % p << pc * w
        basis.append(x)
    return basis, free


def find_embedding_root(source: FqField, target: FqField) -> FqElem:
    """First root of the source modulus in the target, in encoding order.

    The modulus is irreducible of degree m dividing n, so each of its
    roots is fixed by x -> x^(p^m) and lies in the subfield ker(Q^m - I)
    of p^m elements. Only that subfield is searched, on a reduced echelon
    basis B ordered by free column, which lists it in increasing encoding
    (its k-th element has the base-p digits of k as coordinates), so the
    first root met is returned. Everything up to the search runs on the
    target's ring: the rows of Q^m, t^(i p^m) mod f, Gauss-Jordan on
    the packed rows of (Q^m - I)^T (`_null_space`), whose basis comes out
    packed, and the products B_i * B_j for i <= j, mirrored. The search
    runs in those m coordinates: B is the identity on its free columns,
    so the coordinates of a subfield element are its digits there, and
    the products give the multiplication tensor S. A block of elements
    gets its multiplication matrices in one product with S, and Horner's
    rule for the modulus is m batched m x m mat-vecs. The root met is
    the sum of the rows B times the digits of its index, its
    coordinates. No root, which only
    a reducible target modulus allows, raises NoEmbedding.
    """
    _check_embeddable(source, target)
    import numpy as np

    p, n, R = target.p, target.n, target.ring()
    # x is fixed by x -> x^(p^m) iff x (Q^m - I) = 0, i.e. (Q^m - I)^T x = 0,
    # where the rows of Q^m are t^(i p^m) mod f; row i of (Q^m - I)^T is
    # column i of Q^m - I, packed from its encoding
    Qm = _row_digits(R, R.rows(source.n))
    cols = (Qm - np.identity(n, dtype=np.int64)).T % p @ p ** np.arange(n, dtype=np.int64)
    B, free = _null_space(R, [R._pack(e) for e in cols.tolist()])
    # d = m, unless the target modulus is reducible
    d = len(B)
    enc = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            enc[i][j] = enc[j][i] = R._unpack(R._mul(B[i], B[j]))
    # S[i, j*d + k] holds coordinate k of B_i * B_j, its digit in free
    # column k; in float64, so that products with it run in BLAS, exactly:
    # their sums stay below d p^2 < 2^53
    S = np.array(enc, dtype=np.int64)[:, :, None] // p ** np.array(free, dtype=np.int64) % p
    S = S.reshape(d, d * d).astype(np.float64)
    mod = [c % p for c in source.modulus]
    size = p**d
    step = max(1, _BLOCK // (d * d))
    weights = p ** np.arange(d, dtype=np.int64)
    for start in range(0, size, step):
        # digits[k, i] is digit i of the encoding start + k
        digits = np.arange(start, min(start + step, size), dtype=np.int64)[:, None] // weights % p
        # mats[k] multiplies coordinates by the k-th element of the block,
        # unreduced: a mat-vec's sums stay below d^2 p^3, at most 2^38 for
        # n >= 2 (p <= 2^10) and 2^60 for n = 1
        mats = (digits @ S).astype(np.int64).reshape(-1, d, d)
        # constants are fixed, so column 0 is free and B_0 = 1: a
        # constant c has the coordinates (c, 0, ..., 0)
        val = np.zeros_like(digits)
        val[:, 0] = mod[-1]
        for c in reversed(mod[:-1]):
            val = np.matmul(val[:, None, :], mats)[:, 0, :] % p
            val[:, 0] = (val[:, 0] + c) % p
        hits = np.flatnonzero(~val.any(axis=1))
        if hits.size:
            # one image, so the digits times the rows, with no chunk tables
            coords = digits[hits[0]].tolist()
            return FqElem(target, R._unpack(sum(c * b for c, b in zip(coords, B))))
    raise NoEmbedding(f"the modulus of {source!r} has no root in {target!r}")


def _check_embeddable(source: FqField, target: FqField) -> None:
    """F_{p^m} embeds in F_{q^n} exactly when p = q and m divides n."""
    if source.p != target.p:
        raise NoEmbedding(
            f"no embedding between characteristics {source.p} and {target.p}"
        )
    if target.n % source.n != 0:
        raise NoEmbedding(
            f"degree {source.n} does not divide {target.n}; no embedding exists"
        )


@lru_cache(maxsize=None)
def _embedding_root_cached(source: FqField, target: FqField) -> tuple[list[int], ...]:
    """The chunk tables of the embedding on the target's ring, from its
    packed rows: row i is r^i mod the target modulus for i < m, r the
    first root of the source modulus (row 1), so no field builds log
    tables."""
    R = target.ring()
    return R.tables(_power_rows(R, find_embedding_root(source, target).enc, source.n))


def embed(a: FqElem, target: FqField) -> FqElem:
    """Canonical embedding F_{p^m} -> F_{p^n} for m dividing n: send the
    source generator to the first root r of the source modulus in the
    target, so sum a_i t^i goes to sum a_i r^i: the target ring's `image`
    of a under the cached chunk tables of the rows r^i. The two fields, moduli
    included, decide the map, so it is a homomorphism whatever the
    moduli; only a field into itself is the identity."""
    if not isinstance(a, FqElem):
        raise TypeError(f"embed takes an FqElem, not {type(a).__name__}")
    source = a.field
    _check_embeddable(source, target)
    if source.n == 1:
        return target.const(a.enc)
    if source.n == target.n and source == target:
        return a
    return FqElem(target, target.ring().image(a.enc, _embedding_root_cached(source, target)))
