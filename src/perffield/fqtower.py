"""Finite extension fields F_{p^n} with exhaustive perfectness checks.

This is the everything-enumerable end of the library: fields small
enough that "Frobenius is a bijection" can be verified element by
element rather than proved. Construction is deterministic — the modulus
is the first monic irreducible of degree n in coefficient enumeration
order (constant term fastest-varying), confirmed by Rabin's criterion —
so a given (p, n) always denotes the same concrete field. Residues are
coefficient tuples, and all their arithmetic (products, powers,
inverses) is the dense Z_p[t] arithmetic of `zpoly`; Rabin's test takes
its gcd from `modgcd.univar_gcd`.

The Frobenius x -> x^p is F_p-linear, so each field carries its matrix
Q (row i = t^(ip) mod f, Berlekamp's Q-matrix) and the inverse matrix
(row i = t^(i p^(n-1)) mod f), built on first use. The exhaustive sweep
builds the images of all p^n elements by linearity, one encoding digit
(one row of Q) at a time; the embedding root search looks only in the
subfield ker(Q^m - I) where every root lies; the scalar `frobenius`
and `inv_frobenius` are one vector-matrix product each. Scalar powering
(`FqElem.__pow__`, square-and-multiply on residues) never goes through
these matrices, and the tests check the matrices against it element by
element.

numpy is imported inside the two sweeps, `check_perfect` and
`find_embedding_root`, and nowhere else, so importing the library or
the CLI does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import modgcd, zpoly
from .errors import BoundExceeded, DivisionByZero, NoEmbedding
from .primefield import is_prime

MAX_DEGREE = 16
MAX_ORDER = 2**20
MAX_EXHAUSTIVE = 2**16

# rows per chunk in the embedding root search, which bounds its memory
# when the subfield searched is large (m = n)
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


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin's criterion for a monic f of degree n over Z_p."""
    n = len(f) - 1
    if n == 1:
        return True
    t = [0, 1]
    # t^(p^n) must be t itself mod f
    if zpoly.powmod(t, p**n, f, p) != t:
        return False
    for q in _prime_factors(n):
        h = zpoly.sub(zpoly.powmod(t, p ** (n // q), f, p), t, p)
        if len(modgcd.univar_gcd(f, h, p)) != 1:
            return False
    return True


# -- field and elements ---------------------------------------------------------


class FqField:
    """The finite field with p^n elements, as Z_p[t] mod a fixed modulus."""

    __slots__ = ("p", "n", "modulus", "order", "_frob", "_inv_frob", "point_tables")

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.modulus = modulus
        self.order = p**n
        self._frob = None
        self._inv_frob = None
        # modgcd's log, antilog and Zech tables for the field when it
        # serves as a point field, built there on first use
        self.point_tables = None

    def power_map(self, e: int) -> tuple[tuple[int, ...], ...]:
        """Rows of the matrix of a -> a^e when that map is F_p-linear
        (e a power of p): row i is t^(ie) mod f, so a row vector of
        coefficients times the matrix is the image."""
        f, p = self.modulus, self.p
        step = zpoly.powmod([0, 1], e, f, p)
        rows, cur = [], [1]
        for _ in range(self.n):
            rows.append(tuple(cur) + (0,) * (self.n - len(cur)))
            cur = zpoly.rem(zpoly.mul(cur, step, p), f, p)
        return tuple(rows)

    def frobenius_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Berlekamp's Q: row i is t^(ip) mod f."""
        if self._frob is None:
            self._frob = self.power_map(self.p)
        return self._frob

    def inv_frobenius_matrix(self) -> tuple[tuple[int, ...], ...]:
        """The inverse of Q: row i is t^(i p^(n-1)) mod f."""
        if self._inv_frob is None:
            self._inv_frob = self.power_map(self.p ** (self.n - 1))
        return self._inv_frob

    def primitive_element(self) -> FqElem:
        """The first element of multiplicative order p^n - 1 in encoding
        order: g^((p^n - 1)/r) != 1 for every prime r dividing p^n - 1."""
        one = self.one()
        cofactors = [(self.order - 1) // r for r in _prime_factors(self.order - 1)]
        for e in range(1, self.order):
            g = self.from_encoding(e)
            if all(g**m != one for m in cofactors):
                return g
        raise RuntimeError(f"no primitive element in F_{self.p}^{self.n}")

    def elem(self, coeffs) -> FqElem:
        p = self.p
        cs = [c % p for c in coeffs]
        if len(cs) > self.n:
            cs = zpoly.rem(cs, self.modulus, p)
        cs += [0] * (self.n - len(cs))
        return FqElem(self, tuple(cs[: self.n]))

    def zero(self) -> FqElem:
        return FqElem(self, (0,) * self.n)

    def one(self) -> FqElem:
        return self.elem([1])

    def const(self, c: int) -> FqElem:
        return self.elem([c])

    def gen(self) -> FqElem:
        """The residue of t (the constant -c_0 when the modulus is t + c_0)."""
        return self.elem([0, 1])

    def from_encoding(self, k: int) -> FqElem:
        if not isinstance(k, int):
            raise ValueError(f"an encoding must be an integer, got {k!r}")
        if not 0 <= k < self.order:
            raise ValueError(f"encoding {k} out of range for a field of order {self.order}")
        cs = []
        for _ in range(self.n):
            cs.append(k % self.p)
            k //= self.p
        return FqElem(self, tuple(cs))

    def elements(self):
        """All field elements in encoding order."""
        for k in range(self.order):
            yield self.from_encoding(k)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FqField):
            return NotImplemented
        # two moduli of one degree give isomorphic fields, but residues
        # of one are not residues of the other
        return (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus)

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def __repr__(self):
        return f"FqField(p={self.p}, n={self.n}, modulus={self.modulus_str()})"

    def modulus_str(self) -> str:
        return _poly_str(self.modulus)


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
    """An element of F_{p^n}: a residue of degree < n, stored densely."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FqField, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other) -> FqElem:
        if isinstance(other, int):
            return self.field.const(other)
        if not isinstance(other, FqElem) or other.field != self.field:
            raise TypeError("operands belong to different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        p = self.field.p
        return FqElem(
            self.field,
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FqElem(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + self._check(other)

    def __mul__(self, other):
        other = self._check(other)
        p = self.field.p
        prod = zpoly.mul(self.coeffs, other.coeffs, p)
        prod = zpoly.rem(prod, self.field.modulus, p)
        prod += [0] * (self.field.n - len(prod))
        return FqElem(self.field, tuple(prod))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        out = zpoly.powmod(self.coeffs, e, self.field.modulus, self.field.p)
        out += [0] * (self.field.n - len(out))
        return FqElem(self.field, tuple(out))

    def inv(self) -> FqElem:
        """Multiplicative inverse by the extended Euclidean algorithm."""
        if not any(self.coeffs):
            raise DivisionByZero("inverse of zero in a finite field")
        out = zpoly.invmod(self.coeffs, self.field.modulus, self.field.p)
        out += [0] * (self.field.n - len(out))
        return FqElem(self.field, tuple(out))

    def __truediv__(self, other):
        return self * self._check(other).inv()

    def __rtruediv__(self, other):
        return self._check(other) * self.inv()

    def frobenius(self) -> FqElem:
        """a^p, as the coefficient vector times Q."""
        return self._times(self.field.frobenius_matrix())

    def inv_frobenius(self) -> FqElem:
        """The unique p-th root a^(p^(n-1)), since a^(p^n) = a, as the
        coefficient vector times the inverse of Q."""
        return self._times(self.field.inv_frobenius_matrix())

    def _times(self, rows) -> FqElem:
        out = [0] * self.field.n
        for c, row in zip(self.coeffs, rows):
            if c:
                out = [o + c * r for o, r in zip(out, row)]
        p = self.field.p
        return FqElem(self.field, tuple(o % p for o in out))

    def encode(self) -> int:
        k = 0
        for c in reversed(self.coeffs):
            k = k * self.field.p + c
        return k

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.field.const(other)
        if not isinstance(other, FqElem):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.p, self.field.n, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __str__(self):
        return _poly_str(self.coeffs)

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
    return FqField(p, n, canonical_modulus(p, n))


def canonical_modulus(p: int, n: int) -> tuple[int, ...]:
    """The modulus of F_{p^n} for a prime p: the first monic irreducible
    of degree n over Z_p in coefficient enumeration order, constant term
    fastest-varying. make_field bounds n and p^n; modgcd takes larger
    fields' moduli from here."""
    for k in range(p**n):
        coeffs = []
        kk = k
        for _ in range(n):
            coeffs.append(kk % p)
            kk //= p
        coeffs.append(1)
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError(f"no irreducible polynomial of degree {n} over Z_{p}")


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


def check_perfect(field: FqField) -> PerfectReport:
    """Verify by enumeration that x -> x^p permutes the whole field, and
    return the order of that permutation (the degree n, when all is well).

    The image of sum c_i t^i is sum c_i Q[i], so the table of all p^n
    images is built one encoding digit at a time: the images of the
    elements below p^(i+1) are the p multiples of Q[i] added to the
    images of the elements below p^i, reduced mod p.
    """
    import numpy as np

    if field.order > MAX_EXHAUSTIVE:
        raise BoundExceeded(
            f"exhaustive check limited to order <= {MAX_EXHAUSTIVE}, "
            f"field has {field.order}"
        )
    p, n = field.p, field.n
    # images[:, k] holds the coordinates of the image of the element encoded k
    images = np.zeros((n, 1), dtype=np.int64)
    digits = np.arange(p, dtype=np.int64)
    for row in np.array(field.frobenius_matrix(), dtype=np.int64):
        images = (np.outer(row, digits) % p)[:, :, None] + images[:, None, :]
        np.remainder(images, p, out=images)
        images = images.reshape(n, -1)
    # enc[k] is the encoding of the image of the element encoded k
    enc = p ** np.arange(n, dtype=np.int64) @ images
    if np.bincount(enc, minlength=field.order).max() != 1:
        # locate one collision pair for the report
        seen: dict[int, int] = {}
        pair = (0, 0)
        for i, v in enumerate(enc.tolist()):
            if v in seen:
                pair = (seen[v], i)
                break
            seen[v] = i
        return PerfectReport(p, field.n, field.order, False, None, pair)
    # order of the permutation: iterate until every element returns home
    home = np.arange(field.order, dtype=enc.dtype)
    k = 1
    cur = enc
    while not np.array_equal(cur, home):
        cur = enc[cur]
        k += 1
        if k > field.n:
            raise RuntimeError("Frobenius order exceeded the extension degree")
    return PerfectReport(p, field.n, field.order, True, k, None)


# -- embeddings ---------------------------------------------------------------------


def _null_space(a: list[list[int]], p: int) -> list[list[int]]:
    """A basis of {x : a x = 0} for a square matrix a over Z_p, by
    Gauss-Jordan elimination."""
    n = len(a)
    a = [list(row) for row in a]
    pivots = []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, n) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [(v * inv) % p for v in a[r]]
        for i in range(n):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        x = [0] * n
        x[free] = 1
        for i, c in enumerate(pivots):
            x[c] = (-a[i][free]) % p
        basis.append(x)
    return basis


def find_embedding_root(source: FqField, target: FqField) -> FqElem:
    """First root of the source modulus in the target, in encoding order.

    The modulus is irreducible of degree m dividing n, so each of its
    roots is fixed by x -> x^(p^m) and lies in the subfield ker(Q^m - I)
    of p^m elements. Only that subfield is searched, and the root with
    the smallest encoding is returned.
    """
    import numpy as np

    from . import _accel

    _check_embeddable(source, target)
    p, n = target.p, target.n
    # x is fixed by x -> x^(p^m) iff x (F - I) = 0, i.e. (F - I)^T x = 0
    F = target.power_map(p**source.n)
    basis = _null_space([[(F[j][i] - (i == j)) % p for j in range(n)] for i in range(n)], p)
    B = np.array(basis, dtype=np.int64).reshape(len(basis), n)
    mod = source.modulus
    red = _accel.reduction_table(target.modulus, p)
    size = p ** len(basis)
    roots = []
    for start in range(0, size, _BLOCK):
        X = (_accel.decode_range(start, min(start + _BLOCK, size), len(basis), p) @ B) % p
        val = np.zeros_like(X)
        val[:, 0] = mod[-1] % p
        for c in reversed(mod[:-1]):
            val = _accel.batch_mulmod(val, X, red, p)
            val[:, 0] = (val[:, 0] + c) % p
        roots += _accel.encode_rows(X[~val.any(axis=1)], p).tolist()
    return target.from_encoding(min(roots))


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
def _embedding_root_cached(source: FqField, target: FqField) -> int:
    return find_embedding_root(source, target).encode()


def embed(a: FqElem, target: FqField) -> FqElem:
    """Canonical embedding F_{p^m} -> F_{p^n} for m dividing n: send the
    source generator to the first root of the source modulus in the
    target. The two fields, moduli included, decide the map, so it is a
    homomorphism whatever the moduli; only a field into itself is the
    identity."""
    source = a.field
    _check_embeddable(source, target)
    if source == target:
        return a
    if source.n == 1:
        return target.const(a.coeffs[0])
    r = target.from_encoding(_embedding_root_cached(source, target))
    # Horner in the image of the generator
    acc = target.zero()
    for c in reversed(a.coeffs):
        acc = acc * r + c
    return acc
