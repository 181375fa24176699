"""Arithmetic in the prime field Z_p.

Z_p is the coefficient domain of every other module. Elements are plain
residues; the prime context is a small validated object shared by
constructors, and mixing elements from different contexts is rejected.

The prime is capped below 2**31 so products fit comfortably in machine
words; this library targets desk-scale primes, not cryptographic ones.
"""

from __future__ import annotations

from .errors import ContextMismatch, DivisionByZero

MAX_PRIME = 2**31


def is_prime(p: int) -> bool:
    """Deterministic trial-division primality test, adequate below 2**31."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The field Z_p for a fixed prime p; acts as the shared prime context.

    Instances compare equal iff their primes are equal, so independently
    constructed contexts for the same p are interchangeable.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise TypeError("p must be an int")
        if p >= MAX_PRIME:
            raise ValueError(f"p must be < 2**31, got {p}")
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"

    def elem(self, value: int) -> PFElem:
        return PFElem(self, value % self.p)

    const = elem

    def zero(self) -> PFElem:
        return PFElem(self, 0)

    def one(self) -> PFElem:
        return PFElem(self, 1)

    def inv(self, value: int) -> int:
        """Inverse of a nonzero residue, by pow(value, -1, p)."""
        value %= self.p
        if value == 0:
            raise DivisionByZero("no inverse of 0 in Z_p")
        return pow(value, -1, self.p)


class PFElem:
    """A residue class mod p."""

    __slots__ = ("field", "value")

    def __init__(self, field: PrimeField, value: int):
        self.field = field
        self.value = value % field.p

    def _same(self, other) -> PFElem:
        if not isinstance(other, PFElem):
            if isinstance(other, int):
                return PFElem(self.field, other)
            raise TypeError(f"cannot combine PFElem with {type(other).__name__}")
        if other.field != self.field:
            raise ContextMismatch(
                f"prime contexts differ: p={self.field.p} vs p={other.field.p}"
            )
        return other

    def __add__(self, other):
        other = self._same(other)
        return PFElem(self.field, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._same(other)
        return PFElem(self.field, self.value - other.value)

    def __rsub__(self, other):
        return self._same(other) - self

    def __mul__(self, other):
        other = self._same(other)
        return PFElem(self.field, self.value * other.value)

    __rmul__ = __mul__

    def __neg__(self):
        return PFElem(self.field, -self.value)

    def inv(self) -> PFElem:
        return PFElem(self.field, self.field.inv(self.value))

    def __truediv__(self, other):
        other = self._same(other)
        return self * other.inv()

    def __rtruediv__(self, other):
        return self._same(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        return PFElem(self.field, pow(self.value, e, self.field.p))

    def frobenius(self) -> PFElem:
        """x -> x^p.

        On Z_p this is the identity by Fermat's little theorem; it is kept
        as a named operation so tests can assert the theorem instead of
        assuming it.
        """
        return PFElem(self.field, self.value)

    inv_frobenius = frobenius

    def encode(self) -> int:
        """The residue, the encoding of Z_p as a point field."""
        return self.value

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.field.p
        return (
            isinstance(other, PFElem)
            and self.field == other.field
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.field.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"PFElem({self.value} mod {self.field.p})"

    def __str__(self):
        return str(self.value)
