"""Rational functions over Z_p in finitely many variables.

A RatFunc is a reduced fraction of MultiPoly values: the gcd of
numerator and denominator is 1 and the denominator is monic under
graded-lex. Zero is canonically 0/1, so structural equality of the
(num, den) pair is semantic equality. A monic constant is 1, so a
polynomial is exactly a fraction whose denominator is 1.

Arithmetic keeps that form without reducing a result it can prove is
already reduced, following Henrici's rules for fractions (P. Henrici,
"A subroutine for computations with rational numbers", JACM 3, 1956;
Knuth, TAOCP vol. 2, 4.5.1). For reduced a/b and c/d:

- a/b * c/d is (a/g1 * c/g2) / (b/g2 * d/g1) with g1 = gcd(a, d) and
  g2 = gcd(c, b). A gcd against a denominator 1 is skipped, so the
  product of two polynomials takes no gcd at all.
- a/b + c/d takes g = gcd(b, d), which is 1 at once when b or d is 1,
  and t = a*(d/g) + c*(b/g). When g is 1, t / (b*(d/g)) is reduced as
  it stands. Else the only factors t can share with the denominator
  are those of g, so with g2 = gcd(t, g) the result is
  (t/g2) / ((b/g) * (d/g2)).
- Division and the inverse scale the new denominator monic and reuse
  the product; a power raises numerator and denominator separately,
  since powers of coprime polynomials are coprime and powers of monic
  polynomials are monic.

A factor of monic polynomials is monic (graded-lex leading terms
multiply), so every denominator above is monic by construction. The
constructor reduces arbitrary input with one gcd; arithmetic never calls
it.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ContextMismatch, DivisionByZero, PoleAtPoint, ZeroDenominator
from .multipoly import MultiPoly, eval_at_point, gcd_cofactors
from .primefield import PrimeField


class RatFunc:
    """A reduced fraction num/den of multivariate polynomials over Z_p."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        num, den = num._reconcile(den)
        if den.is_zero:
            raise ZeroDenominator("denominator is the zero polynomial")
        if num.is_zero:
            num = MultiPoly.zero(num.field, num.nvars)
            den = MultiPoly.const(num.field, num.nvars, 1)
        else:
            _, num, den = gcd_cofactors(num, den)
            lc = den.leading_coeff()
            if lc != 1:
                inv = den.field.inv(lc)
                num = num.mul_scalar(inv)
                den = den.mul_scalar(inv)
        self.num = num
        self.den = den

    @classmethod
    def _raw(cls, num: MultiPoly, den: MultiPoly) -> RatFunc:
        # trusted constructor: already reduced, monic den
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @classmethod
    def from_poly(cls, poly: MultiPoly) -> RatFunc:
        return cls._raw(poly, MultiPoly.const(poly.field, poly.nvars, 1))

    @classmethod
    def const(cls, field: PrimeField, nvars: int, c: int) -> RatFunc:
        return cls.from_poly(MultiPoly.const(field, nvars, c))

    @classmethod
    def variable(cls, field: PrimeField, nvars: int, i: int, power: int = 1) -> RatFunc:
        return cls.from_poly(MultiPoly.variable(field, nvars, i, power))

    # -- queries -----------------------------------------------------------

    @property
    def field(self) -> PrimeField:
        return self.num.field

    @property
    def nvars(self) -> int:
        return self.num.nvars

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_poly(self) -> bool:
        return self.den.is_constant

    @property
    def is_constant(self) -> bool:
        return self.num.is_constant and self.den.is_constant

    def constant_value(self) -> int:
        if not self.is_constant:
            raise ValueError("rational function is not constant")
        return self.num.constant_value()

    def _reconcile(self, other) -> tuple[RatFunc, RatFunc]:
        if (
            type(other) is RatFunc
            and other.num.field is self.num.field
            and other.num.nvars == self.num.nvars
        ):
            return self, other
        if isinstance(other, int):
            other = RatFunc.const(self.field, self.nvars, other)
        elif isinstance(other, MultiPoly):
            other = RatFunc.from_poly(other)
        elif not isinstance(other, RatFunc):
            raise TypeError(f"cannot combine RatFunc with {type(other).__name__}")
        if self.field != other.field:
            raise ContextMismatch(
                f"prime contexts differ: p={self.field.p} vs p={other.field.p}"
            )
        n = max(self.nvars, other.nvars)
        return self._pad(n), other._pad(n)

    def _pad(self, nvars: int) -> RatFunc:
        if nvars == self.nvars:
            return self
        return RatFunc._raw(self.num._pad(nvars), self.den._pad(nvars))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = self._reconcile(other)
        return a._add(b)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._raw(-self.num, self.den)

    def __sub__(self, other):
        a, b = self._reconcile(other)
        return a._add(-b)

    def __rsub__(self, other):
        a, b = self._reconcile(other)
        return b._add(-a)

    def __mul__(self, other):
        a, b = self._reconcile(other)
        return a._mul(b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._reconcile(other)
        if b.num.is_zero:
            raise DivisionByZero("division by the zero rational function")
        return a._mul(b.inv())

    def __rtruediv__(self, other):
        a, b = self._reconcile(other)
        return b / a

    def inv(self) -> RatFunc:
        num = self.num
        if num.is_zero:
            raise DivisionByZero("inverse of the zero rational function")
        inv = num.field.inv(num.leading_coeff())
        return RatFunc._raw(self.den.mul_scalar(inv), num.mul_scalar(inv))

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        return RatFunc._raw(self.num**e, self.den**e)

    def _add(self, other: RatFunc) -> RatFunc:
        # Henrici's sum of two reduced fractions over the same ring
        a, b = self.num, self.den
        c, d = other.num, other.den
        if b.is_constant and d.is_constant:
            # polynomials: b = d = 1, and a zero sum is already 0/1
            return RatFunc._raw(a + c, b)
        g, b1, d1 = gcd_cofactors(b, d)
        t = a * d1 + c * b1
        if t.is_zero:
            return RatFunc.const(t.field, t.nvars, 0)
        if g.is_constant:
            return RatFunc._raw(t, b * d1)
        # t is prime to b/g and to d/g, so only g can cancel
        _, t, g1 = gcd_cofactors(t, g)
        return RatFunc._raw(t, b1 * (d1 * g1))

    def _mul(self, other: RatFunc) -> RatFunc:
        # Henrici's product of two reduced fractions over the same ring
        a, b = self.num, self.den
        c, d = other.num, other.den
        if a.is_zero:
            return self
        if c.is_zero:
            return other
        if not d.is_constant:
            _, a, d = gcd_cofactors(a, d)
        if not b.is_constant:
            _, c, b = gcd_cofactors(c, b)
        return RatFunc._raw(a * c, b * d)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_constant and self.constant_value() == other % self.field.p
        if isinstance(other, MultiPoly):
            return self.is_poly and self.to_poly() == other
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.field != other.field:
            return False
        n = max(self.nvars, other.nvars)
        a, b = self._pad(n), other._pad(n)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero

    def to_poly(self) -> MultiPoly:
        """The underlying polynomial when the denominator is constant."""
        if not self.is_poly:
            raise ValueError("denominator is not constant")
        return self.num.mul_scalar(self.field.inv(self.den.constant_value()))

    # -- characteristic-p structure --------------------------------------------

    def frobenius_substitute(self) -> RatFunc:
        """Substitute x_i -> x_i^p in numerator and denominator.

        Equals raising to the p-th power, so the result is already
        reduced with a monic denominator.
        """
        return RatFunc._raw(
            self.num.frobenius_substitute(), self.den.frobenius_substitute()
        )

    def pth_root(self) -> RatFunc:
        """Unique r with r**p == self; exponents must all be divisible by p.

        Reducedness and the monic denominator survive taking the root, so
        no renormalization is needed.
        """
        return RatFunc._raw(self.num.pth_root(), self.den.pth_root())

    def all_exponents_divisible(self) -> bool:
        return (
            self.num.all_exponents_divisible() and self.den.all_exponents_divisible()
        )

    # -- evaluation ---------------------------------------------------------------

    def eval(self, point: Sequence, field=None):
        """Evaluate at a point as MultiPoly.eval does: one `eval_at_point`
        call resolves the point once and gives the denominator's and the
        numerator's encodings; PoleAtPoint when the denominator dies, and
        DivisionByZero when it is a zero divisor of a reducible modulus."""
        A, elem, (d, n) = eval_at_point((self.den, self.num), point, field)
        if not d:
            raise PoleAtPoint("denominator vanishes at the evaluation point")
        return elem(A.mul(n, A.inv(d)))

    # -- printing ---------------------------------------------------------------

    def format(self, names: Sequence[str] | None = None) -> str:
        ns = self.num.format(names)
        if self.den.is_constant and self.den.constant_value() == 1:
            return ns
        ds = self.den.format(names)
        if len(self.num.terms) > 1:
            ns = f"({ns})"
        # the bare denominator must reparse as the whole divisor: / and *
        # associate left, so "1 / x1*x2" would mean (1/x1)*x2.  Only a
        # single power of a single variable is safe without parens.
        if not self._den_atomic():
            ds = f"({ds})"
        return f"{ns} / {ds}"

    def _den_atomic(self) -> bool:
        if len(self.den.terms) != 1:
            return False
        ((mono, coeff),) = self.den.terms.items()
        return coeff == 1 and sum(1 for e in mono if e) == 1

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"RatFunc(p={self.field.p}, {self})"
