"""The perfect closure of a rational function field over Z_p.

Elements live in the union over n of the fields Z_p(x1^(1/p^n), ...,
xd^(1/p^n)). An element is stored as a pair (level, body): a rational
function body whose variables are read as p^level-th roots of the named
ground variables. The canonical form takes the minimal level, which is
detected syntactically: a level can be shed exactly when every exponent
in the body is divisible by p.

Two facts make the whole module work. Raising to the p-th power fixes
every coefficient (Fermat) and multiplies exponents by p, so the p-th
root of a level-n element is the same body reread at level n+1. And a
reduced fraction with monic denominator stays reduced and monic under
both exponent scaling and exponent division, so canonical forms compose
cleanly with arithmetic. Structural equality of canonical forms is
semantic equality. The canonical form runs only where the level can
drop: after + - * /, powers and roots. Negation and inversion keep
every exponent, and Frobenius rereads a level-L body at level L-1, so
their results are minimal as they stand. Powers pass multipoly's term
bound before any work.
"""

from __future__ import annotations

from typing import Sequence

from .errors import (
    BoundExceeded,
    ContextMismatch,
    DivisionByZero,
    LevelOverflow,
    LevelTooLow,
)
from .multipoly import check_power_terms, poly_gcd
from .primefield import PrimeField
from .ratfunc import RatFunc

DEFAULT_MAX_LEVEL = 64
# ground variables a context may declare
MAX_VARS = 1 << 10
# bit length of the largest exponent a power or a Frobenius may produce
MAX_FROB_EXP_BITS = 1 << 12


class PerfContext:
    """Ambient data for perfect-closure elements: the prime p, the number
    of ground variables (at most MAX_VARS), and a cap on root-taking
    depth (p^max_level of at most MAX_FROB_EXP_BITS bits)."""

    __slots__ = ("field", "nvars", "max_level")

    def __init__(self, p: int, nvars: int, max_level: int = DEFAULT_MAX_LEVEL):
        if not isinstance(nvars, int) or nvars < 0:
            raise ValueError(f"variable count must be a non-negative integer, got {nvars!r}")
        if not isinstance(max_level, int) or max_level < 0:
            raise ValueError(f"max_level must be a non-negative integer, got {max_level!r}")
        self.field = PrimeField(p)
        if nvars > MAX_VARS:
            raise ValueError(f"at most {MAX_VARS} variables, got {nvars}")
        # a level-L element lifts exponents by p^L, so L takes the
        # exponent bound of frobenius_iter
        if _exp_bits_exceed(1, p, max_level):
            raise ValueError(
                f"max_level {max_level} would let exponents pass "
                f"{MAX_FROB_EXP_BITS} bits at p = {p}"
            )
        self.nvars = nvars
        self.max_level = max_level

    @property
    def p(self) -> int:
        return self.field.p

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, PerfContext):
            return NotImplemented
        return (
            self.field == other.field
            and self.nvars == other.nvars
            and self.max_level == other.max_level
        )

    def __hash__(self):
        return hash((self.field.p, self.nvars, self.max_level))

    def __repr__(self):
        return f"PerfContext(p={self.p}, nvars={self.nvars}, max_level={self.max_level})"

    # -- element factories -------------------------------------------------

    def const(self, c: int) -> PerfElem:
        return PerfElem._raw(self, 0, RatFunc.const(self.field, self.nvars, c))

    def zero(self) -> PerfElem:
        return self.const(0)

    def one(self) -> PerfElem:
        return self.const(1)

    def variable(self, i: int) -> PerfElem:
        """The ground variable x_{i+1} as a level-0 element."""
        return PerfElem._raw(self, 0, RatFunc.variable(self.field, self.nvars, i))

    def from_ratfunc(self, body: RatFunc, level: int = 0) -> PerfElem:
        return PerfElem.canonical(self, level, body)


class PerfElem:
    """One element of the perfect closure, as (level, body).

    Public constructors produce canonical (minimal-level) values, and
    every operation returns canonical values, so `==` is semantic
    equality. `lift` alone hands back a deliberately uncanonical
    representation at a higher level; `canonicalize` undoes it.
    """

    __slots__ = ("ctx", "level", "body")

    def __init__(self, ctx: PerfContext, level: int, body: RatFunc):
        canon = PerfElem.canonical(ctx, level, body)
        self.ctx = canon.ctx
        self.level = canon.level
        self.body = canon.body

    @classmethod
    def _raw(cls, ctx: PerfContext, level: int, body: RatFunc) -> PerfElem:
        self = object.__new__(cls)
        self.ctx = ctx
        self.level = level
        self.body = body
        return self

    @classmethod
    def canonical(cls, ctx: PerfContext, level: int, body: RatFunc) -> PerfElem:
        """Normalize to the minimal level: shed one level whenever every
        exponent in the body is divisible by p."""
        if not isinstance(level, int) or level < 0:
            raise ValueError(f"level must be a non-negative integer, got {level!r}")
        if level > ctx.max_level:
            raise LevelOverflow(
                f"level {level} exceeds the session cap {ctx.max_level}"
            )
        if body.field != ctx.field:
            raise ContextMismatch(
                f"body is over p={body.field.p}, context has p={ctx.p}"
            )
        body = body._pad(ctx.nvars)
        while level > 0 and body.all_exponents_divisible():
            body = body.pth_root()
            level -= 1
        return cls._raw(ctx, level, body)

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.body.is_zero

    @property
    def is_canonical(self) -> bool:
        return self.level == 0 or not self.body.all_exponents_divisible()

    def canonicalize(self) -> PerfElem:
        return PerfElem.canonical(self.ctx, self.level, self.body)

    def validate(self) -> None:
        """Check every representation invariant; raises ValueError on a break.

        Meant for tests and post-surgery sanity checks, not hot paths.
        """
        if self.level < 0 or self.level > self.ctx.max_level:
            raise ValueError(f"level {self.level} out of range")
        if self.body.field != self.ctx.field:
            raise ValueError("body field does not match context")
        if self.body.nvars != self.ctx.nvars:
            raise ValueError("body variable count does not match context")
        if self.body.den.is_zero:
            raise ValueError("zero denominator")
        if self.body.den.leading_coeff() != 1:
            raise ValueError("denominator is not monic")
        if not self.body.num.is_zero:
            g = poly_gcd(self.body.num, self.body.den)
            if not (g.is_constant and g.constant_value() == 1):
                raise ValueError("body is not in lowest terms")
        if not self.is_canonical:
            raise ValueError("level is not minimal")

    def lift(self, m: int) -> PerfElem:
        """The same element rewritten at level m >= level (uncanonical:
        every exponent gains a factor p^(m - level))."""
        if m < self.level:
            raise LevelTooLow(f"cannot lift level {self.level} down to {m}")
        if m > self.ctx.max_level:
            raise LevelOverflow(f"level {m} exceeds the session cap {self.ctx.max_level}")
        body = self.body
        for _ in range(m - self.level):
            body = body.frobenius_substitute()
        return PerfElem._raw(self.ctx, m, body)

    # -- arithmetic ------------------------------------------------------------

    def _reconcile(self, other) -> tuple[PerfElem, PerfElem]:
        if (
            type(other) is PerfElem
            and other.ctx is self.ctx
            and other.level == self.level
        ):
            return self, other
        if isinstance(other, int):
            other = self.ctx.const(other)
        elif not isinstance(other, PerfElem):
            raise TypeError(f"cannot combine PerfElem with {type(other).__name__}")
        if self.ctx != other.ctx:
            raise ContextMismatch("elements belong to different perfect-closure contexts")
        m = max(self.level, other.level)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        a, b = self._reconcile(other)
        return PerfElem.canonical(a.ctx, a.level, a.body + b.body)

    __radd__ = __add__

    def __neg__(self):
        return PerfElem._raw(self.ctx, self.level, -self.body)

    def __sub__(self, other):
        a, b = self._reconcile(other)
        return PerfElem.canonical(a.ctx, a.level, a.body - b.body)

    def __rsub__(self, other):
        a, b = self._reconcile(other)
        return PerfElem.canonical(a.ctx, a.level, b.body - a.body)

    def __mul__(self, other):
        a, b = self._reconcile(other)
        return PerfElem.canonical(a.ctx, a.level, a.body * b.body)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._reconcile(other)
        if b.body.is_zero:
            raise DivisionByZero("division by zero in the perfect closure")
        return PerfElem.canonical(a.ctx, a.level, a.body / b.body)

    def __rtruediv__(self, other):
        a, b = self._reconcile(other)
        if a.body.is_zero:
            raise DivisionByZero("division by zero in the perfect closure")
        return PerfElem.canonical(a.ctx, a.level, b.body / a.body)

    def inv(self) -> PerfElem:
        if self.body.is_zero:
            raise DivisionByZero("inverse of zero in the perfect closure")
        # inverting keeps every exponent, so the level stays minimal
        return PerfElem._raw(self.ctx, self.level, self.body.inv())

    def __pow__(self, e: int):
        """a^e, refused before any work when the result could have an
        exponent past MAX_FROB_EXP_BITS bits, or more terms in its numerator
        or its denominator than multipoly.check_power_terms allows."""
        if not isinstance(e, int):
            raise TypeError("exponents must be integers")
        n = abs(e)
        if (self._top_exponent() * n).bit_length() > MAX_FROB_EXP_BITS:
            raise BoundExceeded(
                f"the power would raise exponents past {MAX_FROB_EXP_BITS} bits"
            )
        check_power_terms((self.body.num, self.body.den), n, self.ctx.p)
        base = self.inv() if e < 0 else self
        return PerfElem.canonical(self.ctx, base.level, base.body**n)

    def _top_exponent(self) -> int:
        """The largest exponent of any variable in the body."""
        body = self.body
        terms = (*body.num.terms, *body.den.terms)
        return max((e for m in terms for e in m), default=0)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.level == 0 and self.body == other
        if not isinstance(other, PerfElem):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.level == other.level
            and self.body == other.body
        )

    def __hash__(self):
        return hash((self.level, self.body))

    def __bool__(self):
        return not self.body.is_zero

    # -- characteristic-p structure ----------------------------------------------

    def frobenius(self) -> PerfElem:
        """a^p. One level down for free; at level 0 exponents scale by p.
        A canonical body at level L > 0 has an exponent prime to p, so
        level L - 1 is minimal for it too."""
        if self.level > 0:
            return PerfElem._raw(self.ctx, self.level - 1, self.body)
        return PerfElem._raw(self.ctx, 0, self.body.frobenius_substitute())

    def pth_root(self) -> PerfElem:
        """The unique b with b^p = a: the same body one level up."""
        if self.level + 1 > self.ctx.max_level:
            raise LevelOverflow(
                f"p-th root would exceed the session level cap {self.ctx.max_level}"
            )
        return PerfElem.canonical(self.ctx, self.level + 1, self.body)

    def pn_root(self, k: int) -> PerfElem:
        """The unique b with b^(p^k) = a."""
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"root depth must be a non-negative integer, got {k!r}")
        if self.level + k > self.ctx.max_level:
            raise LevelOverflow(
                f"p^{k}-th root would exceed the session level cap {self.ctx.max_level}"
            )
        return PerfElem.canonical(self.ctx, self.level + k, self.body)

    def frobenius_iter(self, k: int) -> PerfElem:
        """a^(p^k) by k applications of frobenius.

        Refused before any work when its level-0 exponents would pass
        MAX_FROB_EXP_BITS bits: the first `level` steps only lower the
        level, and each further step multiplies every exponent by p. A
        constant counts as exponent 1, which bounds the number of steps.
        """
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"Frobenius count must be a non-negative integer, got {k!r}")
        steps = k - self.level
        if steps > 0 and _exp_bits_exceed(self._top_exponent(), self.ctx.p, steps):
            raise BoundExceeded(
                f"frob {k} would raise level-0 exponents past {MAX_FROB_EXP_BITS} bits"
            )
        out = self
        for _ in range(k):
            out = out.frobenius()
        return out

    # -- evaluation -----------------------------------------------------------------

    def eval(self, point: Sequence, field=None):
        """Evaluate at a point with coordinates in a finite field F_{p^m}.

        The level-L variable x_i^(1/p^L) goes to the unique p^L-th root of
        the i-th coordinate. Inverse Frobenius is an automorphism fixing Z_p,
        so body(x^(1/p^L)) = body(x)^(1/p^L): the body is evaluated at the
        point by RatFunc.eval, which resolves and checks it once before any
        root is taken, then its value is rooted L times. So is the
        denominator, and only 0 has root 0, so poles fall at the same points.
        """
        value = self.body.eval(point, field)
        for _ in range(self.level):
            value = value.inv_frobenius()
        return value

    # -- printing ----------------------------------------------------------------------

    def variable_names(self) -> list[str]:
        if self.level == 0:
            return [f"x{i + 1}" for i in range(self.ctx.nvars)]
        return [f"root(x{i + 1},{self.level})" for i in range(self.ctx.nvars)]

    def format(self) -> str:
        return self.body.format(self.variable_names())

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"PerfElem(p={self.ctx.p}, level={self.level}, {self.format()})"

    def to_json(self) -> dict:
        """Level plus num/den term lists, each term [exponents, coeff] in
        descending graded-lex order."""
        return {
            "level": self.level,
            "num": [[list(m), c] for m, c in self.body.num.sorted_terms()],
            "den": [[list(m), c] for m, c in self.body.den.sorted_terms()],
        }


def _exp_bits_exceed(top: int, p: int, steps: int) -> bool:
    """Whether max(top, 1) * p^steps passes MAX_FROB_EXP_BITS bits."""
    # p >= 2, so p^steps has more than `steps` bits: no need to build it
    return steps >= MAX_FROB_EXP_BITS or (
        (max(top, 1) * p**steps).bit_length() > MAX_FROB_EXP_BITS
    )
