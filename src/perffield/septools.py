"""Separability toolkit for univariate polynomials in characteristic p.

Coefficients come from the perfect closure (perfclosure.PerfElem). A
polynomial carries a mode flag: "perfect" allows arbitrary coefficient
levels, "level0" confines coefficients to the rational function field
Z_p(X) inside the closure. The same algorithms run in both modes; the
difference is that taking a coefficient p-th root can fail in level0
mode, and that failure (NotPerfectMode) is the library's computational
witness that Z_p(X) is not perfect.

The decompositions are exact: squarefree parts reassemble to the input
on the nose, and the separable core s of f satisfies s(t^(p^e)) = f
with the coefficients of f carried over unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BoundExceeded,
    ConstantPolynomial,
    ContextMismatch,
    DerivativeNonzero,
    DivisionByZero,
    NotDivisible,
    NotPerfectMode,
)
from .perfclosure import PerfContext, PerfElem

MODES = ("perfect", "level0")
# largest t-degree a power may produce
MAX_T_DEGREE = 1 << 16


class UniPoly:
    """A univariate polynomial in t over the perfect closure.

    coeffs[i] is the coefficient of t^i; the sequence never ends in a
    zero, so the zero polynomial is the empty tuple. Values are
    immutable. In level0 mode every coefficient must have level 0.
    """

    __slots__ = ("ctx", "coeffs", "mode")

    def __init__(self, ctx: PerfContext, coeffs, mode: str = "perfect"):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        clean: list[PerfElem] = []
        for c in coeffs:
            if isinstance(c, int):
                c = ctx.const(c)
            elif not isinstance(c, PerfElem):
                raise TypeError(f"coefficients must be PerfElem or int, got {type(c).__name__}")
            elif c.ctx != ctx:
                raise ContextMismatch("coefficient from a different context")
            clean.append(c)
        while clean and clean[-1].is_zero:
            clean.pop()
        if mode == "level0":
            for c in clean:
                if c.level > 0:
                    raise NotPerfectMode(
                        f"coefficient {c} has level {c.level}; level0 mode is "
                        f"confined to Z_{ctx.p}(X)"
                    )
        self.ctx = ctx
        self.coeffs = tuple(clean)
        self.mode = mode

    @classmethod
    def zero(cls, ctx: PerfContext, mode: str = "perfect") -> UniPoly:
        return cls(ctx, (), mode)

    @classmethod
    def const(cls, ctx: PerfContext, c, mode: str = "perfect") -> UniPoly:
        return cls(ctx, (c,), mode)

    @classmethod
    def t_var(cls, ctx: PerfContext, mode: str = "perfect") -> UniPoly:
        return cls(ctx, (0, 1), mode)

    # -- queries -------------------------------------------------------------

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading_coeff(self) -> PerfElem:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> PerfElem:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ctx.zero()

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other) -> UniPoly:
        if isinstance(other, (int, PerfElem)):
            return UniPoly.const(self.ctx, other, self.mode)
        if not isinstance(other, UniPoly):
            raise TypeError(f"cannot combine UniPoly with {type(other).__name__}")
        if other.ctx != self.ctx:
            raise ContextMismatch("polynomials from different contexts")
        if other.mode != self.mode:
            raise ContextMismatch(f"modes differ: {self.mode} vs {other.mode}")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            self.ctx,
            [self.coeff(i) + other.coeff(i) for i in range(n)],
            self.mode,
        )

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(self.ctx, [-c for c in self.coeffs], self.mode)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return UniPoly.zero(self.ctx, self.mode)
        out = [self.ctx.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        nonzero = [(j, b) for j, b in enumerate(other.coeffs) if not b.is_zero]
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in nonzero:
                out[i + j] = out[i + j] + a * b
        return UniPoly(self.ctx, out, self.mode)

    __rmul__ = __mul__

    def scale(self, c) -> UniPoly:
        if isinstance(c, int):
            c = self.ctx.const(c)
        return UniPoly(self.ctx, [c * a for a in self.coeffs], self.mode)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("polynomials cannot be raised to negative powers")
        deg = self.degree
        if deg == 0:
            # a constant: its coefficient's power, under that power's bounds
            return UniPoly.const(self.ctx, self.coeffs[0] ** e, self.mode)
        if deg and deg * e > MAX_T_DEGREE:
            raise BoundExceeded(
                f"resulting t-degree {deg * e} exceeds the limit {MAX_T_DEGREE}"
            )
        # f^e is the product of Frob^i(f)^(e_i) over the base-p digits e_i
        # of e, and Frob(f) = f^p moves each c_j t^j to c_j^p t^(jp); so
        # squarings stay below f^p and no intermediate outgrows the result
        p = self.ctx.p
        result = UniPoly.const(self.ctx, 1, self.mode)
        base = self
        while e:
            e, digit = divmod(e, p)
            if digit:
                result = result * base._pow_digit(digit)
            if e:
                frob = [c if c.is_zero else c.frobenius() for c in base.coeffs]
                base = UniPoly(self.ctx, frob, self.mode).subst_tpow(p)
        return result

    def _pow_digit(self, e: int) -> UniPoly:
        """self**e by binary powering, for 0 < e < p."""
        result = self
        for bit in bin(e)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __divmod__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        q = [self.ctx.zero()] * max(len(self.coeffs) - len(other.coeffs) + 1, 1)
        r = list(self.coeffs)
        inv_lc = other.leading_coeff().inv()
        db = other.degree
        while len(r) - 1 >= db and r:
            c = r[-1] * inv_lc
            shift = len(r) - 1 - db
            q[shift] = c
            for i, b in enumerate(other.coeffs):
                r[shift + i] = r[shift + i] - c * b
            while r and r[-1].is_zero:
                r.pop()
        return (
            UniPoly(self.ctx, q, self.mode),
            UniPoly(self.ctx, r, self.mode),
        )

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def divexact(self, other: UniPoly) -> UniPoly:
        q, r = divmod(self, other)
        if not r.is_zero:
            raise NotDivisible("inexact polynomial division")
        return q

    def monic(self) -> UniPoly:
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        lc = self.leading_coeff()
        if lc == 1:
            return self
        return self.scale(lc.inv())

    def __eq__(self, other):
        if isinstance(other, (int, PerfElem)):
            other = UniPoly.const(self.ctx, other, self.mode)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    # -- calculus and substitution ---------------------------------------------

    def derivative(self) -> UniPoly:
        return UniPoly(
            self.ctx,
            [c * i for i, c in enumerate(self.coeffs)][1:],
            self.mode,
        )

    def gcd(self, other: UniPoly) -> UniPoly:
        """Monic gcd by the Euclidean algorithm over the coefficient field."""
        other = self._coerce(other)
        if self.is_zero and other.is_zero:
            raise ValueError("gcd(0, 0) is undefined")
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def subst_tpow(self, q: int) -> UniPoly:
        """f(t^q): spread coefficient i to degree i*q."""
        if q < 1:
            raise ValueError("substitution power must be positive")
        if self.is_zero:
            return self
        out = [self.ctx.zero()] * (q * (len(self.coeffs) - 1) + 1)
        for i, c in enumerate(self.coeffs):
            out[i * q] = c
        return UniPoly(self.ctx, out, self.mode)

    def with_mode(self, mode: str) -> UniPoly:
        if mode == self.mode:
            return self
        return UniPoly(self.ctx, self.coeffs, mode)

    def eval_at(self, tval, point, field=None):
        """Evaluate with t = tval and ground variables at `point`, all in
        one finite field. Used as the independent oracle for gcd tests."""
        if field is None:
            field = tval.field
        acc = field.zero()
        for c in reversed(self.coeffs):
            acc = acc * tval + c.eval(point, field)
        return acc

    # -- printing --------------------------------------------------------------

    def format(self) -> str:
        if self.is_zero:
            return "0"
        chunks = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero:
                continue
            chunks.append(_term_str(c, i))
        return " + ".join(chunks)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"UniPoly(p={self.ctx.p}, mode={self.mode}, {self})"


def _term_str(c: PerfElem, e: int) -> str:
    cs = c.format()
    if e == 0:
        return cs
    var = "t" if e == 1 else f"t^{e}"
    if c == 1:
        return var
    if " + " in cs or " / " in cs:
        cs = f"({cs})"
    return f"{cs}*{var}"


# -- separability operations ---------------------------------------------------


def is_separable(f: UniPoly) -> bool:
    """gcd(f, f') constant? For irreducible f this is the textbook
    separability criterion; for general f it means squarefree."""
    if f.is_constant:
        raise ConstantPolynomial("separability is about nonconstant polynomials")
    return f.gcd(f.derivative()).is_constant


def pth_root_poly(f: UniPoly) -> UniPoly:
    """The g with g^p = f, for f with zero derivative: divide exponents
    by p and take coefficient p-th roots. In level0 mode a coefficient
    whose root leaves Z_p(X) raises NotPerfectMode."""
    p = f.ctx.p
    if not f.derivative().is_zero:
        raise DerivativeNonzero("input has nonzero derivative; it is not a p-th power")
    out = [f.ctx.zero()] * (len(f.coeffs) // p + 1 if f.coeffs else 0)
    for i, c in enumerate(f.coeffs):
        if c.is_zero:
            continue
        # zero derivative forces p | i for every surviving term
        r = c.pth_root()
        if f.mode == "level0" and r.level > 0:
            raise NotPerfectMode(
                f"coefficient {c} is not a p-th power in Z_{p}(X)"
            )
        out[i // p] = r
    return UniPoly(f.ctx, out, f.mode)


@dataclass(frozen=True)
class SqfDecomposition:
    """unit times the product of factor^multiplicity reconstructs the input."""

    unit: PerfElem
    parts: tuple[tuple[UniPoly, int], ...]

    def reassemble(self) -> UniPoly:
        if not self.parts:
            raise ValueError("no parts to reassemble")
        ctx = self.parts[0][0].ctx
        mode = self.parts[0][0].mode
        out = UniPoly.const(ctx, self.unit, mode)
        for factor, mult in self.parts:
            out = out * factor**mult
        return out

    def __str__(self):
        chunks = [
            f"({f})^{m}" if m > 1 else f"({f})" for f, m in self.parts
        ]
        body = " * ".join(chunks)
        if self.unit == 1:
            return body
        return f"{self.unit} * {body}"


def squarefree_decomposition(f: UniPoly) -> SqfDecomposition:
    """Characteristic-p squarefree decomposition (Musser cascade with the
    zero-derivative branch routed through pth_root_poly)."""
    if f.is_constant:
        raise ConstantPolynomial("squarefree decomposition needs a nonconstant input")
    unit = f.leading_coeff()
    parts: list[tuple[UniPoly, int]] = []
    _sqf_recurse(f.monic(), 1, parts)
    parts.sort(key=lambda fm: (fm[1], fm[0].degree, str(fm[0])))
    return SqfDecomposition(unit=unit, parts=tuple(parts))


def _sqf_recurse(f: UniPoly, mult: int, parts: list) -> None:
    # f monic, nonconstant
    df = f.derivative()
    if df.is_zero:
        _sqf_recurse(pth_root_poly(f), mult * f.ctx.p, parts)
        return
    a = f.gcd(df)
    b = f.divexact(a)  # product of the distinct factors with p-free multiplicity
    i = 1
    while not b.is_constant:
        c = b.gcd(a) if not a.is_constant else UniPoly.const(f.ctx, 1, f.mode)
        z = b.divexact(c)
        if not z.is_constant:
            parts.append((z.monic(), mult * i))
        b = c
        if not a.is_constant:
            a = a.divexact(c)
        i += 1
    # what survives in a has every multiplicity divisible by p
    if not a.is_constant:
        _sqf_recurse(pth_root_poly(a.monic()), mult * f.ctx.p, parts)


@dataclass(frozen=True)
class SepDecomposition:
    """Separable core s and inseparability exponent e: s(t^(p^e)) = f."""

    s: UniPoly
    e: int

    def recompose(self) -> UniPoly:
        return self.s.subst_tpow(self.s.ctx.p**self.e)

    def __str__(self):
        return f"s = {self.s}, e = {self.e}"


def separable_decomposition(f: UniPoly) -> SepDecomposition:
    """Peel t^p layers off f until the derivative is nonzero.

    Each step rewrites f(t) = f1(t^p) by dividing exponents by p; the
    coefficients are carried over unchanged, so the identity
    s(t^(p^e)) = f is exact in both modes and no p-th roots are needed.
    """
    if f.is_constant:
        raise ConstantPolynomial("separable decomposition needs a nonconstant input")
    p = f.ctx.p
    e = 0
    while f.derivative().is_zero:
        regrouped = [f.coeffs[i] for i in range(0, len(f.coeffs), p)]
        f = UniPoly(f.ctx, regrouped, f.mode)
        e += 1
    return SepDecomposition(s=f, e=e)
