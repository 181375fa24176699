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

The gcd and the squarefree cascade run on numerators: at a common
level, f is N/D with N in Z_p[X][t] and D free of t, and by Gauss's
lemma (Knuth, TAOCP vol. 2, 4.6.1) the monic gcd over the closure is
that of the numerators made monic in t. is_separable takes the
cascade's first gcd, of the numerator and its t-derivative, and reads
only its t-degree. Powers run multipoly's `digit_power` with the
Frobenius step c_j t^j -> c_j^p t^(jp).
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
from .multipoly import (
    MAX_POWER_TERMS,
    MultiPoly,
    check_power_terms,
    digit_power,
    gcd_cofactors,
    poly_gcd,
)
from .perfclosure import PerfContext, PerfElem
from .ratfunc import RatFunc

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
        if self.is_constant:
            # zero or a constant: its coefficient's power, under that power's bounds
            return UniPoly.const(self.ctx, self.coeff(0) ** e, self.mode)
        deg = self.degree
        if deg * e > MAX_T_DEGREE:
            raise BoundExceeded(
                f"resulting t-degree {deg * e} exceeds the limit {MAX_T_DEGREE}"
            )
        p = self.ctx.p
        check_power_terms(self._bound_parts(), e, p)

        def frob(f: UniPoly) -> UniPoly:
            # Frob(f) = f^p moves each c_j t^j to c_j^p t^(jp)
            coeffs = [c if c.is_zero else c.frobenius() for c in f.coeffs]
            return UniPoly(f.ctx, coeffs, f.mode).subst_tpow(p)

        return digit_power(self, e, p, UniPoly.const(self.ctx, 1, self.mode), frob)

    def _bound_parts(self) -> tuple[MultiPoly, MultiPoly]:
        """The sizes a power's term bound reads, with every coefficient
        lifted to the highest coefficient level: the numerators as one
        polynomial in the ground variables and t (the last variable), and
        the product of the distinct denominators. The product stops once
        it passes MAX_POWER_TERMS terms, which already fails the bound."""
        level = max(c.level for c in self.coeffs)
        nums: dict[tuple[int, ...], int] = {}
        dens = {}
        for j, c in enumerate(self.coeffs):
            body = c.lift(level).body
            for m, v in body.num.terms.items():
                nums[m + (j,)] = v
            dens[body.den] = None
        field, d = self.ctx.field, self.ctx.nvars
        den = MultiPoly.const(field, d, 1)
        for f in dens:
            if len(den.terms) > MAX_POWER_TERMS:
                break
            den = den * f
        return MultiPoly._raw(field, d + 1, nums), den

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
        """Monic gcd: that of the numerators, made monic in t."""
        other = self._coerce(other)
        if self.is_zero and other.is_zero:
            raise ValueError("gcd(0, 0) is undefined")
        if self.is_zero or other.is_zero:
            return (other if self.is_zero else self).monic()
        # monic first: a factor that every coefficient carries cancels before
        # anything is lifted
        level, (a, b) = _numerators(self.monic(), other.monic())
        return _monic(self.ctx, level, poly_gcd(a, b), self.mode)

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


# -- numerators: exponent vectors end in that of t ------------------------------


def _numerators(*fs: UniPoly) -> tuple[int, list[MultiPoly]]:
    """The highest level L of the fs' coefficients, and each f lifted to L
    and times the lcm of its coefficients' denominators: a polynomial in
    the ground variables and t (the last variable). The gcds of these,
    made monic in t, are those of the fs, since a factor free of t is a
    unit over the closure."""
    ctx = fs[0].ctx
    level = max((c.level for f in fs for c in f.coeffs), default=0)
    nums = []
    for f in fs:
        bodies = [c.lift(level).body for c in f.coeffs]
        lcm = MultiPoly.const(ctx.field, ctx.nvars, 1)
        for den in dict.fromkeys(b.den for b in bodies):
            lcm = lcm * gcd_cofactors(lcm, den)[2]
        scale: dict[MultiPoly, MultiPoly] = {}
        terms = {}
        for j, b in enumerate(bodies):
            if b.den not in scale:
                scale[b.den] = lcm.divexact(b.den)
            for m, c in (b.num * scale[b.den]).terms.items():
                terms[m + (j,)] = c
        nums.append(MultiPoly._raw(ctx.field, ctx.nvars + 1, terms))
    return level, nums


def _monic(ctx: PerfContext, level: int, num: MultiPoly, mode: str) -> UniPoly:
    """The monic polynomial a numerator at this level stands for."""
    by_degree: dict[int, dict] = {}
    for m, c in num.terms.items():
        by_degree.setdefault(m[-1], {})[m[:-1]] = c
    top = max(by_degree)
    cs = [MultiPoly._raw(ctx.field, ctx.nvars, by_degree.get(e, {})) for e in range(top + 1)]
    return UniPoly(ctx, [ctx.from_ratfunc(RatFunc(c, cs[top]), level) for c in cs], mode)


def _t_degree(num: MultiPoly) -> int:
    return num.degree_in(num.nvars - 1)


# -- separability operations ---------------------------------------------------


def _zero_derivative(f: UniPoly) -> bool:
    """f' == 0, read off the exponents: (c t^i)' = i c t^(i-1) is 0 when p | i."""
    return all(c.is_zero for i, c in enumerate(f.coeffs) if i % f.ctx.p)


def is_separable(f: UniPoly) -> bool:
    """gcd(f, f') constant? For irreducible f this is the textbook
    separability criterion; for general f it means squarefree. The gcd
    is the squarefree cascade's first: that of the numerator N of f made
    monic and dN/dt, whose t-degree is that of gcd(f, f')."""
    if f.is_constant:
        raise ConstantPolynomial("separability is about nonconstant polynomials")
    _, (num,) = _numerators(f.monic())
    return not _t_degree(poly_gcd(num, num.derivative(num.nvars - 1)))


def pth_root_poly(f: UniPoly) -> UniPoly:
    """The g with g^p = f, for f with zero derivative: divide exponents
    by p and take coefficient p-th roots. In level0 mode a coefficient
    whose root leaves Z_p(X) raises NotPerfectMode."""
    p = f.ctx.p
    if not _zero_derivative(f):
        raise DerivativeNonzero("input has nonzero derivative; it is not a p-th power")
    out = []
    # zero derivative puts every nonzero term at a degree divisible by p
    for c in f.coeffs[::p]:
        r = c if c.is_zero else c.pth_root()
        if f.mode == "level0" and r.level > 0:
            raise NotPerfectMode(f"coefficient {c} is not a p-th power in Z_{p}(X)")
        out.append(r)
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
    # f monic, nonconstant. On numerators the cascade agrees with the one
    # over the closure up to units, the factors free of t
    ctx, mode = f.ctx, f.mode
    if _zero_derivative(f):
        _sqf_recurse(pth_root_poly(f), mult * ctx.p, parts)
        return
    level, (num,) = _numerators(f)
    # b: the product of the distinct factors with p-free multiplicity
    a, b, _ = gcd_cofactors(num, num.derivative(num.nvars - 1))
    i = 1
    while _t_degree(b):
        b, z, a = gcd_cofactors(b, a)
        if _t_degree(z):
            parts.append((_monic(ctx, level, z, mode), mult * i))
        i += 1
    # what survives in a has every multiplicity divisible by p
    if _t_degree(a):
        _sqf_recurse(pth_root_poly(_monic(ctx, level, a, mode)), mult * ctx.p, parts)


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
    while _zero_derivative(f):
        f = UniPoly(f.ctx, f.coeffs[::p], f.mode)
        e += 1
    return SepDecomposition(s=f, e=e)
