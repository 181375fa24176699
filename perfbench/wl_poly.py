"""Workload poly-heavy: non-trivial multivariate gcds and decompositions.

Why: multipoly's gcd, divexact and mul take nearly all of its time and
the gcds are not trivial, so a change that speeds up trivial gcds but
slows real ones shows here and not in cli-mixed.

Three parts, each one library call per operation:
- poly_gcd(a*c, b*c) with a planted common factor c, in 2 to 4 variables;
- RatFunc(a*c, b*c) on fresh planted pairs of the same shapes;
- is_separable / squarefree_decomposition of one-variable polynomials
  u * prod (t - r_i)^m_i with rational-function roots r_i in Z_p(x1),
  pairwise distinct, and multiplicities up to p.
The products a*c and b*c are formed with the oracle's own sparse
multiplication, so the inputs do not depend on the code under test.

The cliff cases from the roadmap (a 4-variable planted gcd with 8-term,
degree-5 factors, and a p = 5 issep with four multiplicity-4 rational
roots) run separately under a short cap in the traced run. They are
known to time out, and are reported as cliff timeouts rather than left
out; they stay out of the timed pass, whose operations must all succeed.
"""

from __future__ import annotations

import random

import exprcheck
import gf
import harness
from perffield import multipoly, ratfunc, septools
from perffield.multipoly import MultiPoly
from perffield.perfclosure import PerfContext
from perffield.primefield import PrimeField

# (variables, terms, degree) per planted factor, chosen for light tails:
# over 250 instances each, the slowest gcd stays within about five times
# the median, while (3, 5, 3) and (4, 4, 3) at p >= 5 reach 10 to 40
# times it, (3, 5, 4) 0.35 s and (4, 5, 4) over 3 s. Those heavy tails
# would make a cycle's time depend on which instances the seed drew.
GCD_SHAPES = ((2, 6, 5), (2, 8, 6), (3, 4, 3), (4, 4, 2))
GCD_PRIMES = (2, 3, 5, 7)
GCD_REPS = 10  # instances per (kind, shape, prime)
# multiplicity patterns per prime, up to p; two inputs each
SEP_PATTERNS = {
    2: ([1, 1], [2], [1, 2], [2, 2]),
    3: ([1, 2], [3], [1, 3], [2, 3]),
    5: ([2], [1, 4], [5], [2, 3]),
}
SEP_REPS = 5
ORACLE_DEGREE = {2: 10, 3: 6, 5: 4}
CLIFF_CAP = 2.0


def rand_poly(rng, p, nv, nterms, deg, const=True):
    """Sparse dict polynomial with nterms distinct monomials of total
    degree <= deg, never constant."""
    terms = {}
    while len(terms) < nterms:
        mono = [0] * nv
        for _ in range(rng.randint(0 if const else 1, deg)):
            mono[rng.randrange(nv)] += 1
        terms[tuple(mono)] = rng.randrange(1, p)
    if all(not any(m) for m in terms):
        return rand_poly(rng, p, nv, nterms, deg, const)
    return terms


class Planted:
    """Inputs a*c and b*c with a planted common factor c, as dicts (for
    the oracle) and as MultiPoly (for the library)."""

    def __init__(self, rng, p, nv, nterms, deg):
        self.p = p
        self.a, self.b, self.c = (rand_poly(rng, p, nv, nterms, deg) for _ in range(3))
        self.A, self.B = gf.smul(self.a, self.c, p), gf.smul(self.b, self.c, p)
        F = PrimeField(p)
        self.PA, self.PB = MultiPoly(F, nv, self.A), MultiPoly(F, nv, self.B)


class Sep:
    """One decomposition input and what the oracle knows about it."""

    def __init__(self, rng, p, mults, deg, dense=False):
        self.p = p
        ctx = PerfContext(p, 1)
        F = ctx.field
        self.roots = []  # (num dict, den dict), pairwise distinct
        while len(self.roots) < len(mults):
            num = rand_poly(rng, p, 1, deg + 1 if dense else rng.randint(1, deg + 1), deg)
            num[(0,)] = rng.randrange(p) or 1
            den = rand_poly(rng, p, 1, deg if dense else rng.randint(1, 2), deg)
            if all(gf.smul(num, d2, p) != gf.smul(n2, den, p) for n2, d2 in self.roots):
                self.roots.append((num, den))
        self.mults = mults
        self.unit = rng.randrange(1, p)
        t = septools.UniPoly.t_var(ctx)
        f = septools.UniPoly.const(ctx, self.unit)
        for (num, den), m in zip(self.roots, self.mults):
            r = ctx.from_ratfunc(ratfunc.RatFunc(MultiPoly(F, 1, num), MultiPoly(F, 1, den)))
            f = f * (t - septools.UniPoly.const(ctx, r)) ** m
        self.f = f

    def root_value(self, i, G, x):
        num, den = self.roots[i]
        at = [x]
        return G.div(exprcheck.eval_terms(num.items(), G, at), exprcheck.eval_terms(den.items(), G, at))


class PolyHeavy:
    """The poly-heavy workload; see the module docstring."""

    cap = 10.0

    def __init__(self, seed, tiny=False):
        self._caches = harness.field_caches()
        rng = random.Random(seed)
        self.seed = seed
        # fixed counts per stratum: the seed draws the instances, not the mix
        self.cases = []  # (kind, data)
        for kind in ("gcd", "ratfunc"):
            for nv, nt, deg in GCD_SHAPES[:2] if tiny else GCD_SHAPES:
                for p in GCD_PRIMES[:1] if tiny else GCD_PRIMES:
                    for _ in range(1 if tiny else GCD_REPS):
                        self.cases.append((kind, Planted(rng, p, nv, nt, deg)))
        for p, patterns in SEP_PATTERNS.items():
            for mults in patterns[:1] if tiny else patterns:
                for _ in range(1 if tiny else SEP_REPS):
                    sep = Sep(rng, p, mults, 2, dense=True)
                    self.cases.append(("issep", sep))
                    self.cases.append(("sqfree", sep))
        rng.shuffle(self.cases)

    def cycle(self):
        harness.clear(self._caches)
        return [self._op(kind, data) for kind, data in self.cases]

    def op_kinds(self):
        """Reference slice kind per operation (see speed.py)."""
        return ["python"] * len(self.cases)

    @staticmethod
    def _op(kind, data):
        if kind == "gcd":
            return lambda: multipoly.poly_gcd(data.PA, data.PB)
        if kind == "ratfunc":
            return lambda: ratfunc.RatFunc(data.PA, data.PB)
        if kind == "issep":
            return lambda: septools.is_separable(data.f)
        return lambda: septools.squarefree_decomposition(data.f)

    def render(self, res):
        if res.status != "ok":
            return f"<{res.status}: {res.value!r}>"
        return str(res.value)

    def check(self, results):
        verdicts = []
        for (kind, data), res in zip(self.cases, results):
            if res.status != "ok":
                verdicts.append(f"{res.status}: {res.value!r}")
            elif kind == "gcd":
                verdicts.append(self._check_gcd(data, res.value))
            elif kind == "ratfunc":
                verdicts.append(self._check_ratfunc(data, res.value))
            elif kind == "issep":
                want = all(m == 1 for m in data.mults)
                verdicts.append(None if res.value is want else f"issep {res.value}")
            else:
                verdicts.append(self._check_sqfree(data, res.value))
        return verdicts

    @staticmethod
    def _check_gcd(case, g):
        p, g = case.p, g.terms
        if not g or gf.grlex_lc(g) != 1:
            return "gcd is zero or not monic"
        if gf.sdivexact(g, case.c, p) is None:
            return "planted factor does not divide the gcd"
        if gf.sdivexact(case.A, g, p) is None or gf.sdivexact(case.B, g, p) is None:
            return "gcd does not divide both inputs"
        return None

    @staticmethod
    def _check_ratfunc(case, r):
        p, num, den = case.p, r.num.terms, r.den.terms
        if not den or gf.grlex_lc(den) != 1:
            return "denominator is zero or not monic"
        if gf.smul(num, case.b, p) != gf.smul(den, case.a, p):
            return "num * b != den * a"
        c = case.c
        if gf.sdivexact(num, c, p) is not None and gf.sdivexact(den, c, p) is not None:
            return "the planted factor was not cancelled"
        return None

    def _check_sqfree(self, sep, dec):
        p = sep.p
        G = gf.oracle_field(p, ORACLE_DEGREE[p])
        rng = random.Random(f"{self.seed}-sqfree")
        groups = {}
        for i, m in enumerate(sep.mults):
            groups.setdefault(m, []).append(i)
        got = [m for _, m in dec.parts]
        if sorted(got) != sorted(groups):
            return f"multiplicities {got}, expected {sorted(groups)}"
        for factor, m in dec.parts:

            def want(xs, t, idx=groups[m]):
                acc = 1
                for i in idx:
                    acc = G.mul(acc, G.sub(t, sep.root_value(i, G, xs[0])))
                return acc

            def have(xs, t, factor=factor):
                return exprcheck.eval_unipoly(factor, G, xs, t)

            if not exprcheck.agree(rng, G, 1, (want, have)):
                return f"factor of multiplicity {m} does not match"
        unit_ok = exprcheck.agree(
            rng, G, 1, (lambda xs, t: sep.unit, lambda xs, t: exprcheck.eval_perfelem(dec.unit, G, xs))
        )
        return None if unit_ok else "unit does not match"


def cliff_cases():
    """The roadmap's cliff cases, fixed (not drawn from the workload seed),
    as (label, callable) pairs. At the parent commit each runs many times
    longer than CLIFF_CAP."""
    rng = random.Random(1)
    gcd = Planted(rng, 5, 4, 8, 5)
    f = Sep(rng, 5, [4, 4, 4, 4], 5, dense=True).f
    return [
        ("gcd-4var-8term-deg5", lambda: multipoly.poly_gcd(gcd.PA, gcd.PB)),
        ("issep-p5-mult4", lambda: septools.is_separable(f)),
    ]
