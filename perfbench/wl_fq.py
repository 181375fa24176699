"""Workload fq-sweep: exhaustive finite-field work.

Why: nearly all of its time is in fqtower and the batch kernels of
_accel, and multipoly does almost no work, so this is where a faster
Frobenius (for example as an F_p-linear map) shows or fails to show.

- check_perfect on F_2^16, F_3^10, F_5^6, F_7^5 and F_13^4 (the first,
  second and last keep the roadmap baselines comparable), F_2^12 and
  F_3^8;
- find_embedding_root for F_2^8, F_2^4 and F_2^2 into F_2^16, and F_3^5
  and F_3^2 into F_3^10, timed through the public function rather than
  the cached embed;
- PerfElem.eval of seeded elements (p in {2, 3, 5}, one or two variables,
  level <= 2) at points of F_{p^6} and F_2^16, which runs scalar FqElem
  arithmetic. Each numerator has a constant term and terms of total
  degree 1 and 3, over a denominator monomial of degree 2, so the seed
  draws coefficients, points and how degrees split between variables,
  while the cost of each evaluation stays the same from seed to seed.
  No element loses a level in canonical form, and coordinates are
  nonzero, so no evaluation meets a pole.

A cycle holds 12 sweeps (check_perfect, find_embedding_root) and 72
evaluations. The sweeps are one operation in seven, so op_p90_ms falls
among them, on the sweeps of 0.1 to 0.2 s whose time is mostly the
batch kernels, and a faster sweep moves it; op_p50_ms is an evaluation.
"""

from __future__ import annotations

import random

import exprcheck
import gf
import harness
from perffield import fqtower
from perffield.multipoly import MultiPoly
from perffield.perfclosure import PerfContext
from perffield.ratfunc import RatFunc

PERFECT_FIELDS = ((2, 16), (3, 10), (5, 6), (7, 5), (13, 4), (2, 12), (3, 8))
EMBEDDINGS = ((2, 8, 16), (2, 4, 16), (3, 5, 10), (2, 2, 16), (3, 2, 10))
EVAL_FIELDS = ((2, 6), (3, 6), (5, 6), (2, 16))
EVAL_REPS = 3


def _monomial(rng, d, degree):
    """Exponents of total degree `degree`, split at random over d variables."""
    exps = [0] * d
    for _ in range(degree):
        exps[rng.randrange(d)] += 1
    return tuple(exps)


def _element(rng, ctx, level):
    p, d = ctx.p, ctx.nvars
    num = {_monomial(rng, d, degree): rng.randrange(1, p) for degree in (0, 1, 3)}
    den = {_monomial(rng, d, 2): 1}
    body = RatFunc(MultiPoly(ctx.field, d, num), MultiPoly(ctx.field, d, den))
    return ctx.from_ratfunc(body, level)


class FqSweep:
    """The fq-sweep workload; see the module docstring."""

    cap = 60.0

    def __init__(self, seed, tiny=False):
        self._caches = harness.field_caches()
        rng = random.Random(seed)
        fields = ((5, 3), (3, 4)) if tiny else PERFECT_FIELDS
        embeddings = ((2, 2, 4),) if tiny else EMBEDDINGS
        self.perfect = [fqtower.make_field(p, n) for p, n in fields]
        self.embed = [
            (fqtower.make_field(p, m), fqtower.make_field(p, n)) for p, m, n in embeddings
        ]
        # a fixed number of evaluations per (field, variables, level), so
        # the seed changes the elements and points but not the mix
        self.evals = []  # (element, point)
        for fp, fn in EVAL_FIELDS[:1] if tiny else EVAL_FIELDS:
            field = fqtower.make_field(fp, fn)
            for d in (1, 2):
                ctx = PerfContext(fp, d)
                for level in (0, 1, 2):
                    for _ in range(2 if tiny else EVAL_REPS):
                        elem = _element(rng, ctx, level)
                        point = [field.from_encoding(rng.randrange(1, field.order)) for _ in range(d)]
                        self.evals.append((elem, point))
        self.order = list(range(len(self.perfect) + len(self.embed) + len(self.evals)))
        rng.shuffle(self.order)

    def cycle(self):
        harness.clear(self._caches)
        ops = [(lambda f=f: fqtower.check_perfect(f)) for f in self.perfect]
        ops += [(lambda s=s, t=t: fqtower.find_embedding_root(s, t)) for s, t in self.embed]
        ops += [(lambda e=e, pt=pt: e.eval(pt)) for e, pt in self.evals]
        # the fast evaluations spread between the slow sweeps, so that their
        # latencies sample the whole pass rather than one moment of it
        return [ops[i] for i in self.order]

    def op_kinds(self):
        """Reference slice kind per operation (see speed.py): the sweeps
        run the batch kernels, the evaluations scalar Python."""
        sweeps = len(self.perfect) + len(self.embed)
        return ["numpy" if i < sweeps else "python" for i in self.order]

    def render(self, res):
        if res.status != "ok":
            return f"<{res.status}: {res.value!r}>"
        return str(res.value)

    def check(self, results):
        verdicts = []
        n_perfect, n_embed = len(self.perfect), len(self.embed)
        tables = {}
        for i, res in zip(self.order, results):
            if res.status != "ok":
                verdicts.append(f"{res.status}: {res.value!r}")
            elif i < n_perfect:
                f, rep = self.perfect[i], res.value
                ok = rep.passed and rep.order == f.n and rep.size == f.p**f.n
                verdicts.append(None if ok else f"report {rep}")
            elif i < n_perfect + n_embed:
                verdicts.append(self._check_root(*self.embed[i - n_perfect], res.value))
            else:
                elem, point = self.evals[i - n_perfect - n_embed]
                verdicts.append(self._check_eval(elem, point, res.value, tables))
        return verdicts

    @staticmethod
    def _check_root(source, target, root):
        p, f = target.p, list(target.modulus)
        x = list(root.coeffs)
        acc = []
        for c in reversed(source.modulus):  # Horner in Z_p[t] / f
            acc = gf.pmulmod(acc, x, f, p) or [0]
            acc[0] = (acc[0] + c) % p
            gf.ptrim(acc)
        return None if not acc else f"root {root} is not a root of the source modulus"

    @staticmethod
    def _check_eval(elem, point, value, tables):
        field = point[0].field
        key = (field.p, field.n)
        if key not in tables:
            tables[key] = gf.GF(field.p, field.modulus)
        G = tables[key]
        xs = [gf.encode(list(c.coeffs), field.p) for c in point]
        got = gf.encode(list(value.coeffs), field.p)
        if got != exprcheck.eval_perfelem(elem, G, xs):
            return "value differs from the reference evaluation"
        # the identity the library must satisfy: eval(a^(1/p))^p == eval(a)
        if elem.pth_root().eval(point) ** field.p != value:
            return "eval(a.pth_root())**p != eval(a)"
        return None
