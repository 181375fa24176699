"""Workload cli-mixed: seeded calculator scripts through cli.run_command.

Why: this is how the CLI is used. Many small commands (levels <= 2, at
most 2 factors, multiplicity <= 3, mostly trivial gcds), so the time
goes to parsing, command dispatch, perfect-closure canonical forms and
rational-function normalisation. The finite-field batch kernels do no
work here.

Five blocks per (p, d) with p in {2, 3, 5} and d in {1, 2}, plus one
block with JSON output on. Each block runs in a fresh Session, so every
cycle repeats the same work. Each line carries what the oracle needs:
the expression it must equal, the level or truth value it must print,
or the PerffieldError kind it must raise.
"""

from __future__ import annotations

import json
import random

import exprcheck
import gf
import harness
from perffield import cli
from perffield.errors import PerffieldError

BLOCKS = ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2))
REPEATS = 5  # blocks per (p, d) in a cycle: more lines, less spread between seeds
# oracle field F_{p^m} per characteristic
ORACLE_DEGREE = {2: 10, 3: 6, 5: 4}
SMALL_FIELDS = ((2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2))

# (line, error kind, cause kind for EvalError)
ERROR_LINES = (
    ("eval x1 +", "ParseError", None),
    ("eval zz9 + 1", "UnknownVariable", None),
    ("eval 1/(x1-x1)", "EvalError", "DivisionByZero"),
    ("frobnicate x1", "UnknownCommand", None),
    ("fq make 2 17", "BoundExceeded", None),
    ("prootpoly t + x1", "EvalError", "DerivativeNonzero"),
    ("sqfree x1", "EvalError", "ConstantPolynomial"),
    ("pthroot t 1", "UsageError", None),
    ("fq frob 2 3 99", "UsageError", None),
    ("let t = 3", "UsageError", None),
)


class Line:
    __slots__ = ("text", "kind", "info")

    def __init__(self, text, kind, **info):
        self.text = text
        self.kind = kind
        self.info = info


class Block:
    __slots__ = ("p", "d", "json", "lines", "session")

    def __init__(self, p, d, json_on, lines):
        self.p, self.d, self.json, self.lines = p, d, json_on, lines
        self.session = None


# -- expression generators ------------------------------------------------------


def _monos(rng, d, k):
    """k distinct monomial texts (never the constant)."""
    pool = [f"x{i}" for i in range(1, d + 1)]
    pool += [f"x{i}^{e}" for i in range(1, d + 1) for e in (2, 3)]
    if d > 1:
        pool.append("x1*x2")
    return rng.sample(pool, min(k, len(pool)))


def _poly(rng, p, d, terms):
    """A nonzero level-0 polynomial: distinct monomials, nonzero coefficients."""
    parts = []
    for m in _monos(rng, d, terms):
        c = rng.randrange(1, p)
        parts.append(m if c == 1 else f"{c}*{m}")
    if rng.random() < 0.5:
        parts.append(str(rng.randrange(1, p)))
    return " + ".join(parts)


def _elem(rng, p, d):
    """A nonzero element of the closure at level <= 2."""
    base = _poly(rng, p, d, rng.randint(1, 2))
    r = rng.random()
    if r < 0.3:
        return base
    if r < 0.55:
        return f"({base}) / ({_poly(rng, p, d, 1)})"
    if r < 0.8:
        return f"root({base}, {rng.randint(1, 2)})"
    return f"root(x{rng.randint(1, d)}, 1) + {_poly(rng, p, d, 1)}"


def _atom(rng, p, d):
    """A one-term element: c * x^e or a root of a variable."""
    c = rng.randrange(1, p)
    m = rng.choice(_monos(rng, d, 1) + [f"root(x{rng.randint(1, d)}, 1)"])
    return m if c == 1 else f"{c}*{m}"


def _roots_pool(p, d):
    """Pairwise distinct elements: constants, x^e + c, root(x,1) + c, 1/x + c."""
    pool = [str(c) for c in range(p)]
    for i in range(1, d + 1):
        for c in range(p):
            pool += [f"x{i} + {c}", f"x{i}^2 + {c}", f"root(x{i}, 1) + {c}", f"1/x{i} + {c}"]
    return pool


def _factored(rng, p, d, mults):
    """u * prod (t - r_i)^m_i with distinct r_i; returns text, u, [(r, m)]."""
    roots = rng.sample(_roots_pool(p, d), len(mults))
    u = rng.choice(["1", str(rng.randrange(1, p)), f"x{rng.randint(1, d)}", f"x1 + {rng.randrange(1, p)}"])
    text = "*".join([f"({u})"] + [f"(t - ({r}))^{m}" for r, m in zip(roots, mults)])
    return text, u, list(zip(roots, mults))


def make_block(rng, p, d, json_on):
    L = []
    if json_on:
        L.append(Line("json on", "json"))
    names = []
    for k in range(4):
        name = f"a{k + 1}"
        expr = _elem(rng, p, d)
        L.append(Line(f"let {name} = {expr}", "let", expr=expr, name=name))
        names.append(name)
    for _ in range(8):
        r = rng.random()
        if r < 0.3:
            expr = _elem(rng, p, d)
        elif r < 0.6:
            a, b = rng.sample(names, 2)
            expr = f"{a} {rng.choice('+-*/')} {b}"
        elif r < 0.8:
            expr = f"{rng.choice(names)} * ({_elem(rng, p, d)}) + {_poly(rng, p, d, 1)}"
        else:
            expr = f"({_elem(rng, p, d)})^{rng.choice(['2', '3', '(-1)'])}"
        L.append(Line(f"eval {expr}", "eval", expr=expr))
    for _ in range(3):
        expr, k = _elem(rng, p, d), rng.randint(1, 2)
        L.append(Line(f"pthroot {expr} {k}", "pthroot", expr=expr, k=k))
    for _ in range(3):
        expr, k = _elem(rng, p, d), rng.randint(1, 2)
        L.append(Line(f"frob {expr} {k}", "frob", expr=expr, k=k))
    for _ in range(3):
        i, j, k = rng.randint(1, d), rng.randint(0, 2), rng.randint(1, 2)
        extra = f" + x{rng.randint(1, d)}^2" if rng.random() < 0.5 else ""
        body = f"(x{i}{extra} + {rng.randrange(p)})^{p ** j}"
        L.append(Line(f"level root({body}, {k})", "level", level=max(k - j, 0)))
    # fixed shapes (number of factors, multiplicities, terms, exponent
    # of p) in every block: the seed draws the contents, so the cost of a
    # cycle stays about the same from seed to seed
    for cmd, mults in (("issep", (1, 1)), ("issep", (1, 2)), ("sqfree", (1, 3)), ("sqfree", (2, 2))):
        text, u, parts = _factored(rng, p, d, mults)
        L.append(Line(f"{cmd} {text}", cmd, expr=text, unit=u, parts=parts))
    for e0, ncoeffs in ((0, 3), (1 if p == 5 else 2, 2)):
        q = p**e0
        coeffs = [_elem(rng, p, d) for _ in range(ncoeffs)]
        terms = [f"({c})*t^{j * q}" if j else f"({c})" for j, c in enumerate(coeffs)]
        text = " + ".join(terms)
        L.append(Line(f"sepdec {text}", "sepdec", expr=text, e=e0))
    for nterms in (2, 3):
        h = " + ".join(
            f"({_atom(rng, p, d)})*t^{j}" if j else f"({_atom(rng, p, d)})"
            for j in range(nterms)
        )
        text = f"({h})^{p}"
        L.append(Line(f"prootpoly {text}", "prootpoly", expr=text))
    for _ in range(2):
        fp, fn = rng.choice(SMALL_FIELDS)
        sub = rng.choice(["make", "frob", "invfrob"])
        if sub == "make":
            L.append(Line(f"fq make {fp} {fn}", "fq", sub=sub, p=fp, n=fn))
        else:
            enc = rng.randrange(fp**fn)
            L.append(Line(f"fq {sub} {fp} {fn} {enc}", "fq", sub=sub, p=fp, n=fn, enc=enc))
    for text, kind, cause in rng.sample(ERROR_LINES, 2):
        L.append(Line(text, "error", error=kind, cause=cause))
    # bindings first, the rest in a seeded order
    head = L[: (1 if json_on else 0) + 4]
    body = L[len(head) :]
    rng.shuffle(body)
    return Block(p, d, json_on, head + body)


class CliMixed:
    """The cli-mixed workload; see the module docstring."""

    cap = 10.0

    def __init__(self, seed, tiny=False):
        self._caches = harness.field_caches()
        rng = random.Random(seed)
        blocks = BLOCKS[:2] if tiny else BLOCKS * REPEATS
        self.blocks = [make_block(rng, p, d, False) for p, d in blocks]
        p, d = rng.choice(blocks)
        self.blocks.append(make_block(rng, p, d, True))
        if tiny:
            for b in self.blocks:
                b.lines = b.lines[:12]
        self.seed = seed
        self.tiny = tiny  # digests are recorded for full-size scripts only

    def cycle(self):
        harness.clear(self._caches)
        ops = []
        for block in self.blocks:
            for i, line in enumerate(block.lines):
                ops.append(self._op(block, line.text, i == 0))
        return ops

    def op_kinds(self):
        """Reference slice kind per operation (see speed.py)."""
        return ["python"] * sum(len(b.lines) for b in self.blocks)

    @staticmethod
    def _op(block, text, first):
        def run():
            if first:
                block.session = cli.Session(block.p, block.d)
            session = block.session
            try:
                return ("ok", cli.run_command(text, session))
            except PerffieldError as err:
                cause = getattr(err, "cause", None)
                return (
                    "err",
                    type(err).__name__,
                    type(cause).__name__ if cause is not None else None,
                    cli.render_error(err, session.json_mode),
                )

        return run

    def render(self, res):
        if res.status != "ok":
            return f"<{res.status}: {res.value!r}>"
        value = res.value
        return value[-1] if value[0] == "err" else (value[1] or "")

    def answer(self, res):
        """What the CLI answered: the output, or the error kind and cause."""
        if res.status == "ok" and res.value[0] == "err":
            return f"error {res.value[1]} {res.value[2]}"
        return self.render(res)

    def lines(self):
        for block in self.blocks:
            for line in block.lines:
                yield block, line

    def check(self, results):
        verdicts = []
        checker = None
        for (block, line), res in zip(self.lines(), results):
            if checker is None or checker.block is not block:
                checker = _Checker(block, self.seed)
            if res.status != "ok":
                verdicts.append(f"{res.status}: {res.value!r}")
                continue
            try:
                verdicts.append(checker.check(line, res.value))
            except (exprcheck.SyntaxFault, KeyError, ValueError, IndexError) as err:
                verdicts.append(f"unreadable output: {err!r}")
        return verdicts


class _Checker:
    """Oracle state for one block: the bindings so far and a point sampler."""

    def __init__(self, block, seed):
        self.block = block
        self.gf = gf.oracle_field(block.p, ORACLE_DEGREE[block.p])
        self.rng = random.Random(f"{seed}-oracle-{block.p}-{block.d}-{block.json}")
        self.bindings = []  # (name, parsed input expression)

    def env(self, xs, t):
        env = {f"x{i + 1}": x for i, x in enumerate(xs)}
        env["t"] = t
        for name, node in self.bindings:
            env[name] = exprcheck.evaluate(node, self.gf, env)
        return env

    def agree(self, *sides):
        return exprcheck.agree(self.rng, self.gf, self.block.d, sides)

    def expr_side(self, text, post=None):
        node = exprcheck.parse(text)
        F = self.gf

        def side(xs, t):
            v = exprcheck.evaluate(node, F, self.env(xs, t))
            return post(v, xs, t) if post else v

        return side

    def check(self, line, value):
        if line.kind == "error":
            if value[0] != "err":
                return f"expected {line.info['error']}, got output {value[1]!r}"
            if (value[1], value[2]) != (line.info["error"], line.info["cause"]):
                return f"expected {line.info['error']}/{line.info['cause']}, got {value[1]}/{value[2]}"
            return None
        if value[0] == "err":
            return f"unexpected {value[1]}: {value[3]}"
        out = value[1]
        if self.block.json:
            return self.check_json(line, json.loads(out))
        return self.check_text(line, out)

    def expected(self, line):
        """The value an output must match, as a side of agree()."""
        info = line.info
        if line.kind == "frob":
            return self.expr_side(info["expr"], lambda v, xs, t: self.gf.frob(v, info["k"]))
        return self.expr_side(info["expr"])

    def output_side(self, line, out_side):
        """Adjust an output side so that it should equal expected(line)."""
        F, p, info = self.gf, self.block.p, line.info
        if line.kind == "pthroot":
            return lambda xs, t: F.pow(out_side(xs, t), p ** info["k"])
        if line.kind == "prootpoly":
            return lambda xs, t: F.pow(out_side(xs, t), p)
        return out_side

    def check_text(self, line, out):
        kind, info = line.kind, line.info
        if kind == "json":
            return None if out == "json = on" else f"unexpected {out!r}"
        if kind in ("let", "eval", "pthroot", "frob", "prootpoly"):
            if kind == "let":
                prefix = f"{info['name']} = "
                if not out.startswith(prefix):
                    return f"bad let echo {out!r}"
                out = out[len(prefix) :]
            ok = self.agree(self.expected(line), self.output_side(line, self.expr_side(out)))
            if kind == "let":
                self.bindings.append((info["name"], exprcheck.parse(info["expr"])))
            return None if ok else f"{out!r} does not match"
        if kind == "level":
            return None if out == str(info["level"]) else f"level {out}, expected {info['level']}"
        if kind == "issep":
            want = "true" if all(m == 1 for _, m in info["parts"]) else "false"
            return None if out == want else f"issep {out}, expected {want}"
        if kind == "sqfree":
            return self.check_sqfree_text(line, out)
        if kind == "sepdec":
            s_text, _, e_text = out.removeprefix("s = ").rpartition(", e = ")
            return self.check_sepdec(line, self.expr_side(s_text), int(e_text))
        if kind == "fq":
            return self.check_fq(line, out, None)
        return f"no oracle for {kind}"

    def check_json(self, line, obj):
        kind, info = line.kind, line.info
        if obj.get("schema") != 1 or obj.get("ok") is not True:
            return f"bad envelope {obj!r}"
        F = self.gf

        def value_side(v):
            return lambda xs, t: exprcheck.eval_value_json(v, F, xs, t)

        if kind == "json":
            return None if obj.get("value") == "on" else f"unexpected {obj!r}"
        if kind in ("let", "eval", "pthroot", "frob", "prootpoly"):
            ok = self.agree(self.expected(line), self.output_side(line, value_side(obj["value"])))
            if kind == "let":
                self.bindings.append((info["name"], exprcheck.parse(info["expr"])))
            return None if ok else f"{obj['value']!r} does not match"
        if kind == "level":
            return None if obj["value"] == info["level"] else f"level {obj['value']}"
        if kind == "issep":
            want = all(m == 1 for _, m in info["parts"])
            return None if obj["value"] is want else f"issep {obj['value']}"
        if kind == "sqfree":
            parts = [(value_side(p["factor"]), p["multiplicity"]) for p in obj["parts"]]
            return self.check_sqfree(line, value_side(obj["unit"]), parts)
        if kind == "sepdec":
            return self.check_sepdec(line, value_side(obj["s"]), obj["e"])
        if kind == "fq":
            return self.check_fq(line, None, obj)
        return f"no oracle for {kind}"

    def check_sqfree_text(self, line, out):
        # "unit * (f1)^m1 * (f2)" with the unit left out when it is 1; the
        # unit itself may contain " * ", so peel the factors off the right.
        want = len({m for _, m in line.info["parts"]})
        rest, parts = out, []
        for _ in range(want):
            factor, mult, rest = _peel_factor(rest)
            parts.append((self.expr_side(factor), mult))
        unit = rest or "1"
        return self.check_sqfree(line, self.expr_side(unit), parts[::-1])

    def check_sqfree(self, line, unit_side, parts):
        info = line.info
        groups = {}
        for r, m in info["parts"]:
            groups.setdefault(m, []).append(r)
        if sorted(m for _, m in parts) != sorted(groups):
            return f"multiplicities {[m for _, m in parts]}, expected {sorted(groups)}"
        for side, m in parts:
            expected = self.expr_side("*".join(f"(t - ({r}))" for r in groups[m]))
            if not self.agree(expected, side):
                return f"factor of multiplicity {m} does not match"
        if not self.agree(self.expr_side(info["unit"]), unit_side):
            return "unit does not match"
        return None

    def check_sepdec(self, line, s_side, e):
        if e != line.info["e"]:
            return f"e = {e}, expected {line.info['e']}"
        F, q = self.gf, self.block.p**e
        ok = self.agree(
            self.expr_side(line.info["expr"]),
            lambda xs, t: s_side(xs, F.pow(t, q)),
        )
        return None if ok else "s(t^(p^e)) does not match"

    def check_fq(self, line, out, obj):
        info = line.info
        p, n = info["p"], info["n"]
        f = gf.first_irreducible(p, n)
        if info["sub"] == "make":
            mod = gf.poly_str(f)
            if obj is None:
                want = f"F_{p}^{n}: modulus {mod}"
                return None if out == want else f"{out!r}, expected {want!r}"
            return None if obj.get("modulus") == mod else f"modulus {obj.get('modulus')!r}"
        a = gf.decode(info["enc"], n, p)
        e = p if info["sub"] == "frob" else p ** (n - 1)
        res = gf.ppowmod(a, e, f, p)
        enc, text = gf.encode(res, p), gf.poly_str(res)
        if obj is None:
            want = f"{text} (encoding {enc})"
            return None if out == want else f"{out!r}, expected {want!r}"
        ok = obj.get("result") == text and obj.get("encoding") == enc
        return None if ok else f"{obj!r}, expected {text} / {enc}"


def _peel_factor(text):
    """Split '... * (f)^m' or '... * (f)' into (f, m, '...')."""
    mult = 1
    head, caret, tail = text.rpartition(")^")
    if caret and tail.isdigit():
        mult, end = int(tail), len(head)
    else:
        end = text.rindex(")")
    depth = 0
    for i in range(end, -1, -1):
        if text[i] == ")":
            depth += 1
        elif text[i] == "(":
            depth -= 1
            if depth == 0:
                return text[i + 1 : end], mult, text[:i].removesuffix(" * ")
    raise ValueError(f"unbalanced factor in {text!r}")
