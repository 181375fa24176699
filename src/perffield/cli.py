"""Calculator-style command interface over the whole library.

A session fixes a prime p, a variable count d, a mode (perfect or
level0), and a level cap; commands then evaluate expressions in the
perfect closure, decompose polynomials in t, and poke at the finite
fields. Output is canonical text, or single-line JSON objects
(schema 1) when JSON mode is on.

Exit codes in batch mode: 0 clean, 1 evaluation error, 2 usage or
parse error. The first error stops a batch run unless --keep-going.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import fqtower, parser, septools
from .errors import (
    DivisionByZero,
    EvalError,
    NotPerfectMode,
    ParseError,
    PerffieldError,
    SourceError,
    UnknownCommand,
    UnknownVariable,
    UsageError,
)
from .perfclosure import DEFAULT_MAX_LEVEL, PerfContext, PerfElem
from .septools import UniPoly

_LET_RE = re.compile(r"^\s*([A-Za-z_]\w*)\s*=\s*(\S.*)$")
_RESERVED = {"t", "root"}


class Session:
    """Mutable REPL state: the algebra context plus bindings and flags."""

    def __init__(
        self,
        p: int,
        nvars: int,
        mode: str = "perfect",
        max_level: int = DEFAULT_MAX_LEVEL,
        json_mode: bool = False,
    ):
        if mode not in ("perfect", "level0"):
            raise UsageError(f"mode must be 'perfect' or 'level0', got {mode!r}")
        self.ctx = PerfContext(p, nvars, max_level)
        self.mode = mode
        self.json_mode = json_mode
        self.bindings: dict[str, object] = {}
        self.var_index = {f"x{i + 1}": i for i in range(nvars)}

    @property
    def p(self) -> int:
        return self.ctx.p


# -- expression evaluation ------------------------------------------------------


def eval_ast(node: parser.Node, session: Session, base: int = 0):
    """Evaluate a parsed expression to a PerfElem or a UniPoly; algebra
    failures come back as EvalError with the span of the failing node.

    A left-deep chain of binary operators and powers, such as a sum of n
    terms, is walked down its left spine in a loop and applied on the way
    back up. The dispatch is inline, so evaluation takes one stack frame
    per level of nesting (parentheses, roots, signs and right operands,
    which parser.MAX_DEPTH bounds), whatever the length of a chain.
    """
    spine = []
    while type(node) is parser.BinOp or type(node) is parser.Pow:
        spine.append(node)
        node = node.lhs if type(node) is parser.BinOp else node.base
    try:
        kind = type(node)
        if kind is parser.Num:
            value = session.ctx.const(node.value)
        elif kind is parser.Name:
            value = _resolve_name(node, session, base)
        elif kind is parser.Unary:
            value = -eval_ast(node.operand, session, base)
        elif kind is parser.Root:
            arg = eval_ast(node.arg, session, base)
            if isinstance(arg, UniPoly):
                raise UsageError("the indeterminate t cannot appear under root(...)")
            why = "; level0 mode has no p-th roots for this element"
            value = _root(session, arg, node.depth, why)
        else:
            raise TypeError(f"unhandled syntax node {kind.__name__}")
        for node in reversed(spine):
            if type(node) is parser.Pow:
                value = value ** node.exponent
            else:
                rhs = eval_ast(node.rhs, session, base)
                value = _binop(node.op, *_promote(value, rhs))
        return value
    except SourceError:
        raise
    except (PerffieldError, ValueError) as err:
        raise EvalError(err, base + node.start, base + node.end) from err


def _at(node: parser.Node, base: int, fn, *args):
    """fn(*args), with an algebra failure re-raised as an EvalError over
    the node's source span, as eval_ast does."""
    try:
        return fn(*args)
    except SourceError:
        raise
    except (PerffieldError, ValueError) as err:
        raise EvalError(err, base + node.start, base + node.end) from err


def _promote(a, b):
    if isinstance(a, UniPoly) and isinstance(b, PerfElem):
        return a, UniPoly.const(a.ctx, b, a.mode)
    if isinstance(a, PerfElem) and isinstance(b, UniPoly):
        return UniPoly.const(b.ctx, a, b.mode), b
    return a, b


def _binop(op: str, lhs, rhs):
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    # division: exact division for polynomials, field division otherwise
    if isinstance(lhs, UniPoly):
        if rhs.is_zero:
            raise DivisionByZero("polynomial division by zero")
        if rhs.is_constant:
            return lhs.scale(rhs.coeff(0).inv())
        return lhs.divexact(rhs)
    return lhs / rhs


def _resolve_name(node: parser.Name, session: Session, base: int):
    name = node.name
    if name == "t":
        return UniPoly.t_var(session.ctx, session.mode)
    idx = session.var_index.get(name)
    if idx is not None:
        return session.ctx.variable(idx)
    bound = session.bindings.get(name)
    if bound is None:
        raise UnknownVariable(name, base + node.start, base + node.end)
    if isinstance(bound, PerfElem):
        if session.mode == "level0" and bound.level > 0:
            raise NotPerfectMode(f"binding '{name}' lies outside Z_{session.p}(X)")
        return bound
    if bound.mode != session.mode:
        return bound.with_mode(session.mode)
    return bound


def _root(session: Session, value: PerfElem, k: int, why: str) -> PerfElem:
    """The p^k-th root of value, which level0 mode refuses off level 0."""
    out = value.pn_root(k)
    if session.mode == "level0" and out.level > 0:
        raise NotPerfectMode(f"root leaves Z_{session.p}(X){why}")
    return out


def _parse(parse, text: str, base: int):
    """parse(text), with error offsets shifted by base into the command line."""
    try:
        return parse(text)
    except SourceError as err:
        err.start += base
        err.end += base
        raise


def eval_text(session: Session, text: str, base: int = 0):
    return eval_ast(_parse(parser.parse_expression, text, base), session, base)


# -- value rendering -------------------------------------------------------------


def value_json(value) -> dict:
    if isinstance(value, PerfElem):
        out = {"kind": "element"}
        out.update(value.to_json())
        return out
    return {
        "kind": "poly",
        "mode": value.mode,
        "coeffs": [value_json(c) for c in value.coeffs],
    }


# -- command dispatch --------------------------------------------------------------


_WORD_RE = re.compile(r"\s*(\S+)\s*")


def run_command(line: str, session: Session) -> str | None:
    """Execute one command line; returns the output text (None for lines
    that produce none), raising structured errors otherwise."""
    if not line.strip() or line.lstrip().startswith("#"):
        return None
    m = _WORD_RE.match(line)
    word = m.group(1)
    handler = _COMMANDS.get(word)
    if handler is None:
        raise UnknownCommand(
            f"unknown command '{word}' (expected one of: {', '.join(sorted(_COMMANDS))})"
        )
    base = m.end()
    return handler(session, line[base:].rstrip(), base)


def _reply(session: Session, text: str, **fields) -> str:
    if not session.json_mode:
        return text
    payload = {"schema": 1, "ok": True}
    payload.update(fields)
    return json.dumps(payload)


def _cmd_let(session: Session, rest: str, base: int) -> str:
    m = _LET_RE.match(rest)
    if not m:
        raise UsageError("usage: let <name> = <expr>")
    name = m.group(1)
    if name in _RESERVED or name in session.var_index:
        raise UsageError(f"'{name}' is reserved and cannot be rebound")
    expr = m.group(2)
    value = eval_text(session, expr, base + m.start(2))
    session.bindings[name] = value
    return _reply(
        session, f"{name} = {value}", command="let", name=name, value=value_json(value)
    )


def _cmd_eval(session: Session, rest: str, base: int) -> str:
    if not rest:
        raise UsageError("usage: eval <expr>")
    value = eval_text(session, rest, base)
    return _reply(session, str(value), command="eval", value=value_json(value))


def _expr_then_int(session: Session, rest: str, base: int, default=None):
    node, stop = _parse(parser.parse_prefix, rest, base)
    tail = rest[stop:].strip()
    if not tail:
        if default is None:
            raise UsageError("missing trailing integer argument")
        k = default
    else:
        k = _int_arg(tail, f"expected an integer after the expression, got {tail!r}")
    value = eval_ast(node, session, base)
    return value, k, node


def _cmd_pthroot(session: Session, rest: str, base: int) -> str:
    if not rest:
        raise UsageError("usage: pthroot <expr> [k]")
    value, k, node = _expr_then_int(session, rest, base, default=1)
    if isinstance(value, UniPoly):
        raise UsageError("pthroot applies to field elements; use prootpoly for polynomials")
    if k < 0:
        raise UsageError("root depth must be non-negative")
    out = _at(node, base, _root, session, value, k, " in level0 mode")
    return _reply(session, str(out), command="pthroot", value=value_json(out))


def _cmd_frob(session: Session, rest: str, base: int) -> str:
    if not rest:
        raise UsageError("usage: frob <expr> [k]")
    value, k, _ = _expr_then_int(session, rest, base, default=1)
    if isinstance(value, UniPoly):
        raise UsageError("frob applies to field elements")
    if k < 0:
        raise UsageError("frobenius count must be non-negative")
    out = value.frobenius_iter(k)
    return _reply(session, str(out), command="frob", value=value_json(out))


def _cmd_level(session: Session, rest: str, base: int) -> str:
    if not rest:
        raise UsageError("usage: level <expr>")
    value = eval_text(session, rest, base)
    if isinstance(value, UniPoly):
        raise UsageError("level applies to field elements")
    return _reply(session, str(value.level), command="level", value=value.level)


def _on_poly(session: Session, rest: str, base: int, command: str, fn):
    """fn applied to the command's argument read as a polynomial in t."""
    if not rest:
        raise UsageError(f"usage: {command} <poly>")
    node = _parse(parser.parse_expression, rest, base)
    f = eval_ast(node, session, base)
    if isinstance(f, PerfElem):
        f = UniPoly.const(session.ctx, f, session.mode)
    return _at(node, base, fn, f)


def _cmd_issep(session: Session, rest: str, base: int) -> str:
    ans = _on_poly(session, rest, base, "issep", septools.is_separable)
    return _reply(session, "true" if ans else "false", command="issep", value=ans)


def _cmd_sqfree(session: Session, rest: str, base: int) -> str:
    dec = _on_poly(session, rest, base, "sqfree", septools.squarefree_decomposition)
    return _reply(
        session,
        str(dec),
        command="sqfree",
        unit=value_json(dec.unit),
        parts=[
            {"factor": value_json(g), "multiplicity": m} for g, m in dec.parts
        ],
    )


def _cmd_sepdec(session: Session, rest: str, base: int) -> str:
    dec = _on_poly(session, rest, base, "sepdec", septools.separable_decomposition)
    return _reply(
        session,
        f"s = {dec.s}, e = {dec.e}",
        command="sepdec",
        s=value_json(dec.s),
        e=dec.e,
    )


def _cmd_prootpoly(session: Session, rest: str, base: int) -> str:
    g = _on_poly(session, rest, base, "prootpoly", septools.pth_root_poly)
    return _reply(session, str(g), command="prootpoly", value=value_json(g))


_INT_RE = re.compile(r"-?([0-9]+)\Z")


def _int_arg(text: str, usage: str) -> int:
    """An ASCII decimal integer argument of at most MAX_LITERAL_DIGITS digits."""
    m = _INT_RE.match(text)
    if not m:
        raise UsageError(usage)
    if len(m.group(1)) > parser.MAX_LITERAL_DIGITS:
        raise UsageError(
            f"integer argument of {len(m.group(1))} digits exceeds the limit of "
            f"{parser.MAX_LITERAL_DIGITS} digits"
        )
    return int(text)


def _ints(parts: list[str], n: int, usage: str) -> list[int]:
    if len(parts) != n:
        raise UsageError(usage)
    return [_int_arg(s, usage) for s in parts]


def _make_field(p: int, n: int) -> fqtower.FqField:
    """fqtower.make_field, reporting a non-prime p or an n < 1 as a usage
    error; make_field checks its size bound before it tests primality."""
    try:
        return fqtower.make_field(p, n)
    except ValueError as err:
        raise UsageError(str(err)) from err


def _cmd_fq(session: Session, rest: str, base: int) -> str:
    parts = rest.split()
    if not parts:
        raise UsageError(
            "usage: fq make|frob|invfrob|perfect-check|embed ..."
        )
    sub, args = parts[0], parts[1:]
    if sub == "make":
        p, n = _ints(args, 2, "usage: fq make <p> <n>")
        field = _make_field(p, n)
        return _reply(
            session,
            f"F_{p}^{n}: modulus {field.modulus_str()}",
            command="fq make",
            p=p,
            n=n,
            modulus=field.modulus_str(),
        )
    if sub in ("frob", "invfrob"):
        p, n, enc = _ints(args, 3, f"usage: fq {sub} <p> <n> <element-encoding>")
        field = _make_field(p, n)
        if not 0 <= enc < field.order:
            raise UsageError(
                f"element encoding must lie in [0, {field.order}), got {enc}"
            )
        a = field.from_encoding(enc)
        out = a.frobenius() if sub == "frob" else a.inv_frobenius()
        return _reply(
            session,
            f"{out} (encoding {out.encode()})",
            command=f"fq {sub}",
            result=str(out),
            encoding=out.encode(),
        )
    if sub == "perfect-check":
        p, n = _ints(args, 2, "usage: fq perfect-check <p> <n>")
        report = fqtower.check_perfect(_make_field(p, n))
        return _reply(
            session,
            report.summary(),
            command="fq perfect-check",
            passed=report.passed,
            size=report.size,
            order=report.order,
        )
    if sub == "embed":
        p, m, n, enc = _ints(args, 4, "usage: fq embed <p> <m> <n> <element-encoding>")
        source = _make_field(p, m)
        target = _make_field(p, n)
        if not 0 <= enc < source.order:
            raise UsageError(
                f"element encoding must lie in [0, {source.order}), got {enc}"
            )
        out = fqtower.embed(source.from_encoding(enc), target)
        return _reply(
            session,
            f"{out} (encoding {out.encode()})",
            command="fq embed",
            result=str(out),
            encoding=out.encode(),
        )
    raise UsageError(f"unknown fq subcommand '{sub}'")


def _cmd_mode(session: Session, rest: str, base: int) -> str:
    if rest not in ("perfect", "level0"):
        raise UsageError("usage: mode perfect|level0")
    session.mode = rest
    return _reply(session, f"mode = {rest}", command="mode", value=rest)


def _cmd_json(session: Session, rest: str, base: int) -> str:
    if rest not in ("on", "off"):
        raise UsageError("usage: json on|off")
    session.json_mode = rest == "on"
    return _reply(session, f"json = {rest}", command="json", value=rest)


_COMMANDS = {
    "let": _cmd_let,
    "eval": _cmd_eval,
    "pthroot": _cmd_pthroot,
    "frob": _cmd_frob,
    "level": _cmd_level,
    "issep": _cmd_issep,
    "sqfree": _cmd_sqfree,
    "sepdec": _cmd_sepdec,
    "prootpoly": _cmd_prootpoly,
    "fq": _cmd_fq,
    "mode": _cmd_mode,
    "json": _cmd_json,
}


# -- error rendering and process entry ------------------------------------------------


def classify_exit(err: Exception) -> int:
    """2 for usage/parse problems, 1 for evaluation failures."""
    if isinstance(err, (ParseError, UnknownVariable, UsageError)):
        return 2
    return 1


def render_error(err: Exception, json_mode: bool) -> str:
    if json_mode:
        payload: dict = {
            "schema": 1,
            "ok": False,
            "error": {"kind": type(err).__name__, "message": str(err)},
        }
        if isinstance(err, SourceError):
            payload["error"]["start"] = err.start
            payload["error"]["end"] = err.end
        return json.dumps(payload)
    if isinstance(err, SourceError):
        if err.start == err.end:
            return f"error[offset {err.start}]: {err}"
        return f"error[{err.start}..{err.end}]: {err}"
    return f"error: {err}"


def _run_lines(lines, session: Session, keep_going: bool) -> int:
    worst = 0
    for line in lines:
        try:
            out = run_command(line, session)
        except PerffieldError as err:
            code = classify_exit(err)
            print(render_error(err, session.json_mode), file=sys.stderr)
            if not keep_going:
                return code
            worst = max(worst, code)
            continue
        if out is not None:
            print(out)
    return worst


def _repl(session: Session) -> int:
    print(
        f"perffield: p={session.p}, vars={session.ctx.nvars}, mode={session.mode} "
        f"(commands: {', '.join(sorted(_COMMANDS))})"
    )
    while True:
        try:
            line = input("perffield> ")
        except EOFError:
            print()
            return 0
        except KeyboardInterrupt:
            print()
            continue
        try:
            out = run_command(line, session)
        except PerffieldError as err:
            print(render_error(err, session.json_mode), file=sys.stderr)
            continue
        if out is not None:
            print(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="perffield",
        description=(
            "calculator for the perfect closure of Z_p(x1..xd): expression "
            "evaluation, p-th roots, separability decompositions, and finite "
            "subfield checks"
        ),
    )
    ap.add_argument("--p", type=int, default=2, help="prime characteristic (default 2)")
    ap.add_argument("--vars", type=int, default=1, help="number of ground variables")
    ap.add_argument(
        "--mode", choices=("perfect", "level0"), default="perfect",
        help="perfect closure, or its level-0 subfield Z_p(X)",
    )
    ap.add_argument("--script", metavar="FILE", help="run commands from FILE and exit")
    ap.add_argument("--json", action="store_true", help="start with JSON output on")
    ap.add_argument(
        "--max-level", type=int, default=DEFAULT_MAX_LEVEL,
        help="cap on root-taking depth",
    )
    ap.add_argument(
        "--keep-going", action="store_true",
        help="in batch mode, report errors but keep running",
    )
    args = ap.parse_args(argv)

    try:
        session = Session(
            args.p, args.vars, mode=args.mode, max_level=args.max_level,
            json_mode=args.json,
        )
    except (ValueError, UsageError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if args.script:
        try:
            with open(args.script, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as err:
            print(f"error: cannot read script: {err}", file=sys.stderr)
            return 2
        return _run_lines(lines, session, args.keep_going)

    if sys.stdin.isatty():
        return _repl(session)
    lines = (line.rstrip("\n") for line in sys.stdin)
    return _run_lines(lines, session, args.keep_going)


if __name__ == "__main__":
    sys.exit(main())
