"""Tests for the command interface: output text, JSON mode, exit codes."""

import json
import os
import re
import subprocess
import sys
import time

import pytest

from perffield.cli import Session, classify_exit, render_error, run_command
from perffield.errors import (
    BoundExceeded,
    EvalError,
    NotPerfectMode,
    ParseError,
    PerffieldError,
    UnknownCommand,
    UnknownVariable,
    UsageError,
)


def run(session, line):
    return run_command(line, session)


def test_eval_basic():
    s = Session(2, 2)
    assert run(s, "eval x1 + x1") == "0"
    assert run(s, "eval x1*x2 + 1") == "x1*x2 + 1"
    s3 = Session(3, 1)
    assert run(s3, "eval x1 + x1") == "2*x1"
    assert run(s3, "eval 2*x1 + 2*x1") == "x1"


def test_blank_and_comment_lines():
    s = Session(2, 1)
    assert run(s, "") is None
    assert run(s, "   ") is None
    assert run(s, "# a comment") is None


def test_let_and_reuse():
    s = Session(2, 2)
    assert run(s, "let a = x1 + 1") == "a = x1 + 1"
    assert run(s, "eval a*a") == "x1^2 + 1"


def test_let_rejects_reserved_names():
    s = Session(2, 2)
    for name in ("t", "root", "x1", "x2"):
        with pytest.raises(UsageError):
            run(s, f"let {name} = 1")


def test_pthroot():
    s = Session(2, 1)
    assert run(s, "pthroot x1") == "root(x1,1)"
    assert run(s, "pthroot x1 2") == "root(x1,2)"
    with pytest.raises(UsageError):
        run(s, "pthroot t^2")


def test_frob():
    s = Session(2, 1)
    assert run(s, "frob root(x1,2)") == "root(x1,1)"
    assert run(s, "frob x1 2") == "x1^4"


def test_frob_bounded_before_work():
    # each would build exponents of 20000+ bits, or loop 10^11 times
    for p, line in [(2, "frob x1 20000"), (3, "frob x1+x1^2 200000"), (5, "frob 1 100000000000")]:
        s = Session(p, 1)
        start = time.perf_counter()
        with pytest.raises(BoundExceeded) as exc:
            run(s, line)
        assert time.perf_counter() - start < 1.0
        assert classify_exit(exc.value) == 1
    s = Session(2, 1)
    assert run(s, "frob x1 4095") == f"x1^{2**4095}"
    with pytest.raises(BoundExceeded):
        run(s, "frob x1 4096")
    # the first `level` steps only lower the level
    assert run(s, "frob root(x1,40) 40") == "x1"


def test_level():
    s = Session(2, 1)
    assert run(s, "level root(x1,2)") == "2"
    assert run(s, "level 5") == "0"
    assert run(s, "level x1") == "0"


def test_issep():
    s = Session(2, 1)
    assert run(s, "issep t^2 + x1") == "false"
    assert run(s, "issep t^2 + t + 1") == "true"


def test_sqfree():
    s = Session(2, 1)
    assert run(s, "sqfree (t+1)^2 * (t+x1)") == "(t + x1) * (t + 1)^2"
    assert run(s, "sqfree t^2 + x1") == "(t + root(x1,1))^2"


def test_sepdec():
    s = Session(2, 1)
    assert run(s, "sepdec t^4 + x1*t^2 + x1") == "s = t^2 + x1*t + x1, e = 1"
    s3 = Session(3, 1)
    assert run(s3, "sepdec t^3 + x1") == "s = t + x1, e = 1"


def test_prootpoly():
    s = Session(2, 1)
    assert run(s, "prootpoly t^2 - x1") == "t + root(x1,1)"
    s3 = Session(3, 1)
    assert run(s3, "prootpoly t^3 - x1") == "t + 2*root(x1,1)"


def test_fq_commands():
    s = Session(2, 1)
    assert run(s, "fq make 2 2") == "F_2^2: modulus t^2 + t + 1"
    assert run(s, "fq frob 2 2 2") == "t + 1 (encoding 3)"
    assert run(s, "fq invfrob 2 2 3") == "t (encoding 2)"
    assert (
        run(s, "fq perfect-check 3 3")
        == "pass: Frobenius bijective on 27 elements, order 3"
    )
    assert run(s, "fq embed 2 2 4 2") == "t^2 + t (encoding 6)"


def test_fq_usage_errors():
    s = Session(2, 1)
    with pytest.raises(UsageError):
        run(s, "fq")
    with pytest.raises(UsageError):
        run(s, "fq make 2")
    with pytest.raises(UsageError):
        run(s, "fq frob 2 2 99")
    with pytest.raises(UsageError):
        run(s, "fq teleport 2 2")


def test_power_bounded_before_work():
    # nested powers multiply exponents: five 900-digit factors would need
    # an exponent of 4500 digits, past what even prints
    nines = "9" * 900
    line = "eval " + "(" * 5 + "x1" + "".join(f"^{nines})" for _ in range(5))
    s = Session(2, 2)
    start = time.perf_counter()
    with pytest.raises(EvalError, match="BoundExceeded") as exc:
        run(s, line)
    assert time.perf_counter() - start < 1.0
    assert classify_exit(exc.value) == 1
    # the largest exponent may have up to MAX_FROB_EXP_BITS = 4096 bits
    half = 2**2000
    assert run(s, f"eval (x1^{half})^{2**2095}") == f"x1^{2**4095}"
    assert run(s, f"eval (x1^{half} / x2)^{-(2**2095)}") == f"x2^{2**2095} / x1^{2**4095}"
    with pytest.raises(EvalError, match="BoundExceeded"):
        run(s, f"eval (x1^{half})^{2**2096}")
    assert run(s, f"eval 3^{nines}") == "1"


def test_power_bounded_by_result_terms():
    # (x1+x2+x3+1)^4096 at p = 101 has about 4 * 10^8 terms; the bound
    # refuses it from the base-p digits of the exponent, before any work
    s = Session(101, 3)
    for line in ("eval (x1+x2+x3+1)^4096", "eval 1/(x1+x2+x3+1)^64"):
        start = time.perf_counter()
        with pytest.raises(EvalError, match="BoundExceeded") as exc:
            run(s, line)
        assert time.perf_counter() - start < 1.0
        assert classify_exit(exc.value) == 1
    # 6545 terms, under MAX_POWER_TERMS
    out = run(s, "eval (x1+x2+x3+1)^32")
    assert out.count(" + ") == 6544
    # 10 * 101: each digit is small, and so is the work
    out = run(s, "eval (x1+x2+x3+1)^1010")
    assert out.count(" + ") == 285
    assert out.startswith("x1^1010 + 10*x1^909*x2^101")
    # at p = 2 a power of 2 is a pure Frobenius with 4 terms, however
    # large; 8191 has 13 binary digits 1, so its power has 4^13 terms
    s2 = Session(2, 3)
    assert run(s2, "eval (x1+x2+x3+1)^4096") == "x1^4096 + x2^4096 + x3^4096 + 1"
    assert run(s2, "eval (x1+x2+x3+1)^8192") == "x1^8192 + x2^8192 + x3^8192 + 1"
    start = time.perf_counter()
    with pytest.raises(EvalError, match="BoundExceeded"):
        run(s2, "eval (x1+x2+x3+1)^8191")
    assert time.perf_counter() - start < 1.0


def test_power_bound_exits_1_without_traceback():
    start = time.perf_counter()
    proc = cli("--p", "101", "--vars", "3", stdin="eval (x1+x2+x3+1)^4096\n")
    assert proc.returncode == 1
    assert "more than 32768 terms" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert time.perf_counter() - start < 10.0


def test_mode_switch_enforces_level0():
    s = Session(2, 1)
    assert run(s, "mode level0") == "mode = level0"
    with pytest.raises(EvalError) as exc:
        run(s, "pthroot x1")
    assert isinstance(exc.value.cause, NotPerfectMode)
    assert run(s, "mode perfect") == "mode = perfect"
    assert run(s, "pthroot x1") == "root(x1,1)"


def test_level0_blocks_rooted_binding():
    s = Session(2, 1)
    run(s, "let a = root(x1,1)")
    run(s, "mode level0")
    with pytest.raises(EvalError):
        run(s, "eval a")


def test_unknown_command():
    s = Session(2, 1)
    with pytest.raises(UnknownCommand) as exc:
        run(s, "bogus cmd")
    assert "unknown command 'bogus'" in str(exc.value)
    assert "eval" in str(exc.value)


def test_unknown_variable_span():
    s = Session(2, 1)
    with pytest.raises(UnknownVariable) as exc:
        run(s, "eval x9")
    assert exc.value.span == (5, 7)


def test_parse_error_offset_shifted_past_command_word():
    s = Session(2, 1)
    with pytest.raises(ParseError) as exc:
        run(s, "eval x1 +")
    assert exc.value.offset == 9
    with pytest.raises(ParseError) as exc:
        run(s, "let b = x1 +")
    assert exc.value.offset == 12


def test_json_mode():
    s = Session(2, 1, json_mode=True)
    out = json.loads(run(s, "eval x1"))
    assert out == {
        "schema": 1,
        "ok": True,
        "command": "eval",
        "value": {
            "kind": "element",
            "level": 0,
            "num": [[[1], 1]],
            "den": [[[0], 1]],
        },
    }
    poly = json.loads(run(s, "prootpoly t^2 - x1"))
    assert poly["value"]["kind"] == "poly"
    assert poly["value"]["mode"] == "perfect"
    assert len(poly["value"]["coeffs"]) == 2


def test_json_toggle():
    s = Session(2, 1)
    assert run(s, "json on") == '{"schema": 1, "ok": true, "command": "json", "value": "on"}'
    assert json.loads(run(s, "level x1"))["value"] == 0
    assert run(s, "json off") == "json = off"


def test_classify_exit():
    assert classify_exit(ParseError(0, {"x"}, "y")) == 2
    assert classify_exit(UnknownVariable("x9", 0, 2)) == 2
    assert classify_exit(UsageError("bad")) == 2
    assert classify_exit(EvalError(NotPerfectMode("no"), 0, 1)) == 1


def test_render_error_text():
    err = UnknownVariable("x9", 5, 7)
    assert render_error(err, False) == "error[5..7]: unknown variable 'x9'"
    perr = ParseError(4, {"a name"}, "end of input")
    assert render_error(perr, False) == (
        "error[offset 4]: expected a name, found end of input"
    )
    assert render_error(UsageError("usage: eval <expr>"), False) == (
        "error: usage: eval <expr>"
    )


def test_render_error_json():
    err = UnknownVariable("x9", 5, 7)
    payload = json.loads(render_error(err, True))
    assert payload == {
        "schema": 1,
        "ok": False,
        "error": {
            "kind": "UnknownVariable",
            "message": "unknown variable 'x9'",
            "start": 5,
            "end": 7,
        },
    }


# -- whole-process behavior ----------------------------------------------------


def cli(*args, stdin=""):
    proc = subprocess.run(
        [sys.executable, "-m", "perffield.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=os.environ.copy(),
        timeout=120,
    )
    return proc


def test_exit_codes():
    assert cli(stdin="eval x1\n").returncode == 0
    assert cli(stdin="eval x9\n").returncode == 2
    assert cli(stdin="eval 1/(x1 - x1)\n").returncode == 1
    assert cli(stdin="eval x1 +\n").returncode == 2


def test_batch_output_and_stderr():
    proc = cli(stdin="eval x1\neval x9\n")
    assert proc.stdout == "x1\n"
    assert proc.stderr == "error[5..7]: unknown variable 'x9'\n"
    assert proc.returncode == 2


def test_batch_stops_at_first_error():
    proc = cli(stdin="eval x9\neval x1\n")
    assert proc.stdout == ""
    assert proc.returncode == 2


def test_keep_going_reports_worst_code():
    script = "eval 1/(x1 - x1)\neval x1\neval x9\n"
    proc = cli("--keep-going", stdin=script)
    assert proc.stdout == "x1\n"
    assert proc.returncode == 2
    assert proc.stderr.count("error") == 2


def test_flag_validation():
    assert cli("--p", "4", stdin="").returncode == 2
    assert cli("--max-level", "-1", stdin="").returncode == 2
    # each refused before any work: a huge p is not trial-divided, and no
    # session is built for too many variables or too deep a level cap
    for args, stdin in [
        (("--p", "1000000000000000003"), ""),
        (("--p", "2147483659"), ""),
        (("--vars", "2000000"), ""),
        (("--vars", "-1"), ""),
        (
            ("--p", "2", "--vars", "2", "--max-level", "100000"),
            "eval root(x1, 20000) + x2\n",
        ),
        (("--max-level", "100000000"), "eval root(1, 3000000)\n"),
    ]:
        start = time.perf_counter()
        proc = cli(*args, stdin=stdin)
        assert time.perf_counter() - start < 2.0, args
        assert proc.returncode == 2, args
        assert proc.stderr.startswith("error: "), args
        assert "Traceback" not in proc.stderr, args
    # the default level cap passes for the largest supported prime
    assert cli("--p", "2147483647", stdin="eval x1\n").returncode == 0


def test_script_file(tmp_path):
    script = tmp_path / "demo.pf"
    script.write_text("let a = x1 + 1\neval a^2\nlevel root(x1,2)\n")
    proc = cli("--p", "2", "--script", str(script))
    assert proc.returncode == 0
    assert proc.stdout == "a = x1 + 1\nx1^2 + 1\n2\n"


def test_missing_script_file(tmp_path):
    proc = cli("--script", str(tmp_path / "nope.pf"))
    assert proc.returncode == 2
    assert "cannot read script" in proc.stderr


def test_batch_deterministic():
    script = (
        "let a = root(x1,1) + x2\n"
        "eval a*a\n"
        "sqfree t^4 + x1^2\n"
        "fq perfect-check 2 4\n"
        "json on\n"
        "eval a\n"
    )
    first = cli("--p", "2", "--vars", "2", stdin=script)
    second = cli("--p", "2", "--vars", "2", stdin=script)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr == ""


def test_json_error_output():
    proc = cli("--json", stdin="eval x9\n")
    payload = json.loads(proc.stderr)
    assert payload["ok"] is False
    assert payload["error"]["kind"] == "UnknownVariable"
    assert proc.returncode == 2


def test_level0_session_flag():
    proc = cli("--mode", "level0", stdin="pthroot x1\n")
    assert proc.returncode == 1
    assert "NotPerfectMode" in proc.stderr


def test_oversized_integer_literals_are_errors():
    big = "1" * 5000
    for line in (f"eval {big}", f"fq frob 2 3 {big}", f"frob x1 {big}", "fq make 2 \u00b2"):
        proc = cli(stdin=line + "\n")
        assert proc.returncode == 2, line[:20]
        assert proc.stderr.startswith("error"), proc.stderr[:200]
        assert "Traceback" not in proc.stderr


def test_frob_bound_exits_1_without_traceback():
    proc = cli("--p", "2", stdin="frob x1 20000\n")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: frob 20000")
    assert "Traceback" not in proc.stderr


def test_fq_bad_prime_or_degree_is_usage_error():
    lines = (
        "fq make 4 2",
        "fq make 2 0",
        "fq frob 4 2 1",
        "fq invfrob 2 0 0",
        "fq perfect-check 6 1",
        "fq perfect-check 3 -1",
        "fq embed 4 1 2 0",
        "fq embed 2 0 2 0",
    )
    for line in lines:
        proc = cli(stdin=line + "\n")
        assert proc.returncode == 2, line
        assert proc.stderr.startswith("error: "), proc.stderr[:200]
        assert "Traceback" not in proc.stderr, line


# -- pinned error rendering ------------------------------------------------------

_HALF = 2**2000
_BIG_POW = f"eval (x1^{_HALF})^{2**2096}"

# (p, vars, setup lines, line, kind, text line, exit code); the JSON
# message is the text line without its "error...: " prefix
_PINNED_ERRORS = [
    (2, 1, [], "eval 1/(x1-x1)", "EvalError",
     "error[5..14]: DivisionByZero: division by zero in the perfect closure", 1),
    (2, 1, [], "eval -(1/(x1-x1))", "EvalError",
     "error[6..17]: DivisionByZero: division by zero in the perfect closure", 1),
    (2, 1, [], "eval (t+1)^(-1)", "EvalError",
     "error[5..15]: ValueError: polynomials cannot be raised to negative powers", 1),
    (2, 1, [], "eval root(t,1)", "EvalError",
     "error[5..14]: UsageError: the indeterminate t cannot appear under root(...)", 1),
    (2, 1, [], "eval (t^2)/(t+1)", "EvalError",
     "error[5..16]: NotDivisible: inexact polynomial division", 1),
    (2, 1, [], "eval root(x1,65)", "EvalError",
     "error[5..16]: LevelOverflow: p^65-th root would exceed the session level cap 64", 1),
    (2, 1, ["mode level0"], "eval x1 + root(x1,1)", "EvalError",
     "error[10..20]: NotPerfectMode: root leaves Z_2(X); level0 mode has no p-th "
     "roots for this element", 1),
    (2, 1, ["let q = t + root(x1,1)", "mode level0"], "eval q", "EvalError",
     "error[5..6]: NotPerfectMode: coefficient root(x1,1) has level 1; level0 mode "
     "is confined to Z_2(X)", 1),
    (2, 1, ["let a = root(x1,1)", "mode level0"], "eval 1 + a", "EvalError",
     "error[9..10]: NotPerfectMode: binding 'a' lies outside Z_2(X)", 1),
    (2, 1, ["mode level0"], "pthroot x1 + 1", "EvalError",
     "error[8..14]: NotPerfectMode: root leaves Z_2(X) in level0 mode", 1),
    (2, 1, [], "pthroot x1 65", "EvalError",
     "error[8..10]: LevelOverflow: p^65-th root would exceed the session level cap 64", 1),
    (2, 1, [], "pthroot t 1", "UsageError",
     "error: pthroot applies to field elements; use prootpoly for polynomials", 2),
    (2, 1, [], "issep 1", "EvalError",
     "error[6..7]: ConstantPolynomial: separability is about nonconstant polynomials", 1),
    (2, 1, [], "sqfree x1", "EvalError",
     "error[7..9]: ConstantPolynomial: squarefree decomposition needs a nonconstant "
     "input", 1),
    (2, 1, [], "sepdec  x1 + 1", "EvalError",
     "error[8..14]: ConstantPolynomial: separable decomposition needs a nonconstant "
     "input", 1),
    (2, 1, [], "prootpoly t + x1", "EvalError",
     "error[10..16]: DerivativeNonzero: input has nonzero derivative; it is not a "
     "p-th power", 1),
    (2, 1, [], "sqfree t +", "ParseError",
     "error[offset 10]: expected '(', '-', a name, a number, found end of input", 2),
    (2, 1, [], "frob x1 +", "ParseError",
     "error[offset 9]: expected '(', '-', a name, a number, found end of input", 2),
    (2, 1, [], "frob x1 y", "UsageError",
     "error: expected an integer after the expression, got 'y'", 2),
    (2, 1, [], "let b = x9 + 1", "UnknownVariable",
     "error[8..10]: unknown variable 'x9'", 2),
    (2, 1, [], "eval t^70000", "EvalError",
     "error[5..12]: BoundExceeded: resulting t-degree 70000 exceeds the limit 65536", 1),
    (2, 1, [], "frob x1 4096", "BoundExceeded",
     "error: frob 4096 would raise level-0 exponents past 4096 bits", 1),
    (101, 3, [], "eval (x1+x2+x3+1)^4096", "EvalError",
     "error[5..22]: BoundExceeded: the power could produce more than 32768 terms", 1),
    (101, 3, [], "eval 1/(x1+x2+x3+1)^64", "EvalError",
     "error[7..22]: BoundExceeded: the power could produce more than 32768 terms", 1),
    (2, 2, [], _BIG_POW, "EvalError",
     f"error[5..{len(_BIG_POW)}]: BoundExceeded: the power would raise exponents "
     "past 4096 bits", 1),
]


@pytest.mark.parametrize(
    "p, nvars, setup, line, kind, text, code",
    _PINNED_ERRORS,
    ids=[case[3][:24] for case in _PINNED_ERRORS],
)
def test_pinned_error_rendering(p, nvars, setup, line, kind, text, code):
    prefix, message = text.split(": ", 1)
    span = re.fullmatch(r"error\[(?:offset (\d+)|(\d+)\.\.(\d+))\]", prefix)
    for json_mode in (False, True):
        s = Session(p, nvars)
        for before in setup:
            run(s, before)
        s.json_mode = json_mode
        with pytest.raises(PerffieldError) as exc:
            run(s, line)
        assert classify_exit(exc.value) == code
        rendered = render_error(exc.value, json_mode)
        if not json_mode:
            assert rendered == text
            continue
        error = {"kind": kind, "message": message}
        if span:
            start, end = span.group(1, 1) if span.group(1) else span.group(2, 3)
            error.update(start=int(start), end=int(end))
        assert json.loads(rendered) == {"schema": 1, "ok": False, "error": error}


def test_long_chains_evaluate_without_recursion():
    # left-deep chains are walked in a loop, so their length is not
    # limited by the interpreter's recursion limit
    total = "+".join(["x1"] * 5000)
    powers = "x1" + "^1" * 5000
    s = Session(7, 2)
    assert run(s, f"eval {total}") == "2*x1"  # 5000 = 2 mod 7
    assert run(s, f"eval {powers}") == "x1"
    assert run(s, "eval " + "*".join(["x2"] * 5000)) == "x2^5000"
    proc = cli("--p", "7", "--vars", "2", stdin=f"eval {total}\neval {powers}\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "2*x1\nx1\n", "")


def test_long_chain_error_keeps_the_failing_node_span():
    head = "+".join(["x1"] * 3000) + "+"
    s = Session(7, 2)
    for tail, failing in [
        ("1/(x2-x2)+x1", "1/(x2-x2)"),
        ("x2*(t+x1)^(-1)^2*x1", "(t+x1)^(-1)"),
        ("x1^2^0/(x1-x1)^3", "x1^2^0/(x1-x1)^3"),
    ]:
        line = f"eval {head}{tail}"
        with pytest.raises(EvalError) as exc:
            run(s, line)
        start = line.index(failing)
        assert (exc.value.start, exc.value.end) == (start, start + len(failing)), tail


def test_cli_import_leaves_numpy_unloaded():
    # numpy loads only when a finite-field sweep or root search runs
    code = (
        "import sys, perffield.cli\n"
        "from perffield import fqtower\n"
        "loaded = 'numpy' in sys.modules\n"
        "fqtower.check_perfect(fqtower.make_field(2, 3))\n"
        "print(loaded, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=os.environ.copy(),
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "False True\n"), proc.stderr
