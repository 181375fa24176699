"""Tests for the command interface: output text, JSON mode, exit codes."""

import argparse
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time

import pytest

from perffield import cli as cli_module
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
from perffield.fqtower import make_field


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


def test_let_takes_only_the_parsers_name_characters():
    # Unicode letters and digits match a regex \w but are not parser names
    s = Session(2, 2)
    for name in ("a\u00e9", "b\u0663"):
        with pytest.raises(UsageError, match="usage: let"):
            run(s, f"let {name} = x1")
    assert run(s, "let a_1 = x1") == "a_1 = x1"


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


def test_fq_element_commands_in_json_mode():
    s = Session(2, 1)
    s.json_mode = True
    for line, command, result, encoding in (
        ("fq frob 2 2 2", "fq frob", "t + 1", 3),
        ("fq invfrob 2 2 3", "fq invfrob", "t", 2),
        ("fq embed 2 2 4 2", "fq embed", "t^2 + t", 6),
    ):
        assert run(s, line) == json.dumps(
            {"schema": 1, "ok": True, "command": command, "result": result, "encoding": encoding}
        )
    # the encoding is read in the source field, after both fields are made
    for line, message in (
        ("fq embed 2 2 4 4", "element encoding must lie in [0, 4), got 4"),
        ("fq embed 2 2 3 4", "element encoding must lie in [0, 4), got 4"),
        ("fq embed 2 2 0 4", "extension degree must be a positive integer, got 0"),
    ):
        with pytest.raises(UsageError) as exc:
            run(s, line)
        assert json.loads(render_error(exc.value, True)) == {
            "schema": 1, "ok": False, "error": {"kind": "UsageError", "message": message}
        }


def test_fq_frob_and_invfrob_build_no_tables():
    # both are the packed ring's image of the encoding under the packed
    # rows of Q or of its inverse, so a one-shot line pays for no log
    # table (tens of ms at F_{2^14})
    make_field.cache_clear()
    s = Session(2, 1)
    assert run(s, "fq frob 2 14 5") == "t^4 + 1 (encoding 17)"
    assert run(s, "fq invfrob 5 3 7") == "t^2 + 3*t + 1 (encoding 41)"
    for p, n in ((2, 14), (5, 3)):
        field = make_field(p, n)
        assert field._arith is None


def test_fq_embed_builds_no_tables():
    # the embedding is F_p-linear: the target ring's image of the encoding
    # under the packed rows r^i, which that ring multiplies out, so neither
    # field pays for a log table
    make_field.cache_clear()
    s = Session(2, 1)
    assert run(s, "fq embed 2 7 14 5") == (
        "t^13 + t^11 + t^10 + t^8 + t^7 + t^4 + 1 (encoding 11665)"
    )
    assert run(s, "fq embed 5 2 6 7") == "2*t^5 + 4*t^4 + 3*t^2 + 3*t + 2 (encoding 8842)"
    for p, n in ((2, 7), (2, 14), (5, 2), (5, 6)):
        field = make_field(p, n)
        assert field._arith is None


@pytest.mark.parametrize(
    "json_mode, digest", [(False, "80c2b106632a4178"), (True, "472ae86004baf9e6")]
)
def test_fq_replies_over_every_encoding_are_unchanged(json_mode, digest):
    # every make, perfect-check, frob and invfrob of F_{2^4}, F_{3^3} and
    # F_{5^2}, and every embed into them; the digests were recorded when
    # elements were residue tuples with no tables
    s = Session(2, 1, json_mode=json_mode)
    out = []
    for p, n in ((2, 4), (3, 3), (5, 2)):
        lines = [f"fq make {p} {n}", f"fq perfect-check {p} {n}"]
        for enc in range(p**n):
            lines += [f"fq frob {p} {n} {enc}", f"fq invfrob {p} {n} {enc}"]
        for m in range(1, n + 1):
            if n % m == 0:
                lines += [f"fq embed {p} {m} {n} {enc}" for enc in range(p**m)]
        out += [run(s, line) for line in lines]
    assert len(out) == 224
    assert hashlib.sha256("\n".join(out).encode()).hexdigest()[:16] == digest


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


def test_unipoly_power_bounded_by_result_terms():
    # at p = 2, (t+x1+x2+1)^(2^k - 1) has 4^k terms in x1, x2 and t; the
    # bound reads the base as one polynomial in them, before any work
    s = Session(2, 2)
    for line in (
        "eval (t+x1+x2+1)^255",
        "eval (t+x1+x2+1)^1023",
        # the numerators t + 1 pass; the denominator's power has 3^10 terms
        "eval (t/(x1+x2+1) + 1)^1023",
    ):
        start = time.perf_counter()
        with pytest.raises(EvalError, match="more than 32768 terms") as exc:
            run(s, line)
        assert time.perf_counter() - start < 1.0, line
        assert isinstance(exc.value.cause, BoundExceeded)
    out = run(s, "eval (t+x1+x2+1)^127")
    assert out.count(" + ") == 4**7 - 1
    assert out.startswith("t^127 + (x1 + x2 + 1)*t^126 + ")


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


def test_mode_refusals_name_the_modes(capsys):
    with pytest.raises(UsageError, match=r"^mode must be 'perfect' or 'level0', got 'bad'$"):
        Session(2, 1, mode="bad")
    with pytest.raises(UsageError, match=r"^usage: mode perfect\|level0$"):
        run(Session(2, 1), "mode bad")
    # argparse words the refusal itself, so compare with a parser that
    # lists the modes literally
    ref = argparse.ArgumentParser(prog="perffield")
    ref.add_argument("--mode", choices=("perfect", "level0"))
    for parse in (ref.parse_args, cli_module.main):
        with pytest.raises(SystemExit):
            parse(["--mode", "bad"])
    want, got = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert "invalid choice: 'bad'" in got and got == want


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


def test_repl_reports_errors_and_ends_at_eof(monkeypatch, capsys):
    # an interrupt at the prompt gives a new prompt, an error goes to
    # stderr and the loop goes on, and end of input exits 0
    replies = iter(["eval x1 + 1", KeyboardInterrupt, "eval x9", "eval x1^2", EOFError])

    def fake_input(prompt):
        assert prompt == "perffield> "
        reply = next(replies)
        if isinstance(reply, str):
            return reply
        raise reply

    monkeypatch.setattr("builtins.input", fake_input)
    assert cli_module._repl(Session(3, 1)) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[1:] == ["x1 + 1", "", "x1^2", ""]
    assert out.startswith("perffield: p=3, vars=1, mode=perfect (commands: ")
    assert err == "error[5..7]: unknown variable 'x9'\n"


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


@pytest.mark.parametrize(
    "data, out",
    [
        (b"eval x1\n\xff\xfe eval 1\n", b"x1\n"),
        # only "\n" ends a line, so the form feed is inside one command
        (b"eval x1\x0ceval 2\n", b""),
    ],
)
def test_script_reads_like_stdin(tmp_path, data, out):
    script = tmp_path / "bad.pf"
    script.write_bytes(data)
    # a strict decoder is what a UTF-8 locale other than C.UTF-8 gives stdin
    strict = {**os.environ, "PYTHONIOENCODING": "utf-8:strict"}
    runs = [
        subprocess.run(
            [sys.executable, "-m", "perffield.cli", *args],
            input=stdin, capture_output=True, env=env, timeout=120,
        )
        for env in (os.environ.copy(), strict)
        for args, stdin in ((("--script", str(script)), b""), ((), data))
    ]
    for proc in runs:
        assert proc.returncode == 2
        assert proc.stdout == out
        assert b"Traceback" not in proc.stderr
    assert len({proc.stderr for proc in runs}) == 1


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


def test_refused_fq_bounds_leave_numpy_unloaded():
    # make_field's bounds and the embeddability check come before numpy,
    # and a sweep that the bounds refuse through the CLI exits 1 without
    # importing it
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "perffield.cli"],
        input="fq perfect-check 2 17\n",
        capture_output=True,
        text=True,
        env=os.environ.copy(),
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1 and not re.search(r"\bnumpy\b", out), out
    code = (
        "import sys\n"
        "from perffield import fqtower\n"
        "from perffield.errors import BoundExceeded, NoEmbedding\n"
        "for refused, error in (\n"
        "    (lambda: fqtower.check_perfect(fqtower.make_field(2, 17)), BoundExceeded),\n"
        "    (lambda: fqtower.find_embedding_root(\n"
        "        fqtower.make_field(2, 3), fqtower.make_field(2, 4)), NoEmbedding),\n"
        "):\n"
        "    try:\n"
        "        refused()\n"
        "    except error:\n"
        "        print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=os.environ.copy(),
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\nFalse\n"), proc.stderr


def test_fraction_heavy_lines_keep_their_speed():
    # coefficients are stored one by one, so printing never reduces a
    # cleared numerator against a common denominator; the digests are of
    # the exact output
    s = Session(7, 2)
    for line, digest, budget in (
        (
            "prootpoly ((x1+2*x2^7)*(t+6)^2*(t+(6*x1^2)/(6*x2^2+5*x1))^14"
            "*(t^7+(5*x1^7+3*x2)/(3*x1^2+1))^2)^7",
            "a616b37240b636f8",
            1.0,
        ),
        (
            "sepdec (6*x1+4*x1^2)*(t+(1)/(4*x2^3+2*x1^7))^8*(t^7+(5*x2^7)/(3*x2+5*x1))"
            "*(t+2*x2^7)",
            "9eea54408997082f",
            6.0,
        ),
    ):
        start = time.perf_counter()
        out = run(s, line)
        assert time.perf_counter() - start < budget, line
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_monomial_denominators_take_the_monomial_gcd():
    # a root of a monomial is a monomial, so the power's sums meet gcds of
    # monomials with large exponents, which the PRS took seconds over;
    # the digest is of the exact output
    s = Session(7, 2)
    line = (
        "eval ((4*root(x1,1)^2*root(x2,1) + 4*root(x1,1)*root(x2,1)^2 + 2*root(x2,1)^2)*t^2"
        " + ((3*x1 + 3*x2) / (x1^2*x2))*t + 5*x1^2*x2)^6"
    )
    start = time.perf_counter()
    out = run(s, line)
    assert time.perf_counter() - start < 1.0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "f68e38e511105ca3"


def test_sqfree_with_a_ground_degree_past_p_is_fast():
    # one gcd here has x2-degree 103 and every other degree at most 4: the
    # pseudo-remainder sequence ran past 30 s on it, and Brown's gcd takes
    # x2 as its main variable; the output is the product of the three
    # factors (checked once by multiplying out over Z_101), and the digest
    # is of that exact output
    s = Session(101, 2, mode="level0")
    line = "sqfree (t+76*x2^101)*(t^2+(5)/(9*x1))*(t+(18*x2^2+6*x1^2)/(48*x1^3))"
    start = time.perf_counter()
    out = run(s, line)
    assert time.perf_counter() - start < 2.0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "f5986ce11fb3cb6f"


@pytest.mark.parametrize(
    "p, level",
    [(101, 2), (2, 16)],
)
def test_lifted_coprime_fraction_past_the_table_fields(p, level):
    # lifting to the common level makes the fraction (x1 + x2^N) /
    # (x1^N + x2) with N = p^level, coprime, and its gcd takes points
    # from a field past MAX_POINT_FIELD: x^N and x agree on every field
    # of at most N elements; the fraction is reported as it stands
    s = Session(p, 2)
    n = p**level
    start = time.perf_counter()
    out = run(s, f"eval (root(x1,{level})+x2)/(x1+root(x2,{level}))")
    assert time.perf_counter() - start < 0.5
    assert out == (
        f"(root(x2,{level})^{n} + root(x1,{level})) / (root(x1,{level})^{n} + root(x2,{level}))"
    )


@pytest.mark.parametrize(
    "line, digest",
    [
        (
            "issep (t+(51*root(x1,2) + 59*x1^3)/(5*x1^3*x2^2 + 33*x2))"
            "*(t+(39*x1^2 + 13*root(x1,1)^3)/(41*root(x1,2)))",
            "b5bea41b6c623f7c",
        ),
        (
            "sqfree (t+(54*root(x2,2)^2 + 10*x1^2*root(x2,1))/(96*root(x1,1)^3*x2))"
            "*(t)*(t^2+(23*root(x2,1))/(40*root(x1,2)^3*x2^3))",
            "9617d6e029606043",
        ),
        (
            "eval (68*root(x1,2)*x2^3 + 3*x1^2*root(x2,1)^2 + 84*root(x1,2)^3*x2^2)"
            "/(86*root(x2,2) + 97*x1^3)",
            "847b6cb13bfc9279",
        ),
    ],
)
def test_mixed_level_gcds_with_a_main_degree_past_10_4(line, digest):
    # lifting to level 2 at p = 101 gives these gcds degrees of 2 * 10^4
    # to 5 * 10^4 in one variable, with few terms, and small degrees in
    # the others: Euclid on images in that variable would take minutes, so
    # Brown's gcd takes another main variable (modgcd._order); the digests
    # are of the exact outputs, which the primitive PRS gave too
    s = Session(101, 2)
    start = time.perf_counter()
    out = run(s, line)
    assert time.perf_counter() - start < 1.0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_separability_with_mixed_levels_at_large_p_is_fast():
    # gcd makes both inputs monic before clearing denominators, so a
    # level-2 factor of every coefficient cancels instead of lifting the
    # level-0 fractions by 101^2; and gcd(f, 0) is f made monic
    s = Session(101, 2)
    for line in (
        "issep (root((23)/(44+89*x2^3),2))*(t^2+(36*x2^3+48*x1^2)/(44*x1^2+15*x2))"
        "*(t^101+(53*x1)/(83*x2))^2",
        "issep (t+root(75*x1,2))^101*(t+(93*x2^101)/(49*x2+64*x2^2))^101",
    ):
        start = time.perf_counter()
        assert run(s, line) == "false"
        assert time.perf_counter() - start < 2.0, line


def test_gcd_of_an_input_in_one_variable_is_fast():
    # lifting to level 2 gives a denominator in x2 alone of degree about
    # 3 * 10^4 and numerators of degree about 2 * 10^6 that also use x1;
    # the gcd lies in x2 alone, and a monomial coefficient in x1 of the
    # other input gives 1 without interpolating in a degree of 10^6 (which
    # took seconds); the digest is of the exact output, which the
    # primitive PRS gave too
    s = Session(101, 2)
    line = (
        "sepdec (t^101+(60+42*x2^101*root(x2,2)^101+40*x2^3*root(x1,1)^101))^2"
        "*(t+(84*root(x2,2)*x2^3+87*x1*x1^2+84*root(x1,1)))^2"
        "*(t+(33*x1^101*root(x2,2)+39*x1+100*root(x2,2)^2*x2^3)/(84+100*x2^3))^2"
    )
    start = time.perf_counter()
    out = run(s, line)
    assert time.perf_counter() - start < 1.0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "362dd89be452e1e1"


def test_gcd_past_the_row_bound_is_refused_before_it_allocates():
    # lifting to level 2 at p = 101 gives a gcd input of degree past
    # MAX_ROW in x1: its dense rows would take gigabytes, so the gcd is
    # refused with BoundExceeded before any row is built; the child runs
    # under a 2 GB address-space cap, under which building the rows
    # raises MemoryError

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    line = (
        "eval (32+6*x1)/(79*x1^101*root(x1,1)^2+98*x1^3+73*x1^2*x1)"
        "*root(95+83*x1^101*root(x1,2),2)+(90)"
    )
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "perffield.cli", "--p", "101", "--vars", "1"],
        input=line + "\n",
        capture_output=True,
        text=True,
        env=os.environ.copy(),
        timeout=120,
        preexec_fn=cap,
    )
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert re.match(r"error\[5\.\.90\]: BoundExceeded: ", proc.stderr), proc.stderr
