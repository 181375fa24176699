#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks:
1. every metric BENCHMARK.json names is emitted, with its unit, by each
   workload with tracing off (end-to-end) and on (per-layer);
2. the tracer replaces every binding of each wrapped function (poly_gcd
   in multipoly, ratfunc, perfclosure and the package, ...) and restores
   all of them afterwards;
3. an injected wrong result, a poly_gcd that always returns 1, shows up
   as failed operations on poly-heavy instead of passing silently.
Exits 0 when all hold.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run


def emitted(name, trace):
    workload = run.load_workload(name, 1, tiny=True)
    args = argparse.Namespace(workload=name, seed=1, seconds=0.1, trace=trace)
    if trace:
        return run.run_traced(args, workload)
    return run.run_untraced(args, workload)


def check_metrics(spec):
    problems = []
    for name in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            correct, attempted, failed, metrics, _, _ = emitted(name, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: unit for k, (_, unit) in metrics.items()}
            if got != want:
                problems.append(f"{name} trace {trace}: metrics differ: {sorted(set(got) ^ set(want))}"
                                f" or units differ: {[k for k in want if got.get(k) != want[k]]}")
            if not correct or failed or attempted < 1:
                problems.append(f"{name} trace {trace}: correct={correct} failed={failed}")
    return problems


def perffield_bindings():
    """Every function or method object reachable as an attribute of a
    perffield module or of a class defined there, keyed by where it sits."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "perffield" or modname.startswith("perffield."):
            for key, value in vars(mod).items():
                out[(modname, key)] = value
                if isinstance(value, type) and value.__module__.startswith("perffield"):
                    for attr, raw in vars(value).items():
                        out[(modname, key, attr)] = raw
    return out


def check_tracer_patches():
    """While tracing, no binding of a wrapped original survives anywhere;
    afterwards every binding is the original again."""
    from layers import Tracer

    run.load_workload("cli-mixed", 1, tiny=True)
    before = perffield_bindings()
    with Tracer() as tracer:
        during = perffield_bindings()
        originals = {id(orig) for _, _, orig in tracer._undo}
    problems = [f"{where} still bound to the original" for where, value in during.items()
                if id(value) in originals]
    if perffield_bindings() != before:
        problems.append("originals not restored after tracing")
    if not originals:
        problems.append("tracer patched nothing")
    return problems


def check_injected_fault():
    """Replace poly_gcd wherever it is bound with one that returns 1."""
    import harness
    from perffield import multipoly

    workload = run.load_workload("poly-heavy", 1, tiny=True)
    orig = multipoly.poly_gcd

    def wrong_gcd(a, b):
        return multipoly.MultiPoly.const(a.field, max(a.nvars, b.nvars), 1)

    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname == "perffield" or modname.startswith("perffield."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrong_gcd)
                    patched.append((mod, key))
    try:
        passed = harness.run_pass(workload, 0, cycles=1)
    finally:
        for mod, key in patched:
            setattr(mod, key, orig)
    failed, _, wrong = passed.tally(workload.check(passed.first))
    if not (failed > 0 and wrong > 0):
        return [f"injected wrong gcd went unnoticed: failed={failed} of {passed.attempted}"]
    print(f"injected wrong gcd: failed_ratio {failed / passed.attempted:.3f}")
    return []


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_metrics(spec) + check_tracer_patches() + check_injected_fault()
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
