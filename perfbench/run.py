#!/usr/bin/env python3
"""Seeded, layered benchmark for perffield.

    python3 perfbench/run.py --workload cli-mixed --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports perffield from its
src/ directory. Workloads (see wl_*.py for why each was chosen):

    cli-mixed   calculator scripts through cli.run_command
    poly-heavy  planted multivariate gcds, RatFunc reduction, septools
    fq-sweep    check_perfect, embedding roots, PerfElem.eval over F_{p^n}
    all         each of the above in a fresh process, one after another

Every workload is a closed loop with one client in one process. The
timed pass repeats whole cycles of the seeded operation list for about
--seconds. Outputs are checked afterwards by oracles that do not share
the timed code path (gf.py, exprcheck.py).

--trace 0 reports the end-to-end metrics: setup_s, ops_per_s,
op_p50_ms, op_p90_ms and peak_rss_mb. It also prints and saves
cli_cold_start_ms, which is not a gated metric: on a shared 2-core host
its median moved by more than a quarter between runs of the same code.
Set-up and cold-start samples come from fresh processes started one at
a time between operations and spread over the pass.

Every timing is first scaled by the machine's speed at that moment,
measured by reference slices taken between operations (speed.py), and
then estimated as the mean of the fastest quarter of its repetitions
(at least one). Each operation of the cycle gets its own estimate from
its repetitions across the pass; ops_per_s is the operations of one
cycle over the sum of those estimates, and op_p50_ms and op_p90_ms are
percentiles of them. setup_s is the median of its fresh-process
samples, each scaled by slices the same process takes right after it.
cli_cold_start_ms is the median of its fresh-process samples, unscaled:
a cold start runs numpy's import, which starts threads on both cores,
and no reference tried (slices in this process, a bare interpreter
start) followed its drift closely enough. The
unscaled figures (raw_*), the all-cycle throughput and the speed factor
are printed and saved alongside.

--trace 1 runs an untraced pass for half the time, then the same cycles
with every layer wrapped (layers.py), checks that both passes print the
same outputs, and reports per-layer calls, self time and ratios, plus
trace_overhead_ratio and, on poly-heavy, the cliff cases under their cap.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Results, with the environment,
also go to perfbench/results/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import speed
from loader import BENCH, ROOT, SRC, WORKLOADS, load_workload

SETUP_SAMPLES = 6  # fresh processes, spread over the pass
COLD_STARTS = 12
COLD_SCRIPT = os.path.join(BENCH, "cold_start.txt")
COLD_EXPECTED = "x1^2 + 1\nroot(x1,1)\nF_2^4: modulus t^4 + t + 1\nfalse\n"
DIGESTS = os.path.join(BENCH, "digests.json")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_probe(name, seed, samples):
    """A side task: set up the workload in a fresh process (cold caches);
    records (seconds, seconds scaled by that process's own speed)."""
    probe = os.path.join(BENCH, "setup_probe.py")

    def task():
        out = subprocess.run(
            [sys.executable, probe, name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, factor = map(float, out.stdout.split()[-2:])
        samples.append((seconds, seconds / factor))

    return task


def cold_start(samples):
    """A side task: time one fresh `python -m perffield.cli --script`
    run; records (seconds, whether it printed the expected answers)."""

    def task():
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "perffield.cli", "--script", COLD_SCRIPT],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        samples.append((time.perf_counter() - t0, out.returncode == 0 and out.stdout == COLD_EXPECTED))

    return task


def interleave(*groups):
    """Merge task lists so that each group is spread evenly over the result."""
    keyed = [((i + 0.5) / len(g), k, t) for k, g in enumerate(groups) for i, t in enumerate(g)]
    return [t for _, _, t in sorted(keyed, key=lambda x: x[:2])]


def answers_digest(workload, passed):
    """Digest of the first cycle's outputs. For the CLI, errors count by
    kind only, so that rewording a message does not change it."""
    answer = getattr(workload, "answer", workload.render)
    parts = [answer(r) for r in passed.first]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def environment(seed):
    import numpy
    from perffield import _accel

    try:
        backend = _accel.backend_name()
    except (ValueError, RuntimeError) as err:
        backend = f"error: {err}"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": _accel.HAVE_NUMBA,
        "backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def fastest_quarter(values):
    """The fastest quarter (at least one) of repeated measurements.

    Scaling by the reference slices takes out most of the host's drift
    in speed, but not all of it: some code slows a little more than the
    slices do in the host's slow state, and single samples catch
    interrupts and collector pauses. The fastest quarter keeps both out.
    """
    values = sorted(values)
    return values[: -(-len(values) // 4)]


def percentile_ms(values, q):
    return statistics.quantiles(values, n=100)[q - 1] * 1e3


def estimate(values):
    return statistics.fmean(fastest_quarter(values))


def run_untraced(args, workload):
    import harness

    kinds = workload.op_kinds()
    log = speed.SpeedLog(sorted({"python", *kinds}))
    setups, colds = [], []
    tasks = interleave(
        [setup_probe(args.workload, args.seed, setups) for _ in range(SETUP_SAMPLES)],
        [cold_start(colds) for _ in range(COLD_STARTS)],
    )
    passed = harness.run_pass(workload, args.seconds, side_tasks=tasks, speed=log)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cold_ok = all(ok for _, ok in colds)
    verdicts = workload.check(passed.first)
    failed, timeouts, wrong = passed.tally(verdicts)
    ok_share = 1 - failed / passed.attempted
    # one estimate per operation of the cycle, from its repetitions
    scaled = [
        [log.scale(k, t, sec) for k, t, sec in zip(kinds, mids, lats)]
        for mids, lats in zip(passed.mids, passed.latencies)
    ]
    per_op = [estimate(reps) for reps in zip(*scaled)]
    raw_per_op = [estimate(reps) for reps in zip(*passed.latencies)]
    metrics = {
        "setup_s": (statistics.median(sec for _, sec in setups), "s"),
        "ops_per_s": (ok_share * len(per_op) / sum(per_op), "1/s"),
        "op_p50_ms": (percentile_ms(per_op, 50), "ms"),
        "op_p90_ms": (percentile_ms(per_op, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    digest = answers_digest(workload, passed)
    digest_ok = True
    if args.workload == "cli-mixed" and not workload.tiny:
        with open(DIGESTS, encoding="utf-8") as fh:
            named = json.load(fh)
        want = named.get(str(args.seed))
        digest_ok = want is None or want == digest
    extra = {
        "cli_cold_start_ms": (statistics.median(sec for sec, _ in colds) * 1e3, "ms"),
        "failed_ratio": (failed / passed.attempted, "ratio"),
        "timeouts": (timeouts, "count"),
        "op_samples": (passed.attempted, "count"),
        "op_values": (len(per_op), "count"),
        "cycles": (passed.cycles, "count"),
        "pass_s": (passed.wall, "s"),
        "speed_factor_python": (statistics.median(log.took["python"]) / speed.KINDS["python"][1], "ratio"),
        "raw_ops_per_s": (ok_share * len(raw_per_op) / sum(raw_per_op), "1/s"),
        "raw_op_p50_ms": (percentile_ms(raw_per_op, 50), "ms"),
        "raw_op_p90_ms": (percentile_ms(raw_per_op, 90), "ms"),
        "raw_setup_s": (statistics.median(sec for sec, _ in setups), "s"),
        "all_cycles_ops_per_s": ((passed.attempted - failed) / passed.wall, "1/s"),
    }
    checks = {
        "wrong_answers": wrong,
        "cold_start_output_ok": cold_ok,
        "answers_digest": digest,
        "answers_digest_matches_named_seed": digest_ok,
        "setup_samples_s": setups,
        "cold_start_samples_s": [sec for sec, _ in colds],
        "cycle_walls_s": passed.cycle_walls,
        "first_failures": first_failures(workload, passed, verdicts),
    }
    correct = wrong == 0 and cold_ok and digest_ok
    return correct, passed.attempted, failed, metrics, extra, checks


def run_traced(args, workload):
    import harness
    from layers import Tracer

    # half the run untraced, then the same cycles traced
    untraced = harness.run_pass(workload, args.seconds / 2)
    with Tracer() as tracer:
        traced = harness.run_pass(workload, args.seconds, cycles=untraced.cycles)
    identical = traced.rendered == untraced.rendered and not any(traced.mismatches)
    metrics = tracer.metrics(traced.wall)
    metrics["trace_overhead_ratio"] = (traced.wall / untraced.wall, "ratio")
    cliff = []
    if args.workload == "poly-heavy":
        import wl_poly

        for label, fn in wl_poly.cliff_cases():
            res = harness.call_capped(fn, wl_poly.CLIFF_CAP)
            cliff.append({"case": label, "status": res.status, "seconds": res.seconds})
    metrics["cliff.timeouts"] = (sum(c["status"] == "timeout" for c in cliff), "count")
    verdicts = workload.check(untraced.first)
    failed, timeouts, wrong = untraced.tally(verdicts)
    extra = {
        "failed_ratio": (failed / untraced.attempted, "ratio"),
        "timeouts": (timeouts, "count"),
        "cycles": (untraced.cycles, "count"),
    }
    checks = {
        "wrong_answers": wrong,
        "traced_outputs_identical": identical,
        "cliff": cliff,
        "first_failures": first_failures(workload, untraced, verdicts),
    }
    return wrong == 0 and identical, untraced.attempted, failed, metrics, extra, checks


def first_failures(workload, passed, verdicts, limit=5):
    out = []
    for i, verdict in enumerate(verdicts):
        if verdict is not None and len(out) < limit:
            out.append({"op": i, "output": workload.render(passed.first[i])[:300], "why": verdict})
    return out


def run_one(args):
    if not os.path.isfile(os.path.join(SRC, "perffield", "__init__.py")):
        print(f"error: no perffield sources under {SRC}", file=sys.stderr)
        return 2
    workload = load_workload(args.workload, args.seed)
    import perffield

    if not os.path.abspath(perffield.__file__).startswith(SRC + os.sep):
        print(f"error: imported perffield from {perffield.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        correct, attempted, failed, metrics, extra, checks = run_traced(args, workload)
    else:
        correct, attempted, failed, metrics, extra, checks = run_untraced(args, workload)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "checks": checks,
    }
    write_results(args, report)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload} {name} {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


def write_results(args, report):
    out_dir = os.path.join(BENCH, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)


def run_all(args):
    """Each workload in its own process, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            return out.returncode
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
