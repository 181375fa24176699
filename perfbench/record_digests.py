#!/usr/bin/env python3
"""Record the cli-mixed answer digests of the named seeds.

    python3 perfbench/record_digests.py FIRST LAST

Runs one cycle of cli-mixed for each seed FIRST..LAST, refuses to record
a seed whose answers fail an oracle, and writes perfbench/digests.json.
run.py then marks a cli-mixed run incorrect when a named seed's answers
(outputs, and error kinds for lines that must fail) are no longer
byte-identical to the recorded ones.
"""

from __future__ import annotations

import json
import sys

from run import DIGESTS, answers_digest, load_workload


def main(first, last):
    import harness

    digests = {}
    for seed in range(first, last + 1):
        workload = load_workload("cli-mixed", seed)
        passed = harness.run_pass(workload, 0, cycles=1)
        verdicts = workload.check(passed.first)
        bad = [v for v in verdicts if v is not None]
        if bad:
            print(f"seed {seed}: not recorded, {len(bad)} failing answers: {bad[0]}")
            return 1
        digests[str(seed)] = answers_digest(workload, passed)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
