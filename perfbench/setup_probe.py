"""Print one workload's set-up time, measured in this fresh process.

    python3 perfbench/setup_probe.py <workload> <seed>

The clock starts before anything but time and sys is imported, so the
figure covers importing perffield with everything it pulls in, plus
building the workload's inputs and fields with cold caches. Then, with
the clock stopped, the process measures its own speed with reference
slices (speed.py) and prints both figures. run.py starts several of
these, one at a time, spread over its timed pass.
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    from loader import load_workload

    load_workload(sys.argv[1], int(sys.argv[2]))
    seconds = time.perf_counter() - t0
    import speed

    print(seconds, speed.slice_factor())
