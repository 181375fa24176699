"""Import perffield from the checkout's src/ and build a workload.

Kept free of imports beyond what the interpreter has already loaded at
start-up, so that a set-up timed from here counts every module perffield
and the workload need (argparse, json, re, numpy, ...).
"""

import importlib
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

WORKLOADS = {
    "cli-mixed": ("wl_cli", "CliMixed"),
    "poly-heavy": ("wl_poly", "PolyHeavy"),
    "fq-sweep": ("wl_fq", "FqSweep"),
}


def load_workload(name, seed, tiny=False):
    """Import perffield and build the workload's inputs from the seed."""
    if SRC not in sys.path:
        sys.path[:0] = [SRC, BENCH]
    modname, clsname = WORKLOADS[name]
    module = importlib.import_module(modname)
    return getattr(module, clsname)(seed, tiny)
