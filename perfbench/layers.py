"""Per-layer tracing from outside the library.

The traced run wraps perffield's public functions in place, in every
module and class attribute that holds them, and restores the originals
afterwards; src/perffield is never edited. Each wrapper counts calls and
accumulates self time, which is the wrapped call's duration minus the
time spent in wrapped calls nested inside it. Optional counters record
the ratios the per-layer metrics name (trivial gcds, constant
denominators, levels shed, rows swept).
"""

from __future__ import annotations

import importlib
import sys
import time

# (metric prefix, module, attribute path, counter). A counter takes the
# call's arguments and result and returns what to add to the hit count.
LAYERS = (
    ("cli.run_command", "perffield.cli", "run_command", None),
    ("parser.parse", "perffield.parser", "parse_expression", None),
    ("parser.parse", "perffield.parser", "parse_prefix", None),
    ("septools.decompose", "perffield.septools", "is_separable", None),
    ("septools.decompose", "perffield.septools", "squarefree_decomposition", None),
    ("septools.decompose", "perffield.septools", "separable_decomposition", None),
    ("septools.decompose", "perffield.septools", "pth_root_poly", None),
    ("septools.unipoly_gcd", "perffield.septools", "UniPoly.gcd", None),
    ("septools.unipoly_divmod", "perffield.septools", "UniPoly.__divmod__", None),
    ("septools.unipoly_mul", "perffield.septools", "UniPoly.__mul__", None),
    (
        "perfclosure.canonical",
        "perffield.perfclosure",
        "PerfElem.canonical",
        lambda args, res: res.level < args[2],
    ),
    ("perfclosure.lift", "perffield.perfclosure", "PerfElem.lift", None),
    ("perfclosure.eval", "perffield.perfclosure", "PerfElem.eval", None),
    (
        "ratfunc.init",
        "perffield.ratfunc",
        "RatFunc.__init__",
        lambda args, res: args[2].is_constant,
    ),
    ("multipoly.mul", "perffield.multipoly", "MultiPoly.__mul__", None),
    ("multipoly.divexact", "perffield.multipoly", "MultiPoly.divexact", None),
    (
        "multipoly.gcd",
        "perffield.multipoly",
        "poly_gcd",
        lambda args, res: res.is_constant,
    ),
    ("primefield.inv", "perffield.primefield", "PrimeField.inv", None),
    ("fqtower.make_field", "perffield.fqtower", "make_field", None),
    ("fqtower.check_perfect", "perffield.fqtower", "check_perfect", None),
    ("fqtower.find_embedding_root", "perffield.fqtower", "find_embedding_root", None),
    ("fqtower.fqelem_pow", "perffield.fqtower", "FqElem.__pow__", None),
    ("fqtower.fqelem_mul", "perffield.fqtower", "FqElem.__mul__", None),
    ("fqtower.fqelem_inv", "perffield.fqtower", "FqElem.inv", None),
    (
        "accel.batch_mulmod",
        "perffield._accel",
        "batch_mulmod",
        lambda args, res: args[0].shape[0],
    ),
    ("accel.batch_pow", "perffield._accel", "batch_pow", None),
)

MODULES = (
    "cli",
    "parser",
    "septools",
    "perfclosure",
    "ratfunc",
    "multipoly",
    "primefield",
    "fqtower",
    "accel",
)


class Tracer:
    """Installs the wrappers on enter and removes them on exit."""

    def __init__(self):
        # name -> [calls, self seconds, counter hits]
        self.stats: dict[str, list] = {}
        self._stack: list[float] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, count):
        st = self.stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st[1] += dt - stack.pop()
                st[0] += 1
                if stack:
                    stack[-1] += dt
            if count is not None:
                st[2] += count(args, res)
            return res

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, orig, new):
        for key, value in list(vars(owner).items()):
            if value is orig:
                setattr(owner, key, new)
                self._undo.append((owner, key, orig))

    def __enter__(self):
        for name, modname, path, count in LAYERS:
            mod = importlib.import_module(modname)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = vars(cls)[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, count))
                else:
                    new = self._wrap(name, raw, count)
                # aliases such as __rmul__ = __mul__ are patched too
                self._replace(cls, raw, new)
            else:
                orig = getattr(mod, path)
                new = self._wrap(name, orig, count)
                # every module that bound the function, e.g. poly_gcd in
                # multipoly, ratfunc, perfclosure and the package itself
                for bound_in, owner in list(sys.modules.items()):
                    if bound_in == "perffield" or bound_in.startswith("perffield."):
                        self._replace(owner, orig, new)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)
        return False

    def metrics(self, wall):
        """Per-layer metrics for a traced pass that took `wall` seconds."""
        out = {}

        def st(name):
            return self.stats.get(name, [0, 0.0, 0])

        def ratio(name):
            calls, _, hits = st(name)
            return hits / calls if calls else 0.0

        for name in sorted({layer[0] for layer in LAYERS}):
            calls, self_s, _ = st(name)
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        out["multipoly.gcd.trivial_ratio"] = (ratio("multipoly.gcd"), "ratio")
        out["ratfunc.init.const_den_ratio"] = (ratio("ratfunc.init"), "ratio")
        out["perfclosure.canonical.shed_ratio"] = (
            ratio("perfclosure.canonical"),
            "ratio",
        )
        out["accel.batch_mulmod.rows"] = (st("accel.batch_mulmod")[2], "count")
        traced = 0.0
        for module in MODULES:
            self_s = sum(v[1] for k, v in self.stats.items() if k.split(".")[0] == module)
            traced += self_s
            out[f"{module}.self_share"] = (self_s / wall if wall else 0.0, "ratio")
        out["harness.self_share"] = (max(wall - traced, 0.0) / wall if wall else 0.0, "ratio")
        return out
