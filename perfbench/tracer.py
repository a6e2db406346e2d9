"""Span tracing of one arborq process, installed from outside the package.

Run as a script, this is the child process of a traced invocation:

    python3 perfbench/tracer.py SPANS.json compute pawn --order 3

It imports the package, wraps the public functions of every module (and a few
hot methods), runs ``arborq.cli.main(argv)`` and writes per-span statistics
to SPANS.json.  Nothing under ``src/`` is edited: the wrappers are rebound in
every module namespace and class dictionary that holds the original object,
so ``from .algebra import qrat_sum`` copies and ``__rmul__ = __mul__``
aliases are covered too.

A span's self time is its duration minus the time of the spans it called.
Span stacks and statistics are kept per thread, because ``--workers 2`` runs
coefficient work in a thread pool; the tables are merged when the process
ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
import types

MODULES = ("trees", "algebra", "solvers", "series", "verify", "serialize", "cache", "cli")

# Methods traced besides the public module functions: the arithmetic that the
# solvers spend most of their time in, and the series map used by the checks.
METHODS = {
    "algebra": {"QPoly": ("__mul__",), "QRat": ("__init__", "__add__", "__mul__"),
                "XPoly": ("__mul__",)},
    "series": {"TreeSeries": ("map_coeffs",)},
}

# Memo tables whose final size is the number of coefficients a solver computed.
MEMOS = {
    "solvers.pawn_coeff": ("solvers", "_PAWN"),
    "solvers.omega_coeff": ("solvers", "_OMEGA"),
    "solvers.omega_bar_coeff": ("solvers", "_OMEGA_BAR"),
}


def _gcd_useful(rec, args, result):
    rec["useful"] = rec.get("useful", 0) + (result.degree > 0)


def _mul_terms(rec, args, result):
    a, b = args
    n = len(b.coeffs) if hasattr(b, "coeffs") else 1
    rec["terms"] = rec.get("terms", 0) + len(a.coeffs) * n


def _cache_outcome(rec, args, result):
    key = "misses" if result is None else "hits"
    rec[key] = rec.get(key, 0) + 1


# Extra counters derived from a span's arguments and result.
OBSERVERS = {
    "algebra.qpoly_gcd": _gcd_useful,
    "algebra.QPoly.mul": _mul_terms,
    "cache.load": _cache_outcome,
}


class Tracer:
    """Collects calls, inclusive and self time per span name, per thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._tables: list[dict] = []
        self._lock = threading.Lock()

    def _table(self) -> dict:
        table = getattr(self._local, "table", None)
        if table is None:
            table = {"stack": [], "stats": {}, "root_s": 0.0,
                     "main": threading.current_thread() is threading.main_thread()}
            self._local.table = table
            with self._lock:
                self._tables.append(table)
        return table

    def wrap(self, name: str, fn, observe=None):
        clock = self.clock

        def span(*args, **kwargs):
            table = self._table()
            stack = table["stack"]
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    table["root_s"] += dt
                rec = table["stats"].get(name)
                if rec is None:
                    rec = table["stats"][name] = {"calls": 0, "s": 0.0, "self_s": 0.0}
                rec["calls"] += 1
                rec["s"] += dt
                rec["self_s"] += dt - child
            if observe is not None:
                observe(rec, args, result)
            return result

        return functools.update_wrapper(span, fn)

    def summary(self) -> dict:
        """Statistics summed over all threads ("stats") and of the main thread
        alone ("main"); root_s covers the main thread only."""
        stats: dict[str, dict] = {}
        main: dict[str, dict] = {}
        root_s = 0.0
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            if table["main"]:
                root_s += table["root_s"]
                main = table["stats"]
            for name, rec in table["stats"].items():
                into = stats.setdefault(name, {})
                for key, value in rec.items():
                    into[key] = into.get(key, 0) + value
        return {"root_s": root_s, "stats": stats, "main": main}


def install(tracer: Tracer) -> dict:
    """Wrap the traced functions of the arborq modules; returns name -> original."""
    wrappers: dict[int, tuple[object, object]] = {}
    names: dict[str, object] = {}

    def add(name, fn):
        wrappers[id(fn)] = (fn, tracer.wrap(name, fn, OBSERVERS.get(name)))
        names[name] = fn

    for short in MODULES:
        mod = importlib.import_module(f"arborq.{short}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__):
                add(f"{short}.{attr}", obj)
        for cls_name, methods in METHODS.get(short, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                add(f"{short}.{cls_name}.{meth.strip('_')}", vars(cls)[meth])

    def rebind(namespace: dict, setter):
        for attr, obj in list(namespace.items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setter(attr, hit[1])

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "arborq" or mod_name.startswith("arborq.")):
            continue
        rebind(vars(mod), functools.partial(setattr, mod))
        for obj in list(vars(mod).values()):
            if isinstance(obj, type) and obj.__module__.startswith("arborq"):
                rebind(dict(vars(obj)), functools.partial(setattr, obj))
    return names


def memo_sizes() -> dict:
    out = {}
    for span, (short, attr) in MEMOS.items():
        out[span] = len(getattr(sys.modules[f"arborq.{short}"], attr))
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    t0 = time.perf_counter()
    import arborq.cli  # noqa: F401  (timed: imports every traced module)
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    install(tracer)
    code = 1
    try:
        code = sys.modules["arborq.cli"].main(cli_argv)
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            code = exc.code or 0
        else:
            print(exc.code, file=sys.stderr)
            code = 1
    finally:
        sys.stdout.flush()
        record = tracer.summary()
        record["import_s"] = import_s
        for span, computed in memo_sizes().items():
            record["stats"].setdefault(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
            record["stats"][span]["computed"] = computed
        with open(spans_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
