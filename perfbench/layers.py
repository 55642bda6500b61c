"""Outside-in layer tracing for the irrbounds CLI.

Run as a script, this is the traced request: it imports the package from
``src/``, wraps the public functions of each layer in every namespace that
holds a binding to them, runs ``irrbounds.cli.main`` on the given argv, and
writes the recorded spans and counters to a JSON file::

    PYTHONPATH=src python3 perfbench/layers.py SPANS.json table --paper

Imported, it provides the layer table and the aggregation of spans into the
per-layer metrics ``<module>.<function>.<stat>``.  No file under ``src/`` is
changed: ``from .x import f`` copies the binding, so each copy is replaced.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# layer -> public functions timed as spans (name, start, end, parent)
LAYERS = {
    "cli": ("main",),
    "measures": ("mu_bound", "mu2_bound", "search_params", "headline_table",
                 "verify_forms", "predicted_decay"),
    "forms": ("eval_UVW", "build_A", "derivative", "scaled_integer_forms"),
    "omega": ("compute_omega", "n_constants", "delta_products"),
    "asymptotics": ("digamma", "saddle_real", "saddle_complex", "k_constants",
                    "alpha_value"),
    "exact_arith": ("PrimeSieve", "d_upto", "sqrt_bounds"),
}
# spans whose distinct argument keys are counted: reuse a memo could exploit
DISTINCT = ("asymptotics.digamma", "omega.compute_omega", "omega.n_constants")
# called too often for a span; only the calls are counted
COUNTED = ("omega.omega_contains",)
# exact sizes of the forms work, summed over calls
SIZES = ("forms.degree_sum", "forms.P_bits", "forms.X_bits")

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
ROOT_SPAN = "cli.main"


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits"):
        return "bit"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = [*request_metrics({"spans": [], "counts": {}}, 0.0),
             "trace.overhead_frac"]
    return {name: _unit(name) for name in names}


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def request_metrics(record: dict, wall: float) -> dict[str, float]:
    """Per-layer values of one traced request from its spans and counters and
    the wall time of its process.

    A span's self time is its duration minus the part of it that its direct
    children cover, so the self times of all spans add up to the root span.
    ``cli.startup_s`` is the rest of the wall time: interpreter start-up,
    import, installing the wrappers and writing the spans.  The self times
    and ``cli.startup_s`` together add up to the traced request time.
    """
    spans = record["spans"]
    counts = record["counts"]
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            children[parent].append((max(start, p_start), min(end, p_end)))
    calls = dict.fromkeys(SPAN_NAMES, 0)
    total = dict.fromkeys(SPAN_NAMES, 0.0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += (end - start) - _covered(children[i])
    out = {}
    for name in SPAN_NAMES:
        if name == ROOT_SPAN:
            out["cli.main.total_s"] = total[name]
            out["cli.self_s"] = self_s[name]
            out["cli.startup_s"] = wall - total[name]
            continue
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.total_s"] = total[name]
        out[f"{name}.self_s"] = self_s[name]
        if name in DISTINCT:
            distinct = counts.get(f"{name}.distinct", 0)
            out[f"{name}.distinct_ratio"] = distinct / calls[name] if calls[name] else 0.0
    for name in COUNTED:
        out[f"{name}.calls"] = counts.get(f"{name}.calls", 0)
    for name in SIZES:
        out[name] = counts.get(name, 0)
    return out


# ---------------------------------------------------------------------------
# the traced child process
# ---------------------------------------------------------------------------

def _key(args, kwargs):
    def hashable(v):
        try:
            hash(v)
            return v
        except TypeError:
            return (type(v).__name__, str(v))
    return (tuple(hashable(v) for v in args),
            tuple(sorted((k, hashable(v)) for k, v in kwargs.items())))


class Tracer:
    """In-memory spans and counters of one traced process."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._keys: dict[str, set] = {name: set() for name in DISTINCT}

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, fn, on_call=None, on_result=None):
        keys = self._keys.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keys is not None:
                keys.add(_key(args, kwargs))
            if on_call is not None:
                on_call(args)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            self.spans.append([name, perf_counter(), 0.0, parent])
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(f"{name}.calls", 1)
            return fn(*args, **kwargs)
        return wrapper

    def record(self) -> dict:
        counts = dict(self.counts)
        for name, keys in self._keys.items():
            counts[f"{name}.distinct"] = len(keys)
        return {"spans": self.spans, "counts": counts}


def _rebind(original, replacement) -> None:
    """Point every binding of ``original`` in the package at ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "irrbounds"
                               or mod_name.startswith("irrbounds.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer):
    """Wrap every traced function; return the wrapped ``cli.main``."""
    import importlib

    import irrbounds.cli  # imports every layer

    hooks = {
        "forms.eval_UVW": {"on_call": lambda args: tracer.add(
            "forms.degree_sum", args[0].degree)},
        "forms.scaled_integer_forms": {"on_result": lambda f: (
            tracer.add("forms.P_bits", abs(f.P).bit_length()),
            tracer.add("forms.X_bits", abs(f.X).bit_length()))},
    }
    for name in SPAN_NAMES + COUNTED:
        mod_name, fn_name = name.split(".")
        original = getattr(importlib.import_module(f"irrbounds.{mod_name}"), fn_name)
        if name in COUNTED:
            _rebind(original, tracer.counter(name, original))
        elif isinstance(original, type):
            original.__init__ = tracer.span(name, original.__init__, **hooks.get(name, {}))
        else:
            _rebind(original, tracer.span(name, original, **hooks.get(name, {})))
    return irrbounds.cli.main


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    cli_main = install(tracer)
    try:
        code = cli_main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump(tracer.record(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
