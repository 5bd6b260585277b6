"""Layer spans for the traced benchmark run.

The tracer wraps public functions of fracfund from outside: each wrapper
replaces the function under every name a fracfund module looks it up by
(module globals, and the values of module-level dicts such as the CLI's
method table), so calls between modules and inside one module both pass
through it.  Nothing under src/ changes.  While an operation is open, each
call records a span (name, start, end, parent span, operation id) in memory;
spans are written out once, when the run ends.
"""

import json
import os
import sys
import time
from collections import Counter

# (module, function) pairs timed per layer; "fundamental.write_csv" is the
# FundamentalField.write_csv method, the field's CSV export.
LAYERS = {
    "fundamental": ("solve_F", "solve_G_dual", "bounds", "write_csv"),
    "quadrules": ("hat_moment_tables", "first_interval_moments",
                  "left_moment_weights"),
    "cauchy": ("solve_direct", "represent_pc", "represent_gc",
               "represent_gc_compact", "equation_residual", "psi_star",
               "b_star"),
    "operators": ("r_operator", "j_operator", "fractional_integral",
                  "caputo_derivative"),
    "special": ("mittag_leffler", "ml_scalar"),
    "oracle": ("constant_coeff_F",),
    "checks": ("run_suite", "special_checks", "operator_checks",
               "operator_bound_checks", "field_checks",
               "history_functional_checks"),
    "gridfn": ("write_csv", "read_csv"),
    "cli": ("main", "load_problem"),
}
CACHED = ("hat_moment_tables", "first_interval_moments")
# functions whose file argument is counted in bytes: name -> (counter, index)
FILE_ARGS = {"gridfn.write_csv": ("gridfn.bytes_written", 1),
             "gridfn.read_csv": ("gridfn.bytes_read", 0)}


def metric_specs():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for mod, fns in LAYERS.items():
        for fn in fns:
            out.append((f"{mod}.{fn}.self_s", "s"))
            out.append((f"{mod}.{fn}.calls", "count"))
    out += [(f"quadrules.{fn}.misses", "count") for fn in CACHED]
    out += [("gridfn.bytes_written", "B"), ("gridfn.bytes_read", "B"),
            ("cli.startup_s", "s")]
    return out


def _fracfund_modules():
    import fracfund.checks  # noqa: F401  (loads every layer module)
    import fracfund.cli  # noqa: F401
    return [m for n, m in sorted(sys.modules.items())
            if n == "fracfund" or n.startswith("fracfund.")]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._caches = {}
        self._misses_at_start = {}

    def install(self):
        """Wrap every LAYERS function under each name fracfund binds it to."""
        import fracfund.fundamental as fundamental
        import fracfund.quadrules as quadrules

        modules = _fracfund_modules()
        self._caches = {fn: getattr(quadrules, fn) for fn in CACHED}
        for mod, fns in LAYERS.items():
            home = sys.modules["fracfund." + mod]
            for fn in fns:
                name = f"{mod}.{fn}"
                if name == "fundamental.write_csv":
                    cls = fundamental.FundamentalField
                    cls.write_csv = self._wrap(name, cls.write_csv)
                    continue
                orig = getattr(home, fn)
                wrapped = self._wrap(name, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
                        elif isinstance(val, dict):  # e.g. cli._SOLVERS
                            for key, item in val.items():
                                if item is orig:
                                    val[key] = wrapped

    def _wrap(self, name, fn):
        counter, path_index = FILE_ARGS.get(name, (None, None))

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.op]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if counter is not None:
                    path = args[path_index] if len(args) > path_index \
                        else kwargs["path"]
                    self.counts[counter] += os.path.getsize(path)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def begin(self, op):
        self.op = op
        self._misses_at_start = {fn: c.cache_info().misses
                                 for fn, c in self._caches.items()}

    def end(self):
        for fn, cache in self._caches.items():
            self.counts[f"quadrules.{fn}.misses"] += (
                cache.cache_info().misses - self._misses_at_start[fn])
        self.op = None

    def absorb(self, path, op):
        """Merge the spans and counts a child process dumped to `path`."""
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        base = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append([name, start, end,
                               None if parent is None else parent + base, op])
        self.counts.update(data["counts"])
        return data["spans"]

    def dump(self, path, **extra):
        payload = dict(extra)
        payload["spans"] = self.spans
        payload["counts"] = dict(self.counts)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def per_layer(spans, counts, n_ops, startups):
    """Per-operation self time, calls and counters from recorded spans.

    A span's self time is its duration minus the durations of its direct
    children; calls run on one thread, so children never overlap.
    """
    self_s = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            self_s[s[3]] -= s[2] - s[1]
    total = Counter()
    calls = Counter()
    for s, own in zip(spans, self_s):
        total[s[0]] += own
        calls[s[0]] += 1
    out = {}
    for name, unit in metric_specs():
        if name.endswith(".self_s"):
            value = total[name[:-len(".self_s")]] / n_ops
        elif name.endswith(".calls"):
            value = calls[name[:-len(".calls")]] / n_ops
        elif name == "cli.startup_s":
            value = sum(startups) / len(startups) if startups else 0.0
        else:
            value = counts.get(name, 0) / n_ops
        out[name] = {"value": value, "unit": unit}
    return out
