"""Per-layer tracing of weylbranch from outside the package.

Each traced function is replaced by a timing wrapper under every name that
binds it in a ``weylbranch`` module, because callers look functions up by the
name they imported (``checker`` does ``from .charcalc import freudenthal``).
A wrapper pushes a span on entry; on exit the span's self time is its
duration minus the time its child spans covered.  Work counts are taken from
the arguments and results at the same boundary.

The scalar dominant-representative step runs inside the pure kernels, which
receive it through a closure; it is counted (not timed) by replacing the
closure cell, so its time stays in the kernel that called it.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, function, layer, work counter name, counter(args, result) -> int)
TIMED = (
    ("kernels", "weyl_orbit_array", "kernels.orbit", "elements", lambda a, out: len(out)),
    ("kernels", "dominant_table", "kernels.saturate", "dominant_weights", lambda a, out: len(out[1])),
    ("kernels", "freudenthal_table", "kernels.freudenthal", None, None),
    ("charcalc", "weyl_character_subtract", "charcalc.subtract", "input_weights", lambda a, out: len(a[1])),
    ("charcalc", "_product_character_cached", "charcalc.product_character", None, None),
    ("charcalc", "freudenthal", "charcalc.freudenthal", None, None),
    ("charcalc", "irr_dim", "charcalc.irr_dim", None, None),
    ("checker", "restricted_multiset", "checker.restrict", "weights_out", lambda a, out: len(out)),
    ("checker", "necessary_filters", "checker.filters", "rejects", lambda a, out: 1 if out else 0),
    ("checker", "branch_p0", "checker.branch_p0", None, None),
    ("checker", "verify_entry", "checker.verify_entry", None, None),
    ("checker", "scan_candidates", "checker.scan_candidates", None, None),
    ("embeddings", "component_orbit_set", "embeddings.component_orbit_set", None, None),
    ("embeddings", "build_embedding", "embeddings.build_embedding", None, None),
    ("tables", "instantiate_rows", "tables.instantiate_rows", None, None),
    ("rootsys", "build_root_system", "rootsys.build_root_system", None, None),
)

# layer -> (module, lru_cache'd function) whose cache_info gives the hit ratio
CACHES = {
    "charcalc.product_character": ("charcalc", "_product_character_cached"),
    "charcalc.freudenthal": ("charcalc", "_freudenthal_cached"),
}

DOMREP = "kernels.domrep"


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    names = {}
    for _, _, layer, work, _ in TIMED:
        names[f"{layer}.s"] = "s"
        names[f"{layer}.calls"] = "count"
        if work == "rejects":
            names[f"{layer}.reject_ratio"] = "ratio"
        elif work:
            names[f"{layer}.{work}"] = "count"
    for layer in CACHES:
        names[f"{layer}.hit_ratio"] = "ratio"
    names[f"{DOMREP}.calls"] = "count"
    names["trace.coverage"] = "ratio"
    names["trace.overhead_frac"] = "ratio"
    return names


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name == "weylbranch" or name.startswith("weylbranch.")]


def _rebind(original, replacement):
    for mod in _package_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)


class Tracer:
    """Span stack plus per-layer self time, call and work counters."""

    def __init__(self):
        self.stack = []
        self.self_s = {}
        self.counts = {}
        self.caches = {}

    def _timed(self, layer, fn, work, counter):
        stack, self_s, counts = self.stack, self.self_s, self.counts
        clock = time.perf_counter
        calls_key = f"{layer}.calls"
        work_key = f"{layer}.{work}"

        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span = clock() - frame[0]
                self_s[layer] = self_s.get(layer, 0.0) + span - frame[1]
                if stack:
                    stack[-1][1] += span
                counts[calls_key] = counts.get(calls_key, 0) + 1
            if counter is not None:
                counts[work_key] = counts.get(work_key, 0) + counter(args, out)
            return out

        return wrapper

    def _counted(self, fn):
        counts = self.counts
        key = f"{DOMREP}.calls"

        def wrapper(*args):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args)

        return wrapper

    def install(self):
        """Wrap every traced function; call after ``import weylbranch``."""
        mods = {mod: importlib.import_module(f"weylbranch.{mod}") for mod, *_ in TIMED}
        kernels = mods["kernels"]
        for layer, (mod, name) in CACHES.items():
            self.caches[layer] = getattr(mods[mod], name)
        for mod, name, layer, work, counter in TIMED:
            original = getattr(mods[mod], name)
            _rebind(original, self._timed(layer, original, work, counter))
        domrep = kernels.PURE_KERNELS["domrep"]
        counted = self._counted(domrep)
        for kernel in kernels.PURE_KERNELS.values():
            code = getattr(kernel, "__code__", None)
            if code is not None and "domrep" in code.co_freevars:
                kernel.__closure__[code.co_freevars.index("domrep")].cell_contents = counted
        _rebind(domrep, counted)
        return self

    def busy_s(self):
        """Sum of self times so far; the difference over the loop is traced time."""
        return sum(self.self_s.values())

    def metrics(self, loop_wall, loop_busy):
        """Per-layer metrics (without trace.overhead_frac, which needs an untraced run)."""
        out = {}
        for _, _, layer, work, _ in TIMED:
            out[f"{layer}.s"] = self.self_s.get(layer, 0.0)
            calls = self.counts.get(f"{layer}.calls", 0)
            out[f"{layer}.calls"] = calls
            if work == "rejects":
                out[f"{layer}.reject_ratio"] = self.counts.get(f"{layer}.rejects", 0) / calls if calls else 0.0
            elif work:
                out[f"{layer}.{work}"] = self.counts.get(f"{layer}.{work}", 0)
        for layer, fn in self.caches.items():
            info = fn.cache_info()
            lookups = info.hits + info.misses
            out[f"{layer}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out[f"{DOMREP}.calls"] = self.counts.get(f"{DOMREP}.calls", 0)
        out["trace.coverage"] = loop_busy / loop_wall if loop_wall > 0 else 0.0
        return out
