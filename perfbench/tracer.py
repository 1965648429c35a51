"""Run one frogz CLI call with spans recorded around each layer's entry points.

    python3 perfbench/tracer.py SPANS.json -- <frogz arguments>

frogz is imported unchanged and its functions are wrapped from outside: every
module namespace that holds a wrapped function gets the wrapper (`L0_L1`, for
one, is bound in `sequences`, `classify` and `cli`).  Each call records a span
(id, name, start, end, parent id, raised); spans stay in memory and are written
as JSON when the call exits.  The benchmark process reads the file back and
computes self times with `self_times`.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import tracemalloc
from collections import Counter, defaultdict
from typing import NamedTuple

# layer -> entry points that get a span.  The cli layer is `main` alone, so its
# self time is argument parsing, config loading and output formatting.
SPANNED = {
    "cli": ("main",),
    "mc": ("run_trials", "estimate_survival", "estimate_activation_profile", "simulate_trial"),
    "exact": ("reach_prob", "brute_force_reach", "a_n", "bound_check",
              "partial_survival_product", "build_reach_table"),
    "classify": ("classify", "applicable_rules", "series_test", "min_alignment_exponent",
                 "survival_threshold_N"),
    "sequences": ("m_of", "is_in_D1", "L0_L1", "SequenceSpec.from_dict",
                  "SequenceSpec.values"),
}
# called per sequence index, so only counted: a span each would dominate the trace
COUNTED = {"sequences": ("SequenceSpec.value",)}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int          # -1 for a root span
    raised: bool


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children of one span may overlap (they can run on different threads), so
    the covered part is the length of the union of their intervals, clipped to
    the parent's.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for c_start, c_end in sorted(children.get(s.id, ())):
            c_start, c_end = max(c_start, s.start), min(c_end, s.end)
            if c_end <= c_start:
                continue
            if hi is None or c_start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_start, c_end
            else:
                hi = max(hi, c_end)
        if hi is not None:
            covered += hi - lo
        out[s.id] = (s.end - s.start) - covered
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()

    def spanned(self, name, fn, on_result=None):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(sid, name, start, end, parent, raised))
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- layer-specific counts, taken where the work happens ----------------

    def _run_trials_result(self, args, frontiers):
        cfg = args[0]
        sites = cfg.horizon + cfg.params.L
        self.counters["mc.run_trials.elements"] += cfg.trials * sites * cfg.params.N * cfg.params.L
        self.counters["mc.run_trials.sites"] += cfg.trials * sites
        self.counters["mc.run_trials.useful_sites"] += int(frontiers.clip(max=sites).sum())

    def _l0_l1_result(self, args, result):
        self.counters["sequences.L0_L1.candidates"] += len(result[2])

    def _peak_memory(self, fn):
        """tracemalloc is on only while `fn` runs, so only its allocations count."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                key = "mc.run_trials.traced_peak_bytes"
                counters[key] = max(counters[key], peak)

        return wrapper

    def install(self):
        """Wrap the SPANNED and COUNTED names in every loaded frogz module."""
        import frogz.cli  # noqa: F401  loads every frogz module
        hooks = {"mc.run_trials": self._run_trials_result,
                 "sequences.L0_L1": self._l0_l1_result}
        modules = [m for n, m in sys.modules.items() if n == "frogz" or n.startswith("frogz.")]
        for table in (SPANNED, COUNTED):
            for layer, names in table.items():
                for name in names:
                    self._wrap(layer, name, table is COUNTED, hooks, modules)

    def _wrap(self, layer, name, counted_only, hooks, modules):
        full = f"{layer}.{name}"
        owner_name, _, attr = name.rpartition(".")
        mod = sys.modules[f"frogz.{layer}"]
        owner = getattr(mod, owner_name) if owner_name else mod
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if counted_only:
            wrapped = self.counted(full, fn)
        else:
            wrapped = self.spanned(full, fn, hooks.get(full))
        if full == "mc.run_trials":
            wrapped = self._peak_memory(wrapped)
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrapped)
        if owner_name:  # a method: callers find it through the class
            setattr(owner, attr, wrapped)
            return
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, wrapped)

    def dump(self, path):
        # the original lru_cache object: the module attribute is now a wrapper
        info = sys.modules["frogz.sequences"].is_in_D1.__wrapped__.cache_info()
        self.counters["sequences.is_in_D1.cache_hits"] = info.hits
        self.counters["sequences.is_in_D1.cache_misses"] = info.misses
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def load(path: str) -> tuple[list[Span], dict]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return [Span(*s) for s in data["spans"]], data["counters"]


def main(argv: list[str]) -> None:
    if len(argv) < 2 or argv[1] != "--":
        sys.exit("usage: tracer.py SPANS.json -- <frogz arguments>")
    import frogz.cli
    tracer = Tracer()
    tracer.install()
    try:
        sys.exit(frogz.cli.main(argv[2:]))
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    main(sys.argv[1:])
