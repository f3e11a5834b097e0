"""
Outside-in tracer: wraps every public function of the plasmonres layer
modules, records one span per call, and derives per-layer call counts,
self times and computed work counts from the spans afterwards.

Nothing in the package is edited. Each public function is replaced, in
every layer module's namespace (and the package's) that binds it, by a
wrapper that records (id, name, start, end, parent, thread, count).
Because module functions look their callees up in their own module
globals, intra-module calls such as solve_direct -> assemble_system and
the builder lambdas of the sweep's operator cache are traced too.
`restore` puts every original object back.

Spans stay in memory until the run ends. A span's self time is its
duration minus the part of that interval its child spans cover. Spans
that open a worker thread's stack are attached to the innermost span
of the installing thread that was open when they started, which is
the run_sweep call that owns the pool.
"""

import functools
import importlib
import inspect
import itertools
import threading
import time

import numpy as np

PACKAGE = "plasmonres"
LAYERS = ("geometry", "specfun", "layer_ops", "np_spectrum", "transmission",
          "sweep", "cli")


# computed work counts, from argument array sizes (not measured)
def _problem_size(problem):
    if problem.dim == 2:
        return problem.geometry.n
    return (int(problem.geometry[0]) + 1) ** 2


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _kernel_entries(args, kwargs):
    nodes = _arg(args, kwargs, 0, "nodes")
    points = _arg(args, kwargs, 3, "points")
    return np.atleast_2d(points).shape[0] * nodes.n


def _lu_flops(args, kwargs):
    n = 2 * _problem_size(_arg(args, kwargs, 0, "problem"))
    return 8.0 / 3.0 * n ** 3


def _system_bytes(args, kwargs):
    n = 2 * _problem_size(_arg(args, kwargs, 0, "problem"))
    return 16 * n * n


COUNTERS = {
    "layer_ops.eval_potential": ("kernel_entries", _kernel_entries),
    "transmission.solve_direct": ("lu_flops", _lu_flops),
    "transmission.assemble_system": ("bytes", _system_bytes),
}


class Tracer:
    """Installs wrappers into the plasmonres layer modules; see module doc."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []
        self._thread = None

    # --------------------------------------------------------- patching

    def _modules(self):
        return [importlib.import_module(f"{PACKAGE}.{layer}")
                for layer in LAYERS] + [importlib.import_module(PACKAGE)]

    def _public_functions(self):
        """{original function: 'layer.name'} over every layer's __all__."""
        found = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    found[obj] = f"{layer}.{name}"
        return found

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._thread = threading.get_ident()
        wrappers = {fn: self._wrap(qual, fn)
                    for fn, qual in self._public_functions().items()}
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        return len(self._patches)

    def restore(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def leftovers(self):
        """Names in any layer namespace still bound to a wrapper."""
        return [f"{mod.__name__}.{attr}"
                for mod in self._modules()
                for attr, value in vars(mod).items()
                if getattr(value, "__perfbench_span__", None) is not None]

    def _wrap(self, qual, fn):
        spans = self.spans
        ids = self._ids
        local = self._local
        counter = COUNTERS.get(qual)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = getattr(local, "current", None)
            local.current = span_id
            count = counter[1](args, kwargs) if counter else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                local.current = parent
                spans.append((span_id, qual, start, end, parent,
                              threading.get_ident(), count))

        wrapper.__perfbench_span__ = qual
        return wrapper

    # ---------------------------------------------------------- analysis

    def _parents(self):
        """span id -> parent id, with worker-thread roots attached."""
        parents = {}
        host = sorted((s for s in self.spans if s[5] == self._thread),
                      key=lambda s: s[2])
        for s in self.spans:
            parent = s[4]
            if parent is None and s[5] != self._thread:
                # innermost host span open when the worker span started
                for h in host:
                    if h[2] <= s[2] < h[3]:
                        parent = h[0]
            parents[s[0]] = parent
        return parents

    def self_times(self):
        """span id -> self time in seconds."""
        parents = self._parents()
        children = {}
        for s in self.spans:
            p = parents[s[0]]
            if p is not None:
                children.setdefault(p, []).append((s[2], s[3]))
        out = {}
        for s in self.spans:
            start, end = s[2], s[3]
            out[s[0]] = (end - start) - _covered(children.get(s[0], ()), start, end)
        return out

    def summary(self):
        """{name: {'calls', 'self_s', 'total_s', counter...}} over all spans."""
        selfs = self.self_times()
        agg = {}
        for s in self.spans:
            entry = agg.setdefault(s[1], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += selfs[s[0]]
            entry["total_s"] += s[3] - s[2]
            counter = COUNTERS.get(s[1])
            if counter:
                entry[counter[0]] = entry.get(counter[0], 0) + s[6]
        return agg

    def utilization(self, name, workers):
        """
        Busy time of the spans below each `name` span, unioned per
        thread and summed over threads, over its wall time x workers.
        """
        parents = self._parents()
        busy = 0.0
        wall = 0.0
        for root in (s for s in self.spans if s[1] == name):
            wall += root[3] - root[2]
            per_thread = {}
            for s in self.spans:
                if parents[s[0]] == root[0]:
                    per_thread.setdefault(s[5], []).append((s[2], s[3]))
            busy += sum(_covered(iv, root[2], root[3]) for iv in per_thread.values())
        return busy / (wall * workers) if wall > 0 else 0.0

    def dump(self, path):
        """Write the spans as one JSON list per line."""
        import json

        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s[2]):
                fh.write(json.dumps(list(s)) + "\n")


def _covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
