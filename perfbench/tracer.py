"""In-memory span tracer that wraps semideal's public functions per layer.

A layer is a module of the package (``natideal``, ``quadratic``, ``cli``...);
the functions of ``semideal._kernels`` form the layer ``kernels``. The
tracer replaces every binding of a public function, in every semideal
module that holds one (``qi_mul`` in ``quadratic``, ``ideals``,
``fractional`` and ``instances``; ``additive_closure`` in ``_kernels`` and
``natideal``), by one wrapper that records a span. Private helpers such as
``cli._build_parser`` or ``quadratic._hnf2`` are not wrapped, so their time
is self time of the public function that called them; so is the time of
methods such as ``NatIdeal.contains``.

Spans are kept in flat arrays (name id, parent index, start, end) and only
summarised or written out after the traced pass, so the wrapper does a fixed,
small amount of work per call.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

PACKAGE = "semideal"


def layer_of(module_name):
    """Layer name of a semideal module: 'semideal._kernels.x' -> 'kernels'."""
    parts = module_name.split(".")
    if len(parts) == 1:
        return PACKAGE
    return parts[1].lstrip("_")


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        owner = getattr(obj, "__module__", None) or ""
        if owner == PACKAGE or owner.startswith(PACKAGE + "."):
            yield name, obj


class Tracer:
    """Wraps the bindings on ``install()`` and restores them on ``restore()``.

    Use as a context manager. ``probes`` maps a span name ('layer.func') or a
    whole layer to a function ``(args, kwargs, result) -> number``; the
    tracer keeps the sum of that number per span name in ``probe_sums`` and
    its maximum in ``probe_max``. A probe runs after the span has ended.
    """

    def __init__(self, probes=None):
        self.probes = dict(probes or {})
        self.names = []  # span name per name id
        self.name_ids = {}
        self._saved = []  # (module, attribute, original)
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.probe_sums = {}
        self.probe_max = {}

    # -- binding management -------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrappers = {}
        for module in modules:
            for attr, fn in list(_public_functions(module)):
                if id(fn) not in wrappers:
                    span_name = f"{layer_of(fn.__module__)}.{fn.__name__}"
                    wrappers[id(fn)] = self._wrap(fn, span_name)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])
        return self

    def restore(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    @property
    def wrapped_bindings(self):
        return [(m.__name__, attr) for m, attr, _ in self._saved]

    def _wrap(self, fn, span_name):
        if span_name not in self.name_ids:
            self.name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self.name_ids[span_name]
        probe = self.probes.get(span_name) or self.probes.get(span_name.split(".", 1)[0])
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.name_of)
            tracer.name_of.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if probe is not None:
                value = probe(args, kwargs, result)
                tracer.probe_sums[span_name] = tracer.probe_sums.get(span_name, 0) + value
                tracer.probe_max[span_name] = max(tracer.probe_max.get(span_name, 0), value)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- output ---------------------------------------------------------------

    def write(self, path, origin):
        """Write the recorded spans as gzip TSV: name, start, end, parent.

        Times are seconds since ``origin``; parent is the 0-based row index of
        the enclosing span, or -1.
        """
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            names = self.names
            for nid, p, s, e in zip(self.name_of, self.parent, self.start, self.end):
                fh.write(f"{names[nid]}\t{s - origin:.9f}\t{e - origin:.9f}\t{p}\n")


def self_times(start, end, parent):
    """Self time of every span: its duration minus the time its children cover.

    Spans must be indexed in order of their start, as the tracer records
    them. Children are clipped to their parent, and overlapping children are
    counted once. Returns (self_times, root_covered), where root_covered is
    the union length of the spans without a parent.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [float("-inf")] * n  # right end of the children seen so far
    root_covered = 0.0
    root_reach = float("-inf")
    for i in range(n):
        s, e, p = start[i], end[i], parent[i]
        if p < 0:
            lo = max(s, root_reach)
            if e > lo:
                root_covered += e - lo
            root_reach = max(root_reach, e)
            continue
        lo = max(s, reach[p])
        hi = min(e, end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], e)
    return [end[i] - start[i] - covered[i] for i in range(n)], root_covered


def layer_totals(tracer):
    """Per layer: self time, and calls that enter the layer from outside it.

    Also returns the number of spans per span name, and the union length of
    the root spans.
    """
    selfs, root_covered = self_times(tracer.start, tracer.end, tracer.parent)
    layer_by_nid = [name.split(".", 1)[0] for name in tracer.names]
    self_s = {}
    calls = {}
    count = {}
    for i, nid in enumerate(tracer.name_of):
        layer = layer_by_nid[nid]
        self_s[layer] = self_s.get(layer, 0.0) + selfs[i]
        p = tracer.parent[i]
        if p < 0 or layer_by_nid[tracer.name_of[p]] != layer:
            calls[layer] = calls.get(layer, 0) + 1
        name = tracer.names[nid]
        count[name] = count.get(name, 0) + 1
    return {
        "self_s": self_s,
        "calls": calls,
        "span_count": count,
        "root_covered_s": root_covered,
    }

