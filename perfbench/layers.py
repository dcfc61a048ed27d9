"""Per-layer metrics of a traced pass.

The metric names are those under ``per_layer`` in ``BENCHMARK.json``;
``perfbench/README.md`` says which end-to-end metric each should move.
``<layer>.calls`` counts calls that enter the layer from another layer or
from the benchmark; calls inside one layer are not counted again.
``<layer>.self_s`` is the layer's span time minus the time of the spans it
called, in seconds per pass over the workload's inputs.
"""

from __future__ import annotations

CANONICALISERS = ("natideal.from_generators", "natideal.from_periodic")
KERNEL = "kernels.additive_closure"


def _scaled_bits(args, kwargs, result):
    return result.c // result.d if result.d else 0


def _window_bits(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["limit"]


def _int_bits(args, kwargs, result):
    return max((a.bit_length() for a in args if isinstance(a, int)), default=0)


def _trials(args, kwargs, result):
    return result.trials


PROBES = {
    **{name: _scaled_bits for name in CANONICALISERS},
    KERNEL: _window_bits,
    "primes": _int_bits,
    "laws.check_law": _trials,
}


def pass_metrics(tracer, totals, names):
    """The per-layer metrics ``names`` of one traced pass, from the tracer and
    layer_totals(); ``trace.*`` metrics are left to the caller."""
    calls = totals["calls"]
    self_s = totals["self_s"]
    count = totals["span_count"]
    sums = tracer.probe_sums
    kid = tracer.name_ids.get(KERNEL)
    kernel_parents = {p for nid, p in zip(tracer.name_of, tracer.parent) if nid == kid}
    kernel_calls = count.get(KERNEL, 0)
    out = {
        "natideal.canon_calls": sum(count.get(n, 0) for n in CANONICALISERS),
        "natideal.scaled_bits": sum(sums.get(n, 0) for n in CANONICALISERS),
        "kernels.calls": kernel_calls,
        "kernels.window_bits": sums.get(KERNEL, 0),
        "kernels.calls_per_canon": kernel_calls / len(kernel_parents) if kernel_parents else 0.0,
        "primes.max_input_bits": max((v for k, v in tracer.probe_max.items() if k.startswith("primes.")), default=0),
        "laws.rows": count.get("laws.check_law", 0),
        "laws.trials": sums.get("laws.check_law", 0),
    }
    for name in names:
        layer, _, what = name.partition(".")
        if what == "calls" and name not in out:
            out[name] = calls.get(layer, 0)
        elif what == "self_s":
            out[name] = self_s.get(layer, 0.0)
    return out
