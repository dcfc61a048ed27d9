"""Tests of the benchmark's own parts: generators, tracer, self-time arithmetic,
calibrated passes and output checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

CONFIG = (ROOT / "configs" / "laws-default.cfg").read_text(encoding="utf-8")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_in_the_seed(workload):
    first = workloads.generate(workload, 7, CONFIG)
    again = workloads.generate(workload, 7, CONFIG)
    other = workloads.generate(workload, 8, CONFIG)
    assert first == again
    assert workloads.inputs_hash(first) == workloads.inputs_hash(again)
    assert first != other
    assert workloads.inputs_hash(first) != workloads.inputs_hash(other)
    json.dumps(first)  # the inputs hash covers every field


def test_laws_workload_offsets_every_row_seed():
    rows = workloads.parse_law_rows(CONFIG)
    ops = workloads.laws_ops(CONFIG, 1000)
    copies = workloads.LAW_COPIES
    assert len(ops) == copies * len(rows)
    offsets = [op["seed"] - row[3] for op, row in zip(ops, rows * copies)]
    assert offsets == [copies * 1000 + k for k in range(copies) for _ in rows]


def test_n0_and_query_mixes_have_fixed_class_profiles():
    def profile(ops):
        return sorted(workloads.op_class(op) for op in ops)

    for gen in (workloads.n0_eval_ops, workloads.query_mix_ops):
        assert profile(gen(1)) == profile(gen(2))
    mix = workloads.query_mix_ops(3)
    assert len({op["argv"][0] for op in mix}) == 9
    assert not any("n0" in op["argv"] for op in mix)
    counts = {workloads.op_class(op): 0 for op in mix}
    for op in mix:
        counts[workloads.op_class(op)] += 1
    assert set(counts.values()) == {workloads.QUERIES_PER_CLASS}


def test_self_time_of_nested_spans():
    # 0 [0, 10] contains 1 [1, 6], which contains 2 [2, 3].
    selfs, root = tracing.self_times([0.0, 1.0, 2.0], [10.0, 6.0, 3.0], [-1, 0, 1])
    assert selfs == pytest.approx([5.0, 4.0, 1.0])
    assert root == pytest.approx(10.0)


def test_self_time_of_sibling_spans():
    # Two roots; the first has children [1, 2] and [4, 7].
    selfs, root = tracing.self_times([0.0, 1.0, 4.0, 12.0], [10.0, 2.0, 7.0, 13.0], [-1, 0, 0, -1])
    assert selfs == pytest.approx([6.0, 1.0, 3.0, 1.0])
    assert root == pytest.approx(11.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # Children [1, 5] and [3, 12] of [0, 10] cover [1, 10]: 9 s.
    selfs, _ = tracing.self_times([0.0, 1.0, 3.0], [10.0, 5.0, 12.0], [-1, 0, 0])
    assert selfs[0] == pytest.approx(1.0)


def test_tracer_wraps_every_binding_and_restores_it():
    import semideal
    import semideal.cli  # noqa: F401  imports every layer
    from semideal import fractional, ideals, instances, natideal, quadratic

    before = {(m, a): getattr(sys.modules[m], a) for m in sys.modules if m.startswith("semideal") for a in vars(sys.modules[m])}
    tracer = tracing.Tracer()
    with tracer:
        bound = {m.__name__ for m in (quadratic, ideals, fractional, instances)}
        assert {m for m, a in tracer.wrapped_bindings if a == "qi_mul"} >= bound
        assert ideals.qi_mul is quadratic.qi_mul is not before[("semideal.quadratic", "qi_mul")]
        assert ("semideal.natideal", "additive_closure") in tracer.wrapped_bindings
        assert ("semideal.natideal", "_scaled_bits_to_ideal") not in tracer.wrapped_bindings
        n0 = semideal.instance("n0")
        ideals.ideal_sum(ideals.ideal_from_generators(n0, [4, 6]), ideals.ideal_from_generators(n0, [9]))
    after = {(m, a): getattr(sys.modules[m], a) for (m, a) in before}
    assert all(after[k] is v for k, v in before.items())
    assert natideal.additive_closure.__module__.startswith("semideal._kernels")

    names = [tracer.names[i] for i in tracer.name_of]
    assert "ideals.ideal_sum" in names and "kernels.additive_closure" in names
    for i, nid in enumerate(tracer.name_of):
        p = tracer.parent[i]
        assert p < i
        if p >= 0:
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
    totals = tracing.layer_totals(tracer)
    assert totals["calls"]["natideal"] >= 1 and totals["self_s"]["kernels"] > 0


def test_n0_check_catches_a_wrong_result():
    op = {"argv": ["eval"], "check": {"op": "product", "a": [3, 5], "b": [2, 7]}}
    right = {"result": {"text": "I(6,10,21,35)", "integral": True}}
    wrong = {"result": {"text": "I(6,10,21)", "integral": True}}
    assert checks.check_query(op, 0, json.dumps(right)) is None
    assert "differs" in checks.check_query(op, 0, json.dumps(wrong))
    assert checks.check_query(op, 1, json.dumps(right)) == "exit code 1"
    internal = {"result": {"error": "InternalError", "message": "x"}}
    assert checks.check_query(op, 3, json.dumps(internal)).startswith("InternalError")


def test_calibrated_pass_times_the_loop_before_ops_and_outside_them():
    import run

    def op(n):
        time.sleep(0.012)
        return n

    times, outcomes, _, loops = run.run_pass(list(range(6)), op, calibrated=True)
    assert outcomes == list(range(6))
    assert all(t >= 0.012 for t in times)
    # A new loop at most every EVERY_S (20 ms): ops of 12 ms share one in pairs.
    assert all(c is not None and 0 < c < 0.012 for c in loops)
    assert 2 <= len(set(loops)) <= 4
    assert run.run_pass([1], op)[3] == [None]
