"""The semideal benchmark: three closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload laws|n0-eval|query-mix|all --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``src/semideal``,
``tests/oracles.py`` and ``configs/laws-default.cfg`` from there and fails
with exit code 2 when they are missing.

Each workload is a closed loop: one client in one process, no threads, each
op starting when the previous one has returned. The seeded inputs of one
pass (see ``workloads.py``) are repeated until at least ``--seconds`` have
passed and at least 200 ops have run, always ending at the end of a pass.

Every op time and set-up time is scaled to a reference machine speed by a
calibration loop timed just before it (see ``calibration.py``); the report
also gives the unscaled values. ``--trace 0`` measures the end-to-end
metrics untraced. ``--trace 1`` alternates an untraced pass with a pass in
which every public function of every layer is wrapped (see ``tracer.py``)
and reports the per-layer metrics of ``layers.py`` per pass. Outputs are
checked after the timed passes (see ``checks.py``); a failed op counts in
``failed`` and ``error_rate``.

Metric names and units come from ``BENCHMARK.json``. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it is a JSON report with the
environment, the hash of the generated inputs, every metric and the share of
op time per class of op.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
LAW_CONFIG = ROOT / "configs" / "laws-default.cfg"
SPAN_DIR = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 200  # at least 10 samples beyond p95
SETUP_PROBES = 21
clock = time.perf_counter


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def setup_probe():
    """Seconds a fresh process needs to import and warm up semideal, unscaled
    and scaled by the calibration loops timed just before and after it."""
    before = calibration.time_loop()
    done = subprocess.run(
        [sys.executable, str(HERE / "warmup.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    after = calibration.time_loop()
    raw = float(done.stdout.strip().splitlines()[-1])
    return raw, raw * calibration.REF_S / ((before + after) / 2)


class Program:
    """The semideal entry points a workload calls, looked up on every call so
    that the tracer's wrappers are seen."""

    def __init__(self):
        import semideal.cli
        import semideal.instances
        import semideal.laws

        self.cli = semideal.cli
        self.instances = semideal.instances
        self.laws = semideal.laws

    def law_row(self, op):
        return self.laws.check_law(self.instances.instance(op["instance"]), op["law"], op["trials"], op["seed"])

    def query(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = self.cli.main(list(op["argv"]))
        return rc, buf.getvalue()


class OpError:
    """An exception that escaped an op; it fails that op."""

    def __init__(self, exc):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        self.traceback = traceback.format_exc()

    def __eq__(self, other):
        return isinstance(other, OpError) and other.text == self.text


def run_pass(ops, execute, calibrated=False):
    """One closed-loop pass; returns (per-op seconds, outcomes, wall seconds,
    per-op calibration loop seconds).

    When ``calibrated``, the calibration loop is timed before an op whenever
    ``calibration.EVERY_S`` has passed since it was last timed, and each op
    gets the latest loop time. The loops are outside the op times.
    """
    times = []
    outcomes = []
    loops = []
    loop_s, loop_end = None, float("-inf")
    start = clock()
    for op in ops:
        if calibrated and clock() - loop_end >= calibration.EVERY_S:
            loop_s = calibration.time_loop()
            loop_end = clock()
        t0 = clock()
        try:
            out = execute(op)
        except Exception as exc:  # a failed op; recorded and counted, the loop goes on
            out = OpError(exc)
        times.append(clock() - t0)
        outcomes.append(out)
        loops.append(loop_s)
    return times, outcomes, clock() - start, loops


def check_outcome(workload, op, out):
    if isinstance(out, OpError):
        print(out.traceback, file=sys.stderr)
        return out.text
    if workload == "laws":
        return checks.check_law(op, out)
    return checks.check_query(op, *out)


class Tally:
    """Outputs of the first pass are checked; later passes must repeat them."""

    def __init__(self, workload, ops):
        self.workload = workload
        self.ops = ops
        self.first = None
        self.same = [0] * len(ops)  # later passes that repeated op i's first output
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, outcomes):
        self.attempted += len(outcomes)
        if self.first is None:
            self.first = outcomes
            return
        for i, (out, ref) in enumerate(zip(outcomes, self.first)):
            if out == ref:
                self.same[i] += 1
            else:
                self.failed += 1
                self._note(i, "output differs from the first pass")

    def check_first(self):
        """Check the first pass against the oracles; returns seconds spent."""
        t0 = clock()
        for i, (op, out) in enumerate(zip(self.ops, self.first)):
            why = check_outcome(self.workload, op, out)
            if why is not None:
                self.failed += 1 + self.same[i]
                self._note(i, why)
        return clock() - t0

    def _note(self, i, why):
        if len(self.reasons) < 10:
            self.reasons.append({"op": self.ops[i].get("argv") or self.ops[i], "why": why})


def timing_metrics(times, setup):
    """ops_per_s, op_p50_ms, op_p95_ms and setup_s of op and set-up seconds."""
    twentieths = statistics.quantiles(times, n=20, method="inclusive")
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": twentieths[9] * 1e3,
        "op_p95_ms": twentieths[18] * 1e3,
        "setup_s": statistics.median(setup),
    }


def class_shares(ops, times):
    """Share of the summed op time per class of op, in percent."""
    totals = {}
    for i, t in enumerate(times):
        cls = workloads.op_class(ops[i % len(ops)])
        totals[cls] = totals.get(cls, 0.0) + t
    whole = sum(totals.values())
    return {cls: round(100 * t / whole, 2) for cls, t in sorted(totals.items(), key=lambda kv: -kv[1])}


def measure_untraced(workload, ops, execute, seconds):
    tally = Tally(workload, ops)
    times, loops, pass_walls, setup = [], [], [], []
    start = clock()
    while not pass_walls or clock() - start < seconds or len(times) < MIN_OPS:
        pass_times, outcomes, wall, pass_loops = run_pass(ops, execute, calibrated=True)
        times.extend(pass_times)
        loops.extend(pass_loops)
        tally.add(outcomes)
        pass_walls.append(wall)
        # Set-up probes are spread over the run, between passes, so that
        # their median sees the same machine as the ops do.
        if len(setup) < SETUP_PROBES * (clock() - start) / seconds:
            setup.append(setup_probe())
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe())
    wall = clock() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_s = tally.check_first()
    scaled = [t * calibration.REF_S / c for t, c in zip(times, loops)]
    metrics = timing_metrics(scaled, [s for _, s in setup])
    metrics["peak_rss_mb"] = peak_rss_mb
    info = {
        "passes": len(pass_walls),
        "pass_s": pass_walls,
        "ops": len(times),
        "measured_wall_s": wall,
        "check_s": check_s,
        "calibration_loop_ms": {"median": statistics.median(loops) * 1e3, "min": min(loops) * 1e3, "max": max(loops) * 1e3},
        "unscaled": timing_metrics(times, [r for r, _ in setup]),
        "class_share_pct": class_shares(ops, scaled),
    }
    return metrics, tally, info


def scaled_sum(times, loops):
    return sum(t * calibration.REF_S / c for t, c in zip(times, loops))


def measure_traced(workload, ops, execute, seconds, names):
    """Alternate untraced and traced passes; per-layer metrics per pass.

    Both kinds of pass are calibrated. A traced pass's self times are scaled
    by the ratio of its scaled to its unscaled op time.
    """
    tally = Tally(workload, ops)
    untraced_op_s, traced_op_s, per_pass = [], [], []
    first = None  # (tracer, origin) of the first traced pass, written out at the end
    start = clock()
    while not per_pass or clock() - start < seconds:
        times, outcomes, _, loops = run_pass(ops, execute, calibrated=True)
        untraced_op_s.append(scaled_sum(times, loops))
        tally.add(outcomes)
        tracer = tracing.Tracer(layers.PROBES)
        with tracer:
            wrapped = len(tracer.wrapped_bindings)
            origin = clock()
            times, outcomes, _, loops = run_pass(ops, execute, calibrated=True)
        traced_op_s.append(scaled_sum(times, loops))
        tally.add(outcomes)
        totals = tracing.layer_totals(tracer)
        metrics = layers.pass_metrics(tracer, totals, names)
        factor = traced_op_s[-1] / sum(times)
        for name in metrics:
            if name.endswith(".self_s"):
                metrics[name] *= factor
        metrics["trace.uncovered_pct"] = 100.0 * (sum(times) - totals["root_covered_s"]) / sum(times)
        per_pass.append(metrics)
        first = first or (tracer, origin)
    check_s = tally.check_first()
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        # Counts repeat exactly from pass to pass; times are averaged.
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.fmean(values)
    metrics["trace.overhead_s"] = statistics.fmean(traced_op_s) - statistics.fmean(untraced_op_s)
    SPAN_DIR.mkdir(exist_ok=True)
    span_path = SPAN_DIR / f"spans-{workload}.tsv.gz"
    first[0].write(span_path, first[1])
    info = {
        "pairs_of_passes": len(per_pass),
        "untraced_pass_op_s": untraced_op_s,
        "traced_pass_op_s": traced_op_s,
        "spans_in_first_traced_pass": len(first[0].name_of),
        "span_file": str(span_path.relative_to(ROOT)),
        "wrapped_bindings": wrapped,
        "check_s": check_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, tally, info


def run_all(args):
    """Run every workload in its own process and print all their metrics.

    The last line sums ``attempted`` and ``failed`` and prefixes every metric
    name with its workload.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run([sys.executable, str(HERE / "run.py"), *argv], cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"perfbench: workload {workload} exited with code {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{name}": m for name, m in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = _parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in (SRC / "semideal" / "__init__.py", ORACLES, LAW_CONFIG, SPEC) if not p.is_file()]
    if missing:
        print(f"perfbench: not a semideal source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path[:0] = [str(SRC), str(ORACLES.parent)]
    import warmup
    from semideal._kernels import backend_name

    ops = workloads.generate(args.workload, args.seed, LAW_CONFIG.read_text(encoding="utf-8"))
    program = Program()
    execute = program.law_row if args.workload == "laws" else program.query

    warmup.warm_up()
    run_pass(ops[:10], execute)  # untimed: first calls into every code path the pass starts with
    for _ in range(20):
        calibration.time_loop()  # untimed: the interpreter specialises the loop's code

    if args.trace:
        metrics, tally, info = measure_traced(args.workload, ops, execute, args.seconds, list(units))
    else:
        metrics, tally, info = measure_untraced(args.workload, ops, execute, args.seconds)
    error_rate = tally.failed / tally.attempted
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "kernel_backend": backend_name(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "inputs_sha256": workloads.inputs_hash(ops),
        "ops_per_pass": len(ops),
        "run": info,
        "error_rate": error_rate,
        "failures": tally.reasons,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    for name in units:
        print(f"{args.workload:<10} {name:<26} {metrics[name]:>16.6f} {units[name]}")
    print(f"{args.workload:<10} {'error_rate':<26} {error_rate:>16.6f} failed/attempted ({tally.failed}/{tally.attempted})")
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
