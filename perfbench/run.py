#!/usr/bin/env python3
"""echoqram benchmark: one workload per process, every metric with its unit.

    python3 perfbench/run.py --workload echo_sweep --seed 0 --seconds 35 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md): echo_sweep,
cli_configs, address_register.  All are closed loops with one client.

--trace 0 measures the end-to-end metrics: the set-up time of a fresh
interpreter (median of several), then whole passes of the workload, at
least one and more until the next one would end past --seconds.
Every timing is taken between runs of a fixed host-speed kernel and
reported at the reference host speed (hostspeed.py); the raw timings are
in the report line.
--trace 1 runs one untraced pass, then one pass with every public function
of the five echoqram layers wrapped from outside, and reports per-layer
metrics plus the tracing overhead (traced minus untraced pass wall time).

Every operation's output is checked; a failed check counts the operation as
failed.  The last stdout line is the result object; the line before it is
a report with the environment record, per-operation latencies and failures.
Exits 2 without a result when the checkout has no echoqram sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl
from tracer import PER_LAYER, Tracer, layer_metrics, merge

HERE = Path(__file__).resolve().parent
WORK_ROOT = HERE / "_work"

# Fresh interpreters timed for setup_s per run; the median is reported.
SETUP_REPEATS = 5

END_TO_END = {"setup_s": "s", "pass_s": "s", "op_p50_s": "s",
              "op_p90_s": "s", "peak_rss_mb": "MB"}


def harrell_davis(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile: a Beta-weighted mean
    of all order statistics, steadier than interpolating between two."""
    from scipy.special import betainc
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return float(sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], x)))


def op_percentiles(ops: list[wl.Op], scaled: bool = True) -> tuple[float, float, dict]:
    """p50 and p90 over the operations of a pass, each operation's latency
    being its median over the run's passes.

    A pass is a fixed mix of operations of very different cost, so a
    percentile of the pooled samples sits on the boundary between two kinds
    of operation whenever the mix splits evenly, and then reads the slowest
    repeat of one of them.  Taking each operation's median first keeps the
    percentiles on typical latencies whatever the number of passes.
    """
    by_name: dict = {}
    for op in ops:
        by_name.setdefault(op.name, []).append(op.scaled if scaled else op.seconds)
    medians = [statistics.median(v) for v in by_name.values()]
    return harrell_davis(medians, 0.5), harrell_davis(medians, 0.9), by_name


def setup_probe(workload: str, seed: int, smoke: bool, work: Path) -> tuple[float, float]:
    """Seconds from spawning an interpreter until it has the workload set
    up, and the part of them the child measured itself (after start-up)."""
    argv = [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed)]
    if smoke:
        argv.append("--smoke")
    with open(work / "setup.stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                cwd=wl.ROOT, env=wl.child_env())
        with proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
    if proc.returncode != 0 or not line:
        tail = (work / "setup.stderr").read_text()[-500:]
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {tail}")
    return elapsed, json.loads(line)["in_child_s"]


def safe_pass(workload, ctx, work: Path, tracer=None, meter=None) -> wl.Pass:
    """One pass; an exception fails the whole pass as a single operation."""
    t0 = time.perf_counter()
    try:
        return workload.run_pass(ctx, work, tracer, meter)
    except Exception as exc:  # the program under test raised: count, go on
        op = wl.Op(name="pass", seconds=time.perf_counter() - t0)
        op.fail(f"raised {exc!r}")
        return wl.Pass(ops=[op], wall=op.seconds)


def reference_probe(work: Path) -> list[wl.Op]:
    """The committed dynamics configs as cli_configs runs them, so that
    dynamics.ref_rel_err is measured on every workload and seed."""
    runner = wl.CliConfigs()
    runner.reference = {}
    inputs = [i for i in runner.make_inputs(0, smoke=False)
              if i[0] in wl.DYNAMICS_CONFIGS]
    return runner.run_pass(inputs, work).ops


def ref_rel_err(ops: list[wl.Op], reference: dict) -> float:
    worst = 0.0
    for op in ops:
        ref = reference.get(op.ref_key) if op.dynamics else None
        for key, value in (ref or {}).items():
            if key in op.outputs:
                worst = max(worst, wl.rel_err(op.outputs[key], value))
    return worst


def timed_run(workload, inputs, args, work: Path) -> tuple[list, dict, dict]:
    import hostspeed
    meter = hostspeed.Meter()
    setup = []
    for _ in range(SETUP_REPEATS):
        meter.begin()
        raw, in_child = setup_probe(workload.name, args.seed, args.smoke, work)
        outside, scaled = meter.end()
        setup.append((raw, raw * scaled / outside, in_child))
    wl.load_echoqram()
    ctx = workload.setup(inputs)
    passes = []
    t0 = time.perf_counter()
    with meter:
        while True:
            passes.append(safe_pass(workload, ctx, work, meter=meter))
            if time.perf_counter() - t0 + passes[-1].wall > args.seconds:
                break
    ops = [op for p in passes for op in p.ops]
    p50, p90, scaled_by_name = op_percentiles(ops)
    raw_p50, raw_p90, raw_by_name = op_percentiles(ops, scaled=False)
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(p.peak_rss_kb for p in passes)
    values = {
        "setup_s": statistics.median(s for _, s, _ in setup),
        "pass_s": sum(map(statistics.median, scaled_by_name.values())),
        "op_p50_s": p50,
        "op_p90_s": p90,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    extra = {"passes": len(passes), "samples": len(ops),
             "raw": {"setup_s": statistics.median(r for r, _, _ in setup),
                     "setup_in_child_s": statistics.median(c for _, _, c in setup),
                     "wall_s": sum(map(statistics.median, raw_by_name.values())),
                     "op_p50_s": raw_p50, "op_p90_s": raw_p90},
             "kernel_median_s": statistics.median(meter.kernels),
             "kernel_runs": len(meter.kernels),
             "setup_samples_s": setup}
    return ops, metrics, extra


def traced_run(workload, inputs, args, work: Path) -> tuple[list, dict, dict]:
    import_s = wl.load_echoqram()
    ctx = workload.setup(inputs)
    base = safe_pass(workload, ctx, work)
    probe = reference_probe(work)
    tracer = Tracer()
    if workload.in_process:
        with tracer:
            traced = safe_pass(workload, workload.setup(inputs), work, tracer)
    else:
        traced = safe_pass(workload, ctx, work, tracer)
        import_s = traced.child_import_s
    dump = merge([tracer.dump(), *traced.dumps])
    values = layer_metrics(dump)
    values["cli.import_s"] = import_s
    values["cli.write_bytes"] = traced.write_bytes
    values["dynamics.ref_rel_err"] = ref_rel_err(
        base.ops + traced.ops + probe, wl.load_reference())
    values["trace.overhead_s"] = traced.wall - base.wall
    metrics = {k: {"value": values[k], "unit": unit}
               for k, (unit, _) in PER_LAYER.items()}
    span_file = WORK_ROOT / f"spans-{workload.name}.json"
    span_file.write_text(json.dumps(dump))
    extra = {"untraced_wall_s": base.wall, "traced_wall_s": traced.wall,
             "spans": len(dump["spans"]), "span_file": str(span_file),
             "probe_failures": [f"{o.name}: {o.detail}" for o in probe if not o.ok]}
    return base.ops + traced.ops, metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced inputs for the benchmark's own self-test")
    args = ap.parse_args(argv)
    # a terminated run still removes its work directory and its children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # BLAS/OpenMP pools are sized when numpy is first imported, so nothing
    # above this line may import it (hostspeed, scipy and echoqram are
    # imported inside the functions that use them)
    for var in wl.THREAD_VARS:
        os.environ[var] = str(wl.THREADS)

    workload = wl.WORKLOADS[args.workload]
    try:
        wl.require_sources()
        inputs = workload.make_inputs(args.seed, args.smoke)
    except wl.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        run = traced_run if args.trace else timed_run
        ops, metrics, extra = run(workload, inputs, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not op.ok for op in ops)
    by_name = {name: {"n": len(v), "median": statistics.median(v),
                      "min": min(v), "max": max(v)}
               for name, v in op_percentiles(ops, scaled=False)[2].items()}
    report = {
        "report": "perfbench", "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "env": wl.environment(),
        "failed_frac": failed / len(ops),
        **extra,
        "op_raw_seconds": by_name,
        "failures": [f"{op.name}: {op.detail}" for op in ops if not op.ok][:20],
    }
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
