"""Benchmark for adjointalg: closed-loop workloads with output oracles and layer tracing.

Run from the repository root:

    python3 perfbench/run.py --workload construct-gf2 --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 1

One process, one client, no extra threads: the next job starts only when
the previous one has finished and its output has passed the workload's
oracle.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a
fixed number of jobs untraced and then traced, and reports the per-layer
metrics and the tracing overhead.  Every reported time is in reference
seconds (see ``speed.py``); the raw figures are printed beside them.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The package is imported from ``src/`` of
the same checkout; nothing is built or installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import namedtuple
from pathlib import Path

from speed import Speedometer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("construct-gf2", "factor-stream", "hilbert-modp", "finite-groups")

#: Fresh processes that each time one set-up; setup_s is their median.
SETUP_PROBES = 5

#: A fresh process that times ``import numpy``, the bulk of most set-ups.
IMPORT_PROBE = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"

#: ``import numpy`` on the reference host at undisturbed speed; set-up times are
#: scaled by it rather than by the calibration unit, because a host slowdown
#: hits imports differently from interpreter work.
IMPORT_REFERENCE_S = 0.1

#: Below this many samples the percentile with ten samples beyond it would
#: sit at or under the median, so the tail is reported as the maximum.
MIN_TAIL_SAMPLES = 20

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def set_up(name, seed, seconds, trace):
    """Import the package, generate the run's seeded inputs and warm up; returns (workload, inputs).

    An end-to-end run does ``round(seconds / CYCLE_S)`` whole cycles of the
    workload's shapes, at least one, so every run of a workload does the same
    jobs of each shape whatever the host's speed.  A traced run does the
    first TRACE_JOBS jobs.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[name]
    if trace:
        count = workload.TRACE_JOBS
    else:
        count = max(1, round(seconds / workload.CYCLE_S)) * len(workload.SHAPES)
    inputs = [workload.input_at(seed, i) for i in range(count)]
    workload.warm_up(seed)
    return workload, inputs


#: One job: seconds of job time (calibration excluded), None or the failure
#: reason, and the wall-clock interval the job ran in.
Record = namedtuple("Record", "seconds error start end")


def run_one(workload, inp, tracer=None, job=None, meter=None):
    """Time one job and check its output."""
    if tracer is not None:
        tracer.job = job
    paused = meter.paused_s if meter else 0.0
    start = time.perf_counter()
    try:
        out = workload.run_job(inp)
        error = None
    except Exception as exc:  # a crashed job is a failed job, not an aborted run
        out, error = None, f"raised {type(exc).__name__}: {exc}"
    end = time.perf_counter()
    seconds = end - start - (meter.paused_s - paused if meter else 0.0)
    if tracer is not None:
        tracer.job = None
    if error is None and (threading.active_count() != 1 or sys.gettrace() or sys.getprofile()):
        error = "job left a thread or a trace hook behind"
    if error is None:
        try:
            error = workload.check(inp, out)
        except Exception as exc:  # so is an output the oracle cannot even read
            error = f"oracle raised {type(exc).__name__}: {exc}"
    return Record(seconds, error, start, end)


def measure(workload, inputs, meter):
    """Closed loop over the inputs; the meter samples host speed during jobs and between them."""
    meter.sample(3)
    with meter.ticking():
        return [run_one(workload, inp, meter=meter) for inp in inputs]


def tail(times):
    """(value, description) of the highest percentile with at least ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n < MIN_TAIL_SAMPLES:
        return ordered[-1], f"max of {n} samples (under {MIN_TAIL_SAMPLES}, no percentile above p50 has ten beyond it)"
    k = n - 11
    return ordered[k], f"p{100 * (k + 1) / n:.1f} of {n} samples, 10 beyond it"


def probe_setup(name, seed, seconds):
    """Time this process's own set-up; run in a fresh interpreter by setup_seconds."""
    start = time.perf_counter()
    set_up(name, seed, seconds, trace=False)
    return time.perf_counter() - start


def setup_seconds(name, seed, seconds):
    """Raw set-up times of SETUP_PROBES fresh processes, and the scale to reference seconds.

    Each set-up probe follows an import probe; the scale is IMPORT_REFERENCE_S
    over the median import time.
    """
    samples, imports = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, check=True)
        imports.append(float(done.stdout))
        done = subprocess.run(
            [sys.executable, __file__, "--probe-setup", "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds)],
            capture_output=True, text=True, check=True, cwd=ROOT,
        )
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples, IMPORT_REFERENCE_S / statistics.median(imports)


def machine_facts():
    import numpy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "caches": caches or "unknown",
    }


def failure_lines(records, limit=3):
    reasons = [r.error for r in records if r.error is not None]
    return [f"  failed: {reason}" for reason in reasons[:limit]]


def end_to_end(name, seed, seconds):
    setup_samples, setup_scale = setup_seconds(name, seed, seconds)
    meter = Speedometer()
    workload, inputs = set_up(name, seed, seconds, trace=False)
    records = measure(workload, inputs, meter)
    raw = [r.seconds for r in records]
    times = [r.seconds * meter.scale(r.start, r.end) for r in records]
    scale = sum(times) / sum(raw)
    failed = sum(r.error is not None for r in records)
    correct = len(records) - failed
    tail_s, tail_note = tail(times)
    metrics = {
        "jobs_per_s": correct / sum(times),
        "job_s.p50": statistics.median(times),
        "job_s.tail": tail_s,
        "setup_s": statistics.median(setup_samples) * setup_scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "jobs_per_s": f"{correct} correct jobs / {sum(times):.4f} s of job time; raw {correct / sum(raw):.6g}",
        "job_s.p50": f"raw {statistics.median(raw):.6g}",
        "job_s.tail": f"{tail_note}; raw {tail(raw)[0]:.6g}",
        "setup_s": f"import scale {setup_scale:.4f} x median of raw "
        + ", ".join(f"{s:.4f}" for s in setup_samples),
    }
    lines = [
        f"  host speed: {scale:.4f} reference s per measured s on average"
        f" ({len(meter.timings)} calibration units)",
        f"  {'failed_share':<12} {failed / len(records):.4f}  ({failed} of {len(records)} jobs)",
    ]
    for key, value in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        lines.append(f"  {key:<12} {value:.6g} {END_TO_END_UNITS[key]}{note}")
    result = {key: {"value": value, "unit": END_TO_END_UNITS[key]} for key, value in metrics.items()}
    return records, result, lines + failure_lines(records)


def traced(name, seed):
    workload, jobs = set_up(name, seed, None, trace=True)
    import tracer as tracing

    meter = Speedometer()
    tracer = tracing.Tracer(clock=meter.clock)
    meter.sample(3)
    with meter.ticking():
        plain = [run_one(workload, inp, meter=meter) for inp in jobs]
        tracer.install()
        try:
            spanned = [run_one(workload, inp, tracer, job, meter) for job, inp in enumerate(jobs)]
        finally:
            tracer.uninstall()

    def p50(records):
        return statistics.median(r.seconds * meter.scale(r.start, r.end) for r in records)

    plain_p50, spanned_p50 = p50(plain), p50(spanned)
    result = tracing.layer_metrics(tracer, spanned_p50 - plain_p50)
    # Spans are in calibration-free seconds; scale them by the speed over the traced pass.
    scale = meter.scale(spanned[0].start, spanned[-1].end)
    for entry in result.values():
        if entry["unit"] == "s" and entry is not result["trace.overhead_s"]:
            entry["value"] *= scale
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "machine": machine_facts(), **tracing.spans_record(tracer)}
    with open(OUT_DIR / f"spans-{name}.json", "w") as fh:
        json.dump(record, fh)
    lines = [
        f"  host speed: {scale:.4f} reference s per measured s ({len(meter.timings)} calibration units)",
        f"  {len(jobs)} jobs untraced then traced; job_s.p50 {plain_p50:.6g} s untraced,"
        f" {spanned_p50:.6g} s traced; {len(tracer.spans)} spans in {OUT_DIR.name}/spans-{name}.json"
    ]
    for key, entry in result.items():
        lines.append(f"  {key:<32} {entry['value']:.6g} {entry['unit']}")
    return plain + spanned, result, lines + failure_lines(plain + spanned)


def run_workload(name, seed, seconds, trace):
    print("machine: " + json.dumps(machine_facts()))
    mode = "traced, per-layer metrics" if trace else "end-to-end metrics"
    print(f"workload {name}: closed loop, 1 client, seed {seed}, {seconds:g} s, {mode}")
    if trace:
        records, metrics, lines = traced(name, seed)
    else:
        records, metrics, lines = end_to_end(name, seed, seconds)
    print("\n".join(lines))
    failed = sum(r.error is not None for r in records)
    summary = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    print(json.dumps(summary), flush=True)
    return summary


def run_all(seed, seconds, trace):
    """Every workload in its own fresh process, so set-up and peak memory stay per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": {name: r["metrics"] for name, r in results.items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "adjointalg" / "__init__.py").is_file():
        print(f"perfbench: no adjointalg sources at {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        if args.workload == "all":
            parser.error("--probe-setup needs a single workload")
        print(json.dumps({"setup_s": probe_setup(args.workload, args.seed, args.seconds)}))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    run_workload(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
