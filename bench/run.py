"""Layered benchmark for hochheat: seeded workloads, end-to-end and per-layer metrics.

Run one workload:

    python3 bench/run.py --workload exact-random --seed 0 --seconds 20 --trace 0

or every workload in turn, each in its own process:

    python3 bench/run.py --workload all --seed 0 --seconds 20

The program is imported from ``src/`` next to this directory; nothing is
installed.  The run sets up several times (import, inputs, cache fill and a
discarded warm-up pass), then times passes for ``--seconds`` seconds.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it times
untraced passes for half the time and traced passes for the other half, and
reports the per-layer metrics of the median traced pass and the tracing
overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The full record, with the
environment, is written to ``.bench_out/``.
"""

from __future__ import annotations

import os

#: BLAS threads; with the interpreter's thread this keeps a run within nproc
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("exact-random", "spectral-sweep", "suite-all")
PROGRAM_MODULES = ("weyl", "chains", "forms", "randomgen", "spectral", "chern", "circle",
                   "report", "suite", "cli")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: set-ups per run; setup_s reports their median
SETUP_REPEATS = 3


class ProgramMissing(RuntimeError):
    """The checkout has no hochheat sources to benchmark."""


def import_program():
    """Import hochheat, numpy and every hochheat module from ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "hochheat", "__init__.py")):
        raise ProgramMissing(f"no hochheat sources under {SRC}")
    sys.path.insert(0, SRC)
    package = importlib.import_module("hochheat")
    for name in PROGRAM_MODULES:
        importlib.import_module(f"hochheat.{name}")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"hochheat was imported from {package.__file__}, not {SRC}")
    return package


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def os_threads() -> int:
    """Threads of this process, as the kernel counts them."""
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def environment(package) -> Dict[str, object]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hochheat": package.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "os_threads": os_threads(),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def measure(workload, seconds: float, clock, tracer=None):
    """Time passes until the next one would end after `seconds`.

    Returns the `speed.Interval` of every pass and the merged outcome.
    Inputs are prepared, and run ids switched, outside the timed region.
    """
    from workloads import Outcome

    intervals = []
    outcome = Outcome()
    started = time.perf_counter()
    index = 0
    while True:
        if tracer is not None:
            tracer.begin_run(-1)
        inputs = workload.prepare(index)
        if tracer is not None:
            tracer.begin_run(index)
        # kernel runs inside a traced pass would count as a layer's self time
        result, interval = clock.time(lambda: workload.run(inputs), inner=tracer is None)
        intervals.append(interval)
        outcome.merge(result)
        index += 1
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(i.wall for i in intervals) > seconds:
            break
    if tracer is not None:
        tracer.begin_run(-1)
    return intervals, outcome


def run_workload(args) -> int:
    sys.path.insert(0, HERE)
    import speed

    clock = speed.Clock()
    try:
        package, import_time = clock.time(import_program)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](package, args.seed, OUT_DIR)
    exponent = workload.SPEED_EXPONENT
    try:
        setups = [clock.time(workload.setup)[1] for _ in range(SETUP_REPEATS)]
        timed = args.seconds / 2 if args.trace else args.seconds
        passes, outcome = measure(workload, timed, clock)
        n_passes = len(passes)
        record: Dict[str, object] = {}
        if args.trace:
            import tracing

            tracer = tracing.Tracer(package)
            with tracer:
                traced, t_outcome = measure(workload, timed, clock, tracer)
            outcome.merge(t_outcome)
            n_passes += len(traced)
            walls = [i.wall_s(exponent) for i in traced]
            rank = sorted(range(len(walls)), key=walls.__getitem__)[(len(walls) - 1) // 2]
            layer = tracer.run_metrics(rank, traced[rank].wall, walls[rank] / traced[rank].wall)
            layer["trace.untraced_wall_s"] = statistics.median(i.wall_s(exponent) for i in passes)
            layer["trace.overhead_s"] = layer["trace.wall_s"] - layer["trace.untraced_wall_s"]
            record["metrics"] = {
                name: {"value": int(layer[name]) if unit == "count" else layer[name], "unit": unit}
                for name, unit in tracing.LAYER_METRICS}
            span_file = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
            tracer.dump(span_file)
            record["span_file"] = os.path.relpath(span_file, ROOT)
            record["traced_passes"] = [vars(i) for i in traced]
        outcome.merge(workload.finish())
    finally:
        workload.close()

    median = statistics.median
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(package),
        "nominal_kernel_s": speed.NOMINAL_S,
        "kernel_samples": clock.samples,
        "import": vars(import_time),
        "setups": [vars(i) for i in setups],
        "passes": [vars(i) for i in passes],
        "end_to_end": {
            "wall_s": median(i.wall_s(exponent) for i in passes),
            "cpu_s": median(i.cpu_s(exponent) for i in passes),
            "setup_s": import_time.wall_s(exponent) + median(i.wall_s(exponent) for i in setups),
            "peak_rss_mb": peak_rss_mb(),
        },
        "raw_seconds": {
            "wall_s": median(i.wall for i in passes),
            "cpu_s": median(i.cpu for i in passes),
            "setup_s": import_time.wall + median(i.wall for i in setups),
        },
        "wall_quartiles_s": quartiles([i.wall_s(exponent) for i in passes]),
        "speed_exponent": exponent,
        "host_speed": median(speed.NOMINAL_S / i.ref_wall for i in passes),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "fail_ratio": outcome.failed / outcome.attempted if outcome.attempted else 1.0,
        "failures": outcome.failures,
        "accuracy_margin_dec": workloads.accuracy_margin(outcome.deviations),
        "float_checks": len(outcome.deviations),
        "cache_hits_per_pass": outcome.cache_hits / n_passes,
        "correct": outcome.failed == 0 and outcome.attempted > 0,
    })
    if not args.trace:
        record["metrics"] = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                             for name, value in record["end_to_end"].items()}
    result_file = os.path.join(
        OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_file, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print_summary(record)
    print(f"record {os.path.relpath(result_file, ROOT)}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")},
                     sort_keys=True))
    return 0 if record["correct"] else 1


def print_summary(record: Dict) -> None:
    """Print every metric of a run record by name, with its unit."""
    e2e, raw, q = record["end_to_end"], record["raw_seconds"], record["wall_quartiles_s"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']:g}  trace {record['trace']}")
    print("environment " + " ".join(f"{k}={v}" for k, v in record["environment"].items()))
    print(f"host speed {record['host_speed']:.3f} of nominal (reference kernel "
          f"{record['nominal_kernel_s']} s); times are speed-corrected, raw seconds in brackets")
    print(f"  wall_s              {e2e['wall_s']:.6f} s   [{raw['wall_s']:.6f}]  median of "
          f"{len(record['passes'])} passes, quartiles {q[0]:.6f} .. {q[2]:.6f}")
    print(f"  cpu_s               {e2e['cpu_s']:.6f} s   [{raw['cpu_s']:.6f}]")
    print(f"  setup_s             {e2e['setup_s']:.6f} s   [{raw['setup_s']:.6f}]  import "
          f"plus the median of {len(record['setups'])} set-ups")
    print(f"  peak_rss_mb         {e2e['peak_rss_mb']:.3f} MB")
    print(f"  fail_ratio          {record['fail_ratio']:.6g} ratio   {record['failed']} of "
          f"{record['attempted']} operations failed")
    if record["accuracy_margin_dec"] is not None:
        print(f"  accuracy_margin_dec {record['accuracy_margin_dec']:.4f} dec   over "
              f"{record['float_checks']} float checks")
    if record["workload"] == "suite-all":
        print(f"  cache_hits          {record['cache_hits_per_pass']:g} count per timed pass")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    if record["trace"]:
        import tracing

        metrics = record["metrics"]
        print("per-layer metrics of the median traced pass (speed-corrected seconds):")
        for name, unit in tracing.LAYER_METRICS:
            print(f"  {name:<40} {metrics[name]['value']:.6g} {unit}")
        attributed = sum(metrics[f"layer.{m}.self_s"]["value"] for m in tracing.MODULES)
        print(f"  layers {attributed:.6f} s + unattributed "
              f"{metrics['trace.unattributed_s']['value']:.6f} s = traced wall "
              f"{metrics['trace.wall_s']['value']:.6f} s")


def run_all(args) -> int:
    """Run every workload in its own process and print each metric with its unit."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode == 2:
            return 2
        try:
            summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return proc.returncode or 1
        status = status or proc.returncode
    print(json.dumps(summary, sort_keys=True))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
