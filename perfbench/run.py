"""hdivkit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload verify|refine|build --seed N \
        --seconds S --trace 0|1 [--out results.jsonl]

Run from the repository root; the program is imported from ./src.  The
last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones named in BENCHMARK.json, with --trace 1 the per-layer
ones.  The line before it is the full record (machine facts, sample
counts, failures, verdict tallies and, for traced runs, the behaviour
digest); --out appends that record to a JSON-lines file for compare.py.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# BLAS threads are pinned before numpy loads: the workloads are one caller
# on one thread, and the machine this was tuned on has 2 cores.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
SEGMENT_S = 0.25
MIN_PASSES = 3
MAX_SEED = 2**63 - 1

END_TO_END_UNITS = {"setup_s": "s", "batch_ref": "ratio", "peak_rss_mb": "MB",
                    "accuracy_digits": "digits"}


def reference_kernel() -> float:
    """Seconds for a fixed piece of work that does not use hdivkit.

    Interpreter arithmetic, a loop over 60-element long-double arrays (as
    in DOF-matrix assembly) and a chain on 400-element ones (as in DOF
    vectors).  The machine this was tuned on shares its cores: the same
    work ran up to 2x slower for seconds at a time, so pass times are also
    reported in units of this kernel, timed between segments of each pass.
    Changing the kernel changes the base of `batch_ref`.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(10000):
        acc += i * i % 7
    x = np.linspace(0.0, 1.0, 60, dtype=np.longdouble)
    s = np.zeros(60, dtype=np.longdouble)
    for i in range(120):
        p = x * float(i) + 1.0
        s = s + p * p
    a = np.linspace(0.0, 1.0, 400, dtype=np.longdouble)
    for _ in range(40):
        a = np.sqrt(a * a + 1.0) - 1.0 + a
    return time.perf_counter() - t0


def reference_time() -> float:
    return statistics.median(reference_kernel() for _ in range(3))


class RunStats:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run_pass(self, workload, units, ref=None):
        """Run one pass; returns (wall seconds, kernel units, last kernel time).

        With `ref`, the reference-kernel time taken just before the pass,
        the kernel is timed again between units whenever SEGMENT_S of work
        has gone by and at the end, and each segment's wall time is divided
        by the mean of the kernel times around it.  Kernel time is not
        counted in the pass's wall time.
        """
        wall = norm = segment = 0.0
        for unit in units:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                workload.run_unit(unit)
            except (Exception, SystemExit) as exc:  # a failed operation, counted
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(f"{type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - t0
            wall += elapsed
            segment += elapsed
            if ref is not None and segment >= SEGMENT_S:
                norm, ref, segment = self._close_segment(norm, ref, segment)
        if ref is not None and segment > 0.0:
            norm, ref, segment = self._close_segment(norm, ref, segment)
        return wall, norm, ref

    @staticmethod
    def _close_segment(norm, ref, segment):
        after = reference_time()
        return norm + segment / (0.5 * (ref + after)), after, 0.0


def seed_arg(text: str) -> int:
    try:
        seed = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if not 0 <= seed <= MAX_SEED:
        raise argparse.ArgumentTypeError(f"seed must be between 0 and {MAX_SEED}")
    return seed


def seconds_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seconds must be a number, got {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("seconds must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=seed_arg)
    parser.add_argument("--seconds", required=True, type=seconds_arg)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", default=None,
                        help="append the full record to this JSON-lines file")
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    return parser


def prepare_environment(seed: int) -> None:
    """Pin BLAS threads, pass the seed on and make ./src importable."""
    os.environ.update(BLAS_PIN)
    os.environ["HDIV_SEED"] = str(seed)
    init = os.path.join(SRC, "hdivkit", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: {init} not found; run from a checkout of the repository")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def import_hdivkit():
    import hdivkit

    where = os.path.dirname(os.path.abspath(hdivkit.__file__))
    if where != os.path.join(SRC, "hdivkit"):
        raise SystemExit(f"error: imported hdivkit from {where}, not from {SRC}")
    return hdivkit


def setup_sample(workload) -> float:
    """Import hdivkit plus the cold construction the workload needs."""
    t0 = time.perf_counter()
    import_hdivkit()
    workload.setup()
    return time.perf_counter() - t0


def setup_child(argv) -> float:
    """One set-up time, measured in a fresh interpreter running `argv`."""
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def percentile_note(samples: list) -> dict:
    """The highest of p90/p95/p99 with at least ten samples beyond it."""
    n = len(samples)
    best = {}
    for pct in (90, 95, 99):
        if n * (100 - pct) / 100 >= 10:
            best = {f"p{pct}": statistics.quantiles(samples, n=100)[pct - 1]}
    return best


def machine_facts() -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout is numpy-version specific
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "blas_thread_pin": {k: os.environ.get(k) for k in BLAS_PIN},
    }


def measure_passes(workload, stats, rng, seconds, between=None):
    """Closed loop of passes for `seconds`; `between(i)` runs before pass i.

    When `between` returns true it did work of its own, and the reference
    kernel is timed again before the pass.

    Returns per pass: the wall time, the time in reference-kernel units
    (see RunStats.run_pass) and the CLI output bytes.
    """
    times, ratios, nbytes = [], [], []
    deadline = time.perf_counter() + seconds
    ref = reference_time()
    while len(times) < MIN_PASSES or time.perf_counter() < deadline:
        units = workload.pass_units(rng)
        if between is not None and between(len(times)):
            ref = reference_time()
        gc.collect()
        before = workload.cli_bytes
        wall, norm, ref = stats.run_pass(workload, units, ref)
        times.append(wall)
        ratios.append(norm)
        nbytes.append(workload.cli_bytes - before)
    return times, ratios, nbytes


def run(workload, seed: int, seconds: float, trace: bool, setup_argv=None,
        n_setup: int = SETUP_SAMPLES) -> dict:
    """Set up, warm up and measure one workload; returns the full record.

    Untraced runs time passes, and time set-up in `n_setup` fresh
    interpreters started with `setup_argv` between them.  Traced runs
    alternate untraced and traced passes and report per-layer metrics.
    """
    import tracing

    stats = RunStats()
    rng = random.Random(seed)
    record = {"workload": workload.name, "seed": seed, "trace": int(trace),
              "seconds": seconds, "started": time.time()}
    samples = {}
    setup = []
    import_hdivkit()
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    workload.setup()
    if tracer:
        tracer.uninstall()
        setup_layer = tracer.setup_metrics()
        tracer.reset()
    stats.run_pass(workload, workload.pass_units(rng))  # warm-up, not measured

    if not trace:
        start = time.perf_counter()

        def setup_due(i):
            # set-up samples are spread over the run: machine speed drifts
            # for seconds at a time, and back-to-back samples drift together
            if len(setup) < n_setup and (
                    time.perf_counter() >= start + len(setup) * seconds / n_setup):
                setup.append(setup_child(setup_argv))
                return True
            return False

        times, ratios, _ = measure_passes(workload, stats, rng, seconds, between=setup_due)
        while len(setup) < n_setup:
            setup.append(setup_child(setup_argv))
        samples["setup_s"] = len(setup)
        samples["batch_ref"] = len(times)
        samples["accuracy_digits"] = workload.accuracy_samples
        record["batch_s"] = statistics.median(times)
        record["reference_kernel_s"] = statistics.median(
            t / r for t, r in zip(times, ratios))
        values = {
            "setup_s": statistics.median(setup) if setup else math.nan,
            "batch_ref": statistics.median(ratios),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy_digits": workload.worst_digits,
        }
        metric_units = END_TO_END_UNITS
        record["batch_s_tail"] = percentile_note(times)
        record["pass_times_s"] = times
        record["setup_times_s"] = setup
    else:
        def toggle(i):
            # even passes untraced, odd passes traced: the overhead ratio
            # compares neighbours, so drift over the run cancels out
            if i % 2:
                tracer.install()
            else:
                tracer.uninstall()

        times, _, nbytes = measure_passes(workload, stats, rng, seconds, between=toggle)
        tracer.uninstall()
        traced, plain = times[1::2], times[0::2]
        values = dict(setup_layer)
        values.update(tracer.pass_metrics(len(traced)))
        values["cli.bytes_written"] = statistics.mean(nbytes[1::2])
        values["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
        metric_units = dict(tracing.per_layer_names())
        samples["traced_passes"] = len(traced)
        samples["untraced_passes"] = len(plain)
        inconsistent = tracer.count_consistency()
        if inconsistent:
            record["inconsistent_dof_counts"] = inconsistent
    record.update({
        "samples": samples,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "failed_frac": stats.failed / stats.attempted,
        "errors": stats.errors,
        "summary": workload.summary(),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in metric_units.items()},
    })
    return record


def result_line(record: dict) -> dict:
    correct = record["failed"] == 0 and "inconsistent_dof_counts" not in record
    return {"correct": correct, "attempted": record["attempted"], "failed": record["failed"],
            "metrics": record["metrics"]}


def report(record: dict) -> None:
    """Human-readable lines: each metric with its unit and sample count."""
    samples = record["samples"]
    tail = "".join(f", {k} {v:.6g}" for k, v in record.get("batch_s_tail", {}).items())
    if "batch_s" in record:
        print(f"batch_s = {record['batch_s']:.6g} s  (median wall time of "
              f"{samples['batch_ref']} passes{tail}; not gated)")
    notes = {
        "setup_s": f"median of {samples.get('setup_s')} fresh interpreters",
        "batch_ref": f"median over {samples.get('batch_ref')} passes of the pass time over a "
                     f"{1e3 * record.get('reference_kernel_s', math.nan):.3g} ms reference kernel",
        "peak_rss_mb": "peak of the measuring process",
        "accuracy_digits": f"worst of {samples.get('accuracy_digits')} checked errors",
    }
    for name, metric in record["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{note}")
    if record["trace"]:
        print(f"per pass over {samples['traced_passes']} traced passes; "
              f"{samples['untraced_passes']} untraced passes for trace.overhead")
    print(f"failed_frac = {record['failed_frac']:.6g}  "
          f"({record['failed']} of {record['attempted']} operations)")


def main(argv=None) -> int:
    sys.path.insert(0, BENCH_DIR)
    args = build_parser().parse_args(argv)
    prepare_environment(args.seed)
    import workloads

    if args.setup_sample:
        workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
        try:
            print(repr(setup_sample(workloads.make(args.workload, workdir))))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    setup_argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-sample"]
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        workload = workloads.make(args.workload, workdir)
        record = run(workload, args.seed, args.seconds, bool(args.trace), setup_argv)
        if args.trace:
            import digest

            record["digest"] = digest.behaviour_digest(workdir)
        record["machine"] = machine_facts()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    report(record)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
