"""Benchmark of the hgmda package, run from the root of a source checkout.

    python3 perfbench/run.py --workload rect-lp --seed 1 --seconds 35 --trace 0

Runs whole operations of one workload (see workloads.py) until the next one
would end after --seconds, checks every outcome, and prints each metric by
name and unit, then one JSON line with correct, attempted, failed and
metrics. --trace 0 gives the end-to-end metrics; --trace 1 alternates
untraced and traced operations and gives the per-layer metrics, the
tracing overhead among them, and writes the spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
# child processes that each repeat the set-up; setup_s is their median
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("rect-lp", "tensor-hg", "protocol-grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up the workload and exit (used to time set-up)")
    return parser.parse_args(argv)


def load_program():
    """Imports hgmda from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hgmda", "__init__.py")):
        raise SystemExit(f"perfbench: no hgmda sources under {src}")
    sys.path.insert(0, src)
    import hgmda

    if os.path.dirname(os.path.dirname(os.path.abspath(hgmda.__file__))) != src:
        raise SystemExit(f"perfbench: imported hgmda from {hgmda.__file__}, not {src}")


def set_up(args):
    """Everything before the first timed operation: imports, inputs, CSVs."""
    load_program()
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    workload = workloads.WORKLOADS[args.workload]
    return workload, workload.setup(args.seed, workdir), workdir


def time_setup(argv):
    """Median wall time of SETUP_SAMPLES fresh processes doing the set-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), *argv, "--setup-only"],
                       check=True, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def measure(workload, inputs, seconds, tracer):
    """Whole operations until the next would end after `seconds`.

    With a tracer, operations alternate untraced and traced (at least one
    of each). Returns (timings per mode, attempted, failed, check failures,
    accuracies, traced root spans)."""
    times = {False: [], True: []}
    attempted = failed = 0
    failures, accs, roots = [], [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        if traced:
            tracer.install()
            root = tracer.open("op")
        t0 = time.perf_counter()
        try:
            outcome = workload.operate(inputs)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            outcome = None
            print(f"operation failed: {exc!r}", file=sys.stderr)
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.close(root)
            tracer.uninstall()
            roots.append(root)
            elapsed = root.duration
        if outcome is None:
            failed += 1
        else:
            times[traced].append(elapsed)
            found, acc = workload.check(inputs, outcome)
            failures += found
            accs.append(acc)
        spent = time.perf_counter() - start
        need_more = tracer is not None and attempted < 2
        if not need_more and spent + elapsed > seconds:
            break
    return times, attempted, failed, failures, accs, roots


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    # one BLAS thread: steadier timings on a shared machine, and the
    # matrices here are too small for threads to pay off
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.setup_only:
        _, _, workdir = set_up(args)
        shutil.rmtree(workdir)
        return 0

    workload, inputs, workdir = set_up(args)
    setup_s = None if args.trace else time_setup(argv)
    import selftest
    import spans

    selftest.run()
    tracer = spans.Tracer() if args.trace else None
    try:
        times, attempted, failed, failures, accs, roots = measure(
            workload, inputs, args.seconds, tracer
        )
    finally:
        shutil.rmtree(workdir)

    if not times[False] or (args.trace and not times[True]):
        raise SystemExit("perfbench: no operation succeeded, nothing to report")
    run_plain = statistics.median(times[False])
    if args.trace:
        metrics = spans.layer_metrics(tracer, tracer.spans, len(roots))
        run_traced = statistics.median(times[True])
        metrics["trace.run_s"] = (run_traced, "s")
        metrics["trace.untraced_run_s"] = (run_plain, "s")
        metrics["trace.overhead"] = (run_traced / run_plain - 1.0, "fraction")
        tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
        traced_total = sum(root.duration for root in roots)
        for name, own in sorted(tracer.self_times(tracer.spans).items(), key=lambda kv: -kv[1]):
            print(f"self-time share {name:22s} {100 * own / traced_total:6.2f} %")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (run_plain, "s"),
            "adapted_acc": (statistics.median(accs), "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(f"{'attempted':28s} {attempted}")
    print(f"{'failed':28s} {failed}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
