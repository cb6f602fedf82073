"""One benchmark process: set up one workload, then run its timed passes.

``run.py`` starts this script in a fresh interpreter for every sample, so
peak RSS and set-up time belong to one workload.  The last line of its
standard output is a JSON object: the monotonic time at which the first
timed call was about to start, the import time, and (unless
``--setup-only``) the pass results.

Untraced mode times passes for ``--seconds`` seconds.  Traced mode times
untraced passes for half that, then runs one pass with a span around every
public ``ttbell`` function and one pass with tracemalloc around the calls
in ``layers.ALLOC_PROBED``, and reports the per-layer metrics.
"""

import time

_IMPORT_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - _IMPORT_START

OUT = Path(__file__).resolve().parent / "_out"
MIN_PASSES = 3
MIN_BASELINE_PASSES = 2

clock = time.perf_counter

# Each CPU of a shared machine slows down and speeds up on its own, for
# seconds at a time; running pass i on the i-th allowed CPU in turn lets
# every run sample all of them instead of whichever one it started on.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def timed_pass(workload, index: int, tally) -> float:
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[index % len(CPUS)]})
    try:
        return workloads.run_pass(workload, index, tally, clock)
    finally:
        if len(CPUS) > 1:
            os.sched_setaffinity(0, CPUS)


def run_untraced(workload, seconds: float) -> dict:
    tally = workloads.Tally()
    walls: list[float] = []
    start = clock()
    while len(walls) < MIN_PASSES or clock() - start < seconds:
        walls.append(timed_pass(workload, len(walls), tally))
    return {"walls": walls, **tally.as_dict()}


def run_traced(workload, seconds: float, out_dir: Path = OUT) -> dict:
    tally = workloads.Tally()
    walls: list[float] = []
    start = clock()
    while len(walls) < MIN_BASELINE_PASSES or clock() - start < seconds / 2:
        walls.append(timed_pass(workload, len(walls), tally))

    tracer = spans.Tracer(clock)
    mismatches_before = getattr(workload, "shard_mismatches", 0)
    roundtrip_before = tally.by_kind["model_io.roundtrip"]
    restore = spans.install(lambda name, fn: tracer.wrap(name, fn, layers.WORK.get(name)))
    cpu_before = os.times()
    try:
        traced_wall = timed_pass(workload, len(walls), tally)
    finally:
        restore()
    cpu_after = os.times()
    shard_mismatches = getattr(workload, "shard_mismatches", 0) - mismatches_before
    roundtrip_failures = tally.by_kind["model_io.roundtrip"] - roundtrip_before

    probe = spans.AllocProbe()
    restore = spans.install(probe.wrap, only=layers.ALLOC_PROBED)
    try:
        timed_pass(workload, len(walls) + 1, tally)
    finally:
        restore()

    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{workload.name}.npz")
    view = layers.SpanView(tracer)
    metrics = layers.layer_metrics(
        view,
        alloc_peak_bytes=probe.peak_bytes,
        shard_mismatches=shard_mismatches,
        roundtrip_failures=roundtrip_failures,
        traced_wall=traced_wall,
        untraced_wall=statistics.median(walls),
        cpu_s=(cpu_after.user - cpu_before.user) + (cpu_after.system - cpu_before.system),
    )
    return {
        "layers": metrics,
        "module_self_s": layers.module_self_times(view),
        "spans": len(tracer.start),
        **tally.as_dict(),
    }


def machine() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "caches": caches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        report = {"ready": time.monotonic(), "import_s": IMPORT_S}
        if not args.setup_only:
            if args.trace:
                report.update(run_traced(workload, args.seconds))
            else:
                report.update(run_untraced(workload, args.seconds))
            report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            report["machine"] = machine()
            report["dominant"] = list(workload.dominant)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
