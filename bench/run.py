"""Benchmark of the ttbell package: three seeded, single-process workloads.

    python3 bench/run.py --workload mc-sweep --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 1

Run from the root of a source checkout; ``src/`` is put on the path of
every process this starts, so nothing needs installing.  Each sample runs
in a fresh ``bench/worker.py`` process: one sets up and runs the timed
passes, and ``SETUP_SAMPLES`` more, before and after it, only set up (for
``setup_s``).

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the per-layer metrics of a traced pass, and whether the layer predicted
to dominate the workload does.  For a single workload the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``correct`` is false when an operation returned a wrong
result; an operation that raised counts as failed.  The exit code is 2
when the checkout has no ``src/ttbell`` or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("mc-sweep", "lhv-audit", "cli-reports")
# set-up-only processes before and after the measuring one; splitting them
# lets the median see the machine at both ends of the run
SETUP_SAMPLES = (3, 3)
DEADLINE_S = 170  # every run must end within 180 s
END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, seconds: int, trace: int, setup_only: bool,
          deadline: float) -> dict:
    """Run one worker process to completion; returns its report."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - started
    return report


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    before, after = SETUP_SAMPLES
    samples = [spawn(workload, seed, seconds, trace, True, deadline) for _ in range(before)]
    report = spawn(workload, seed, seconds, trace, False, deadline)
    samples += [report] + [spawn(workload, seed, seconds, trace, True, deadline)
                           for _ in range(after)]
    setup_s = [r["setup_s"] for r in samples]
    m = report["machine"]
    print(f"== {workload}  seed {seed}  closed loop, 1 caller, no threads  "
          f"(nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
          f"caches {', '.join(f'{k} {v}' for k, v in m['caches'].items())})")
    if trace:
        metrics = _report_layers(report, statistics.median(r["import_s"] for r in samples),
                                 len(samples))
    else:
        metrics = _report_end_to_end(report, setup_s)
    attempted, failed = report["attempted"], report["failed"]
    print(f"  {'error_rate':<34} {failed / attempted:.6g}  ({failed} failed of {attempted} "
          f"operations; {report['wrong']} wrong results)")
    for kind, reason in report["reasons"].items():
        print(f"    {kind}: {report['failed_by_kind'][kind]} failed, first: {reason}")
    return {
        "correct": report["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _report_end_to_end(report: dict, setup_s: list[float]) -> dict:
    walls = report["walls"]
    values = {
        "wall_s": (statistics.fmean(walls), walls,
                   f"mean of passes, median {statistics.median(walls):.6g}"),
        "peak_rss_mb": (report["peak_rss_mb"], [report["peak_rss_mb"]], "worker process"),
        "setup_s": (statistics.median(setup_s), setup_s, "median of processes"),
    }
    metrics = {}
    for name, unit in END_TO_END:
        value, samples, what = values[name]
        q1, q3 = quartiles(samples)
        print(f"  {name:<34} {value:.6g} {unit}  ({what}, n={len(samples)}, "
              f"p25 {q1:.6g}, p75 {q3:.6g})")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _report_layers(report: dict, import_s: float, n_import: int) -> dict:
    import layers

    values = dict(report["layers"], **{layers.STARTUP: import_s})
    metrics = {}
    for name, unit in layers.METRICS:
        note = f"  (median of {n_import} processes)" if name == layers.STARTUP else ""
        print(f"  {name:<34} {values[name]:.6g} {unit}{note}")
        metrics[name] = {"value": values[name], "unit": unit}
    own = report["module_self_s"]
    total = sum(own.values())
    shares = ", ".join(f"{m} {t / total:.1%}" for m, t in own.items() if total > 0)
    predicted = report["dominant"]
    share = sum(own[m] for m in predicted) / total if total > 0 else 0.0
    verdict = "holds" if share > 0.5 else "does NOT hold"
    print(f"  self time by module: {shares}  ({report['spans']} spans)")
    print(f"  predicted dominant layer {' + '.join(predicted)}: {share:.1%} of self time, "
          f"prediction {verdict}")
    print(f"  tracing overhead: {values['trace.overhead_frac']:.1%} of untraced pass time")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "ttbell" / "__init__.py").is_file():
        print(f"bench: no ttbell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
