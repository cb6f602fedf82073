"""Per-layer metrics of one traced pass.

Each metric is read off the spans that ``spans.Tracer`` recorded around
the public functions of the seven modules, or off the counts those
wrappers took at the same boundary.  ``busy`` counts nested calls inside
one group once; ``self`` subtracts the time of child spans.  A layer the
workload leaves idle reports 0.
"""

from __future__ import annotations

import os

import numpy as np

import spans

MB = 1e6

LHV_BUILD = (
    "lhv.random_factorized_model", "lhv.position_style_model", "lhv.fixed_setting_reproducer",
    "lhv.tabulated_factorized_model", "lhv.tabulated_general_model",
    "lhv.factorized_model", "lhv.general_model",
)
LHV_CHSH = ("lhv.per_lambda_chsh", "lhv.averaged_chsh")
CLI_FORMAT = ("cli.csv_table", "cli.json_text")

# the functions whose tracemalloc peak per call is reported
ALLOC_PROBED = ("montecarlo.run", "chsh.scan_alpha")


def _out_bytes(argv) -> int:
    if "--out" not in argv:
        return 0
    path = argv[argv.index("--out") + 1]
    return os.path.getsize(path) if os.path.exists(path) else 0


# work done by one call that returned, counted at the wrapper
WORK = {
    "montecarlo.run": lambda args, kwargs, r: r.n_total,
    "lhv.averaged_chsh": lambda args, kwargs, r: len(args[0].support),
    "lhv.verify_consistency": lambda args, kwargs, r: len(args[0].support),
    "model_io.write_model_file": lambda args, kwargs, r: os.path.getsize(args[0]),
    "model_io.load_model": lambda args, kwargs, r: os.path.getsize(args[0]),
    "polytope.polytope_check": lambda args, kwargs, r: int(r.feasible),
    "chsh.scan_alpha": lambda args, kwargs, r: len(r[0]),
    "cli.main": lambda args, kwargs, r: _out_bytes(args[0] if args else kwargs["argv"]),
}

# measured over several processes by run.py, not in the traced pass
STARTUP = "startup.import_s"

# (name, unit) of every per-layer metric, in report order
METRICS = (
    (STARTUP, "s"),
    ("montecarlo.run.calls", "count"),
    ("montecarlo.run.busy_s", "s"),
    ("montecarlo.run.trials_per_s", "1/s"),
    ("montecarlo.estimate.busy_s", "s"),
    ("montecarlo.run.alloc_peak_mb", "MB"),
    ("montecarlo.run.draw_bytes", "B"),
    ("montecarlo.shard_mismatches", "count"),
    ("lhv.models_built", "count"),
    ("lhv.build.busy_s", "s"),
    ("lhv.chsh.busy_s", "s"),
    ("lhv.chsh.states_per_s", "1/s"),
    ("lhv.average_over_lambda.busy_s", "s"),
    ("lhv.verify_consistency.busy_s", "s"),
    ("lhv.verify_consistency.states", "count"),
    ("model_io.write.busy_s", "s"),
    ("model_io.read.busy_s", "s"),
    ("model_io.bytes", "B"),
    ("model_io.read_mb_per_s", "MB/s"),
    ("model_io.roundtrip_failures", "count"),
    ("polytope.checks", "count"),
    ("polytope.polytope_check.self_s", "s"),
    ("polytope.facet_values.busy_s", "s"),
    ("polytope.feasible_frac", "ratio"),
    ("polytope.checks_per_s", "1/s"),
    ("chsh.scan_alpha.busy_s", "s"),
    ("chsh.scan_alpha.rows", "count"),
    ("chsh.scan_alpha.rows_per_s", "1/s"),
    ("chsh.scan_alpha.alloc_peak_mb", "MB"),
    ("chsh.chsh_value.busy_s", "s"),
    ("quantum.calls", "count"),
    ("quantum.busy_s", "s"),
    ("quantum.evals_per_s", "1/s"),
    ("cli.invocations", "count"),
    ("cli.main.self_s", "s"),
    ("cli.format.busy_s", "s"),
    ("cli.overhead_ms_per_invocation", "ms"),
    ("cli.output_bytes", "B"),
    ("cli.output_mb_per_s", "MB/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
    ("process.cpu_s", "s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


class SpanView:
    """Group queries over the spans of one tracer."""

    def __init__(self, tracer: spans.Tracer):
        self.tracer = tracer
        self.name_id, self.parent, self.duration = tracer.arrays()
        self.own = spans.self_times(self.parent, self.duration)

    def member(self, names) -> np.ndarray:
        ids = [self.tracer.name_index(n) for n in names]
        return np.isin(self.name_id, ids)

    def module_names(self, module: str) -> list[str]:
        return [n for n in self.tracer.names if n.startswith(module + ".")]

    def calls(self, *names) -> int:
        return int(spans.outermost(self.parent, self.member(names)).sum())

    def busy(self, *names) -> float:
        return float(self.duration[spans.outermost(self.parent, self.member(names))].sum())

    def self_time(self, *names) -> float:
        return float(self.own[self.member(names)].sum())

    def covered(self) -> float:
        return float(self.duration[self.parent == spans.ROOT].sum())

    def work(self, name: str) -> float:
        return self.tracer.work.get(name, 0.0)


def module_self_times(view: SpanView) -> dict[str, float]:
    return {m: view.self_time(*view.module_names(m)) for m in spans.MODULES}


def layer_metrics(view: SpanView, *, alloc_peak_bytes: dict,
                  shard_mismatches: int, roundtrip_failures: int,
                  traced_wall: float, untraced_wall: float, cpu_s: float) -> dict[str, float]:
    v = view
    run_busy = v.busy("montecarlo.run")
    lhv_chsh_busy = v.busy(*LHV_CHSH)
    read_busy = v.busy("model_io.load_model")
    checks = v.calls("polytope.polytope_check")
    scan_busy = v.busy("chsh.scan_alpha")
    quantum = v.module_names("quantum")
    quantum_calls = v.calls(*quantum)
    quantum_busy = v.busy(*quantum)
    invocations = v.calls("cli.main")
    main_self = v.self_time("cli.main")
    main_busy = v.busy("cli.main")
    values = {
        "montecarlo.run.calls": v.calls("montecarlo.run"),
        "montecarlo.run.busy_s": run_busy,
        "montecarlo.run.trials_per_s": _ratio(v.work("montecarlo.run"), run_busy),
        "montecarlo.estimate.busy_s": v.busy("montecarlo.estimate"),
        "montecarlo.run.alloc_peak_mb": alloc_peak_bytes.get("montecarlo.run", 0) / MB,
        # computed from the trial count: one Philox block of four doubles per trial
        "montecarlo.run.draw_bytes": v.work("montecarlo.run") * 4 * 8,
        "montecarlo.shard_mismatches": shard_mismatches,
        "lhv.models_built": v.calls(*LHV_BUILD),
        "lhv.build.busy_s": v.busy(*LHV_BUILD),
        "lhv.chsh.busy_s": lhv_chsh_busy,
        "lhv.chsh.states_per_s": _ratio(
            v.calls("lhv.per_lambda_chsh") + v.work("lhv.averaged_chsh"), lhv_chsh_busy),
        "lhv.average_over_lambda.busy_s": v.busy("lhv.average_over_lambda"),
        "lhv.verify_consistency.busy_s": v.busy("lhv.verify_consistency"),
        "lhv.verify_consistency.states": v.work("lhv.verify_consistency"),
        "model_io.write.busy_s": v.busy("model_io.write_model_file"),
        "model_io.read.busy_s": read_busy,
        "model_io.bytes": v.work("model_io.write_model_file") + v.work("model_io.load_model"),
        "model_io.read_mb_per_s": _ratio(v.work("model_io.load_model") / MB, read_busy),
        "model_io.roundtrip_failures": roundtrip_failures,
        "polytope.checks": checks,
        "polytope.polytope_check.self_s": v.self_time("polytope.polytope_check"),
        "polytope.facet_values.busy_s": v.busy("polytope.facet_values"),
        "polytope.feasible_frac": _ratio(v.work("polytope.polytope_check"), checks),
        "polytope.checks_per_s": _ratio(checks, v.busy("polytope.polytope_check")),
        "chsh.scan_alpha.busy_s": scan_busy,
        "chsh.scan_alpha.rows": v.work("chsh.scan_alpha"),
        "chsh.scan_alpha.rows_per_s": _ratio(v.work("chsh.scan_alpha"), scan_busy),
        "chsh.scan_alpha.alloc_peak_mb": alloc_peak_bytes.get("chsh.scan_alpha", 0) / MB,
        "chsh.chsh_value.busy_s": v.busy("chsh.chsh_value"),
        "quantum.calls": quantum_calls,
        "quantum.busy_s": quantum_busy,
        "quantum.evals_per_s": _ratio(quantum_calls, quantum_busy),
        "cli.invocations": invocations,
        "cli.main.self_s": main_self,
        "cli.format.busy_s": v.busy(*CLI_FORMAT),
        "cli.overhead_ms_per_invocation": _ratio(main_self * 1e3, invocations),
        "cli.output_bytes": v.work("cli.main"),
        "cli.output_mb_per_s": _ratio(v.work("cli.main") / MB, main_busy),
        "trace.overhead_frac": _ratio(traced_wall, untraced_wall) - 1.0,
        "trace.coverage": _ratio(v.covered(), traced_wall),
        "process.cpu_s": cpu_s,
    }
    return {name: float(values[name]) for name, _ in METRICS if name != STARTUP}
