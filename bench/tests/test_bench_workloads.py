import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import worker
import workloads

ROOT = Path(__file__).resolve().parents[2]


def test_tally_counts_raised_and_wrong_operations_and_keeps_going():
    def boom():
        raise ValueError("bad input")

    class Three:
        def ops(self, p):
            yield workloads.Op("ok", lambda: 1, lambda r: None)
            yield workloads.Op("raises", boom, lambda r: None)
            yield workloads.Op("wrong", lambda: 2, lambda r: f"got {r}")
            yield workloads.Op("ok", lambda: 3, lambda r: None)

    tally = workloads.Tally()
    workloads.run_pass(Three(), 0, tally, clock=lambda: 0.0)
    assert (tally.attempted, tally.failed, tally.wrong) == (4, 2, 1)
    assert tally.by_kind == {"raises": 1, "wrong": 1}
    assert tally.reasons == {"raises": "ValueError: bad input", "wrong": "got 2"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_of_each_workload(name, tmp_path):
    workload = workloads.build(name, 11, tmp_path, scale=workloads.SMOKE_SCALE)
    untraced = worker.run_untraced(workload, seconds=0)
    passes = len(untraced["walls"])
    assert passes == worker.MIN_PASSES
    assert untraced["wrong"] == 0, untraced["reasons"]
    if name == "lhv-audit":
        # write_model_file on a random model writes np.float64(...) reprs that
        # load_model rejects: one failed round trip per pass, nothing else
        assert untraced["failed_by_kind"] == {"model_io.roundtrip": passes}
    else:
        assert untraced["failed"] == 0, untraced["reasons"]

    traced = worker.run_traced(workload, seconds=0, out_dir=tmp_path)
    metrics = traced["layers"]
    assert [layers.STARTUP, *metrics] == [n for n, _ in layers.METRICS]
    assert traced["wrong"] == 0
    assert metrics["trace.coverage"] > 0.9
    busy = {
        "mc-sweep": "montecarlo.run.busy_s",
        "lhv-audit": "lhv.chsh.busy_s",
        "cli-reports": "cli.format.busy_s",
    }[name]
    assert metrics[busy] > 0
    assert metrics["montecarlo.shard_mismatches"] == 0
    assert (tmp_path / f"spans-{name}.npz").exists()


def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
