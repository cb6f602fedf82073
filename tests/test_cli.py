"""End-to-end tests of the command-line interface and its output contracts."""

import argparse
import dataclasses
import errno
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import polytope_oracle
import quantum_oracle

from ttbell import chsh, cli, lhv, model_io, montecarlo, polytope
from ttbell.cli import (
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)

PI = math.pi
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli_process(*argv, timeout=60):
    """Run ``ttbell`` in a fresh interpreter, so that warnings reach stderr."""
    return subprocess.run([sys.executable, "-m", "ttbell.cli", *argv], capture_output=True,
                          env=_cli_env(), timeout=timeout)


class TestTable:
    def test_aligned_settings_row(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--a", repr(PI / 2), "--b", repr(PI / 2))
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "a,b,A,B,p_joint,p_marg_t1,p_marg_t2,p_cond"
        assert lines[1].endswith("+1,+1,1.000000000,1.000000000,1.000000000,1.000000000")

    def test_known_joint_value(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--a", repr(PI / 3), "--b", repr(PI / 6))
        row = [l for l in out.splitlines() if ",+1,-1," in l][0]
        assert row.split(",")[4] == "0.062500000"

    def test_blocks_sum_to_one(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--a", "0.3,1.2", "--b", "0.0,0.7")
        rows = out.splitlines()[1:]
        assert len(rows) == 16  # 2x2 grid, four outcome pairs each
        blocks = {}
        for row in rows:
            fields = row.split(",")
            blocks.setdefault((fields[0], fields[1]), 0.0)
            blocks[(fields[0], fields[1])] += float(fields[4])
        assert len(blocks) == 4
        for total in blocks.values():
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_undefined_conditional_is_nan(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--a", repr(-PI / 2), "--b", "0.0")
        plus_rows = [l for l in out.splitlines()[1:] if l.split(",")[2] == "+1"]
        assert all(l.split(",")[7] == "nan" for l in plus_rows)

    def test_json_format_matches_csv_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--a", repr(PI / 3), "--b", repr(PI / 6), "--format", "json"
        )
        data = json.loads(out)
        row = next(r for r in data["rows"] if r["A"] == 1 and r["B"] == -1)
        assert row["p_joint"] == pytest.approx(0.0625, abs=1e-9)

    def test_degrees_flag(self, capsys):
        code_rad, out_rad, _ = run_cli(capsys, "table", "--a", repr(PI / 2), "--b", "0.0")
        code_deg, out_deg, _ = run_cli(capsys, "table", "--a", "90", "--b", "0", "--degrees")
        assert out_rad == out_deg

    def test_table_above_row_cap_is_usage_error(self, capsys):
        # 4 x 2049 x 512 rows is just past 2**22: refused before any row is
        # built, not rendered in 2049 blocks
        a, b = _grid(2049), _grid(512)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "table", "--a", a, "--b", b, "--out", os.devnull)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (f"ttbell table: error: table of {4 * 2049 * 512} rows exceeds the limit of "
                       f"{chsh.MAX_SCAN_ROWS}; use shorter --a or --b lists\n")
        assert peak < 1 << 20

    def test_angle_list_of_the_largest_config_holds_no_object_per_angle(self):
        # 1 MiB of "0," is 524 288 angles, parsed into float64 an entry at a
        # time: the traced peak is the array, not a str and a float per angle
        text = "0," * (cli.MAX_CONFIG_BYTES // 2)
        tracemalloc.start()
        try:
            values = cli._parse_list(text, "a")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.dtype == np.float64 and len(values) == cli.MAX_CONFIG_BYTES // 2
        assert not values.any()
        assert peak < 16 * len(values)
        # one blank entry as long: skipped in one pass, not searched again from each place
        with pytest.raises(cli.UsageError, match="^--a is empty$"):
            cli._parse_list(" \t" * (cli.MAX_CONFIG_BYTES // 2), "a")

    @pytest.mark.parametrize("argv, message", [
        (("table", "--a= 0.5 , ,\t,-1e-3,", "--b=,0"), None),  # blank entries are skipped
        (("table", "--a=", "--b=0"), "--a is empty"),
        (("table", "--a=, ,\t", "--b=0"), "--a is empty"),
        (("table", "--a=0", "--b=1,x"), "--b expects a number or comma-separated numbers, got '1,x'"),
        (("table", "--a=1,-inf", "--b=0"), "--a must be finite, got '1,-inf'"),
        (("table", "--a=1,1e308", "--b=0", "--degrees"), None),
        (("mc", "--a=10,20", "--degrees"),
         "--a expects a single angle here, got '0.17453292519943295,0.3490658503988659'"),
    ])
    def test_angle_list_inputs_and_messages(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        if message is None:
            assert (code, err) == (EXIT_OK, "") and len(out.splitlines()) == 9
        else:
            assert (code, out, err) == (EXIT_USAGE, "", f"ttbell {argv[0]}: error: {message}\n")

    def test_row_cap_admits_a_table_of_exactly_the_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SCAN_ROWS", 24)
        code, out, _ = run_cli(capsys, "table", "--a", "0,1,2", "--b", "0,1")
        assert code == EXIT_OK and len(out.splitlines()) == 1 + 24
        code, out, err = run_cli(capsys, "table", "--a", "0,1,2", "--b", "0,1,2")
        assert (code, out) == (EXIT_USAGE, "")
        assert "table of 36 rows exceeds the limit of 24" in err


def scalar_table_rows(a_list, b_list):
    """The table's records through the scalar closed forms, a call chain a
    row; an undefined conditional is NaN."""
    for a in a_list:
        for b in b_list:
            for (A, B), p_joint in quantum_oracle.quantum_joint(a, b).items():
                try:
                    cond = quantum_oracle.conditional_t2(a, b, A, B)
                except quantum_oracle.UndefinedConditionalError:
                    cond = math.nan
                p_t1, p_t2 = quantum_oracle.marginal_t1(a, A), quantum_oracle.marginal_t2(a, b, B)
                yield (a, b, A, B, p_joint, p_t1, p_t2, cond)


def _bits(row) -> tuple:
    return tuple(cell if isinstance(cell, int) else float(cell).hex() for cell in row)


# a - b stays finite for every pair of these; +-pi/2 leave a conditional undefined
TABLE_EDGES = (0.0, -0.0, PI / 2, -PI / 2, 4e6, 1e-5, 1e15, 1e300, -1e300)


def random_angle(rng) -> float:
    pick = rng.integers(4)
    if pick == 0:
        return float(rng.choice(TABLE_EDGES))
    if pick == 1:
        return float(rng.uniform(-10.0, 10.0))
    if pick == 2:  # every magnitude from 1e-9 to 1e16, both signs
        return float(rng.choice((-1, 1)) * 10.0 ** rng.uniform(-9, 16))
    # near a multiple of pi/2, where sin a or cos(a - b) is near +-1 or 0
    return float(rng.integers(-8, 9) * PI / 2 + rng.normal() * 1e-9)


class TestTableColumns:
    def test_columns_equal_scalar_route_bitwise(self, monkeypatch):
        rng = np.random.default_rng(20_261_018)
        rows = 0
        for _ in range(240):
            a_list = [random_angle(rng) for _ in range(rng.integers(1, 8))]
            b_list = [random_angle(rng) for _ in range(rng.integers(1, 8))]
            # blocks of 1, 3 and 7 rows split a pair's four rows
            monkeypatch.setattr(cli, "ROW_BLOCK", int(rng.choice((1, 3, 7, 512, 2048))))
            blocks = list(cli._table_blocks(a_list, b_list))
            assert all(len(block[0]) == cli.ROW_BLOCK for block in blocks[:-1])
            written = [row for block in blocks for row in zip(*(c.tolist() for c in block))]
            expected = list(scalar_table_rows(a_list, b_list))
            assert list(map(_bits, written)) == list(map(_bits, expected)), (a_list, b_list)
            rows += len(expected)
        assert rows > 10_000

    def test_every_edge_pair(self):
        a_list = b_list = list(TABLE_EDGES)
        written = [row for block in cli._table_blocks(a_list, b_list)
                   for row in zip(*(c.tolist() for c in block))]
        expected = list(scalar_table_rows(a_list, b_list))
        assert sum(math.isnan(row[7]) for row in expected) == 4 * len(b_list)
        assert list(map(_bits, written)) == list(map(_bits, expected))


class TestMc:
    def test_trials_above_cap_is_usage_error(self, capsys, monkeypatch):
        mc = ("mc", "--a", "0.5", "--b", "0.1", "--trials")
        code, out, err = run_cli(capsys, *mc, str(montecarlo.MAX_TRIALS + 1))
        assert code == EXIT_USAGE
        assert out == ""
        assert f"exceed the limit of {montecarlo.MAX_TRIALS}" in err
        monkeypatch.setattr(montecarlo, "MAX_TRIALS", 1000)
        assert run_cli(capsys, *mc, "1000")[0] == EXIT_OK
        assert run_cli(capsys, *mc, "1001")[:2] == (EXIT_USAGE, "")

    def test_seed_echo_and_determinism(self, capsys):
        args = ("mc", "--a", "0.5", "--b", "0.1", "--trials", "2000", "--seed", "31")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        header = out1.splitlines()[0].split(",")
        values = out1.splitlines()[1].split(",")
        assert values[header.index("seed")] == "31"

    def test_zero_acceptance_all_undetected(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "--a", "0.5", "--b", "0.1",
            "--trials", "500", "--seed", "1", "--f1", "0",
        )
        header = out.splitlines()[0].split(",")
        values = out.splitlines()[1].split(",")
        assert values[header.index("n_undetected")] == "500"
        for col in ("n_pp", "n_pm", "n_mp", "n_mm"):
            assert values[header.index(col)] == "0"
        assert values[header.index("correlator_conditioned")] == "nan"

    def test_correlator_close_to_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "--a", repr(PI / 4), "--b", "0",
            "--trials", "100000", "--seed", "17",
        )
        header = out.splitlines()[0].split(",")
        values = out.splitlines()[1].split(",")
        corr = float(values[header.index("correlator_exp")])
        assert corr == pytest.approx(math.cos(PI / 4), abs=0.01)

    def test_trials_validated(self, capsys):
        code, _, err = run_cli(capsys, "mc", "--a", "0", "--b", "0", "--trials", "0")
        assert code == EXIT_USAGE
        assert "--trials" in err

    @pytest.mark.parametrize("flag", ["--a", "--b"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_setting_is_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "mc", flag, value, "--trials", "100")
        assert code == EXIT_USAGE
        assert out == ""
        assert flag in err and "Traceback" not in err


class TestSweep:
    SMALL = ("sweep", "--trials", "2000", "--seed", "11")

    def test_writes_one_row_per_grid_point(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(capsys, *self.SMALL, "--out", str(out))[:2] == (EXIT_OK, "")
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[0] == ["eta_f", "s_exp_mc", "s_exp_closed", "violated_mc", "violated_closed"]
        assert [row[0] for row in rows[1:]] == [f"{0.6 + 0.02 * i:.9f}" for i in range(21)]
        # 2*sqrt(2)*eta_f crosses the classical bound 2 at eta_f = 1/sqrt(2) ~ 0.7071
        assert [row[4] for row in rows[1:]] == ["false"] * 6 + ["true"] * 15

    def test_monte_carlo_tracks_the_closed_form(self, capsys):
        out = run_cli(capsys, "sweep", "--trials", "20000", "--seed", "5")[1]
        for line in out.splitlines()[1:]:
            eta_f, s_mc, s_closed = map(float, line.split(",")[:3])
            assert s_closed == pytest.approx(eta_f * 2 * math.sqrt(2), abs=1e-9)
            assert s_mc == pytest.approx(s_closed, abs=0.08)

    def test_trials_cap_covers_every_run(self, capsys, monkeypatch, tmp_path):
        # 84 runs (21 points x 4 pairs) together draw at most MAX_TRIALS
        monkeypatch.setattr(montecarlo, "MAX_TRIALS", 84 * 10)
        assert run_cli(capsys, "sweep", "--trials", "10")[0] == EXIT_OK
        out = tmp_path / "sweep.csv"
        code, stdout, err = run_cli(capsys, "sweep", "--trials", "11", "--out", str(out))
        assert (code, stdout) == (EXIT_USAGE, "")
        assert "exceed the limit of 10" in err
        assert not out.exists()

    def test_seed_leaves_room_for_every_run(self, capsys, tmp_path):
        # point i runs pair k with seed + 10*i + k, up to seed + 203
        last = 2**64 - 1 - 203
        assert run_cli(capsys, "sweep", "--trials", "1", "--seed", str(last))[0] == EXIT_OK
        out = tmp_path / "sweep.csv"
        for seed in (last + 1, -1):
            code, stdout, err = run_cli(capsys, "sweep", "--trials", "1", "--seed", str(seed),
                                        "--out", str(out))
            assert (code, stdout) == (EXIT_USAGE, "")
            assert "--seed" in err and "Traceback" not in err
            assert not out.exists()

    def test_takes_no_degrees_flag_and_ignores_the_key(self, capsys, tmp_path):
        assert run_cli(capsys, "sweep", "--degrees")[:2] == (EXIT_USAGE, "")
        cfg = tmp_path / "run.conf"
        cfg.write_text("degrees = true\n")
        assert run_cli(capsys, *self.SMALL, "--config", str(cfg)) == run_cli(capsys, *self.SMALL)


class TestChshScan:
    def test_summary_frozen_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "chsh-scan", "--alpha-min", "0",
            "--alpha-max", repr(PI), "--alpha-step", "0.001",
        )
        assert code == EXIT_OK
        tables = out.split("\n\n")
        assert len(tables) == 2
        summary_header, summary_row = tables[1].strip().splitlines()
        fields = dict(zip(summary_header.split(","), summary_row.split(",")))
        assert fields["alpha_star"] == "0.785398163"
        assert fields["s_max"] == "2.828427125"
        assert fields["eta_f_critical"] == "0.707106781"
        assert fields["violated"] == "true"

    def test_first_row_classical_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "chsh-scan", "--alpha-min", "0", "--alpha-max", "0.5",
            "--alpha-step", "0.1",
        )
        first = out.splitlines()[1].split(",")
        assert first[0] == "0.000000000"
        assert first[1] == "2.000000000"

    def test_scaled_scan_not_violated(self, capsys):
        code, out, _ = run_cli(
            capsys, "chsh-scan", "--alpha-min", "0", "--alpha-max", "1.6",
            "--alpha-step", "0.01", "--eta-d", "0.70",
        )
        summary = out.split("\n\n")[1].strip().splitlines()[1].split(",")
        assert summary[-1] == "false"

    def test_json_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "chsh-scan", "--alpha-min", "0", "--alpha-max", "1.0",
            "--alpha-step", "0.05", "--format", "json",
        )
        data = json.loads(out)
        assert data["summary"]["alpha_star"] == pytest.approx(PI / 4, abs=1e-9)
        assert len(data["rows"]) == 21

    def test_bad_step_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "chsh-scan", "--alpha-min", "0", "--alpha-max", "1", "--alpha-step", "0"
        )
        assert code == EXIT_USAGE

    def test_overflowing_range_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "chsh-scan", "--alpha-min=-1e308", "--alpha-max=1e308")
        assert code == EXIT_USAGE
        assert out == ""
        assert "overflows" in err and "Traceback" not in err

    def test_huge_finite_range_ends(self):
        # beyond an ulp of 2e-5 the golden-section bracket stops shrinking;
        # the refinement used to cycle there forever
        proc = run_cli_process("chsh-scan", "--alpha-min", "1e20",
                               "--alpha-max", "1.0000000000000003e20", "--alpha-step", "16384")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.startswith(b"alpha,s_ideal,s_exp,violated\n")
        assert proc.stderr == b""
        # rounding in 3*alpha would put a row at 3.946
        rows = proc.stdout.decode().split("\n\n")[0].splitlines()[1:]
        assert len(rows) == 3
        assert max(float(row.split(",")[1]) for row in rows) <= 2.0 * math.sqrt(2.0)

    @pytest.mark.parametrize("argv", [
        ("--alpha-min=-1e308", "--alpha-max=7.976931346825466e307", "--alpha-step=8.988465675210426e307"),
        ("--alpha-min=-7.976931346825466e307", "--alpha-max=1e308", "--alpha-step=8.988465675210426e307"),
    ])
    def test_overflowing_ladder_is_usage_error(self, argv):
        # the range over the step is finite, but the last grid alpha k*step
        # overflows at k = 2, which must be refused before numpy computes it
        proc = run_cli_process("chsh-scan", *argv)
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == b""
        assert b"last alpha" in proc.stderr and b"overflows" in proc.stderr
        assert b"Warning" not in proc.stderr and b"Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("--alpha-max=1e308", "--alpha-step=1e308"),
        ("--alpha-min=-1e308", "--alpha-max=0", "--alpha-step=1e308"),
    ])
    def test_huge_step_ladder_scans(self, argv):
        # 3*alpha would overflow here, but each row is taken from cos(alpha) alone
        proc = run_cli_process("chsh-scan", *argv)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == b""
        rows = proc.stdout.decode().split("\n\n")[0].splitlines()[1:]
        assert len(rows) == 2
        assert max(float(row.split(",")[1]) for row in rows) <= 2.0 * math.sqrt(2.0)

    def test_row_cap_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "chsh-scan", "--alpha-step", "1e-12")
        assert code == EXIT_USAGE
        assert out == ""
        assert "exceeds the limit" in err and "Traceback" not in err


class TestLhvVerify:
    def test_builtin_reproducer_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "lhv-verify", "--model", "fixed-setting-reproducer",
            "--a", repr(PI / 3), "--b", repr(PI / 6),
        )
        assert code == EXIT_OK
        assert "result: PASS" in out
        assert "check per_lambda_chsh_bound: PASS" in out

    def test_position_style_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "lhv-verify", "--model", "position-style", "--grid-size", "200",
            "--a", "0.4", "--b", "1.1",
        )
        assert code == EXIT_OK
        assert "result: PASS" in out

    def test_grid_size_above_cap_is_usage_error(self, capsys, monkeypatch):
        verify = ("lhv-verify", "--model", "position-style", "--grid-size")
        code, out, err = run_cli(capsys, *verify, "1000000000000")
        assert code == EXIT_USAGE
        assert out == ""
        assert f"exceeds the limit of {lhv.MAX_GRID_SIZE}" in err
        assert "Traceback" not in err
        monkeypatch.setattr(lhv, "MAX_GRID_SIZE", 64)
        assert run_cli(capsys, *verify, "64")[0] == EXIT_OK
        assert run_cli(capsys, *verify, "65")[:2] == (EXIT_USAGE, "")

    def test_grid_size_below_two_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "lhv-verify", "--model", "position-style", "--grid-size", "1")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "ttbell lhv-verify: error: --grid-size must be at least 2, got 1\n"

    @pytest.mark.parametrize("p1_angle, message", [
        # no response at (a, b): the consistency checks fail
        (0.4, "no response tabulated at (a=0.5, b=0.0) for id 0"),
        # a response at (a, b) but none at a' = 0: the CHSH bounds fail
        (0.5, "no response tabulated at ChshSettings(a=0.5, a_prime=0.0, b=0.0, "
              "b_prime=0.7853981633974483) for id 0"),
    ])
    def test_model_file_missing_a_setting_is_usage_error(self, capsys, tmp_path, p1_angle, message):
        path = tmp_path / "m.model"
        path.write_text(f"kind factorized\nlambda 0 1.0\np1 0 {p1_angle} 0.5\np2 0 0.0 0.5\n")
        code, out, err = run_cli(capsys, "lhv-verify", "--model-file", str(path), "--a", "0.5", "--b", "0.0")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"ttbell lhv-verify: error: model evaluation failed: {message}\n"

    def test_column_evaluations_do_not_grow_with_grid_size(self, capsys, monkeypatch):
        # the per-state CHSH bound comes from one whole-support evaluation,
        # not one evaluation per hidden state
        calls = []
        build = lhv.position_style_model

        def counted(column):
            def evaluate(*setting):
                calls.append(setting)
                return column(*setting)

            return evaluate

        def counting_model(grid_size):
            model = build(grid_size)
            return dataclasses.replace(
                model, t1_column=counted(model.t1_column), t2_column=counted(model.t2_column)
            )

        monkeypatch.setattr(lhv, "position_style_model", counting_model)
        counts = []
        for grid_size in ("16", "1024"):
            calls.clear()
            code, out, _ = run_cli(
                capsys, "lhv-verify", "--model", "position-style", "--grid-size", grid_size,
                "--a", "0.4", "--b", "1.1",
            )
            assert code == EXIT_OK and "result: PASS" in out
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "lhv-verify", "--model", "fixed-setting-reproducer",
            "--a", "0.9", "--b", "0.2", "--format", "json",
        )
        data = json.loads(out)
        assert data["passed"] is True
        assert data["outcome_swap_symmetric"] is True
        assert data["checks"]["averaged_chsh_bound"]["value"] <= 2.0 + 1e-9

    def test_model_file_verification(self, capsys, tmp_path):
        path = tmp_path / "m.model"
        path.write_text(
            "kind factorized\nlambda 0 0.5\nlambda 1 0.5\n"
            "p1 0 0.4 0.9\np1 1 0.4 0.2\np1 0 0.0 0.5\np1 1 0.0 0.5\n"
            "p2 0 1.1 0.7\np2 1 1.1 0.4\np2 0 0.785398163397448 0.5\np2 1 0.785398163397448 0.5\n"
        )
        code, out, _ = run_cli(
            capsys, "lhv-verify", "--model-file", str(path), "--a", "0.4", "--b", "1.1",
        )
        assert code == EXIT_OK
        assert "result: PASS" in out

    def test_model_file_above_state_limit_is_usage_error(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "m.model"
        path.write_text(
            "kind general\nlambda 0 0.25\nlambda 1 0.25\nlambda 2 0.5\n"
            + "".join(f"p1 {k} 0.4 0.5\np2 {k} 0.4 1.1 +1 0.5\np2 {k} 0.4 1.1 -1 0.5\n" for k in range(3))
        )
        verify = ("lhv-verify", "--model-file", str(path), "--a", "0.4", "--b", "1.1")
        monkeypatch.setattr(lhv, "MAX_GRID_SIZE", 3)
        assert run_cli(capsys, *verify)[0] == EXIT_OK
        monkeypatch.setattr(lhv, "MAX_GRID_SIZE", 2)
        code, out, err = run_cli(capsys, *verify)
        assert (code, out) == (EXIT_USAGE, "")
        assert "3 hidden states, above the limit of 2" in err
        assert "Traceback" not in err

    def test_wide_model_file_is_usage_error(self, capsys, tmp_path):
        # one p1 angle a state: 1025 keys x 1025 states is past 2**20 cells,
        # refused before the table is built
        n = 1025
        path = tmp_path / "wide.model"
        path.write_text("kind factorized\n" + "".join(
            f"lambda {k} {1.0 / n!r}\np1 {k} {k / n!r} 0.5\np2 {k} 1.1 0.5\n" for k in range(n)
        ))
        verify = ("lhv-verify", "--model-file", str(path), "--a", "0.4", "--b", "1.1")
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *verify)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            f"ttbell lhv-verify: error: {path}: t1 table of {n} keys x {n} states, "
            f"above the limit of {lhv.MAX_TABLE_CELLS} cells\n"
        )
        assert peak < 4 << 20  # the dense table would be 8 MB, its columns 16 MB

    def test_response_lines_above_cell_limit_is_usage_error(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "m.model"
        path.write_text("kind factorized\nlambda 0 1.0\np1 0 0.4 0.5\np1 0 0.5 0.5\np2 0 1.1 0.5\n")
        monkeypatch.setattr(lhv, "MAX_TABLE_CELLS", 1)
        code, out, err = run_cli(capsys, "lhv-verify", "--model-file", str(path), "--a", "0.4", "--b", "1.1")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"ttbell lhv-verify: error: {path}: line 4: 2 p1 responses, above the limit of 1 cells\n"

    @pytest.mark.parametrize("degrees", [(), ("--degrees",)])
    def test_angles_are_parsed_before_the_model_file(self, capsys, tmp_path, degrees):
        missing = str(tmp_path / "missing.model")
        for angle in ("--a", "--b"):
            code, out, err = run_cli(capsys, "lhv-verify", "--model-file", missing, angle, "x", *degrees)
            assert (code, out) == (EXIT_USAGE, "")
            assert f"{angle} " in err and "i/o error" not in err
        code, _, err = run_cli(capsys, "lhv-verify", "--model-file", missing, *degrees)
        assert code == EXIT_IO and "i/o error" in err

    def test_general_model_file_skips_chsh_bound(self, capsys, tmp_path):
        path = tmp_path / "g.model"
        path.write_text(
            "kind general\nlambda 0 1.0\np1 0 0.4 0.6\n"
            "p2 0 0.4 1.1 +1 0.9\np2 0 0.4 1.1 -1 0.2\n"
        )
        code, out, _ = run_cli(
            capsys, "lhv-verify", "--model-file", str(path), "--a", "0.4", "--b", "1.1",
        )
        assert code == EXIT_OK
        assert "note outcome_swap_symmetry: BROKEN" in out
        assert "SKIPPED (general model)" in out

    def test_corrupted_model_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("kind factorized\nlambda 0 0.5\nlambda 1 0.4\np1 0 0.0 1.0\n")
        code, _, err = run_cli(capsys, "lhv-verify", "--model-file", str(path))
        assert code == EXIT_USAGE
        assert "weights sum" in err

    def test_parse_error_carries_line_number(self, capsys, tmp_path):
        path = tmp_path / "bad2.model"
        path.write_text("kind factorized\nlambda 0 1.0\np1 0 zero 0.5\n")
        code, _, err = run_cli(capsys, "lhv-verify", "--model-file", str(path))
        assert code == EXIT_USAGE
        assert "line 3" in err

    def test_unknown_model_name(self, capsys):
        code, _, err = run_cli(capsys, "lhv-verify", "--model", "hydrodynamic")
        assert code == EXIT_USAGE
        assert "unknown model" in err

    def test_model_selection_required(self, capsys):
        code, _, err = run_cli(capsys, "lhv-verify")
        assert code == EXIT_USAGE

    def test_failing_checks_exit_four(self, capsys, monkeypatch):
        import ttbell.cli as cli_module

        def broken(model, a, b):
            return lhv.ConsistencyReport(
                marginal_from_mean_error=0.5,
                conditional_moment_route_error=0.0,
                outcome_swap_error=0.0,
                outcome_swap_symmetric=True,
                mean_product_error=0.0,
            )

        monkeypatch.setattr(cli_module.lhv, "verify_consistency", broken)
        code, out, _ = run_cli(
            capsys, "lhv-verify", "--model", "fixed-setting-reproducer",
            "--a", "0.3", "--b", "0.1",
        )
        assert code == EXIT_VERIFY_FAILED
        assert "check marginal_from_mean: FAIL" in out
        assert "result: FAIL" in out


class TestPolytope:
    def test_quantum_maximum_infeasible_exit_three(self, capsys):
        code, out, _ = run_cli(capsys, "polytope", "--alpha", repr(PI / 4))
        assert code == EXIT_INFEASIBLE
        data = json.loads(out)
        assert data["feasible"] is False
        assert data["gap"] == pytest.approx(0.828427125, abs=1e-9)
        assert data["weights"] is None

    def test_scaled_targets_feasible(self, capsys):
        code, out, _ = run_cli(
            capsys, "polytope", "--alpha", repr(PI / 4), "--eta-d", "0.70"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["feasible"] is True
        assert sum(data["weights"].values()) == pytest.approx(1.0, abs=1e-6)

    def test_explicit_zero_targets(self, capsys):
        code, out, _ = run_cli(capsys, "polytope", "--targets", "0,0,0,0")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["feasible"] is True
        assert sum(data["weights"].values()) == pytest.approx(1.0, abs=1e-6)

    def test_targets_just_past_a_facet_get_weights(self, capsys):
        # largest facet 2.000000001: feasible within the tolerance
        targets = (0.42111764351642517, 0.8417918566717204, 0.7318189140564746, 0.8475068737882301)
        code, out, err = run_cli(capsys, "polytope", "--targets=" + ",".join(map(repr, targets)))
        assert (code, err) == (EXIT_OK, "")
        data = json.loads(out)
        assert data["max_facet"]["value"] == 2.000000001
        weights = {tuple(1 if c == "+" else -1 for c in k): w for k, w in data["weights"].items()}
        assert min(weights.values()) >= 0.0
        # 1e-9 plus the 9-decimal rounding of eight nonzero weights
        rebuilt = polytope_oracle.reconstruct_targets(weights)
        assert max(abs(x - y) for x, y in zip(rebuilt, targets)) <= 1e-9 + 8 * 5e-10

    def test_signed_zero_target_prints_no_negative_zero_weight(self, capsys):
        code, out, _ = run_cli(capsys, "polytope", "--targets=0,-0.5,-0.5,-0")
        assert code == EXIT_OK
        weights = json.loads(out)["weights"]
        assert [math.copysign(1.0, w) for w in weights.values()] == [1.0] * 16
        assert (weights["+++-"], weights["++-+"], weights["++--"]) == (0.5, 0.25, 0.25)

    def test_out_of_range_targets_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "polytope", "--targets", "1.2,0,0,0")
        assert code == EXIT_USAGE

    def test_format_flag_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "polytope", "--alpha", "0.7", "--eta-d", "0.5", "--format", "csv")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage: ttbell polytope [-h] ")
        assert "ttbell polytope: error: unrecognized arguments: --format csv" in err

    def test_format_config_key_is_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = csv\n")
        argv = ("polytope", "--alpha", "0.7", "--eta-d", "0.5")
        assert run_cli(capsys, *argv, "--config", str(cfg)) == run_cli(capsys, *argv)

    def test_missing_inputs_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "polytope")
        assert code == EXIT_USAGE
        assert "--alpha" in err or "--targets" in err

    @pytest.mark.parametrize("alpha", ["1e308", "-1e308"])
    def test_huge_ladder_alpha_gives_targets_in_range(self, capsys, alpha):
        # 3*alpha overflows, but the targets are taken from cos(alpha) alone
        code, out, err = run_cli(capsys, "polytope", f"--alpha={alpha}")
        assert code in (EXIT_OK, EXIT_INFEASIBLE), err
        assert all(-1.0 <= t <= 1.0 for t in json.loads(out)["targets"])

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, PI / 4, 0.9, 1.2, 1.5])
    def test_ladder_targets_match_the_correlator_route(self, capsys, monkeypatch, alpha):
        checked = []
        check = polytope.polytope_check
        monkeypatch.setattr(polytope, "polytope_check", lambda t: checked.append(t) or check(t))
        run_cli(capsys, "polytope", f"--alpha={alpha!r}", "--eta-d=0.85")
        expected = polytope_oracle.correlator_targets(quantum_oracle.ideal_correlator, chsh.ladder_settings(alpha))
        assert checked[0] == pytest.approx([0.85 * e for e in expected], abs=1e-15, rel=0)


    def test_template_document_equals_json_text_of_the_payload(self, monkeypatch):
        # the template route against the payload route it replaced, on
        # random, infeasible, just-past-a-facet, zero-weight and ladder targets
        checked = []
        check = polytope.polytope_check
        monkeypatch.setattr(polytope, "polytope_check", lambda t: checked.append(t) or check(t))
        cli._polytope_template.cache_clear()
        codes = set()
        cases = polytope_cases(np.random.default_rng(61))
        assert len(cases) >= 10_000
        for flags in cases:  # flag values as the parser leaves them, without its time
            opts = cli._merge_options(argparse.Namespace(command="polytope", config=None, **flags))
            code, chunks = cli.cmd_polytope(opts)
            assert ("".join(chunks), code) == payload_document(opts, checked[-1]), flags
            codes.add((code, opts["alpha"] is None))
        assert codes == {(c, explicit) for c in (EXIT_OK, EXIT_INFEASIBLE) for explicit in (True, False)}
        assert cli._polytope_template.cache_info().currsize == 4


def payload_document(opts, targets) -> tuple[str, int]:
    """``polytope``'s document as ``json_text`` of its payload, and its exit code."""
    if opts["alpha"] is None:
        source = {"targets": "explicit"}
    else:
        eta_f = opts["eta_d"] * opts["f1"] * opts["f21"] * opts["fd2"]
        source = {"targets": "ladder", "alpha": cli.jnum(opts["alpha"]), "eta_f": cli.jnum(eta_f)}
    cert = polytope.polytope_check(targets)
    max_signs, max_value = max(polytope.facet_values(targets), key=lambda sv: sv[1])
    payload = {
        "source": source,
        "targets": [cli.jnum(t) for t in targets],
        "feasible": cert.feasible,
        "gap": cli.jnum(cert.gap),
        "max_facet": {"signs": list(max_signs), "value": cli.jnum(max_value)},
        "violated_facet": None if cert.feasible else {"signs": list(max_signs), "value": cli.jnum(max_value)},
        "weights": (
            None if cert.weights is None
            else {polytope.strategy_label(s): cli.jnum(w) for s, w in cert.weights.items()}
        ),
    }
    return cli.json_text(payload), EXIT_OK if cert.feasible else EXIT_INFEASIBLE


def polytope_cases(rng) -> list[dict]:
    """``polytope`` flag values: --targets of every kind and --alpha ladders."""
    targets = list(rng.uniform(-1.0, 1.0, (3_500, 4)))
    # 2 + up to 1e-9 on a facet, where the closed-form weights are clamped
    for signs in polytope.FACET_SIGNS:
        for t in rng.uniform(-0.6, 0.6, (150, 4)):
            on = t + (2.0 - float(np.dot(signs, t))) / 4.0 * np.array(signs)
            targets += [on + delta / 4.0 * np.array(signs) for delta in (1e-12, 5e-10, 1e-9)]
    # vertices and edges of the polytope (mostly zero weights), signed zeros
    vertices = [np.array(polytope_oracle.strategy_correlators(s), dtype=float) for s in polytope.STRATEGIES]
    targets += vertices + [(u + v) / 2.0 for u in vertices for v in vertices]
    targets += [np.array(z) for z in itertools.product((0.0, -0.0, 1e-5, -3e-7), repeat=4)]
    cases = [{"targets": ",".join(map(repr, t.tolist()))} for t in targets if np.all(np.abs(t) <= 1.0)]
    cases += [{"targets": " 0.5, ,-0.25,\t1e-5,-0 ,"}, {"targets": "1,1,1,-1"}]
    ladders = rng.uniform((-10.0, 0.3, 0.9), (10.0, 1.0, 1.0), (2_500, 3)).tolist()
    cases += [{"alpha": repr(alpha), "eta_d": repr(eta), "f1": repr(f1)} for alpha, eta, f1 in ladders]
    cases += [{"alpha": repr(alpha), "degrees": "true", "eta_d": "0.75"}
              for alpha in rng.uniform(-720.0, 720.0, 500).tolist()]
    cases += [{"alpha": "1e308"}, {"alpha": "-1e308", "eta_d": "0.5"}, {"alpha": "0", "eta_d": "0"}]
    return cases


class TestLibraryErrors:
    def test_value_error_from_the_library_is_usage_error(self, capsys, monkeypatch):
        def rejects(targets):
            raise ValueError("targets rejected by the library")

        monkeypatch.setattr(polytope, "polytope_check", rejects)
        code, out, err = run_cli(capsys, "polytope", "--targets", "0,0,0,0")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "ttbell polytope: error: targets rejected by the library\n"

    def test_undecodable_model_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "binary.model"
        path.write_bytes(b"kind factorized\nlambda 0 1.0\xff\xfe\n")
        code, out, err = run_cli(capsys, "lhv-verify", "--model-file", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert "Traceback" not in err


class TestNonFiniteInputs:
    @pytest.mark.parametrize("argv, flag", [
        (("table", "--a", "nan"), "--a"),
        (("table", "--a", "inf"), "--a"),
        (("table", "--a", "inf", "--format", "json"), "--a"),
        (("table", "--a", "0.3", "--b=0.1,-inf"), "--b"),
        (("table", "--a", "nan", "--degrees"), "--a"),
        (("polytope", "--alpha", "inf"), "--alpha"),
        (("polytope", "--alpha", "nan"), "--alpha"),
        (("chsh-scan", "--alpha-max", "inf"), "--alpha-max"),
        (("chsh-scan", "--alpha-min=-inf"), "--alpha-min"),
        (("chsh-scan", "--alpha-step", "nan"), "--alpha-step"),
        (("lhv-verify", "--model", "fixed-setting-reproducer", "--a-prime", "nan"), "--a-prime"),
    ])
    def test_non_finite_value_is_usage_error(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert flag in err and "Traceback" not in err

    def test_non_finite_config_value_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha-max = inf\n")
        code, out, err = run_cli(capsys, "chsh-scan", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == ""
        assert "--alpha-max" in err


class TestConfigAndIo:
    def test_config_file_provides_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# run config\ntrials = 750\nseed = 5\neta-d = 0.5\n")
        code, out, _ = run_cli(
            capsys, "mc", "--a", "0.2", "--b", "0.0", "--config", str(cfg)
        )
        header = out.splitlines()[0].split(",")
        values = out.splitlines()[1].split(",")
        assert values[header.index("n_total")] == "750"
        assert values[header.index("seed")] == "5"
        assert values[header.index("eta_d")] == "0.500000000"

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\n")
        code, out, _ = run_cli(
            capsys, "mc", "--a", "0.2", "--b", "0.0",
            "--trials", "100", "--seed", "9", "--config", str(cfg),
        )
        values = out.splitlines()[1].split(",")
        assert values[-1] == "9"

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("volume = 11\n")
        code, _, err = run_cli(capsys, "mc", "--a", "0", "--b", "0", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "unknown config key" in err

    def test_output_file_written(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "table", "--a", "0.3", "--b", "0.1", "--out", str(out_path)
        )
        assert code == EXIT_OK
        assert out == ""
        content = out_path.read_text()
        assert content.startswith("a,b,A,B,")

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "table", "--a", "0.3", "--b", "0.1",
            "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == EXIT_IO

    def test_missing_config_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "mc", "--a", "0", "--b", "0", "--config", str(tmp_path / "none.cfg")
        )
        assert code == EXIT_IO

    def test_config_file_above_size_limit_is_usage_error(self, capsys, tmp_path):
        # a valid table config one byte past 1 MiB is refused unread, not
        # parsed into 350 k angles and a 1.4 M-row table
        cfg = tmp_path / "big.cfg"
        head = "b = 0\na = "
        angles = ",".join(["0.5"] * ((cli.MAX_CONFIG_BYTES - len(head)) // 4 + 1))
        cfg.write_text(head + angles)
        assert cfg.stat().st_size == cli.MAX_CONFIG_BYTES + 1
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "table", "--config", str(cfg), "--out", os.devnull)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"ttbell table: error: {cfg}: config file larger than the limit of {1 << 20} bytes\n"
        assert peak < 2 << 20  # the file's bytes, read once

    def test_undecodable_config_file_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"a = 0.3 # \xff\n")
        code, out, err = run_cli(capsys, "table", "--config", str(cfg))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("ttbell table: error: 'utf-8' codec can't decode byte 0xff")

    def test_config_file_at_size_limit_is_read(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a = 0.3\nb = 0.1\n")
        monkeypatch.setattr(cli, "MAX_CONFIG_BYTES", cfg.stat().st_size)
        code, out, _ = run_cli(capsys, "table", "--config", str(cfg))
        assert code == EXIT_OK and out.startswith("a,b,A,B,")
        monkeypatch.setattr(cli, "MAX_CONFIG_BYTES", cfg.stat().st_size - 1)
        code, out, err = run_cli(capsys, "table", "--config", str(cfg))
        assert (code, out) == (EXIT_USAGE, "")
        assert f"{cfg}: config file larger than the limit of" in err

    def test_every_subcommand_is_byte_deterministic(self, capsys):
        invocations = [
            ("table", "--a", "0.3,0.9", "--b", "0.1"),
            ("mc", "--a", "0.4", "--b", "0.2", "--trials", "1500", "--seed", "6"),
            ("chsh-scan", "--alpha-min", "0", "--alpha-max", "1", "--alpha-step", "0.05"),
            ("lhv-verify", "--model", "fixed-setting-reproducer", "--a", "0.8", "--b", "0.3",
             "--format", "json"),
            ("polytope", "--alpha", "0.5", "--eta-d", "0.9"),
        ]
        for argv in invocations:
            _, out1, _ = run_cli(capsys, *argv)
            _, out2, _ = run_cli(capsys, *argv)
            assert out1 == out2, argv

    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "mc", "--warp", "9")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv, flags", [
        (("table", "--trials", "5"), "[--a A] [--b B]"),
        (("sweep", "--degrees"), "[--trials TRIALS] [--seed SEED]"),
    ])
    def test_unknown_flag_shows_the_subcommand_usage(self, capsys, argv, flags):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"usage: ttbell {argv[0]} [-h] ")
        assert flags in err
        assert f"ttbell {argv[0]}: error: unrecognized arguments: {' '.join(argv[1:])}" in err

    @pytest.mark.parametrize("argv", [(), ("--warp",)])
    def test_missing_subcommand_shows_the_top_level_usage(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage: ttbell [-h] COMMAND ...")
        assert "ttbell: error: the following arguments are required: COMMAND" in err


class TestOptionPrecedence:
    @pytest.mark.parametrize("argv, message", [
        # a bad value is reported before a command's cross-option checks
        (("polytope", "--targets=x", "--alpha=1"),
         "--targets expects a number or comma-separated numbers, got 'x'"),
        (("polytope", "--targets=0,0,0,0", "--alpha=x"),
         "bad value for --alpha: could not convert string to float: 'x'"),
        (("polytope", "--targets=0,0,0,0", "--alpha=1", "--eta-d=2"), "--eta-d must lie in [0, 1], got 2.0"),
        (("lhv-verify", "--model=position-style", "--model-file=m.model", "--a=x"),
         "--a expects a number or comma-separated numbers, got 'x'"),
        (("lhv-verify", "--model=position-style", "--model-file=m.model", "--grid-size=x"),
         "bad value for --grid-size: invalid literal for int() with base 10: 'x'"),
        # good values: the cross-option checks, then the counts
        (("polytope", "--targets=0,0", "--alpha=1"), "give either --targets or --alpha, not both"),
        (("polytope", "--targets=1,2"), "--targets expects four comma-separated correlators, got '1.0,2.0'"),
        (("lhv-verify", "--model=position-style", "--model-file=m.model", "--a=0,1"),
         "give either --model or --model-file, not both"),
    ])
    def test_values_are_checked_before_the_command(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (EXIT_USAGE, "", f"ttbell {argv[0]}: error: {message}\n")

    def test_a_bad_config_value_is_reported_before_the_cross_option_check(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("targets = 0,0,0,0\nf1 = -1\n")
        code, out, err = run_cli(capsys, "polytope", "--alpha=1", "--config", str(cfg))
        assert (code, out, err) == (EXIT_USAGE, "", "ttbell polytope: error: --f1 must lie in [0, 1], got -1.0\n")


class TestNegativeValues:
    """A value that starts with "-" and a digit or "." may be its own token."""

    @pytest.mark.parametrize("argv, joined", [
        (("table", "--a", "-1,2", "--b", "0"), ("table", "--a=-1,2", "--b=0")),
        (("polytope", "--targets", "-0.1,0.2,0.3,0.4"), ("polytope", "--targets=-0.1,0.2,0.3,0.4")),
        (("mc", "--b", "-1e-3"), ("mc", "--b=-1e-3")),
        (("chsh-scan", "--alpha-min", "-1e-3", "--alpha-max", "0.1", "--alpha-step", "0.01"),
         ("chsh-scan", "--alpha-min=-1e-3", "--alpha-max=0.1", "--alpha-step=0.01")),
        (("lhv-verify", "--model", "position-style", "--a", "-2E-1"),
         ("lhv-verify", "--model=position-style", "--a=-2E-1")),
        (("table", "--a", "-.5e-3", "--b", "-0", "--format", "json"), ("table", "--a=-.5e-3", "--b=-0", "--format=json")),
    ])
    def test_separate_token_equals_joined_form(self, capsys, argv, joined):
        got = run_cli(capsys, *argv)
        assert got[0] == EXIT_OK and got[2] == ""
        assert got == run_cli(capsys, *joined)

    def test_dash_alone_is_still_stdout(self, capsys):
        assert run_cli(capsys, "table", "--a", "0", "--b", "0", "--out", "-") == run_cli(capsys, "table", "--a=0", "--b=0")

    def test_a_stray_negative_token_is_still_unrecognized(self, capsys):
        code, out, err = run_cli(capsys, "table", "--a", "0", "--b", "0", "-1e-3")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.endswith("ttbell table: error: unrecognized arguments: -1e-3\n")


class TestBoundedMessages:
    """A message quotes at most ``QUOTE_CHARS`` characters of a token from
    outside input, then ``...``; a shorter token is quoted whole."""

    def test_quote_keeps_a_token_of_the_limit_whole(self):
        assert model_io._quote("x" * 60) == repr("x" * 60)
        assert model_io._quote("x" * 61) == repr("x" * 60) + "..."

    @pytest.mark.parametrize("text, message", [
        ("kind factorized\n" + "x" * (1 << 20) + "\n", "line 2: unknown directive 'XXX'..."),
        ("kind factorized\nlambda " + "x" * (1 << 20) + " 1\n", "line 2: hidden-state id is not an integer: 'XXX'..."),
    ])
    def test_model_file_tokens(self, capsys, tmp_path, text, message):
        path = tmp_path / "junk.model"
        path.write_text(text)
        code, out, err = run_cli(capsys, "lhv-verify", "--model-file", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"ttbell lhv-verify: error: {path}: {message.replace('XXX', 'x' * 60)}\n"
        assert len(err) < 1024

    @pytest.mark.parametrize("state_id, shown", [
        ("9" * 20, "9" * 20),  # the short ids print as before
        ("-" + "9" * 59, "-" + "9" * 59),
        ("9" * 61, "9" * 60 + "..."),
        ("9" * 4000, "9" * 60 + "..."),
        ("-" + "9" * 4000, "-" + "9" * 59 + "..."),
    ], ids=["20-digits", "60-chars", "61-digits", "4000-digits", "minus-4000-digits"])
    def test_hidden_state_id_past_64_bits(self, capsys, tmp_path, state_id, shown):
        self.check_model_file(capsys, tmp_path, f"lambda {state_id} 1",
                              f"line 2: hidden-state id {shown} does not fit in 64 bits")

    @pytest.mark.parametrize("state_id, shown", [
        ("1", "1"), ("-1", "-1"), ("+01", "1"),  # the short ids print as before
        ("9" * 60, "9" * 60),
        ("9" * 4000, "9" * 60 + "..."),
    ], ids=["1", "minus-1", "plus-01", "60-digits", "4000-digits"])
    @pytest.mark.parametrize("directive", ["p1", "p2"])
    def test_undeclared_hidden_state_id(self, capsys, tmp_path, state_id, shown, directive):
        self.check_model_file(capsys, tmp_path, f"lambda 0 1\n{directive} {state_id} 0 0.5",
                              f"line 3: response references undeclared hidden state {shown}")

    @staticmethod
    def check_model_file(capsys, tmp_path, lines, message):
        path = tmp_path / "ids.model"
        path.write_text(f"kind factorized\n{lines}\n")
        code, out, err = run_cli(capsys, "lhv-verify", "--model-file", str(path))
        assert (code, out, err) == (EXIT_USAGE, "", f"ttbell lhv-verify: error: {path}: {message}\n")
        assert len(err) < 1024

    @pytest.mark.parametrize("command, text, message", [
        ("table", "x" * (512 << 10), "{cfg}:1: expected 'key = value', got 'XXX'..."),
        ("table", "x" * 500_000 + " = 1", "{cfg}:1: unknown config key 'XXX'..."),
        ("table", "b = 0\na = " + "0," * 400_000 + "x",
         "--a expects a number or comma-separated numbers, got '" + "0," * 30 + "'..."),
        ("mc", "a = " + "0," * 200_000, "--a expects a single angle here, got '" + "0.0," * 15 + "'..."),
    ])
    def test_config_file_tokens(self, capsys, tmp_path, command, text, message):
        cfg = tmp_path / "junk.cfg"
        cfg.write_text(text + "\n")
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"ttbell {command}: error: {message.replace('XXX', 'x' * 60).format(cfg=cfg)}\n"
        assert len(err) < 1024

    @pytest.mark.parametrize("how", ["config-out", "--out", "--config", "--model-file"])
    @pytest.mark.parametrize("name, shown", [
        ("missing/x.csv", "'missing/x.csv'"),  # a short name prints as before
        ("missing/" + "x" * 52, repr("missing/" + "x" * 52)),
        ("x" * 300_000, repr("x" * 60) + "..."),
    ], ids=["short", "60-chars", "300000-chars"])
    def test_file_names_in_i_o_errors(self, capsys, tmp_path, monkeypatch, how, name, shown):
        monkeypatch.chdir(tmp_path)
        command, argv = "table", [how, name]
        if how == "config-out":  # out = <name> in the config file
            Path("run.cfg").write_text(f"out = {name}\n")
            argv = ["--config", "run.cfg"]
        elif how == "--model-file":
            command = "lhv-verify"
        code, out, err = run_cli(capsys, command, *argv)
        error = errno.ENOENT if name.startswith("missing/") else errno.ENAMETOOLONG
        assert (code, out) == (EXIT_IO, "")
        assert err == f"ttbell {command}: i/o error: [Errno {error}] {os.strerror(error)}: {shown}\n"
        if len(name) <= 60:
            assert err == f"ttbell {command}: i/o error: {OSError(error, os.strerror(error), name)}\n"
        assert len(err) < 1024

    @pytest.mark.parametrize("exc", [OSError(errno.EIO, "Input/output error"), OSError("disk gone"), OSError()],
                             ids=["errno", "text", "bare"])
    def test_an_i_o_error_without_a_file_name_prints_as_python_does(self, exc):
        assert cli._os_error_text(exc) == str(exc)


def _grid(n: int) -> str:
    return ",".join(repr(0.01 * k) for k in range(n))


def _traced_peak(argv) -> int:
    """tracemalloc peak of one in-process run writing JSON to devnull."""
    tracemalloc.start()
    try:
        code = main([*argv, "--format", "json", "--out", os.devnull])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    return peak


class TestStreamedOutput:
    @pytest.mark.parametrize("argv", [
        ("table", "--a", "nan", "--b", "0"),
        ("chsh-scan", "--alpha-min", "1", "--alpha-max", "0.5"),
        ("table", "--a", "1e308", "--b=-1e308"),  # both finite, but a - b overflows
    ])
    def test_usage_error_writes_nothing(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "Traceback" not in err
        target = tmp_path / "out"
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code == EXIT_USAGE
        assert out == ""
        assert not target.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_does_not_depend_on_block_size(self, capsys, monkeypatch, fmt):
        invocations = [  # 48 table rows, 11 scan rows and a summary
            ("table", "--a=0.1,0.5,0.9", "--b=0,0.3,0.7,1.1", "--format", fmt),
            ("chsh-scan", "--alpha-max=1", "--alpha-step=0.1", "--format", fmt),
            # rows written cell by cell among the others: 4e6 (beyond the
            # exact column range), 1e-5 (exponent form in JSON) and undefined
            # conditionals at a = +-pi/2
            ("table", "--a=-1.5707963267948966,4e6,0.2,1e-5,1.5707963267948966",
             "--b=0,-0.0", "--format", fmt),
        ]
        for argv in invocations:
            _, reference, _ = run_cli(capsys, *argv)
            for block in (1, 2, 7, 11, 48):
                monkeypatch.setattr(cli, "ROW_BLOCK", block)
                _, out, _ = run_cli(capsys, *argv)
                assert out == reference, (argv, block)

    @pytest.mark.parametrize("small, big", [
        ((("chsh-scan", "--alpha-step=4e-4"), 7_854),
         (("chsh-scan", "--alpha-step=1e-4"), 31_416)),
        ((("table", f"--a={_grid(25)}", f"--b={_grid(25)}"), 2_500),
         (("table", f"--a={_grid(50)}", f"--b={_grid(50)}"), 10_000)),
    ], ids=["chsh-scan", "table"])
    def test_memory_does_not_grow_with_rows(self, small, big):
        # beyond the scan's own s_ideal column (8 B a row, plus one chunk),
        # memory held for the output must not grow with the rows written;
        # a whole document built in memory costs 380-620 B a row
        _traced_peak(small[0])  # first use builds the cached parser and other one-offs
        peaks = [_traced_peak(argv) for argv, _ in (small, big)]
        per_row = (peaks[1] - peaks[0]) / (big[1] - small[1])
        assert per_row < 64, peaks

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_scan_memory_per_row(self, tmp_path, fmt):
        # the scan holds its s_ideal column (8 B a row) and a chunk, and the
        # output a block; with whole alpha, s_ideal, s_exp and violated
        # columns the peak read about 29 B a row
        n = math.floor(math.pi / 1e-5 + 1e-9) + 1
        tracemalloc.start()
        try:
            code = main(["chsh-scan", "--alpha-step=1e-05", "--eta-d=0.85", "--format", fmt,
                         "--out", str(tmp_path / "scan")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak / n <= 16, peak / n

    def test_closed_stdout_pipe_ends_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "ttbell.cli", "chsh-scan", "--alpha-step=1e-5",
             "--format=json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
        )
        head = proc.stdout.read(100)  # the output is ~30 MB, far beyond a pipe buffer
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_OK
        assert head.startswith(b'{\n  "rows": [\n')
        assert err == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_write_error_on_out_is_io_error(self, capsys):
        code, out, err = run_cli(capsys, "chsh-scan", "--alpha-step=1e-4", "--out", "/dev/full")
        assert code == EXIT_IO
        assert out == ""
        assert "i/o error" in err and "Traceback" not in err
