"""End-to-end tests of the command-line interface and its output contracts."""

import json
import math

import pytest

from ttbell import lhv
from ttbell.cli import (
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)

PI = math.pi


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class TestMc:
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

        def broken(model, a, b, tol=1e-12):
            return lhv.ConsistencyReport(
                marginal_from_mean_error=0.5,
                conditional_moment_route_error=0.0,
                outcome_swap_error=0.0,
                outcome_swap_symmetric=True,
                mean_product_error=0.0,
                double_average_error=0.0,
                marginal_double_average_error=0.0,
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

    def test_out_of_range_targets_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "polytope", "--targets", "1.2,0,0,0")
        assert code == EXIT_USAGE

    def test_missing_inputs_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "polytope")
        assert code == EXIT_USAGE
        assert "--alpha" in err or "--targets" in err


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
