"""Smoke tests of the experiment scripts under ``scripts/``."""

import csv
import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_efficiency_sweep_writes_one_row_per_grid_point(tmp_path, capsys):
    main = runpy.run_path(str(SCRIPTS / "run_efficiency_sweep.py"))["main"]
    out = tmp_path / "sweep.csv"
    code = main([
        "--eta-f-min", "0.6", "--eta-f-max", "0.8", "--eta-f-step", "0.2",
        "--trials", "2000", "--seed", "11", "--out", str(out),
    ])
    assert code == 0
    assert "wrote 2 rows" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["eta_f", "s_exp_mc", "s_exp_closed", "violated_mc", "violated_closed"]
    assert [row[0] for row in rows[1:]] == ["0.600000000", "0.800000000"]
    assert [row[4] for row in rows[1:]] == ["false", "true"]
