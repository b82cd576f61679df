"""Each script under scripts/, and each CLI command that replaced a deleted
script, runs end to end against the current library."""
import os
import subprocess
import sys
from pathlib import Path

from resgames.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_script(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_worst_case_table_matches_its_bounds():
    rows = [line for line in run_script("worst_case_table.py").splitlines()[1:] if line.strip()]
    assert len(rows) == 5
    for row in rows:
        _, two, chain, _ = (cell.split() for cell in row.split("|"))
        assert two[1] == two[0], row  # the two-agent game realises 1 - C/2
        assert float(chain[1]) >= float(chain[0]), row  # the chain meets 1/(1+C)



def test_frontier_sweep_writes_its_points(tmp_path, capsys):
    # `resgames analyze --route frontier` replaced scripts/frontier_sweep.py
    argv = ["analyze", "--route", "frontier", "--Q-grid", "0.5:0.6321205588285577:0.005", "--jtrunc", "200"]
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    rows = (tmp_path / "out.csv").read_text().splitlines()
    assert rows[0] == "parameter,value,truncation_flag"
    assert len(rows) == 1 + 27 and rows[1] == "0.5,0.5,False"  # q = 1/2 to 1 - 1/e
    values = [float(row.split(",")[1]) for row in rows[1:]]
    assert values == sorted(values, reverse=True)


def test_run_wta_experiment_exports(tmp_path):
    # `resgames experiment` replaced scripts/run_wta_experiment.py
    assert main(["experiment", "--out-dir", str(tmp_path / "out"), "--format", "both"]) == 0
    raw = (tmp_path / "out" / "raw.csv").read_text().splitlines()
    assert raw[0] == "instance,design,round,welfare,normalized_welfare"
    assert len(raw) == 1 + 100 * 3 * 5  # default instances x designs x rounds
    assert (tmp_path / "out" / "summary.csv").exists()
    assert (tmp_path / "out" / "result.json").exists()
