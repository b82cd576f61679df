"""Each script under scripts/ runs end to end against the current library."""
import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_worst_case_table_matches_its_bounds():
    rows = [line for line in run_script("worst_case_table.py").splitlines()[1:] if line.strip()]
    assert len(rows) == 5
    for row in rows:
        _, two, chain, _ = (cell.split() for cell in row.split("|"))
        assert two[1] == two[0], row  # the two-agent game realises 1 - C/2
        assert float(chain[1]) >= float(chain[0]), row  # the chain meets 1/(1+C)


def test_frontier_sweep_writes_its_points(tmp_path):
    out = tmp_path / "out.csv"
    stdout = run_script("frontier_sweep.py", out, 200)
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["q", "one_round"]
    assert f"({len(rows) - 1} points, truncation 200)" in stdout
    assert [float(v) for v in rows[1]] == [0.5, 0.5]


def test_run_wta_experiment_exports(tmp_path):
    run_script("run_wta_experiment.py", tmp_path / "out", cwd=tmp_path)
    raw = (tmp_path / "out" / "raw.csv").read_text().splitlines()
    assert raw[0] == "instance,design,round,welfare,normalized_welfare"
    assert len(raw) == 1 + 100 * 3 * 5  # default instances x designs x rounds
    assert (tmp_path / "out" / "summary.csv").exists()
    assert (tmp_path / "out" / "result.json").exists()
