import json

import pytest

from resgames.cli import main


def test_design_csv(tmp_path, capsys):
    out = tmp_path / "rule.csv"
    rc = main(["design", "--design", "one_round", "--C", "0.5", "--jmax", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "j,f_j"
    assert float(lines[1].split(",")[1]) == 1.0
    assert float(lines[2].split(",")[1]) == pytest.approx(2 / 3)


def test_design_json_stdout(capsys):
    rc = main(["design", "--design", "pareto", "--chi", "1.0", "--jmax", "4", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["values"][:2] == [1.0, 0.0]


def test_construct_and_simulate(tmp_path, capsys):
    game_path = tmp_path / "trap.json"
    rc = main(["construct", "--kind", "greedy_trap", "--eps", "0.1", "--out", str(game_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "trap.meta.json").read_text())
    assert meta["kind"] == "greedy_trap"
    traj_path = tmp_path / "walk.jsonl"
    rc = main(["simulate", "--game", str(game_path), "--k", "2", "--out", str(traj_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "final_welfare=1.2" in out
    recs = [json.loads(line) for line in traj_path.read_text().splitlines()]
    assert len(recs) == 4
    assert {"tau", "player", "action", "welfare", "potential"} <= set(recs[0])


def test_simulate_inf(tmp_path, capsys):
    game_path = tmp_path / "trap.json"
    main(["construct", "--kind", "greedy_trap", "--eps", "0.1", "--out", str(game_path)])
    capsys.readouterr()
    rc = main(["simulate", "--game", str(game_path), "--k", "inf"])
    assert rc == 0
    assert "final_welfare=1.2" in capsys.readouterr().out


def test_analyze_bounds(capsys):
    rc = main(["analyze", "--route", "bounds", "--C-grid", "0:1:0.5", "--k", "one", "--design", "optimal"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "parameter,value,truncation_flag"
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert vals == [1.0, 0.75, 0.5]


def test_analyze_lp(capsys):
    rc = main(["analyze", "--route", "lp", "--welfare", "setcov", "--N", "4", "--design", "common_interest"])
    assert rc == 0
    line = capsys.readouterr().out.strip().splitlines()[1]
    assert float(line.split(",")[1]) == pytest.approx(0.5, abs=1e-6)


def test_analyze_frontier(capsys):
    rc = main(["analyze", "--route", "frontier", "--Q-grid", "0.5", "--jtrunc", "100"])
    assert rc == 0
    line = capsys.readouterr().out.strip().splitlines()[1]
    assert float(line.split(",")[1]) == 0.5


def test_experiment_cli(tmp_path, capsys):
    cfg = {
        "n_agents": 4, "n_targets": 6, "n_instances": 3, "rounds": 2, "master_seed": 5,
        "designs": [{"family": "common_interest"}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"), "--format", "csv"])
    assert rc == 0
    raw = (tmp_path / "out" / "raw.csv").read_text().splitlines()
    assert raw[0] == "instance,design,round,welfare,normalized_welfare"
    assert len(raw) == 1 + 3 * 2


def test_construct_all_kinds(tmp_path, capsys):
    cases = [
        ["--kind", "two_agent_worst_case", "--C", "0.5", "--design", "one_round"],
        ["--kind", "ci_chain", "--n", "4", "--C", "1.0"],
        ["--kind", "stack_or_spread", "--n", "3", "--design", "pareto", "--chi", "1.0",
         "--base-size", "10"],
        ["--kind", "poa_witness", "--N1", "3", "--N2", "12", "--design", "common_interest"],
    ]
    kinds = {"ci_chain": "common_interest_chain"}
    for extra in cases:
        out = tmp_path / (extra[1] + ".json")
        rc = main(["construct", *extra, "--out", str(out)])
        assert rc == 0, extra
        meta = json.loads(out.with_suffix(".meta.json").read_text())
        assert meta["kind"] == kinds.get(extra[1], extra[1])
        rc = main(["simulate", "--game", str(out), "--k", "1", "--tiebreak", "adversarial"])
        assert rc == 0


def test_validation_exit_code():
    assert main(["construct", "--kind", "greedy_trap", "--eps", "2.0", "--out", "/tmp/x.json"]) == 2


def test_cap_exit_code(tmp_path, capsys):
    game_path = tmp_path / "trap.json"
    main(["construct", "--kind", "greedy_trap", "--eps", "0.1", "--out", str(game_path)])
    rc = main(["simulate", "--game", str(game_path), "--k", "2", "--tiebreak", "adversarial", "--cap", "1"])
    assert rc == 3


def test_budget_exit_code(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_agents": 30, "n_targets": 31, "n_instances": 1}))
    rc = main(["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    assert rc == 3


@pytest.mark.parametrize("resources", [
    [],
    [{"id": "a", "welfare": {"values": [1.0]}, "utility": {"values": [1.0]}, "value": float("inf")}],
    [{"id": "a", "welfare": {"values": [1.0]}, "utility": {"values": [1.0], "tail_value": float("inf")}}],
    [{"id": "a", "welfare": {"values": [1.0]}, "utility": {"values": [1.0, float("inf")]}}],
    [{"id": "a", "welfare": {"values": [1.0]}, "utility": {"values": [1.0]}, "value": "abc"}],
    '{"resources": [',  # a string is the file's whole text: invalid JSON
    None,  # no file at all
])
def test_invalid_game_exit_code(tmp_path, capsys, resources):
    game_path = tmp_path / "game.json"
    if isinstance(resources, str):
        game_path.write_text(resources)
    elif resources is not None:
        game_path.write_text(json.dumps({"resources": resources, "players": [{"actions": [[]]}]}))
    assert main(["simulate", "--game", str(game_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("config", [{"n_agents": 4, "bogus": 1}, {"n_agents": 2.5}, "{", None,
                                    {"n_agents": 3, "designs": [{"family": "one_round", "c": "abc"}]}])
def test_invalid_config_exit_code(tmp_path, capsys, config):
    cfg_path = tmp_path / "cfg.json"
    if config is not None:
        cfg_path.write_text(config if isinstance(config, str) else json.dumps(config))
    assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--game", "g.json", "--k", "abc"],
    ["simulate", "--game", "g.json", "--schedule", "0,x"],
    ["construct", "--kind", "greedy_trap", "--f-values", "1,x", "--out", "t.json"],
    ["analyze", "--route", "bounds", "--C-grid", "0:1:0"],
    ["analyze", "--route", "bounds", "--C-grid", "abc"],
    ["analyze", "--route", "bounds", "--C-grid", "0:1:-0.25"],
    ["analyze", "--route", "bounds", "--C-grid", "0:1:nan"],
    ["analyze", "--route", "bounds", "--C-grid", "0:1"],
])
def test_malformed_argument_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_analyze_bounds_integer_rounds(capsys):
    assert main(["analyze", "--route", "bounds", "--C-grid", "0.5", "--k", "3", "--design", "optimal"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0.5,0.75,False"
    assert main(["analyze", "--route", "bounds", "--C-grid", "1:0:-0.5", "--k", "inf", "--design", "optimal"]) == 0
    vals = [float(l.split(",")[0]) for l in capsys.readouterr().out.splitlines()[1:]]
    assert vals == [1.0, 0.5, 0.0]
    assert main(["analyze", "--route", "bounds", "--k", "two"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_simulate_schedule_needs_finite_k(tmp_path, capsys):
    game_path = tmp_path / "trap.json"
    main(["construct", "--kind", "greedy_trap", "--eps", "0.1", "--out", str(game_path)])
    capsys.readouterr()
    for tiebreak in ("incumbent", "adversarial"):
        rc = main(["simulate", "--game", str(game_path), "--k", "inf", "--schedule", "1,0",
                   "--tiebreak", tiebreak])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["analyze", "--route", "frontier", "--jtrunc", "0", "--Q-grid", "0.55"],
    ["analyze", "--route", "lp", "--design", "optimal"],
    ["analyze", "--route", "closed-form", "--design", "optimal"],
    ["design"],
])
def test_bad_design_request_exit_code(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
