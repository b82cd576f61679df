import argparse
import json
import math
import shlex
from pathlib import Path

import pytest

from resgames import cli, design_asymptotic, io, one_round_setcov, reachable_nash_min
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


def test_simulate_inf_adversarial(tmp_path, capsys):
    game_path = tmp_path / "trap.json"
    main(["construct", "--kind", "greedy_trap", "--eps", "0.1", "--out", str(game_path)])
    capsys.readouterr()
    argv = ["simulate", "--game", str(game_path), "--k", "inf", "--tiebreak", "adversarial"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == f"limit_welfare={reachable_nash_min(io.load_game(game_path))[0]!r} state=[2, 2]\n"
    assert main([*argv, "--cap", "1"]) == 3
    assert capsys.readouterr().err.startswith("error: tie enumeration exceeded cap=1")


def test_analyze_one_round(capsys):
    argv = ["analyze", "--route", "one-round", "--welfare", "bent", "--C", "0.5", "--design", "one_round"]
    assert main(argv) == 0
    assert abs(float(capsys.readouterr().out.splitlines()[1].split(",")[1]) - 0.75) <= 1e-12
    assert main(["analyze", "--route", "one-round", "--welfare", "setcov", "--design", "common_interest"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "10000,0.5,False"


def test_analyze_closed_form(capsys):
    argv = ["analyze", "--route", "closed-form", "--welfare", "setcov", "--design", "asymptotic", "--C", "1"]
    assert main(argv) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert abs(float(line.split(",")[1]) - (1 - 1 / math.e)) <= 1e-12


@pytest.mark.parametrize("welfare", ["wta", "harmonic"])
def test_analyze_closed_form_names_the_families_it_has(capsys, welfare):
    assert main(["analyze", "--route", "closed-form", "--welfare", welfare]) == 2
    err = capsys.readouterr().err
    assert repr(welfare) in err and "setcov" in err and "bent" in err


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
        ["--kind", "stack_or_spread", "--n", "3", "--design", "pareto", "--chi", "1.0"],
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


def test_construct_two_agent_from_f_values(tmp_path, capsys):
    out = tmp_path / "two.json"
    argv = ["construct", "--kind", "two_agent_worst_case", "--f-values", "1,0.5", "--out", str(out)]
    assert main([*argv, "--C", "0.5"]) == 0
    meta = json.loads(out.with_suffix(".meta.json").read_text())
    assert (meta["case"], meta["f2"], meta["target_ratio"]) == ("f2_below_floor", 0.5, 0.75)
    assert io.load_game(out).resources[2].value == 0.5  # r3 is worth f(2)
    # without --C the curvature is unknown: a usage error, not a TypeError
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --kind two_agent_worst_case needs the welfare curvature --C\n"
    assert main(["construct", "--kind", "ci_chain", "--out", str(tmp_path / "chain.json")]) == 2
    assert not (tmp_path / "chain.json").exists()


def test_validation_exit_code():
    assert main(["construct", "--kind", "greedy_trap", "--eps", "2.0", "--out", "/tmp/x.json"]) == 2


def test_irregular_witness_construct(tmp_path, capsys):
    out = tmp_path / "w.json"
    argv = ["construct", "--kind", "poa_witness", "--N1", "3", "--N2", "12",
            "--design", "asymptotic", "--C", "1.0", "--out", str(out)]
    assert main(argv) == 0
    assert out.exists() and out.with_suffix(".meta.json").exists()


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
    [{"id": "a", "welfare": {"values": [1.0]}, "utility": {"values": [[1.0, 0.5]]}}],
    '{"resources": [',  # a string is the file's whole text: invalid JSON
    None,  # no file at all
    [{"id": "a", "welfare": "set_covering", "utility": {"values": [1.0]}}],
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
    ["analyze", "--route", "bounds", "--C-grid", "0:1:1e-12"],  # 10^12 points
    ["analyze", "--route", "lp", "--welfare", "set_covering"],  # setcov is the one spelling
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
    ["analyze", "--route", "closed-form", "--welfare", "bent", "--C", "0.5", "--jmax", "0"],
    ["analyze", "--route", "closed-form", "--welfare", "bent", "--C", "0.5", "--jmax", "-1"],
])
def test_bad_design_request_exit_code(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


# One command per call site of the CLI's rule builder. Each expected last line
# (or meta value) pins the tabulation lengths that call site uses.
@pytest.mark.parametrize("argv,expected", [
    (["design", "--design", "one_round", "--C", "0.5"], "16,0.6666666666666666"),
    (["analyze", "--route", "closed-form", "--welfare", "setcov", "--design", "asymptotic", "--C", "1"],
     "50,0.6321205588285576,False"),
    (["analyze", "--route", "closed-form", "--welfare", "bent", "--C", ".5", "--design", "one_round"],
     "50,0.7499999999999999,False"),
    (["analyze", "--route", "one-round", "--welfare", "bent", "--C", ".5"], "50,0.6666666666666666,False"),
    # c = curvature(w) moves with the length of the wta table
    (["analyze", "--route", "one-round", "--welfare", "wta", "--design", "one_round"],
     "50,0.3333333333333434,False"),
    (["analyze", "--route", "lp", "--N", "5", "--welfare", "wta", "--design", "one_round"],
     "5,0.35549431622459526,False"),
    (["analyze", "--route", "lp", "--N", "5", "--welfare", "harmonic"], "5,0.6666666666666666,False"),
])
def test_rule_builder_call_sites_are_pinned(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == expected


@pytest.mark.parametrize("extra,key,expected", [
    (["--kind", "poa_witness", "--N1", "3", "--N2", "12"], "poa", 0.5),
    (["--kind", "stack_or_spread", "--n", "3", "--design", "pareto", "--chi", "1"], "target_ratio", 0.5),
    (["--kind", "two_agent_worst_case", "--C", ".5"], "target_ratio", 0.75),
])
def test_construct_rule_call_sites_are_pinned(tmp_path, capsys, extra, key, expected):
    out = tmp_path / "game.json"
    assert main(["construct", *extra, "--out", str(out)]) == 0
    assert json.loads(out.with_suffix(".meta.json").read_text())[key] == expected


@pytest.mark.parametrize("c", [1.0, 0.5])
def test_one_round_setcov_route_tabulates_f_to_jtrunc(capsys, c):
    # the asymptotic tail is not exact, so f must be tabulated as far as it is summed
    argv = ["analyze", "--route", "one-round", "--welfare", "setcov", "--design", "asymptotic", "--C", str(c)]
    assert main(argv) == 0
    expected = one_round_setcov(design_asymptotic(1, c, 10_000), 10_000)
    assert capsys.readouterr().out.splitlines()[1] == f"10000,{expected!r},False"


def test_simulate_inf_adversarial_refuses_out(tmp_path, capsys):
    game_path = tmp_path / "trap.json"
    main(["construct", "--kind", "greedy_trap", "--eps", "0.1", "--out", str(game_path)])
    capsys.readouterr()
    traj_path = tmp_path / "walk.jsonl"
    argv = ["simulate", "--game", str(game_path), "--k", "inf", "--out", str(traj_path)]
    assert main([*argv, "--tiebreak", "adversarial"]) == 2
    assert "finds a state" in capsys.readouterr().err
    assert not traj_path.exists()
    assert main(argv) == 0  # the default tie rule walks, and writes the walk
    recs = [json.loads(line) for line in traj_path.read_text().splitlines()]
    assert recs and {"tau", "player", "action", "welfare", "potential"} <= set(recs[0])


@pytest.mark.parametrize("extra,unread", [
    (["--kind", "stack_or_spread", "--n", "3", "--welfare", "wta", "--design", "one_round"], "--welfare"),
    (["--kind", "ci_chain", "--n", "3", "--C", ".5", "--design", "asymptotic", "--welfare", "harmonic"],
     "--design, --welfare"),
    (["--kind", "greedy_trap", "--design", "pareto", "--chi", "5", "--p", "0.3", "--N1", "7"],
     "--N1, --design, --chi, --p"),
    (["--kind", "two_agent_worst_case", "--C", ".5", "--f-values", "1,0.5", "--design", "pareto"], "--design"),
], ids=["stack_or_spread", "ci_chain", "greedy_trap", "two_agent-f_values"])
def test_construct_refuses_flags_its_kind_does_not_read(tmp_path, capsys, extra, unread):
    out = tmp_path / "game.json"
    assert main(["construct", *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --kind {extra[1]} does not read {unread}\n"
    assert not out.exists()


def test_unwritable_output_path_is_exit_2(tmp_path, capsys):
    blocker = tmp_path / "F"
    blocker.write_text("")
    game_path = tmp_path / "trap.json"
    main(["construct", "--kind", "greedy_trap", "--out", str(game_path)])
    capsys.readouterr()
    assert main(["experiment", "--out-dir", str(blocker / "out"), "--format", "csv"]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot create output directory {blocker / 'out'}")
    assert main(["simulate", "--game", str(game_path), "--out", str(blocker / "w.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_pareto_chi_above_one_is_refused(capsys):
    assert main(["design", "--design", "pareto", "--chi", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: chi must lie in [1/(e-1), 1]")


def test_analyze_refuses_flags_its_route_does_not_read(capsys):
    argv = ["analyze", "--route", "bounds", "--welfare", "wta", "--N", "9", "--Q-grid", "0.6",
            "--C-grid", ".5", "--design", "optimal"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: --route bounds does not read --Q-grid, --N, --welfare\n")
    assert main(["analyze", "--route", "frontier", "--Q-grid", "0.55", "--design", "one_round"]) == 2
    assert "does not read --design" in capsys.readouterr().err


def test_read_flag_table_covers_every_kind_and_route():
    subs = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices

    def choices(command, dest):
        return next(a.choices for a in subs[command]._actions if a.dest == dest)

    assert list(cli.READS) == [*choices("construct", "kind"), *choices("analyze", "route")]


def test_output_path_is_checked_before_any_work(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "F"
    blocker.write_text("")
    game_path = tmp_path / "trap.json"
    main(["construct", "--kind", "greedy_trap", "--out", str(game_path)])
    capsys.readouterr()
    cases = [
        ("run_experiment", ["experiment", "--out-dir", str(blocker / "out")],
         f"error: cannot create output directory {blocker / 'out'}"),
        ("run_experiment", ["experiment", "--out-dir", str(blocker)],
         f"error: cannot create output directory {blocker}"),
        ("k_round_walk", ["simulate", "--game", str(game_path), "--out", str(blocker / "w.jsonl")],
         f"error: cannot write {blocker / 'w.jsonl'}"),
        ("build_greedy_trap", ["construct", "--kind", "greedy_trap", "--out", str(blocker / "g.json")],
         f"error: cannot write {blocker / 'g.json'}"),
    ]
    for work, argv, message in cases:
        monkeypatch.setattr(cli, work, lambda *a, **k: pytest.fail(f"{work} ran before the path check"))
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith(message)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F", "trap.json", "trap.meta.json"]


def test_missing_config_creates_no_output_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["experiment", "--config", "missing.json", "--out-dir", "new"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read missing.json")
    assert not (tmp_path / "new").exists()


def _readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith(("resgames design ", "resgames analyze "))]


@pytest.mark.parametrize("argv", _readme_cli_lines(), ids=" ".join)
def test_readme_design_and_analyze_examples_run(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(("j,f_j", "parameter,value"))
