import json

import pytest

from resgames import (
    DesignSpec,
    ExperimentConfig,
    apply_design,
    build_poa_witness,
    design_common_interest,
    game_from_dict,
    game_to_dict,
    gen_wta,
    k_round_walk,
    load_game,
    make_welfare_rule,
    save_game,
    solve_poa_lp,
    trajectory_to_jsonl,
    walk_to_nash,
    welfare,
)
from resgames.cli import main
from resgames.constructions import build_greedy_trap, build_two_agent_worst_case
from resgames.designs import design_one_round
from resgames.model import ValidationError


def test_game_json_round_trip(tmp_path):
    g = build_two_agent_worst_case(0.5, design_one_round(0.5)).game
    path = tmp_path / "g.json"
    save_game(g, path)
    g2 = load_game(path)
    assert g2.actions == g.actions
    assert [r.rid for r in g2.resources] == [r.rid for r in g.resources]
    for joint in ((0, 0), (1, 2), (2, 1)):
        assert welfare(g2, joint) == pytest.approx(welfare(g, joint), abs=1e-12)


def test_loaded_witness_shares_one_rule_pair(tmp_path):
    w = make_welfare_rule("set_covering", 8)
    g = build_poa_witness(solve_poa_lp(w, design_common_interest(w), 3), 40).game
    path = tmp_path / "w.json"
    save_game(g, path)
    g2 = load_game(path)
    assert g2.n_resources == g.n_resources > 1
    assert len({id(r.welfare) for r in g2.resources}) == len({id(r.utility) for r in g2.resources}) == 1
    assert game_to_dict(g2) == game_to_dict(g)


def test_only_equal_rule_descriptions_share_a_rule():
    d = game_to_dict(build_greedy_trap(0.1).game)  # three equal rule pairs
    d["resources"][2]["utility"]["tail_value"] = -0.0  # equal to 0.0, but not the same rule
    g = game_from_dict(d)
    u = [r.utility for r in g.resources]
    assert u[0] is u[1] and u[2] is not u[0]
    assert str(u[2].tail_value) == "-0.0"
    assert len({id(r.welfare) for r in g.resources}) == 1


def test_empty_action_is_implicit():
    d = game_to_dict(build_greedy_trap(0.1).game)
    # drop the explicit empty actions; the loader restores them at index 0
    for pd in d["players"]:
        pd["actions"] = [a for a in pd["actions"] if a]
    g = game_from_dict(d)
    assert all(acts[0] == frozenset() for acts in g.actions)


@pytest.mark.parametrize("welfare, message", [
    ({"family": "bent", "params": {"b": 1, "curvature": 0.5, "j_max": 4}}, "malformed game description: 'values'"),
    ({"family": "set_covering", "params": {"j_max": 2.5}}, "malformed game description: 'values'"),
    ({"family": "set_covering", "params": {"j_max": True}}, "malformed game description: 'values'"),
    ({"family": "set_covering", "params": {"j_max": "3"}}, "malformed game description: 'values'"),
    ({"family": "set_covering", "values": []}, "welfare rule needs at least w(1)"),
], ids=["family-params", "float", "bool", "string", "empty-values"])
def test_a_welfare_without_values_is_refused(tmp_path, capsys, welfare, message):
    # game_to_dict writes every rule's values and the loader reads only
    # those, so a welfare named by its family and params alone is malformed
    d = {
        "resources": [{"id": "x", "welfare": welfare, "utility": {"values": [1.0]}}],
        "players": [{"actions": [["x"]]}],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValidationError) as exc:
        load_game(path)
    assert str(exc.value) == message
    assert main(["simulate", "--game", str(path), "--k", "1"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_malformed_game_rejected():
    with pytest.raises(ValidationError):
        game_from_dict({"resources": [{"id": "x"}], "players": []})


def test_trajectory_jsonl(tmp_path):
    g = build_greedy_trap(0.1).game
    traj = k_round_walk(g, 2)
    path = tmp_path / "t.jsonl"
    trajectory_to_jsonl(g, traj, path)
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["tau"] for r in recs] == [1, 2, 3, 4]
    assert recs[0]["action"] == ["r2"]
    assert recs[-1]["welfare"] == pytest.approx(1.2, abs=1e-12)


def test_multi_round_walk_numbers_its_steps_by_position(tmp_path):
    # walk_to_nash joins one-round walks; tau counts on across round boundaries
    g = apply_design(gen_wta(ExperimentConfig(), 0), DesignSpec("one_round"))
    traj = walk_to_nash(g)
    path = tmp_path / "nash.jsonl"
    trajectory_to_jsonl(g, traj, path)
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(recs) == 3 * g.n_players == 30
    assert [r["tau"] for r in recs] == list(range(1, 31))
    assert [r["player"] for r in recs] == list(range(g.n_players)) * 3
