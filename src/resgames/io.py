"""Serialization: game descriptions as JSON, trajectories as JSON lines."""
from __future__ import annotations

import json
import pickle
from pathlib import Path

from .dynamics import Trajectory
from .model import (
    Game,
    Resource,
    UtilityRule,
    ValidationError,
    WelfareRule,
    make_welfare_rule,
)


def game_to_dict(g: Game) -> dict:
    return {
        "resources": [
            {
                "id": r.rid,
                "welfare": {
                    "family": r.welfare.label,
                    "values": list(r.welfare.values),
                    "tail_slope": r.welfare.tail_slope,
                },
                "utility": {
                    "values": list(r.utility.values),
                    "tail_value": r.utility.tail_value,
                },
                "value": r.value,
            }
            for r in g.resources
        ],
        "players": [
            {"actions": [sorted(a) for a in acts]} for acts in g.actions
        ],
    }


def _welfare_from_dict(d: dict) -> WelfareRule:
    if "values" in d and d["values"]:
        return WelfareRule(d["values"], d.get("tail_slope", 0.0), d.get("family", "explicit"))
    params = dict(d.get("params", {}))
    return make_welfare_rule(d["family"], params.pop("j_max", 64), **params)


def game_from_dict(d: dict) -> Game:
    """The game a :func:`game_to_dict` description gives, or a :class:`ValidationError`."""
    built = {}

    def rule(make, *args):  # one rule object per distinct description: equal pickles, equal descriptions
        key = (make, pickle.dumps(args))
        if key not in built:
            built[key] = make(*args)
        return built[key]

    try:
        resources = tuple(
            Resource(
                rd["id"],
                rule(_welfare_from_dict, rd["welfare"]),
                rule(UtilityRule, rd["utility"]["values"], rd["utility"].get("tail_value")),
                rd.get("value", 1.0),
            )
            for rd in d["resources"]
        )
        actions = tuple(
            tuple(frozenset(a) for a in pd["actions"]) for pd in d["players"]
        )
        return Game(resources, actions)
    except ValidationError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed game description: {exc}") from exc


def save_game(g: Game, path: str | Path) -> None:
    with Path(path).open("w") as fh:
        json.dump(game_to_dict(g), fh, indent=1)
        fh.write("\n")


def load_json(path: str | Path):
    """The JSON at ``path``; an unreadable file or invalid JSON is a :class:`ValidationError`."""
    try:
        with Path(path).open() as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def load_game(path: str | Path) -> Game:
    return game_from_dict(load_json(path))


def trajectory_to_jsonl(g: Game, traj: Trajectory, path: str | Path) -> None:
    """One record per step: {tau, player, action, welfare, potential}."""
    with Path(path).open("w") as fh:
        for tau, step in enumerate(traj.steps, 1):
            rec = {
                "tau": tau,
                "player": step.player,
                "action": sorted(g.actions[step.player][step.action]),
                "welfare": step.welfare,
                "potential": step.potential,
            }
            fh.write(json.dumps(rec) + "\n")
