"""Randomized weapon-target-assignment experiments with exact normalization.

Instances are generated from a counter-based RNG keyed by (master_seed,
instance_index), so results are reproducible across platforms and independent
of execution order; the exported CSV is byte-identical on re-run.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .designs import DesignSpec, apply_design, design_common_interest
from .dynamics import k_round_walk, optimum
from .model import Game, Resource, UtilityRule, ValidationError, WelfareRule, _integer, _real, make_welfare_rule


class Row(NamedTuple):
    instance: int
    design: str
    round: int
    welfare: float
    normalized_welfare: float


class SummaryRow(NamedTuple):
    design: str
    round: int
    min: float
    q1: float
    median: float
    q3: float
    max: float


def _default_designs() -> tuple[DesignSpec, ...]:
    return (
        DesignSpec("one_round"),
        DesignSpec("common_interest"),
        DesignSpec("asymptotic"),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    n_agents: int = 10
    n_targets: int = 15
    p_hit: float = 0.5
    actions_per_agent: int = 2
    action_width: int = 2
    n_instances: int = 100
    rounds: int = 5
    master_seed: int = 1
    designs: tuple[DesignSpec, ...] = field(default_factory=_default_designs)

    def __post_init__(self):
        for name in ("n_agents", "n_targets", "actions_per_agent", "action_width", "n_instances", "rounds"):
            if not _integer(getattr(self, name)) or getattr(self, name) < 1:
                raise ValidationError(f"{name} must be a positive integer")
        if not _integer(self.master_seed):
            raise ValidationError("master_seed must be an integer")
        if not -2**63 <= self.master_seed < 2**63:  # gen_wta's Philox key holds 64 bits
            raise ValidationError("master_seed must lie in [-2**63, 2**63)")
        if self.action_width > self.n_targets:
            raise ValidationError("action_width cannot exceed n_targets")
        if not (_real(self.p_hit) and 0.0 < self.p_hit <= 1.0):
            raise ValidationError("p_hit must lie in (0, 1]")
        object.__setattr__(self, "designs", tuple(self.designs))
        if not self.designs:
            raise ValidationError("an experiment needs at least one design")
        names = [s.name() for s in self.designs]
        if len(set(names)) != len(names):
            raise ValidationError(f"design names must be unique, got {names}")

    def to_dict(self) -> dict:
        d = {k: v for k, v in self.__dict__.items() if k != "designs"}
        d["designs"] = [s.to_dict() for s in self.designs]
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        try:
            d = dict(d)
            if "designs" in d:  # an absent key keeps the default designs
                d["designs"] = tuple(DesignSpec(**s) for s in d["designs"])
            return ExperimentConfig(**d)
        except ValidationError:
            raise
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"malformed experiment config: {exc}") from exc


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[Row]
    summary: list[SummaryRow]


@lru_cache(maxsize=8)
def _wta_rules(n_agents: int, p_hit: float) -> tuple[WelfareRule, UtilityRule]:
    """The immutable (w, f) pair every instance of a configuration shares."""
    w = make_welfare_rule("wta", n_agents, p=p_hit)
    return w, design_common_interest(w)


def gen_wta(cfg: ExperimentConfig, instance_index: int) -> Game:
    """Deterministic instance: normalized uniform target values, circular windows.

    Draw order is fixed (values first, then each agent's window starts) and the
    stream is keyed by (master_seed, instance_index), never by global state.
    """
    rng = np.random.Generator(np.random.Philox(key=[cfg.master_seed, instance_index]))
    values = rng.random(cfg.n_targets)
    values = values / values.sum()
    w, f = _wta_rules(cfg.n_agents, cfg.p_hit)
    res = tuple(
        Resource(f"t{t}", w, f, float(values[t])) for t in range(cfg.n_targets)
    )
    actions = []
    for _ in range(cfg.n_agents):
        acts = [frozenset()]
        for _ in range(cfg.actions_per_agent):
            start = int(rng.integers(0, cfg.n_targets))
            acts.append(frozenset(f"t{(start + d) % cfg.n_targets}" for d in range(cfg.action_width)))
        actions.append(tuple(acts))
    return Game(res, tuple(actions))


def _run_instance(cfg: ExperimentConfig, idx: int) -> list[Row]:
    base = gen_wta(cfg, idx)
    _, opt_w = optimum(base)
    n = base.n_players
    rows = []
    for spec in cfg.designs:
        g = apply_design(base, spec)
        traj = k_round_walk(g, cfg.rounds)
        for r in range(1, cfg.rounds + 1):
            w = traj.steps[r * n - 1].welfare
            rows.append(Row(idx, spec.name(), r, w, w / opt_w))
    return rows


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every instance and design: walks use incumbent-keeping ties and each
    round's welfare is normalized by the instance's exact optimum (brute
    force with bound-pruned blocks, see :func:`~resgames.dynamics.optimum`)."""
    rows = [row for i in range(cfg.n_instances) for row in _run_instance(cfg, i)]
    summary = summarize(cfg, rows)
    return ExperimentResult(cfg, rows, summary)


def summarize(cfg: ExperimentConfig, rows: Sequence[Row]) -> list[SummaryRow]:
    """Min/quartiles/median/max of normalized welfare across instances."""
    cells = {(spec.name(), r): [] for spec in cfg.designs for r in range(1, cfg.rounds + 1)}
    for row in rows:
        cells[row.design, row.round].append(row.normalized_welfare)
    out = []
    for (name, r), vals in cells.items():
        lo, q1, med, q3, hi = np.percentile(np.array(vals), [0, 25, 50, 75, 100], method="linear")
        out.append(SummaryRow(name, r, float(lo), float(q1), float(med), float(q3), float(hi)))
    return out


def export_result(res: ExperimentResult, fmt: str, out_dir: str | Path) -> list[Path]:
    """Write raw.csv / summary.csv and-or result.json; floats use shortest
    round-trip formatting so identical runs export identical bytes, and the
    csv module quotes a design label that holds a comma, quote or line break."""
    if fmt not in ("csv", "json", "both"):
        raise ValidationError("format must be csv, json, or both")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc
    paths = []
    if fmt in ("csv", "both"):
        for name, rows, fields in (("raw.csv", res.rows, Row._fields),
                                   ("summary.csv", res.summary, SummaryRow._fields)):
            with (out / name).open("w", newline="") as fh:
                table = csv.writer(fh, lineterminator="\n")
                table.writerow(fields)
                table.writerows(rows)  # str(float) is its shortest round-trip repr
            paths.append(out / name)
    if fmt in ("json", "both"):
        jpath = out / "result.json"
        payload = {
            "config": res.config.to_dict(),
            "rows": [row._asdict() for row in res.rows],
            "summary": [s._asdict() for s in res.summary],
        }
        with jpath.open("w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        paths.append(jpath)
    return paths


def load_raw_csv(path: str | Path) -> list[Row]:
    """The rows of a raw.csv that :func:`export_result` wrote."""
    rows = []
    with Path(path).open(newline="") as fh:
        table = csv.reader(fh)
        header = next(table, [])
        if tuple(header) != Row._fields:
            raise ValidationError(f"unexpected raw csv header: {','.join(header)}")
        for line in table:
            if len(line) != len(Row._fields):
                raise ValidationError(f"raw csv line {table.line_num} has {len(line)} fields, not 5")
            inst, design, rnd, w, nw = line
            try:
                rows.append(Row(int(inst), design, int(rnd), float(w), float(nw)))
            except ValueError as exc:
                raise ValidationError(f"raw csv line {table.line_num}: {exc}") from exc
    return rows
