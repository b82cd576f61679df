"""Core model: welfare rules, utility rules, resources, games, and their evaluation.

A game consists of resources, each carrying a tabulated welfare rule w and a
tabulated utility rule f, plus per-player action sets (subsets of resources).
System welfare sums v_r * w_r(count_r) over resources; a player's marginal
utility sums v_r * f_r(count_r) over the resources it selects.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

#: Absolute tolerance for rule invariants and for utility ties.
TOL = 1e-9

JointAction = tuple[int, ...]


class ValidationError(ValueError):
    """A rule, game, or input description violates a structural invariant."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


class _TabulatedRule:
    """A rule r(1..j_max) tabulated in ``values``, with r(0) = 0 implicit and
    ``_tail(k)`` the value k selectors past the table, elementwise over an
    array k."""

    @property
    def j_max(self) -> int:
        return len(self.values)

    def eval(self, j: int) -> float:
        if j <= 0:
            return 0.0
        if j <= len(self.values):
            return self.values[j - 1]
        return self._tail(j - len(self.values))

    def table(self, n: int) -> np.ndarray:
        """Array [r(0), r(1), ..., r(n)]."""
        out = np.empty(n + 1)
        out[0] = 0.0
        m = min(n, len(self.values))
        out[1 : m + 1] = self.values[:m]
        if n > m:
            out[m + 1 :] = self._tail(np.arange(1, n - m + 1))
        return out


@dataclass(frozen=True)
class WelfareRule(_TabulatedRule):
    """Nondecreasing concave rule w(1..j_max) with a linear tail.

    w(0) = 0 is implicit and never stored.  Beyond the table the rule
    continues linearly with slope ``tail_slope`` per extra selector.
    """

    values: tuple[float, ...]
    tail_slope: float
    label: str = "explicit"

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "tail_slope", float(self.tail_slope))
        _require(len(self.values) >= 1, "welfare rule needs at least w(1)")
        _require(all(v > 0.0 for v in self.values), "welfare values must be strictly positive")
        last_diff = self.values[0]  # w(1) - w(0)
        for lo, hi in zip(self.values, self.values[1:]):
            d = hi - lo
            _require(d >= -TOL, f"welfare rule {self.label!r} must be nondecreasing")
            _require(d <= last_diff + TOL, f"welfare rule {self.label!r} must have concave increments")
            last_diff = d
        _require(self.tail_slope >= -TOL, "tail slope must be nonnegative")
        _require(self.tail_slope <= last_diff + TOL, "tail slope must not exceed the last increment")

    def _tail(self, k):
        return self.values[-1] + self.tail_slope * k

    def scaled(self, s: float) -> "WelfareRule":
        return WelfareRule(tuple(v * s for v in self.values), self.tail_slope * s, self.label)


@dataclass(frozen=True)
class UtilityRule(_TabulatedRule):
    """Nonnegative per-selector payoff f(1..j_max), constant ``tail_value`` beyond.

    f(0) = 0 is implicit.  Designed rules are nonincreasing with f(1) equal to
    the owning resource's w(1); adversarial analysis may construct
    non-monotone rules, so monotonicity is checked by :func:`make_utility_rule`
    and the design constructors rather than here.
    """

    values: tuple[float, ...]
    tail_value: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        _require(len(self.values) >= 1, "utility rule needs at least f(1)")
        _require(all(-TOL <= v < math.inf for v in self.values), "utility values must be finite and nonnegative")
        tail = self.values[-1] if self.tail_value is None else float(self.tail_value)
        _require(-TOL <= tail < math.inf, "tail value must be finite and nonnegative")
        object.__setattr__(self, "tail_value", tail)

    def _tail(self, k):
        return self.tail_value

    def is_nonincreasing(self) -> bool:
        seq = self.values + (self.tail_value,)
        return all(hi <= lo + TOL for lo, hi in zip(seq, seq[1:]))

    def scaled(self, s: float) -> "UtilityRule":
        return UtilityRule(tuple(v * s for v in self.values), self.tail_value * s)


def make_utility_rule(values: Sequence[float], tail_value: float | None = None) -> UtilityRule:
    """Build a utility rule and enforce the nonincreasing invariant; build a
    :class:`UtilityRule` directly for a non-monotone one."""
    rule = UtilityRule(tuple(values), tail_value)
    _require(rule.is_nonincreasing(), "utility rule must be nonincreasing")
    return rule


def make_welfare_rule(family: str, j_max: int, *, b: int = 1, curvature: float | None = None,
                      p: float | None = None) -> WelfareRule:
    """Construct a welfare rule from one of the supported families.

    bent:         w(j) = (1-C)j + C*min(j, b), requires ``curvature`` and j_max >= b
    set_covering: w(j) = 1 for j >= 1
    wta:          w(j) = 1 - (1-p)^j, requires hit probability ``p``
    harmonic:     w(j) = sum_{i<=j} 1/i

    Build a :class:`WelfareRule` directly for any other rule.
    """
    _require(j_max >= 1, "j_max must be positive")
    if family == "bent":
        _require(curvature is not None and 0.0 <= curvature <= 1.0, "bent rule needs curvature in [0, 1]")
        _require(int(b) == b and b >= 1, "bent rule needs integer b >= 1")
        b = int(b)
        _require(j_max >= b, "bent rule needs j_max >= b so the constant tail is exact")
        c = float(curvature)
        vals = tuple((1.0 - c) * j + c * min(j, b) for j in range(1, j_max + 1))
        return WelfareRule(vals, 1.0 - c, "bent")
    if family == "set_covering":
        return WelfareRule((1.0,) * j_max, 0.0, "set_covering")
    if family == "wta":
        _require(p is not None and 0.0 < p <= 1.0, "wta rule needs hit probability p in (0, 1]")
        q = 1.0 - float(p)
        vals = tuple(1.0 - q**j for j in range(1, j_max + 1))
        return WelfareRule(vals, float(p) * q**j_max, "wta")
    if family == "harmonic":
        acc, vals = 0.0, []
        for j in range(1, j_max + 1):
            acc += 1.0 / j
            vals.append(acc)
        return WelfareRule(tuple(vals), 1.0 / (j_max + 1), "harmonic")
    raise ValidationError(f"unknown welfare family {family!r}")


def curvature(w: WelfareRule) -> float:
    """Degree of submodularity: 1 - tail_slope / w(1); 0 is linear, 1 is maximal."""
    return 1.0 - w.tail_slope / w.values[0]


def convert_rule(direction: str, values: Sequence[float]) -> tuple[float, ...]:
    """Convert between marginal (f) and cumulative payoff tabulations.

    ``to_marginal``:  f(j) = g(j) - g(j-1) of a concave nondecreasing input.
    ``to_cumulative``: g(j) = sum_{i<=j} f(i) of a nonincreasing nonnegative input.
    The round trip is the identity.
    """
    vals = [float(v) for v in values]
    _require(len(vals) >= 1, "need at least one tabulated value")
    if direction == "to_marginal":
        out = [vals[0]]
        for lo, hi in zip(vals, vals[1:]):
            out.append(hi - lo)
        for lo, hi in zip(out, out[1:]):
            _require(hi <= lo + TOL, "input must be concave: marginals came out increasing")
        _require(all(v >= -TOL for v in out), "input must be nondecreasing")
        return tuple(out)
    if direction == "to_cumulative":
        for lo, hi in zip(vals, vals[1:]):
            _require(hi <= lo + TOL, "input must be nonincreasing")
        _require(all(v >= -TOL for v in vals), "input must be nonnegative")
        out, acc = [], 0.0
        for v in vals:
            acc += v
            out.append(acc)
        return tuple(out)
    raise ValidationError(f"unknown conversion {direction!r}")


@dataclass(frozen=True)
class Resource:
    rid: str
    welfare: WelfareRule
    utility: UtilityRule
    value: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        _require(math.isfinite(self.value) and self.value >= 0.0,
                 f"resource {self.rid!r} must have a finite nonnegative value")
        _require(abs(self.utility.values[0] - self.welfare.values[0]) <= TOL,
                 f"resource {self.rid!r}: f(1) must equal w(1)")


@dataclass(frozen=True)
class Game:
    """Immutable game instance: resources plus per-player action sets.

    Every player's action list contains the empty action; it is inserted at
    index 0 when missing so walks can start from the null allocation.
    """

    resources: tuple[Resource, ...]
    actions: tuple[tuple[frozenset[str], ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "resources", tuple(self.resources))
        norm = []
        for acts in self.actions:
            acts = [frozenset(a) for a in acts]
            if not any(len(a) == 0 for a in acts):
                acts.insert(0, frozenset())
            norm.append(tuple(acts))
        object.__setattr__(self, "actions", tuple(norm))
        ids = [r.rid for r in self.resources]
        _require(len(set(ids)) == len(ids), "resource ids must be unique")
        known = set(ids)
        for i, acts in enumerate(self.actions):
            for a in acts:
                missing = a - known
                _require(not missing, f"player {i} action references unknown resources {sorted(missing)}")
        _require(len(self.actions) >= 1, "game needs at least one player")
        _require(len(self.resources) >= 1, "game needs at least one resource")

    @property
    def n_players(self) -> int:
        return len(self.actions)

    @property
    def n_resources(self) -> int:
        return len(self.resources)

    @cached_property
    def rid_index(self) -> dict[str, int]:
        return {r.rid: k for k, r in enumerate(self.resources)}

    @cached_property
    def action_resources(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per player, per action: sorted resource indices."""
        idx = self.rid_index
        return tuple(
            tuple(tuple(sorted(idx[rid] for rid in a)) for a in acts)
            for acts in self.actions
        )

    @cached_property
    def null_action(self) -> JointAction:
        """The joint action in which every player takes its empty action."""
        out = []
        for acts in self.actions:
            out.append(next(k for k, a in enumerate(acts) if len(a) == 0))
        return tuple(out)

    @cached_property
    def max_selectors(self) -> tuple[int, ...]:
        """Per resource: number of players that can possibly select it."""
        out = [0] * self.n_resources
        for acts in self.action_resources:
            seen = set()
            for a in acts:
                seen.update(a)
            for r in seen:
                out[r] += 1
        return tuple(out)

    @cached_property
    def welfare_tables(self) -> np.ndarray:
        """(n_resources, max(max_selectors) + 2) array of v_r * w_r(count).

        No count passes ``max_selectors[r]``; the one spare count lets the
        greedy sweep of :func:`~resgames.dynamics.optimum` read the increment
        past the last reachable count.
        """
        n = max(self.max_selectors) + 1
        return np.stack([r.value * r.welfare.table(n) for r in self.resources])

    @cached_property
    def utility_tables(self) -> np.ndarray:
        """Array of v_r * f_r(count), shaped like :attr:`welfare_tables`."""
        n = max(self.max_selectors) + 1
        return np.stack([r.value * r.utility.table(n) for r in self.resources])

    @cached_property
    def cumulative_utility_tables(self) -> np.ndarray:
        """Array of v_r * sum_{i<=count} f_r(i), shaped like :attr:`welfare_tables`."""
        return np.cumsum(self.utility_tables, axis=1)

    def validate_joint(self, a: Sequence[int]) -> JointAction:
        _require(len(a) == self.n_players, "joint action has wrong number of players")
        for i, ai in enumerate(a):
            _require(0 <= ai < len(self.actions[i]), f"player {i} action index {ai} out of range")
        return tuple(a)

    def validate_tabulation(self) -> None:
        """Check every rule is tabulated past the largest attainable selector count."""
        for r, need in zip(self.resources, self.max_selectors):
            _require(r.welfare.j_max >= need,
                     f"resource {r.rid!r}: welfare table ends at {r.welfare.j_max} "
                     f"but up to {need} players can select it")


def selection_counts(g: Game, a: Sequence[int]) -> np.ndarray:
    """Per-resource selector counts |a|_r for the joint action."""
    counts = np.zeros(g.n_resources, dtype=np.int64)
    for i, ai in enumerate(a):
        for r in g.action_resources[i][ai]:
            counts[r] += 1
    return counts


def welfare(g: Game, a: Sequence[int]) -> float:
    """System welfare sum_r v_r * w_r(|a|_r)."""
    counts = selection_counts(g, a)
    tabs = g.welfare_tables
    return float(tabs[np.arange(g.n_resources), counts].sum())


def utility_mc(g: Game, a: Sequence[int], i: int) -> float:
    """Marginal-contribution utility of player i: sum over its selections of v_r * f_r(|a|_r)."""
    counts = selection_counts(g, a)
    tabs = g.utility_tables
    return float(sum(tabs[r, counts[r]] for r in g.action_resources[i][a[i]]))


def utility_full(g: Game, a: Sequence[int]) -> float:
    """Team-form payoff sum over all resources of v_r * sum_{i<=|a|_r} f_r(i).

    Shared by all players; its change under a unilateral move equals the
    mover's change in marginal-contribution utility, so both induce the same
    best responses.
    """
    counts = selection_counts(g, a)
    tabs = g.cumulative_utility_tables
    return float(tabs[np.arange(g.n_resources), counts].sum())


def normalize(g: Game) -> Game:
    """Rescale every resource so w(1) = 1, folding the old w(1) into its value.

    Welfare of every joint action is unchanged.
    """
    out = []
    for r in g.resources:
        s = r.welfare.values[0]
        if abs(s - 1.0) <= 1e-15:
            out.append(r)
        else:
            out.append(Resource(r.rid, r.welfare.scaled(1.0 / s), r.utility.scaled(1.0 / s), r.value * s))
    return Game(tuple(out), g.actions)
