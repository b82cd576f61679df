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
from numbers import Integral, Real
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


def _integer(x) -> bool:
    """An integer, but not a bool, which ``Integral`` and ``Real`` admit."""
    return isinstance(x, Integral) and not isinstance(x, bool)


def _real(x) -> bool:
    """A real number, but not a bool, which ``Real`` admits."""
    return isinstance(x, Real) and not isinstance(x, bool)


def _require_size(x, name: str, least: int = 1) -> None:
    """Refuses a size ``x`` that is not an integer (a bool included) or is below ``least``."""
    _require(_integer(x), f"{name} must be an integer, got {x!r}")
    _require(x >= least, f"{name} must be positive" if least == 1 else f"{name} must be at least {least}")


class _TabulatedRule:
    """A rule r(1..j_max) tabulated in ``values``, with r(0) = 0 implicit and
    ``_tail(k)`` the value k selectors past the table, elementwise over an
    array k.  ``_array`` holds ``values`` as a read-only float64 array; it is
    not a dataclass field, so equality and hashing see ``values`` alone."""

    def _set_values(self) -> np.ndarray:
        """Converts ``values`` once, to the private array and a tuple of floats."""
        try:
            arr = np.array(self.values, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"rule values must be numbers: {exc}") from exc
        _require(arr.ndim == 1, "rule values must be a flat sequence of numbers")
        arr.flags.writeable = False
        object.__setattr__(self, "_array", arr)
        object.__setattr__(self, "values", tuple(arr.tolist()))
        return arr

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
        out[1 : m + 1] = self._array[:m]
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
        w = self._set_values()
        object.__setattr__(self, "tail_slope", float(self.tail_slope))
        _require(len(w) >= 1, "welfare rule needs at least w(1)")
        _require(w.min() > 0.0, "welfare values must be strictly positive")  # a nan fails too
        _require(w.max() < math.inf, "welfare values must be finite")
        inc = np.concatenate((w[:1], w[1:] - w[:-1]))  # w(j) - w(j-1) for j = 1..j_max
        rises = inc[1:] >= -TOL
        fine = rises & (inc[1:] <= inc[:-1] + TOL)
        if not fine.all():  # the first failing increment names the check, nondecreasing first
            what = "have concave increments" if rises[fine.argmin()] else "be nondecreasing"
            raise ValidationError(f"welfare rule {self.label!r} must {what}")
        _require(self.tail_slope >= -TOL, "tail slope must be nonnegative")
        _require(self.tail_slope <= inc[-1] + TOL, "tail slope must not exceed the last increment")

    def _tail(self, k):
        return self.values[-1] + self.tail_slope * k

    def scaled(self, s: float) -> "WelfareRule":
        return WelfareRule(self._array * s, self.tail_slope * s, self.label)


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
        f = self._set_values()
        _require(len(f) >= 1, "utility rule needs at least f(1)")
        tail = self.values[-1] if self.tail_value is None else float(self.tail_value)
        _check_utility_values(f, tail)
        object.__setattr__(self, "tail_value", tail)

    def _tail(self, k):
        return self.tail_value

    def is_nonincreasing(self) -> bool:
        return _nonincreasing(self._array, self.tail_value)

    def scaled(self, s: float) -> "UtilityRule":
        return UtilityRule(self._array * s, self.tail_value * s)


def _check_first_values(w: WelfareRule, f: UtilityRule, owner: str) -> None:
    """Raise unless f(1) = w(1) within TOL: a design fixes f's scale there,
    and the guarantees read f at that scale."""
    _require(abs(f.values[0] - w.values[0]) <= TOL, f"{owner}: f(1) must equal w(1)")


def _nonincreasing(f: np.ndarray, tail: float) -> bool:
    return bool((f[1:] <= f[:-1] + TOL).all() and tail <= f[-1] + TOL)


def _check_utility_values(f: np.ndarray, tail: float, nonincreasing: bool = False) -> None:
    """Raise unless f(1..j_max) and the tail are finite and nonnegative and, if asked, nonincreasing."""
    _require(f.min() >= -TOL and f.max() < math.inf, "utility values must be finite and nonnegative")
    _require(-TOL <= tail < math.inf, "tail value must be finite and nonnegative")
    _require(not nonincreasing or _nonincreasing(f, tail), "utility rule must be nonincreasing")


def make_utility_rule(values: Sequence[float], tail_value: float | None = None) -> UtilityRule:
    """Build a utility rule and enforce the nonincreasing invariant; build a
    :class:`UtilityRule` directly for a non-monotone one."""
    rule = UtilityRule(values, tail_value)
    _check_utility_values(rule._array, rule.tail_value, nonincreasing=True)
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
    _require_size(j_max, "j_max")
    if family == "bent":
        _require(_real(curvature) and 0.0 <= curvature <= 1.0, "bent rule needs curvature in [0, 1]")
        _require(_integer(b) and b >= 1, "bent rule needs integer b >= 1")
        b = int(b)
        _require(j_max >= b, "bent rule needs j_max >= b so the constant tail is exact")
        c = float(curvature)
        vals = tuple((1.0 - c) * j + c * min(j, b) for j in range(1, j_max + 1))
        return WelfareRule(vals, 1.0 - c, "bent")
    if family == "set_covering":
        return WelfareRule((1.0,) * j_max, 0.0, "set_covering")
    if family == "wta":
        _require(_real(p) and 0.0 < p <= 1.0, "wta rule needs hit probability p in (0, 1]")
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
        _check_first_values(self.welfare, self.utility, f"resource {self.rid!r}")


@dataclass(frozen=True)
class Game:
    """Immutable game instance: resources plus per-player action sets.

    Every player's action list contains the empty action; it is inserted at
    index 0 when missing so walks can start from the null allocation.  A
    designed game (:meth:`_with_utilities`) shares the skeleton of the game
    it came from: its actions, index maps, selector counts and welfare tables.
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
    def action_resources(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per player, per action: sorted resource indices."""
        idx = {r.rid: k for k, r in enumerate(self.resources)}
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
        completion bound of :func:`~resgames.dynamics.optimum` read the
        increment past the last reachable count.
        """
        return self._value_rows([r.welfare for r in self.resources])

    @cached_property
    def utility_tables(self) -> np.ndarray:
        """Array of v_r * f_r(count), shaped like :attr:`welfare_tables`."""
        return self._value_rows([r.utility for r in self.resources])

    def _value_rows(self, rules: Sequence[_TabulatedRule]) -> np.ndarray:
        """Rows v_r * rules[r].table(n), tabulating each distinct rule object once."""
        n = max(self.max_selectors) + 1
        distinct = {id(rule): rule for rule in rules}
        tables = {key: rule.table(n) for key, rule in distinct.items()}
        return np.stack([r.value * tables[id(rule)] for r, rule in zip(self.resources, rules)])

    @cached_property
    def cumulative_utility_tables(self) -> np.ndarray:
        """Array of v_r * sum_{i<=count} f_r(i), shaped like :attr:`welfare_tables`."""
        return np.cumsum(self.utility_tables, axis=1)

    # The tables as Python floats, for scans that read one entry at a time:
    # float additions cost less than numpy scalar ones, to the same bits.
    @cached_property
    def _welfare_rows(self) -> list[list[float]]:
        return self.welfare_tables.tolist()

    @cached_property
    def _utility_rows(self) -> list[list[float]]:
        return self.utility_tables.tolist()

    @cached_property
    def _cumulative_rows(self) -> list[list[float]]:
        return self.cumulative_utility_tables.tolist()

    def _with_utilities(self, rules: Sequence[UtilityRule]) -> "Game":
        """This game with resource r's utility rule replaced by ``rules[r]``.
        Each :class:`Resource` is rebuilt, so f(1) = w(1) is checked; the ids
        and actions, checked already, are not."""
        g = object.__new__(Game)
        object.__setattr__(g, "resources", tuple(
            Resource(r.rid, r.welfare, f, r.value) for r, f in zip(self.resources, rules, strict=True)))
        object.__setattr__(g, "actions", self.actions)
        for name in ("action_resources", "null_action", "max_selectors", "welfare_tables"):
            g.__dict__[name] = getattr(self, name)
        return g

    def validate_joint(self, a: Sequence[int]) -> JointAction:
        _require(len(a) == self.n_players, "joint action has wrong number of players")
        for i, (ai, acts) in enumerate(zip(a, self.actions)):
            if not (isinstance(ai, (int, np.integer)) and 0 <= ai < len(acts)):
                raise ValidationError(f"player {i} action {ai!r} is not an index in [0, {len(acts)})")
        return tuple(a)

    def validate_player(self, i: int) -> int:
        _require(isinstance(i, (int, np.integer)) and 0 <= i < self.n_players,
                 f"player index {i!r} is not in [0, {self.n_players})")
        return i


def selection_counts(g: Game, a: Sequence[int]) -> np.ndarray:
    """Per-resource selector counts |a|_r for the joint action."""
    res = g.action_resources
    picked = [r for i, ai in enumerate(g.validate_joint(a)) for r in res[i][ai]]
    return np.bincount(picked, minlength=g.n_resources)


def welfare(g: Game, a: Sequence[int]) -> float:
    """System welfare sum_r v_r * w_r(|a|_r)."""
    counts = selection_counts(g, a)
    tabs = g.welfare_tables
    return float(tabs[np.arange(g.n_resources), counts].sum())


def utility_mc(g: Game, a: Sequence[int], i: int) -> float:
    """Marginal-contribution utility of player i: sum over its selections of v_r * f_r(|a|_r)."""
    i = g.validate_player(i)
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
