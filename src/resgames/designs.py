"""Utility-rule designs: common interest, one-round optimal, asymptotically
optimal, and the Pareto-optimal set-covering family.

The defining recursions multiply the running value by j at step j, which
amplifies rounding error factorially; every tabulation here therefore uses
closed-form tail series that only ever multiply by factors <= 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .model import (
    Game,
    UtilityRule,
    ValidationError,
    WelfareRule,
    _check_utility_values,
    _integer,
    _real,
    _require_size,
    curvature,
    make_utility_rule,
)

E = math.e
E_MINUS_1 = E - 1.0

#: Smallest achievable equalized increment for set-covering rules; the
#: asymptotic efficiency 1/(1+chi) cannot exceed 1 - 1/e.
CHI_MIN = 1.0 / E_MINUS_1

_SNAP = 1e-12


def _e_pow(n: int) -> float:
    """e**n by repeated multiplication, identical across platforms."""
    out = 1.0
    for _ in range(n):
        out *= E
    return out


def _decay_tail(j: np.ndarray, b: float, coef: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """sum_{m>=1} coef(j-1+m) * prod_{i=1..m} b/(j-1+i), elementwise over j.

    All factors are <= b/j, so the partial products shrink monotonically once
    the index passes b and the series converges absolutely.
    """
    j = np.asarray(j, dtype=np.float64)
    total = np.zeros_like(j)
    prod = np.ones_like(j)
    m = 0
    while True:
        m += 1
        t = j - 1.0 + m
        prod = prod * (b / t)
        term = coef(t) * prod
        total += term
        if m > 4 and float(np.abs(term).max()) < 1e-18:
            return total
        if m > 5000:
            raise RuntimeError("tail series failed to converge")


@lru_cache(maxsize=4)
def _unit_tail(j_max: int) -> np.ndarray:
    """Read-only sum_{t>=j} (j-1)!/t! for j = 1..j_max, the chi-free series of
    :func:`design_pareto_setcov`, so a frontier sweep sums it once per length."""
    tail = _decay_tail(np.arange(1, j_max + 1, dtype=np.float64), 1.0, np.ones_like)
    tail.flags.writeable = False
    return tail


def design_common_interest(w: WelfareRule) -> UtilityRule:
    """Marginal form of the shared-objective design: f(j) = w(j) - w(j-1)."""
    return make_utility_rule(np.diff(w.table(w.j_max)), w.tail_slope)


def design_one_round(c: float, j_max: int = 8) -> UtilityRule:
    """Rule maximizing one-round walk efficiency at curvature c.

    f(1) = 1 and f(j) = (2 - 2c)/(2 - c) for j >= 2, extended constantly.
    """
    if not (_real(c) and 0.0 <= c <= 1.0):
        raise ValidationError("curvature must lie in [0, 1]")
    _require_size(j_max, "j_max")
    f2 = (2.0 - 2.0 * c) / (2.0 - c)
    vals = (1.0,) + (f2,) * (j_max - 1)
    return make_utility_rule(vals, f2)


def design_asymptotic(b: int, c: float, j_max: int) -> UtilityRule:
    """Rule maximizing limit-point efficiency against the bend-b curvature-c rule.

    Defined by f(1) = 1 and, for bend 1,
        f(j+1) = max(j f(j) - rho ((1-c) j + c) + 1, 1 - c),  rho = e / (e - c),
    or, for curvature 1 and general bend b,
        f(j+1) = (j f(j) - rho_b min(j, b)) / b + 1,  rho_b = (1 - b^b e^-b / b!)^-1.

    Tabulated via the equivalent decaying series
        f(j) = ((j-1)!/b^(j-1)) sum_{T>=j} (rho_b min(T,b)/b - 1) b^T / T!
    whose terms are computed as running products of factors <= 1; the forward
    recursion itself drifts past 1e-9 of the true values around j = 12.
    """
    if not (_integer(b) and b >= 1):
        raise ValidationError("b must be an integer >= 1")
    if not (_real(c) and 0.0 <= c <= 1.0):
        raise ValidationError("curvature must lie in [0, 1]")
    if b > 1 and c != 1.0:
        raise ValidationError("only bend 1 (any curvature) or curvature 1 (any bend) is supported")
    _require_size(j_max, "j_max", 2)
    b = int(b)
    j = np.arange(1, j_max + 1, dtype=np.float64)
    if b == 1:
        rho = E / (E - c)
        vals = _decay_tail(j, 1.0, lambda t: rho * (1.0 - c) * t + rho * c - 1.0)
        vals = np.maximum(vals, 1.0 - c)
    else:
        rho_b = 1.0 / (1.0 - b**b / (_e_pow(b) * math.factorial(b)))
        head = [1.0]
        for jj in range(1, b - 1):
            head.append((jj * head[-1] - rho_b * min(jj, b)) / b + 1.0)
        vals = np.asarray(head[:j_max])  # the exact prefix f(1..b-1), all of it when j_max < b
        if j_max >= b:
            tail = _decay_tail(j[b - 1 :], float(b), lambda t: np.full_like(t, rho_b - 1.0))
            vals = np.concatenate([vals, tail])
        vals = np.maximum(vals, 0.0)
    vals[0] = 1.0
    return make_utility_rule(vals, float(vals[-1]))


def design_pareto_setcov(chi: float | None = None, q: float | None = None,
                         j_max: int = 64) -> UtilityRule:
    """Set-covering rule with equalized increments j f(j) - f(j+1) = chi,
    tabulated by :func:`pareto_setcov_values`."""
    vals = pareto_setcov_values(chi, q, j_max)
    return UtilityRule(vals, float(vals[-1]))


def pareto_setcov_values(chi: float | None = None, q: float | None = None,
                         j_max: int = 64) -> np.ndarray:
    """f(1..j_max) of the set-covering rule with equalized increments
    j f(j) - f(j+1) = chi, checked finite, nonnegative and nonincreasing.

    Defined by f(1) = 1, f(j+1) = max(j f(j) - chi, 0); its limit-point
    efficiency is 1/(1+chi) = q.  Tabulated via the split
        f(j) = (j-1)! (1 - chi (e-1)) + chi (j-1)! sum_{t>=j} 1/t!
    with the second term as a stable product series.  The argument given is
    range-checked on its own scale to 1e-12, chi in [1/(e-1), 1] or q in
    [1/2, 1 - 1/e] (every chi >= 1 gives the rule (1, 0, 0, ...)); a first
    factor above -1e-12 is then rounding at 1/(e-1), snapped to zero so the
    factorial cannot grow it.
    """
    if (chi is None) == (q is None):
        raise ValidationError("give exactly one of chi or q")
    _require_size(j_max, "j_max")
    if chi is None:
        if not (_real(q) and 0.5 - _SNAP <= q <= 1.0 - 1.0 / E + _SNAP):
            raise ValidationError("q must lie in [1/2, 1 - 1/e]")
        chi = (1.0 - q) / q
    elif not (_real(chi) and CHI_MIN - _SNAP <= chi <= 1.0 + _SNAP):
        raise ValidationError(f"chi must lie in [1/(e-1), 1] ~ [{CHI_MIN:.6f}, 1]")
    chi = float(chi)
    delta = 1.0 - chi * E_MINUS_1
    if delta > -_SNAP:
        delta = 0.0
    vals = chi * _unit_tail(j_max)
    if delta != 0.0:
        # delta < 0: the factorial term drags the rule to its zero floor.
        fact = 1.0
        for idx in range(j_max):
            if idx > 0:
                fact *= idx
            v = delta * fact + vals[idx]
            if v <= 0.0 or not math.isfinite(fact):
                vals[idx:] = 0.0
                break
            vals[idx] = v
    vals[0] = 1.0
    _check_utility_values(vals, vals[-1], nonincreasing=True)
    return vals


@dataclass(frozen=True)
class DesignSpec:
    """Serializable choice of utility design for experiment configs and the CLI.

    ``c`` may be left None to be resolved from the measured curvature of the
    welfare rule the design is applied to.  ``pareto`` takes exactly one of
    ``chi`` or ``q``, and no other family takes either.  ``c`` and ``b`` are
    accepted on every family, since the CLI's ``--C`` and ``--b`` also shape
    the bent welfare rule.  A field of the wrong type, a boolean among them,
    or an unknown family is a :class:`ValidationError`.
    """

    family: str  # common_interest | one_round | asymptotic | pareto
    c: float | None = None
    b: int = 1
    chi: float | None = None
    q: float | None = None
    label: str | None = None

    def __post_init__(self):
        if self.family not in ("common_interest", "one_round", "asymptotic", "pareto"):
            raise ValidationError(f"unknown design family {self.family!r}")
        for name in ("c", "chi", "q"):
            x = getattr(self, name)
            if not (x is None or _real(x)):
                raise ValidationError(f"design {name} must be a real number or null")
        if self.family != "pareto" and (self.chi is not None or self.q is not None):
            raise ValidationError(f"design {self.family} reads neither chi nor q")
        if self.family == "pareto" and (self.chi is None) == (self.q is None):
            raise ValidationError("give exactly one of chi or q")
        if not (_integer(self.b) and self.b >= 1):
            raise ValidationError("design b must be a positive integer")
        if not (self.label is None or isinstance(self.label, str)):
            raise ValidationError("design label must be a string or null")

    def name(self) -> str:
        return self.label if self.label is not None else self.family

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


@lru_cache(maxsize=32)
def resolve_design(spec: DesignSpec | str, w: WelfareRule, j_max: int) -> UtilityRule:
    """Produce the utility rule a design assigns to the welfare rule ``w``,
    tabulated to ``j_max`` selectors where the design needs a length.

    The design uses w as given, with f(1) = w(1) exactly: common interest takes
    w's increments, and the other families read the scale-free ``curvature(w)``
    and scale their unit rule by w(1).  Equal calls share one immutable result,
    so the instances of an experiment build and check each designed rule once.
    """
    if isinstance(spec, str):
        spec = DesignSpec(spec)
    if spec.family == "common_interest":
        return design_common_interest(w)
    c = spec.c if spec.c is not None else curvature(w)
    if spec.family == "one_round":
        f = design_one_round(c, j_max)
    elif spec.family == "asymptotic":
        f = design_asymptotic(spec.b, c, j_max)
    else:
        f = design_pareto_setcov(spec.chi, spec.q, j_max)
    return f.scaled(w.values[0])


def apply_design(g: Game, spec: DesignSpec | str) -> Game:
    """Replace every resource's utility rule with the design's output,
    tabulated to max(n_players, 8) selectors.  The new game shares ``g``'s
    actions and welfare tables."""
    jm = max(g.n_players, 8)
    cache: dict[int, UtilityRule] = {}
    rules = []
    for r in g.resources:
        key = id(r.welfare)
        if key not in cache:
            cache[key] = resolve_design(spec, r.welfare, jm)
        rules.append(cache[key])
    return g._with_utilities(rules)
