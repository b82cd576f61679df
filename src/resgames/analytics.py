"""Closed-form and LP-based efficiency computation.

All "max over every j" closed forms are truncated at a caller-supplied index
bound; results report whether the maximizer sat strictly on that boundary, in
which case the value may be an under-estimate of the true supremum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import TOL, UtilityRule, ValidationError, WelfareRule, curvature
from .designs import design_pareto_setcov

E = math.e


class BoundResult(NamedTuple):
    value: float
    truncated: bool


class FrontierPoint(NamedTuple):
    q: float
    one_round: float


def one_round_bound(w: WelfareRule, f: UtilityRule, y_max: int = 50) -> BoundResult:
    """One-round walk efficiency guarantee for a single welfare/utility pair.

    Evaluates [max_{1<=y<=y_max, 0<=z<=y_max}
               (sum_{i<=y} f(i) - z min_{i<=y+1} f(i) + w(z)) / w(y)]^-1.
    ``truncated`` reports a maximizer that strictly dominates only on the
    y_max/z_max boundary, i.e. a larger index bound could change the value.
    """
    if y_max < 1:
        raise ValidationError("y_max must be positive")
    wt = w.table(y_max)
    ft = f.table(y_max + 1)
    pref = np.cumsum(ft)
    runmin = np.minimum.accumulate(np.where(np.arange(y_max + 2) == 0, np.inf, ft))
    z = np.arange(y_max + 1)
    best = -np.inf
    best_interior = -np.inf
    for y in range(1, y_max + 1):
        vals = (pref[y] - z * runmin[y + 1] + wt) / wt[y]
        m = float(vals.max())
        if m > best:
            best = m
        mi = float(vals[: y_max].max())
        if y < y_max and mi > best_interior:
            best_interior = mi
    return BoundResult(1.0 / best, best > best_interior + 1e-12)


def one_round_setcov(f: UtilityRule, j_trunc: int) -> float:
    """One-round efficiency for the set-covering rule:
    [sum_{i<=j_trunc} f(i) - min_{i<=j_trunc} f(i) + 1]^-1.

    The truncated sum under-counts a divergent series, so the value is
    nonincreasing in ``j_trunc`` and an upper bound on the true guarantee.
    """
    if j_trunc < 1:
        raise ValidationError("j_trunc must be positive")
    ft = f.table(j_trunc)[1:]
    return float(1.0 / (ft.sum() - ft.min() + 1.0))


def _check_setcov(w: WelfareRule) -> None:
    if any(abs(v - 1.0) > TOL for v in w.values) or abs(w.tail_slope) > TOL:
        raise ValidationError("rule is not the set-covering welfare rule")


def _check_bent(w: WelfareRule) -> tuple[int, float]:
    """Recover (b, c) of a unit-scaled bent rule, or raise."""
    if abs(w.values[0] - 1.0) > TOL:
        raise ValidationError("bent closed form expects w(1) = 1")
    c = curvature(w)
    b = 1
    tab = w.table(w.j_max)
    for j in range(1, w.j_max):
        if abs(tab[j + 1] - tab[j] - 1.0) <= TOL:
            b = j + 1
        else:
            break
    for j in range(1, w.j_max + 1):
        if abs(tab[j] - ((1.0 - c) * j + c * min(j, b))) > 1e-9:
            raise ValidationError("rule is not a bent welfare rule")
    return b, c


def poa_closed_form(w: WelfareRule, f: UtilityRule, family: str, *,
                    n: int | None = None, j_max: int | None = None) -> BoundResult:
    """Price of anarchy by the published closed forms.

    family="setcov": n-agent set covering,
        1/poa = 1 + max_{1<=j<=n-1} { j f(j) - f(j+1), (n-1) f(n) }.
    family="bent": bent welfare rule with a nonincreasing f, f(1) = 1,
        1/poa = max_{1<=l<=j} (w(l) + j f(j) - l f(j+1)) / w(j), j up to j_max.
    """
    if family == "setcov":
        _check_setcov(w)
        if n is None or n < 1:
            raise ValidationError("setcov closed form needs the number of agents n")
        if n == 1:
            return BoundResult(1.0, False)
        ft = f.table(n + 1)
        j = np.arange(1, n)
        terms = j * ft[1:n] - ft[2 : n + 1]
        worst = max(float(terms.max()), float((n - 1) * ft[n]))
        return BoundResult(1.0 / (1.0 + worst), False)
    if family == "bent":
        _check_bent(w)
        if not f.is_nonincreasing() or abs(f.values[0] - 1.0) > TOL:
            raise ValidationError("bent closed form needs a nonincreasing f with f(1) = 1")
        jm = j_max if j_max is not None else 200
        wt = w.table(jm)
        ft = f.table(jm + 1)
        best = -np.inf
        best_interior = -np.inf
        for j in range(1, jm + 1):
            l = np.arange(1, j + 1)
            m = float(((wt[l] + j * ft[j] - l * ft[j + 1]) / wt[j]).max())
            if m > best:
                best = m
            if j < jm and m > best_interior:
                best_interior = m
        return BoundResult(1.0 / best, best > best_interior + 1e-12)
    raise ValidationError(f"unknown closed-form family {family!r}")


@dataclass(frozen=True)
class LPInstance:
    """Price-of-anarchy LP in standard form.

    Variables are indexed by (a, x, b) with integers a, x, b >= 0,
    1 <= a+x+b <= n.  Maximize objective . theta subject to
    nash_row . theta >= 0, norm_row . theta = 1, theta >= 0.
    """

    n: int
    variables: tuple[tuple[int, int, int], ...]
    objective: np.ndarray
    nash_row: np.ndarray
    norm_row: np.ndarray
    welfare: WelfareRule
    utility: UtilityRule


@dataclass(frozen=True)
class LPSolution:
    status: str  # optimal | infeasible | unbounded | error
    q: float
    theta: np.ndarray
    residuals: dict
    instance: LPInstance


def build_poa_lp(w: WelfareRule, f: UtilityRule, n: int) -> LPInstance:
    """The n-agent price-of-anarchy LP of the welfare rule w under the utility rule f."""
    if n < 1:
        raise ValidationError("n must be positive")
    variables = []
    obj, nash, norm = [], [], []
    wt = w.table(n)
    ft = f.table(n + 1)
    for a in range(n + 1):
        for x in range(n + 1 - a):
            for b in range(n + 1 - a - x):
                if a + x + b < 1:
                    continue
                variables.append((a, x, b))
                obj.append(wt[b + x])
                nash.append(a * ft[a + x] - b * ft[a + x + 1])
                norm.append(wt[a + x])
    return LPInstance(n, tuple(variables), np.array(obj), np.array(nash), np.array(norm), w, f)


def solve_poa_lp(w: WelfareRule, f: UtilityRule, n: int) -> LPSolution:
    """Solve the n-agent price-of-anarchy LP of w under f to a basic optimal
    solution; an optimum whose residuals exceed 1e-8 raises RuntimeError."""
    # Deferred: scipy.optimize would dominate `import resgames`, and only LP solves need it.
    from scipy.optimize import linprog

    inst = build_poa_lp(w, f, n)
    res = linprog(
        -inst.objective,
        A_ub=-inst.nash_row[None, :],
        b_ub=[0.0],
        A_eq=inst.norm_row[None, :],
        b_eq=[1.0],
        bounds=(0.0, None),
        method="highs-ds",
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, "error")
    theta = res.x if res.x is not None else np.zeros(len(inst.variables))
    residuals = {
        "equality": abs(float(inst.norm_row @ theta) - 1.0),
        "inequality": max(0.0, -float(inst.nash_row @ theta)),
        "nonnegativity": max(0.0, -float(theta.min())) if len(theta) else 0.0,
    }
    q = -float(res.fun) if status == "optimal" else math.nan
    if status == "optimal" and max(residuals.values()) > 1e-8:
        raise RuntimeError(f"LP solution exceeds feasibility tolerance: {residuals}")
    return LPSolution(status, q, theta, residuals, inst)


def poa_lp(w: WelfareRule, f: UtilityRule, n: int) -> float:
    """n-agent price of anarchy 1/Q of w under f from the LP optimum Q."""
    sol = solve_poa_lp(w, f, n)
    if sol.status != "optimal":
        raise RuntimeError(f"price-of-anarchy LP did not solve: {sol.status}")
    return 1.0 / sol.q


def frontier_setcov(q: float, j_trunc: int) -> FrontierPoint:
    """Best one-round efficiency among set-covering rules whose limit-point
    efficiency is q, evaluated by tabulating the equalized-increment rule."""
    f = design_pareto_setcov(q=q, j_max=j_trunc)
    return FrontierPoint(q, one_round_setcov(f, j_trunc))


def _norm_rounds(k) -> float:
    if k in ("one", 1):
        return 1.0
    if k in ("infinity", "inf", math.inf):
        return math.inf
    if isinstance(k, int) and k > 1:
        return float(k)
    raise ValidationError(f"cannot interpret round count {k!r}")


def theory_bounds(c: float, k, design: str) -> float:
    """Worst-case efficiency formulas at curvature c.

    design="optimal": 1 - c/2 for any finite k, 1 - c/e in the limit.
    design="common_interest": 1/(1+c) for every k.
    design="asymptotic_one_round": the one-round value of the limit-optimal
    design, 1 + (c-3)c / ((2-c)e + c).
    """
    if not 0.0 <= c <= 1.0:
        raise ValidationError("curvature must lie in [0, 1]")
    rounds = _norm_rounds(k)
    if design == "optimal":
        return 1.0 - c / E if rounds == math.inf else 1.0 - c / 2.0
    if design == "common_interest":
        return 1.0 / (1.0 + c)
    if design == "asymptotic_one_round":
        if rounds != 1.0:
            raise ValidationError("the asymptotic-design bound is a one-round guarantee")
        return 1.0 + (c - 3.0) * c / ((2.0 - c) * E + c)
    raise ValidationError(f"unknown design {design!r}")
