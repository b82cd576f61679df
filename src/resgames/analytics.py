"""Closed-form and LP-based efficiency computation.

All "max over every j" closed forms are truncated at a caller-supplied index
bound; results report whether the maximizer sat strictly on that boundary, in
which case the value may be an under-estimate of the true supremum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import model
from .model import (TOL, UtilityRule, ValidationError, WelfareRule, _check_first_values, _integer, _real,
                    _require, _require_length, _require_size, curvature, make_welfare_rule)
from .designs import pareto_setcov_values

E = math.e


class BoundResult(NamedTuple):
    value: float
    truncated: bool


class FrontierPoint(NamedTuple):
    q: float
    one_round: float


def _grid_bound(rows: int, width: int, score) -> BoundResult:
    """1/M for M the maximum of a grid of rows 1..rows, ``score(lo, hi)``
    giving rows lo..hi-1, each of at most ``width`` entries.  The grid is
    scored in blocks of at most ``model._ENTRIES`` entries (one row when a row
    is longer), so memory stays O(width), and only maxima are taken, so the
    result does not depend on the block size.  ``truncated`` reports an M
    above, by more than 1e-12, every entry off the last row and column."""
    step = max(1, model._ENTRIES // width)
    best = best_interior = -np.inf
    for lo in range(1, rows + 1, step):
        vals = score(lo, min(lo + step, rows + 1))
        best = max(best, float(vals.max()))
        inner = vals[: rows - lo, : width - 1]
        if inner.size:
            best_interior = max(best_interior, float(inner.max()))
    return BoundResult(1.0 / best, best > best_interior + 1e-12)


def one_round_bound(w: WelfareRule, f: UtilityRule, y_max: int = 50) -> BoundResult:
    """One-round walk efficiency guarantee for a single welfare/utility pair.

    Evaluates [max_{1<=y<=y_max, 0<=z<=y_max}
               (sum_{i<=y} f(i) - z min_{i<=y+1} f(i) + w(z)) / w(y)]^-1.
    ``truncated`` reports a maximizer that strictly dominates only on the
    y_max/z_max boundary, i.e. a larger index bound could change the value.

    The (y, z) grid is scored in blocks of y rows by :func:`_grid_bound`,
    so memory stays O(y_max) while a full grid would take O(y_max^2).

    Precondition: f(1) = w(1), the scale at which a design fixes f.  Scaling
    f leaves best responses unchanged but moves this value, so an f at any
    other scale raises :class:`ValidationError`.
    """
    _require_length(y_max, "y_max")
    _check_first_values(w, f, "one_round_bound")
    wt = w.table(y_max)
    ft = f.table(y_max + 1)
    pref = np.cumsum(ft)
    runmin = np.minimum.accumulate(np.where(np.arange(y_max + 2) == 0, np.inf, ft))
    z = np.arange(y_max + 1)

    def score(lo, hi):
        y = np.arange(lo, hi)[:, None]
        return (pref[y] - z * runmin[y + 1] + wt) / wt[y]
    return _grid_bound(y_max, y_max + 1, score)


def one_round_setcov(f: UtilityRule, j_trunc: int) -> float:
    """One-round efficiency for the set-covering rule:
    [sum_{i<=j_trunc} f(i) - min_{i<=j_trunc} f(i) + 1]^-1.

    The truncated sum under-counts a divergent series, so the value is
    nonincreasing in ``j_trunc`` and an upper bound on the true guarantee.
    f(1) must be 1, the set-covering w(1), the scale this guarantee reads.
    """
    _require_length(j_trunc, "j_trunc")
    if abs(f.values[0] - 1.0) > TOL:
        raise ValidationError("one_round_setcov: f(1) must equal w(1) = 1")
    return _setcov_one_round(f.table(j_trunc)[1:])


def _setcov_one_round(ft: np.ndarray) -> float:
    """[sum ft - min ft + 1]^-1 of the values ft = f(1..j_trunc)."""
    return float(1.0 / (ft.sum() - ft.min() + 1.0))


def _check_setcov(w: WelfareRule) -> None:
    if any(abs(v - 1.0) > TOL for v in w.values) or abs(w.tail_slope) > TOL:
        raise ValidationError("rule is not the set-covering welfare rule")


def _check_bent(w: WelfareRule) -> None:
    """Raise unless w is the unit-scaled bent rule of its leading unit increments and curvature."""
    if abs(w.values[0] - 1.0) > TOL:
        raise ValidationError("bent closed form expects w(1) = 1")
    tab = w.table(w.j_max)
    b = 1
    while b < w.j_max and abs(tab[b + 1] - tab[b] - 1.0) <= TOL:
        b += 1
    bent = make_welfare_rule("bent", w.j_max, b=b, curvature=min(max(curvature(w), 0.0), 1.0))
    if np.abs(tab - bent.table(w.j_max)).max() > 1e-9:
        raise ValidationError("rule is not a bent welfare rule")


def poa_closed_form(w: WelfareRule, f: UtilityRule, family: str, *,
                    n: int | None = None, j_max: int | None = None) -> BoundResult:
    """Price of anarchy by the published closed forms.

    family="setcov": n-agent set covering,
        1/poa = 1 + max_{1<=j<=n-1} { j f(j) - f(j+1), (n-1) f(n) }.
    family="bent": bent welfare rule with a nonincreasing f, f(1) = 1,
        1/poa = max_{1<=l<=j} (w(l) + j f(j) - l f(j+1)) / w(j), j up to j_max,
        scored in blocks of j rows by :func:`_grid_bound`, so memory stays
        O(j_max); ``truncated`` reports a maximum only at j = j_max, the one
        row that reaches the last column l = j_max.

    Both read f at f(1) = w(1) and raise :class:`ValidationError` otherwise.
    """
    if family == "setcov":
        _check_setcov(w)
        _check_first_values(w, f, "poa_closed_form")
        _require(n is not None, "setcov closed form needs the number of agents n")
        _require_length(n, "n")
        if n == 1:
            return BoundResult(1.0, False)
        ft = f.table(n + 1)
        j = np.arange(1, n)
        terms = j * ft[1:n] - ft[2 : n + 1]
        worst = max(float(terms.max()), float((n - 1) * ft[n]))
        return BoundResult(1.0 / (1.0 + worst), False)
    if family == "bent":
        _check_bent(w)
        _check_first_values(w, f, "poa_closed_form")
        if not f.is_nonincreasing():
            raise ValidationError("bent closed form needs a nonincreasing f with f(1) = 1")
        jm = j_max if j_max is not None else 200
        _require_length(jm, "j_max")
        wt = w.table(jm)
        ft = f.table(jm + 1)

        def score(lo, hi):
            j, l = np.arange(lo, hi)[:, None], np.arange(1, hi)
            return np.where(l <= j, (wt[1:hi] + j * ft[j] - l * ft[j + 1]) / wt[j], -np.inf)
        return _grid_bound(jm, jm, score)
    raise ValidationError(f"no closed form for family {family!r}; setcov and bent have one")


@dataclass(frozen=True)
class LPInstance:
    """Price-of-anarchy LP in standard form.

    Column j is the variable (a[j], x[j], b[j]) with integers a, x, b >= 0,
    1 <= a+x+b <= n, ordered by a, then x, then b.  Maximize objective . theta
    subject to nash_row . theta >= 0, norm_row . theta = 1, theta >= 0.
    """

    n: int
    a: np.ndarray
    x: np.ndarray
    b: np.ndarray
    objective: np.ndarray
    nash_row: np.ndarray
    norm_row: np.ndarray
    welfare: WelfareRule
    utility: UtilityRule

    @cached_property
    def variables(self) -> tuple[tuple[int, int, int], ...]:
        """The (a, x, b) of every column as int triples, built on first read."""
        return tuple(zip(self.a.tolist(), self.x.tolist(), self.b.tolist()))


@dataclass(frozen=True)
class LPSolution:
    status: str  # optimal | unbounded
    q: float
    theta: np.ndarray
    residuals: dict
    instance: LPInstance


def _lp_columns(n: int) -> int:
    """The number of columns of the n-agent LP, C(n+3, 3) - 1; more than
    ``model._CEILING`` of them (n >= 390) raises :class:`ValidationError`."""
    _require_size(n, "n")
    columns = (n + 1) * (n + 2) * (n + 3) // 6 - 1
    _require(columns <= model._CEILING,
             f"the {n}-agent LP has {columns} columns, more than the {model._CEILING} it may build")
    return columns


def build_poa_lp(w: WelfareRule, f: UtilityRule, n: int) -> LPInstance:
    """The n-agent price-of-anarchy LP of the welfare rule w under the utility rule f.

    The columns are enumerated directly, in O(columns) time and memory: each
    pair (a, x) with a + x <= n, in order, repeated over its b range, which
    starts at 1 when a + x = 0.  An LP of more than ``model._CEILING``
    columns (n >= 390) raises :class:`ValidationError` before anything is
    allocated.
    """
    columns = _lp_columns(n)
    wt = w.table(n)
    ft = f.table(n + 1)
    xs = np.arange(n + 1, 0, -1)  # how many x each a takes
    a = np.repeat(np.arange(n + 1), xs)
    s = a + np.arange(len(a)) - np.repeat(np.cumsum(xs) - xs, xs)  # a + x of each pair
    bs = n + 1 - s  # how many b each pair takes, from b = 1 when a + x = 0
    bs[0] = n
    b = np.arange(columns) - np.repeat(np.cumsum(bs) - bs - (s == 0), bs)
    a, s = np.repeat(a, bs), np.repeat(s, bs)
    x = s - a
    nash = ft[s]
    nash *= a
    nash -= b * ft[1:][s]  # a f(a+x) - b f(a+x+1)
    return LPInstance(n, a, x, b, wt[b + x], nash, wt[s], w, f)


def _optimal_pair(c: np.ndarray, h: np.ndarray, d: np.ndarray, m: int, lam: float) -> tuple[int, int]:
    """Columns (p, m), h[p] >= 0 > h[m], of an optimal basis of
    max c.theta s.t. h.theta >= 0, d.theta = 1, theta >= 0, where h < 0
    wherever d = 0, from lam = lam_min and its column m with d = 0.

    In the dual, column j is the line (c_j + lam h_j) / d_j, or for d_j = 0 the
    bound lam >= c_j / -h_j, and Q is the least height of their upper envelope
    at some lam >= lam_min.  While the highest falling line at lam lies above
    every rising one there, move lam right to where that falling line first
    meets a rising line; lam only grows, and each falling line is taken once.
    """
    rise = np.flatnonzero(h >= 0.0)
    fall = np.flatnonzero((h < 0.0) & (d > 0.0))
    cr, hr, dr = c[rise], h[rise], d[rise]
    cf, hf, df = c[fall], h[fall], d[fall]
    p = rise[np.argmax((cr + lam * hr) / dr)]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while len(fall):
            top = (cf + lam * hf) / df
            k = int(np.argmax(top))
            if top[k] <= (c[p] + lam * h[p]) / d[p]:
                break
            m = fall[k]
            den = hr * d[m] - h[m] * dr
            cross = np.where(den > 0.0, (c[m] * dr - cr * d[m]) / den, np.inf)
            j = int(np.argmin(cross))
            p = rise[j]
            if not cross[j] > lam:  # no room left to move in floating point
                break
            lam = float(cross[j])
    return int(p), int(m)


def solve_poa_lp(w: WelfareRule, f: UtilityRule, n: int) -> LPSolution:
    """Solve the n-agent price-of-anarchy LP of w under f exactly, to a basic
    optimal solution with at most two nonzero columns.

    With c the objective, h the Nash row and d the normalisation row, LP
    duality gives Q = min over lam >= lam_min of max_j (c_j + lam h_j) / d_j
    over the columns with d_j > 0; the columns (0, 0, b), where d = 0, give
    lam_min = max_b w(b) / (b f(1)).  The status is "unbounded" when
    f(1) <= TOL w(1), a verdict that scaling w and f together leaves alone.
    An optimum whose residuals exceed 1e-8, or whose dual value at the
    basis's lam differs from q by more than 1e-12 max(1, q), raises
    RuntimeError.
    """
    inst = build_poa_lp(w, f, n)
    c, h, d = inst.objective, inst.nash_row, inst.norm_row
    theta = np.zeros(len(c))
    if f.eval(1) <= TOL * w.eval(1):
        status, q, gap = "unbounded", math.nan, 0.0
    else:
        vert = np.flatnonzero(d == 0.0)
        bound = c[vert] / -h[vert]
        p, m = _optimal_pair(c, h, d, int(vert[np.argmax(bound)]), float(bound.max()))
        den = h[p] * d[m] - h[m] * d[p]
        theta[p] = -h[m] / den
        theta[m] = h[p] / den
        status, q = "optimal", float(c @ theta)
        lam = max((c[m] * d[p] - c[p] * d[m]) / den, bound.max())
        pos = d > 0.0
        gap = abs(float(((c[pos] + lam * h[pos]) / d[pos]).max()) - q)
    residuals = {
        "equality": abs(float(d @ theta) - 1.0),
        "inequality": max(0.0, -float(h @ theta)),
        "nonnegativity": max(0.0, -float(theta.min())),
    }
    if status == "optimal" and max(residuals.values()) > 1e-8:
        raise RuntimeError(f"LP solution exceeds feasibility tolerance: {residuals}")
    if gap > 1e-12 * max(1.0, q):
        raise RuntimeError(f"LP duality gap {gap!r} at q = {q!r}")
    return LPSolution(status, q, theta, residuals, inst)


def poa_lp(w: WelfareRule, f: UtilityRule, n: int) -> float:
    """n-agent price of anarchy 1/Q of w under f; a degenerate LP is a ValidationError."""
    sol = solve_poa_lp(w, f, n)
    if sol.status != "optimal":
        raise ValidationError(f"price-of-anarchy LP did not solve: {sol.status}")
    return 1.0 / sol.q


def frontier_setcov(q: float, j_trunc: int) -> FrontierPoint:
    """Best one-round efficiency among set-covering rules whose limit-point
    efficiency is q, scored on the equalized-increment rule's values."""
    return FrontierPoint(q, _setcov_one_round(pareto_setcov_values(q=q, j_max=j_trunc)))


def _norm_rounds(k) -> float:
    if k == "one":
        return 1.0
    if k in ("infinity", "inf", math.inf):
        return math.inf
    if _integer(k) and k >= 1:
        return float(k)
    raise ValidationError(f"cannot interpret round count {k!r}")


def theory_bounds(c: float, k, design: str) -> float:
    """Worst-case efficiency formulas at curvature c.

    design="optimal": 1 - c/2 for any finite k, 1 - c/e in the limit.
    design="common_interest": 1/(1+c) for every k.
    design="asymptotic_one_round": 1 + (c-3)c / ((2-c)e + c), the one-round
    guarantee of the limit-optimal design when at most two players share a
    resource (``one_round_bound`` at y_max = 2).  It is an upper bound on the
    general guarantee, which lies below it at every c > 0 (the bound at
    y_max = 3 is already lower).
    """
    if not (_real(c) and 0.0 <= c <= 1.0):
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
