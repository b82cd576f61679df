import math
from collections import deque

import numpy as np
import pytest

from resgames import Game, Resource, UtilityRule, WelfareRule, build_poa_lp, utility_mc, welfare
from resgames.analytics import BoundResult, LPSolution
from resgames.model import TOL, _require


def random_game(rng: np.random.Generator, max_players=4, max_actions=4, max_resources=6) -> Game:
    """Small random game with valid concave welfare and nonincreasing utility rules."""
    n_players = int(rng.integers(2, max_players + 1))
    n_res = int(rng.integers(1, max_resources + 1))
    resources = []
    for r in range(n_res):
        diffs = np.sort(rng.random(n_players) + 1e-3)[::-1]
        values = np.cumsum(diffs)
        tail = float(rng.random() * diffs[-1])
        w = WelfareRule(tuple(values), tail)
        fvals = np.concatenate([[values[0]], values[0] * np.sort(rng.random(n_players - 1))[::-1]])
        f = UtilityRule(tuple(fvals), float(fvals[-1] * rng.random()))
        resources.append(Resource(f"r{r}", w, f, float(rng.random() + 0.05)))
    actions = []
    for _ in range(n_players):
        acts = [frozenset()]
        for _ in range(int(rng.integers(1, max_actions))):
            mask = rng.random(n_res) < 0.4
            if not mask.any():
                mask[int(rng.integers(0, n_res))] = True
            acts.append(frozenset(f"r{k}" for k in np.flatnonzero(mask)))
        actions.append(tuple(acts))
    return Game(tuple(resources), tuple(actions))


def brute_force_optimum(g: Game, *, chunk: int = 1 << 18) -> tuple[tuple[int, ...], float]:
    """Reference optimum: every joint action scored in flat order (last player
    fastest), the first maximum kept."""
    sizes = [len(acts) for acts in g.actions]
    total = math.prod(sizes)
    n_res = g.n_resources
    onehot = []
    for acts in g.action_resources:
        m = np.zeros((len(acts), n_res), dtype=np.int16)
        for k, res in enumerate(acts):
            for r in res:
                m[k, r] += 1
        onehot.append(m)
    wtab_t = g.welfare_tables.T  # (max(max_selectors) + 2, n_res)
    cols = np.arange(n_res)
    best_w = -np.inf
    best_flat = 0
    for start in range(0, total, chunk):
        flat = np.arange(start, min(start + chunk, total), dtype=np.int64)
        counts = np.zeros((len(flat), n_res), dtype=np.int16)
        rem = flat
        for i in reversed(range(g.n_players)):
            idx = rem % sizes[i]
            rem = rem // sizes[i]
            counts += onehot[i][idx]
        w = wtab_t[counts, cols].sum(axis=1)
        k = int(np.argmax(w))
        if w[k] > best_w:
            best_w = float(w[k])
            best_flat = int(flat[k])
    joint = []
    rem = best_flat
    for i in reversed(range(g.n_players)):
        joint.append(rem % sizes[i])
        rem //= sizes[i]
    return tuple(reversed(joint)), best_w


def mc_argmaxes(g: Game, joint: tuple[int, ...], i: int) -> list[int]:
    """Reference best responses: the actions b of player i whose utility_mc,
    scored on the whole joint with i moved to b, is within TOL of the best."""
    utils = [utility_mc(g, joint[:i] + (b,) + joint[i + 1:], i) for b in range(len(g.actions[i]))]
    top = max(utils)
    return [b for b, u in enumerate(utils) if top - u <= TOL]


def brute_tie_paths(g: Game, schedule, joint=None) -> tuple[float, tuple[int, ...]]:
    """Reference adversarial minimum: the least final welfare over every
    resolution of every best-response tie (:func:`mc_argmaxes`) along
    ``schedule``, from the null allocation, found by plain recursion, and the
    actions of the first tie path in tie order that ends at it."""
    joint = g.null_action if joint is None else joint
    if not schedule:
        return welfare(g, joint), ()
    i = schedule[0]
    best = None
    for b in mc_argmaxes(g, joint, i):
        value, rest = brute_tie_paths(g, schedule[1:], joint[:i] + (b,) + joint[i + 1:])
        if best is None or value < best[0]:
            best = (value, (b, *rest))
    return best


def bfs_reachable_nash(g: Game) -> tuple[float, set[tuple[int, ...]]]:
    """Reference limit route: breadth-first search over (mover, joint) from
    (0, null allocation).  The mover may take any action of
    :func:`mc_argmaxes`; a joint is Nash when every player's action is among
    its own.  Returns the least welfare over the reachable Nash joints, and
    those joints."""
    start = (0, g.null_action)
    seen, queue, nash = {start}, deque([start]), set()
    while queue:
        pos, joint = queue.popleft()
        if all(joint[i] in mc_argmaxes(g, joint, i) for i in range(g.n_players)):
            nash.add(joint)
        for b in mc_argmaxes(g, joint, pos):
            state = ((pos + 1) % g.n_players, joint[:pos] + (b,) + joint[pos + 1:])
            if state not in seen:
                seen.add(state)
                queue.append(state)
    return min(welfare(g, a) for a in nash), nash


def loop_welfare_check(values, tail_slope, label="explicit") -> tuple[float, ...]:
    """Reference check of a welfare rule, one element at a time: the float
    values it accepts, or the :class:`ValidationError` it raises."""
    values = tuple(float(v) for v in values)
    tail_slope = float(tail_slope)
    _require(len(values) >= 1, "welfare rule needs at least w(1)")
    _require(all(v > 0.0 for v in values), "welfare values must be strictly positive")
    last_diff = values[0]  # w(1) - w(0)
    for lo, hi in zip(values, values[1:]):
        d = hi - lo
        _require(d >= -TOL, f"welfare rule {label!r} must be nondecreasing")
        _require(d <= last_diff + TOL, f"welfare rule {label!r} must have concave increments")
        last_diff = d
    _require(tail_slope >= -TOL, "tail slope must be nonnegative")
    _require(tail_slope <= last_diff + TOL, "tail slope must not exceed the last increment")
    return values


def loop_utility_check(values, tail_value=None) -> tuple[tuple[float, ...], float]:
    """Reference check of a utility rule, one element at a time: the float
    values and tail it accepts, or the :class:`ValidationError` it raises."""
    values = tuple(float(v) for v in values)
    _require(len(values) >= 1, "utility rule needs at least f(1)")
    _require(all(-TOL <= v < math.inf for v in values), "utility values must be finite and nonnegative")
    tail = values[-1] if tail_value is None else float(tail_value)
    _require(-TOL <= tail < math.inf, "tail value must be finite and nonnegative")
    return values, tail


def loop_is_nonincreasing(values: tuple[float, ...], tail_value: float) -> bool:
    seq = values + (tail_value,)
    return all(hi <= lo + TOL for lo, hi in zip(seq, seq[1:]))


def loop_poa_lp(w: WelfareRule, f: UtilityRule, n: int):
    """Reference price-of-anarchy LP rows, built one (a, x, b) at a time:
    (variables, a, x, b, objective, nash_row, norm_row), the indices as
    arrays of numpy's default integer."""
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
    a, x, b = (np.array(col, dtype=np.int_) for col in zip(*variables))
    return tuple(variables), a, x, b, np.array(obj), np.array(nash), np.array(norm)


def loop_decay_tail(j: np.ndarray, b: float, coef) -> np.ndarray:
    """Reference tail series sum_{m>=1} coef(j-1+m) * prod_{i=1..m} b/(j-1+i),
    one term at a time: it stops after the first term m > 4 whose entries are
    all below 1e-18 in magnitude, and raises after term 5001 otherwise."""
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


def loop_one_round_bound(w: WelfareRule, f: UtilityRule, y_max: int) -> BoundResult:
    """Reference one-round bound, scored one y row at a time: the maximum over
    every (y, z) and the maximum off row y = y_max and column z = y_max."""
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


def loop_bent_closed_form(w: WelfareRule, f: UtilityRule, j_max: int) -> BoundResult:
    """Reference bent closed form, scored one j row at a time: the maximum over
    l <= j at every j, and whether only row j = j_max reaches the largest."""
    wt = w.table(j_max)
    ft = f.table(j_max + 1)
    m = [float(((wt[1 : j + 1] + j * ft[j] - np.arange(1, j + 1) * ft[j + 1]) / wt[j]).max())
         for j in range(1, j_max + 1)]  # m[j-1]: the max over l at j
    best = max(m)
    return BoundResult(1.0 / best, best > max(m[:-1], default=-np.inf) + 1e-12)


def highs_poa_lp(w: WelfareRule, f: UtilityRule, n: int) -> tuple[LPSolution, float]:
    """Reference solve of the n-agent price-of-anarchy LP by HiGHS's dual
    simplex, to a basic optimal solution; an optimum whose residuals exceed
    1e-8 raises RuntimeError.

    HiGHS solves the equivalent LP whose Nash row is divided by its largest
    magnitude (1.0 when that is 0), so a rule of tiny f still has unit-scale
    coefficients, at primal and dual feasibility tolerances of 1e-10.

    Also returns the upper bound on the optimum that HiGHS's dual certifies
    (nan unless optimal).  HiGHS stops within its feasibility tolerances, so
    its q can sit below the optimum (a dual slightly infeasible, bound > q)
    or above it (a Nash row slightly violated, bound < q) by more than
    rounding."""
    from scipy.optimize import linprog

    inst = build_poa_lp(w, f, n)
    scale = float(np.abs(inst.nash_row).max()) or 1.0
    res = linprog(
        -inst.objective,
        A_ub=-inst.nash_row[None, :] / scale,
        b_ub=[0.0],
        A_eq=inst.norm_row[None, :],
        b_eq=[1.0],
        bounds=(0.0, None),
        method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
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
    bound = math.nan
    if status == "optimal":  # any lam >= max_b w(b) / (b f(1)) is dual feasible
        c, h, d = inst.objective, inst.nash_row, inst.norm_row
        lam = max(-float(res.ineqlin.marginals[0]) / scale, float((c[d == 0] / -h[d == 0]).max()))
        bound = float(((c[d > 0] + lam * h[d > 0]) / d[d > 0]).max())
    return LPSolution(status, q, theta, residuals, inst), bound


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
