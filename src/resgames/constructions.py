"""Tight worst-case game instances whose walk behavior realizes the analytic bounds.

Every builder returns the game plus a metadata dict recording the intended
reference allocations and the (post-rounding) target ratio, so measurements
compare against what was actually constructed.  Block sizes that would need
non-integer resource counts are scaled by bounded rationalization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .analytics import LPSolution
from .designs import design_common_interest
from .dynamics import adversarial_min_welfare
from .model import (
    Game,
    Resource,
    UtilityRule,
    ValidationError,
    WelfareRule,
    make_welfare_rule,
    welfare,
)


@dataclass(frozen=True)
class Construction:
    game: Game
    meta: dict


def measured_ratio(con: Construction, k: int = 1) -> float:
    """Worst tie-resolution welfare after k rounds over the reference optimum."""
    worst, _ = adversarial_min_welfare(con.game, k)
    return worst / welfare(con.game, con.meta["optimal_action"])


def build_greedy_trap(eps: float, f_values: Sequence[float] | None = None) -> Construction:
    """Two agents over three set-covering resources valued 1, 1+eps, eps.

    Agent 0 chooses among r1 and r2, agent 1 among r2 and r3; myopic play
    grabs the shared middle resource first and strands agent 0 there.
    """
    if not 0.0 < eps < 1.0:
        raise ValidationError("eps must lie in (0, 1)")
    w = make_welfare_rule("set_covering", 2)
    f = UtilityRule(tuple(f_values), None) if f_values is not None else design_common_interest(w)
    res = [
        Resource("r1", w, f, 1.0),
        Resource("r2", w, f, 1.0 + eps),
        Resource("r3", w, f, eps),
    ]
    actions = (
        (frozenset(), frozenset({"r1"}), frozenset({"r2"})),
        (frozenset(), frozenset({"r2"}), frozenset({"r3"})),
    )
    g = Game(tuple(res), actions)
    meta = {
        "kind": "greedy_trap",
        "eps": eps,
        "optimal_action": (1, 1),
        "optimal_welfare": welfare(g, (1, 1)),
    }
    return Construction(g, meta)


def build_two_agent_worst_case(c: float, f: UtilityRule) -> Construction:
    """Two-agent bend-1 game showing a k-round walk can stop at ratio 1 - c/2.

    The wiring depends on where f(2) falls: below 1-c the bad outcome is a
    plain Nash lock, between 1-c and 1 the walk can idle on a tied Nash state
    and overlap in the last round, and above 1 overlapping is outright
    preferred.  Resource counts follow f(2) rounded to a fraction with
    denominator at most 10**6.
    """
    if not 0.0 <= c <= 1.0:
        raise ValidationError("curvature must lie in [0, 1]")
    f2 = f.eval(2)
    if f2 <= 1.0 - c + 1e-12:
        case = "f2_below_floor"
    elif f2 <= 1.0 + 1e-12:
        case = "f2_moderate"
    else:
        case = "f2_above_one"
    frac = Fraction(f2).limit_denominator(10**6)
    x, r3 = frac.denominator, frac.numerator
    w = make_welfare_rule("bent", 2, b=1, curvature=c)
    res = [Resource(f"a{i}", w, f, 1.0) for i in range(x)]
    res += [Resource(f"b{i}", w, f, 1.0) for i in range(x)]
    res += [Resource(f"c{i}", w, f, 1.0) for i in range(r3)]
    r1_ids = frozenset(f"a{i}" for i in range(x))
    r2_ids = frozenset(f"b{i}" for i in range(x))
    r3_ids = frozenset(f"c{i}" for i in range(r3))
    if case == "f2_above_one":
        actions = (
            (frozenset(), r1_ids, r2_ids),
            (frozenset(), r1_ids, r3_ids),
        )
        optimal = (2, 2)  # r2 + r3
        target = (2.0 - c) * x / (x + r3)
    else:
        actions = (
            (frozenset(), r1_ids, r2_ids),
            (frozenset(), r3_ids, r1_ids),
        )
        optimal = (2, 2)  # r2 + r1
        target = (x + r3) / (2.0 * x) if case == "f2_below_floor" else (2.0 - c) / 2.0
    g = Game(tuple(res), actions)
    meta = {
        "kind": "two_agent_worst_case",
        "case": case,
        "c": c,
        "f2": f2,
        "x": x,
        "r3_count": r3,
        "target_ratio": target,
        "optimal_action": optimal,
        "optimal_welfare": welfare(g, optimal),
    }
    return Construction(g, meta)


def build_common_interest_chain(n: int, c: float) -> Construction:
    """n-agent chain where shared-objective play covers only the handoff resources.

    Each agent's alternative to its cheap private resource is the previous
    agent's handoff resource plus a low-value private one; indifference lets
    the walk stop at welfare n against a reference optimum of (n-1)(1+c)+c.
    """
    if n < 2:
        raise ValidationError("need at least two agents")
    if not 0.0 <= c <= 1.0:
        raise ValidationError("curvature must lie in [0, 1]")
    w = make_welfare_rule("bent", 2, b=1, curvature=c)
    f = design_common_interest(w)
    res = [Resource(f"opt{j}", w, f, c) for j in range(n)]
    res += [Resource(f"mid{j}", w, f, 1.0) for j in range(n - 1)]
    res.append(Resource("end", w, f, 1.0))
    actions = []
    for j in range(n):
        walk = frozenset({f"mid{j}"}) if j < n - 1 else frozenset({"end"})
        opt = {f"opt{j}"}
        if j >= 1:
            opt.add(f"mid{j - 1}")
        actions.append((frozenset(), walk, frozenset(opt)))
    g = Game(tuple(res), tuple(actions))
    optimal = (2,) * n
    meta = {
        "kind": "common_interest_chain",
        "n": n,
        "c": c,
        "target_ratio": n / ((n - 1) * (1.0 + c) + c),
        "walk_welfare": float(n),
        "optimal_action": optimal,
        "optimal_welfare": welfare(g, optimal),
    }
    return Construction(g, meta)


def build_stack_or_spread(n: int, f: UtilityRule, base_size: int) -> Construction:
    """Set-covering game where each agent may pile onto a shared base set or
    claim a private set sized f(i) * base_size, rounded to an integer.

    Ties let a one-round walk stack everyone on the base; the reference
    optimum stacks only the agent with the smallest private set.
    """
    if n < 1:
        raise ValidationError("need at least one agent")
    if base_size < 1:
        raise ValidationError("base_size must be positive")
    counts = [int(round(f.eval(i) * base_size)) for i in range(1, n + 1)]
    w = make_welfare_rule("set_covering", max(n, 1))
    res = [Resource(f"base{t}", w, f, 1.0) for t in range(base_size)]
    for i in range(1, n + 1):
        res += [Resource(f"sp{i}_{t}", w, f, 1.0) for t in range(counts[i - 1])]
    base_ids = frozenset(f"base{t}" for t in range(base_size))
    actions = []
    for i in range(1, n + 1):
        spread = frozenset(f"sp{i}_{t}" for t in range(counts[i - 1]))
        actions.append((frozenset(), base_ids, spread))
    g = Game(tuple(res), tuple(actions))
    stacker = min(range(n), key=lambda i: counts[i])
    optimal = tuple(1 if i == stacker else 2 for i in range(n))
    ft = [f.eval(i) for i in range(1, n + 1)]
    meta = {
        "kind": "stack_or_spread",
        "n": n,
        "base_size": base_size,
        "spread_counts": tuple(counts),
        "target_ratio": base_size / (base_size + sum(counts) - min(counts)) if n > 1 else 1.0,
        "ideal_ratio": 1.0 / (1.0 + sum(ft) - min(ft)) if n > 1 else 1.0,
        "optimal_action": optimal,
        "optimal_welfare": welfare(g, optimal),
    }
    return Construction(g, meta)


def build_poa_witness(sol: LPSolution, n2: int) -> Construction:
    """Game realizing the price-of-anarchy LP optimum along a one-round walk.

    For each LP variable (a, x, b) with positive weight, lays out D
    consecutive blocks of resources; agent i's bad allocation covers blocks
    [i, i+a+x-1] and its reference-optimal allocation covers [i-b, i+x-1]
    (agents too early for a full window skip that variable).  Block sizes are
    proportional to theta with one common D = n2 + max(a+x) - 1, which keeps
    the LP's constraint aligned with every agent's deviation margin.  Weights
    up to 1e-9 are dropped and the rest rounded to denominators up to 10**6.
    """
    if sol.status != "optimal":
        raise ValidationError("need an optimal LP solution")
    inst = sol.instance
    if n2 <= inst.n:
        raise ValidationError("n2 must exceed the LP's agent count")
    active = [
        (v, float(t))
        for v, t in zip(inst.variables, sol.theta)
        if t > 1e-9
    ]
    if not active:
        raise ValidationError("LP solution has no active variables")
    d_span = n2 + max(a + x for (a, x, b), _ in active) - 1
    fracs = [Fraction(t).limit_denominator(10**6) for _, t in active]
    scale = math.lcm(*(fr.denominator for fr in fracs))
    block_counts = [int(fr * scale) for fr in fracs]
    max_sel = max((a + x) + (b + x) for (a, x, b), _ in active)
    w = inst.welfare
    if w.j_max < max_sel:
        w = WelfareRule(tuple(w.table(max_sel)[1:]), w.tail_slope, w.label)

    res = []
    block_ids: list[list[frozenset[str]]] = []
    for vi, count in enumerate(block_counts):
        per_var = []
        for k in range(1, d_span + 1):
            ids = [f"v{vi}k{k}n{t}" for t in range(count)]
            res += [Resource(rid, w, inst.utility, 1.0) for rid in ids]
            per_var.append(frozenset(ids))
        block_ids.append(per_var)

    def window(lo: int, hi: int, blocks: list[frozenset[str]]) -> set[str]:
        out: set[str] = set()
        for k in range(max(1, lo), min(d_span, hi) + 1):
            out |= blocks[k - 1]
        return out

    actions = []
    for i in range(1, n2 + 1):
        ne: set[str] = set()
        opt: set[str] = set()
        for vi, ((a, x, b), _) in enumerate(active):
            if a + x >= 1:
                ne |= window(i, i + a + x - 1, block_ids[vi])
            if i >= a + b + x and b + x >= 1:
                opt |= window(i - b, i + x - 1, block_ids[vi])
        actions.append((frozenset(), frozenset(ne), frozenset(opt)))
    g = Game(tuple(res), tuple(actions))
    nash = (1,) * n2
    optimal = (2,) * n2
    meta = {
        "kind": "poa_witness",
        "n1": inst.n,
        "n2": n2,
        "q": sol.q,
        "poa": 1.0 / sol.q,
        "d_span": d_span,
        "scale": scale,
        "block_counts": tuple(block_counts),
        "max_width": max(max(a + x, b + x) for (a, x, b), _ in active),
        "nash_action": nash,
        "optimal_action": optimal,
        "nash_welfare": welfare(g, nash),
        "optimal_welfare": welfare(g, optimal),
    }
    return Construction(g, meta)
