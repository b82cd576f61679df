"""Tight worst-case game instances whose walk behavior realizes the analytic bounds.

Every builder returns the game plus a metadata dict recording the intended
reference allocations and the target ratio.  Every action selects whole
blocks, and welfare sums v_r * w(count_r), so a block of real weight t is one
resource of value t: the measured ratios match their formulas exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
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
    _integer,
    _real,
    _require_size,
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
    if not (_real(eps) and 0.0 < eps < 1.0):
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
    preferred.  Resources r1 and r2 are worth 1 and r3 is worth f(2), so the
    tie between r3 alone and a shared r1 is exact.
    """
    w = make_welfare_rule("bent", 2, b=1, curvature=c)
    f2 = f.eval(2)
    if f2 <= 1.0 - c + 1e-12:
        case = "f2_below_floor"
    elif f2 <= 1.0 + 1e-12:
        case = "f2_moderate"
    else:
        case = "f2_above_one"
    # f(2) in [-TOL, 0) is a valid rule but not a valid resource value
    values = {"r1": 1.0, "r2": 1.0, "r3": max(f2, 0.0)}
    res = [Resource(rid, w, f, v) for rid, v in values.items()]
    r1, r2, r3 = (frozenset({rid}) for rid in values)
    optimal = (2, 2)  # r2 with r3 when f(2) > 1, else r2 with r1
    if case == "f2_above_one":
        actions = ((frozenset(), r1, r2), (frozenset(), r1, r3))
        target = (2.0 - c) / (1.0 + f2)
    else:
        actions = ((frozenset(), r1, r2), (frozenset(), r3, r1))
        target = (1.0 + f2) / 2.0 if case == "f2_below_floor" else (2.0 - c) / 2.0
    g = Game(tuple(res), actions)
    meta = {
        "kind": "two_agent_worst_case",
        "case": case,
        "c": c,
        "f2": f2,
        "target_ratio": target,
        "optimal_action": optimal,
        "optimal_welfare": welfare(g, optimal),
    }
    return Construction(g, meta)


def build_common_interest_chain(n: int, c: float) -> Construction:
    """n-agent chain where shared-objective play covers only the handoff resources.

    Each agent's alternative to its cheap private resource is the previous
    agent's handoff resource plus a low-value private one; indifference lets
    the walk stop at welfare n against the reference allocation (2,)*n of
    welfare (n-1)(1+c)+c.  The reference is the exact optimum only for
    c >= 1/2; below that the optimum is larger, so ``measured_ratio`` gives
    walk/reference there, not efficiency.
    """
    if not (_integer(n) and n >= 2):
        raise ValidationError("need at least two agents")
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


def build_stack_or_spread(n: int, f: UtilityRule) -> Construction:
    """Set-covering game where each agent i may pile onto a shared base worth 1
    or claim a private resource worth f(i).

    Ties let a one-round walk stack everyone on the base; the reference
    optimum stacks only the agent with the smallest private resource.
    """
    if not (_integer(n) and n >= 1):
        raise ValidationError("need at least one agent")
    w = make_welfare_rule("set_covering", n)  # refuses an n past the table ceiling before the spread list
    spread = [max(f.eval(i), 0.0) for i in range(1, n + 1)]
    res = [Resource("base", w, f, 1.0)]
    res += [Resource(f"sp{i}", w, f, v) for i, v in enumerate(spread, 1)]
    actions = tuple((frozenset(), frozenset({"base"}), frozenset({f"sp{i}"})) for i in range(1, n + 1))
    g = Game(tuple(res), actions)
    stacker = min(range(n), key=lambda i: spread[i])
    optimal = tuple(1 if i == stacker else 2 for i in range(n))
    meta = {
        "kind": "stack_or_spread",
        "n": n,
        "target_ratio": 1.0 / (1.0 + sum(spread) - min(spread)),
        "optimal_action": optimal,
        "optimal_welfare": welfare(g, optimal),
    }
    return Construction(g, meta)


def build_poa_witness(sol: LPSolution, n2: int) -> Construction:
    """Game realizing the price-of-anarchy LP optimum along a one-round walk.

    For each LP variable (a, x, b) with weight theta above 1e-9, lays out D
    consecutive resources worth theta; agent i's bad allocation covers
    positions [i, i+a+x-1] and its reference-optimal allocation covers
    [i-b, i+x-1] (agents too early for a full window skip that variable).
    One common D = n2 + max(a+x) - 1 keeps the LP's constraint aligned with
    every agent's deviation margin.  The game has one resource per active
    variable and position.
    """
    if sol.status != "optimal":
        raise ValidationError("need an optimal LP solution")
    inst = sol.instance
    _require_size(n2, "n2")
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
    max_sel = max((a + x) + (b + x) for (a, x, b), _ in active)
    w = inst.welfare
    if w.j_max < max_sel:
        w = WelfareRule(tuple(w.table(max_sel)[1:]), w.tail_slope, w.label)
    res = [Resource(f"v{vi}k{k}", w, inst.utility, theta)
           for vi, (_, theta) in enumerate(active) for k in range(1, d_span + 1)]

    def window(vi: int, lo: int, hi: int) -> set[str]:
        return {f"v{vi}k{k}" for k in range(max(1, lo), min(d_span, hi) + 1)}

    actions = []
    for i in range(1, n2 + 1):
        ne: set[str] = set()
        opt: set[str] = set()
        for vi, ((a, x, b), _) in enumerate(active):  # an empty window adds nothing
            ne |= window(vi, i, i + a + x - 1)
            if i >= a + b + x:
                opt |= window(vi, i - b, i + x - 1)
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
        "max_width": max(max(a + x, b + x) for (a, x, b), _ in active),
        "nash_action": nash,
        "optimal_action": optimal,
        "nash_welfare": welfare(g, nash),
        "optimal_welfare": welfare(g, optimal),
    }
    return Construction(g, meta)
