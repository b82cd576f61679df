"""The paper's efficiency guarantees as properties over random bend-1 games.

Each bound is a theorem for its design, so a game below it is a defect in the
code or in the bound's preconditions, never a tolerance to widen.
"""
import math

from hypothesis import example, given, settings, strategies as st

from resgames import (
    DesignSpec,
    Game,
    Resource,
    adversarial_min_welfare,
    apply_design,
    build_common_interest_chain,
    build_two_agent_worst_case,
    design_common_interest,
    design_one_round,
    make_welfare_rule,
    optimum,
    reachable_nash_min,
)

CURVATURES = [0.25, 0.5, 0.75, 1.0]
VALUES = [0.25, 0.5, 1.0, 1.5, 2.0]


@st.composite
def designed_bend_one_games(draw) -> tuple[str, float, Game]:
    """(design, C, game): two to four players over one to six resources of
    one bend-1 rule at curvature C, with one or two resources per action,
    under the one-round, common-interest or asymptotic design."""
    n = draw(st.integers(2, 4))
    c = draw(st.sampled_from(CURVATURES))
    design = draw(st.sampled_from(["one_round", "common_interest", "asymptotic"]))
    w = make_welfare_rule("bent", n, b=1, curvature=c)
    f = design_common_interest(w)
    values = draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=6))
    rids = [f"r{r}" for r in range(len(values))]
    resources = tuple(Resource(rid, w, f, v) for rid, v in zip(rids, values))
    action = st.frozensets(st.sampled_from(rids), min_size=1, max_size=2)
    actions = tuple(tuple(draw(st.lists(action, min_size=1, max_size=3, unique=True))) for _ in range(n))
    return design, c, apply_design(Game(resources, actions), DesignSpec(design, c=c))


@settings(max_examples=250, deadline=None)
@given(designed_bend_one_games())
# the two-agent worst cases meet 1 - C/2 with no margin; the chain nears 1/(1+C) as it grows
@example(("one_round", 0.5, build_two_agent_worst_case(0.5, design_one_round(0.5)).game))
@example(("one_round", 1.0, build_two_agent_worst_case(1.0, design_one_round(1.0)).game))
@example(("common_interest", 0.5, build_common_interest_chain(3, 0.5).game))
def test_worst_walks_meet_the_papers_guarantees(case):
    design, c, g = case
    if design == "one_round":
        checks = [(adversarial_min_welfare(g, 1)[0], 1.0 - c / 2.0)]
    elif design == "common_interest":  # the potential is the welfare
        worst = [adversarial_min_welfare(g, k)[0] for k in (1, 2, 3)] + [reachable_nash_min(g)[0]]
        checks = [(w, 1.0 / (1.0 + c)) for w in worst]
    else:
        checks = [(reachable_nash_min(g)[0], 1.0 - c / math.e)]
    opt = optimum(g)[1]
    for w, bound in checks:
        assert w / opt >= bound - 1e-9
