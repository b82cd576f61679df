import inspect
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from resgames import (
    ADVERSARIAL,
    BudgetExceededError,
    EnumerationCapError,
    Game,
    LEXICOGRAPHIC,
    Resource,
    UtilityRule,
    WelfareRule,
    adversarial_min_welfare,
    apply_design,
    best_responses,
    design_one_round,
    efficiency,
    is_nash,
    k_round_walk,
    make_welfare_rule,
    one_round_can_end_at,
    optimum,
    reachable_nash_min,
    round_robin_schedule,
    utility_full,
    utility_mc,
    walk_to_nash,
    welfare,
)
from resgames import dynamics
from resgames.constructions import (
    build_common_interest_chain,
    build_greedy_trap,
    build_two_agent_worst_case,
)

from conftest import brute_tie_paths, random_game


@pytest.fixture
def trap_ci():
    return build_greedy_trap(0.1).game


@pytest.fixture
def trap_designed():
    return build_greedy_trap(0.1, (1.0, 0.5)).game


def test_best_responses_examples(trap_ci, trap_designed):
    # from the null state, player 0 grabs the shared middle resource
    assert best_responses(trap_ci, (0, 0), 0) == [2]
    # player 1 then prefers joining it under the designed rule (0.55 > 0.1)
    assert best_responses(trap_designed, (2, 0), 1) == [1]


def test_best_responses_symmetric_tie():
    w = make_welfare_rule("set_covering", 2)
    f = UtilityRule((1.0, 0.0))
    g = Game(
        (Resource("a", w, f), Resource("b", w, f)),
        ((frozenset(), frozenset({"a"}), frozenset({"b"})),),
    )
    assert best_responses(g, (0,), 0) == [1, 2]


def test_walk_examples(trap_ci, trap_designed):
    t = k_round_walk(trap_ci, 1)
    assert t.final == (2, 2)
    assert t.final_welfare == pytest.approx(1.2, abs=1e-12)
    t = k_round_walk(trap_designed, 2)
    assert t.final == (1, 1)
    assert t.final_welfare == pytest.approx(2.1, abs=1e-12)


def test_single_agent_walk_is_optimal():
    w = make_welfare_rule("set_covering", 1)
    f = UtilityRule((1.0,))
    g = Game(
        (Resource("a", w, f, 0.3), Resource("b", w, f, 0.9)),
        ((frozenset(), frozenset({"a"}), frozenset({"b"})),),
    )
    t = k_round_walk(g, 1)
    _, opt = optimum(g)
    assert t.final_welfare == pytest.approx(opt)


def test_trajectory_shape(trap_ci):
    t = k_round_walk(trap_ci, 3)
    assert len(t.steps) == 3 * trap_ci.n_players
    states = t.states()
    for a, b in zip(states, states[1:]):
        assert sum(x != y for x, y in zip(a, b)) <= 1
    assert states[-1] == t.final


def test_is_nash_examples(trap_ci, trap_designed):
    assert is_nash(trap_ci, (2, 2))
    assert not is_nash(trap_designed, (2, 1))  # player 0 prefers the big solo resource
    assert not is_nash(trap_ci, (0, 0))


def test_optimum_examples(trap_ci):
    joint, val = optimum(trap_ci)
    assert joint == (1, 1)
    assert val == pytest.approx(2.1, abs=1e-12)
    con = build_two_agent_worst_case(1.0, design_one_round(1.0))
    _, val = optimum(con.game)
    assert val == pytest.approx(2 * con.meta["x"])


def test_optimum_stacking_single_resource():
    w = make_welfare_rule("set_covering", 3)
    f = UtilityRule((1.0, 0.0, 0.0))
    g = Game(
        (Resource("a", w, f),),
        tuple((frozenset(), frozenset({"a"})) for _ in range(3)),
    )
    _, val = optimum(g)
    assert val == 1.0


def test_optimum_budget():
    g = random_game(np.random.default_rng(0))
    with pytest.raises(BudgetExceededError):
        optimum(g, budget=1)


def test_efficiency_examples(trap_ci):
    assert efficiency(trap_ci, math.inf) == pytest.approx(1.2 / 2.1, abs=1e-12)
    con = build_two_agent_worst_case(1.0, design_one_round(1.0))
    assert efficiency(con.game, 1, ADVERSARIAL) == pytest.approx(0.5, abs=1e-12)
    # a game already at its optimum fixed point
    w = make_welfare_rule("set_covering", 1)
    f = UtilityRule((1.0,))
    g1 = Game((Resource("a", w, f),), ((frozenset(), frozenset({"a"})),))
    assert efficiency(g1, 1) == 1.0


def test_efficiency_in_unit_interval(rng):
    for _ in range(25):
        g = random_game(rng)
        e = efficiency(g, 2, ADVERSARIAL)
        assert -1e-12 <= e <= 1 + 1e-12


def test_potential_examples(trap_designed):
    assert utility_full(trap_designed, (0, 0)) == 0.0
    assert utility_full(trap_designed, (2, 1)) == pytest.approx(1.1 * 1.5, abs=1e-12)


def test_potential_difference_identity(rng):
    # potential change equals the mover's marginal-utility change
    for _ in range(40):
        g = random_game(rng)
        for _ in range(25):
            joint = [int(rng.integers(0, len(acts))) for acts in g.actions]
            i = int(rng.integers(0, g.n_players))
            alt = list(joint)
            alt[i] = int(rng.integers(0, len(g.actions[i])))
            dphi = utility_full(g, tuple(alt)) - utility_full(g, tuple(joint))
            du = utility_mc(g, tuple(alt), i) - utility_mc(g, tuple(joint), i)
            assert dphi == pytest.approx(du, abs=1e-9)


def test_argmax_sets_agree_between_utility_forms(rng):
    for _ in range(50):
        g = random_game(rng)
        joint = tuple(int(rng.integers(0, len(acts))) for acts in g.actions)
        for i in range(g.n_players):
            mc = best_responses(g, joint, i)
            vals = []
            for k in range(len(g.actions[i])):
                alt = list(joint)
                alt[i] = k
                vals.append(utility_full(g, tuple(alt)))
            top = max(vals)
            full = [k for k, v in enumerate(vals) if v >= top - 1e-9]
            assert mc == full


def test_walk_fixed_point_iff_nash(rng):
    # under incumbent ties, an extra round leaves the state unchanged exactly
    # when the state is a Nash equilibrium
    for _ in range(40):
        g = random_game(rng)
        one = k_round_walk(g, 1).final
        two = k_round_walk(g, 2).final
        assert is_nash(g, one) == (one == two)
        assert is_nash(g, walk_to_nash(g).final)


def test_ci_walk_welfare_nondecreasing(rng):
    for _ in range(30):
        g = apply_design(random_game(rng), "common_interest")
        t = k_round_walk(g, 3)
        welfares = [0.0] + [s.welfare for s in t.steps]
        assert all(b >= a - 1e-9 for a, b in zip(welfares, welfares[1:]))


def test_adversarial_not_better_than_deterministic(rng):
    for _ in range(20):
        g = random_game(rng)
        det = k_round_walk(g, 2).final_welfare
        adv, traj = adversarial_min_welfare(g, 2)
        assert adv <= det + 1e-9
        assert traj.final_welfare == pytest.approx(adv, abs=1e-9)
        assert welfare(g, traj.final) == pytest.approx(adv, abs=1e-9)


def test_adversarial_min_nonincreasing_in_rounds():
    con = build_two_agent_worst_case(0.5, design_one_round(0.5))
    vals = [adversarial_min_welfare(con.game, k)[0] for k in (1, 2, 3, 4)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12


def test_adversarial_cap_carries_bounds():
    g = random_game(np.random.default_rng(3))
    with pytest.raises(EnumerationCapError) as err:
        adversarial_min_welfare(g, 3, cap=1)
    assert err.value.explored > err.value.cap == 1
    # any completed path recorded before the cap bounds the true minimum above
    true_min, _ = adversarial_min_welfare(g, 3)
    if err.value.best_upper is not None:
        assert true_min <= err.value.best_upper + 1e-9


def test_efficiency_infinite_adversarial(trap_ci):
    e = efficiency(trap_ci, math.inf, ADVERSARIAL)
    assert e == pytest.approx(1.2 / 2.1, abs=1e-12)


def test_schedule_validation(trap_ci):
    from resgames import ValidationError

    with pytest.raises(ValidationError):
        k_round_walk(trap_ci, 1, schedule=[])
    with pytest.raises(ValidationError):
        k_round_walk(trap_ci, 1, schedule=[0, 5])
    with pytest.raises(ValidationError):
        k_round_walk(trap_ci, 0)
    # numpy integers are integer player indices
    assert k_round_walk(trap_ci, 1, schedule=np.array([1, 0])) == k_round_walk(trap_ci, 1, schedule=[1, 0])


def test_efficiency_adversarial_is_the_search_over_the_optimum(rng):
    for _ in range(15):
        g = random_game(rng)
        opt = optimum(g)[1]
        for k in (1, 2):
            assert efficiency(g, k, ADVERSARIAL) == adversarial_min_welfare(g, k)[0] / opt
        assert efficiency(g, math.inf, ADVERSARIAL) == reachable_nash_min(g)[0] / opt


def _zero_welfare_game():
    w = make_welfare_rule("set_covering", 1)
    return Game((Resource("a", w, UtilityRule((1.0,)), 0.0),), ((frozenset(), frozenset({"a"})),))


@pytest.mark.parametrize("k, schedule", [(0, None), (1.5, None), (math.inf, [0, 1]), (0, [0, 1]),
                                         (1, [1.7, 0.2])])
def test_every_walk_entry_point_checks_k_and_schedule(trap_ci, k, schedule):
    from resgames import ValidationError

    calls = [
        lambda g: k_round_walk(g, k, schedule=schedule),
        lambda g: adversarial_min_welfare(g, k, schedule=schedule),
    ]
    if schedule is None:  # efficiency takes no schedule
        calls += [lambda g: efficiency(g, k), lambda g: efficiency(g, k, ADVERSARIAL)]
    # the zero-welfare game checks that efficiency validates before its early return
    for g in (trap_ci, _zero_welfare_game()):
        for call in calls:
            with pytest.raises(ValidationError):
                call(g)


def test_walk_entry_points_reject_the_limit(trap_ci):
    from resgames import ValidationError

    with pytest.raises(ValidationError):
        k_round_walk(trap_ci, math.inf)
    with pytest.raises(ValidationError):
        adversarial_min_welfare(trap_ci, math.inf)
    assert efficiency(_zero_welfare_game(), math.inf) == 1.0


def test_k_round_walk_is_deterministic_only(trap_ci):
    from resgames import ValidationError

    with pytest.raises(ValidationError):
        k_round_walk(trap_ci, 1, ADVERSARIAL)


def test_efficiency_checks_the_tie_rule_before_a_zero_optimum():
    from resgames import ValidationError

    for k in (1, math.inf):
        with pytest.raises(ValidationError):
            efficiency(_zero_welfare_game(), k, "bogus")
    assert efficiency(_zero_welfare_game(), 1, LEXICOGRAPHIC) == 1.0


def test_reachable_nash_min(trap_ci):
    w, state = reachable_nash_min(trap_ci)
    assert is_nash(trap_ci, state)
    assert w == pytest.approx(1.2, abs=1e-12)


def test_one_round_can_end_at(trap_ci):
    assert one_round_can_end_at(trap_ci, (2, 2))
    assert not one_round_can_end_at(trap_ci, (1, 1))


def test_incumbent_vs_lexicographic_tie_break():
    # player 0 first strictly prefers the high-index action, then ties with
    # the low-index one; only the incumbent rule keeps it in place
    w = make_welfare_rule("set_covering", 2)
    f = UtilityRule((1.0, 0.6))
    g = Game(
        (Resource("a", w, f, 2.0), Resource("b", w, f, 1.2)),
        (
            (frozenset(), frozenset({"b"}), frozenset({"a"})),
            (frozenset(), frozenset({"a"})),
        ),
    )
    sched = [0, 1, 0]
    stay = k_round_walk(g, 1, "incumbent_then_lex", schedule=sched)
    assert stay.final == (2, 1)
    move = k_round_walk(g, 1, "lexicographic", schedule=sched)
    assert move.final == (1, 1)


def test_custom_schedule():
    g = build_greedy_trap(0.1).game
    t = k_round_walk(g, 1, schedule=[1, 0])
    # player 1 moves first and takes the shared middle resource
    assert t.steps[0].player == 1
    assert t.final == (1, 1)
    assert t.final_welfare == pytest.approx(2.1, abs=1e-12)


# Few distinct levels and values make exact utility ties, and so
# adversarial choices, common.
LEVELS = st.sampled_from([0.0, 0.25, 0.5, 1.0])


@st.composite
def tie_games(draw) -> Game:
    """Two to four players, one to three resources, and two or three
    actions per player, plus the empty action when none was drawn."""
    n = draw(st.integers(2, 4))
    rids = [f"r{r}" for r in range(draw(st.integers(1, 3)))]
    resources = []
    for rid in rids:
        incs = sorted(draw(st.lists(LEVELS, min_size=n, max_size=n)), reverse=True)
        incs[0] = 1.0
        w = WelfareRule(tuple(itertools.accumulate(incs)), 0.0)
        f = UtilityRule((incs[0], *draw(st.lists(LEVELS, min_size=n - 1, max_size=n - 1))))
        value = draw(st.sampled_from([0.5, 1.0]))
        resources.append(Resource(rid, w, f, value))
    # the empty action may come anywhere, so the lowest tied index is not
    # always the walk that does least
    action = st.sets(st.sampled_from(rids)).map(frozenset)
    actions = tuple(tuple(draw(st.lists(action, min_size=2, max_size=3))) for _ in range(n))
    return Game(tuple(resources), actions)


@st.composite
def games_and_schedules(draw):
    g = draw(tie_games())
    players = st.integers(0, g.n_players - 1)
    schedule = draw(st.none() | st.lists(players, min_size=2, max_size=6))
    return g, draw(st.integers(1, 2)), schedule


def shared_holder_game() -> Game:
    """Tie paths reach equal counts with r1 held by different players and then
    end apart, so a memo key without the players' actions gives a wrong minimum."""
    w = WelfareRule((1.0, 1.0, 1.0), 0.0)
    r0 = Resource("r0", w, UtilityRule((1.0, 0.0, 0.5), 0.5), 1.0)
    r1 = Resource("r1", w, UtilityRule((1.0, 0.0, 0.0), 0.0), 0.5)
    a, b, ab = frozenset({"r0"}), frozenset({"r1"}), frozenset({"r0", "r1"})
    return Game((r0, r1), ((frozenset(), ab, a), (frozenset(), a), (frozenset(), a, b)))


@settings(max_examples=500, deadline=None)
@given(games_and_schedules())
@example((shared_holder_game(), 2, None))
def test_adversarial_matches_brute_tie_paths(case):
    g, k, schedule = case
    sched = round_robin_schedule(g.n_players, k) if schedule is None else tuple(schedule)
    val, traj = adversarial_min_welfare(g, k, schedule=schedule)
    tol = 1e-9 * (1 + abs(val))
    assert abs(val - brute_tie_paths(g, sched)) <= tol
    # the trajectory is itself a tie path that ends at the value
    assert tuple(s.player for s in traj.steps) == sched
    for state, step in zip(traj.states(), traj.steps):
        assert step.action in best_responses(g, state, step.player)
    assert abs(traj.final_welfare - val) <= tol
    assert abs(welfare(g, traj.final) - val) <= tol


def test_adversarial_search_depth_ignores_recursion_limit():
    con = build_common_interest_chain(400, 0.5)
    before = sys.getrecursionlimit()
    low = len(inspect.stack(0)) + 100
    try:
        sys.setrecursionlimit(low)
        worst, _ = adversarial_min_welfare(con.game, 1)
        assert sys.getrecursionlimit() == low
    finally:
        sys.setrecursionlimit(before)
    ratio = worst / welfare(con.game, con.meta["optimal_action"])
    assert abs(ratio - con.meta["target_ratio"]) <= 1e-9


def _chain_search(n, c, k):
    g = build_common_interest_chain(n, c).game
    search = dynamics._AdversarialSearch(g, round_robin_schedule(g.n_players, k), 500_000)
    return search.run(), search.explored, search.reconstruct()


# (n, C, k), the visited-state count and the value's float.hex, recorded when
# the search keyed its memo on tuples and the tables spanned n_players + 1 counts
@pytest.mark.parametrize("n, c, k, visited, value", [
    (12, 0.0, 3, 34812, "0x1.8000000000000p+3"),
    (30, 0.5, 2, 1337, "0x1.e000000000000p+4"),
])
def test_adversarial_chain_search_is_pinned(n, c, k, visited, value):
    val, explored, traj = _chain_search(n, c, k)
    assert explored == visited
    assert val.hex() == value
    assert traj.final_welfare.hex() == value


def test_adversarial_search_int32_mirrors_match_int16(monkeypatch):
    narrow = _chain_search(30, 0.5, 2)
    monkeypatch.setattr(dynamics, "_INT16_LIMIT", 2)
    g = build_common_interest_chain(30, 0.5).game
    assert dynamics._AdversarialSearch(g, (0,), 1).dtype == np.int32
    wide = _chain_search(30, 0.5, 2)
    assert wide[0].hex() == narrow[0].hex()
    assert wide[1:] == narrow[1:]


def test_adversarial_values_are_python_floats():
    g = build_common_interest_chain(30, 0.5).game
    val, _ = adversarial_min_welfare(g, 2)
    assert type(val) is float
    with pytest.raises(EnumerationCapError) as err:
        adversarial_min_welfare(g, 2, cap=100)
    assert type(err.value.best_upper) is float
    assert type(EnumerationCapError(1, 0, np.float64(0.5)).best_upper) is float
