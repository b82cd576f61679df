import inspect
import itertools
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from resgames import (
    ADVERSARIAL,
    INCUMBENT_THEN_LEX,
    BudgetExceededError,
    EnumerationCapError,
    ExperimentConfig,
    Game,
    Resource,
    UtilityRule,
    WelfareRule,
    adversarial_min_welfare,
    apply_design,
    best_responses,
    design_common_interest,
    design_one_round,
    efficiency,
    gen_wta,
    is_nash,
    k_round_walk,
    make_welfare_rule,
    one_round_can_end_at,
    optimum,
    reachable_nash_min,
    round_robin_schedule,
    solve_poa_lp,
    trajectory_to_jsonl,
    utility_full,
    utility_mc,
    walk_to_nash,
    welfare,
)
from resgames import dynamics
from resgames.constructions import (
    build_common_interest_chain,
    build_greedy_trap,
    build_poa_witness,
    build_two_agent_worst_case,
)

from conftest import bfs_reachable_nash, brute_tie_paths, random_game


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


def test_best_responses_checks_the_joint_before_lifting_the_player(trap_ci):
    # the scan lifts player 1 to its empty action, so its entry is checked first
    from resgames import ValidationError
    with pytest.raises(ValidationError, match=r"^player 1 action 99 is not an index in \[0, 3\)$"):
        best_responses(trap_ci, (0, 99), 1)


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
    assert val == pytest.approx(2.0)


def test_optimum_stacking_single_resource():
    w = make_welfare_rule("set_covering", 3)
    f = UtilityRule((1.0, 0.0, 0.0))
    g = Game(
        (Resource("a", w, f),),
        tuple((frozenset(), frozenset({"a"})) for _ in range(3)),
    )
    _, val = optimum(g)
    assert val == 1.0


def test_optimum_budget(monkeypatch):
    g = random_game(np.random.default_rng(0))
    total = math.prod(len(acts) for acts in g.actions)
    monkeypatch.setattr(dynamics, "_BUDGET", total - 1)
    with pytest.raises(BudgetExceededError) as err:
        optimum(g)
    assert (err.value.needed, err.value.budget) == (total, total - 1)
    assert str(err.value).endswith(f"budget is {total - 1}; reduce the instance")
    monkeypatch.setattr(dynamics, "_BUDGET", total)
    optimum(g)  # a joint action space of exactly the budget is searched


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




@pytest.mark.parametrize("schedule, entry", [([0, 5], "5"), ([1.7], "1.7")])
def test_schedule_entries_are_checked_as_player_indices(trap_ci, schedule, entry):
    from resgames import ValidationError

    for walk in (k_round_walk, adversarial_min_welfare):
        with pytest.raises(ValidationError, match=rf"^player index {entry} is not in \[0, 2\)$"):
            walk(trap_ci, 1, schedule=schedule)
    with pytest.raises(ValidationError, match=r"^k must be a positive integer, got inf$"):
        k_round_walk(trap_ci, math.inf, schedule=[0, 1])

def test_numpy_schedule_walks_equal_list_schedule_walks(trap_ci, tmp_path):
    # the entries are read as Python ints, so the JSONL records match byte for byte
    for walk in (lambda s: k_round_walk(trap_ci, 1, schedule=s),
                 lambda s: adversarial_min_welfare(trap_ci, 1, schedule=s)[1]):
        texts = []
        for sched in (np.array([1, 0]), [1, 0]):
            traj = walk(sched)
            assert all(type(s.player) is int for s in traj.steps)
            trajectory_to_jsonl(trap_ci, traj, tmp_path / "w.jsonl")
            texts.append((tmp_path / "w.jsonl").read_bytes())
        assert texts[0] == texts[1]

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


def test_k_round_walk_takes_its_schedule_by_keyword(trap_ci):
    # a stray third positional argument is refused, not read as a schedule
    for extra in (ADVERSARIAL, [1, 0]):
        with pytest.raises(TypeError):
            k_round_walk(trap_ci, 1, extra)


def test_efficiency_checks_the_tie_rule_before_a_zero_optimum():
    from resgames import ValidationError

    for k in (1, math.inf):
        with pytest.raises(ValidationError):
            efficiency(_zero_welfare_game(), k, "bogus")
    for tie_break in (INCUMBENT_THEN_LEX, ADVERSARIAL):
        assert efficiency(_zero_welfare_game(), 1, tie_break) == 1.0


def test_reachable_nash_min(trap_ci):
    w, state = reachable_nash_min(trap_ci)
    assert is_nash(trap_ci, state)
    assert w == pytest.approx(1.2, abs=1e-12)


@pytest.mark.parametrize("n, c", [(10, 0.0), (10, 0.25), (10, 0.5), (10, 1.0),
                                  (30, 0.25), (30, 0.5), (30, 1.0)])
def test_chain_limit_is_the_walk_welfare(n, c):
    # the worst Nash state a tie path reaches has the walk's welfare, n
    assert reachable_nash_min(build_common_interest_chain(n, c).game)[0] == n


def test_one_round_can_end_at(trap_ci):
    assert one_round_can_end_at(trap_ci, (2, 2))
    assert not one_round_can_end_at(trap_ci, (1, 1))


def test_incumbent_keeps_a_tied_action():
    # player 0 first strictly prefers the high-index action, then ties with
    # the low-index one; the incumbent rule keeps it in place
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
    stay = k_round_walk(g, 1, schedule=sched)
    assert 1 in best_responses(g, stay.final, 0)
    assert stay.final == (2, 1)


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
def tie_games(draw, levels=LEVELS) -> Game:
    """Two to four players, one to three resources, and two or three
    actions per player, plus the empty action when none was drawn."""
    n = draw(st.integers(2, 4))
    rids = [f"r{r}" for r in range(draw(st.integers(1, 3)))]
    resources = []
    for rid in rids:
        incs = sorted(draw(st.lists(levels, min_size=n, max_size=n)), reverse=True)
        incs[0] = 1.0
        w = WelfareRule(tuple(itertools.accumulate(incs)), 0.0)
        f = UtilityRule((incs[0], *draw(st.lists(levels, min_size=n - 1, max_size=n - 1))))
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


def lifted_mover_game() -> Game:
    """Player 0 first ties between the solo r1 and the shared r2, player 1
    then takes r2 either way, so both tie paths reach step 2 with player 0
    on different actions but one state once player 0 is lifted.  There it
    ties again, and r2 ends 1.5 below r1."""
    solo = Resource("r1", WelfareRule((1.0, 1.0), 0.0), UtilityRule((1.0, 0.0)), 2.0)
    shared = Resource("r2", WelfareRule((1.0, 1.25), 0.0), UtilityRule((1.0, 1.0)), 2.0)
    empty, r1, r2 = frozenset(), frozenset({"r1"}), frozenset({"r2"})
    return Game((solo, shared), ((empty, r1, r2), (empty, r2)))


def memo_hit_game() -> Game:
    """Player 0 takes r, player 1 then ties between sharing r and staying
    out, and player 2 ties between two empty actions.  r is final after
    step 1, so both of player 1's ties reach step 2 as one state: the first
    tie searches it, and the second, whose walk ends at 0.5 against 0.625,
    reads it from the memo.  Found among random tie games."""
    r = Resource("r", WelfareRule((1.0, 1.25), 0.0), UtilityRule((1.0, 0.0)), 0.5)
    empty, share = frozenset(), frozenset({"r"})
    return Game((r,), ((share, empty), (share, empty), (empty, empty)))


@settings(max_examples=500, deadline=None)
@given(games_and_schedules())
@example((memo_hit_game(), 1, None))  # the worst walk runs through a memo hit
@example((shared_holder_game(), 2, None))
@example((lifted_mover_game(), 2, None))
@example((build_two_agent_worst_case(0.5, design_one_round(0.5)).game, 2, None))  # alpha < 1
@example((build_common_interest_chain(3, 0.0).game, 1, None))  # the first-move term prunes
def test_adversarial_matches_brute_tie_paths(case):
    g, k, schedule = case
    sched = round_robin_schedule(g.n_players, k) if schedule is None else tuple(schedule)
    val, traj = adversarial_min_welfare(g, k, schedule=schedule)
    want, first = brute_tie_paths(g, sched)
    tol = 1e-9 * (1 + abs(val))
    assert abs(val - want) <= tol
    # with welfare in multiples of 2**-20 every sum is exact, so the least
    # walk is one value and the first tie path in tie order that reaches it
    # is the walk returned, whatever the bound pruned
    if not np.mod(g.welfare_tables * 2.0**20, 1.0).any():
        assert tuple(s.action for s in traj.steps) == first
    # the trajectory is itself a tie path that ends at the value
    assert tuple(s.player for s in traj.steps) == sched
    for state, step in zip(traj.states(), traj.steps):
        assert step.action in best_responses(g, state, step.player)
    assert abs(traj.final_welfare - val) <= tol
    assert abs(welfare(g, traj.final) - val) <= tol


def test_adversarial_search_solves_a_lifted_state_once():
    g = lifted_mover_game()
    sched = round_robin_schedule(2, 2)
    assert best_responses(g, g.null_action, 0) == [1, 2]
    assert best_responses(g, (1, 0), 1) == best_responses(g, (2, 0), 1) == [1]
    search = dynamics._AdversarialSearch(g, sched, 100)
    assert search.run() == brute_tie_paths(g, sched)[0] == 2.5
    # step 2 is reached from (1, 1) and (2, 1); lifting player 0 makes them one key.
    # The second path's bound, alpha = 0.625 times the potential 4 less the
    # tie drop, falls just short of the first path's 2.5, so it is searched.
    assert [len(m) for m in search.memo] == [1, 2, 1, 2]
    assert (search.explored, search.pruned, search.alpha, search.exact) == (6, 0, 0.625, False)
    assert search.reconstruct().final == (2, 1)
    assert k_round_walk(g, 2).final_welfare == 4.0


def test_adversarial_worst_walk_runs_through_a_memo_hit():
    g = memo_hit_game()
    sched = round_robin_schedule(3, 1)
    want, first = brute_tie_paths(g, sched)
    search = dynamics._AdversarialSearch(g, sched, 100)
    assert search.run() == want == 0.5
    # four states are reached and none pruned, but three searched: step 2
    # from player 1's first tie, and from its second, the worst walk, by a hit
    assert (search.explored, search.pruned, [len(m) for m in search.memo]) == (3, 0, [1, 1, 1])
    assert tuple(s.action for s in search.reconstruct().steps) == first == (0, 1, 0)


@pytest.mark.parametrize("g, k", [
    (build_common_interest_chain(30, 0.35).game, 2),
    (build_two_agent_worst_case(0.5, design_one_round(0.5)).game, 3),
    (memo_hit_game(), 1),
], ids=["chain-prunes", "two_agent-alpha", "memo_hit"])
def test_adversarial_search_ends_at_the_null_allocation(g, k):
    search = dynamics._AdversarialSearch(g, round_robin_schedule(g.n_players, k), 10_000)
    blank = search.S.tobytes()
    value = search.run()
    walk = search.reconstruct()
    assert search.joint == list(g.null_action)
    assert search.counts == [0] * g.n_resources
    assert search.phi == 0.0
    assert search.S.tobytes() == blank
    # the second run starts from the same state and reads the root's entry
    assert search.run().hex() == value.hex()
    assert search.reconstruct() == walk


@settings(max_examples=200, deadline=None)
@given(tie_games(st.sampled_from([0.0, 0.5, 1.0])))
@example(build_common_interest_chain(3, 0.5).game)  # the bound skips states
def test_reachable_nash_min_matches_the_bfs_oracle(g):
    want, nash = bfs_reachable_nash(g)
    got, state = reachable_nash_min(g)
    assert got == want
    assert state == min(nash, key=lambda a: (welfare(g, a), a))
    event("two or more reachable Nash joints" if len(nash) >= 2 else "one reachable Nash joint")
    with pytest.raises(EnumerationCapError):
        reachable_nash_min(g, cap=1)


def test_adversarial_value_is_its_trajectory_welfare():
    # the search's own running sum adds resources in the order it finalises
    # them, which on these games lands one ulp away from the state's welfare
    cfg = ExperimentConfig()
    for idx in range(20):
        base = gen_wta(cfg, idx)
        for spec in cfg.designs:
            g = apply_design(base, spec)
            val, traj = adversarial_min_welfare(g, 1)
            assert val.hex() == traj.final_welfare.hex() == welfare(g, traj.final).hex()
            assert val <= k_round_walk(g, 1).final_welfare


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


def _searched(g, k):
    """The search of k rounds on g, and its value."""
    search = dynamics._AdversarialSearch(g, round_robin_schedule(g.n_players, k), 500_000)
    return search, search.run()


def _flat(walk):
    """The actions of a linked walk ``(action, walk)``, None past its end."""
    acts = []
    while walk is not None:
        a, walk = walk
        acts.append(a)
    return acts


def _chain_search(n, c, k):
    search, val = _searched(build_common_interest_chain(n, c).game, k)
    entries = [(t, *entry) for t, memo in enumerate(search.memo) for entry in memo.values()]
    return val, search.explored, entries, search.reconstruct()


# (n, C, k), the visited-state and memo-entry counts, the value's float.hex
# and the worst walk's actions (one digit per round-robin step) and final
# state.  The values, walks and finals were recorded when the search keyed
# its memo on tuples and the tables spanned n_players + 1 counts, and the
# last four rows before the search pruned; the visited counts once the
# potential bound pruned, and the entry counts once only exact states were
# memoised.  On the exact chains (C = 0, 0.5) only the first walk is
# searched, n * k states, each exact; the others prune strictly, with a
# rounding slack, so a state whose pruned walk may tie its best one ends
# inexact and is not memoised.
@pytest.mark.parametrize("n, c, k, visited, memoised, value, actions, final", [
    (12, 0.0, 3, 36, 36, "0x1.8000000000000p+3", "1" * 36, (1,) * 12),
    (30, 0.5, 2, 60, 60, "0x1.e000000000000p+4", "1" * 60, (1,) * 30),
    (200, 0.95, 2, 1192, 401, "0x1.9000000000000p+7", "1" * 400, (1,) * 200),
    (60, 0.15, 3, 586, 181, "0x1.e000000000000p+5", "1" * 179 + "2", (1,) * 59 + (2,)),
    (14, 0.0, 3, 42, 42, "0x1.c000000000000p+3", "1" * 42, (1,) * 14),
    (2000, 0.35, 1, 3998, 2001, "0x1.f400000000000p+10", "1" * 2000, (1,) * 2000),
], ids=["n12-C0-k3", "n30-C.5-k2", "n200-C.95-k2", "n60-C.15-k3", "n14-C0-k3", "n2000-C.35-k1"])
def test_adversarial_chain_search_is_pinned(n, c, k, visited, memoised, value, actions, final):
    val, explored, entries, traj = _chain_search(n, c, k)
    assert explored == visited
    # every entry is exact, a (value, walk) pair whose walk holds one int
    # action for each step left from its own
    assert len(entries) == memoised
    for t, v, walk in entries:
        acts = _flat(walk)
        assert type(v) is float and len(acts) == n * k - t and all(type(a) is int for a in acts)
    assert val.hex() == value
    assert traj.final_welfare.hex() == value
    steps = [(s.player, s.action) for s in traj.steps]
    assert steps == list(zip(round_robin_schedule(n, k), map(int, actions)))
    assert traj.final == final


def test_adversarial_search_counts_past_int16():
    # 2**15 + 1 players on one set-covering resource under common interest:
    # the empty action is listed last, so every tied player joins and the
    # first walk's count reaches 2**15 + 1; the potential bound prunes the rest
    n = 2**15 + 1
    w = make_welfare_rule("set_covering", 1)
    g = Game((Resource("a", w, design_common_interest(w)),), ((frozenset({"a"}), frozenset()),) * n)
    val, traj = adversarial_min_welfare(g)
    assert val == 1.0
    assert len(traj.steps) == n and traj.final == (0,) * n
    assert [s.welfare for s in traj.steps] == [1.0] * n


def test_adversarial_values_are_python_floats():
    # the exact chain (30, 0.5) ends in 60 states, one walk, so a cap that
    # raises there comes before any walk ends; C = 0.35 searches 172
    g = build_common_interest_chain(30, 0.35).game
    val, _ = adversarial_min_welfare(g, 2)
    assert type(val) is float
    with pytest.raises(EnumerationCapError) as err:
        adversarial_min_welfare(g, 2, cap=100)
    assert type(err.value.best_upper) is float
    assert type(EnumerationCapError(1, 0, np.float64(0.5)).best_upper) is float


def test_searches_the_cap_stopped_finish_under_the_bound():
    chain = build_common_interest_chain(200, 0.5).game
    assert adversarial_min_welfare(chain, 3)[0] == 200.0
    assert adversarial_min_welfare(build_common_interest_chain(20, 0.0).game, 2)[0] == 20.0
    assert reachable_nash_min(chain) == (200.0, (1,) * 200)


def test_the_cap_still_stops_a_search_the_bound_cannot_cut():
    g = build_common_interest_chain(2000, 0.35).game
    # C = 0.35 is not exact, so a walk that ties the first one's welfare is
    # not pruned: each step's second tie is searched, 2n - 2 states in all
    assert _searched(g, 1)[0].explored == 3998
    with pytest.raises(EnumerationCapError) as err:
        adversarial_min_welfare(g, 1, cap=1000)
    assert (err.value.explored, err.value.best_upper) == (1001, None)


def _outputs(search):
    """What a finished search reports: its value's bits, its walk, its state
    counts and its memo's size at each step."""
    value = search.run()
    return value.hex(), _flat(search.walk), search.explored, search.pruned, [len(m) for m in search.memo]


@settings(max_examples=300, deadline=None)
@given(games_and_schedules())
@example((memo_hit_game(), 1, None))
@example((lifted_mover_game(), 2, None))
@example((shared_holder_game(), 2, None))
@example((build_common_interest_chain(30, 0.35).game, 2, None))
def test_narrowed_memo_keys_search_as_the_live_slice(case):
    # the key leaves out unmoved players and resources no mover can select,
    # which are equal in every state of a step, so keying on the whole live
    # slice S[lo[t]:hi[t]] (both narrowed ends at n) changes nothing
    g, k, schedule = case
    sched = dynamics._check_schedule(g, k, schedule)
    narrow = dynamics._AdversarialSearch(g, sched, 100_000)
    wide = dynamics._AdversarialSearch(g, sched, 100_000)
    wide.pe = wide.qs = [g.n_players] * len(sched)
    assert _outputs(narrow) == _outputs(wide)


def test_chain_memo_keys_hold_memory_to_o_of_the_steps():
    # keyed on the live slice, each step's key held every player still to
    # move: 12.0 MB of keys and a 12.9 MB traced peak on this chain
    g = build_common_interest_chain(2000, 0.35).game
    search = dynamics._AdversarialSearch(g, round_robin_schedule(2000, 1), 500_000)
    tracemalloc.start()
    try:
        search.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert sum(len(key) for memo in search.memo for key in memo) <= 16 * 2000


def test_the_oracle_examples_prune():
    one_round = _searched(build_two_agent_worst_case(0.5, design_one_round(0.5)).game, 2)[0]
    assert one_round.alpha < 1 and not one_round.exact and one_round.pruned > 0
    # chain (3, 0) in one round prunes only with the first-move term
    g = build_common_interest_chain(3, 0.0).game
    full, value = _searched(g, 1)
    bare = dynamics._AdversarialSearch(g, round_robin_schedule(3, 1), 100)
    bare.gain = [0.0] * len(bare.gain)  # an exact game: no tie drop either
    assert bare.run() == value == 3.0
    assert (full.explored, full.pruned, bare.explored, bare.pruned) == (3, 1, 4, 0)
    assert bare.reconstruct() == full.reconstruct()
    # the limit route skips states of chain (3, 0.5)
    made = []

    class Caught(dynamics._AdversarialSearch):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with mock.patch.object(dynamics, "_AdversarialSearch", Caught):
        assert reachable_nash_min(build_common_interest_chain(3, 0.5).game) == (3.0, (1, 1, 1))
    assert made[0].pruned > 0


def _assert_steps_score_their_states(g, traj, n_steps):
    assert len(traj.steps) == n_steps
    assert traj.states()[-1] == traj.final
    for state, step in zip(traj.states()[1:], traj.steps):
        assert step.welfare.hex() == welfare(g, state).hex()
        assert step.potential.hex() == utility_full(g, state).hex()


@st.composite
def wide_games(draw) -> Game:
    """One to four players over 1 to 5,000 resources with scattered values,
    so each step's welfare sums many unequal terms."""
    n = draw(st.integers(1, 4))
    n_res = draw(st.one_of(st.integers(1, 40), st.integers(1, 5_000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rules = []
    for _ in range(3):
        incs = np.sort(rng.random(n) + 0.01)[::-1]
        w = WelfareRule(tuple(np.cumsum(incs)), float(incs[-1] * rng.random()))
        f = UtilityRule((incs[0], *np.sort(rng.random(n - 1) * incs[0])[::-1]))
        rules.append((w, f))
    values = rng.random(n_res) * 10.0 ** rng.integers(-3, 4, n_res)
    resources = tuple(
        Resource(f"r{r}", *rules[r % 3], float(values[r])) for r in range(n_res)
    )
    actions = []
    for _ in range(n):
        acts = []
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(1, n_res + 1))
            acts.append(frozenset(f"r{r}" for r in rng.choice(n_res, size, replace=False)))
        actions.append(tuple(acts))
    return Game(resources, tuple(actions))


@settings(max_examples=60, deadline=None)
@given(wide_games(), st.integers(1, 3), st.data())
def test_walk_gather_blocks_match_one_state_sums(g, k, data):
    # a gather of under nine rows splits most walks into several blocks
    gather = data.draw(st.integers(1, 9 * g.n_resources))
    with mock.patch.object(dynamics, "_GATHER", gather):
        traj = k_round_walk(g, k)
    _assert_steps_score_their_states(g, traj, k * g.n_players)


@settings(max_examples=60, deadline=None)
@given(wide_games(), st.data())
def test_walk_to_nash_blocks_match_one_state_sums(g, data):
    # each round after the first is recorded from the state the last one left
    gather = data.draw(st.integers(1, 9 * g.n_resources))
    with mock.patch.object(dynamics, "_GATHER", gather):
        traj = walk_to_nash(g)
    _assert_steps_score_their_states(g, traj, len(traj.steps))


def test_chain_worst_walk_gathers_match_one_state_sums():
    g = build_common_interest_chain(2000, 0.5).game
    _, traj = adversarial_min_welfare(g, 1)
    assert 2000 * g.n_resources > dynamics._GATHER
    _assert_steps_score_their_states(g, traj, 2000)


def test_walk_to_nash_stops_at_its_step_ceiling(trap_ci, monkeypatch):
    monkeypatch.setattr(dynamics, "_WALK_STEP_CEILING", 1)
    with pytest.raises(EnumerationCapError) as exc:
        walk_to_nash(trap_ci)
    assert (exc.value.cap, exc.value.explored) == (1, 0)


def test_walks_past_the_step_ceiling_are_refused_unbuilt(trap_ci, monkeypatch):
    from resgames import ValidationError

    monkeypatch.setattr(dynamics, "round_robin_schedule", lambda *a: pytest.fail("the schedule was built"))
    k = 10**12
    message = f"a walk of {k * trap_ci.n_players} steps exceeds the 1000000-step ceiling"
    for call in (k_round_walk, adversarial_min_welfare, efficiency):
        with pytest.raises(ValidationError, match=message):
            call(trap_ci, k)


def test_the_step_ceiling_admits_a_walk_of_its_own_length(trap_ci, monkeypatch):
    from resgames import ValidationError

    n = trap_ci.n_players
    walks = [k_round_walk(trap_ci, 3), adversarial_min_welfare(trap_ci, 3)[1]]
    monkeypatch.setattr(dynamics, "_WALK_STEP_CEILING", 3 * n)
    assert [k_round_walk(trap_ci, 3), adversarial_min_welfare(trap_ci, 3)[1]] == walks
    assert k_round_walk(trap_ci, 1, schedule=[0] * (3 * n)).steps
    for call in (lambda: k_round_walk(trap_ci, 4), lambda: adversarial_min_welfare(trap_ci, 4),
                 lambda: efficiency(trap_ci, 4), lambda: k_round_walk(trap_ci, 1, schedule=[0] * (3 * n + 1))):
        with pytest.raises(ValidationError, match="exceeds the"):
            call()


def _public_walk(g, schedule):
    """The incumbent-keeping walk from the null allocation through the public
    API alone: each step's (player, action, welfare, potential), floats as hex."""
    joint, steps = list(g.null_action), []
    for i in schedule:
        ties = best_responses(g, joint, i)
        joint[i] = joint[i] if joint[i] in ties else ties[0]
        steps.append((i, joint[i], welfare(g, joint).hex(), utility_full(g, joint).hex()))
    return steps


@st.composite
def seeded_walks(draw):
    """A random_game seed, k in 1..6 and a schedule: None for k round-robin
    rounds, or a list that may repeat a player or leave one out."""
    seed, k = draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 6))
    n = random_game(np.random.default_rng(seed)).n_players
    return seed, k, draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=5 * n))


@settings(max_examples=300, deadline=None)
@given(seeded_walks())
@example((87, 6, None))  # player 1 moves in round 2; the walk settles at step 7, mid-round
@example((87, 1, [1, 1, 0, 1, 0, 1, 0, 1]))  # player 2 never moves
def test_k_round_walk_matches_the_public_api_walk(case):
    seed, k, schedule = case
    g = random_game(np.random.default_rng(seed))
    sched = round_robin_schedule(g.n_players, k) if schedule is None else schedule
    event("round robin" if schedule is None else f"{len(set(schedule))} of {g.n_players} players move")
    traj = k_round_walk(g, k, schedule=schedule)
    assert [(s.player, s.action, s.welfare.hex(), s.potential.hex()) for s in traj.steps] == _public_walk(g, sched)
    assert traj.final == traj.states()[-1]


def test_a_settled_walk_scans_no_further(monkeypatch):
    # player 2's change at step 3 is the last; players 0 and 1 keep at
    # steps 4 and 5, so the walk settles at step 5 of its first two rounds
    g = random_game(np.random.default_rng(1))
    n, scans, ties = g.n_players, [], dynamics._ties
    monkeypatch.setattr(dynamics, "_ties", lambda *a: scans.append(a[2]) or ties(*a))
    traj = k_round_walk(g, 10_000)
    assert scans == [0, 1, 2, 0, 1]
    assert len(traj.steps) == n * 10_000
    head = [(s.player, s.action, s.welfare.hex(), s.potential.hex()) for s in traj.steps[:2 * n]]
    assert head == _public_walk(g, round_robin_schedule(n, 2))
    assert traj.steps[2 * n:] == traj.steps[n:2 * n] * (10_000 - 2)
    assert traj.final == traj.states()[2 * n]


def test_the_worst_walk_replay_never_settles():
    # the recorder takes its actions as given from the null allocation: the
    # second round keeps every action of the first, then player 0 moves, so a
    # recorder that stopped at the settled second round would copy it forward
    g = random_game(np.random.default_rng(1))
    acts = [1, 2, 1, 1, 2, 1, 0, 2, 1]
    traj = dynamics._walk(g, round_robin_schedule(3, 3), acts)
    assert [s.action for s in traj.steps] == acts
    assert traj.final == (0, 2, 1)
    _assert_steps_score_their_states(g, traj, 9)


def still_game() -> Game:
    """Two players whose one resource is worth nothing: every action ties
    with the empty one, so no player moves."""
    w = make_welfare_rule("set_covering", 2)
    r = Resource("r", w, UtilityRule((1.0,)), 0.0)
    return Game((r,), ((frozenset(), frozenset({"r"})),) * 2)


def _hex_steps(traj):
    return [(s.player, s.action, s.welfare.hex(), s.potential.hex()) for s in traj.steps]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1).map(lambda seed: random_game(np.random.default_rng(seed))))
@example(still_game())
@example(random_game(np.random.default_rng(10)))  # the last change is step 5, the first of round 2
@example(random_game(np.random.default_rng(87)))  # the walk settles at step 7, mid-round
def test_walk_to_nash_is_the_k_round_walk_to_its_first_unchanged_round(g):
    n, traj = g.n_players, walk_to_nash(g)
    rounds, left = divmod(len(traj.steps), n)
    event(f"{rounds} rounds")
    assert left == 0
    assert _hex_steps(traj) == _hex_steps(k_round_walk(g, rounds))
    ends = traj.states()[::n]  # the state after each whole round
    assert ends[-1] == ends[-2] == traj.final
    assert rounds == 1 or ends[-2] != ends[-3]
    still = all(s.action == g.null_action[s.player] for s in traj.steps)
    assert (rounds == 1) == still


@pytest.mark.parametrize("g, scanned, recorded", [
    (still_game(), 2, 2),  # no player moves, so the first round is the last
    (random_game(np.random.default_rng(10)), 8, 12),  # the last change is step 5, the first of round 2
    (random_game(np.random.default_rng(87)), 7, 9),  # the last change is step 5, mid-round 2
])
def test_walk_to_nash_records_to_the_end_of_its_first_unchanged_round(g, scanned, recorded):
    acts, final = dynamics._incumbent_walk(g, g.null_action, range(g.n_players), 10**6)
    traj = walk_to_nash(g)
    assert (len(acts), len(traj.steps), traj.final) == (scanned, recorded, final)


@pytest.mark.parametrize("ceiling", [8, 11])
def test_walk_to_nash_refuses_a_confirming_round_past_its_ceiling(monkeypatch, ceiling):
    # the walk changes last at step 5 and settles at step 8, but the round
    # that confirms it ends at step 12: the ceiling counts whole rounds
    g = random_game(np.random.default_rng(10))
    monkeypatch.setattr(dynamics, "_WALK_STEP_CEILING", 12)
    assert len(walk_to_nash(g).steps) == 12
    monkeypatch.setattr(dynamics, "_WALK_STEP_CEILING", ceiling)
    with pytest.raises(EnumerationCapError) as exc:
        walk_to_nash(g)
    assert (exc.value.cap, exc.value.explored, exc.value.best_upper) == (ceiling, 8, None)


def test_nash_checks_and_the_optimum_record_no_walk(monkeypatch):
    wsc = make_welfare_rule("set_covering", 8)
    con = build_poa_witness(solve_poa_lp(wsc, design_common_interest(wsc), 3), 40)
    wta = gen_wta(ExperimentConfig(), 0)
    want = optimum(wta)
    monkeypatch.setattr(dynamics, "_walk", mock.Mock(side_effect=AssertionError("a walk was recorded")))
    assert is_nash(con.game, con.meta["nash_action"])
    assert not is_nash(con.game, con.game.null_action)
    assert optimum(wta) == want
    dynamics._walk.assert_not_called()
