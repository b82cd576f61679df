import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resgames import (
    Game,
    Resource,
    UtilityRule,
    ValidationError,
    WelfareRule,
    best_responses,
    curvature,
    design_common_interest,
    make_utility_rule,
    make_welfare_rule,
    selection_counts,
    utility_full,
    utility_mc,
    welfare,
)
from resgames.constructions import build_greedy_trap
from resgames.model import TOL

from conftest import loop_is_nonincreasing, loop_utility_check, loop_welfare_check, random_game


def test_bent_rule_values():
    w = make_welfare_rule("bent", 3, b=1, curvature=0.5)
    assert w.values == (1.0, 1.5, 2.0)
    assert w.tail_slope == 0.5


def test_set_covering_rule():
    w = make_welfare_rule("set_covering", 4)
    assert w.values == (1.0, 1.0, 1.0, 1.0)
    assert w.tail_slope == 0.0


def test_wta_rule():
    w = make_welfare_rule("wta", 3, p=0.5)
    assert w.values == pytest.approx([0.5, 0.75, 0.875], abs=1e-15)


def test_harmonic_rule():
    w = make_welfare_rule("harmonic", 3)
    assert w.values == pytest.approx([1.0, 1.5, 1.5 + 1 / 3], abs=1e-15)


def test_explicit_rule_rejects_nonconcave():
    with pytest.raises(ValidationError):
        WelfareRule((1.0, 1.2, 1.6), 0.1)
    with pytest.raises(ValidationError):
        WelfareRule((1.0, 0.5), 0.0)


def test_bent_needs_jmax_past_bend():
    with pytest.raises(ValidationError):
        make_welfare_rule("bent", 2, b=3, curvature=0.5)


def test_curvature_examples():
    assert curvature(make_welfare_rule("bent", 3, b=1, curvature=0.3)) == pytest.approx(0.3, abs=1e-12)
    assert curvature(make_welfare_rule("set_covering", 4)) == 1.0
    # tail differences underflow against w(1)
    assert curvature(make_welfare_rule("wta", 60, p=0.5)) == 1.0


def test_curvature_matches_bent_parameter_grid():
    for b in range(1, 11):
        for i in range(21):
            c = i * 0.05
            w = make_welfare_rule("bent", max(b, 2), b=b, curvature=c)
            assert abs(curvature(w) - c) <= 1e-15


def test_welfare_example_values():
    g = build_greedy_trap(0.1).game
    assert welfare(g, (2, 2)) == pytest.approx(1.2, abs=1e-12)  # r2 + r3
    assert welfare(g, (1, 1)) == pytest.approx(2.1, abs=1e-12)  # r1 + r2
    assert welfare(g, (0, 0)) == 0.0


@pytest.mark.parametrize("evaluate", [
    selection_counts, welfare, utility_full, lambda g, a: utility_mc(g, a, 0),
], ids=["selection_counts", "welfare", "utility_full", "utility_mc"])
@pytest.mark.parametrize("joint", [(1,), (-1, 0), (5, 0), (1.0, 0), (np.float64(1.0), 0)])
def test_joint_actions_are_checked_at_the_boundary(evaluate, joint):
    # the greedy trap has two players with three actions each; a short joint
    # or a negative index was scored without a word
    with pytest.raises(ValidationError):
        evaluate(build_greedy_trap(0.1).game, joint)


@pytest.mark.parametrize("evaluate", [utility_mc, best_responses], ids=["utility_mc", "best_responses"])
@pytest.mark.parametrize("i", [-1, 2, 5, 1.0, np.float64(0.0), None])
def test_player_indices_are_checked_at_the_boundary(evaluate, i):
    # i = -1 answered for player 1, i = 2 raised a bare IndexError and i = 1.0
    # a TypeError
    with pytest.raises(ValidationError):
        evaluate(build_greedy_trap(0.1).game, (2, 2), i)


def test_player_indices_accept_numpy_integers():
    g = build_greedy_trap(0.1).game
    assert utility_mc(g, (2, 2), np.int64(1)) == utility_mc(g, (2, 2), 1) == 0.1
    assert best_responses(g, (2, 2), np.int64(1)) == best_responses(g, (2, 2), 1)


def test_joint_actions_accept_numpy_integers():
    g = build_greedy_trap(0.1).game
    assert welfare(g, np.array([2, 2])) == welfare(g, (2, 2))


def test_utility_mc_examples():
    g = build_greedy_trap(0.1, (1.0, 0.5)).game
    both_mid = (2, 1)  # both on r2
    assert utility_mc(g, both_mid, 0) == pytest.approx(1.1 * 0.5, abs=1e-12)
    # matches the team-payoff drop from removing the player
    solo = (0, 1)
    assert utility_mc(g, both_mid, 0) == pytest.approx(
        utility_full(g, both_mid) - utility_full(g, solo), abs=1e-12
    )
    g_ci = build_greedy_trap(0.1).game
    assert utility_mc(g_ci, (2, 1), 1) == 0.0
    assert utility_mc(g_ci, (0, 1), 0) == 0.0


def test_eval_past_the_table_is_the_tabulated_tail():
    w = make_welfare_rule("wta", 3, p=0.3)
    f = UtilityRule((1.0, 0.4), 0.25)
    for rule in (w, f):
        for j in range(rule.j_max + 1, rule.j_max + 5):
            assert rule.eval(j) == rule.table(j)[j]
    assert (w.eval(5), f.eval(5)) == (w.values[-1] + 2 * w.tail_slope, 0.25)


def test_utility_rule_invariants():
    with pytest.raises(ValidationError):
        make_utility_rule((1.0, 1.2))
    # non-monotone allowed only when built directly
    r = UtilityRule((1.0, 1.2))
    assert r.eval(2) == 1.2
    with pytest.raises(ValidationError):
        UtilityRule((1.0, -0.5))


def test_resource_requires_matching_first_values():
    w = make_welfare_rule("set_covering", 2)
    with pytest.raises(ValidationError):
        Resource("bad", w, UtilityRule((0.5, 0.0)), 1.0)


def test_resource_requires_finite_value():
    w = make_welfare_rule("set_covering", 2)
    f = UtilityRule((1.0, 0.0))
    for bad in (float("inf"), float("nan"), -1.0):
        with pytest.raises(ValidationError):
            Resource("bad", w, f, bad)


def test_game_requires_a_resource():
    with pytest.raises(ValidationError):
        Game((), ((frozenset(),),))


def test_game_inserts_empty_action_and_validates_ids():
    w = make_welfare_rule("set_covering", 2)
    f = UtilityRule((1.0, 0.0))
    g = Game((Resource("a", w, f),), ((frozenset({"a"}),),))
    assert g.actions[0][0] == frozenset()
    with pytest.raises(ValidationError):
        Game((Resource("a", w, f),), ((frozenset({"zzz"}),),))


def test_tabulation_validation():
    w = make_welfare_rule("set_covering", 1)
    f = UtilityRule((1.0,))
    g = Game(
        (Resource("a", w, f),),
        ((frozenset(), frozenset({"a"})), (frozenset(), frozenset({"a"}))),
    )
    with pytest.raises(ValidationError):
        g.validate_tabulation()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_welfare_monotone_under_adding_selection(seed):
    g = random_game(np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    joint = [int(rng.integers(0, len(acts))) for acts in g.actions]
    i = int(rng.integers(0, g.n_players))
    before = welfare(g, tuple(joint))
    base = joint[i]
    joint[i] = g.null_action[i]
    dropped = welfare(g, tuple(joint))
    assert dropped <= before + 1e-12
    assert before >= -1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_marginal_utility_equals_welfare_difference_for_ci(seed):
    # when f is the marginal of w, u_i(a) = W(a) - W(empty_i, a_-i)
    g = random_game(np.random.default_rng(seed))
    resources = tuple(
        Resource(
            r.rid,
            r.welfare,
            design_common_interest(r.welfare),
            r.value,
        )
        for r in g.resources
    )
    g = Game(resources, g.actions)
    rng = np.random.default_rng(seed + 1)
    joint = tuple(int(rng.integers(0, len(acts))) for acts in g.actions)
    for i in range(g.n_players):
        alone = list(joint)
        alone[i] = g.null_action[i]
        assert utility_mc(g, joint, i) == pytest.approx(
            welfare(g, joint) - welfare(g, tuple(alone)), abs=1e-9
        )


def test_utility_rule_rejects_non_finite():
    for values, tail in (((1.0, float("inf")), None), ((1.0,), float("inf")), ((1.0, float("nan")), 0.0)):
        with pytest.raises(ValidationError):
            UtilityRule(values, tail)


def test_welfare_rule_rejects_non_finite():
    # a one-entry infinite table has no increment to fail, so only the finite check stops it
    for values in ((math.inf,), (1.0, math.inf), (math.nan,)):
        with pytest.raises(ValidationError):
            WelfareRule(values, 0.0)


@pytest.mark.parametrize("build", [UtilityRule, lambda v: WelfareRule(v, 0.0)], ids=["utility", "welfare"])
@pytest.mark.parametrize("values", [[[1.0, 2.0]], [None], [[1.0], [1.0, 2.0]], ["abc"], 1.0],
                         ids=["nested", "none", "ragged", "text", "scalar"])
def test_rule_values_must_be_a_flat_sequence_of_numbers(build, values):
    with pytest.raises(ValidationError):
        build(values)


def test_rule_array_is_private_and_read_only():
    w = WelfareRule([1.0, 1.5], 0.5)
    f = UtilityRule(np.array([1.0, 0.5]))
    assert w == WelfareRule((1.0, 1.5), 0.5) and hash(w) == hash(WelfareRule((1.0, 1.5), 0.5))
    assert f == UtilityRule((1.0, 0.5)) and hash(f) == hash(UtilityRule((1.0, 0.5)))
    for rule in (w, f):
        assert "_array" not in {fl.name for fl in fields(rule)}
        assert type(rule.values) is tuple and all(type(v) is float for v in rule.values)
        with pytest.raises(ValueError):
            rule._array[0] = 2.0
        assert rule.table(3).flags.writeable


# Nudges that straddle TOL, so each check is drawn on both of its sides.
BUMPS = st.sampled_from([0.0, 0.5 * TOL, -0.5 * TOL, 0.999 * TOL, -0.999 * TOL,
                         1.001 * TOL, -1.001 * TOL, 2 * TOL, -2 * TOL, 0.25, -0.25])


def _outcome(build):
    """What ``build`` returns, or the message of the ValidationError it raises."""
    try:
        return build()
    except ValidationError as exc:
        return f"ValidationError: {exc}"


def _hexes(vals) -> list[str]:
    assert all(type(v) is float for v in vals)
    return [v.hex() for v in vals]


@st.composite
def welfare_inputs(draw):
    """Concave nondecreasing tables and tails with up to two nudges, or raw lists."""
    if draw(st.booleans()):
        return draw(st.lists(st.floats(-2, 2), max_size=6)), draw(st.floats(-1, 2))
    n = draw(st.integers(1, 8))
    incs = sorted(draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)), reverse=True)
    values = np.cumsum(incs).tolist()
    for _ in range(draw(st.integers(0, 2))):
        values[draw(st.integers(0, n - 1))] += draw(BUMPS)
    return values, incs[-1] * draw(st.floats(0, 1)) + draw(BUMPS)


@settings(max_examples=400, deadline=None)
@given(welfare_inputs(), st.sampled_from(["explicit", "drawn"]))
def test_welfare_rule_checks_match_the_loop_oracle(case, label):
    values, tail = case
    want = _outcome(lambda: loop_welfare_check(values, tail, label))
    got = _outcome(lambda: WelfareRule(values, tail, label))
    if isinstance(want, str):
        assert got == want
        return
    assert _hexes(got.values) == _hexes(want)
    n = len(want)
    tab = got.table(n + 2).tolist()
    assert _hexes(tab) == _hexes([0.0, *want, want[-1] + got.tail_slope, want[-1] + got.tail_slope * 2])
    scaled = _outcome(lambda: got.scaled(0.3))
    want_scaled = _outcome(lambda: loop_welfare_check([v * 0.3 for v in want], got.tail_slope * 0.3, label))
    assert scaled == want_scaled if isinstance(want_scaled, str) else _hexes(scaled.values) == _hexes(want_scaled)


@st.composite
def utility_inputs(draw):
    """Nonincreasing tables and tails with up to two nudges, or raw lists."""
    if draw(st.booleans()):
        values = draw(st.lists(st.floats(-1, 2), max_size=6))
        return values, draw(st.none() | st.floats(-1, 2))
    n = draw(st.integers(1, 8))
    values = sorted(draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)), reverse=True)
    for _ in range(draw(st.integers(0, 2))):
        values[draw(st.integers(0, n - 1))] += draw(BUMPS)
    tail = draw(st.none() | st.floats(0, 1).map(lambda u: u * values[-1]))
    return values, tail if tail is None else tail + draw(BUMPS)


@settings(max_examples=400, deadline=None)
@given(utility_inputs())
def test_utility_rule_checks_match_the_loop_oracle(case):
    values, tail = case
    want = _outcome(lambda: loop_utility_check(values, tail))
    got = _outcome(lambda: UtilityRule(values, tail))
    if isinstance(want, str):
        assert got == want
        return
    want_values, want_tail = want
    assert _hexes(got.values) == _hexes(want_values)
    assert got.tail_value.hex() == want_tail.hex()
    n = len(want_values)
    assert _hexes(got.table(n + 2).tolist()) == _hexes([0.0, *want_values, want_tail, want_tail])
    monotone = loop_is_nonincreasing(want_values, want_tail)
    assert got.is_nonincreasing() is monotone
    made = _outcome(lambda: make_utility_rule(values, tail))
    assert made == got if monotone else made == "ValidationError: utility rule must be nonincreasing"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_tables_span_reachable_counts(seed):
    g = random_game(np.random.default_rng(seed))
    # a resource no player can select (max_selectors 0) is tabulated too
    w = make_welfare_rule("harmonic", 2)
    g = Game(g.resources + (Resource("idle", w, UtilityRule((1.0, 0.25), 0.1), 0.5),), g.actions)
    width = max(g.max_selectors) + 2
    for res, wrow, urow, top in zip(g.resources, g.welfare_tables, g.utility_tables, g.max_selectors):
        assert len(wrow) == len(urow) == width
        for c in range(top + 1):
            assert wrow[c] == res.value * res.welfare.eval(c)
            assert urow[c] == res.value * res.utility.eval(c)
    assert g.cumulative_utility_tables.shape == g.welfare_tables.shape


def test_tables_tabulate_each_shared_rule_once(monkeypatch):
    w = make_welfare_rule("wta", 3, p=0.5)
    f = make_utility_rule((0.5, 0.25, 0.125))
    res = tuple(Resource(f"r{k}", w, f, 0.1 * (k + 1)) for k in range(5))
    g = Game(res, tuple((frozenset(), frozenset({"r0", f"r{i + 1}"})) for i in range(3)))
    calls = []
    table = WelfareRule.table  # UtilityRule shares the one tabulation

    def counted(self, n):
        calls.append(type(self).__name__)
        return table(self, n)

    monkeypatch.setattr(WelfareRule, "table", counted)
    monkeypatch.setattr(UtilityRule, "table", counted)
    n = max(g.max_selectors) + 1
    for tabs, rule in ((g.welfare_tables, w), (g.utility_tables, f)):
        for r, row in zip(res, tabs):
            assert row.tobytes() == (r.value * table(rule, n)).tobytes()
    assert calls == ["WelfareRule", "UtilityRule"]
