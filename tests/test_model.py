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
    convert_rule,
    curvature,
    make_utility_rule,
    make_welfare_rule,
    normalize,
    utility_full,
    utility_mc,
    welfare,
)
from resgames.constructions import build_greedy_trap

from conftest import random_game


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


def test_convert_rule_examples():
    assert convert_rule("to_marginal", (1.0, 1.5, 1.5)) == (1.0, 0.5, 0.0)
    assert convert_rule("to_cumulative", (1.0, 0.0, 0.0)) == (1.0, 1.0, 1.0)
    assert convert_rule(
        "to_cumulative", convert_rule("to_marginal", (1.0, 1.8, 2.2))
    ) == pytest.approx((1.0, 1.8, 2.2), abs=1e-15)


def test_convert_rule_rejects_bad_input():
    with pytest.raises(ValidationError):
        convert_rule("to_marginal", (1.0, 1.2, 1.6))  # convex
    with pytest.raises(ValidationError):
        convert_rule("to_cumulative", (1.0, 1.2))  # increasing marginal


def test_convert_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        f = np.sort(rng.random(n))[::-1]
        cum = convert_rule("to_cumulative", tuple(f))
        back = convert_rule("to_marginal", cum)
        assert max(abs(a - b) for a, b in zip(back, f)) <= 1e-12


def test_normalize_rescales_and_preserves_welfare(rng):
    w = make_welfare_rule("wta", 4, p=0.5)
    f = make_utility_rule(convert_rule("to_marginal", w.values), w.tail_slope)
    g = Game(
        (Resource("x", w, f, 2.0),),
        ((frozenset(), frozenset({"x"})), (frozenset(), frozenset({"x"}))),
    )
    gn = normalize(g)
    assert gn.resources[0].welfare.values[0] == pytest.approx(1.0)
    assert gn.resources[0].value == pytest.approx(1.0)
    for joint in ((0, 0), (1, 0), (1, 1)):
        assert welfare(gn, joint) == pytest.approx(welfare(g, joint), abs=1e-12)


def test_normalize_noop_on_normalized():
    g = build_greedy_trap(0.1).game
    gn = normalize(g)
    assert all(
        a.welfare.values == b.welfare.values and a.value == b.value
        for a, b in zip(g.resources, gn.resources)
    )


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
            UtilityRule(convert_rule("to_marginal", r.welfare.values), r.welfare.tail_slope),
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
