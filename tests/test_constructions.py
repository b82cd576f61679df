import math
import time

import pytest

from resgames import (
    UtilityRule,
    ValidationError,
    design_asymptotic,
    design_common_interest,
    design_one_round,
    design_pareto_setcov,
    efficiency,
    is_nash,
    make_utility_rule,
    make_welfare_rule,
    one_round_can_end_at,
    optimum,
    solve_poa_lp,
    welfare,
)
from resgames.constructions import (
    build_common_interest_chain,
    build_greedy_trap,
    build_poa_witness,
    build_stack_or_spread,
    build_two_agent_worst_case,
    measured_ratio,
)


def test_greedy_trap_values():
    con = build_greedy_trap(0.1)
    joint, val = optimum(con.game)
    assert joint == con.meta["optimal_action"]
    assert val == pytest.approx(2.1, abs=1e-12)
    assert efficiency(con.game, math.inf) == pytest.approx(1.2 / 2.1, abs=1e-12)


def test_greedy_trap_degenerate_eps():
    con = build_greedy_trap(1e-9)
    assert welfare(con.game, (1, 1)) == pytest.approx(2.0, abs=1e-6)


def test_two_agent_cases():
    con = build_two_agent_worst_case(1.0, design_one_round(1.0))
    assert con.meta["case"] == "f2_below_floor"
    assert measured_ratio(con, 1) == pytest.approx(0.5, abs=1e-12)

    con = build_two_agent_worst_case(0.5, make_utility_rule((1.0, 2 / 3)))
    assert con.meta["case"] == "f2_moderate"
    for k in (1, 2, 3):
        assert measured_ratio(con, k) == pytest.approx(0.75, abs=1e-9)

    f_up = UtilityRule((1.0, 1.2))  # increasing rules arise only in this analysis
    con = build_two_agent_worst_case(0.5, f_up)
    assert con.meta["case"] == "f2_above_one"
    assert measured_ratio(con, 1) == pytest.approx(1.5 / 2.2, abs=1e-9)


def test_two_agent_grid_matches_half_curvature():
    for c in (0.0, 0.25, 0.5, 0.75, 1.0):
        con = build_two_agent_worst_case(c, design_one_round(c))
        for k in (1, 2, 3):
            assert measured_ratio(con, k) == pytest.approx(1 - c / 2, abs=1e-9)


def test_two_agent_scaling():
    start = time.perf_counter()
    con = build_two_agent_worst_case(0.5, UtilityRule((1.0, 1 / math.pi)))
    assert con.game.n_resources == 3
    for k in (1, 2, 3):
        assert measured_ratio(con, k) == pytest.approx(con.meta["target_ratio"], abs=1e-12)
    assert time.perf_counter() - start < 1.0


def test_slightly_negative_f2_builds_a_zero_value_resource():
    # UtilityRule accepts f(2) in [-TOL, 0); a resource value may not be negative
    f = UtilityRule((1.0, -1e-10))
    con = build_two_agent_worst_case(1.0, f)
    assert [r.value for r in con.game.resources] == [1.0, 1.0, 0.0]
    assert measured_ratio(con, 1) == pytest.approx(0.5, abs=1e-9)
    con = build_stack_or_spread(2, f)
    assert [r.value for r in con.game.resources] == [1.0, 1.0, 0.0]
    assert measured_ratio(con, 1) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValidationError):
        build_stack_or_spread(0, f)


def test_chain_small_and_large():
    con = build_common_interest_chain(3, 1.0)
    assert measured_ratio(con, 1) == pytest.approx(0.6, abs=1e-12)
    con = build_common_interest_chain(200, 1.0)
    assert measured_ratio(con, 1) == pytest.approx(200 / 399, abs=1e-12)
    con = build_common_interest_chain(2, 0.0)
    # linear welfare: the chain reference equals the walk outcome
    assert measured_ratio(con, 1) == pytest.approx(con.meta["target_ratio"], abs=1e-12)
    assert welfare(con.game, con.meta["optimal_action"]) <= optimum(con.game)[1] + 1e-12



@pytest.mark.parametrize("n", [4, 6])
def test_chain_reference_is_the_optimum_only_from_half_curvature(n):
    for c in (0.5, 0.75, 1.0, 0.0, 0.25):
        con = build_common_interest_chain(n, c)
        ref, best = con.meta["optimal_welfare"], optimum(con.game)[1]
        if c >= 0.5:
            assert best == pytest.approx(ref, abs=1e-12), c
        else:
            assert best > ref + 1e-9, c

def test_chain_matches_formula_small_n_multi_round():
    # at c = 0 every later agent is indifferent at every step, so the tie tree
    # only stays enumerable for moderate n once the walk runs several rounds
    cases = [(n, c) for n in (2, 3, 5, 8, 20) for c in (0.25, 0.75, 1.0)]
    cases += [(n, 0.0) for n in (2, 5, 12)]
    for n, c in cases:
        con = build_common_interest_chain(n, c)
        target = n / ((n - 1) * (1 + c) + c)
        for k in (1, 2, 3):
            assert measured_ratio(con, k) == pytest.approx(target, abs=1e-9)


def test_stack_or_spread():
    con = build_stack_or_spread(2, make_utility_rule((1.0, 0.0)))
    assert measured_ratio(con, 1) == pytest.approx(0.5, abs=1e-12)
    con = build_stack_or_spread(5, make_utility_rule((1.0,) * 5))
    assert measured_ratio(con, 1) == pytest.approx(0.2, abs=1e-12)
    con = build_stack_or_spread(1, make_utility_rule((1.0,)))
    assert measured_ratio(con, 1) == 1.0


def test_stack_or_spread_matches_truncated_formula():
    f = design_asymptotic(1, 1.0, 8)
    con = build_stack_or_spread(4, f)
    assert con.game.n_resources == 5
    ft = [f.eval(i) for i in range(1, 5)]
    assert con.meta["target_ratio"] == 1.0 / (1.0 + sum(ft) - min(ft))
    assert measured_ratio(con, 1) == pytest.approx(con.meta["target_ratio"], abs=1e-12)


def test_constructions_are_normalized():
    for con in (
        build_greedy_trap(0.1),
        build_two_agent_worst_case(0.5, design_one_round(0.5)),
        build_common_interest_chain(4, 0.5),
        build_stack_or_spread(3, make_utility_rule((1.0, 0.5, 0.25))),
    ):
        g = con.game
        g.validate_tabulation()
        assert all(r.welfare.values[0] == 1.0 for r in g.resources)


def test_poa_witness_mechanism():
    w = make_welfare_rule("set_covering", 6)
    f = design_common_interest(w)
    sol = solve_poa_lp(w, f, 3)
    con = build_poa_witness(sol, 24)
    g = con.game
    ne = con.meta["nash_action"]
    assert is_nash(g, ne)
    assert one_round_can_end_at(g, ne)
    ratio = welfare(g, ne) / welfare(g, con.meta["optimal_action"])
    assert abs(ratio - con.meta["poa"]) <= 5 * con.meta["max_width"] / 24
    # the walk can also stop at ne exactly
    from resgames import adversarial_min_welfare

    worst, _ = adversarial_min_welfare(g, 1, cap=200_000)
    assert worst <= welfare(g, ne) + 1e-9


@pytest.mark.parametrize("n1", [3, 4, 5, 6])
@pytest.mark.parametrize("design", ["common_interest", "asymptotic", "pareto"])
def test_poa_witness_of_the_exact_lp_basis(design, n1):
    # the basis may differ from the one a simplex solver picks where the LP
    # has several optima; the witness must realise whichever one it gets
    w = make_welfare_rule("set_covering", 8)
    f = {"common_interest": design_common_interest(w), "asymptotic": design_asymptotic(1, 1.0, 8),
         "pareto": design_pareto_setcov(chi=0.8, j_max=8)}[design]
    sol = solve_poa_lp(w, f, n1)
    con = build_poa_witness(sol, 24)
    g = con.game
    ne = con.meta["nash_action"]
    assert is_nash(g, ne)
    assert one_round_can_end_at(g, ne)
    ratio = welfare(g, ne) / welfare(g, con.meta["optimal_action"])
    assert abs(ratio - con.meta["poa"]) <= 5 * con.meta["max_width"] / 24


def test_poa_witness_of_irregular_weights_is_small():
    # integer block counts for these LP weights would need 1,084,483 unit
    # resources per position; one weighted resource per position needs 24
    sol = solve_poa_lp(make_welfare_rule("set_covering", 6), design_asymptotic(1, 1.0, 8), 3)
    start = time.perf_counter()
    con = build_poa_witness(sol, 12)
    g = con.game
    assert g.n_resources == sum(t > 1e-9 for t in sol.theta) * con.meta["d_span"]
    assert is_nash(g, con.meta["nash_action"])
    assert one_round_can_end_at(g, con.meta["nash_action"])
    assert time.perf_counter() - start < 1.0
