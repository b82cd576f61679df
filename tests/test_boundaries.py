"""Each input check of the library, asserted at the one place that makes it."""
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from resgames import (
    ExperimentConfig,
    LPSolution,
    UtilityRule,
    ValidationError,
    adversarial_min_welfare,
    build_common_interest_chain,
    build_greedy_trap,
    build_poa_lp,
    build_poa_witness,
    build_stack_or_spread,
    build_two_agent_worst_case,
    design_asymptotic,
    design_common_interest,
    design_one_round,
    design_pareto_setcov,
    frontier_setcov,
    gen_wta,
    k_round_walk,
    make_welfare_rule,
    one_round_bound,
    one_round_setcov,
    poa_closed_form,
    poa_lp,
    solve_poa_lp,
    theory_bounds,
)
from resgames import model
from resgames.designs import pareto_setcov_values

SETCOV = make_welfare_rule("set_covering", 8)
BENT = make_welfare_rule("bent", 8, b=1, curvature=0.5)
WTA = make_welfare_rule("wta", 8, p=0.5)
ZERO_F = UtilityRule((0.0,))  # f(1) = 0: the LP is unbounded at every scale of w


def _no_active_variables():
    inst = build_poa_lp(BENT, design_one_round(0.5), 3)
    return LPSolution("optimal", 1.0, np.zeros(len(inst.objective)), {}, inst)


@pytest.mark.parametrize("call,fragment", [
    (lambda: one_round_bound(BENT, design_one_round(0.5), 0), "y_max must be positive"),
    (lambda: one_round_setcov(design_common_interest(SETCOV), 0), "j_trunc must be positive"),
    (lambda: poa_closed_form(SETCOV, design_common_interest(SETCOV), "setcov"), "number of agents n"),
    (lambda: poa_closed_form(BENT, UtilityRule((1.0, 2.0)), "bent"), "nonincreasing f with f(1) = 1"),
    (lambda: poa_closed_form(WTA, design_common_interest(WTA), "wta"),
     "no closed form for family 'wta'; setcov and bent have one"),
    (lambda: build_poa_lp(BENT, design_one_round(0.5), 0), "n must be positive"),
    (lambda: theory_bounds(0.5, 2, "asymptotic_one_round"), "is a one-round guarantee"),
    (lambda: theory_bounds(0.5, "one", "bogus"), "unknown design 'bogus'"),
    (lambda: design_one_round(1.5), "curvature must lie in [0, 1]"),
    (lambda: design_one_round(0.5, 0), "j_max must be positive"),
    (lambda: design_asymptotic(0, 0.5, 8), "b must be an integer >= 1"),
    (lambda: design_asymptotic(1, 1.5, 8), "curvature must lie in [0, 1]"),
    (lambda: design_asymptotic(1, 0.5, 1), "j_max must be at least 2"),
    (lambda: make_welfare_rule("bogus", 3), "unknown welfare family 'bogus'"),
    (lambda: make_welfare_rule("wta", 3, p="0.5"), "wta rule needs hit probability p in (0, 1]"),
    (lambda: build_common_interest_chain(1, 0.5), "need at least two agents"),
    (lambda: build_common_interest_chain(4, 1.5), "bent rule needs curvature in [0, 1]"),
    (lambda: build_two_agent_worst_case(1.5, design_one_round(0.5)), "bent rule needs curvature in [0, 1]"),
    (lambda: build_two_agent_worst_case(None, design_one_round(0.5)), "bent rule needs curvature in [0, 1]"),
    (lambda: build_two_agent_worst_case("0.5", design_one_round(0.5)), "bent rule needs curvature in [0, 1]"),
    (lambda: build_poa_witness(solve_poa_lp(SETCOV, ZERO_F, 3), 12), "need an optimal LP solution"),
    (lambda: build_poa_witness(solve_poa_lp(BENT, design_one_round(0.5), 3), 3), "n2 must exceed"),
    (lambda: build_poa_witness(_no_active_variables(), 12), "LP solution has no active variables"),
    (lambda: poa_lp(SETCOV, ZERO_F, 3), "price-of-anarchy LP did not solve: unbounded"),
    (lambda: ExperimentConfig(master_seed=1.5), "master_seed must be an integer"),
    # the Philox key overflows past 64 bits, and wraps 2**63 onto -2**63
    (lambda: ExperimentConfig(master_seed=2**64), "master_seed must lie in [-2**63, 2**63)"),
    (lambda: ExperimentConfig(master_seed=-2**63 - 1), "master_seed must lie in [-2**63, 2**63)"),
    (lambda: ExperimentConfig(master_seed=2**63), "master_seed must lie in [-2**63, 2**63)"),
    (lambda: ExperimentConfig(p_hit=0.0), "p_hit must lie in (0, 1]"),
    # an empty design list is refused, not replaced by the defaults
    (lambda: ExperimentConfig(designs=()), "at least one design"),
    (lambda: ExperimentConfig.from_dict({"designs": []}), "at least one design"),
    # a bool once passed for a real number, and a string raised a bare TypeError
    (lambda: make_welfare_rule("wta", 3, p=True), "wta rule needs hit probability p in (0, 1]"),
    (lambda: make_welfare_rule("bent", 3, curvature=True), "bent rule needs curvature in [0, 1]"),
    (lambda: design_one_round(False), "curvature must lie in [0, 1]"),
    (lambda: design_one_round("0.5"), "curvature must lie in [0, 1]"),
    (lambda: design_asymptotic(1, True, 8), "curvature must lie in [0, 1]"),
    (lambda: design_asymptotic(1, "0.5", 8), "curvature must lie in [0, 1]"),
    (lambda: theory_bounds(True, 1, "optimal"), "curvature must lie in [0, 1]"),
    (lambda: theory_bounds("0.5", 1, "optimal"), "curvature must lie in [0, 1]"),
    (lambda: design_pareto_setcov(chi=True), "chi must lie in [1/(e-1), 1]"),
    (lambda: design_pareto_setcov(chi="0.6"), "chi must lie in [1/(e-1), 1]"),
    (lambda: pareto_setcov_values(q="0.6"), "q must lie in [1/2, 1 - 1/e]"),
    (lambda: build_greedy_trap("0.5"), "eps must lie in (0, 1)"),
], ids=["one_round_bound-y_max", "one_round_setcov-j_trunc", "closed_form-setcov-n",
        "closed_form-bent-rising_f", "closed_form-family", "poa_lp-n", "theory_bounds-rounds",
        "theory_bounds-design", "design_one_round-c", "design_one_round-j_max", "design_asymptotic-b",
        "design_asymptotic-c", "design_asymptotic-j_max", "welfare-family", "welfare-wta_p_str", "chain-n",
        "chain-c", "two_agent-c", "two_agent-c_none", "two_agent-c_str", "witness-unbounded", "witness-n2",
        "witness-no_active", "poa_lp-unbounded", "config-seed", "config-seed_above", "config-seed_below",
        "config-seed_alias", "config-p_hit", "config-no_designs", "config-no_designs_in_file",
        "welfare-wta_p_bool", "welfare-bent_c_bool", "design_one_round-c_bool", "design_one_round-c_str",
        "design_asymptotic-c_bool", "design_asymptotic-c_str", "theory_bounds-c_bool", "theory_bounds-c_str",
        "pareto-chi_bool", "pareto-chi_str", "pareto-q_str", "greedy_trap-eps_str"])
def test_bad_input_fails_at_its_one_check(call, fragment):
    with pytest.raises(ValidationError) as exc:
        call()
    assert fragment in str(exc.value)


def test_master_seeds_in_range_key_distinct_instances():
    # seeds in [2**63, 2**64) once aliased: 2**63 + 1 and 2**63 + 2 drew one instance
    seeds = (-2**63, -1, 0, 2**62 + 1, 2**62 + 2, 2**63 - 1)
    values = {tuple(r.value for r in gen_wta(ExperimentConfig(master_seed=s), 0).resources) for s in seeds}
    assert len(values) == len(seeds)


CHAIN = build_common_interest_chain(3, 0.5).game
CI_SETCOV = design_common_interest(SETCOV)


@pytest.mark.parametrize("call,fragment", [
    (lambda: make_welfare_rule("set_covering", 2.5), "j_max must be an integer, got 2.5"),
    (lambda: make_welfare_rule("set_covering", True), "j_max must be an integer, got True"),
    (lambda: k_round_walk(CHAIN, True), "k must be a positive integer, got True"),
    (lambda: adversarial_min_welfare(CHAIN, True), "k must be a positive integer, got True"),
    (lambda: one_round_bound(BENT, design_one_round(0.5), True), "y_max must be an integer, got True"),
    (lambda: one_round_bound(BENT, design_one_round(0.5), 2.5), "y_max must be an integer, got 2.5"),
    (lambda: poa_closed_form(SETCOV, CI_SETCOV, "setcov", n=True), "n must be an integer, got True"),
    (lambda: poa_closed_form(SETCOV, CI_SETCOV, "setcov", n=2.5), "n must be an integer, got 2.5"),
    (lambda: poa_closed_form(BENT, design_one_round(0.5), "bent", j_max=True), "j_max must be an integer, got True"),
    (lambda: poa_closed_form(BENT, design_one_round(0.5), "bent", j_max=2.5), "j_max must be an integer, got 2.5"),
    (lambda: build_poa_lp(BENT, design_one_round(0.5), 2.5), "n must be an integer, got 2.5"),
    (lambda: solve_poa_lp(SETCOV, CI_SETCOV, True), "n must be an integer, got True"),
    (lambda: poa_lp(SETCOV, CI_SETCOV, True), "n must be an integer, got True"),
    (lambda: one_round_setcov(CI_SETCOV, True), "j_trunc must be an integer, got True"),
    (lambda: one_round_setcov(CI_SETCOV, 2.5), "j_trunc must be an integer, got 2.5"),
    (lambda: design_one_round(0.5, True), "j_max must be an integer, got True"),
    (lambda: design_one_round(0.5, 2.5), "j_max must be an integer, got 2.5"),
    (lambda: design_asymptotic(1, 0.5, 2.5), "j_max must be an integer, got 2.5"),
    (lambda: pareto_setcov_values(q=0.6, j_max=True), "j_max must be an integer, got True"),
    (lambda: pareto_setcov_values(q=0.6, j_max=2.5), "j_max must be an integer, got 2.5"),
    (lambda: frontier_setcov(0.6, 2.5), "j_max must be an integer, got 2.5"),
    (lambda: theory_bounds(0.5, True, "optimal"), "cannot interpret round count True"),
    (lambda: theory_bounds(0.5, 1.0, "optimal"), "cannot interpret round count 1.0"),
    (lambda: build_common_interest_chain(3.0, 0.5), "need at least two agents"),
    (lambda: build_stack_or_spread(2.0, CI_SETCOV), "need at least one agent"),
    (lambda: build_poa_witness(solve_poa_lp(BENT, design_one_round(0.5), 3), 40.0), "n2 must be an integer, got 40.0"),
], ids=["welfare-j_max_float", "welfare-j_max_bool", "k_round_walk-k_bool", "adversarial-k_bool",
        "one_round_bound-y_max_bool", "one_round_bound-y_max_float", "closed_form-setcov-n_bool",
        "closed_form-setcov-n_float", "closed_form-bent-j_max_bool", "closed_form-bent-j_max_float",
        "build_poa_lp-n_float", "solve_poa_lp-n_bool", "poa_lp-n_bool", "one_round_setcov-j_trunc_bool",
        "one_round_setcov-j_trunc_float", "design_one_round-j_max_bool", "design_one_round-j_max_float",
        "design_asymptotic-j_max_float", "pareto-j_max_bool", "pareto-j_max_float", "frontier-j_trunc_float",
        "theory_bounds-rounds_bool", "theory_bounds-rounds_float", "chain-n_float", "stack_or_spread-n_float",
        "witness-n2_float"])
def test_size_arguments_are_integers(call, fragment):
    # booleans and floats once ran as sizes, or raised a bare TypeError
    with pytest.raises(ValidationError) as exc:
        call()
    assert fragment in str(exc.value)



@pytest.mark.parametrize("call,fragment", [
    (lambda: make_welfare_rule("bent", 4, b=True, curvature=0.5), "bent rule needs integer b >= 1"),
    (lambda: make_welfare_rule("bent", 4, b=2.0, curvature=0.5), "bent rule needs integer b >= 1"),
    (lambda: make_welfare_rule("bent", 4, b=1.0, curvature=0.5), "bent rule needs integer b >= 1"),
    (lambda: design_asymptotic(True, 0.5, 8), "b must be an integer >= 1"),
    (lambda: design_asymptotic(1.0, 0.5, 8), "b must be an integer >= 1"),
    (lambda: design_asymptotic(2.0, 1.0, 8), "b must be an integer >= 1"),
], ids=["welfare-b_bool", "welfare-b_float2", "welfare-b_float1", "asymptotic-b_bool", "asymptotic-b_float1",
        "asymptotic-b_float2"])
def test_the_bend_is_an_integer(call, fragment):
    # a bool or an integral float once passed for the bend and built a rule
    with pytest.raises(ValidationError) as exc:
        call()
    assert fragment in str(exc.value)


def test_size_arguments_take_numpy_integers():
    f = design_one_round(0.5)
    assert one_round_bound(BENT, f, np.int64(20)) == one_round_bound(BENT, f, 20)
    assert poa_lp(SETCOV, CI_SETCOV, np.int64(4)) == poa_lp(SETCOV, CI_SETCOV, 4)
    assert (poa_closed_form(SETCOV, CI_SETCOV, "setcov", n=np.int64(4))
            == poa_closed_form(SETCOV, CI_SETCOV, "setcov", n=4))
    assert make_welfare_rule("set_covering", np.int64(3)) == make_welfare_rule("set_covering", 3)
    assert design_asymptotic(1, 0.5, np.int64(6)) == design_asymptotic(1, 0.5, 6)
    assert design_asymptotic(np.int64(2), 1.0, 6) == design_asymptotic(2, 1.0, 6)
    assert (make_welfare_rule("bent", 4, b=np.int64(2), curvature=0.5)
            == make_welfare_rule("bent", 4, b=2, curvature=0.5))
    assert k_round_walk(CHAIN, np.int64(2)) == k_round_walk(CHAIN, 2)


BIG = 10**12


@pytest.mark.parametrize("call,name", [
    (lambda: make_welfare_rule("bent", BIG, b=1, curvature=0.5), "j_max"),
    (lambda: make_welfare_rule("set_covering", BIG), "j_max"),
    (lambda: make_welfare_rule("wta", BIG, p=0.5), "j_max"),
    (lambda: make_welfare_rule("harmonic", BIG), "j_max"),
    (lambda: design_one_round(0.5, BIG), "j_max"),
    (lambda: design_asymptotic(1, 0.5, BIG), "j_max"),
    (lambda: design_pareto_setcov(q=0.6, j_max=BIG), "j_max"),
    (lambda: pareto_setcov_values(q=0.6, j_max=BIG), "j_max"),
    (lambda: frontier_setcov(0.6, BIG), "j_max"),
    (lambda: one_round_bound(BENT, design_one_round(0.5), BIG), "y_max"),
    (lambda: one_round_setcov(CI_SETCOV, BIG), "j_trunc"),
    (lambda: poa_closed_form(SETCOV, CI_SETCOV, "setcov", n=BIG), "n"),
    (lambda: poa_closed_form(BENT, design_one_round(0.5), "bent", j_max=BIG), "j_max"),
    (lambda: build_stack_or_spread(10**11, CI_SETCOV), "j_max"),
    (lambda: make_welfare_rule("set_covering", 10**7 + 1), "j_max"),
], ids=["welfare-bent", "welfare-set_covering", "welfare-wta", "welfare-harmonic", "design_one_round",
        "design_asymptotic", "design_pareto_setcov", "pareto_values", "frontier-j_trunc", "one_round_bound-y_max",
        "one_round_setcov-j_trunc", "closed_form-setcov-n", "closed_form-bent-j_max", "stack_or_spread-n",
        "welfare-one_past"])
def test_table_lengths_past_the_ceiling_are_refused_unallocated(call, name):
    # the bent, WTA and harmonic tables once grew as tuples until memory ran out
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as exc:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == f"{name} must be at most 10000000, the most entries a table may have"
    assert peak < 1_000_000


def test_the_table_ceiling_admits_its_own_length():
    with mock.patch.object(model, "_CEILING", 5):
        assert make_welfare_rule("set_covering", 5).j_max == 5
        assert design_one_round(0.5, 5).j_max == 5
        with pytest.raises(ValidationError, match="^j_max must be at most 5, the most entries a table may have$"):
            make_welfare_rule("set_covering", 6)
