"""Each input check of the library, asserted at the one place that makes it."""
import numpy as np
import pytest

from resgames import (
    ExperimentConfig,
    LPSolution,
    UtilityRule,
    ValidationError,
    build_common_interest_chain,
    build_poa_lp,
    build_poa_witness,
    build_two_agent_worst_case,
    design_asymptotic,
    design_common_interest,
    design_one_round,
    gen_wta,
    make_welfare_rule,
    one_round_bound,
    one_round_setcov,
    poa_closed_form,
    poa_lp,
    solve_poa_lp,
    theory_bounds,
)

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
], ids=["one_round_bound-y_max", "one_round_setcov-j_trunc", "closed_form-setcov-n",
        "closed_form-bent-rising_f", "closed_form-family", "poa_lp-n", "theory_bounds-rounds",
        "theory_bounds-design", "design_one_round-c", "design_one_round-j_max", "design_asymptotic-b",
        "design_asymptotic-c", "design_asymptotic-j_max", "welfare-family", "welfare-wta_p_str", "chain-n",
        "chain-c", "two_agent-c", "two_agent-c_none", "two_agent-c_str", "witness-unbounded", "witness-n2",
        "witness-no_active", "poa_lp-unbounded", "config-seed", "config-seed_above", "config-seed_below",
        "config-seed_alias", "config-p_hit", "config-no_designs", "config-no_designs_in_file"])
def test_bad_input_fails_at_its_one_check(call, fragment):
    with pytest.raises(ValidationError) as exc:
        call()
    assert fragment in str(exc.value)


def test_master_seeds_in_range_key_distinct_instances():
    # seeds in [2**63, 2**64) once aliased: 2**63 + 1 and 2**63 + 2 drew one instance
    seeds = (-2**63, -1, 0, 2**62 + 1, 2**62 + 2, 2**63 - 1)
    values = {tuple(r.value for r in gen_wta(ExperimentConfig(master_seed=s), 0).resources) for s in seeds}
    assert len(values) == len(seeds)
