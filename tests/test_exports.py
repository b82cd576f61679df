import types

import resgames

# The package's public surface.  A change that adds or drops an export edits
# this list, and the export count in ROADMAP.md with it.
EXPORTS = [
    "ADVERSARIAL", "BoundResult", "BudgetExceededError", "CHI_MIN", "Construction", "DesignSpec",
    "EnumerationCapError", "ExperimentConfig", "ExperimentResult", "FrontierPoint", "Game",
    "INCUMBENT_THEN_LEX", "JointAction", "LPInstance", "LPSolution", "Resource", "Row", "Step",
    "SummaryRow", "TOL", "Trajectory", "UtilityRule", "ValidationError", "WelfareRule",
    "adversarial_min_welfare", "apply_design", "best_responses", "build_common_interest_chain",
    "build_greedy_trap", "build_poa_lp", "build_poa_witness", "build_stack_or_spread",
    "build_two_agent_worst_case", "curvature", "design_asymptotic", "design_common_interest",
    "design_one_round", "design_pareto_setcov", "efficiency", "export_result", "frontier_setcov",
    "game_from_dict", "game_to_dict", "gen_wta", "is_nash", "k_round_walk", "load_game",
    "load_raw_csv", "make_utility_rule", "make_welfare_rule", "measured_ratio", "one_round_bound",
    "one_round_can_end_at", "one_round_setcov", "optimum", "poa_closed_form", "poa_lp",
    "reachable_nash_min", "resolve_design", "round_robin_schedule", "run_experiment", "save_game",
    "selection_counts", "solve_poa_lp", "theory_bounds", "trajectory_to_jsonl", "utility_full",
    "utility_mc", "walk_to_nash", "welfare",
]


def test_public_names_are_pinned():
    public = sorted(name for name, value in vars(resgames).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == EXPORTS
    assert len(EXPORTS) == 70
