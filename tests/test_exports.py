import dataclasses
import inspect
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


# The public settable options, counted as ROADMAP.md counts them: the defaulted
# parameters of exported functions and public methods, plus the defaulted
# fields of exported dataclasses.  A change that adds or drops an option edits
# this list, and the option count in ROADMAP.md with it.
OPTIONS = [
    "DesignSpec.b", "DesignSpec.c", "DesignSpec.chi", "DesignSpec.label", "DesignSpec.q",
    "ExperimentConfig.action_width", "ExperimentConfig.actions_per_agent", "ExperimentConfig.designs",
    "ExperimentConfig.master_seed", "ExperimentConfig.n_agents", "ExperimentConfig.n_instances",
    "ExperimentConfig.n_targets", "ExperimentConfig.p_hit", "ExperimentConfig.rounds", "Resource.value",
    "UtilityRule.tail_value", "WelfareRule.label", "adversarial_min_welfare(cap)", "adversarial_min_welfare(k)",
    "adversarial_min_welfare(schedule)", "build_greedy_trap(f_values)", "design_one_round(j_max)",
    "design_pareto_setcov(chi)", "design_pareto_setcov(j_max)", "design_pareto_setcov(q)", "efficiency(tie_break)",
    "k_round_walk(schedule)", "make_utility_rule(tail_value)", "make_welfare_rule(b)",
    "make_welfare_rule(curvature)", "make_welfare_rule(p)", "measured_ratio(k)", "one_round_bound(y_max)",
    "poa_closed_form(j_max)", "poa_closed_form(n)", "reachable_nash_min(cap)",
]


def _defaulted(name: str, fn) -> list[str]:
    return [f"{name}({p.name})" for p in inspect.signature(fn).parameters.values() if p.default is not p.empty]


def test_public_options_are_pinned():
    options = []
    for name in EXPORTS:
        value = getattr(resgames, name)
        if inspect.isfunction(value):
            options += _defaulted(name, value)
        elif inspect.isclass(value):
            for attr, member in vars(value).items():
                member = getattr(member, "__func__", member)  # a static or class method
                if not attr.startswith("_") and inspect.isfunction(member):
                    options += _defaulted(f"{name}.{attr}", member)
            if dataclasses.is_dataclass(value):
                options += [f"{name}.{f.name}" for f in dataclasses.fields(value)
                            if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING]
    assert sorted(options) == OPTIONS
    assert len(OPTIONS) == 36
