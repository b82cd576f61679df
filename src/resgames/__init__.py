"""Best-response walk dynamics and utility design in submodular resource allocation games."""

from .model import (
    TOL,
    Game,
    JointAction,
    Resource,
    UtilityRule,
    ValidationError,
    WelfareRule,
    curvature,
    make_utility_rule,
    make_welfare_rule,
    selection_counts,
    utility_full,
    utility_mc,
    welfare,
)
from .dynamics import (
    ADVERSARIAL,
    INCUMBENT_THEN_LEX,
    LEXICOGRAPHIC,
    BudgetExceededError,
    EnumerationCapError,
    Step,
    Trajectory,
    adversarial_min_welfare,
    best_responses,
    efficiency,
    is_nash,
    k_round_walk,
    one_round_can_end_at,
    optimum,
    reachable_nash_min,
    round_robin_schedule,
    walk_to_nash,
)
from .designs import (
    CHI_MIN,
    DesignSpec,
    apply_design,
    design_asymptotic,
    design_common_interest,
    design_one_round,
    design_pareto_setcov,
    resolve_design,
)
from .analytics import (
    BoundResult,
    FrontierPoint,
    LPInstance,
    LPSolution,
    build_poa_lp,
    frontier_setcov,
    one_round_bound,
    one_round_setcov,
    poa_closed_form,
    poa_lp,
    solve_poa_lp,
    theory_bounds,
)
from .constructions import (
    Construction,
    build_common_interest_chain,
    build_greedy_trap,
    build_poa_witness,
    build_stack_or_spread,
    build_two_agent_worst_case,
    measured_ratio,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    Row,
    SummaryRow,
    export_result,
    gen_wta,
    load_raw_csv,
    run_experiment,
)
from .io import game_from_dict, game_to_dict, load_game, save_game, trajectory_to_jsonl

__version__ = "0.1.0"
