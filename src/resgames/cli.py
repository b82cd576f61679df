"""Command line interface.

Exit codes: 0 success, 2 validation/usage error, 3 budget or enumeration cap.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import io
from .analytics import (
    frontier_setcov,
    one_round_bound,
    one_round_setcov,
    poa_closed_form,
    poa_lp,
    solve_poa_lp,
    theory_bounds,
)
from .constructions import (
    build_common_interest_chain,
    build_greedy_trap,
    build_poa_witness,
    build_stack_or_spread,
    build_two_agent_worst_case,
)
from .designs import DesignSpec, resolve_design
from .dynamics import (
    ADVERSARIAL,
    INCUMBENT_THEN_LEX,
    BudgetExceededError,
    EnumerationCapError,
    adversarial_min_welfare,
    k_round_walk,
    reachable_nash_min,
    walk_to_nash,
)
from .experiments import ExperimentConfig, export_result, run_experiment
from .model import UtilityRule, ValidationError, make_welfare_rule, welfare


def _spec(args):
    return DesignSpec(args.design, c=args.C, b=args.b, chi=args.chi, q=args.q)


def _rules(args, n, f_len=None):
    """The --welfare rule tabulated to n and its --design rule tabulated to f_len (default n)."""
    fam = "set_covering" if args.welfare == "setcov" else args.welfare
    w = make_welfare_rule(fam, n, b=args.b, curvature=args.C, p=args.p)
    return w, resolve_design(_spec(args), w, n if f_len is None else f_len)


def grid(text):
    """A number, or start:stop:step with a finite nonzero step toward stop and at most 10^6 points."""
    if ":" not in text:
        return [float(text)]
    start, stop, step = (float(t) for t in text.split(":"))
    if not all(map(math.isfinite, (start, stop, step))) or step == 0 or (stop - start) * step < 0:
        raise ValueError(text)
    span = (stop - start) / step
    if not span < 10**6 - 0.5:  # round(span) + 1 points; an overflow to inf fails here too
        raise ValueError(text)
    n = int(round(span))
    return [start + i * step for i in range(n + 1)]


def comma_ints(text):
    return [int(t) for t in text.split(",")]


def comma_floats(text):
    return [float(t) for t in text.split(",")]


def walk_rounds(text):
    return math.inf if text == "inf" else int(text)


def _check_output_path(path, directory=False):
    """Raises OSError when the nearest existing ancestor of ``path`` (``path``
    itself counts for a directory) is not a directory.  Creates nothing."""
    p = Path(path).absolute()
    near = next(a for a in ([p] if directory else []) + list(p.parents) if a.exists())
    if not near.is_dir():
        what = "create output directory" if directory else "write"
        raise OSError(f"cannot {what} {path}: {near} is not a directory")


def _refuse_unread(args, read):
    """Raises unless every flag outside ``read`` is at its default for the
    command's --kind or --route."""
    selector = "kind" if args.command == "construct" else "route"
    choice = getattr(args, selector)
    argv = [args.command, f"--{selector}={choice}"] + ([f"--out={args.out}"] if args.out is not None else [])
    defaults = vars(build_parser().parse_args(argv))
    unread = [f"--{k.replace('_', '-')}" for k, v in vars(args).items() if k not in read and v != defaults[k]]
    if unread:
        raise ValidationError(f"--{selector} {choice} does not read {', '.join(unread)}")


def _emit(lines, out):
    data = "\n".join(lines) + "\n"
    if out in (None, "-"):
        sys.stdout.write(data)
    else:
        Path(out).write_text(data)


def _cmd_simulate(args):
    if args.out:
        _check_output_path(args.out)
    g = io.load_game(args.game)
    tb = INCUMBENT_THEN_LEX if args.tiebreak == "incumbent" else args.tiebreak
    if args.k == math.inf and args.schedule is None:
        if tb == ADVERSARIAL:
            if args.out:
                raise ValidationError("--out writes a walk, but --k inf --tiebreak adversarial finds a state")
            w, state = reachable_nash_min(g, cap=args.cap)
            print(f"limit_welfare={w!r} state={list(state)}")
            return 0
        traj = walk_to_nash(g, tb)
    elif tb == ADVERSARIAL:
        _, traj = adversarial_min_welfare(g, args.k, cap=args.cap, schedule=args.schedule)
    else:
        traj = k_round_walk(g, args.k, tb, args.schedule)
    if args.out:
        io.trajectory_to_jsonl(g, traj, args.out)
    print(f"final_welfare={traj.final_welfare!r} final_action={list(traj.final)}")
    return 0


def _cmd_design(args):
    _, f = _rules(args, args.jmax)
    if args.format == "json":
        _emit([json.dumps({"family": args.design, "values": list(f.values), "tail_value": f.tail_value})], args.out)
    else:
        lines = ["j,f_j"] + [f"{j + 1},{v!r}" for j, v in enumerate(f.values)]
        _emit(lines, args.out)
    return 0


def _cmd_analyze(args):
    _refuse_unread(args, READS[args.route])
    lines = ["parameter,value,truncation_flag"]
    if args.route == "bounds":
        for c in args.C_grid:
            v = theory_bounds(c, args.k, args.design)
            lines.append(f"{c!r},{v!r},False")
    elif args.route == "frontier":
        for q in args.Q_grid:
            pt = frontier_setcov(q, args.jtrunc)
            lines.append(f"{q!r},{pt.one_round!r},False")
    elif args.route == "closed-form":
        w, f = _rules(args, max(args.n + 2, args.jmax))
        res = poa_closed_form(w, f, args.welfare, n=args.n, j_max=args.jmax)
        lines.append(f"{args.n},{res.value!r},{res.truncated}")
    elif args.route == "one-round":
        setcov = args.welfare == "setcov"  # the set-covering route sums f to --jtrunc
        w, f = _rules(args, args.jmax, args.jtrunc if setcov else args.jmax + 2)
        if setcov:
            lines.append(f"{args.jtrunc},{one_round_setcov(f, args.jtrunc)!r},False")
        else:
            res = one_round_bound(w, f, args.jmax)
            lines.append(f"{args.jmax},{res.value!r},{res.truncated}")
    elif args.route == "lp":
        lines.append(f"{args.N},{poa_lp(*_rules(args, args.N + 2), args.N)!r},False")
    _emit(lines, args.out)
    return 0


def _cmd_construct(args):
    _check_output_path(args.out)
    read = READS[args.kind]
    if args.kind == "two_agent_worst_case" and args.f_values is not None:
        read = read - {"design", "b", "chi", "q"}  # --f-values is the rule
    _refuse_unread(args, read)
    if args.kind in ("two_agent_worst_case", "ci_chain") and args.C is None:
        raise ValidationError(f"--kind {args.kind} needs the welfare curvature --C")
    if args.kind == "greedy_trap":
        con = build_greedy_trap(args.eps, args.f_values)
    elif args.kind == "two_agent_worst_case":
        if args.f_values:
            f = UtilityRule(tuple(args.f_values))
        else:
            f = resolve_design(_spec(args), make_welfare_rule("bent", 2, b=1, curvature=args.C), 8)
        con = build_two_agent_worst_case(args.C, f)
    elif args.kind == "ci_chain":
        con = build_common_interest_chain(args.n, args.C)
    elif args.kind == "stack_or_spread":
        w = make_welfare_rule("set_covering", max(args.n, 2))
        f = resolve_design(_spec(args), w, max(args.n, 2))
        con = build_stack_or_spread(args.n, f)
    elif args.kind == "poa_witness":
        w, f = _rules(args, args.N1 + 2)
        sol = solve_poa_lp(w, f, args.N1)
        con = build_poa_witness(sol, args.N2)
    io.save_game(con.game, args.out)
    meta_path = Path(args.out).with_suffix(".meta.json")
    with meta_path.open("w") as fh:
        json.dump(con.meta, fh, indent=1, default=list)
        fh.write("\n")
    print(f"wrote {args.out} and {meta_path}")
    return 0


def _cmd_experiment(args):
    _check_output_path(args.out_dir, directory=True)
    cfg = ExperimentConfig.from_dict(io.load_json(args.config)) if args.config else ExperimentConfig()
    res = run_experiment(cfg)
    paths = export_result(res, args.format, args.out_dir)
    for p in paths:
        print(f"wrote {p}")
    return 0


_DESIGN_FLAGS = {"design", "C", "b", "chi", "q", "p"}

#: The flags each construct kind and analyze route reads; each refuses any other flag not at its default.
READS = {
    "greedy_trap": {"eps", "f_values"},
    "two_agent_worst_case": {"C", "f_values", "design", "b", "chi", "q"},
    "ci_chain": {"n", "C"},
    "stack_or_spread": {"n", "design", "C", "b", "chi", "q"},
    "poa_witness": {"N1", "N2", "welfare", *_DESIGN_FLAGS},
    "closed-form": {"welfare", "n", "jmax", *_DESIGN_FLAGS},
    "lp": {"welfare", "N", *_DESIGN_FLAGS},
    "frontier": {"Q_grid", "jtrunc"},
    "bounds": {"C_grid", "k", "design"},
    "one-round": {"welfare", "jmax", "jtrunc", *_DESIGN_FLAGS},
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="resgames")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a best-response walk on a game JSON")
    sim.add_argument("--game", required=True)
    sim.add_argument("--k", type=walk_rounds, default="1", help="number of rounds, or 'inf'")
    sim.add_argument("--tiebreak", default="incumbent",
                     choices=["incumbent", "lexicographic", "adversarial"])
    sim.add_argument("--cap", type=int, default=500_000)
    sim.add_argument("--schedule", type=comma_ints, default=None, help="comma-separated player indices")
    sim.add_argument("--out", default=None, help="trajectory JSONL path")
    sim.set_defaults(func=_cmd_simulate)

    def add_design_flags(sp, default_design=None, extra_choices=()):
        sp.add_argument("--design", default=default_design,
                        choices=["common_interest", "one_round", "asymptotic", "pareto",
                                 *extra_choices])
        sp.add_argument("--C", type=float, default=None)
        sp.add_argument("--b", type=int, default=1)
        sp.add_argument("--chi", type=float, default=None)
        sp.add_argument("--q", type=float, default=None)
        sp.add_argument("--p", type=float, default=0.5)
        sp.add_argument("--welfare", default="setcov", choices=["setcov", "bent", "wta", "harmonic"])

    des = sub.add_parser("design", help="tabulate a utility rule")
    add_design_flags(des)
    des.add_argument("--jmax", type=int, default=16)
    des.add_argument("--format", default="csv", choices=["csv", "json"])
    des.add_argument("--out", default=None)
    des.set_defaults(func=_cmd_design)

    ana = sub.add_parser("analyze", help="closed-form, LP, frontier, and bound values")
    ana.add_argument("--route", required=True,
                     choices=["closed-form", "lp", "frontier", "bounds", "one-round"])
    ana.add_argument("--C-grid", dest="C_grid", type=grid, default="0:1:0.25")
    ana.add_argument("--Q-grid", dest="Q_grid", type=grid, default="0.5")
    ana.add_argument("--k", type=lambda t: int(t) if t.isdigit() else t, default="one")
    ana.add_argument("--n", type=int, default=50)
    ana.add_argument("--N", type=int, default=8)
    ana.add_argument("--jtrunc", type=int, default=10_000)
    ana.add_argument("--jmax", type=int, default=50)
    add_design_flags(ana, default_design="common_interest",
                     extra_choices=("optimal", "asymptotic_one_round"))
    ana.add_argument("--out", default=None)
    ana.set_defaults(func=_cmd_analyze)

    con = sub.add_parser("construct", help="generate a worst-case game instance")
    con.add_argument("--kind", required=True,
                     choices=["greedy_trap", "two_agent_worst_case", "ci_chain", "stack_or_spread", "poa_witness"])
    con.add_argument("--eps", type=float, default=0.1)
    con.add_argument("--n", type=int, default=3)
    con.add_argument("--N1", type=int, default=3)
    con.add_argument("--N2", type=int, default=40)
    con.add_argument("--f-values", dest="f_values", type=comma_floats, default=None,
                     help="explicit comma-separated utility rule values")
    add_design_flags(con, default_design="one_round")
    con.add_argument("--out", required=True)
    con.set_defaults(func=_cmd_construct)

    exp = sub.add_parser("experiment", help="run the randomized assignment experiment")
    exp.add_argument("--config", default=None, help="ExperimentConfig JSON path")
    exp.add_argument("--out-dir", dest="out_dir", default="experiment_out")
    exp.add_argument("--format", default="both", choices=["csv", "json", "both"])
    exp.set_defaults(func=_cmd_experiment)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceededError, EnumerationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0 if rc is None else rc


if __name__ == "__main__":
    sys.exit(main())
