"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with -s) and enforces both the
numeric tolerance and the wall-clock budget of its check.
"""
import collections
import math
import time

import mpmath
import numpy as np
import pytest

import resgames as rg
from conftest import random_game

E = math.e


def _criterion(num, budget_s, fn):
    t0 = time.perf_counter()
    failure = None
    try:
        fn()
    except AssertionError as exc:
        failure = str(exc) or "assertion failed"
    elapsed = time.perf_counter() - t0
    status = "PASS" if failure is None else "FAIL"
    print(f"ACCEPTANCE {num}: {status} ({elapsed:.2f}s){' ' + failure if failure else ''}", flush=True)
    assert failure is None, failure
    assert elapsed < budget_s, f"took {elapsed:.1f}s, budget {budget_s}s"


def test_criterion_01_greedy_trap_walk_limits():
    def check():
        ci = rg.build_greedy_trap(0.1).game
        assert rg.walk_to_nash(ci).final_welfare == pytest.approx(1.2, abs=1e-12)
        designed = rg.build_greedy_trap(0.1, (1.0, 0.5)).game
        assert rg.walk_to_nash(designed).final_welfare == pytest.approx(2.1, abs=1e-12)

    _criterion(1, 1.0, check)


def test_criterion_02_two_agent_worst_case_grid():
    def check():
        for c in (0.0, 0.25, 0.5, 0.75, 1.0):
            con = rg.build_two_agent_worst_case(c, rg.design_one_round(c))
            for k in (1, 2, 3):
                got = rg.measured_ratio(con, k)
                assert got == pytest.approx(1 - c / 2, abs=1e-9), (c, k, got)

    _criterion(2, 10.0, check)


def test_criterion_03_chain_ratio():
    def check():
        n = 200
        for c in (0.0, 0.25, 0.5, 0.75, 1.0):
            con = rg.build_common_interest_chain(n, c)
            got = rg.measured_ratio(con, 1)
            formula = n / ((n - 1) * (1 + c) + c)
            assert got == pytest.approx(formula, abs=1e-9), (c, got)
            assert abs(got - 1 / (1 + c)) <= 0.01, (c, got)

    _criterion(3, 10.0, check)


def test_criterion_04_poa_closed_forms_and_lp():
    def check():
        wsc = rg.make_welfare_rule("set_covering", 60)
        f_inf = rg.design_asymptotic(1, 1.0, 60)
        val = rg.poa_closed_form(wsc, f_inf, "setcov", n=50).value
        assert val == pytest.approx(1 - 1 / E, abs=1e-6), val
        f_ci = rg.design_common_interest(wsc)
        for f in (f_ci, f_inf):
            for n in range(2, 9):
                lp = rg.poa_lp(wsc, f, n)
                cf = rg.poa_closed_form(wsc, f, "setcov", n=n).value
                assert lp == pytest.approx(cf, abs=1e-6), (n, lp, cf)

    _criterion(4, 30.0, check)


def test_criterion_05_frontier_endpoints():
    def check():
        assert rg.frontier_setcov(0.5, 10**3).one_round == 0.5
        vals = [rg.frontier_setcov(1 - 1 / E, j).one_round for j in (10**3, 10**4, 10**5)]
        assert vals[2] <= 0.15, vals
        assert vals[0] > vals[1] > vals[2], vals

    _criterion(5, 30.0, check)


def test_criterion_06_one_round_bounds_grid():
    def check():
        for i in range(21):
            c = i * 0.05
            w = rg.make_welfare_rule("bent", 52, b=1, curvature=c)
            asym = rg.one_round_bound(w, rg.design_asymptotic(1, c, 53), 50).value
            cap = rg.theory_bounds(c, "one", "asymptotic_one_round")
            assert asym <= cap + 1e-9, (c, asym, cap)
            one = rg.one_round_bound(w, rg.design_one_round(c, 53), 50).value
            assert one == pytest.approx(1 - c / 2, abs=1e-9), (c, one)

    _criterion(6, 10.0, check)


def test_criterion_07_asymptotic_design_constants():
    def check():
        f = rg.design_asymptotic(1, 1.0, 10**4)
        assert f.values[1] == pytest.approx((E - 2) / (E - 1), abs=1e-12)
        assert f.values[2] == pytest.approx((2 * E - 5) / (E - 1), abs=1e-12)
        # defining recursion, evaluated in high precision since the double
        # iteration drifts by ~1e-6 at j = 15
        with mpmath.workdps(60):
            rho = mpmath.e / (mpmath.e - 1)
            rec = [mpmath.mpf(1)]
            for j in range(1, 15):
                rec.append(max(j * rec[-1] - rho + 1, mpmath.mpf(0)))
        for j in range(1, 16):
            assert abs(f.values[j - 1] - float(rec[j - 1])) <= 1e-9, j
        j = 10**4
        assert abs(j * f.values[j - 1] - (E / (E - 1) - 1)) <= 1e-3

    _criterion(7, 10.0, check)


def test_criterion_08_mechanism_checks():
    def check():
        master = np.random.default_rng(2024)
        for trial in range(1000):
            g = random_game(master, max_players=4, max_actions=4, max_resources=6)
            traj = rg.k_round_walk(g, 2)
            states = traj.states()
            for state, step in zip(states, traj.steps):
                i = step.player
                # argmax sets agree between the local and team utility forms
                mc_set = rg.best_responses(g, state, i)
                vals = []
                for a in range(len(g.actions[i])):
                    alt = list(state)
                    alt[i] = a
                    vals.append(rg.utility_full(g, tuple(alt)))
                top = max(vals)
                full_set = [a for a, v in enumerate(vals) if v >= top - 1e-9]
                assert mc_set == full_set, trial
                # potential difference equals the mover's utility change
                after = list(state)
                after[i] = step.action
                dphi = rg.utility_full(g, tuple(after)) - rg.utility_full(g, state)
                du = rg.utility_mc(g, tuple(after), i) - rg.utility_mc(g, state, i)
                assert dphi == pytest.approx(du, abs=1e-9), trial

        wsc = rg.make_welfare_rule("set_covering", 8)
        sol = rg.solve_poa_lp(wsc, rg.design_common_interest(wsc), 3)
        con = rg.build_poa_witness(sol, 40)
        g = con.game
        ne = con.meta["nash_action"]
        assert rg.is_nash(g, ne)
        assert rg.one_round_can_end_at(g, ne)
        ratio = rg.welfare(g, ne) / rg.welfare(g, con.meta["optimal_action"])
        envelope = 5 * con.meta["max_width"] / 40
        assert abs(ratio - con.meta["poa"]) <= envelope, (ratio, envelope)

    _criterion(8, 120.0, check)


def test_criterion_09_experiment_surrogate(tmp_path):
    def check():
        cfg = rg.ExperimentConfig()  # 10 agents, 15 targets, p=0.5, 100 instances, 5 rounds, seed 1
        res = rg.run_experiment(cfg)
        assert all(r.normalized_welfare <= 1 + 1e-12 for r in res.rows)
        ci = collections.defaultdict(dict)
        for row in res.rows:
            if row.design == "common_interest":
                ci[row.instance][row.round] = row.welfare
        for rounds in ci.values():
            for k in range(1, cfg.rounds):
                assert rounds[k] <= rounds[k + 1] + 1e-12

        first = rg.export_result(res, "csv", tmp_path / "a")
        second = rg.export_result(rg.run_experiment(cfg), "csv", tmp_path / "b")
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()

        mins = collections.defaultdict(lambda: math.inf)
        for row in res.rows:
            if row.round == 1:
                mins[row.design] = min(mins[row.design], row.normalized_welfare)
        assert mins["one_round"] >= mins["common_interest"] and mins["one_round"] >= mins["asymptotic"], (
            f"round-1 worst-instance ordering does not hold at this scale: {dict(mins)}"
        )

    _criterion(9, 300.0, check)
