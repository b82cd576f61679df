import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resgames import (
    CHI_MIN,
    DesignSpec,
    UtilityRule,
    ValidationError,
    WelfareRule,
    build_poa_lp,
    design_asymptotic,
    design_common_interest,
    design_one_round,
    design_pareto_setcov,
    frontier_setcov,
    make_utility_rule,
    make_welfare_rule,
    one_round_bound,
    one_round_setcov,
    poa_closed_form,
    poa_lp,
    resolve_design,
    solve_poa_lp,
    theory_bounds,
)

from resgames.analytics import _check_bent
from resgames.model import TOL

from conftest import highs_poa_lp, loop_bent_closed_form, loop_one_round_bound, loop_poa_lp

E = math.e


def test_one_round_bound_examples():
    w = make_welfare_rule("bent", 52, b=1, curvature=0.5)
    res = one_round_bound(w, design_one_round(0.5, 53), 50)
    assert res.value == pytest.approx(0.75, abs=1e-12)
    assert not res.truncated
    wsc = make_welfare_rule("set_covering", 52)
    res = one_round_bound(wsc, make_utility_rule((1.0, 0.0)), 50)
    assert res.value == pytest.approx(0.5, abs=1e-12)
    lin = make_welfare_rule("bent", 52, b=1, curvature=0.0)
    res = one_round_bound(lin, make_utility_rule((1.0, 1.0)), 50)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_one_round_bound_refuses_f_off_the_design_scale():
    # scaling f leaves best responses alone but would move the value (0.333 at 2f, 0.667 at f/2)
    w = make_welfare_rule("wta", 52, p=0.5)
    f = design_common_interest(w)
    assert one_round_bound(w, f, 50).value == 0.5000000000000056
    for s in (2.0, 0.5):
        with pytest.raises(ValidationError, match=r"one_round_bound: f\(1\) must equal w\(1\)"):
            one_round_bound(w, f.scaled(s), 50)


def test_closed_forms_refuse_f_off_the_design_scale():
    # at 2f the set-covering closed form read 0.41666666666666663 against the
    # LP's 0.588235294117647, and one_round_setcov read 0.2 against 1/3 at f
    w = make_welfare_rule("set_covering", 12)
    f = make_utility_rule((1.0, 0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.0, 0.0, 0.0, 0.0))
    assert poa_closed_form(w, f, "setcov", n=5).value == pytest.approx(poa_lp(w, f.scaled(2.0), 5), abs=1e-12)
    assert one_round_setcov(f, 5) == pytest.approx(1 / 3, abs=1e-15)
    bent = make_welfare_rule("bent", 12, b=1, curvature=0.5)
    for call in (lambda s: poa_closed_form(w, f.scaled(s), "setcov", n=5),
                 lambda s: poa_closed_form(bent, design_one_round(0.5, 12).scaled(s), "bent")):
        for s in (2.0, 0.5):
            with pytest.raises(ValidationError, match=r"^poa_closed_form: f\(1\) must equal w\(1\)$"):
                call(s)
    for s in (2.0, 0.5):
        with pytest.raises(ValidationError, match=r"^one_round_setcov: f\(1\) must equal w\(1\) = 1$"):
            one_round_setcov(f.scaled(s), 5)


def test_one_round_bound_truncation_flag():
    # constant f on set covering diverges with the index bound
    wsc = make_welfare_rule("set_covering", 52)
    res = one_round_bound(wsc, make_utility_rule((1.0, 1.0)), 50)
    assert res.truncated
    assert res.value < 0.03


def _oracle_cases(n):
    """(family, w, f) over the bent (b = 1..3), wta, harmonic and set-covering
    rules under the common-interest, one-round and asymptotic designs, tabulated
    past n; a bent rule of curvature 1 also takes its bend-b asymptotic design."""
    families = [("bent", {"b": b, "curvature": c}) for b in (1, 2, 3) for c in (0.5, 1.0)]
    families += [("wta", {"p": 0.5}), ("harmonic", {}), ("set_covering", {})]
    for family, params in families:
        w = make_welfare_rule(family, n + 2, **params)
        specs = [DesignSpec("common_interest"), DesignSpec("one_round"), DesignSpec("asymptotic")]
        if params.get("curvature") == 1.0:
            specs.append(DesignSpec("asymptotic", b=params["b"]))
        for spec in specs:
            yield family, w, resolve_design(spec, w, n + 1)


# 257 and 1000 span more than one 2^16-entry block of both grids
@pytest.mark.parametrize("n", [1, 2, 3, 50, 200, 257, 1000])
def test_block_grids_match_their_loop_oracles(n):
    bent_cases = 0
    for family, w, f in _oracle_cases(n):
        fast, slow = one_round_bound(w, f, n), loop_one_round_bound(w, f, n)
        assert (fast.value.hex(), fast.truncated) == (slow.value.hex(), slow.truncated), (family, f)
        if family == "bent":
            fast, slow = poa_closed_form(w, f, "bent", j_max=n), loop_bent_closed_form(w, f, n)
            assert (fast.value.hex(), fast.truncated) == (slow.value.hex(), slow.truncated), (family, f)
            bent_cases += 1
    assert bent_cases == 3 * 6 + 3
    # constant f diverges on both grids, so the maximum sits on the boundary
    flat = make_utility_rule((1.0, 1.0))
    for w, fast, slow in (
        (make_welfare_rule("set_covering", 52), one_round_bound, loop_one_round_bound),
        (make_welfare_rule("bent", 52, b=1, curvature=0.5), one_round_bound, loop_one_round_bound),
        (make_welfare_rule("bent", 52, b=1, curvature=0.5),
         lambda w, f, n: poa_closed_form(w, f, "bent", j_max=n), loop_bent_closed_form),
    ):
        got, want = fast(w, flat, n), slow(w, flat, n)
        assert (got.value.hex(), got.truncated) == (want.value.hex(), want.truncated)
        assert got.truncated


def test_block_grids_hold_memory_to_o_of_the_index_bound():
    # a full 3001 x 3001 float64 grid would take 72 MB
    w = make_welfare_rule("bent", 3002, b=1, curvature=0.5)
    f = design_asymptotic(1, 0.5, 3003)
    for bound in (lambda: one_round_bound(w, f, 3000), lambda: poa_closed_form(w, f, "bent", j_max=3000)):
        tracemalloc.start()
        try:
            bound()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


def test_one_round_bound_grid_matches_half_curvature():
    for i in range(21):
        c = i * 0.05
        w = make_welfare_rule("bent", 52, b=1, curvature=c)
        res = one_round_bound(w, design_one_round(c, 53), 50)
        assert res.value == pytest.approx(1 - c / 2, abs=1e-12)


def test_one_round_bound_asymptotic_design_below_tradeoff_bound():
    for i in range(21):
        c = i * 0.05
        w = make_welfare_rule("bent", 52, b=1, curvature=c)
        f = design_asymptotic(1, c, 53)
        val = one_round_bound(w, f, 50).value
        assert val <= theory_bounds(c, "one", "asymptotic_one_round") + 1e-9


@pytest.mark.parametrize("c, at_three", [
    (0.05, 0.97197), (0.25, 0.85864), (0.5, 0.71347), (0.75, 0.56237), (1.0, 0.40131)])
def test_asymptotic_one_round_is_the_two_agent_guarantee(c, at_three):
    # the formula is the bound at y_max = 2, where at most two players share a
    # resource; at y_max = 3 the bound is already lower
    w = make_welfare_rule("bent", 8, b=1, curvature=c)
    f = design_asymptotic(1, c, 8)
    formula = theory_bounds(c, "one", "asymptotic_one_round")
    assert abs(one_round_bound(w, f, 2).value - formula) <= 2 * math.ulp(formula)
    assert one_round_bound(w, f, 3).value == pytest.approx(at_three, abs=5e-6)
    assert at_three < formula


def test_theory_bounds_match_the_computed_guarantees():
    # asymptotic_one_round is only an upper bound (the test above); these are equalities
    for i in range(21):
        c = i * 0.05
        w = make_welfare_rule("bent", 202, b=1, curvature=c)
        ci = design_common_interest(w)
        assert abs(one_round_bound(w, ci, 200).value - theory_bounds(c, "one", "common_interest")) <= 1e-12
        assert abs(poa_closed_form(w, ci, "bent", j_max=200).value
                   - theory_bounds(c, "infinity", "common_interest")) <= 1e-12
        assert abs(one_round_bound(w, design_one_round(c, 203), 200).value
                   - theory_bounds(c, "one", "optimal")) <= 1e-12
        assert abs(poa_closed_form(w, design_asymptotic(1, c, 203), "bent", j_max=200).value
                   - theory_bounds(c, "infinity", "optimal")) <= 1e-12

def test_one_round_setcov_examples():
    assert one_round_setcov(make_utility_rule((1.0, 0.0)), 10) == pytest.approx(0.5, abs=1e-15)
    f = design_asymptotic(1, 1.0, 10**5)
    assert one_round_setcov(f, 10**5) <= 0.15
    f1 = make_utility_rule((1.0,) * 100)
    vals = [one_round_setcov(f1, j) for j in (10, 50, 100)]
    assert vals[0] > vals[1] > vals[2]


def test_poa_closed_form_setcov():
    wsc = make_welfare_rule("set_covering", 60)
    assert poa_closed_form(wsc, make_utility_rule((1.0, 0.0)), "setcov", n=50).value == pytest.approx(0.5)
    f = design_asymptotic(1, 1.0, 60)
    assert poa_closed_form(wsc, f, "setcov", n=50).value == pytest.approx(1 - 1 / E, abs=1e-6)
    assert poa_closed_form(wsc, f, "setcov", n=1).value == 1.0


def test_poa_closed_form_bent():
    w = make_welfare_rule("bent", 60, b=1, curvature=0.5)
    res = poa_closed_form(w, design_one_round(0.5, 61), "bent", j_max=59)
    assert res.value == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(ValidationError):
        poa_closed_form(w, make_utility_rule((1.0, 0.0)), "setcov", n=5)
    for j_max in (0, -1):
        with pytest.raises(ValidationError, match="j_max must be positive"):
            poa_closed_form(w, design_one_round(0.5, 61), "bent", j_max=j_max)


def test_check_bent_accepts_exactly_the_bent_rules():
    for b in range(1, 5):
        for c in (0.0, 0.25, 0.5, 0.75, 1.0):
            for j_max in {b, b + 1, 8, 60}:
                _check_bent(make_welfare_rule("bent", j_max, b=b, curvature=c))
    # tail slopes a rounding away from 0 and from w(1): curvature lands just past 1 and 0
    _check_bent(WelfareRule((1.0, 1.0), -1e-12))
    _check_bent(WelfareRule((1.0, 2.0), 1.0 + 1e-12))
    wta = make_welfare_rule("wta", 8, p=0.4)
    for w, msg in ((wta.scaled(1.0 / wta.values[0]), "rule is not a bent welfare rule"),
                   (make_welfare_rule("harmonic", 8), "rule is not a bent welfare rule"),
                   (make_welfare_rule("bent", 8, b=2, curvature=0.5).scaled(2.0),
                    r"bent closed form expects w\(1\) = 1")):
        with pytest.raises(ValidationError, match=msg):
            _check_bent(w)


def test_poa_closed_form_pareto_equalization():
    wsc = make_welfare_rule("set_covering", 60)
    for chi in np.linspace(CHI_MIN, 1.0, 5):
        f = design_pareto_setcov(chi=float(chi), j_max=60)
        val = poa_closed_form(wsc, f, "setcov", n=50).value
        assert val == pytest.approx(1 / (1 + chi), abs=1e-6)


def test_poa_lp_matches_closed_forms():
    wsc = make_welfare_rule("set_covering", 12)
    rules = [
        make_utility_rule((1.0, 0.0)),
        design_asymptotic(1, 1.0, 12),
        design_pareto_setcov(chi=0.8, j_max=12),
    ]
    for f in rules:
        for n in range(2, 9):
            lp = poa_lp(wsc, f, n)
            cf = poa_closed_form(wsc, f, "setcov", n=n).value
            assert lp == pytest.approx(cf, abs=1e-6)


def test_poa_lp_single_agent():
    wsc = make_welfare_rule("set_covering", 3)
    assert poa_lp(wsc, make_utility_rule((1.0, 0.0)), 1) == pytest.approx(1.0, abs=1e-9)


def test_poa_lp_bent_common_interest():
    w = make_welfare_rule("bent", 10, b=1, curvature=0.5)
    f = design_common_interest(w)
    assert poa_lp(w, f, 8) == pytest.approx(1 / 1.5, abs=1e-6)


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e3])
def test_poa_lp_verdict_follows_the_rules_scale(scale):
    # scaling w and f together leaves the LP's optimum, and its verdict, alone
    w = make_welfare_rule("bent", 10, b=1, curvature=0.5)
    f = design_common_interest(w)
    assert poa_lp(w.scaled(scale), f.scaled(scale), 8) == pytest.approx(poa_lp(w, f, 8), rel=1e-12, abs=0)


def test_poa_lp_solution_contract():
    wsc = make_welfare_rule("set_covering", 10)
    sol = solve_poa_lp(wsc, make_utility_rule((1.0, 0.0)), 8)
    assert sol.status == "optimal"
    assert max(sol.residuals.values()) <= 1e-8
    assert sol.q == pytest.approx(2.0, abs=1e-9)
    assert len(sol.theta) == len(sol.instance.variables)


def test_one_round_guarantee_below_poa():
    wsc = make_welfare_rule("set_covering", 12)
    for f in (make_utility_rule((1.0, 0.0)), design_asymptotic(1, 1.0, 12)):
        one = one_round_bound(wsc, f, 10).value
        assert one <= poa_lp(wsc, f, 8) + 1e-9


def test_frontier_endpoints():
    assert frontier_setcov(0.5, 1000).one_round == 0.5
    vals = [frontier_setcov(1 - 1 / E, j).one_round for j in (10**3, 10**4, 10**5)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] <= 0.15


def test_frontier_matches_definition():
    q = 0.55
    pt = frontier_setcov(q, 5000)
    f = design_pareto_setcov(chi=(1 - q) / q, j_max=5000)
    assert pt.one_round == pytest.approx(one_round_setcov(f, 5000), abs=1e-15)


def test_frontier_is_bit_identical_to_scoring_the_designed_rule():
    grid = [0.5 + 0.005 * i for i in range(27)] + [1 - 1 / E]
    for q in grid:
        got = frontier_setcov(q, 10**5).one_round
        want = one_round_setcov(design_pareto_setcov(q=q, j_max=10**5), 10**5)
        assert got.hex() == want.hex(), q


def test_frontier_nonincreasing_in_q():
    grid = np.arange(0.5, 1 - 1 / E + 1e-9, 0.01)
    vals = [frontier_setcov(float(q), 2000).one_round for q in grid]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12
    with pytest.raises(ValidationError):
        frontier_setcov(0.4, 100)


def test_theory_bounds_values():
    assert theory_bounds(1.0, "one", "optimal") == 0.5
    assert theory_bounds(1.0, "infinity", "optimal") == pytest.approx(1 - 1 / E)
    assert theory_bounds(1.0, "one", "asymptotic_one_round") == pytest.approx(1 - 2 / (E + 1), abs=1e-12)
    assert theory_bounds(0.5, 3, "optimal") == 0.75
    assert theory_bounds(0.5, "infinity", "common_interest") == pytest.approx(1 / 1.5)
    with pytest.raises(ValidationError):
        theory_bounds(1.5, "one", "optimal")



@pytest.mark.parametrize("design", ["optimal", "common_interest", "asymptotic_one_round"])
def test_theory_bounds_take_numpy_integer_rounds(design):
    # as every walk entry point does
    for c in (0.0, 0.5, 1.0):
        assert theory_bounds(c, np.int64(1), design) == theory_bounds(c, "one", design)
        if design != "asymptotic_one_round":
            assert theory_bounds(c, np.int64(2), design) == theory_bounds(c, 2, design)
    with pytest.raises(ValidationError, match="cannot interpret round count 2.0"):
        theory_bounds(0.5, 2.0, design)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 15), st.sampled_from(["set_covering", "harmonic", "wta"]),
       st.lists(st.floats(0, 1), min_size=1, max_size=18), st.floats(0, 1))
def test_poa_lp_arrays_match_the_loop_oracle(n, family, raw, tail_frac):
    w = make_welfare_rule(family, 16, p=0.4) if family == "wta" else make_welfare_rule(family, 16)
    vals = sorted(raw, reverse=True)
    f = UtilityRule(vals, vals[-1] * tail_frac)
    inst = build_poa_lp(w, f, n)
    variables, objective, nash_row, norm_row = loop_poa_lp(w, f, n)
    assert inst.variables == variables
    assert all(type(v) is int for var in inst.variables for v in var)
    for got, want in ((inst.objective, objective), (inst.nash_row, nash_row), (inst.norm_row, norm_row)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_poa_lp_matches_the_highs_oracle_on_the_sweep_rules():
    wsc = make_welfare_rule("set_covering", 60)
    for f in (design_common_interest(wsc), design_asymptotic(1, 1.0, 60)):
        for n in range(1, 41):
            sol = solve_poa_lp(wsc, f, n)
            ref, _ = highs_poa_lp(wsc, f, n)
            assert sol.status == ref.status == "optimal"
            assert abs(sol.q - ref.q) <= 1e-12 * ref.q


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 15), st.sampled_from(["set_covering", "harmonic", "wta", "bent"]),
       st.lists(st.floats(0, 1), min_size=1, max_size=18), st.floats(0, 1),
       st.sampled_from([None, 0.0, 1e-10, -5e-10]))
@example(11, "bent", [1.0, 0.25, 1e-8], 0.0, None)  # HiGHS at 1e-7 returned a theta of -3e-8
@example(1, "wta", [1e-9], 0.0, None)  # HiGHS on the unscaled Nash row said unbounded
def test_poa_lp_matches_the_highs_oracle(n, family, raw, tail_frac, first):
    # under a bent w the dual optimum often lies right of lam_min; under the others rarely
    kw = {"wta": {"p": 0.4}, "bent": {"b": 2, "curvature": 0.5}}.get(family, {})
    w = make_welfare_rule(family, 16, **kw)
    vals = sorted(raw, reverse=True)
    if first is not None:
        vals[0] = first
    f = UtilityRule(vals, vals[-1] * tail_frac)
    sol = solve_poa_lp(w, f, n)
    if 0.0 < f.eval(1) <= TOL * w.eval(1):
        # the documented verdict; the exact LP is bounded here, so no exact solver shares it
        assert sol.status == "unbounded"
        return
    ref, bound = highs_poa_lp(w, f, n)
    assert sol.status == ref.status
    if sol.status == "optimal":
        # HiGHS's dual bounds the optimum from above; its q bounds it from below only
        # when its solution is feasible, which its 1e-7 tolerances do not ensure
        assert sol.q <= bound * (1 + 1e-12)
        if max(ref.residuals.values()) <= 1e-12:
            assert sol.q >= ref.q * (1 - 1e-12)
        assert sol.theta.min() >= 0.0 and np.count_nonzero(sol.theta) <= 2
        assert max(sol.residuals.values()) <= 1e-12
        assert sol.instance.objective @ sol.theta == sol.q
