import math

import mpmath
import numpy as np
import pytest

from resgames import (
    CHI_MIN,
    DesignSpec,
    ValidationError,
    apply_design,
    design_asymptotic,
    design_common_interest,
    design_one_round,
    design_pareto_setcov,
    make_welfare_rule,
    resolve_design,
)
from resgames.constructions import build_greedy_trap

E = math.e


def recursion_oracle_asymptotic(c, jmax, dps=60):
    """High-precision forward recursion; the plain double recursion drifts
    past 1e-9 of the true values around j = 12."""
    with mpmath.workdps(dps):
        rho = mpmath.e / (mpmath.e - c)
        f = [mpmath.mpf(1)]
        for j in range(1, jmax):
            w = (1 - c) * j + c
            f.append(max(j * f[-1] - rho * w + 1, mpmath.mpf(1) - c))
        return [float(v) for v in f]


def recursion_oracle_pareto(chi, jmax, dps=60):
    with mpmath.workdps(dps):
        chi = mpmath.mpf(chi)
        # a double within the snap window denotes the exact critical value
        if abs(1 - chi * (mpmath.e - 1)) <= 1e-12:
            chi = 1 / (mpmath.e - 1)
        f = [mpmath.mpf(1)]
        for j in range(1, jmax):
            f.append(max(j * f[-1] - chi, mpmath.mpf(0)))
        return [float(v) for v in f]


def test_common_interest_families():
    assert design_common_interest(make_welfare_rule("set_covering", 3)).values == (1.0, 0.0, 0.0)
    f = design_common_interest(make_welfare_rule("bent", 3, b=1, curvature=0.5))
    assert f.values == (1.0, 0.5, 0.5)
    wta = make_welfare_rule("wta", 3, p=0.5).scaled(2.0)  # normalized to w(1)=1
    f = design_common_interest(wta)
    assert f.values == pytest.approx([1.0, 0.5, 0.25], abs=1e-12)


def test_one_round_values():
    assert design_one_round(1.0).values[:3] == (1.0, 0.0, 0.0)
    assert design_one_round(0.5).values[1] == pytest.approx(2 / 3, abs=1e-15)
    assert all(v == 1.0 for v in design_one_round(0.0).values)


def test_asymptotic_constants():
    f = design_asymptotic(1, 1.0, 16)
    assert f.values[0] == 1.0
    assert f.values[1] == pytest.approx((E - 2) / (E - 1), abs=1e-13)
    assert f.values[2] == pytest.approx((2 * E - 5) / (E - 1), abs=1e-13)


def test_asymptotic_matches_recursion_small_j():
    for c in (0.0, 0.25, 0.5, 0.75, 1.0):
        f = design_asymptotic(1, c, 15)
        oracle = recursion_oracle_asymptotic(c, 15)
        assert max(abs(a - b) for a, b in zip(f.values, oracle)) <= 1e-9


def test_asymptotic_against_high_precision_oracle_large_j():
    f = design_asymptotic(1, 1.0, 10**4)
    oracle = recursion_oracle_asymptotic(1.0, 10**4, dps=200)
    for j in (10, 100, 1000, 10**4):
        assert abs(f.values[j - 1] - oracle[j - 1]) <= 1e-6 * abs(oracle[j - 1])


def test_asymptotic_tail_decay_rate():
    f = design_asymptotic(1, 1.0, 10**4)
    j = 10**4
    assert abs(j * f.values[j - 1] - 1 / (E - 1)) <= 1e-3


def test_asymptotic_c0_is_constant_one():
    f = design_asymptotic(1, 0.0, 12)
    assert all(abs(v - 1.0) <= 1e-12 for v in f.values)


def test_asymptotic_c_below_one_converges_above_floor():
    # the exact trajectory settles at rho (1 - c), strictly above the 1-c floor
    for c in (0.25, 0.5, 0.75):
        f = design_asymptotic(1, c, 4000)
        rho = E / (E - c)
        tail = f.values[-1]
        assert tail > 1 - c + 1e-6
        assert abs(tail - rho * (1 - c)) <= 1e-3
        diffs = np.diff(f.values)
        assert (diffs <= 1e-12).all()


def test_asymptotic_general_b_matches_recursion_head():
    for b in (2, 3, 5):
        rho_b = 1.0 / (1.0 - b**b * math.exp(-b) / math.factorial(b))
        f = design_asymptotic(b, 1.0, 12)
        vals = [1.0]
        for j in range(1, 12):
            vals.append((j * vals[-1] - rho_b * min(j, b)) / b + 1.0)
        assert max(abs(a - v) for a, v in zip(f.values, vals)) <= 1e-8


def test_asymptotic_rejects_unsupported_combo():
    with pytest.raises(ValidationError):
        design_asymptotic(2, 0.5, 10)


def test_pareto_endpoints():
    f = design_pareto_setcov(chi=1.0, j_max=6)
    assert f.values == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    f = design_pareto_setcov(chi=CHI_MIN, j_max=6)
    assert f.values[1] == pytest.approx(1 - 1 / (E - 1), abs=1e-12)
    finf = design_asymptotic(1, 1.0, 6)
    assert f.values == pytest.approx(finf.values, abs=1e-12)


def test_pareto_q_parametrization():
    f_q = design_pareto_setcov(q=0.5, j_max=5)
    f_chi = design_pareto_setcov(chi=1.0, j_max=5)
    assert f_q.values == f_chi.values
    with pytest.raises(ValidationError):
        design_pareto_setcov(chi=1.0, q=0.5)
    with pytest.raises(ValidationError):
        design_pareto_setcov(chi=CHI_MIN - 1e-3)


def test_pareto_matches_recursion_on_grid():
    for chi in np.linspace(CHI_MIN, 1.0, 9):
        f = design_pareto_setcov(chi=float(chi), j_max=40)
        oracle = recursion_oracle_pareto(float(chi), 40)
        for a, b in zip(f.values, oracle):
            if b > 1e-6:
                assert abs(a - b) <= 1e-9


def test_pareto_equalized_increments():
    f = design_pareto_setcov(chi=CHI_MIN, j_max=200)
    v = np.array(f.values)
    j = np.arange(1, 200)
    assert np.max(np.abs(j * v[:-1] - v[1:] - CHI_MIN)) <= 1e-9


def test_designs_are_valid_rules():
    for f in (
        design_one_round(0.7),
        design_asymptotic(1, 0.7, 30),
        design_asymptotic(3, 1.0, 30),
        design_pareto_setcov(chi=0.8, j_max=30),
    ):
        assert f.values[0] == 1.0
        assert f.is_nonincreasing()


def test_resolve_design_scales_to_rule():
    w = make_welfare_rule("wta", 10, p=0.5)
    f = resolve_design(DesignSpec("one_round"), w, 10)
    assert f.values[0] == pytest.approx(w.values[0], abs=1e-12)
    f_ci = resolve_design("common_interest", w, 10)
    assert f_ci.values[1] == pytest.approx(w.values[1] - w.values[0], abs=1e-12)


@pytest.mark.parametrize("kwargs", [
    {"family": "optimal"},
    {"family": None},
    {"family": "one_round", "c": "abc"},
    {"family": "pareto", "chi": "0.8"},
    {"family": "pareto", "q": [0.6]},
    {"family": "asymptotic", "b": 0},
    {"family": "asymptotic", "b": 1.5},
    {"family": "one_round", "label": 3},
])
def test_design_spec_rejects_bad_fields(kwargs):
    with pytest.raises(ValidationError):
        DesignSpec(**kwargs)


def test_design_spec_accepts_numpy_numbers():
    spec = DesignSpec("asymptotic", c=np.float64(0.5), b=np.int64(2))
    assert spec.name() == "asymptotic"


def test_pareto_rejects_nonpositive_jmax():
    for j in (0, -3):
        with pytest.raises(ValidationError):
            design_pareto_setcov(q=0.55, j_max=j)


def test_apply_design_replaces_rules():
    g = build_greedy_trap(0.1).game
    g2 = apply_design(g, DesignSpec("pareto", chi=1.0))
    assert g2.resources[0].utility.values[0] == 1.0
    assert g2.actions == g.actions
