import hashlib
import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest

from resgames import (
    CHI_MIN,
    DesignSpec,
    ExperimentConfig,
    Game,
    UtilityRule,
    ValidationError,
    apply_design,
    design_asymptotic,
    design_common_interest,
    design_one_round,
    design_pareto_setcov,
    frontier_setcov,
    gen_wta,
    make_welfare_rule,
    resolve_design,
)
from resgames import designs
from resgames.constructions import build_greedy_trap

from conftest import loop_decay_tail, random_game

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


def test_one_round_tabulates_exactly_j_max_values():
    for j_max in (1, 2, 8):
        f = design_one_round(0.5, j_max)
        assert f.values == (1.0,) + (2 / 3,) * (j_max - 1)
        assert f.tail_value == 2 / 3
    with pytest.raises(ValidationError, match="j_max must be positive"):
        design_one_round(0.5, 0)


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


def test_asymptotic_below_the_bend_is_the_exact_head():
    # 2 <= j_max < b used to reduce over an empty tail and raise numpy's ValueError
    assert design_asymptotic(4, 1.0, 3).values == (1.0, 0.9392994166752517, 0.8482485416881292)
    for b in (2, 3, 4, 5, 8):
        ref = design_asymptotic(b, 1.0, b + 5)
        for j_max in range(2, b + 1):
            f = design_asymptotic(b, 1.0, j_max)
            assert f.values == ref.values[:j_max]
            assert f.tail_value == ref.values[j_max - 1]


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
    f_ci = resolve_design(DesignSpec("common_interest"), w, 10)
    assert f_ci.values[1] == pytest.approx(w.values[1] - w.values[0], abs=1e-12)


@pytest.mark.parametrize("p", [0.3, 0.7, 0.123])
def test_resolved_common_interest_is_the_direct_design_to_the_bit(p):
    # at a w(1) that is not a power of two, a rescale there and back moves ulps
    w = make_welfare_rule("wta", 10, p=p)
    f, direct = resolve_design(DesignSpec("common_interest"), w, 10), design_common_interest(w)
    assert [v.hex() for v in f.values] == [v.hex() for v in direct.values]
    assert f.tail_value.hex() == direct.tail_value.hex()


@pytest.mark.parametrize("family", ["common_interest", "one_round", "asymptotic"])
@pytest.mark.parametrize("p", [2e-9, 3e-9])
def test_designs_use_a_small_scale_rule_as_given(p, family):
    # w(1) ~ p: a copy of w at unit scale fails the absolute 1e-9 concavity check
    w = make_welfare_rule("wta", 10, p=p)
    assert resolve_design(DesignSpec(family), w, 10).values[0] == w.values[0]


@pytest.mark.parametrize("kwargs", [
    {"family": "optimal"},
    {"family": None},
    {"family": "one_round", "c": "abc"},
    {"family": "pareto", "chi": "0.8"},
    {"family": "pareto", "q": [0.6]},
    {"family": "asymptotic", "b": 0},
    {"family": "asymptotic", "b": 1.5},
    {"family": "one_round", "label": 3},
    {"family": "one_round", "chi": 0.7},  # a field the family never reads
    {"family": "common_interest", "q": 0.6},
    {"family": "asymptotic", "chi": 1.0, "b": 2},
    {"family": "pareto"},  # pareto reads exactly one of chi or q
    {"family": "pareto", "chi": 1.0, "q": 0.5},
    {"family": "pareto", "c": 0.5},
])
def test_design_spec_rejects_bad_fields(kwargs):
    with pytest.raises(ValidationError):
        DesignSpec(**kwargs)


@pytest.mark.parametrize("name, message", [
    ("c", "design c must be a real number or null"),
    ("b", "design b must be a positive integer"),
    ("chi", "design chi must be a real number or null"),
    ("q", "design q must be a real number or null"),
])
def test_design_spec_refuses_booleans(name, message):
    # True passes both the Integral and the Real checks
    kwargs = {"family": "pareto", "chi": 1.0} if name in ("c", "b") else {"family": "pareto"}
    with pytest.raises(ValidationError, match=f"^{message}$"):
        DesignSpec(**kwargs, **{name: True})


def test_design_spec_accepts_numpy_numbers():
    spec = DesignSpec("asymptotic", c=np.float64(0.5), b=np.int64(2))
    assert spec.name() == "asymptotic"


def test_pareto_tail_is_summed_once_per_length_to_the_same_bits(monkeypatch):
    j_max = 10**5
    qs = (0.5, 0.55, 0.6, 1 - 1 / E)
    designs._unit_tail.cache_clear()
    calls = []
    decay = designs._decay_tail
    monkeypatch.setattr(designs, "_decay_tail", lambda *args: calls.append(args[1]) or decay(*args))
    cached = [(frontier_setcov(q, j_max).one_round, design_pareto_setcov(q=q, j_max=j_max)) for q in qs]
    assert calls == [1.0]
    for q, (point, f) in zip(qs, cached):
        designs._unit_tail.cache_clear()
        assert frontier_setcov(q, j_max).one_round.hex() == point.hex()
        fresh = design_pareto_setcov(q=q, j_max=j_max)
        assert fresh.table(j_max + 1).tobytes() == f.table(j_max + 1).tobytes()
    tail = designs._unit_tail(j_max)
    assert not tail.flags.writeable
    with pytest.raises(ValueError):
        tail[0] = 0.0
    f1, f2 = design_pareto_setcov(q=0.55, j_max=j_max), design_pareto_setcov(q=0.6, j_max=j_max)
    assert f1.values != f2.values
    assert not np.shares_memory(f1._array, f2._array)
    assert not any(np.shares_memory(f._array, tail) for f in (f1, f2))


@pytest.mark.parametrize("j_max", [2, 3, 8, 53, 200, 3003])
def test_blocked_tail_series_match_the_loop_oracle(j_max, monkeypatch):
    # a 2^16-entry block holds 32 terms up to 2,048 values and 21 at 3,003
    specs = [(1, float(c)) for c in np.linspace(0.0, 1.0, 101)] + [(b, 1.0) for b in range(2, 6)]
    fast = [design_asymptotic(b, c, j_max) for b, c in specs]
    monkeypatch.setattr(designs, "_decay_tail", loop_decay_tail)
    for (b, c), got in zip(specs, fast):
        want = design_asymptotic(b, c, j_max)
        assert got.table(j_max).tobytes() == want.table(j_max).tobytes(), (b, c)
        assert got.tail_value.hex() == want.tail_value.hex()


def test_blocked_unit_tail_matches_the_loop_oracle_and_its_memory():
    # one term a block at this length; the loop's traced peak was 4.80 MB
    j_max = 10**5
    designs._unit_tail.cache_clear()
    tracemalloc.start()
    try:
        tail = designs._unit_tail(j_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    want = loop_decay_tail(np.arange(1, j_max + 1, dtype=np.float64), 1.0, np.ones_like)
    assert tail.tobytes() == want.tobytes()


@pytest.mark.parametrize("last", [3, 4, 5, 31, 32, 33, 5000, 5001, 5002])
def test_blocked_tail_series_stop_and_give_up_at_the_loops_terms(last):
    # at j = 10^6 and b = j the running products stay above 1e-18 for 5001
    # terms, so the series stops at the first term m > 4 from ``last`` on,
    # or gives up after term 5001
    j = np.array([1e6, 2e6])

    def coef(t):
        return np.where(t - (j - 1.0) < last, 1.0, 0.0)

    if last > 5001:
        for series in (designs._decay_tail, loop_decay_tail):
            with pytest.raises(RuntimeError, match="tail series failed to converge"):
                series(j, 1e6, coef)
    else:
        got, want = designs._decay_tail(j, 1e6, coef), loop_decay_tail(j, 1e6, coef)
        assert got.tobytes() == want.tobytes()


def test_pareto_endpoint_has_one_tolerance():
    # chi and q are each checked on their own scale; past that, rounding at
    # the 1/(e-1) endpoint must not let the factorial term make the rule rise
    for j_max in (5, 64, 1000):
        ref = designs.pareto_setcov_values(chi=CHI_MIN, j_max=j_max)
        near = [{"chi": float(c)} for c in np.linspace(CHI_MIN - 1e-12, CHI_MIN, 41)]
        near += [{"q": float(q)} for q in np.linspace(1 - 1 / E, 1 - 1 / E + 1e-12, 41)]
        for kw in near:
            f = design_pareto_setcov(j_max=j_max, **kw)
            assert f.is_nonincreasing()
            assert np.all(np.abs(np.array(f.values) - ref) <= 1e-11 * ref)
    with pytest.raises(ValidationError, match="^chi"):
        design_pareto_setcov(chi=CHI_MIN - 2e-12)
    for q in (1 - 1 / E + 2e-12, 0.5 - 2e-12):
        with pytest.raises(ValidationError, match="^q"):
            design_pareto_setcov(q=q)


def test_pareto_chi_and_q_cover_the_same_range():
    # every chi >= 1 gives (1, 0, 0, ...), whose efficiency is 1/2, not 1/(1+chi)
    assert design_pareto_setcov(chi=1.0, j_max=6).values == (1.0,) + (0.0,) * 5
    assert design_pareto_setcov(chi=1.0 + 1e-12, j_max=6).values == (1.0,) + (0.0,) * 5
    for chi in (1.5, 2.0, 5.0, 1.0 + 2e-12):
        with pytest.raises(ValidationError, match=r"^chi must lie in \[1/\(e-1\), 1\]"):
            design_pareto_setcov(chi=chi)


def test_frontier_on_the_benchmark_grid_is_pinned_to_the_bit():
    # the benchmark's q grid for seed 0, which ends at 1 - 1/e
    frac = random.Random(0).random()
    qs = [0.5] + [q for q in (0.5 + (frac + i) * 0.005 for i in range(30)) if 0.5 < q < 1 - 1 / E] + [1 - 1 / E]
    hexes = " ".join(frontier_setcov(q, 10**5).one_round.hex() for q in qs)
    assert len(qs) == 28
    assert hashlib.sha256(hexes.encode()).hexdigest() == (
        "4c69a1114381ebeaabca270f86b8957b6de4cc9195b15201b9c47c6667e568e5")


def test_common_interest_is_the_welfare_increments_to_the_bit():
    rules = [make_welfare_rule(family, n, **kw) for n in (2, 3, 8, 10, 40, 60) for family, kw in (
        ("wta", {"p": 0.5}), ("wta", {"p": 0.3}), ("harmonic", {}), ("set_covering", {}),
        ("bent", {"b": 2, "curvature": 0.5}), ("bent", {"b": 1, "curvature": 0.7}))]
    rules += [r.welfare for seed in range(300) for r in random_game(np.random.default_rng(seed)).resources]
    assert len(rules) == 1175
    for w in rules:
        f = design_common_interest(w)
        want = [hi - lo for lo, hi in zip((0.0,) + w.values, w.values)]
        assert [v.hex() for v in f.values] == [v.hex() for v in want]
        assert f.tail_value.hex() == w.tail_slope.hex()


def test_pareto_rejects_nonpositive_jmax():
    for j in (0, -3):
        with pytest.raises(ValidationError):
            design_pareto_setcov(q=0.55, j_max=j)


def test_equal_design_requests_share_one_rule():
    cfg = ExperimentConfig()
    first, second = gen_wta(cfg, 0), gen_wta(cfg, 1)
    for spec in cfg.designs:
        g1, g2 = apply_design(first, spec), apply_design(second, spec)
        assert g1.resources[0].utility is g2.resources[0].utility
        resolve_design.cache_clear()
        fresh = apply_design(second, spec)
        assert fresh.resources[0].utility is not g2.resources[0].utility
        assert fresh.utility_tables.tobytes() == g2.utility_tables.tobytes()


def test_apply_design_replaces_rules():
    g = build_greedy_trap(0.1).game
    g2 = apply_design(g, DesignSpec("pareto", chi=1.0))
    assert g2.resources[0].utility.values[0] == 1.0
    assert g2.actions == g.actions


def test_designed_game_shares_the_base_skeleton():
    cfg = ExperimentConfig()
    base = gen_wta(cfg, 0)
    for spec in cfg.designs:
        g = apply_design(base, spec)
        fresh = Game(g.resources, base.actions)
        assert g == fresh
        for name in ("action_resources", "null_action", "max_selectors"):
            assert getattr(g, name) == getattr(fresh, name)
        for name in ("welfare_tables", "utility_tables", "cumulative_utility_tables"):
            assert getattr(g, name).tobytes() == getattr(fresh, name).tobytes()
        assert g.welfare_tables is base.welfare_tables
        assert g.actions is base.actions
    # every Resource is still built, so a rule with f(1) != w(1) is refused
    w1 = base.resources[0].welfare.values[0]
    with pytest.raises(ValidationError):
        base._with_utilities([UtilityRule((2.0 * w1,))] * base.n_resources)
