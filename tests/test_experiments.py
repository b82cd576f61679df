import csv
import math

import pytest

from resgames import (
    BudgetExceededError,
    DesignSpec,
    ExperimentConfig,
    ExperimentResult,
    ValidationError,
    apply_design,
    export_result,
    gen_wta,
    is_nash,
    k_round_walk,
    load_raw_csv,
    run_experiment,
)


SMALL = ExperimentConfig(
    n_agents=5, n_targets=8, n_instances=12, rounds=3, master_seed=7,
)


def quartile_oracle(values, q):
    # plain linear interpolation on the sorted sample
    v = sorted(values)
    pos = (len(v) - 1) * q
    lo, hi = int(math.floor(pos)), int(math.ceil(pos))
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def test_gen_wta_deterministic_and_normalized():
    a = gen_wta(SMALL, 3)
    b = gen_wta(SMALL, 3)
    assert [r.value for r in a.resources] == [r.value for r in b.resources]
    assert a.actions == b.actions
    assert sum(r.value for r in a.resources) == pytest.approx(1.0, abs=1e-12)
    c = gen_wta(SMALL, 4)
    assert [r.value for r in a.resources] != [r.value for r in c.resources]


def test_gen_wta_windows_are_consecutive():
    g = gen_wta(SMALL, 0)
    n = SMALL.n_targets
    for acts in g.actions:
        for a in acts:
            if not a:
                continue
            idx = sorted(int(rid[1:]) for rid in a)
            assert len(idx) == SMALL.action_width
            spans = {(idx[0] + d) % n for d in range(len(idx))} == set(idx) or \
                    {(idx[-1] + d) % n for d in range(len(idx))} == set(idx)
            assert spans


def test_gen_wta_instances_share_one_rule_pair():
    a, b = gen_wta(SMALL, 0), gen_wta(SMALL, 1)
    rules = {(id(r.welfare), id(r.utility)) for g in (a, b) for r in g.resources}
    assert len(rules) == 1
    other = gen_wta(ExperimentConfig(n_agents=5, n_targets=8, p_hit=0.3), 0)
    assert other.resources[0].welfare != a.resources[0].welfare


def test_gen_wta_tabulated_for_all_agents():
    assert all(r.welfare.j_max == SMALL.n_agents for r in gen_wta(SMALL, 0).resources)


def test_run_experiment_rows_and_bounds():
    res = run_experiment(SMALL)
    assert len(res.rows) == SMALL.n_instances * len(SMALL.designs) * SMALL.rounds
    assert all(0.0 <= r.normalized_welfare <= 1.0 + 1e-12 for r in res.rows)
    # common interest welfare never drops between rounds
    ci = {}
    for r in res.rows:
        if r.design == "common_interest":
            ci.setdefault(r.instance, {})[r.round] = r.welfare
    for rounds in ci.values():
        for k in range(1, SMALL.rounds):
            assert rounds[k] <= rounds[k + 1] + 1e-12


def test_converged_instances_are_nash():
    for idx in range(4):
        base = gen_wta(SMALL, idx)
        g = apply_design(base, DesignSpec("common_interest"))
        traj = k_round_walk(g, SMALL.rounds)
        n = g.n_players
        states = traj.states()
        if states[(SMALL.rounds - 1) * n] == states[SMALL.rounds * n]:
            assert is_nash(g, traj.final)


def test_summary_matches_independent_quartiles():
    res = run_experiment(SMALL)
    for s in res.summary:
        vals = [
            r.normalized_welfare
            for r in res.rows
            if r.design == s.design and r.round == s.round
        ]
        assert s.min == pytest.approx(min(vals), abs=1e-12)
        assert s.q1 == pytest.approx(quartile_oracle(vals, 0.25), abs=1e-12)
        assert s.median == pytest.approx(quartile_oracle(vals, 0.5), abs=1e-12)
        assert s.q3 == pytest.approx(quartile_oracle(vals, 0.75), abs=1e-12)
        assert s.max == pytest.approx(max(vals), abs=1e-12)


def test_export_round_trip_and_determinism(tmp_path):
    res = run_experiment(SMALL)
    p1 = export_result(res, "both", tmp_path / "a")
    res2 = run_experiment(SMALL)
    p2 = export_result(res2, "both", tmp_path / "b")
    for a, b in zip(p1, p2):
        assert a.read_bytes() == b.read_bytes()
    rows = load_raw_csv(tmp_path / "a" / "raw.csv")
    assert rows == res.rows


def test_export_empty_result(tmp_path):
    res = ExperimentResult(SMALL, [], [])
    raw, summ = export_result(res, "csv", tmp_path)
    assert raw.read_text() == "instance,design,round,welfare,normalized_welfare\n"
    assert summ.read_text() == "design,round,min,q1,median,q3,max\n"


def test_export_rejects_format_before_creating_the_directory(tmp_path):
    res = ExperimentResult(SMALL, [], [])
    with pytest.raises(ValidationError):
        export_result(res, "xml", tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_config_rejects_non_integer_counts_and_unknown_keys():
    with pytest.raises(ValidationError):
        ExperimentConfig(n_agents=2.5)
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict({"bogus": 1})
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict({"designs": [{"family": "one_round", "bogus": 1}]})
    with pytest.raises(ValidationError, match="one_round reads neither chi nor q"):
        ExperimentConfig.from_dict({"designs": [{"family": "one_round", "chi": 0.7}]})
    with pytest.raises(ValidationError, match="give exactly one of chi or q"):
        ExperimentConfig.from_dict({"designs": [{"family": "pareto"}]})


@pytest.mark.parametrize("name", ["n_agents", "n_targets", "actions_per_agent", "action_width",
                                  "n_instances", "rounds", "master_seed", "p_hit"])
def test_config_refuses_booleans(name):
    # True passes both the Integral and the Real checks
    with pytest.raises(ValidationError, match=f"^{name} must"):
        ExperimentConfig(**{name: True})


def test_config_rejects_designs_with_the_same_name():
    with pytest.raises(ValidationError):
        ExperimentConfig(designs=(DesignSpec("one_round", c=0.0), DesignSpec("one_round", c=1.0)))
    labelled = (DesignSpec("one_round", c=0.0), DesignSpec("one_round", c=1.0, label="one_round_c1"))
    assert [s.name() for s in ExperimentConfig(designs=labelled).designs] == ["one_round", "one_round_c1"]


def test_budget_guard():
    big = ExperimentConfig(n_agents=30, n_targets=31, n_instances=1)
    with pytest.raises(BudgetExceededError):
        run_experiment(big)


def test_config_validation_and_round_trip():
    with pytest.raises(ValidationError):
        ExperimentConfig(action_width=20, n_targets=10)
    cfg = ExperimentConfig.from_dict(SMALL.to_dict())
    assert cfg == SMALL


def test_load_raw_csv_refuses_a_wrong_header(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("instance,design,round,welfare\n0,ci,1,1.0\n")
    with pytest.raises(ValidationError, match="unexpected raw csv header: instance,design,round,welfare"):
        load_raw_csv(path)


@pytest.mark.parametrize("record,message", [
    ("0,ci,1,1.0", "raw csv line 2 has 4 fields, not 5"),
    ("0,ci,one,1.0,0.5", "raw csv line 2: invalid literal for int"),
    ("0,ci,1,1.0,half", "raw csv line 2: could not convert string to float"),
])
def test_load_raw_csv_refuses_a_malformed_record(tmp_path, record, message):
    path = tmp_path / "raw.csv"
    path.write_text(f"instance,design,round,welfare,normalized_welfare\n{record}\n")
    with pytest.raises(ValidationError, match=message):
        load_raw_csv(path)


def test_a_label_with_a_comma_quote_and_line_break_round_trips(tmp_path):
    label = 'a,"b"\nc'
    cfg = ExperimentConfig(n_agents=3, n_targets=4, n_instances=3, rounds=2,
                           designs=(DesignSpec("common_interest", label=label),))
    res = run_experiment(cfg)
    raw, summ = export_result(res, "csv", tmp_path)
    assert load_raw_csv(raw) == res.rows
    with summ.open(newline="") as fh:
        header, *records = csv.reader(fh)
    assert header == ["design", "round", "min", "q1", "median", "q3", "max"]
    assert [(r[0], int(r[1]), *map(float, r[2:])) for r in records] == res.summary
    assert {r[0] for r in records} == {label}


def test_export_under_a_regular_file_names_the_directory(tmp_path):
    blocker = tmp_path / "F"
    blocker.write_text("")
    res = run_experiment(ExperimentConfig(n_agents=2, n_targets=3, n_instances=1, rounds=1))
    with pytest.raises(OSError, match="cannot create output directory .*F/out"):
        export_result(res, "csv", blocker / "out")
