"""The exact optimum against the plain brute-force oracle, bit for bit."""
import itertools
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import resgames
from resgames import ExperimentConfig, Game, Resource, UtilityRule, WelfareRule, dynamics, gen_wta, optimum

from conftest import brute_force_optimum, random_game

# Few distinct increments and values make exact float ties common.
INCREMENTS = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
VALUES = st.sampled_from([0.1, 0.25, 1.0]) | st.floats(0.0, 2.0)


@st.composite
def games(draw) -> Game:
    """Small games, with degenerate values (all zero, all equal, half zero),
    repeated actions, stacking on one resource and empty-only players."""
    n = draw(st.integers(1, 6))
    n_res = draw(st.integers(1, 4))
    mode = draw(st.sampled_from(["random", "zero", "equal", "half_zero"]))
    rids = [f"r{r}" for r in range(n_res)]
    resources = []
    for r, rid in enumerate(rids):
        incs = sorted(draw(st.lists(INCREMENTS, min_size=n, max_size=n)), reverse=True)
        incs[0] = max(incs[0], 0.125)  # w(1) > 0
        # bumps below TOL keep the rule valid but not exactly concave
        incs[1:] = [d + draw(st.sampled_from([0.0, 4e-10])) for d in incs[1:]]
        w = WelfareRule(tuple(itertools.accumulate(incs)), 0.0)
        if mode == "zero" or (mode == "half_zero" and r % 2):
            v = 0.0
        elif mode == "equal":
            v = 0.5
        else:
            v = draw(VALUES)
        resources.append(Resource(rid, w, UtilityRule((incs[0],)), v))
    one_action = st.sampled_from([frozenset(), frozenset(rids)]) | st.sets(
        st.sampled_from(rids), min_size=1).map(frozenset)
    actions = tuple(tuple(draw(st.lists(one_action, max_size=4))) for _ in range(n))
    return Game(tuple(resources), actions)


def assert_bitwise_equal(got, want):
    assert got[0] == want[0]
    assert repr(got[1]) == repr(want[1])


@settings(max_examples=300, deadline=None)
@given(games(), st.sampled_from([1, 2, 4, dynamics._BLOCK]), st.sampled_from([1, 16, dynamics._BATCH]))
def test_optimum_matches_brute_force(g, block, batch):
    # small blocks and batches send even these small games through the
    # pruned walk and through batches split across the stack
    with mock.patch.object(dynamics, "_BLOCK", block), mock.patch.object(dynamics, "_BATCH", batch):
        assert_bitwise_equal(optimum(g), brute_force_optimum(g))


def test_optimum_matches_brute_force_on_wta_instances():
    cfg = ExperimentConfig(master_seed=1)
    for i in range(20):
        g = gen_wta(cfg, i)
        assert_bitwise_equal(optimum(g), brute_force_optimum(g))


def test_optimum_matches_brute_force_where_every_increment_ties():
    # at 1e-12 every welfare increment ties at the absolute TOL, so the bound
    # walk stays at the null allocation: only the pruning weakens
    rng = np.random.default_rng(24)
    for _ in range(200):
        base = random_game(rng)
        g = Game(tuple(Resource(r.rid, r.welfare, r.utility, r.value * 1e-12) for r in base.resources),
                 base.actions)
        assert_bitwise_equal(optimum(g), brute_force_optimum(g))


def test_import_and_experiment_leave_scipy_optimize_unloaded():
    src = str(Path(resgames.__file__).resolve().parent.parent)
    code = (
        "import sys, resgames\n"
        "resgames.run_experiment(resgames.ExperimentConfig(n_agents=4, n_targets=6, n_instances=2))\n"
        "w = resgames.make_welfare_rule('set_covering', 8)\n"
        "f = resgames.design_common_interest(w)\n"
        "assert abs(resgames.poa_lp(w, f, 8) - 0.5) < 1e-12\n"
        "resgames.build_poa_witness(resgames.solve_poa_lp(w, f, 3), 12)\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, f'scipy modules were imported: {loaded}'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
