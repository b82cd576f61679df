import math

import numpy as np
import pytest

from resgames import Game, Resource, UtilityRule, WelfareRule, best_responses, welfare


def random_game(rng: np.random.Generator, max_players=4, max_actions=4, max_resources=6) -> Game:
    """Small random game with valid concave welfare and nonincreasing utility rules."""
    n_players = int(rng.integers(2, max_players + 1))
    n_res = int(rng.integers(1, max_resources + 1))
    resources = []
    for r in range(n_res):
        diffs = np.sort(rng.random(n_players) + 1e-3)[::-1]
        values = np.cumsum(diffs)
        tail = float(rng.random() * diffs[-1])
        w = WelfareRule(tuple(values), tail)
        fvals = np.concatenate([[values[0]], values[0] * np.sort(rng.random(n_players - 1))[::-1]])
        f = UtilityRule(tuple(fvals), float(fvals[-1] * rng.random()))
        resources.append(Resource(f"r{r}", w, f, float(rng.random() + 0.05)))
    actions = []
    for _ in range(n_players):
        acts = [frozenset()]
        for _ in range(int(rng.integers(1, max_actions))):
            mask = rng.random(n_res) < 0.4
            if not mask.any():
                mask[int(rng.integers(0, n_res))] = True
            acts.append(frozenset(f"r{k}" for k in np.flatnonzero(mask)))
        actions.append(tuple(acts))
    return Game(tuple(resources), tuple(actions))


def brute_force_optimum(g: Game, *, chunk: int = 1 << 18) -> tuple[tuple[int, ...], float]:
    """Reference optimum: every joint action scored in flat order (last player
    fastest), the first maximum kept."""
    sizes = [len(acts) for acts in g.actions]
    total = math.prod(sizes)
    n_res = g.n_resources
    onehot = []
    for acts in g.action_resources:
        m = np.zeros((len(acts), n_res), dtype=np.int16)
        for k, res in enumerate(acts):
            for r in res:
                m[k, r] += 1
        onehot.append(m)
    wtab_t = g.welfare_tables.T  # (max(max_selectors) + 2, n_res)
    cols = np.arange(n_res)
    best_w = -np.inf
    best_flat = 0
    for start in range(0, total, chunk):
        flat = np.arange(start, min(start + chunk, total), dtype=np.int64)
        counts = np.zeros((len(flat), n_res), dtype=np.int16)
        rem = flat
        for i in reversed(range(g.n_players)):
            idx = rem % sizes[i]
            rem = rem // sizes[i]
            counts += onehot[i][idx]
        w = wtab_t[counts, cols].sum(axis=1)
        k = int(np.argmax(w))
        if w[k] > best_w:
            best_w = float(w[k])
            best_flat = int(flat[k])
    joint = []
    rem = best_flat
    for i in reversed(range(g.n_players)):
        joint.append(rem % sizes[i])
        rem //= sizes[i]
    return tuple(reversed(joint)), best_w


def brute_tie_paths(g: Game, schedule, joint=None) -> float:
    """Reference adversarial minimum: the least final welfare over every
    resolution of every best-response tie along ``schedule``, from the null
    allocation, found by plain recursion."""
    joint = g.null_action if joint is None else joint
    if not schedule:
        return welfare(g, joint)
    i = schedule[0]
    return min(
        brute_tie_paths(g, schedule[1:], joint[:i] + (b,) + joint[i + 1:])
        for b in best_responses(g, joint, i)
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
