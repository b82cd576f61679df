"""Round-robin best-response walks, Nash checks, optima, and efficiency metrics."""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from .model import (
    TOL,
    Game,
    JointAction,
    ValidationError,
    selection_counts,
    welfare,
)

INCUMBENT_THEN_LEX = "incumbent_then_lex"
LEXICOGRAPHIC = "lexicographic"
#: The worst case over every tie resolution; only :func:`efficiency` takes it.
ADVERSARIAL = "adversarial"

_WALK_STEP_CEILING = 10**6


class BudgetExceededError(RuntimeError):
    """Exact enumeration would exceed the configured budget."""

    def __init__(self, needed: int, budget: int):
        super().__init__(
            f"exact optimum may need {needed} joint evaluations, budget is {budget}; "
            "reduce the instance or raise the budget"
        )
        self.needed = needed
        self.budget = budget


class EnumerationCapError(RuntimeError):
    """Adversarial tie enumeration hit its cap before finishing.

    ``best_upper`` is the lowest completed-path welfare seen so far (an upper
    bound on the true adversarial minimum), or None if no path completed.
    """

    def __init__(self, explored: int, cap: int, best_upper: float | None):
        best_upper = None if best_upper is None else float(best_upper)
        super().__init__(
            f"tie enumeration exceeded cap={cap} (explored {explored} states); "
            f"best completed-path welfare so far: {best_upper}"
        )
        self.explored = explored
        self.cap = cap
        self.best_upper = best_upper


@dataclass(frozen=True)
class Step:
    tau: int
    player: int
    action: int
    welfare: float
    potential: float


@dataclass(frozen=True)
class Trajectory:
    initial: JointAction
    steps: tuple[Step, ...]
    final: JointAction

    @property
    def final_welfare(self) -> float:
        return self.steps[-1].welfare if self.steps else 0.0

    def states(self) -> list[JointAction]:
        """Joint actions along the walk, from the initial state to the last."""
        out = [self.initial]
        cur = list(self.initial)
        for s in self.steps:
            cur[s.player] = s.action
            out.append(tuple(cur))
        return out


def round_robin_schedule(n_players: int, k: int) -> tuple[int, ...]:
    return tuple(i for _ in range(k) for i in range(n_players))


def _check_schedule(g: Game, k: int, schedule: Sequence[int] | None) -> tuple[int, ...]:
    """The walk's steps, ``schedule`` or else k round-robin rounds; k must be a positive integer."""
    if schedule is not None and k == math.inf:
        raise ValidationError("a schedule needs a finite k")
    if not isinstance(k, Integral) or k < 1:
        raise ValidationError(f"k must be a positive integer, got {k!r}")
    if schedule is None:
        return round_robin_schedule(g.n_players, k)
    if not all(isinstance(i, Integral) for i in schedule):
        raise ValidationError("schedule entries must be integer player indices")
    sched = tuple(int(i) for i in schedule)
    if not sched:
        raise ValidationError("schedule must be nonempty")
    if any(i < 0 or i >= g.n_players for i in sched):
        raise ValidationError("schedule contains invalid player indices")
    return sched


def _ties(g: Game, counts: Sequence[int], i: int, current: int) -> list[int]:
    """Player i's best actions, ties at TOL, against ``counts`` that still
    include its ``current`` action.  ``counts`` is left unchanged."""
    utab = g.utility_tables
    own = g.action_resources[i][current]
    utils = [
        sum(utab[r, counts[r] + (r not in own)] for r in res)
        for res in g.action_resources[i]
    ]
    top = max(utils)
    return [k for k, u in enumerate(utils) if u >= top - TOL]


def best_responses(g: Game, a: Sequence[int], i: int) -> list[int]:
    """All argmax action indices for player i against a_{-i}, ties at TOL."""
    a = g.validate_joint(a)
    return _ties(g, selection_counts(g, a).tolist(), i, a[i])


def is_nash(g: Game, a: Sequence[int]) -> bool:
    """True iff every player's current action is one of its best responses."""
    a = g.validate_joint(a)
    counts = selection_counts(g, a).tolist()
    return all(a[i] in _ties(g, counts, i, a[i]) for i in range(g.n_players))


def _walk(g: Game, start: JointAction, schedule: tuple[int, ...], choose, tau_offset: int = 0) -> Trajectory:
    """The walk from ``start`` in which ``choose(t, i, joint, counts)`` picks
    the action of ``schedule[t]``; ``joint`` and ``counts`` are the state
    before the move and must not be changed."""
    counts = selection_counts(g, start).tolist()
    joint = list(start)
    wtab = g.welfare_tables
    cumtab = g.cumulative_utility_tables
    cols = np.arange(g.n_resources)
    steps = []
    for t, i in enumerate(schedule):
        choice = choose(t, i, joint, counts)
        for r in g.action_resources[i][joint[i]]:
            counts[r] -= 1
        joint[i] = choice
        for r in g.action_resources[i][choice]:
            counts[r] += 1
        carr = np.asarray(counts)
        steps.append(Step(
            tau_offset + t + 1, i, choice,
            float(wtab[cols, carr].sum()),
            float(cumtab[cols, carr].sum()),
        ))
    return Trajectory(start, tuple(steps), tuple(joint))


def _deterministic(g: Game, tie_break: str):
    """Chooser for :func:`_walk` that keeps the incumbent on a tie
    (``INCUMBENT_THEN_LEX``) or always takes the lowest tied index."""
    if tie_break not in (INCUMBENT_THEN_LEX, LEXICOGRAPHIC):
        raise ValidationError(f"unknown tie break {tie_break!r}")
    keep = tie_break == INCUMBENT_THEN_LEX

    def choose(t, i, joint, counts):
        ties = _ties(g, counts, i, joint[i])
        return joint[i] if keep and joint[i] in ties else ties[0]

    return choose


_INT16_LIMIT = 2**15  # the search mirrors hold counts and action indices as int16 below this


class _AdversarialSearch:
    """Depth-first minimization of final welfare over all best-response ties.

    The state at step t is the actions of the players that still move and
    the counts of the resources that some step >= t can touch.  Every other
    resource has its welfare finalized and is left out of the memo key, so
    the reachable-state blowup from long tie chains stays bounded by what
    the still-active resources distinguish.  Players and resources are
    ordered by their last step, latest first, so both sets are prefixes of
    that order.  ``J`` and ``C`` mirror ``joint`` and ``counts`` in it, as
    int16 arrays (int32 when a count or an action index may not fit), and
    the key at t is the bytes of their two prefixes, one memo dict per step.
    """

    def __init__(self, g: Game, schedule: tuple[int, ...], cap: int):
        self.g = g
        self.schedule = schedule
        self.cap = cap
        n_steps = len(schedule)
        player_last = [-1] * g.n_players
        for t, i in enumerate(schedule):
            player_last[i] = t
        res_last = [-1] * g.n_resources
        for i, acts in enumerate(g.action_resources):
            for r in set().union(*acts):
                res_last[r] = max(res_last[r], player_last[i])
        self.players = sorted(range(g.n_players), key=lambda i: (-player_last[i], i))
        self.res_order = sorted(range(g.n_resources), key=lambda r: (-res_last[r], r))
        self.n_future = self._prefix_lengths(player_last, n_steps)
        self.n_active = n_active = self._prefix_lengths(res_last, n_steps)
        self.finalized_after = [
            self.res_order[n_active[t + 1]:n_active[t]] for t in range(n_steps)
        ]
        self.player_pos = np.argsort(self.players).tolist()
        res_pos = np.argsort(self.res_order).tolist()
        self.moves = [
            [tuple((r, res_pos[r]) for r in res) for res in acts] for acts in g.action_resources
        ]
        widest = max(g.n_players + 1, max(map(len, g.actions)))
        self.dtype = np.int16 if widest < _INT16_LIMIT else np.int32
        self.memo: list[dict[bytes, tuple[float, int]]] = [{} for _ in range(n_steps)]
        self.explored = 0
        self.best_upper: float | None = None

    @staticmethod
    def _prefix_lengths(last: list[int], n_steps: int) -> list[int]:
        """For t = 0..n_steps, how many entries of ``last`` are >= t."""
        return (len(last) - np.searchsorted(np.sort(last), np.arange(n_steps + 1))).tolist()

    def _reset(self) -> None:
        """Puts ``joint``, ``counts`` and their mirrors at the null allocation."""
        null = self.g.null_action
        self.joint = list(null)
        self.counts = selection_counts(self.g, null).tolist()
        # memoryviews: item updates and prefix bytes cost less than on the arrays
        self.J = memoryview(np.array([null[i] for i in self.players], dtype=self.dtype))
        self.C = memoryview(np.array([self.counts[r] for r in self.res_order], dtype=self.dtype))

    def _set(self, i: int, a: int) -> None:
        """Moves player i to action ``a`` in ``joint``, ``counts`` and the mirrors."""
        counts, C, moves = self.counts, self.C, self.moves[i]
        for r, p in moves[self.joint[i]]:
            counts[r] -= 1
            C[p] -= 1
        self.joint[i] = self.J[self.player_pos[i]] = a
        for r, p in moves[a]:
            counts[r] += 1
            C[p] += 1

    def _key(self, t: int) -> bytes:
        return self.J[:self.n_future[t]].tobytes() + self.C[:self.n_active[t]].tobytes()

    def run(self) -> float:
        """Drives the ``_solve`` generators from an explicit stack, so the
        search depth never touches the interpreter's recursion limit."""
        self._reset()
        stack = []
        t, acc = 0, 0.0
        while True:
            val, key = self._lookup(t, acc)
            if key is not None:
                stack.append(self._solve(t, acc, key))
            while stack:
                try:
                    t, acc = stack[-1].send(val)
                    break
                except StopIteration as done:
                    stack.pop()
                    val = done.value
            else:
                return val

    def _lookup(self, t: int, acc: float) -> tuple[float | None, bytes | None]:
        """``(rest, None)`` when the welfare still to come after ``acc`` is
        known (the walk has ended or its state is memoised), else ``(None, key)``.
        Settling those here spares a generator per leaf and memo hit."""
        if t == len(self.schedule):
            rest = 0.0
        else:
            key = self._key(t)
            hit = self.memo[t].get(key)
            if hit is None:
                return None, key
            rest = hit[0]
        if self.best_upper is None or acc + rest < self.best_upper:
            self.best_upper = acc + rest
        return rest, None

    def _solve(self, t: int, acc: float, key: bytes):
        """Generator that searches the unmemoised state at step t, with
        ``acc`` already finalized.  It yields ``(t + 1, acc')`` for each tie,
        is sent back the welfare still to come there, and returns the least."""
        self.explored += 1
        if self.explored > self.cap:
            raise EnumerationCapError(self.explored, self.cap, self.best_upper)
        g, counts = self.g, self.counts
        wtab = g.welfare_tables
        i = self.schedule[t]
        old = self.joint[i]
        best_val: float | None = None
        best_act = -1
        for a_idx in _ties(g, counts, i, old):
            self._set(i, a_idx)
            released = sum(wtab[r, counts[r]] for r in self.finalized_after[t])
            val = released + (yield t + 1, acc + released)
            if best_val is None or val < best_val:
                best_val, best_act = val, a_idx
        self._set(i, old)
        self.memo[t][key] = (best_val, best_act)
        return best_val

    def reconstruct(self) -> Trajectory:
        """Replays the minimizing walk on the mirrors, reading each step's
        action from the memo, and records it with :func:`_walk`."""
        self._reset()
        acts = []
        for t, i in enumerate(self.schedule):
            acts.append(self.memo[t][self._key(t)][1])
            self._set(i, acts[-1])
        return _walk(self.g, self.g.null_action, self.schedule,
                     lambda t, i, joint, counts: acts[t])


def adversarial_min_welfare(g: Game, k: int = 1, *, cap: int = 500_000,
                            schedule: Sequence[int] | None = None) -> tuple[float, Trajectory]:
    """Minimum final welfare over all tie resolutions of a walk from the null
    allocation, and a trajectory that attains it.

    The walk runs ``k`` round-robin rounds unless ``schedule`` gives its step
    sequence; ``k`` must still be a positive integer.  More than ``cap``
    searched states raise :class:`EnumerationCapError`.
    """
    search = _AdversarialSearch(g, _check_schedule(g, k, schedule), cap)
    return float(search.run()), search.reconstruct()


def k_round_walk(g: Game, k: int, tie_break: str = INCUMBENT_THEN_LEX,
                 schedule: Sequence[int] | None = None) -> Trajectory:
    """Best-response walk from the null allocation for k full rounds, with
    ties kept by the incumbent (``INCUMBENT_THEN_LEX``) or resolved to the
    lowest index (``LEXICOGRAPHIC``).

    ``schedule`` replaces the k round-robin rounds with its own step
    sequence; ``k`` must still be a positive integer.  The worst walk over
    every tie resolution is :func:`adversarial_min_welfare`'s.
    """
    sched = _check_schedule(g, k, schedule)
    return _walk(g, g.null_action, sched, _deterministic(g, tie_break))


def walk_to_nash(g: Game, tie_break: str = INCUMBENT_THEN_LEX) -> Trajectory:
    """Iterate rounds until a full round leaves the state unchanged.

    Convergence is guaranteed by the potential; a ceiling of 10**6 steps
    (:class:`EnumerationCapError`) guards against tolerance artifacts.
    """
    n = g.n_players
    one_round = round_robin_schedule(n, 1)
    choose = _deterministic(g, tie_break)
    all_steps: list[Step] = []
    state = g.null_action
    taken = 0
    while True:
        if taken + n > _WALK_STEP_CEILING:
            raise EnumerationCapError(taken, _WALK_STEP_CEILING, None)
        traj = _walk(g, state, one_round, choose, taken)
        taken += n
        all_steps.extend(traj.steps)
        if traj.final == state:
            return Trajectory(g.null_action, tuple(all_steps), traj.final)
        state = traj.final


def reachable_nash_min(g: Game, cap: int = 500_000) -> tuple[float, JointAction]:
    """Minimum welfare over Nash states reachable by some tie resolution.

    Explores the best-response transition graph from the null allocation; a
    walk can stay at any reachable Nash state forever, so these are exactly
    the attainable limit points under adversarial tie breaking.
    """
    n = g.n_players
    start = (0, g.null_action)
    seen = {start}
    stack = [start]
    nash_cache: dict[JointAction, bool] = {}
    best: tuple[float, JointAction] | None = None
    while stack:
        pos, joint = stack.pop()
        if joint not in nash_cache:
            nash_cache[joint] = is_nash(g, joint)
            if nash_cache[joint]:
                w = welfare(g, joint)
                if best is None or w < best[0]:
                    best = (w, joint)
        for b in best_responses(g, joint, pos):
            child = list(joint)
            child[pos] = b
            state = ((pos + 1) % n, tuple(child))
            if state not in seen:
                if len(seen) >= cap:
                    raise EnumerationCapError(len(seen), cap, best[0] if best else None)
                seen.add(state)
                stack.append(state)
    if best is None:
        raise EnumerationCapError(len(seen), cap, None)
    return best


_BLOCK = 32  # most joint profiles of the last players under one bound
_BATCH = 1 << 14  # most profiles, or bound terms, one numpy pass handles


def optimum(g: Game, *, budget: int = 10**8) -> tuple[JointAction, float]:
    """Exact welfare maximizer: brute force over the joint action space, with
    blocks that provably hold no maximizer skipped.

    Joint actions are scored in flat order (last player fastest) by one fixed
    expression and the first maximum wins, so the result is the plain brute
    force one bit for bit, ties included.  The last players span blocks of at
    most ``_BLOCK`` profiles.  The other players are walked depth first, a
    batch of sibling subtrees at a time, and a subtree is skipped when its
    welfare bound (the partial welfare plus each remaining player's largest
    possible gain) stays below a welfare already attained.  ``budget`` caps
    the worst-case work, the size of the joint action space.
    """
    sizes = [len(acts) for acts in g.actions]
    total = math.prod(sizes)
    if total > budget:
        raise BudgetExceededError(total, budget)
    n, n_res = g.n_players, g.n_resources
    onehot = []
    for acts in g.action_resources:
        m = np.zeros((len(acts), n_res))
        for k, res in enumerate(acts):
            for r in res:
                m[k, r] = 1.0
        onehot.append(m)
    # A selection is held as offsets count_r * n_res + r into the row-major
    # (count, resource) tables; an action adds n_res at each of its resources.
    step = [(m * n_res).astype(np.int64) for m in onehot]
    wtab = g.welfare_tables
    wflat = wtab.T.ravel()

    def score(offsets: np.ndarray) -> np.ndarray:
        return wflat[offsets].sum(axis=-1)

    # gain[r, c] is the largest welfare increment resource r gives to any
    # selector beyond its c-th, so it bounds every completion from counts c
    # whatever the rules' shape.  slack stays far above the rounding of the
    # bound and of score, each under (n + n_res)**2 * 2**-52 of the table mass.
    inc = np.diff(wtab, axis=1)
    iflat = inc.T.ravel()
    gflat = np.maximum.accumulate(inc[:, ::-1], axis=1)[:, ::-1].T.ravel()
    slack = (n + n_res + 1) ** 2 * 2.0**-44 * float(np.abs(wtab).sum())

    # threshold: the welfare reached by best-response sweeps from the empty
    # allocation, the first of which is a greedy fill.  Every move raises
    # welfare by more than slack, so the sweeps end.
    joint = list(g.null_action)
    offsets = np.arange(n_res)
    moved = True
    while moved:
        moved = False
        for i in range(n):
            offsets -= step[i][joint[i]]
            gains = onehot[i] @ iflat[offsets]
            a = int(np.argmax(gains))
            if gains[a] > gains[joint[i]] + slack:
                joint[i], moved = a, True
            offsets += step[i][joint[i]]
    threshold = float(score(offsets))

    split, block = n - 1, sizes[-1]
    while split > 0 and block * sizes[split - 1] <= _BLOCK:
        split -= 1
        block *= sizes[split]
    suffix = np.zeros((block, n_res), dtype=np.int64)
    rem = np.arange(block)
    for i in reversed(range(split, n)):
        suffix += step[i][rem % sizes[i]]
        rem //= sizes[i]
    all_acts = np.concatenate(onehot).T
    heads = np.cumsum([0] + sizes[:-1])
    rows = max(1, _BATCH // max(block, max(sizes) * sum(sizes)))  # subtrees per batch

    best_w = -np.inf
    best_flat = 0
    stack = [(0, np.arange(n_res)[None, :], np.zeros(1, dtype=np.int64), np.full(1, np.inf))]
    while stack:
        d, offsets, flat, bound = stack.pop()
        keep = bound + slack >= max(threshold, best_w)
        offsets, flat = offsets[keep], flat[keep]
        if d == split:
            if len(flat):
                w = score(offsets[:, None, :] + suffix).ravel()
                k = int(np.argmax(w))
                if w[k] > best_w:
                    best_w = float(w[k])
                    best_flat = int(flat[k // block]) * block + k % block
            continue
        offsets = (offsets[:, None, :] + step[d]).reshape(-1, n_res)
        flat = (flat[:, None] * sizes[d] + np.arange(sizes[d])).ravel()
        best_gains = np.maximum.reduceat(gflat[offsets] @ all_acts, heads, axis=1)
        bound = score(offsets) + best_gains[:, d + 1:].sum(axis=1)
        for s in reversed(range(0, len(flat), rows)):
            stack.append((d + 1, offsets[s:s + rows], flat[s:s + rows], bound[s:s + rows]))
    joint = []
    rem = best_flat
    for i in reversed(range(n)):
        joint.append(rem % sizes[i])
        rem //= sizes[i]
    return tuple(reversed(joint)), best_w


def efficiency(g: Game, k: int | float, tie_break: str = INCUMBENT_THEN_LEX) -> float:
    """Walk welfare after k rounds (or at the limit) divided by the exact optimum.

    ``k`` is a positive integer, or ``math.inf`` for the limit point.
    ``tie_break`` is a rule of :func:`k_round_walk` or ``ADVERSARIAL``, the
    worst value over every tie resolution: that of
    :func:`adversarial_min_welfare`, or of :func:`reachable_nash_min` at the
    limit.  Other caps or schedules are those functions' own.
    """
    limit = k == math.inf
    # a bad k or tie rule raises before the optimum's cost
    if not limit:
        _check_schedule(g, k, None)
    if tie_break != ADVERSARIAL:
        _deterministic(g, tie_break)
    _, opt_w = optimum(g)
    if opt_w <= 0.0:
        return 1.0
    if tie_break == ADVERSARIAL:
        w = (reachable_nash_min(g) if limit else adversarial_min_welfare(g, k))[0]
    elif limit:
        w = welfare(g, walk_to_nash(g, tie_break).final)
    else:
        w = k_round_walk(g, k, tie_break).final_welfare
    return w / opt_w


def one_round_can_end_at(g: Game, target: Sequence[int]) -> bool:
    """Whether some tie resolution of a one-round walk ends exactly at ``target``."""
    target = g.validate_joint(target)
    counts = [0] * g.n_resources  # the null allocation's
    for i, empty in enumerate(g.null_action):
        if target[i] not in _ties(g, counts, i, empty):
            return False
        for r in g.action_resources[i][target[i]]:
            counts[r] += 1
    return True
