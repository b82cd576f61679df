"""Round-robin best-response walks, Nash checks, optima, and efficiency metrics."""
from __future__ import annotations

import math
from collections import Counter
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
_GATHER = 1 << 16  # most (step, resource) count entries one walk gather reads


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
    """One move of a walk; its tau is its 1-based position in ``Trajectory.steps``."""

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
    if not isinstance(k, Integral) or k < 1:
        raise ValidationError(f"k must be a positive integer, got {k!r}")
    if schedule is None:
        return round_robin_schedule(g.n_players, k)
    sched = tuple(int(g.validate_player(i)) for i in schedule)
    if not sched:
        raise ValidationError("schedule must be nonempty")
    return sched


def _ties(g: Game, counts: Sequence[int], i: int, current: int) -> list[int]:
    """Player i's best actions, ties at TOL, against ``counts`` that still
    include its ``current`` action.  ``counts`` is left unchanged."""
    urows = g._utility_rows
    own = g.action_resources[i][current]
    utils = [
        sum(urows[r][counts[r] + (r not in own)] for r in res)
        for res in g.action_resources[i]
    ]
    top = max(utils)
    return [k for k, u in enumerate(utils) if u >= top - TOL]


def best_responses(g: Game, a: Sequence[int], i: int) -> list[int]:
    """All argmax action indices for player i against a_{-i}, ties at TOL."""
    i = g.validate_player(i)
    return _ties(g, selection_counts(g, a).tolist(), i, a[i])


def is_nash(g: Game, a: Sequence[int]) -> bool:
    """True iff every player's current action is one of its best responses."""
    counts = selection_counts(g, a).tolist()
    return all(a[i] in _ties(g, counts, i, a[i]) for i in range(g.n_players))


def _walk(g: Game, start: JointAction, schedule: tuple[int, ...], choose) -> Trajectory:
    """The walk from ``start`` in which ``choose(t, i, joint, counts)`` picks
    the action of ``schedule[t]``; ``joint`` and ``counts`` are the state
    before the move and must not be changed.

    Welfare and potential are read for a block of steps at a time, one
    gather per table over at most ``_GATHER`` (step, resource) counts.  A
    block is its start counts plus the running sum of the moves recorded in
    it, as flat (step in block, resource) positions left and entered.  Each
    row is summed as :func:`welfare` sums one state, to the same bits.
    """
    counts = selection_counts(g, start).tolist()
    joint = list(start)
    wtab = g.welfare_tables
    cumtab = g.cumulative_utility_tables
    n_res = g.n_resources
    cols = np.arange(n_res)
    rows = max(1, _GATHER // n_res)
    base = np.array(counts, dtype=np.int64)
    acts, left, entered, wel, pot = [], [], [], [], []
    for t, i in enumerate(schedule):
        choice = choose(t, i, joint, counts)
        pos = t % rows * n_res
        for r in g.action_resources[i][joint[i]]:
            counts[r] -= 1
            left.append(pos + r)
        joint[i] = choice
        for r in g.action_resources[i][choice]:
            counts[r] += 1
            entered.append(pos + r)
        acts.append(choice)
        if t % rows == rows - 1 or t == len(schedule) - 1:
            moves = np.bincount(entered, minlength=pos + n_res)
            moves -= np.bincount(left, minlength=pos + n_res)
            block = moves.reshape(-1, n_res).cumsum(axis=0)
            block += base
            wel += wtab[cols, block].sum(axis=1).tolist()
            pot += cumtab[cols, block].sum(axis=1).tolist()
            base, left, entered = block[-1].copy(), [], []  # a view would keep the block alive
    return Trajectory(start, tuple(map(Step, schedule, acts, wel, pot)), tuple(joint))


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


_INT16_LIMIT = 2**15  # the search mirror holds counts and action indices as int16 below this


class _AdversarialSearch:
    """Depth-first minimization of final welfare over all best-response ties.

    The state at step t is the actions of the players that still move and
    the counts of the resources that some step >= t can touch, taken with
    the mover lifted to its empty action.  Every other resource has its
    welfare finalized and is left out of the memo key, so the reachable-state
    blowup from long tie chains stays bounded by what the still-active
    resources distinguish.  The lift is exact: ``_ties`` scores a held action
    on the counts without it plus one, which is what the lifted counts with
    an empty own action give, in the same order, and the move then
    overwrites the action.  So every state that lifts to one key has the
    same ties and the same children.  One int16 mirror ``S`` (int32 when a
    count or an action index may not fit) holds the players' actions in
    ``[0, n)``, ordered by last step, latest last, and the resources' counts
    in ``[n, n + R)``, latest first.  The players that still move then end
    the first part and the active resources start the second, so the key at
    t is the bytes of one slice ``S[lo[t]:hi[t]]``, one memo dict per step.
    """

    def __init__(self, g: Game, schedule: tuple[int, ...], cap: int):
        self.g = g
        self.schedule = schedule
        self.cap = cap
        n, n_steps = g.n_players, len(schedule)
        player_last = [-1] * n
        for t, i in enumerate(schedule):
            player_last[i] = t
        res_last = [-1] * g.n_resources
        for i, acts in enumerate(g.action_resources):
            for r in set().union(*acts):
                res_last[r] = max(res_last[r], player_last[i])
        self.players = sorted(range(n), key=player_last.__getitem__)
        self.res_order = sorted(range(g.n_resources), key=lambda r: (-res_last[r], r))
        self.lo = [n - m for m in self._prefix_lengths(player_last, n_steps)]
        n_active = self._prefix_lengths(res_last, n_steps)
        self.hi = [n + m for m in n_active]
        wrows = g._welfare_rows
        self.finalized_after = [  # (welfare row, resource) of those step t's move finalizes
            [(wrows[r], r) for r in self.res_order[n_active[t + 1]:n_active[t]]]
            for t in range(n_steps)
        ]
        self.slot = np.argsort(self.players).tolist()
        res_slot = (n + np.argsort(self.res_order)).tolist()
        self.moves = [
            [tuple((r, res_slot[r]) for r in res) for res in acts] for acts in g.action_resources
        ]
        widest = max(n + 1, max(map(len, g.actions)))
        self.dtype = np.int16 if widest < _INT16_LIMIT else np.int32
        self.memo: list[dict[bytes, tuple[float, int]]] = [{} for _ in range(n_steps)]
        self.explored = 0
        self.best_upper: float | None = None

    @staticmethod
    def _prefix_lengths(last: list[int], n_steps: int) -> list[int]:
        """For t = 0..n_steps, how many entries of ``last`` are >= t."""
        return (len(last) - np.searchsorted(np.sort(last), np.arange(n_steps + 1))).tolist()

    def _reset(self) -> None:
        """Puts ``joint``, ``counts`` and ``S`` at the null allocation."""
        null = self.g.null_action
        self.joint = list(null)
        self.counts = [0] * self.g.n_resources  # the null allocation's
        # a memoryview: item updates and slice bytes cost less than on the array
        self.S = memoryview(np.array([null[i] for i in self.players] + self.counts, dtype=self.dtype))

    def _set(self, i: int, a: int) -> None:
        """Moves player i to action ``a`` in ``joint``, ``counts`` and ``S``."""
        counts, S, moves = self.counts, self.S, self.moves[i]
        for r, p in moves[self.joint[i]]:
            counts[r] -= 1
            S[p] -= 1
        self.joint[i] = S[self.slot[i]] = a
        for r, p in moves[a]:
            counts[r] += 1
            S[p] += 1

    def _lift(self, t: int) -> bytes:
        """Moves step t's mover to its empty action and returns the memo key."""
        i = self.schedule[t]
        if self.joint[i] != self.g.null_action[i]:
            self._set(i, self.g.null_action[i])
        return self.S[self.lo[t]:self.hi[t]].tobytes()

    def run(self) -> float:
        """The least final welfare, searched from an explicit stack of frames
        ``[t, acc, key, old, ties, action, released, best, best action]``,
        so the depth never touches the interpreter's recursion limit.  A
        frame is an unmemoised state at step t with ``acc`` finalized; it
        restores the mover's ``old`` action when its ties are spent."""
        self._reset()
        g, sched, null, counts = self.g, self.schedule, self.g.null_action, self.counts
        joint, memo, fin_after = self.joint, self.memo, self.finalized_after
        set_, lift = self._set, self._lift
        stack, t, acc = [], 0, 0.0
        while True:
            rest = 0.0  # the welfare still to come, None while a new frame has no child
            if t < len(sched):
                i = sched[t]
                old = joint[i]
                key = lift(t)
                hit = memo[t].get(key)
                if hit is None:
                    self.explored += 1
                    if self.explored > self.cap:
                        raise EnumerationCapError(self.explored, self.cap, self.best_upper)
                    stack.append([t, acc, key, old, iter(_ties(g, counts, i, null[i])), -1, 0.0, None, -1])
                    rest = None
                else:
                    set_(i, old)
                    rest = hit[0]
            if rest is not None and (self.best_upper is None or acc + rest < self.best_upper):
                self.best_upper = acc + rest
            while stack:
                frame = stack[-1]
                t, acc, key, old, ties, a, released, best, best_act = frame
                if rest is not None and (best is None or released + rest < best):
                    best, best_act = frame[7:] = released + rest, a
                if (a := next(ties, None)) is not None:
                    set_(sched[t], a)
                    fin = fin_after[t]
                    released = sum(row[counts[r]] for row, r in fin) if fin else 0.0
                    frame[5:7] = a, released
                    t, acc = t + 1, acc + released
                    break
                set_(sched[t], old)
                memo[t][key] = (best, best_act)
                rest = best
                stack.pop()
            else:
                return rest

    def reconstruct(self) -> Trajectory:
        """Replays the minimizing walk on ``S``, reading each step's action
        from the memo, and records it with :func:`_walk`."""
        self._reset()
        acts = []
        for t, i in enumerate(self.schedule):
            acts.append(self.memo[t][self._lift(t)][1])
            self._set(i, acts[-1])
        return _walk(self.g, self.g.null_action, self.schedule,
                     lambda t, i, joint, counts: acts[t])


def adversarial_min_welfare(g: Game, k: int = 1, *, cap: int = 500_000,
                            schedule: Sequence[int] | None = None) -> tuple[float, Trajectory]:
    """Minimum final welfare over all tie resolutions of a walk from the null
    allocation, and a trajectory that attains it.

    The walk runs ``k`` round-robin rounds unless ``schedule`` gives its step
    sequence; ``k`` must still be a positive integer.  More than ``cap``
    searched states raise :class:`EnumerationCapError`.  The value is the
    trajectory's final welfare, summed as :func:`welfare` sums a state.
    """
    search = _AdversarialSearch(g, _check_schedule(g, k, schedule), cap)
    search.run()
    traj = search.reconstruct()
    return traj.final_welfare, traj


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
    while True:
        if len(all_steps) + n > _WALK_STEP_CEILING:
            raise EnumerationCapError(len(all_steps), _WALK_STEP_CEILING, None)
        traj = _walk(g, state, one_round, choose)
        all_steps.extend(traj.steps)
        if traj.final == state:
            return Trajectory(g.null_action, tuple(all_steps), traj.final)
        state = traj.final


def reachable_nash_min(g: Game, cap: int = 500_000) -> tuple[float, JointAction]:
    """Minimum welfare over Nash states reachable by some tie resolution, and
    the least such state of that welfare.

    A depth-first search over (mover, joint) from the null allocation, on
    :class:`_AdversarialSearch`'s state.  A walk can stay at a reachable Nash
    joint forever, so these are exactly the limit points under adversarial
    ties.  A joint is Nash when all n of its states keep the mover's action.
    """
    n = g.n_players
    search = _AdversarialSearch(g, round_robin_schedule(n, 1), cap)
    search._reset()
    joint, state = search.joint, (0, search.S[:n].tobytes())
    seen, stays, stack, best = {state}, Counter(), [], None
    while True:
        i, key = state
        ties = _ties(g, search.counts, i, joint[i])
        stays[key] += joint[i] in ties
        if stays[key] == n:
            nash = (welfare(g, joint), tuple(joint))
            best = nash if best is None else min(best, nash)
        stack.append((i, joint[i], iter(ties)))
        while state in seen:
            while (nxt := next(stack[-1][2], None)) is None:
                i, old, _ = stack.pop()
                search._set(i, old)
                if not stack:
                    return best
            search._set(stack[-1][0], nxt)
            state = ((stack[-1][0] + 1) % n, search.S[:n].tobytes())
        if len(seen) >= cap:
            raise EnumerationCapError(len(seen), cap, best[0] if best else None)
        seen.add(state)


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
    tail = np.unravel_index(np.arange(block), sizes[split:])  # C order: last player fastest
    suffix = sum(step[i][k] for i, k in zip(range(split, n), tail))
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
    return tuple(map(int, np.unravel_index(best_flat, sizes))), best_w


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
