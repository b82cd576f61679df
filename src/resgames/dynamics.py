"""Round-robin best-response walks, Nash checks, optima, and efficiency metrics."""
from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    TOL,
    Game,
    JointAction,
    ValidationError,
    _integer,
    selection_counts,
    welfare,
)

#: The deterministic tie rule: keep the incumbent if tied, else the lowest tied index.
INCUMBENT_THEN_LEX = "incumbent_then_lex"
#: The worst case over every tie resolution; only :func:`efficiency` takes it.
ADVERSARIAL = "adversarial"

_WALK_STEP_CEILING = 10**6
_GATHER = 1 << 16  # most (step, resource) terms one walk block holds


class BudgetExceededError(RuntimeError):
    """Exact enumeration would exceed the optimum's fixed budget, ``_BUDGET``."""

    def __init__(self, needed: int, budget: int):
        super().__init__(
            f"exact optimum may need {needed} joint evaluations, budget is {budget}; "
            "reduce the instance"
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
    """The walk's steps, ``schedule`` or else k round-robin rounds; k must be a
    positive integer, and a walk of more than 10**6 steps is refused unbuilt."""
    if not _integer(k) or k < 1:
        raise ValidationError(f"k must be a positive integer, got {k!r}")
    steps = int(k) * g.n_players if schedule is None else len(schedule)
    if steps > _WALK_STEP_CEILING:
        raise ValidationError(f"a walk of {steps} steps exceeds the {_WALK_STEP_CEILING}-step ceiling")
    if schedule is None:
        return round_robin_schedule(g.n_players, k)
    sched = tuple(int(g.validate_player(i)) for i in schedule)
    if not sched:
        raise ValidationError("schedule must be nonempty")
    return sched


def _ties(g: Game, counts: Sequence[int], i: int, rows: list[list[float]] | None = None) -> list[int]:
    """Player i's best actions, ties at TOL, against ``counts`` taken with
    player i lifted to its empty action: action k scores the sum of
    ``rows[r][counts[r] + 1]`` over its resources r, ``rows`` the utility
    rows unless given.  ``counts`` is left unchanged."""
    rows = g._utility_rows if rows is None else rows
    utils = [sum(rows[r][counts[r] + 1] for r in res) for res in g.action_resources[i]]
    top = max(utils)
    return [k for k, u in enumerate(utils) if u >= top - TOL]


def best_responses(g: Game, a: Sequence[int], i: int) -> list[int]:
    """All argmax action indices for player i against a_{-i}, ties at TOL."""
    i, a = g.validate_player(i), g.validate_joint(a)
    return _ties(g, selection_counts(g, (*a[:i], g.null_action[i], *a[i + 1:])).tolist(), i)


def is_nash(g: Game, a: Sequence[int]) -> bool:
    """True iff one incumbent-keeping round from ``a`` leaves it unchanged,
    the fixed point :func:`walk_to_nash` stops on; the round is not recorded."""
    a = g.validate_joint(a)
    return _incumbent_walk(g, a, range(g.n_players), g.n_players)[1] == a


def _incumbent_walk(g: Game, start: JointAction, order: Sequence[int], n_steps: int,
                    rows: list[list[float]] | None = None) -> tuple[list[int], JointAction]:
    """The actions of the ``INCUMBENT_THEN_LEX`` walk from ``start`` whose
    step t moves ``order[t % len(order)]``, at most ``n_steps`` of them, and
    the state it ends at; ``rows`` is passed to :func:`_ties`.  Nothing is
    recorded.

    The mover, lifted to its empty action, keeps its action if it is tied for
    best, else takes the lowest tied index.  The rule reads the state alone,
    so once every player of ``order`` has moved since the last step that
    changed the state (that step's mover included), the state is its fixed
    point, a Nash state, and the walk stops: each later step would repeat
    its player's last one.
    """
    joint, counts = list(start), selection_counts(g, start).tolist()
    acts, since, movers = [], set(), len(set(order))
    for t in range(n_steps):
        i = order[t % len(order)]
        old, res = joint[i], g.action_resources[i]
        for r in res[old]:
            counts[r] -= 1
        ties = _ties(g, counts, i, rows)
        a = joint[i] = old if old in ties else ties[0]
        for r in res[a]:
            counts[r] += 1
        acts.append(a)
        if a != old:
            since.clear()
        since.add(i)
        if len(since) == movers:
            break
    return acts, tuple(joint)


def _walk(g: Game, schedule: tuple[int, ...], acts: Sequence[int]) -> Trajectory:
    """Records the walk from the null allocation in which step t moves
    ``schedule[t]`` to ``acts[t]``.  Past the end of ``acts`` each step is
    its player's last recorded one, as a settled :func:`_incumbent_walk`
    leaves them.

    Each step's per-resource welfare and potential terms are kept in two
    running rows, which start at the null allocation's w(0) = F(0) = 0, and
    a move rewrites only the entries of the resources it leaves and enters.
    After each step both rows are copied into a block of at most ``_GATHER``
    (step, resource) terms; a full block, and the last one, is summed a row
    at a time, as :func:`welfare` sums one state, to the same bits.
    """
    n_res = g.n_resources
    counts, joint = [0] * n_res, list(g.null_action)
    wrows, crows = g._welfare_rows, g._cumulative_rows
    rows = min(max(1, _GATHER // n_res), len(acts))
    wrun = array("d", [row[0] for row in wrows])
    prun = array("d", [row[0] for row in crows])
    wblock, pblock = np.empty((rows, n_res)), np.empty((rows, n_res))
    wflat, pflat = memoryview(wblock.reshape(-1)), memoryview(pblock.reshape(-1))
    wel, pot, last = [], [], len(acts) - 1
    for t, (i, a) in enumerate(zip(schedule, acts)):
        res = g.action_resources[i]
        for r in res[joint[i]]:
            counts[r] -= 1
            wrun[r], prun[r] = wrows[r][counts[r]], crows[r][counts[r]]
        joint[i] = a
        for r in res[a]:
            counts[r] += 1
            wrun[r], prun[r] = wrows[r][counts[r]], crows[r][counts[r]]
        row = t % rows
        wflat[row * n_res:(row + 1) * n_res] = wrun
        pflat[row * n_res:(row + 1) * n_res] = prun
        if row == rows - 1 or t == last:
            wel += wblock[:row + 1].sum(axis=1).tolist()
            pot += pblock[:row + 1].sum(axis=1).tolist()
    steps = list(map(Step, schedule, acts, wel, pot))
    latest = dict(zip(schedule, steps))  # each player's last recorded step
    steps += map(latest.__getitem__, schedule[len(steps):])
    return Trajectory(g.null_action, tuple(steps), tuple(joint))


class _AdversarialSearch:
    """Depth-first minimization of final welfare over all best-response ties,
    with states that provably cannot lower the minimum pruned.

    The state at step t is the actions of the players that still move and the
    counts of the resources that some step >= t can touch, taken with the
    mover lifted to its empty action.  Every other resource has its welfare
    finalized and is left out of the memo key, so the reachable-state blowup
    from long tie chains stays bounded by what the still-active resources
    distinguish.  ``_ties`` reads the lifted counts, and the move overwrites
    the mover's action, so every state that lifts to one key has the same ties
    and the same children.  One int32 mirror ``S`` holds the players' actions
    in ``[0, n)``, ordered by last step, latest last, and the resources'
    counts in ``[n, n + R)``, latest first.  The players that still move then
    end the first part and the active resources start the second, so the state
    at t is one slice ``S[lo[t]:hi[t]]``.  Within it, a player that has not
    moved before t is at its empty action, and a resource that no player who
    moved before t can select is at count 0, in every state at step t.  The
    key drops the players past ``pe[t]``, one past the last slot of a player
    that moved before t, and the resources before ``qs[t]``, the first slot of
    a resource such a player can select: it is the bytes of ``S[lo[t]:pe[t]]``
    and ``S[qs[t]:hi[t]]`` joined.  Each step has its own memo dict and fixed
    part lengths, so two states share a key exactly when they share the slice.

    The bound is Rosenthal's exact potential Phi = sum_r v_r * F_r(c_r), F_r
    the cumulative utility, which ``_set`` keeps in ``phi``.  A move changes
    Phi by the mover's utility change, so no move lowers it by more than the
    tie tolerance delta = TOL, and a player's first move, off its empty
    action, raises it by at least ``u_min[i]``, the least utility a best
    response of that player can have.  With ``alpha`` the least W/F over the
    live table entries (1 when W >= F entrywise, as under common interest),
    the welfare still to come at step t is at least
    ``max(0, alpha * (Phi_active + gain[t]))``: Phi_active leaves out the
    finalized resources, and ``gain[t]`` sums ``u_min`` over the players
    whose first step is t or later, less delta * (steps - t).  A state is
    pruned (``pruned`` counts them) when its finalized welfare plus that
    bound, less a rounding slack ``eps``, reaches the least finished walk.
    On an ``exact`` game (every table entry a multiple of 2**-20, the table
    mass below 2**30 and alpha 1) every sum and every tie is exact, so
    delta = eps = 0 and a state is pruned at equality: the walk found
    earlier wins the tie.

    A memo entry ``(value, walk)`` is exact: the least welfare to come and
    the first walk in tie order that attains it, bit for bit those of the
    unpruned search; a walk is a linked pair ``(action, walk)``, None past
    the last step.  A state some of whose walks were pruned is exact only
    when the pruned part cannot win: its lower bound, less ``eps / 2``, is
    above the best value, or equal to it if it lies after the best walk in
    tie order.  An inexact state is not memoised, and a later visit searches
    it again.  A walk pruned against the least finished walk keeps ``eps``
    of margin, so it cannot make a state on that walk inexact, and the first
    minimizing walk is never pruned: every state on it ends exact.
    """

    def __init__(self, g: Game, schedule: tuple[int, ...], cap: int):
        self.g = g
        self.schedule = schedule
        self.cap = cap
        n, n_res, n_steps = g.n_players, g.n_resources, len(schedule)
        # each player's first and last step, and each resource's first and
        # last step among the players that can select it; n_steps and -1 when none
        player_first, player_last = [n_steps] * n, [-1] * n
        for t, i in enumerate(schedule):
            if player_last[i] < 0:
                player_first[i] = t
            player_last[i] = t
        res_first, res_last = [n_steps] * n_res, [-1] * n_res
        for i, acts in enumerate(g.action_resources):
            first, last = player_first[i], player_last[i]
            for r in set().union(*acts):
                if last > res_last[r]:
                    res_last[r] = last
                if first < res_first[r]:
                    res_first[r] = first
        players = np.argsort(player_last, kind="stable")
        res_order = np.argsort(np.negative(res_last), kind="stable")
        slot, res_slot = np.argsort(players), n + np.argsort(res_order)
        lo = n - self._prefix_lengths(player_last, n_steps)
        n_active = self._prefix_lengths(res_last, n_steps)
        hi = n + n_active
        # the key's ends: the players past pe[t] have not moved before step t,
        # and no player that has can select a resource before qs[t].  Slots
        # are filed at first step + 1, so the prefix max and min at t read the
        # steps before t; the last entry, never read, takes those that never move
        top = np.full(n_steps + 2, -1)
        top[np.add(player_first, 1)] = slot
        bottom = np.full(n_steps + 2, n + n_res)
        np.minimum.at(bottom, np.add(res_first, 1), res_slot)
        self.lo, self.hi = lo.tolist(), hi.tolist()
        self.pe = np.maximum(lo, np.maximum.accumulate(top[:-1]) + 1).tolist()
        self.qs = np.minimum(hi, np.minimum.accumulate(bottom[:-1])).tolist()
        res_order, n_active = res_order.tolist(), n_active.tolist()
        wrows, crows = g._welfare_rows, g._cumulative_rows
        self.finalized_after = [  # (welfare row, potential row, resource) of those step t's move finalizes
            [(wrows[r], crows[r], r) for r in res_order[n_active[t + 1]:n_active[t]]]
            for t in range(n_steps)
        ]
        self.slot, res_slot = slot.tolist(), res_slot.tolist()
        urows = g._utility_rows
        self.moves = [
            [tuple([(r, res_slot[r], urows[r]) for r in res]) for res in acts] for acts in g.action_resources
        ]
        self.memo: list[dict[bytes, tuple[float, tuple | None]]] = [{} for _ in range(n_steps)]
        self.explored = self.pruned = 0
        # the null allocation, where every search starts and ends
        self.joint = list(g.null_action)
        self.counts = [0] * g.n_resources
        self.phi = 0.0
        # a memoryview: item updates and slice bytes cost less than on the array
        self.S = memoryview(np.array([self.joint[i] for i in players] + self.counts, dtype=np.int32))

        W, U, F = g.welfare_tables, g.utility_tables, g.cumulative_utility_tables
        cols = np.arange(W.shape[1])
        live = (cols >= 1) & (cols <= np.array(g.max_selectors)[:, None])
        pos = live & (F > 0)
        self.alpha = min(1.0, float((W[pos] / F[pos]).min())) if pos.any() else 1.0
        least = np.where(live, U, np.inf).min(axis=1).tolist()
        self.u_min = [max([sum([least[r] for r in res]) for res in acts]) for acts in g.action_resources]
        self.mass = float(np.abs(W).sum() + np.abs(U).sum() + np.abs(F).sum())
        self.exact = self.alpha == 1.0 and self.mass < 2.0**30 and not any(
            np.mod(tab * 2.0**20, 1.0).any() for tab in (W, U, F))
        delta = 0.0 if self.exact else TOL
        gain = [0.0] * (n_steps + 1)
        for t, u in zip(player_first, self.u_min):
            if t < n_steps:
                gain[t] = u
        for t in reversed(range(n_steps)):
            gain[t] += gain[t + 1] - delta
        self.gain = gain  # gain[t] - delta * (steps - t), as one suffix sum
        self.eps = self._slack(n_steps, delta * n_steps)

    @staticmethod
    def _prefix_lengths(last: list[int], n_steps: int) -> np.ndarray:
        """For t = 0..n_steps, how many entries of ``last`` are >= t."""
        return len(last) - np.searchsorted(np.sort(last), np.arange(n_steps + 1))

    def _slack(self, depth: int, drop: float) -> float:
        """The rounding slack of a bound read ``depth`` moves deep that allows
        a tie drop of ``drop``; 0 on an exact game.  Otherwise each of the
        ``ops`` roundings in a welfare sum, the bound or ``phi`` is at most
        2**-53 of the table mass plus ``drop``, and eps is 512 times their
        total."""
        if self.exact:
            return 0.0
        g = self.g
        # phi takes at most 2 * |actions| + 3 updates of |action| entries per move
        width = max(len(res) for acts in g.action_resources for res in acts)
        ops = depth * (2 * max(map(len, g.actions)) + 3) * width + g.n_players + g.n_resources + 1
        return ops * 2.0**-44 * (self.mass + drop)

    def _set(self, i: int, a: int) -> None:
        """Moves player i to action ``a`` in ``joint``, ``counts``, ``phi`` and ``S``."""
        counts, S, moves, phi = self.counts, self.S, self.moves[i], self.phi
        for r, p, urow in moves[self.joint[i]]:
            phi -= urow[counts[r]]
            counts[r] -= 1
            S[p] -= 1
        self.joint[i] = S[self.slot[i]] = a
        for r, p, urow in moves[a]:
            counts[r] += 1
            S[p] += 1
            phi += urow[counts[r]]
        self.phi = phi

    def run(self) -> float:
        """The least final welfare, searched from an explicit stack of frames
        ``[t, acc, fin, phi, key, old, ties, action, released, best,
        best_walk, sure, before, after]``, so the depth never touches the
        interpreter's recursion limit.  A frame is an unmemoised state at
        step t with welfare ``acc`` and potential ``fin`` finalized and
        potential ``phi``; it restores the mover's ``old`` action and ``phi``
        when its ties are spent, so the search ends at the null allocation it
        starts from.  ``best`` is the least value its finished walks reach,
        ``best_walk`` the first walk that reaches it, ``sure`` whether that
        child is exact, and ``before`` and ``after`` bound what its pruned
        walks reach, ordered before and after it.  A memo hit hands up its
        value and walk as a finished frame does; the root's walk is left in
        ``self.walk``."""
        g, sched, counts, null = self.g, self.schedule, self.counts, self.g.null_action
        joint, memo, fin_after, gain = self.joint, self.memo, self.finalized_after, self.gain
        S, lo, pe, qs, hi = self.S, self.lo, self.pe, self.qs, self.hi
        alpha, eps, half, inf = self.alpha, self.eps, self.eps / 2, math.inf
        set_ = self._set
        stack, t, acc, fin, upper = [], 0, 0.0, 0.0, inf  # upper: the least finished walk
        while True:
            # the state's least welfare to come over the walks it finished,
            # the first walk that reaches it, and a lower bound on its pruned
            # walks; rest is None while a new frame has no child
            rest, walk, low = 0.0, None, inf
            if t < len(sched):
                bound = max(0.0, alpha * (self.phi - fin + gain[t]))
                if acc + bound - eps >= upper:
                    rest, low = inf, bound
                    self.pruned += 1
                else:
                    i = sched[t]
                    old, phi = joint[i], self.phi
                    if old != null[i]:
                        set_(i, null[i])
                    key = S[lo[t]:pe[t]].tobytes() + S[qs[t]:hi[t]].tobytes()
                    if (hit := memo[t].get(key)) is None:
                        self.explored += 1
                        if self.explored > self.cap:
                            raise EnumerationCapError(self.explored, self.cap, None if upper == inf else upper)
                        stack.append([t, acc, fin, phi, key, old, iter(_ties(g, counts, i)),
                                      -1, 0.0, inf, None, True, inf, inf])
                        rest = None
                    else:
                        set_(i, old)
                        self.phi = phi
                        rest, walk = hit
            if rest is not None and acc + rest < upper:
                upper = acc + rest
            while stack:
                frame = stack[-1]
                t, acc, fin, phi, key, old, ties, a, released, best, best_walk, sure, before, after = frame
                if rest is not None:
                    if released + rest < best:
                        best, best_walk, sure = released + rest, (a, walk), low == inf
                        before, after = min(before, after), released + low
                    elif low < inf:
                        after = min(after, released + low)
                    frame[9:] = best, best_walk, sure, before, after
                if (a := next(ties, None)) is not None:
                    set_(sched[t], a)
                    released = freed = 0.0
                    for wrow, crow, r in fin_after[t]:
                        released += wrow[counts[r]]
                        freed += crow[counts[r]]
                    frame[7:9] = a, released
                    t, acc, fin = t + 1, acc + released, fin + freed
                    break
                set_(sched[t], old)
                self.phi = phi
                if sure and before - half > best and after - half >= best:
                    memo[t][key] = (best, best_walk)
                    low = inf
                else:
                    low = min(before, after)
                rest, walk = best, best_walk
                stack.pop()
            else:
                self.walk = walk
                return rest

    def reconstruct(self) -> Trajectory:
        """Records the minimizing walk :meth:`run` kept with :func:`_walk`."""
        acts, walk = [], self.walk
        while walk is not None:
            a, walk = walk
            acts.append(a)
        return _walk(self.g, self.schedule, acts)


def adversarial_min_welfare(g: Game, k: int = 1, *, cap: int = 500_000,
                            schedule: Sequence[int] | None = None) -> tuple[float, Trajectory]:
    """Minimum final welfare over all tie resolutions of a walk from the null
    allocation, and a trajectory that attains it.

    The walk runs ``k`` round-robin rounds unless ``schedule`` gives its step
    sequence; ``k`` must still be a positive integer.  More than ``cap``
    searched states raise :class:`EnumerationCapError`.  The value is the
    trajectory's final welfare, summed as :func:`welfare` sums a state.

    A state is not searched when a bound on Rosenthal's potential shows that
    no walk through it ends below the least walk found so far (see
    :class:`_AdversarialSearch`); the test holds at equality when the game's
    tables make every sum and tie exact, and keeps a rounding slack
    otherwise.  The value and the trajectory, the first minimizing walk in
    tie order, are those of the search without the bound, bit for bit.  The
    search hands each state's walk up with its value, so the trajectory is
    recorded from the one traversal, with no replay.
    """
    search = _AdversarialSearch(g, _check_schedule(g, k, schedule), cap)
    search.run()
    traj = search.reconstruct()
    return traj.final_welfare, traj


def k_round_walk(g: Game, k: int, *, schedule: Sequence[int] | None = None) -> Trajectory:
    """Best-response walk from the null allocation for k full rounds under
    ``INCUMBENT_THEN_LEX``: a tied mover keeps its action, else takes the
    lowest tied index.

    ``schedule`` replaces the k round-robin rounds with its own step
    sequence; ``k`` must still be a positive integer.  :func:`_incumbent_walk`
    chooses the actions and :func:`_walk` records them.  Once every player of
    the schedule has moved at one state without changing it, that state is
    Nash, and the walk copies it forward unscanned: each later step is its
    player's step at that state, to the same bits.  The worst walk over
    every tie resolution is :func:`adversarial_min_welfare`'s.
    """
    sched = _check_schedule(g, k, schedule)
    return _walk(g, sched, _incumbent_walk(g, g.null_action, sched, len(sched))[0])


def walk_to_nash(g: Game) -> Trajectory:
    """Iterate ``INCUMBENT_THEN_LEX`` rounds from the null allocation until
    a full round leaves the state unchanged, a Nash state (:func:`is_nash`).

    One :func:`_incumbent_walk` finds the state, and the walk is recorded to
    the end of the first round that leaves it unchanged.  Convergence is
    guaranteed by the potential; a ceiling of 10**6 steps, taken in whole
    rounds, guards against tolerance artifacts: a walk that needs more
    raises :class:`EnumerationCapError` with ``explored`` that ceiling.
    """
    n = g.n_players
    ceiling = _WALK_STEP_CEILING // n * n
    acts, _ = _incumbent_walk(g, g.null_action, range(n), ceiling)
    # a settled walk ends n - 1 steps after its last change, or n steps in
    # when no player moves, and the next round is the first that changes nothing
    rounds = 1 if acts == list(g.null_action) else len(acts) // n + 1
    if rounds * n > ceiling:
        raise EnumerationCapError(ceiling, _WALK_STEP_CEILING, None)
    return _walk(g, round_robin_schedule(n, rounds), acts)


def reachable_nash_min(g: Game, cap: int = 500_000) -> tuple[float, JointAction]:
    """Minimum welfare over Nash states reachable by some tie resolution, and
    the least such state of that welfare.

    A depth-first search over (mover, joint) from the null allocation, on
    :class:`_AdversarialSearch`'s state.  A walk can stay at a reachable Nash
    joint forever, so these are exactly the limit points under adversarial
    ties.  A joint is Nash when all n of its states keep the mover's action.

    A state is skipped when ``alpha * (Phi(s) - delta * paths) - eps``
    exceeds the least Nash welfare found so far, with the potential, ``alpha``,
    ``delta`` and ``eps`` of :class:`_AdversarialSearch`; ``paths``, the
    game's count of (mover, joint) states, bounds the moves of a path that
    visits no state twice.  The test is strict and reads the state alone, so
    no Nash joint of the least welfare is skipped, even on an exact game,
    where delta = eps = 0, and the least joint of that welfare is kept.
    """
    n = g.n_players
    search = _AdversarialSearch(g, round_robin_schedule(n, 1), cap)
    joint, alpha = search.joint, search.alpha
    drop = 0.0 if search.exact else TOL * n * math.prod(float(len(a)) for a in g.actions)
    eps = search._slack(cap, drop)  # the stack holds at most cap states
    state = (0, search.S[:n].tobytes())
    seen, stays, stack, best = {state}, Counter(), [], None
    while True:
        i, key = state
        held, phi = joint[i], search.phi
        search._set(i, g.null_action[i])
        ties = _ties(g, search.counts, i)
        stays[key] += held in ties
        if stays[key] == n:
            nash = (*joint[:i], held, *joint[i + 1:])
            best = min(best or (math.inf,), (welfare(g, nash), nash))
        stack.append((i, held, iter(ties), phi))
        while True:
            while (nxt := next(stack[-1][2], None)) is None:
                i, old, _, phi = stack.pop()
                search._set(i, old)
                search.phi = phi
                if not stack:
                    return best
            i = stack[-1][0]
            search._set(i, nxt)
            state = ((i + 1) % n, search.S[:n].tobytes())
            if state in seen:
                continue
            if best is not None and alpha * (search.phi - drop) - eps > best[0]:
                search.pruned += 1
                continue
            break
        if len(seen) >= cap:
            raise EnumerationCapError(len(seen), cap, best[0] if best else None)
        seen.add(state)


_BUDGET = 10**8  # most joint profiles the exact optimum may search
_BLOCK = 32  # most joint profiles of the last players under one bound
_BATCH = 1 << 14  # most profiles, or bound terms, one numpy pass handles


def optimum(g: Game) -> tuple[JointAction, float]:
    """Exact welfare maximizer: brute force over the joint action space, with
    blocks that provably hold no maximizer skipped.

    Joint actions are scored in flat order (last player fastest) by one fixed
    expression and the first maximum wins, so the result is the plain brute
    force one bit for bit, ties included.  The last players span blocks of at
    most ``_BLOCK`` profiles.  The other players are walked depth first, a
    batch of sibling subtrees at a time, and a subtree is skipped when its
    welfare bound (the partial welfare plus each remaining player's largest
    possible gain) stays below a welfare already attained, at first that of
    the common-interest game's :func:`_incumbent_walk`, which is not
    recorded.  A joint action space of more than ``_BUDGET`` profiles, the
    worst-case work, raises :class:`BudgetExceededError`.
    """
    sizes = [len(acts) for acts in g.actions]
    total = math.prod(sizes)
    if total > _BUDGET:
        raise BudgetExceededError(total, _BUDGET)
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
    gflat = np.maximum.accumulate(inc[:, ::-1], axis=1)[:, ::-1].T.ravel()
    slack = (n + n_res + 1) ** 2 * 2.0**-44 * float(np.abs(wtab).sum())

    # threshold: the common-interest walk (each selector's utility its welfare
    # increment) to its fixed point, or to the walks' ceiling in whole rounds
    _, joint = _incumbent_walk(g, g.null_action, range(n), _WALK_STEP_CEILING // n * n,
                               np.diff(wtab, prepend=0.0).tolist())
    threshold = welfare(g, joint)

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
    ``tie_break`` is ``INCUMBENT_THEN_LEX``, the walk of :func:`k_round_walk`
    or :func:`walk_to_nash`, or ``ADVERSARIAL``, the worst value over every
    tie resolution: that of :func:`adversarial_min_welfare`, or of
    :func:`reachable_nash_min` at the limit.  Caps are those functions' own.
    """
    limit = k == math.inf
    # a bad k or tie rule raises before the optimum's cost
    if not limit:
        _check_schedule(g, k, None)
    if tie_break not in (INCUMBENT_THEN_LEX, ADVERSARIAL):
        raise ValidationError(f"unknown tie break {tie_break!r}")
    _, opt_w = optimum(g)
    if opt_w <= 0.0:
        return 1.0
    if tie_break == ADVERSARIAL:
        w = (reachable_nash_min(g) if limit else adversarial_min_welfare(g, k))[0]
    elif limit:
        w = welfare(g, walk_to_nash(g).final)
    else:
        w = k_round_walk(g, k).final_welfare
    return w / opt_w


def one_round_can_end_at(g: Game, target: Sequence[int]) -> bool:
    """Whether some tie resolution of a one-round walk ends exactly at ``target``."""
    target = g.validate_joint(target)
    counts = [0] * g.n_resources  # the null allocation's, so each mover is lifted
    for i in range(g.n_players):
        if target[i] not in _ties(g, counts, i):
            return False
        for r in g.action_resources[i][target[i]]:
            counts[r] += 1
    return True
