"""The benchmark's workloads, each driven through resgames' public API.

A workload turns the seed into inputs and runs passes of user-facing calls.
Every unit's output is checked after its pass, outside the timed region; a
unit that raises or fails its check is a failed unit.

Each workload has an untraced *timed pass* (``wall_s``, ``units_per_s``) and
a *unit pass* that makes one call sequence per unit, traced or not.  They are
the same pass except in ``wta_experiment``: there the timed pass is
``run_experiment`` plus ``export_result``, and the unit pass replays its
per-instance sequence (``gen_wta`` -> ``optimum`` -> ``apply_design`` ->
``k_round_walk``) so that instances can be timed and traced from outside.

Traced passes open a span around each call into a resgames module, and build
each new game's lazy tables in a ``model.tables`` span.  Counts that are
computed from the inputs (evaluations, steps, scans, variables, entries,
resources) are recorded only when tracing.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import resgames as rg
from resgames.experiments import summarize

from tracing import NullTracer

HERE = Path(__file__).resolve().parent
NULL = NullTracer()
E = math.e


def _attempt(fn):
    """fn's result, or the exception it raised (checks then count it failed)."""
    try:
        return fn()
    except Exception as exc:  # any error is the unit's outcome, not the harness's
        return exc


class Pass:
    """Outputs and latencies of one pass; ``wall`` covers the calls, not the checks."""

    def __init__(self, tr, tmp: Path):
        self.tr = tr
        self.tmp = tmp  # the pass's own empty directory for the files it writes
        self.wall = 0.0
        self.lat: list[float] = []
        self.out: list[tuple] = []  # (unit key, output or the exception it raised)
        self.files: list[Path] | Exception = []

    def unit(self, key, fn):
        t0 = perf_counter()
        with self.tr.span("bench.unit"):
            val = _attempt(fn)
        self.lat.append(perf_counter() - t0)
        self.out.append((key, val))
        return val


def _tables(tr, g) -> None:
    if tr:
        with tr.span("model.tables"):
            g.welfare_tables, g.utility_tables, g.cumulative_utility_tables, g.action_resources
        tr.count("model.tables.games")


def _close(a, b, tol: float) -> bool:
    return isinstance(a, float) and abs(a - b) <= tol


class WtaExperiment:
    """The paper's WTA experiment at the default configuration."""

    REPLAY = True  # the unit pass replays the timed pass's calls per instance

    # --seed selects one of these master seeds, each with recorded CSV hashes.
    N_SEEDS = 32

    def inputs(self, seed: int):
        return rg.ExperimentConfig(master_seed=1 + seed % self.N_SEEDS)

    def timed_pass(self, cfg, tmp: Path) -> Pass:
        p = Pass(NULL, tmp)
        t0 = perf_counter()
        res = _attempt(lambda: rg.run_experiment(cfg))
        files = _attempt(lambda: rg.export_result(res, "csv", tmp))
        p.wall = perf_counter() - t0
        by_inst = {}
        if not isinstance(res, Exception):
            for row in res.rows:
                by_inst.setdefault(row.instance, []).append(row)
        p.out = [(i, by_inst.get(i, res)) for i in range(cfg.n_instances)]
        p.files = files
        return p

    def unit_pass(self, cfg, tr, tmp: Path) -> Pass:
        p = Pass(tr, tmp)
        t0 = perf_counter()
        rows = []
        for idx in range(cfg.n_instances):
            got = p.unit(idx, lambda: self._instance(cfg, idx, tr))
            if isinstance(got, list):
                rows += got

        def export():
            summary = summarize(cfg, rows)
            with tr.span("experiments.export_result"):
                return rg.export_result(rg.ExperimentResult(cfg, rows, summary), "csv", tmp)

        p.files = _attempt(export)
        p.wall = perf_counter() - t0
        if tr and not isinstance(p.files, Exception):
            tr.count("experiments.export_result.bytes", sum(f.stat().st_size for f in p.files))
        return p

    @staticmethod
    def _instance(cfg, idx: int, tr) -> list:
        with tr.span("experiments.gen_wta"):
            base = rg.gen_wta(cfg, idx)
        _tables(tr, base)
        with tr.span("dynamics.optimum"):
            _, opt_w = rg.optimum(base)
        if tr:
            tr.count("dynamics.optimum.joint_evals", math.prod(len(a) for a in base.actions))
        n = base.n_players
        rows = []
        for spec in cfg.designs:
            with tr.span("designs.apply_design"):
                g = rg.apply_design(base, spec)
            _tables(tr, g)
            with tr.span("dynamics.walk"):
                traj = rg.k_round_walk(g, cfg.rounds)
            if tr:
                tr.count("dynamics.walk.steps", n * cfg.rounds)
                tr.count("dynamics.walk.br_scans", cfg.rounds * sum(len(a) for a in g.actions))
            for r in range(1, cfg.rounds + 1):
                w = traj.steps[r * n - 1].welfare
                rows.append(rg.Row(idx, spec.name(), r, w, w / opt_w))
        return rows

    def check(self, cfg, p: Pass) -> tuple[list, list[bool]]:
        """A wrong export fails every instance; a bad row fails its instance."""
        want = json.loads((HERE / "wta_hashes.json").read_text())[str(cfg.master_seed)]
        files_ok = not isinstance(p.files, Exception) and [
            hashlib.sha256(f.read_bytes()).hexdigest() for f in p.files
        ] == [want["raw.csv"], want["summary.csv"]]
        per_row = len(cfg.designs) * cfg.rounds
        sig, ok = [], []
        for _, rows in p.out:
            good = (files_ok and isinstance(rows, list) and len(rows) == per_row
                    and all(r.normalized_welfare <= 1 + 1e-12 for r in rows))
            sig.append(tuple(rows) if isinstance(rows, list) else None)
            ok.append(good)
        return sig, ok


class AdversarialChain:
    """Adversarial tie enumeration on the tight constructions.

    Each chain search is one unit.  The two-agent grid is one unit too: its
    fifteen searches on tiny games take well under a millisecond each, and as
    separate units they would set the unit median to a sub-millisecond timing.
    """

    REPLAY = False
    C_GRID = tuple(k / 20 for k in range(1, 21))
    CHAINS = ((2000, 1), (200, 2), (60, 3))
    TWO_AGENT_C = (0.0, 0.25, 0.5, 0.75, 1.0)
    TWO_AGENT_K = (1, 2, 3)

    def inputs(self, seed: int):
        rnd = random.Random(seed)
        chains = [(n, rnd.choice(self.C_GRID), k) for n, k in self.CHAINS]
        chains.append((14, 0.0, 3))  # zero-value chain: cost grows ~4.5x per 2 agents
        return chains

    def timed_pass(self, chains, tmp: Path) -> Pass:
        return self.unit_pass(chains, NULL, tmp)

    def unit_pass(self, chains, tr, tmp: Path) -> Pass:
        p = Pass(tr, tmp)
        t0 = perf_counter()
        for j, (n, c, k) in enumerate(chains):
            con = _attempt(lambda: self._build(tr, rg.build_common_interest_chain, n, c))
            got = p.unit(("chain", n, c, k, con), lambda: self._search(tr, con.game, k))
            self._write_walk(tr, con, got, tmp / f"chain{j}.jsonl")
        cons = [_attempt(lambda: self._build(tr, rg.build_two_agent_worst_case, c, rg.design_one_round(c)))
                for c in self.TWO_AGENT_C]
        got = p.unit(("two_agent", cons), lambda: [
            self._search(tr, con.game, k) for con in cons for k in self.TWO_AGENT_K])
        for j, con in enumerate(cons):
            for i, k in enumerate(self.TWO_AGENT_K):
                one = got if isinstance(got, Exception) else got[j * len(self.TWO_AGENT_K) + i]
                self._write_walk(tr, con, one, tmp / f"two_agent_{j}_{k}.jsonl")
        p.wall = perf_counter() - t0
        return p

    @staticmethod
    def _build(tr, make, *args):
        with tr.span("constructions.build"):
            con = make(*args)
        if tr:
            tr.count("constructions.build.resources", con.game.n_resources)
        _tables(tr, con.game)
        return con

    @staticmethod
    def _search(tr, g, k: int):
        if tr:
            tr.count("dynamics.adversarial.steps", g.n_players * k)
        try:
            with tr.span("dynamics.adversarial"):
                return rg.adversarial_min_welfare(g, k)
        except rg.EnumerationCapError:
            tr.count("dynamics.adversarial.cap_errors")
            raise

    @staticmethod
    def _write_walk(tr, con, got, path: Path) -> None:
        if isinstance(got, Exception):
            return
        with tr.span("io.trajectory_jsonl"):
            _attempt(lambda: rg.trajectory_to_jsonl(con.game, got[1], path))
        if tr and path.exists():
            tr.count("io.bytes", path.stat().st_size)

    @staticmethod
    def _walk_ok(con, got, want: float, steps: int, path: Path) -> bool:
        """The ratio matches its formula and the JSONL walk ends at the worst welfare."""
        worst = got[0]
        ratio = worst / rg.welfare(con.game, con.meta["optimal_action"])
        lines = path.read_text().splitlines() if path.exists() else []
        return (abs(ratio - want) <= 1e-9 and len(lines) == steps
                and abs(json.loads(lines[-1])["welfare"] - worst) <= 1e-9)

    def check(self, chains, p: Pass) -> tuple[list, list[bool]]:
        sig, ok = [], []
        for j, (key, got) in enumerate(p.out):
            if isinstance(got, Exception):
                sig.append(None)
                ok.append(False)
            elif key[0] == "chain":
                _, n, c, k, con = key
                sig.append(got[0])
                ok.append(self._walk_ok(con, got, n / ((n - 1) * (1 + c) + c), n * k,
                                        p.tmp / f"chain{j}.jsonl"))
            else:
                cons, nk = key[1], len(self.TWO_AGENT_K)
                sig.append(tuple(g[0] for g in got))
                ok.append(all(
                    self._walk_ok(con, got[jc * nk + i], 1 - c / 2, 2 * k,
                                  p.tmp / f"two_agent_{jc}_{k}.jsonl")
                    for jc, (con, c) in enumerate(zip(cons, self.TWO_AGENT_C))
                    for i, k in enumerate(self.TWO_AGENT_K)))
        return sig, ok


def _shifted_grid(lo: float, hi: float, step: float, frac: float) -> list[float]:
    """lo, then lo + (frac + i) * step strictly inside (lo, hi), then hi."""
    inner = [lo + (frac + i) * step for i in range(int((hi - lo) / step) + 2)]
    return [lo] + [v for v in inner if lo < v < hi] + [hi]


class AnalyticsSweep:
    """Price-of-anarchy LPs, the set-covering frontier, one-round bounds, LP witness."""

    REPLAY = False

    J_TRUNC = 10**5
    LP_N = range(2, 41)

    def inputs(self, seed: int):
        rnd = random.Random(seed)
        wsc = rg.make_welfare_rule("set_covering", 60)
        wsc8 = rg.make_welfare_rule("set_covering", 8)
        cs = _shifted_grid(0.0, 1.0, 0.05, rnd.random())
        return SimpleNamespace(
            qs=_shifted_grid(0.5, 1 - 1 / E, 0.005, rnd.random()),
            cs=cs,
            bent={c: rg.make_welfare_rule("bent", 52, b=1, curvature=c) for c in cs},
            wsc=wsc,
            lp_rules=(rg.design_common_interest(wsc), rg.design_asymptotic(1, 1.0, 60)),
            wsc8=wsc8,
            f8=rg.design_common_interest(wsc8),
        )

    def timed_pass(self, x, tmp: Path) -> Pass:
        return self.unit_pass(x, NULL, tmp)

    def unit_pass(self, x, tr, tmp: Path) -> Pass:
        p = Pass(tr, tmp)
        t0 = perf_counter()
        for f in x.lp_rules:
            for n in self.LP_N:
                p.unit(("lp", f, n), lambda: self._lp(tr, rg.poa_lp, x.wsc, f, n))
        for q in x.qs:
            p.unit(("frontier", q), lambda: self._frontier(tr, q))
        for c in x.cs:
            w = x.bent[c]
            p.unit(("bound_asymptotic", c), lambda: self._bound(tr, w, rg.design_asymptotic, c))
            p.unit(("bound_one_round", c), lambda: self._bound(tr, w, rg.design_one_round, c))
        sol = p.unit(("witness_lp",), lambda: self._lp(tr, rg.solve_poa_lp, x.wsc8, x.f8, 3))
        con = p.unit(("witness_build",), lambda: self._witness(tr, sol))
        for key, name, fn in (("witness_nash", "dynamics.nash_check", rg.is_nash),
                              ("witness_reach", "dynamics.nash_check", rg.one_round_can_end_at)):
            p.unit((key,), lambda: self._call(tr, name, fn, con.game, con.meta["nash_action"]))
        path = tmp / "witness.json"
        p.unit(("witness_save",), lambda: self._call(tr, "io.save_game", rg.save_game, con.game, path))
        p.unit(("witness_load",), lambda: self._call(tr, "io.load_game", rg.load_game, path))
        p.wall = perf_counter() - t0
        p.witness = con
        if tr and path.exists():
            tr.count("io.bytes", path.stat().st_size)
        return p

    @staticmethod
    def _call(tr, name: str, fn, *args):
        with tr.span(name):
            return fn(*args)

    @staticmethod
    def _lp(tr, solve, w, f, n: int):
        """An LP solve; traced passes also time build_poa_lp in a span of its own."""
        if tr:
            with tr.span("analytics.lp_build"):
                inst = rg.build_poa_lp(w, f, n)
            tr.count("analytics.lp_build.vars", len(inst.variables))
        with tr.span("analytics.lp_solve"):
            return solve(w, f, n)

    def _frontier(self, tr, q: float) -> float:
        """frontier_setcov; traced passes replay its two calls to time the tail series."""
        if not tr:
            return rg.frontier_setcov(q, self.J_TRUNC).one_round
        with tr.span("designs.tail_series"):
            f = rg.design_pareto_setcov(chi=(1.0 - q) / q, j_max=self.J_TRUNC)
        tr.count("designs.tail_series.entries", self.J_TRUNC)
        with tr.span("analytics.frontier"):
            return rg.one_round_setcov(f, self.J_TRUNC)

    @staticmethod
    def _bound(tr, w, design, c: float) -> float:
        if design is rg.design_asymptotic:
            with tr.span("designs.tail_series"):
                f = design(1, c, 53)
            tr.count("designs.tail_series.entries", 53)
        else:
            f = design(c, 53)
        with tr.span("analytics.bounds"):
            return rg.one_round_bound(w, f, 50).value

    @staticmethod
    def _witness(tr, sol):
        with tr.span("constructions.build"):
            con = rg.build_poa_witness(sol, 40)
        if tr:
            tr.count("constructions.build.resources", con.game.n_resources)
        _tables(tr, con.game)
        return con

    def check(self, x, p: Pass) -> tuple[list, list[bool]]:
        """LPs match the closed form, the frontier starts at 1/2 and never rises,
        bounds meet criterion 6, and the witness is a reachable Nash state that
        survives a save/load round trip."""
        sig, ok = [], []
        prev_frontier = None
        for key, got in p.out:
            kind = key[0]
            if kind == "lp":
                good = _close(got, rg.poa_closed_form(x.wsc, key[1], "setcov", n=key[2]).value, 1e-6)
            elif kind == "frontier":
                good = isinstance(got, float) and (
                    got == 0.5 if key[1] == 0.5 else got <= prev_frontier + 1e-12)
                prev_frontier = got if isinstance(got, float) else math.inf
            elif kind == "bound_asymptotic":
                good = isinstance(got, float) and got <= rg.theory_bounds(
                    key[1], "one", "asymptotic_one_round") + 1e-9
            elif kind == "bound_one_round":
                good = _close(got, 1 - key[1] / 2, 1e-9)
            elif kind == "witness_lp":
                want = rg.poa_closed_form(x.wsc8, x.f8, "setcov", n=3).value
                good = not isinstance(got, Exception) and got.status == "optimal" and _close(
                    1.0 / got.q, want, 1e-6)
                got = got.q if good else None
            elif kind == "witness_build":
                good = not isinstance(got, Exception) and got.game.n_players == 40
                got = rg.game_to_dict(got.game) if good else None
            elif kind in ("witness_nash", "witness_reach"):
                good = got is True
            elif kind == "witness_save":
                good = got is None
            else:  # witness_load
                good = not isinstance(got, Exception) and not isinstance(p.witness, Exception) and (
                    rg.game_to_dict(got) == rg.game_to_dict(p.witness.game))
                got = rg.game_to_dict(got) if good else None
            sig.append(None if isinstance(got, Exception) else got)
            ok.append(bool(good))
        return sig, ok


WORKLOADS = {
    "wta_experiment": WtaExperiment(),
    "adversarial_chain": AdversarialChain(),
    "analytics_sweep": AnalyticsSweep(),
}
