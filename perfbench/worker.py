"""Runs one workload in a fresh interpreter and prints its figures as one JSON line.

    python3 perfbench/worker.py setup <workload> <seed>
    python3 perfbench/worker.py run <workload> <seed> <seconds> <trace 0|1> <out_dir>

``setup`` times ``import resgames`` plus the workload's input construction and
exits.  ``run`` does the same, then runs a closed loop of passes (each starts
when the previous one and its checks are done) until ``seconds`` have passed,
and reports per-pass walls, unit latencies and failures; with trace 1 it
alternates untraced and traced unit passes and reports per-layer figures.
``perfbench/run.py`` starts both with a pinned, single-threaded environment.
"""
from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


class Loop:
    """Checks each pass; the first pass's outputs are the reference that every
    later pass of the run must reproduce exactly."""

    def __init__(self, wl, inputs):
        self.wl, self.inputs = wl, inputs
        self.ref = None
        self.attempted = self.failed = 0

    def run(self, pass_fn, tmp: Path, *tracer) -> tuple[float, list[float], int]:
        """One pass in an empty directory, then its checks.  Only its figures
        are kept, so no pass's outputs are alive while the next one runs."""
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        p = pass_fn(self.inputs, *tracer, tmp)
        self._check(p)
        return p.wall, p.lat, len(p.out)

    def _check(self, p) -> None:
        sig, ok = self.wl.check(self.inputs, p)
        if self.ref is None:
            self.ref = sig
        if len(sig) != len(self.ref):
            ok = [False] * len(sig)
        ok = [o and s == r for o, s, r in zip(ok, sig, self.ref)]
        self.attempted += len(ok)
        self.failed += ok.count(False)


def _layer_figures(tracers, traced_walls, untraced_walls) -> dict:
    """Median self time per span name over the traced passes, span counts and
    counters of the last one, and the derived per-unit rates."""
    selfs = [tr.self_times() for tr in tracers]
    names = {name for total, _ in selfs for name in total}
    out = {f"{name}.s": statistics.median(total.get(name, 0.0) for total, _ in selfs) for name in names}
    out.update({f"{name}.calls": n for name, n in selfs[-1][1].items()})
    out.update(tracers[-1].counts)
    evals = out.get("dynamics.optimum.joint_evals", 0)
    steps = out.get("dynamics.walk.steps", 0)
    out["dynamics.optimum.ns_per_eval"] = out.get("dynamics.optimum.s", 0.0) / evals * 1e9 if evals else 0.0
    out["dynamics.walk.us_per_step"] = out.get("dynamics.walk.s", 0.0) / steps * 1e6 if steps else 0.0
    out["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    return out


def main(argv: list[str]) -> None:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import resgames
    import workloads

    wl = workloads.WORKLOADS[name]
    inputs = wl.inputs(seed)
    setup_s = perf_counter() - t0
    if not Path(resgames.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported resgames from {resgames.__file__}, not from this checkout")
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    seconds, trace, out_dir = float(argv[3]), argv[4] == "1", Path(argv[5])
    from tracing import Tracer

    import numpy
    import scipy

    tmp = out_dir / f"tmp-{name}-{seed}-{os.getpid()}"
    loop = Loop(wl, inputs)
    walls, rates, lat, traced_walls, tracers = [], [], [], [], []
    deadline = perf_counter() + seconds
    try:
        if not trace:
            while True:
                wall, lat_p, units = loop.run(wl.timed_pass, tmp)
                walls.append(wall)
                rates.append(units / wall)
                if wl.REPLAY:
                    _, lat_p, _ = loop.run(wl.unit_pass, tmp, workloads.NULL)
                lat += lat_p
                if perf_counter() >= deadline:
                    break
        else:
            if wl.REPLAY:  # the replay is checked against run_experiment's rows
                loop.run(wl.timed_pass, tmp)
            spans = out_dir / f"spans-{name}-{seed}.jsonl"
            spans.unlink(missing_ok=True)
            while True:
                walls.append(loop.run(wl.unit_pass, tmp, workloads.NULL)[0])
                tr = Tracer()
                traced_walls.append(loop.run(wl.unit_pass, tmp, tr)[0])
                tracers.append(tr)
                with spans.open("a") as fh:
                    tr.dump(fh, len(tracers) - 1)
                if perf_counter() >= deadline:
                    break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "walls": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if trace:
        result["layers"] = _layer_figures(tracers, traced_walls, walls)
    else:
        p50, p90 = (statistics.quantiles(lat, n=10, method="inclusive")[i] for i in (4, 8))
        result.update(rates=rates, units=len(lat), unit_p50_ms=p50 * 1e3, unit_p90_ms=p90 * 1e3)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
