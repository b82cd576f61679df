"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere inside a checkout; it benchmarks that checkout's
``src/resgames``.  It times set-up in fresh interpreters, runs the workload in
a fresh interpreter of its own (``perfbench/worker.py``), prints every metric
by name with its unit and sample count, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are BENCHMARK.json's ``end_to_end`` list, with ``--trace 1`` its
``per_layer`` list.  Spans of traced passes and a record of each run go to
``.perfbench/`` in the checkout.

Exit codes: 0 with a result, 2 when the checkout has no resgames sources or
the arguments are bad, 1 when a worker fails or runs out of time.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 4  # fresh interpreters timed for setup_s, besides the worker's own
BUDGET_S = 170.0  # every run must end within 180 s


class WorkerError(RuntimeError):
    pass


def _worker_env() -> dict:
    """Single-threaded baseline: no experiment threads, one BLAS/OpenMP thread."""
    env = dict(os.environ)
    env.pop("RESGAMES_THREADS", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def _call(args: list[str], env: dict, deadline: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerError(f"worker {args[:2]} ran out of time") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker {args[:2]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _end_to_end(res: dict, setups: list[float]) -> dict:
    """Each metric as (value, unit, samples); failed_frac is printed, not gated."""
    walls = res["walls"]
    att = res["attempted"]
    return {
        "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} passes"),
        "units_per_s": (statistics.median(res["rates"]), "1/s", f"median of {len(walls)} passes"),
        "unit_p50_ms": (res["unit_p50_ms"], "ms", f"over {res['units']} units"),
        "unit_p90_ms": (res["unit_p90_ms"], "ms", f"over {res['units']} units"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} fresh interpreters"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", "ru_maxrss of the workload process"),
        "failed_frac": (res["failed"] / att, "frac", f"{res['failed']} of {att} units"),
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if not (ROOT / "src" / "resgames" / "__init__.py").is_file():
        print(f"no resgames sources under {ROOT / 'src'}; run from a resgames checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    env = _worker_env()
    OUT.mkdir(exist_ok=True)
    name, seed = args.workload, str(args.seed)
    try:
        setups = [_call(["setup", name, seed], env, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        res = _call(["run", name, seed, str(args.seconds), args.trace, str(OUT)], env, deadline)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    if args.trace == "0":
        figures = _end_to_end(res, setups)
        wanted = spec["end_to_end"]
    else:
        layers = res["layers"]  # a layer the workload never calls reads 0
        figures = {m["name"]: (layers.get(m["name"], 0), m["unit"], f"{len(res['walls'])} traced passes")
                   for m in spec["per_layer"]}
        wanted = spec["per_layer"]
    machine = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
               "cpu": _cpu_model(), **res["versions"], "commit": _commit()}
    print(f"# {name} seed={seed} seconds={args.seconds:g} trace={args.trace}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for key, (value, unit, samples) in figures.items():
        print(f"{key:32s} {value:14.6g} {unit:14s} {samples}")
    if args.trace == "1":
        selfs = sorted(((v, k[:-2]) for k, v in res["layers"].items() if k.endswith(".s")), reverse=True)
        total = sum(v for v, _ in selfs)
        print("# self-time share " + " ".join(f"{k}={v / total:.3f}" for v, k in selfs if v > 0))

    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": figures[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    record = OUT / f"result-{name}-{seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"args": vars(args), "machine": machine, "worker": res,
                                  "setups": setups, "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
