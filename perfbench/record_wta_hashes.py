"""Records the reference SHA-256 of raw.csv and summary.csv for every master
seed the wta_experiment workload uses, into perfbench/wta_hashes.json.

    python3 perfbench/record_wta_hashes.py

Run it only at a commit whose experiment output is the reference; the
benchmark fails every instance of a pass whose export differs from it.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import resgames as rg
    from workloads import WtaExperiment

    tmp = ROOT / ".perfbench" / "tmp-record"
    hashes = {}
    try:
        for master_seed in range(1, WtaExperiment.N_SEEDS + 1):
            res = rg.run_experiment(rg.ExperimentConfig(master_seed=master_seed))
            files = rg.export_result(res, "csv", tmp)
            hashes[str(master_seed)] = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}
            print(master_seed, hashes[str(master_seed)], flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (HERE / "wta_hashes.json").write_text(json.dumps(hashes, indent=1) + "\n")


if __name__ == "__main__":
    main()
