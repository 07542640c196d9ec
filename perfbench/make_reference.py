"""Record perfbench/reference.json, the correctness gate's reference summaries.

    python3 perfbench/make_reference.py [WORKLOAD ...]

For each workload (all by default) it runs REF_REPS replicates at REF_SEED
and stores the pooled per-method mean, variance and coverage, plus the
digest of the warm-up batch at check.DIGEST_SEED.  Each workload runs in its
own interpreter with the same thread budget as a benchmark run.  Re-record
only for a change that is meant to move the seeded results, and say so.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REF_SEED = 7
REF_REPS = {"sec31-spectral": 500, "sec41-kernel": 500, "contact-pool": 2000, "sec41-large": 30}


def _record(name: str) -> dict:
    import check
    from workloads import WORKLOADS
    from netate.harness import run_scenario

    wl = WORKLOADS[name]
    scenario = wl.scenario()
    warm = run_scenario(scenario, wl.n, wl.methods, wl.small_reps, check.DIGEST_SEED, workers=wl.workers)
    full = run_scenario(scenario, wl.n, wl.methods, REF_REPS[name], REF_SEED, workers=wl.workers)
    methods = check.combine([full])
    for rec in methods.values():
        del rec["failed"], rec["nan_fields"]
    return {"seed": REF_SEED, "digest": check.digest(warm), "methods": methods}


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE))
    if argv[:1] == ["--one"]:
        print(json.dumps(_record(argv[1])))
        return 0
    from run import worker_env
    from workloads import WORKLOADS

    names = argv or list(WORKLOADS)
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.is_file() else {}
    for name in names:
        env, _, _ = worker_env(WORKLOADS[name].workers)
        out = subprocess.run(
            [sys.executable, __file__, "--one", name], env=env, check=True, capture_output=True, text=True
        ).stdout
        reference[name] = json.loads(out.splitlines()[-1])
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {REF_REPS[name]} replicates recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
