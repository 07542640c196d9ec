"""Smoke test of the benchmark itself: every workload, untraced and traced, at tiny sizes.

    python3 perfbench/selftest.py

Checks that each run exits 0, that its last line holds exactly correct,
attempted, failed and metrics, that every metric BENCHMARK.json names for
that mode is there with its unit and a finite value, and that the
correctness gate passed.  Then checks that a copy holding only
BENCHMARK.json and perfbench/ fails without printing a result, and that a
workload whose pool needs more cores than are usable is refused.  Prints a
table of the end-to-end metrics and failed share; exits 1 on any failure.
Takes about a minute on 2 cores.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE_REPS = {"sec31-spectral": 2, "sec41-kernel": 2, "contact-pool": 40, "sec41-large": 1}


def _run(cwd: Path, workload: str, trace: int, reps: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--reps", str(reps)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _problems(proc: subprocess.CompletedProcess, specs: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(out)}")
    if out.get("correct") is not True:
        problems.append("correctness gate failed:\n" + proc.stdout)
    if not (isinstance(out.get("attempted"), int) and out["attempted"] >= 1 and isinstance(out.get("failed"), int)):
        problems.append(f"attempted/failed {out.get('attempted')}/{out.get('failed')}")
    metrics = out.get("metrics", {})
    if set(metrics) != {s["name"] for s in specs}:
        problems.append(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ {s['name'] for s in specs})}")
    for spec in specs:
        m = metrics.get(spec["name"], {})
        value = m.get("value")
        if m.get("unit") != spec["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{spec['name']}: {m}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    rows = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = _run(ROOT, name, trace, SMOKE_REPS[name])
            problems = _problems(proc, specs)
            failures += bool(problems)
            print(f"{name} trace={trace}: {'ok' if not problems else 'FAIL'}", flush=True)
            for p in problems:
                print(f"  {p}")
            if trace == 0 and not problems:
                out = json.loads(proc.stdout.strip().splitlines()[-1])
                cells = [f"{m['value']:.4g} {m['unit']}" for m in out["metrics"].values()]
                rows.append([name, *cells, f"{out['failed'] / out['attempted']:.3g}"])

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(bare, bench["workloads"][0]["name"], 0, 1)
    printed_result = proc.stdout.strip().startswith("{") or '"metrics"' in proc.stdout
    bare_ok = proc.returncode != 0 and not printed_result
    failures += not bare_ok
    print(f"without the sources: {'fails as it should' if bare_ok else 'FAIL: ' + repr(proc.stdout[-300:])}")
    shutil.rmtree(bare)

    one_core = {min(os.sched_getaffinity(0))}
    cmd = [sys.executable, "perfbench/run.py", "--workload", "contact-pool", "--seed", "0", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60,
                          preexec_fn=lambda: os.sched_setaffinity(0, one_core))
    refused = proc.returncode != 0 and "exceed" in proc.stderr and not proc.stdout.strip()
    failures += not refused
    print(f"2 workers on 1 core: {'refused as it should be' if refused else 'FAIL: ' + repr(proc.stderr[-300:])}")

    header = ["workload", *(f"{s['name']}" for s in bench["end_to_end"]), "failed_share"]
    print()
    for row in [header, *rows]:
        print("  ".join(f"{c:>16}" for c in row))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
