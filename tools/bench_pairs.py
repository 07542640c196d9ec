"""Run interleaved parent/change pairs of one benchmark workload and write their summary.

    python3 tools/bench_pairs.py PARENT CHANGE WORKLOAD PAIRS FIRST_SEED --out BENCH_<tag>.json

PARENT and CHANGE are source checkouts of the two commits. Pair k runs
`python3 perfbench/run.py --workload WORKLOAD --seed FIRST_SEED+k --seconds S --trace 0` in
each checkout, S being BENCHMARK.json's `run_seconds`; the parent runs first in even pairs and
the change first in odd ones, and no two pairs share a seed. Every run's last-line JSON is
kept. For each end-to-end metric the summary gives each side's median and quartiles, the pairs
the change won (ties count for neither) and two verdicts:

- `gain_claimable`: at least ten pairs ran, the change won at least nine tenths of them, and
  its median is better than the parent's by more than the parent's interquartile range;
- `within_bound`: the change's median is worse than the parent's by at most the metric's
  relative bound, or `null` (unresolved) when either side's interquartile range exceeds the
  bound and not every change run beats every parent run.

The workload's entry is added to the --out file, replacing an earlier entry for it, so one file
holds every workload; each entry names the code it measured by a sha256 of each side's `src/`
(`src_digest`). Runs take about 30 s each at the benchmark's 22 s.

Both sides import from source: every run has `PYTHONDONTWRITEBYTECODE=1`, and a checkout whose
`src/` or `perfbench/` holds a `__pycache__` directory is refused, naming it. Bytecode left in
one checkout only would skip compilation on that side and bias `setup_s` and `peak_rss_mb`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def src_digest(checkout: Path) -> str:
    """sha256 over the checkout's library sources (paths and bytes), naming the code measured."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        h.update(path.relative_to(checkout).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stale_bytecode(checkout: Path) -> list[Path]:
    """The `__pycache__` directories under the checkout's `src/` and `perfbench/`."""
    return sorted(d for top in ("src", "perfbench") for d in (checkout / top).rglob("__pycache__"))


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # run.py points at its own src/
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": (proc.stderr.strip().splitlines() or ["no output"])[-1], "exit_code": proc.returncode}
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarise(pairs: list[dict], specs: list[dict]) -> dict:
    """Per-metric medians, quartiles, pair wins and verdicts over the pairs both sides completed."""
    done = [p for p in pairs if "metrics" in p["parent"] and "metrics" in p["change"]]
    out = {}
    for spec in specs:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        par = [p["parent"]["metrics"][name]["value"] for p in done]
        chg = [p["change"]["metrics"][name]["value"] for p in done]
        if len(done) < 2:
            out[name] = {"pairs": len(done)}
            continue
        pm, cm = statistics.median(par), statistics.median(chg)
        pq, cq = _quartiles(par), _quartiles(chg)
        wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
        losses = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
        spread = max(pq[1] - pq[0], cq[1] - cq[0]) / abs(pm)
        worse_by = -sign * (cm - pm) / abs(pm)  # > 0 when the change's median is worse
        separated = min(sign * c for c in chg) > max(sign * p for p in par)
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "pairs": len(done),
            "parent_median": pm,
            "parent_quartiles": pq,
            "change_median": cm,
            "change_quartiles": cq,
            "change_wins": wins,
            "change_losses": losses,
            "median_change_relative": (cm - pm) / abs(pm),
            "gain_claimable": len(done) >= 10 and wins >= 0.9 * len(done) and sign * (cm - pm) > pq[1] - pq[0],
            "within_bound": None if spread > spec["bound"] and not separated else worse_by <= spec["bound"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="source checkout of the parent commit")
    ap.add_argument("change", type=Path, help="source checkout of the change")
    ap.add_argument("workload")
    ap.add_argument("pairs", type=int)
    ap.add_argument("first_seed", type=int)
    ap.add_argument("--out", type=Path, required=True, help="BENCH_<tag>.json to add this workload to")
    args = ap.parse_args(argv)

    for checkout in (args.parent, args.change):
        if stale := stale_bytecode(checkout):
            ap.error(f"bytecode directory {stale[0]}: remove every __pycache__ under src/ and "
                     f"perfbench/ of {checkout}, so that both sides import from source")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds, specs = bench["run_seconds"], bench["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    pairs = []
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = _run(sides[side], args.workload, seed, seconds)
            m = pair[side].get("metrics", {})
            shown = " ".join(f"{n}={v['value']:.4g}" for n, v in m.items()) or pair[side].get("error")
            print(f"pair {k} seed {seed} {side}: correct={pair[side].get('correct')} {shown}", flush=True)
        pairs.append(pair)

    record = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    record["workloads"][args.workload] = {
        "src_sha256": {side: src_digest(path) for side, path in sides.items()},
        "seconds": seconds,
        "pairs": pairs,
        "all_correct": all(p[s].get("correct") is True and p[s].get("failed") == 0
                           for p in pairs for s in sides),
        "summary": summarise(pairs, specs),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for name, s in record["workloads"][args.workload]["summary"].items():
        if "parent_median" in s:
            print(f"{name}: {s['parent_median']:.4g} -> {s['change_median']:.4g} "
                  f"(parent IQR {s['parent_quartiles'][0]:.4g}-{s['parent_quartiles'][1]:.4g}), "
                  f"change wins {s['change_wins']}/{s['pairs']}, claimable {s['gain_claimable']}, "
                  f"within bound {s['within_bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
