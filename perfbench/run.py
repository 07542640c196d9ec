"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload sec31-spectral --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; nothing needs installing, the
library is imported from `src/`.  The run happens in fresh interpreters
started by this script (see worker.py), with the BLAS/OpenMP thread
variables set so that pool workers x BLAS threads <= the usable cores.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json; set-up
time is the median over SETUP_SAMPLES fresh interpreters.  --trace 1
reports the per-layer metrics from a separate traced run.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Details, the environment record
and the trace's spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 3  # the measured run's own start plus SETUP_SAMPLES - 1 set-up-only starts
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _start(cmd: list[str], env: dict, timeout: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its "ready" line; returns it and the seconds that took."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], timeout)
        line = proc.stdout.readline() if readable else ""
        elapsed = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"worker did not become ready (exit code {proc.poll()})")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, elapsed


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker still running after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def worker_env(workers: int) -> tuple[dict, int, int]:
    """Environment for a worker process: library path and a thread budget of the usable cores."""
    nproc = len(os.sched_getaffinity(0))
    blas = nproc // workers
    if blas < 1:
        raise BenchError(f"{workers} pool workers exceed the {nproc} usable cores")
    env = dict(os.environ, **{v: str(blas) for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return env, nproc, blas


def _metric_specs(trace: int) -> list[dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench["per_layer" if trace else "end_to_end"]


def run(args) -> dict:
    if not (ROOT / "src" / "netate" / "__init__.py").is_file():
        raise BenchError(f"no netate sources under {ROOT / 'src'}; run from a source checkout")
    specs = _metric_specs(args.trace)
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        raise BenchError(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    env, nproc, blas = worker_env(wl.workers)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu": _cpu_model(),
        "workers": wl.workers,
        "blas_threads": blas,
    }
    deadline = time.perf_counter() + TIME_LIMIT_S
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", wl.name]

    setup = []
    if args.trace == 0:
        for _ in range(SETUP_SAMPLES - 1):
            proc, ready = _start(worker + ["--setup-only"], env, timeout=60)
            _finish(proc, timeout=30)
            setup.append(ready)
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    cmd = worker + ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.reps:
        cmd += ["--reps", str(args.reps)]
    if args.trace:
        cmd += ["--spans-out", str(OUT / f"{stem}-spans.json")]
    proc, ready = _start(cmd, env, timeout=60)
    result = json.loads(_finish(proc, timeout=max(deadline - time.perf_counter(), 1.0)).splitlines()[-1])
    setup.append(ready)

    values = dict(result.get("per_layer", {}))
    if args.trace == 0:
        values.update(reps_per_s=result["reps_per_s"], setup_s=statistics.median(setup), peak_rss_mb=result["peak_rss_mb"])
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}

    record.update(result.pop("versions"))
    detail = {"environment": record, "setup_samples_s": setup, "metrics": metrics, **result}
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1))

    print("env " + " ".join(f"{k}={v}" for k, v in record.items()))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"failed_share {share:.6g} ratio ({result['failed']} of {result['attempted']} method-replicates)")
    if args.trace:
        print("top self time " + ", ".join(f"{n} {s:.1%}" for n, s in result["top_layers"]))
        print(f"traced batches {result['traced_batches']}")
    print(f"summary_identical {str(result['summary_identical']).lower()} (reference seed, information only)")
    print(f"correct {str(result['correct']).lower()}" + "".join(f"\n  {e}" for e in result["errors"]))
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload; see perfbench/README.md.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reps", type=int, default=None, help="replicates per batch (smoke runs); default per workload")
    args = ap.parse_args(argv)
    try:
        out = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
