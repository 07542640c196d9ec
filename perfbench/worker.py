"""One measured run of one workload, in a fresh interpreter.

Started by run.py, which sets the thread variables and PYTHONPATH.  Prints
"ready" once `import netate` and the scenario build are done (run.py times
set-up up to that line), then runs the phases and prints one JSON object as
its last line.

Untraced run (--trace 0): an untimed warm-up batch at the reference seed,
then timed `run_scenario` batches until --seconds have passed.

Traced run (--trace 1), with the time split in three:
  A. untraced batches at the workload's worker count;
  B. untraced batches at one worker (only when the workload uses more);
  C. the same seeds as A again, traced, at one worker;
  D. one small batch traced with the memory probe on.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def _batch_seeds(seed: int):
    import numpy as np

    b = 0
    while True:
        yield int(np.random.SeedSequence([seed, b]).generate_state(1)[0])
        b += 1


def _timed(call, seeds, seconds: float) -> list[tuple]:
    """(seed, wall seconds, summary or the RuntimeError raised) per batch.

    Runs at least one batch, and no batch that the last one's duration says
    would end after `seconds`.
    """
    out = []
    deadline = time.perf_counter() + seconds
    for s in seeds:
        t0 = time.perf_counter()
        try:
            summary = call(s)
        except RuntimeError as exc:  # run_scenario's "more than 5% of replicates failed"
            summary = exc
        t1 = time.perf_counter()
        out.append((s, t1 - t0, summary))
        if t1 + (t1 - t0) > deadline:
            break
    return out


def _rate(batches, reps: int) -> float:
    return statistics.median(reps / wall for _, wall, _ in batches)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reps", type=int, default=None)
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    import netate  # noqa: F401  -- set-up is the import plus the scenario build

    scenario = wl.scenario()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import numpy as np
    import scipy
    from netate import harness

    import check
    import spans as sp

    reps = args.reps or wl.batch_reps
    ref = check.load_reference(wl.name)

    def call(seed, workers=wl.workers, n_reps=reps):
        return harness.run_scenario(scenario, wl.n, wl.methods, n_reps, seed, workers=workers)

    warm = call(check.DIGEST_SEED, n_reps=wl.small_reps)
    result = {
        "summary_identical": check.digest(warm) == ref["digest"],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    errors: list[str] = []
    seeds = _batch_seeds(args.seed)

    if args.trace == 0:
        batches = _timed(call, seeds, args.seconds)
        measured = batches
        result["reps_per_s"] = _rate(batches, reps)
        result["batch_rates"] = [reps / wall for _, wall, _ in batches]
        result["peak_rss_mb"] = _peak_rss_mb()
    else:
        start = time.perf_counter()
        third = args.seconds / 3.0
        batches = _timed(call, seeds, third)
        rate_pool = _rate(batches, reps)
        rate_one = rate_pool
        if wl.workers > 1:
            rate_one = _rate(_timed(lambda s: call(s, workers=1), seeds, third), reps)

        tracer = sp.Tracer()
        replay = _batch_seeds(args.seed)  # phase A's seeds first
        with sp.traced(tracer) as missing:
            remaining = max(args.seconds - (time.perf_counter() - start), 0.0)
            traced_batches = _timed(lambda s: tracer.run(call, s, workers=1), replay, remaining)
        probe = sp.Tracer(probe=True)
        with sp.traced(probe):
            probe_summary = probe.run(call, check.DIGEST_SEED, workers=1, n_reps=wl.small_reps)

        errors += [f"entry point {name} not found" for name in missing]
        errors += sp.coverage_errors(tracer.spans, wl.spans, wl.batch_spans)
        for (_, _, a), (_, _, c) in zip(batches, traced_batches):
            if isinstance(a, RuntimeError) or isinstance(c, RuntimeError) or a.to_dict() != c.to_dict():
                errors.append("traced summary differs from the untraced one at the same seed")
                break
        if probe_summary.to_dict() != warm.to_dict():
            errors.append("memory-probe summary differs from the untraced one at the same seed")

        layer = sp.layer_metrics(tracer, probe)
        rate_traced = _rate(traced_batches, reps)
        layer["trace.reps_per_s_ratio"] = rate_traced / rate_one
        # traced replicate time over the worker-seconds the untraced pool run took for as many
        layer["harness.pool_efficiency"] = sp.mean_replicate_s(tracer.spans) * rate_pool / wl.workers
        result["per_layer"] = layer
        result["top_layers"] = sp.top_layers(tracer.spans)
        result["traced_batches"] = len(traced_batches)
        measured = batches + traced_batches[len(batches):]  # each seed once
        if args.spans_out:
            Path(args.spans_out).parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans_out, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "replicate"], "spans": tracer.spans}, fh)

    ok = [s for _, _, s in measured if not isinstance(s, RuntimeError)]
    result["attempted"] = len(measured) * reps * len(wl.methods)
    result["failed"] = sum(m.reps_failed for s in ok for m in s.methods.values()) + (
        len(measured) - len(ok)
    ) * reps * len(wl.methods)
    if ok:
        errors += check.gate(check.combine(ok), ref)
    else:
        errors.append("every batch failed")
    result["batches"] = len(measured)
    result["errors"] = errors
    result["correct"] = not errors
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
