"""Correctness gate: seeded summaries against a reference recorded at a fixed commit.

A run's per-method mean (and coverage, where the method has an interval)
must lie within Z_GATE Monte Carlo standard errors of the reference, and no
summary field may be NaN.  The reference is not `true_tau`: the contact
scenario carries a real finite-network bias against it.  Whether the
reference-seed warm-up batch reproduces the recorded summary byte for byte
is reported, not gated, because a sampler that draws differently is allowed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")
DIGEST_SEED = 20240
Z_GATE = 5.0
_FIELDS = ("mean", "variance", "coverage", "coverage_nonet", "ci_halfwidth", "mean_v_hat", "mean_kept")


def digest(summary) -> str:
    return hashlib.sha256(json.dumps(summary.to_dict(), sort_keys=True).encode()).hexdigest()


def combine(summaries) -> dict:
    """Pool the per-method statistics of several run_scenario summaries."""
    out = {}
    for key in summaries[0].methods:
        parts = [s.methods[key] for s in summaries]
        est = np.concatenate([m.estimates for m in parts])
        ok = sum(m.reps_ok for m in parts)
        rec = {
            "reps": ok,
            "failed": sum(m.reps_failed for m in parts),
            "mean": float(est.mean()),
            "variance": float(est.var(ddof=1)) if est.size > 1 else 0.0,
            "nan_fields": sorted(
                {f for m in parts for f in _FIELDS if isinstance(getattr(m, f), float) and math.isnan(getattr(m, f))}
            ),
        }
        for f in ("coverage", "coverage_nonet"):
            vals = [getattr(m, f) for m in parts]
            rec[f] = None if vals[0] is None else sum(v * m.reps_ok for v, m in zip(vals, parts)) / ok
        out[key] = rec
    return out


def gate(run: dict, ref: dict) -> list[str]:
    """Reasons the pooled run disagrees with the reference; empty when it passes."""
    errors = []
    for key, r in ref["methods"].items():
        got = run.get(key)
        if got is None:
            errors.append(f"{key}: missing from the run")
            continue
        if got["nan_fields"]:
            errors.append(f"{key}: NaN in {got['nan_fields']}")
        if not math.isfinite(got["mean"]):
            errors.append(f"{key}: mean {got['mean']} not finite")
            continue
        se = math.sqrt(r["variance"] * (1.0 / got["reps"] + 1.0 / r["reps"]))
        if abs(got["mean"] - r["mean"]) > Z_GATE * se:
            errors.append(f"{key}: mean {got['mean']:.5f} vs reference {r['mean']:.5f} (tolerance {Z_GATE * se:.5f})")
        if r["coverage"] is not None:
            p = min(max(r["coverage"], 0.02), 0.98)
            tol = Z_GATE * math.sqrt(p * (1.0 - p) * (1.0 / got["reps"] + 1.0 / r["reps"]))
            if got["coverage"] is None or abs(got["coverage"] - r["coverage"]) > tol:
                errors.append(f"{key}: coverage {got['coverage']} vs reference {r['coverage']:.4f} (tolerance {tol:.4f})")
    return errors


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE.read_text())[workload]
