"""Command-line entry points: estimate, simulate, reproduce."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from ._errors import InvalidVarianceError, NetateError, QuadratureError
from .estimators import _np_config
from .graphon import make_graphon
from .harness import (
    _NETWORK_VARIANCES,
    _VARIANCES,
    TABLE_IDS,
    TABLE_REPS,
    _estimate_once,
    _network_term,
    _resolve_method,
    emit_report,
    get_scenario,
    reproduce_table,
    run_scenario,
    scenario_ids,
)
from .trial import load_edge_list, load_trial_csv


def _cmd_estimate(args) -> int:
    if not 0.0 < args.alpha < 1.0:  # for any method, as a scenario checks its np_alpha
        raise ValueError(f"alpha must lie in (0, 1), got {args.alpha}")
    network = None
    if args.edges:
        network, _ = load_edge_list(args.edges, min_count=args.min_count, drop_isolated=args.drop_isolated)
    data = load_trial_csv(args.data, pi=args.pi)
    if network is not None and network.n != data.n:
        raise ValueError(f"the edge list has {network.n} vertices but the data has {data.n} rows")
    try:
        est, variance = _resolve_method(f"{args.method}:{args.variance or ''}")
    except ValueError:
        print(f"error: --variance {args.variance} not available for --method {args.method}", file=sys.stderr)
        return 2
    tuning = _np_config(data.n, data.p, args.alpha, args.h_band, args.b_trim) if est == "np" else None

    network_term = 0.0
    needs_network_term = variance in _NETWORK_VARIANCES
    if needs_network_term and network is not None:
        if args.rank is None:
            print("error: --rank is required with --edges for spectral/polyseq variance", file=sys.stderr)
            return 2
        network_term = _network_term(network, args.rank, data)
    result, rec = _estimate_once(tuning, data, est, variance, network_term)

    diagnostics = dict(result.diagnostics)
    if variance != "none":
        diagnostics["variance_components"] = rec["components"]
        diagnostics["variance_method"] = variance
        if needs_network_term and network is None:
            diagnostics["network_term"] = "omitted (no network supplied)"
    payload = {
        "tau_hat": result.tau_hat,
        "variance_hat": rec.get("v"),
        "ci_low": rec.get("lo"),
        "ci_high": rec.get("hi"),
        "method": result.method,
        "diagnostics": diagnostics,
    }
    # numpy scalars and arrays that are not float64 (which is a float) serialise through .tolist()
    text = json.dumps(payload, indent=2, sort_keys=True, default=lambda o: o.tolist())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_simulate(args) -> int:
    scenario = get_scenario(
        args.scenario,
        p=args.p,
        pi=args.pi,
        interference=args.interference,
        np_alpha=args.alpha,
    )
    if args.graphon:
        scenario = replace(scenario, graphon=make_graphon(args.graphon))
    summary = run_scenario(
        scenario,
        args.n,
        tuple(args.methods.split(",")),
        reps=args.reps,
        seed=args.seed,
        workers=args.workers,
        h_band=args.h_band,
        b_trim=args.b_trim,
    )
    paths = emit_report(summary, args.out)
    for p in paths:
        print(p)
    return 0


def _cmd_reproduce(args) -> int:
    contacts = {}
    if args.contacts_morning:
        contacts["morning"] = args.contacts_morning
    if args.contacts_midday:
        contacts["midday"] = args.contacts_midday
    report = reproduce_table(
        args.table,
        budget=args.budget,
        seed=args.seed,
        workers=args.workers,
        out_dir=args.out,
        contacts=contacts or None,
    )
    for cell in report["cells"]:
        parts = []
        for key, value in cell.items():
            if isinstance(value, float):
                parts.append(f"{key}={value:.4g}")
            else:
                parts.append(f"{key}={value}")
        print("  ".join(parts))
    if report["scaled"]:
        factor = report["mc_tolerance_factor"]
        print(f"[scaled run: {report['reps']} reps; widen Monte Carlo tolerances by {factor:.2f}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netate",
        description="Average treatment effect estimation under network interference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate the ATE from a dataset CSV")
    est.add_argument("--data", required=True, help="CSV with header y,w,z1,...,zp")
    est.add_argument("--pi", type=float, required=True, help="design treatment probability")
    est.add_argument(
        "--edges",
        help="edge-list CSV 'i,j[,count]' of nonnegative integer vertex ids; the ids are "
        "relabelled 0..n-1 in increasing order, so data row k is the vertex with the k-th "
        "smallest id (among those kept by --drop-isolated)",
    )
    est.add_argument("--min-count", type=int, default=1)
    est.add_argument("--drop-isolated", action="store_true")
    est.add_argument("--method", choices=tuple(_VARIANCES), default="linear")
    est.add_argument("--variance", choices=tuple(dict.fromkeys(v for vs in _VARIANCES.values() for v in vs)))
    est.add_argument("--rank", type=int, help="spectral rank (required with --edges)")
    est.add_argument("--alpha", type=float, default=0.01, help="quantile level for the trim constant")
    est.add_argument("--h-band", type=float, help="bandwidth override")
    est.add_argument("--b-trim", type=float, help="trim threshold override")
    est.add_argument("--out", help="write the JSON result here instead of stdout")
    est.set_defaults(func=_cmd_estimate)

    sim = sub.add_parser("simulate", help="run a registered Monte Carlo scenario")
    sim.add_argument("--scenario", required=True, choices=scenario_ids())
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--pi", type=float)
    sim.add_argument("--p", type=int)
    sim.add_argument("--graphon", help="graphon registry key override (e.g. constant:0.5)")
    sim.add_argument("--methods", default="dim,linear,np")
    sim.add_argument("--reps", type=int, default=TABLE_REPS)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--alpha", type=float)
    sim.add_argument("--h-band", type=float)
    sim.add_argument("--b-trim", type=float)
    sim.add_argument("--interference", action=argparse.BooleanOptionalAction, default=None)
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=_cmd_simulate)

    rep = sub.add_parser("reproduce", help="re-run one of the reported result grids")
    rep.add_argument("--table", required=True, choices=TABLE_IDS)
    rep.add_argument("--budget", type=float, default=1.0, help=f"fraction of the full {TABLE_REPS} reps")
    rep.add_argument("--seed", type=int, default=20240)
    rep.add_argument("--workers", type=int, default=1)
    rep.add_argument("--out", help="directory for report.json")
    rep.add_argument("--contacts-morning", help="contact CSV replacing the bundled morning network")
    rep.add_argument("--contacts-midday", help="contact CSV replacing the bundled midday network")
    rep.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    """Run one subcommand.

    An input the library rejects (a ValueError, a file that cannot be read,
    or any NetateError but a program fault) prints one `error:` line and
    exits 2; a program fault keeps its traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QuadratureError, InvalidVarianceError):
        raise  # a fault in the program, not in its input
    except (ValueError, OSError, NetateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
