"""Print one sha256 per seeded output; diff two trees' listings for byte identity.

Run as `PYTHONPATH=src python tools/seeded_digests.py` in each tree; about 8 s on two cores.
Make each tree's listing twice, with `OPENBLAS_NUM_THREADS=1` and with the variable unset, and
compare all four: a seeded output must not depend on the BLAS thread count (a pool child runs
fewer threads than its parent), so the two listings of one tree must be identical too.
Cases: the quadrature oracles (graphon_b and graphon_degree_profile on paper-sec3, constant:0.7
and rank1:1+x, a rank1: graphon's normalisation, kernel_moment), leading_eigenpairs on a
paper-sec3 graph of n=3000 (about 1.2M stored entries, so its Lanczos products run by row blocks
when BLAS has two or more threads; a tree without that split gives the same hash only if the
split is bit-identical), the Monte
Carlo oracles (ate_oracle on every outcome model at 250 000 draws, i.e. two chunks;
theoretical_variance_oracle Vreg, Vdim and Valpha on sec31-validation and Vnp on sec41-main
p=5), run_scenario summaries (JSON plus raw estimates; only n=400 runs Lanczos) of get_scenario
with and without its overrides and of a contact file passed by path, their emit_report files,
reproduce_table table1/table5 at budget 0.02 (the report together with every replicate's record:
a table's cells hold only coverage, which a moved variance need not change), `netate estimate`
(also np:polyseq with the np tuning overrides --h-band and --b-trim), and `netate simulate` with
two `--graphon` overrides (constant:0.5, and a rank1: graphon, so its sampler is covered), with
the np tuning overrides, and twice with `--workers 2`, once with `--b-trim`, so the pool path is
covered with the trim level derived and given (its replicates run in the pool children, so
`--values` records none of them, but it compares the summary); the two `--graphon` cases run
once more with `--workers 2`, and each must give its 1-worker twin's digest.

Where outputs may move in the last digits, list the numbers themselves and compare them:

    PYTHONPATH=src python tools/seeded_digests.py --values values.json   # in each tree
    python tools/seeded_digests.py --compare parent.json change.json

`--values` writes, per case, every number behind its digest as named fields: the oracles' values,
each summary's fields and raw estimates, and for every replicate that run_scenario or
reproduce_table makes, its record (tau, kept count, variance and components, interval) and its
estimator's diagnostics (h_band and b_trim for np). Each field lists its values across the
replicates in order; the report files, which restate the summaries, are left out. `--compare`
prints the largest relative difference |a - b| / max(|a|, |b|) of every field that moved, and
exits 1 when an integer field (such as a kept count) differs anywhere, a float field moved by
more than RTOL, or a field is missing or has another length. The kernel moments are the one
exception: some are 0 in exact arithmetic, so an oracle/kernel_moment/* entry is judged by its
absolute difference, which must be at most MOMENT_TOL (1e-13, the quadrature's tolerance) times
the zeroth moment.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

SUMMARIES = [
    ("sec31-validation", {}, 200, ("linear:spectral", "linear:conservative", "dim:conservative", "dim")),
    ("sec31-validation", {"pi": 0.5}, 400, ("linear:spectral",)),  # n > 300: Lanczos eigenpairs
    *[("sec41-main", {"p": p}, 300, ("linear", "np", "linear:none", "np:none")) for p in (1, 3, 5)],
    # n is ignored for a fixed network
    *[("contact-vaccine", {"period": t}, 0, ("dim", "linear", "np")) for t in ("morning", "midday")],
    ("sec41-main", {"p": 2, "pi": 0.6, "interference": False, "np_alpha": 0.05}, 200, ("linear", "np")),
    # a copy of the bundled midday file, loaded by path; its case is named by the file name
    ("contact-vaccine", {"contacts_path": Path("midday-copy.csv")}, 0, ("dim", "linear", "np")),
]
OUTCOME_MODELS = [("constant", {"c": 2.5}), ("sec31-validation", {}), ("sec41-main", {"p": 3}),
                  ("contact-vaccine", {})]
VARIANCE_ORACLES = [("sec31-validation", {}, "Vreg", None), ("sec31-validation", {}, "Vdim", None),
                    ("sec31-validation", {}, "Valpha", {"alpha1": [0.5], "alpha0": [-0.25]}),
                    ("sec41-main", {"p": 5}, "Vnp", None)]
MULTI_INDICES = ([0], [1], [2], [4], [6], [2, 2], [3, 0, 4])
# `netate simulate` runs: case name, the flags before --reps, and the worker count
SIMULATIONS = [
    ("sec31-validation-constant:0.5", ["--scenario", "sec31-validation", "--n", "150", "--graphon",
                                       "constant:0.5", "--methods", "linear,dim:conservative"], 1),
    # a rank1: graphon, so its sampled graphs are digested and not only its eigenvalue
    ("sec31-validation-rank1:2+sin(6*x)", ["--scenario", "sec31-validation", "--n", "300", "--graphon",
                                           "rank1:2+sin(6*x)", "--methods", "linear,dim:conservative"], 1),
    # np tuning overrides that trim some points but not all
    ("sec41-main-h0.8-b0.02", ["--scenario", "sec41-main", "--p", "1", "--n", "300", "--methods",
                               "np,np:none", "--h-band", "0.8", "--b-trim", "0.02"], 1),
    # the pool path, with an np method and both network variances
    ("sec41-main-workers2", ["--scenario", "sec41-main", "--p", "1", "--n", "200", "--methods",
                             "np,linear"], 2),
    # the pool path with a given trim level, so the children run the np config built in the parent
    ("sec41-main-workers2-b0.02", ["--scenario", "sec41-main", "--p", "1", "--n", "200", "--methods",
                                   "np,np:none", "--b-trim", "0.02"], 2),
]
# the two --graphon cases again in a pool, whose children unpickle each family's h; a summary is
# bit-identical at any worker count, so each line carries its 1-worker twin's digest
SIMULATIONS += [(f"{case}-workers2", argv, 2) for case, argv, _ in SIMULATIONS[:2]]
# the quadrature oracles' graphons: the paper's, and one of each rank-1 family, whose h the
# quadrature calls with scalar latents
GRAPHONS = ("paper-sec3", "constant:0.7", "rank1:1+x")
ESTIMATES = [("dim", "spectral"), ("dim", "conservative"), ("linear", "spectral"),
             ("linear", "conservative"), ("linear", "none"), ("np", "polyseq"), ("np", "none")]


RTOL = 1e-12  # the equivalence bar for a float field: tau_hat within 1e-12 relative
# a kernel moment that is 0 in exact arithmetic holds only quadrature noise, whose relative move
# means nothing (3.5e-18 against -2.1e-17 reads as 117%): an oracle/kernel_moment/* entry passes when
# |a - b| <= MOMENT_TOL * |zeroth moment|, the case's first entry (MULTI_INDICES[0] is [0]); MOMENT_TOL
# is the tolerance kernel_moment asks of its quadrature
MOMENT_TOL = 1e-13


class Listing:
    """Digest lines on stdout or, when `values` is set, the named numbers of each case."""

    def __init__(self, values: bool):
        self.values: dict | None = {} if values else None

    def emit(self, case: str, *parts: bytes, numbers=None) -> None:
        if self.values is None:
            print(f"{hashlib.sha256(b''.join(parts)).hexdigest()}  {case}", flush=True)
        elif numbers is not None:
            self.values[case] = fields(numbers)


def fields(obj, prefix: str = "", out: dict | None = None) -> dict:
    """Flatten nested dicts to "a/b" paths; lists, tuples and arrays extend their path's list.

    Strings and None carry no number and are skipped.
    """
    out = {} if out is None else out
    if isinstance(obj, dict):
        for key, value in obj.items():
            fields(value, f"{prefix}/{key}" if prefix else str(key), out)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        for item in np.asarray(obj).ravel().tolist() if isinstance(obj, np.ndarray) else obj:
            fields(item, prefix, out)
    elif isinstance(obj, (bool, int, float, np.integer, np.floating, np.bool_)):
        out.setdefault(prefix, []).append(obj.item() if isinstance(obj, np.generic) else obj)
    return out


def run(listing: Listing) -> None:
    # imported here, so that --compare runs without netate on the path
    from netate import harness
    from netate import (KernelConfig, OutcomeModel, ate_oracle, contact_network, emit_report, get_scenario,
                        graphon_b, graphon_degree_profile, kernel_moment, leading_eigenpairs, make_graphon,
                        reproduce_table, run_scenario, sample_graph, sample_latents,
                        theoretical_variance_oracle)
    from netate import trial as tr
    from netate.cli import main as cli_main

    emit = listing.emit
    records: list[dict] = []  # per-replicate records of the run_scenario calls since the last clear
    estimate_once = harness._estimate_once

    def recording(tuning, data, est, var, *rest):
        result, rec = estimate_once(tuning, data, est, var, *rest)
        records.append({f"{est}:{var}": {**rec, **result.diagnostics}})
        return result, rec

    harness._estimate_once = recording

    paper = make_graphon("paper-sec3")
    for key in GRAPHONS:
        spec = make_graphon(key)
        b = graphon_b(spec)
        emit(f"oracle/graphon_b/{key}", np.float64(b).tobytes(), numbers=[b])
        profile = np.array([graphon_degree_profile(spec, x) for x in (0.05, 0.5, 0.9)])
        emit(f"oracle/degree_profile/{key}", profile.tobytes(), numbers=profile)
    eigenvalues = np.array(make_graphon("rank1:exp(x)*sin(3*x)+2").eigenvalues)
    emit("oracle/rank1-eigenvalues", eigenvalues.tobytes(), numbers=eigenvalues)
    # about 1.2M stored entries, above variance._SPLIT_NNZ = 2**20: with two or more BLAS threads
    # the Lanczos products run by row blocks, which a tree without the split computes in one piece
    rng = np.random.default_rng(60)
    spectral = leading_eigenpairs(sample_graph(paper, sample_latents(3000, rng), rng), 3)
    emit("lanczos/paper-sec3-n3000", spectral.eigenvalues.tobytes(), spectral.eigenvectors.tobytes(),
         numbers={"eigenvalues": spectral.eigenvalues, "eigenvectors": spectral.eigenvectors})
    for q in (2, 4, 6):
        config = KernelConfig(q=q, p=3, h_band=1.0, b_trim=0.1)
        moments = np.array([kernel_moment(config, m) for m in MULTI_INDICES])
        emit(f"oracle/kernel_moment/q={q}", moments.tobytes(), numbers=moments)
    for k, (sid, params) in enumerate(OUTCOME_MODELS):
        out = np.array(ate_oracle(OutcomeModel(sid, **params), 0.3, 250_000, np.random.default_rng(80 + k)))
        emit(f"oracle/ate/{sid}", out.tobytes(), numbers=out)
    for k, (sid, kwargs, formula, params) in enumerate(VARIANCE_ORACLES):
        out = np.array(theoretical_variance_oracle(get_scenario(sid, **kwargs), formula, 20_000,
                                                   np.random.default_rng(90 + k), params))
        emit(f"oracle/variance/{sid}-{formula}", out.tobytes(), numbers=out)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        bundled = resources.files("netate.data") / "synthetic_contacts_midday.csv"
        (root / "midday-copy.csv").write_bytes(bundled.read_bytes())
        for k, (sid, kwargs, n, methods) in enumerate(SUMMARIES):
            case = sid + "".join(f"-{getattr(v, 'name', v)}" for v in kwargs.values())
            kwargs = {key: root / v if isinstance(v, Path) else v for key, v in kwargs.items()}
            records.clear()
            summary = run_scenario(get_scenario(sid, **kwargs), n, methods, reps=10, seed=7)
            emit(f"summary/{case}", json.dumps(summary.to_dict(), sort_keys=True).encode(),
                 *(ms.estimates.tobytes() for ms in summary.methods.values()),
                 numbers={"summary": summary.to_dict(), "replicates": records,
                          "estimates": {m: ms.estimates for m, ms in summary.methods.items()}})
            files = emit_report(summary, root / f"report{k}")
            emit(f"emit_report/{case}", *(p.name.encode() + p.read_bytes() for p in files))
        for table in ("table1", "table5"):
            records.clear()
            report = reproduce_table(table, budget=0.02)
            emit(f"reproduce/{table}", json.dumps(report, sort_keys=True).encode(),
                 json.dumps(fields(records), sort_keys=True).encode(),
                 numbers={"report": report, "replicates": records})

        scenario, net = get_scenario("contact-vaccine", pi=0.2), contact_network("morning")
        rng = np.random.default_rng(70)
        w = tr.assign_treatments(net.n, 0.2, rng)
        draw = tr.sample_covariates(scenario.outcome, net.n, rng)
        y = tr.simulate_outcomes(scenario.outcome, w, tr.exposure_fractions(net, w), draw, rng)
        tr.save_trial_csv(tr.TrialData(Y=y, W=w, Z=draw.Z, pi=0.2), root / "trial.csv")
        edges = zip(*net.adjacency.nonzero())
        (root / "edges.csv").write_text("".join(f"{i},{j}\n" for i, j in edges if i < j))
        for method, variance in ESTIMATES:
            out = root / f"estimate-{method}-{variance}.json"
            code = cli_main(["estimate", "--data", str(root / "trial.csv"), "--pi", "0.2", "--edges",
                             str(root / "edges.csv"), "--rank", "3", "--method", method,
                             "--variance", variance, "--out", str(out)])
            emit(f"estimate/{method}:{variance}", str(code).encode(), out.read_bytes(),
                 numbers={"exit_code": code, "output": json.loads(out.read_text())})
        out = root / "estimate-np-overrides.json"
        code = cli_main(["estimate", "--data", str(root / "trial.csv"), "--pi", "0.2", "--edges",
                         str(root / "edges.csv"), "--rank", "3", "--method", "np", "--variance", "polyseq",
                         "--h-band", "0.9", "--b-trim", "0.02", "--out", str(out)])
        emit("estimate/np:polyseq-h0.9-b0.02", str(code).encode(), out.read_bytes(),
             numbers={"exit_code": code, "output": json.loads(out.read_text())})

        for k, (case, argv, workers) in enumerate(SIMULATIONS):
            out = root / f"simulate{k}"
            records.clear()
            with contextlib.redirect_stdout(io.StringIO()):  # the printed paths name the temp dir
                code = cli_main(["simulate", *argv, "--reps", "10", "--seed", "7", "--workers", str(workers),
                                 "--out", str(out)])
            emit(f"simulate/{case}", str(code).encode(),
                 *(f.name.encode() + f.read_bytes() for f in sorted(out.iterdir())),
                 numbers={"exit_code": code, "summary": json.loads((out / "summary.json").read_text()),
                          "replicates": records})


def _relative(a: list, b: list) -> float:
    """Largest |x - y| / max(|x|, |y|) over the entries; equal entries (NaN, inf) give 0."""
    x, y = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    same = (x == y) | (np.isnan(x) & np.isnan(y))
    with np.errstate(invalid="ignore"):
        rel = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
    rel = np.where(same, 0.0, np.where(np.isnan(rel), np.inf, rel))
    return float(rel.max(initial=0.0))


def compare(path_a: Path, path_b: Path) -> int:
    """Print every field that differs between two listings; 1 if any fails the bar, else 0."""
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    failed = moved = total = 0
    for case in sorted(a.keys() | b.keys()):
        fa, fb = a.get(case, {}), b.get(case, {})
        for name in sorted(fa.keys() | fb.keys()):
            total += 1
            va, vb = fa.get(name), fb.get(name)
            if va is None or vb is None or len(va) != len(vb):
                failed += 1
                print(f"FAIL  {case}  {name}: missing or of another length")
                continue
            if all(type(v) is int for v in va + vb):
                differ = sum(x != y for x, y in zip(va, vb))
                if differ:
                    moved += 1
                    failed += 1
                    print(f"FAIL  {case}  {name}: {differ} of {len(va)} integers differ")
                continue
            rel = _relative(va, vb)
            if rel > 0.0:
                moved += 1
                if case.startswith("oracle/kernel_moment/"):
                    diff = float(np.max(np.abs(np.subtract(va, vb))))
                    bad = not diff <= MOMENT_TOL * abs(va[0])  # a NaN fails
                    how = f"max absolute difference {diff:.3g}, zeroth moment {va[0]:.6g}"
                else:
                    bad, how = rel > RTOL, f"max relative difference {rel:.3g}"
                failed += bad
                print(f"{'FAIL' if bad else 'ok  '}  {case}  {name}: {how}")
    print(f"{total} fields, {moved} moved, {failed} failing (integers must match, floats within {RTOL:g}, "
          f"kernel moments within {MOMENT_TOL:g} x the zeroth moment)")
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--values", type=Path, metavar="OUT", help="write the numbers of every case as JSON")
    mode.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"), help="compare two --values files")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    listing = Listing(values=args.values is not None)
    run(listing)
    if args.values is not None:
        args.values.write_text(json.dumps(listing.values, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
