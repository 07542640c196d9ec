"""Print one sha256 per seeded output; diff two trees' listings for byte identity.

Run as `PYTHONPATH=src python tools/seeded_digests.py` in each tree; about 8 s on two cores.
Cases: the quadrature oracles (graphon_b, graphon_degree_profile, a rank1: graphon's
normalisation, kernel_moment), leading_eigenpairs on a paper-sec3 graph of n=3000 (about 1.2M
stored entries, so its Lanczos products run by row blocks when BLAS has two or more threads;
a tree without that split gives the same hash only if the split is bit-identical), the Monte
Carlo oracles (ate_oracle on every outcome model at 250 000 draws, i.e. two chunks;
theoretical_variance_oracle Vreg, Vdim and Valpha on sec31-validation and Vnp on sec41-main
p=5), run_scenario summaries (JSON plus raw estimates; only n=400 runs Lanczos) of get_scenario
with and without its overrides and of a contact file passed by path, their emit_report files,
reproduce_table table1/table5 at budget 0.02, `netate estimate`, and `netate simulate` with a
`--graphon` override.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
from netate import (KernelConfig, OutcomeModel, ate_oracle, contact_network, emit_report, get_scenario,
                    graphon_b, graphon_degree_profile, kernel_moment, leading_eigenpairs, make_graphon,
                    reproduce_table, run_scenario, sample_graph, sample_latents,
                    theoretical_variance_oracle)
from netate import trial as tr
from netate.cli import main as cli_main

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
ESTIMATES = [("dim", "spectral"), ("dim", "conservative"), ("linear", "spectral"),
             ("linear", "conservative"), ("linear", "none"), ("np", "polyseq"), ("np", "none")]


def emit(case: str, *parts: bytes) -> None:
    print(f"{hashlib.sha256(b''.join(parts)).hexdigest()}  {case}", flush=True)


paper = make_graphon("paper-sec3")
emit("oracle/graphon_b/paper-sec3", np.float64(graphon_b(paper)).tobytes())
emit("oracle/degree_profile/paper-sec3",
     np.array([graphon_degree_profile(paper, x) for x in (0.05, 0.5, 0.9)]).tobytes())
emit("oracle/rank1-eigenvalues", np.array(make_graphon("rank1:exp(x)*sin(3*x)+2").eigenvalues).tobytes())
# about 1.2M stored entries, above variance._SPLIT_NNZ = 2**20: with two or more BLAS threads the
# Lanczos products run by row blocks, which a tree without the split computes in one piece
rng = np.random.default_rng(60)
spectral = leading_eigenpairs(sample_graph(paper, sample_latents(3000, rng), rng), 3)
emit("lanczos/paper-sec3-n3000", spectral.eigenvalues.tobytes(), spectral.eigenvectors.tobytes())
for q in (2, 4, 6):
    config = KernelConfig(q=q, p=3, h_band=1.0, b_trim=0.1)
    emit(f"oracle/kernel_moment/q={q}", np.array([kernel_moment(config, m) for m in MULTI_INDICES]).tobytes())
for k, (sid, params) in enumerate(OUTCOME_MODELS):
    out = ate_oracle(OutcomeModel(sid, params), 0.3, 250_000, np.random.default_rng(80 + k))
    emit(f"oracle/ate/{sid}", np.array(out).tobytes())
for k, (sid, kwargs, formula, params) in enumerate(VARIANCE_ORACLES):
    out = theoretical_variance_oracle(get_scenario(sid, **kwargs), formula, 20_000,
                                      np.random.default_rng(90 + k), params)
    emit(f"oracle/variance/{sid}-{formula}", np.array(out).tobytes())

with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    bundled = resources.files("netate.data") / "synthetic_contacts_midday.csv"
    (root / "midday-copy.csv").write_bytes(bundled.read_bytes())
    for k, (sid, kwargs, n, methods) in enumerate(SUMMARIES):
        case = sid + "".join(f"-{getattr(v, 'name', v)}" for v in kwargs.values())
        kwargs = {key: root / v if isinstance(v, Path) else v for key, v in kwargs.items()}
        summary = run_scenario(get_scenario(sid, **kwargs), n, methods, reps=10, seed=7)
        emit(f"summary/{case}", json.dumps(summary.to_dict(), sort_keys=True).encode(),
             *(ms.estimates.tobytes() for ms in summary.methods.values()))
        files = emit_report(summary, root / f"report{k}")
        emit(f"emit_report/{case}", *(p.name.encode() + p.read_bytes() for p in files))
    for table in ("table1", "table5"):
        report = reproduce_table(table, budget=0.02)
        emit(f"reproduce/{table}", json.dumps(report, sort_keys=True).encode())

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
        emit(f"estimate/{method}:{variance}", str(code).encode(), out.read_bytes())

    out = root / "simulate"
    with contextlib.redirect_stdout(io.StringIO()):  # the printed paths name the temp dir
        code = cli_main(["simulate", "--scenario", "sec31-validation", "--n", "150", "--graphon",
                         "constant:0.5", "--methods", "linear,dim:conservative", "--reps", "10",
                         "--seed", "7", "--workers", "1", "--out", str(out)])
    emit("simulate/sec31-validation-constant:0.5", str(code).encode(),
         *(f.name.encode() + f.read_bytes() for f in sorted(out.iterdir())))
