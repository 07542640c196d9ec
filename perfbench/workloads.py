"""The benchmark's workloads: one `run_scenario` configuration each.

Every workload is a closed loop of `run_scenario` batches driven from one
process.  `spans` gives the traced layer calls expected per replicate (and
per batch outside any replicate) as inclusive (low, high) ranges; a layer
not listed must not fire.  The span-coverage check compares against it, so
a renamed or rerouted entry point fails loudly instead of zeroing a layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# fixed per replicate, whatever the estimators do
_TRIAL = {
    "trial.assign_treatments": (1, 1),
    "trial.sample_covariates": (1, 1),
    "trial.exposure_fractions": (1, 1),
    "trial.simulate_outcomes": (1, 1),
    "trial.TrialData": (1, 1),
    "harness._run_replicate": (1, 1),
}
# the network term of the spectral / polyseq variances
_NETWORK_TERM = {
    "variance.estimate_b": (1, 1),
    "variance.leading_eigenpairs": (1, 1),
    "variance.pc_balancing_weights": (1, 1),
}
# np estimator: tuning builds the kernel matrix, the estimate reuses it
_KERNEL = {
    "estimators._np_tuning": (1, 1),
    "kernels.weights_matrix": (1, 1),
    "estimators.nonparametric": (1, 1),
}


@dataclass(frozen=True)
class Workload:
    name: str
    scenario_id: str
    scenario_kwargs: dict
    n: int
    methods: tuple[str, ...]
    workers: int
    batch_reps: int  # replicates per timed run_scenario call
    small_reps: int  # replicates of the untimed warm-up batch and of the memory probe
    spans: dict = field(default_factory=dict)  # per replicate
    batch_spans: dict = field(default_factory=dict)  # per batch, outside replicates

    def scenario(self):
        from netate.harness import get_scenario

        return get_scenario(self.scenario_id, **self.scenario_kwargs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sec31-spectral",
            scenario_id="sec31-validation",
            scenario_kwargs={},
            n=1000,
            methods=("linear:spectral", "dim:conservative"),
            workers=1,
            batch_reps=4,
            small_reps=2,
            spans={
                **_TRIAL,
                **_NETWORK_TERM,
                "graphon.sample_graph": (1, 1),
                "harness._estimate_once": (2, 2),
                "estimators.difference_in_means": (1, 1),
                # linear:spectral fits twice (estimate, then variance); dim fits once
                "estimators.linear_adjusted": (3, 3),
                "variance.variance_reg": (2, 2),
                "variance.confidence_interval": (4, 4),
            },
        ),
        Workload(
            name="sec41-kernel",
            scenario_id="sec41-main",
            scenario_kwargs={"p": 5, "np_alpha": 0.05},
            n=1000,
            methods=("linear:none", "np:none"),
            workers=1,
            batch_reps=5,
            small_reps=2,
            spans={
                **_TRIAL,
                **_KERNEL,
                "graphon.sample_graph": (1, 1),
                "harness._estimate_once": (2, 2),
                "estimators.linear_adjusted": (1, 1),
            },
        ),
        Workload(
            name="contact-pool",
            scenario_id="contact-vaccine",
            scenario_kwargs={"period": "morning"},
            n=236,
            methods=("dim", "linear", "np"),
            workers=2,
            batch_reps=500,
            small_reps=50,
            spans={
                **_TRIAL,
                **_KERNEL,
                "variance.pc_balancing_weights": (1, 1),
                "harness._estimate_once": (3, 3),
                "estimators.difference_in_means": (1, 1),
                # dim 1 + linear 2 + one fit per polyseq degree (0..max_degree=5)
                "estimators.linear_adjusted": (4, 9),
                "variance.variance_reg": (3, 8),
                "variance.variance_np_polyseq": (1, 1),
                "variance.confidence_interval": (6, 6),
            },
            batch_spans={"variance.estimate_b": (1, 1), "variance.leading_eigenpairs": (1, 1)},
        ),
        Workload(
            name="sec41-large",
            scenario_id="sec41-main",
            scenario_kwargs={"p": 1},
            n=4000,
            methods=("linear", "np"),
            workers=1,
            batch_reps=1,
            small_reps=1,
            spans={
                **_TRIAL,
                **_NETWORK_TERM,
                **_KERNEL,
                "graphon.sample_graph": (1, 1),
                "harness._estimate_once": (2, 2),
                # linear 2 + one fit per polyseq degree
                "estimators.linear_adjusted": (3, 8),
                "variance.variance_reg": (2, 7),
                "variance.variance_np_polyseq": (1, 1),
                "variance.confidence_interval": (4, 4),
            },
        ),
    )
}
