"""Stable probability weighting for heterogeneous causal effects.

Estimation and inference under limited overlap: non-inverse weighting
estimators with sandwich covariance, a doubly robust generalized
residual calculus with exact moment probes, finite-sample unbiased
set-estimation within discrete strata, and Monte-Carlo bounds on the
finite-sample p-value function for weak null hypotheses.
"""

__version__ = "0.1.0"

from .data import (
    Dataset,
    RngHandle,
    StrataIndex,
    build_strata,
    load_csv,
    write_csv,
)
from .finite_sample import (
    AssignmentModel,
    FpwEstimate,
    FsConfig,
    SetEstimate,
    enumerate_expectation,
    fpw_set,
    ipw_fs_estimate,
    scaled_ate,
    shrinkage_mean,
    wmd_estimate,
)
from .gpw import BasisSpec, GpwFit, alt_estimate, gpw_as_weighted_ipw, gpw_estimate, pate_estimate, wald_ci
from .inference import (
    HetBounds,
    ModelClass,
    NullGrid,
    PValueBounds,
    confidence_set,
    draw_omegas,
    observed_statistic,
    omega_parts,
    pvalue_bounds,
    statistic_weights,
)
from .residuals import (
    CacNuisances,
    CqrNuisances,
    DiscreteDesign,
    Gnpw,
    GnpwSpec,
    HybridRegion,
    MultivaluedCac,
    MultivaluedCqr,
    NuisanceSet,
    OneSidedControl,
    OneSidedTreated,
    Perturbation,
    RobinsonClassic,
    SrpCustom,
    SrpNoPropensity,
    StabilizedAipw,
    WeightedAipw,
    conditional_mean,
    dr_probe,
    gateaux_derivative,
    residual_from_json,
    residual_to_json,
    srp_conditions,
)
from .simulate import (
    DensityEstimate,
    FiniteSampleDgp,
    LargeSampleDgp,
    StudyResult,
    density_summary,
    run_study,
)
