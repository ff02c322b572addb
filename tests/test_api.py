"""The public names of the ``spw`` package, pinned so that any addition
or removal shows up as a change to this list."""

import types

import spw

PUBLIC_NAMES = [
    "AssignmentModel",
    "BasisSpec",
    "CacNuisances",
    "CqrNuisances",
    "Dataset",
    "DensityEstimate",
    "DiscreteDesign",
    "FiniteSampleDgp",
    "FpwEstimate",
    "FsConfig",
    "Gnpw",
    "GnpwSpec",
    "GpwFit",
    "HetBounds",
    "HybridRegion",
    "LargeSampleDgp",
    "ModelClass",
    "MultivaluedCac",
    "MultivaluedCqr",
    "NuisanceSet",
    "NullGrid",
    "OneSidedControl",
    "OneSidedTreated",
    "PValueBounds",
    "Perturbation",
    "RngHandle",
    "RobinsonClassic",
    "SetEstimate",
    "SrpCustom",
    "SrpNoPropensity",
    "StabilizedAipw",
    "StrataIndex",
    "StudyResult",
    "WeightedAipw",
    "alt_estimate",
    "build_strata",
    "conditional_mean",
    "confidence_set",
    "density_summary",
    "dr_probe",
    "draw_omegas",
    "enumerate_expectation",
    "fpw_set",
    "gateaux_derivative",
    "gpw_as_weighted_ipw",
    "gpw_estimate",
    "ipw_fs_estimate",
    "load_csv",
    "observed_statistic",
    "omega_parts",
    "pate_estimate",
    "pvalue_bounds",
    "residual_from_json",
    "residual_to_json",
    "run_study",
    "scaled_ate",
    "shrinkage_mean",
    "srp_conditions",
    "statistic_weights",
    "wald_ci",
    "wmd_estimate",
    "write_csv",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(spw).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
