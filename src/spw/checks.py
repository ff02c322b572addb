"""Built-in verification suite for the residual calculus.

Runs the moment-zero, orthogonality, and double-robustness probes for
every residual kind on shipped discrete designs and reports measured
magnitudes against fixed thresholds. Some kinds are documented to lack
a property; those rows are expected failures, and the suite as a whole
passes when every row matches its expectation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .residuals import (
    DiscreteDesign,
    Gnpw,
    GnpwSpec,
    HybridRegion,
    MultivaluedCac,
    MultivaluedCqr,
    OneSidedControl,
    OneSidedTreated,
    Perturbation,
    RobinsonClassic,
    SrpNoPropensity,
    StabilizedAipw,
    WeightedAipw,
    conditional_mean,
    dr_probe,
    gateaux_derivative,
)

MOMENT_TOL = 1e-12
ORTH_TOL = 1e-6
DR_TOL = 1e-12


def builtin_designs() -> tuple[DiscreteDesign, ...]:
    """Three binary designs, including an extreme-overlap point e = 0.001."""
    d1 = DiscreteDesign.binary(
        points=(1, 2, 3),
        masses=(0.5, 0.3, 0.2),
        e=(0.3, 0.5, 0.7),
        mu0=(1.0, -0.5, 2.0),
        mu1=(2.5, 0.5, 1.0),
    )
    d2 = DiscreteDesign.binary(
        points=(1, 2),
        masses=(0.6, 0.4),
        e=(0.001, 0.92),
        mu0=(4.0, -1.0),
        mu1=(9.0, 3.0),
    )
    d3 = DiscreteDesign.binary(
        points=(1, 2, 3, 4),
        masses=(0.25, 0.25, 0.25, 0.25),
        e=(0.05, 0.35, 0.65, 0.95),
        mu0=(0.0, 1.0, 2.0, 3.0),
        mu1=(1.0, 1.0, 1.0, 1.0),
    )
    return (d1, d2, d3)


def region_for(design: DiscreteDesign):
    return lambda x: 1.0 if design.e(x) < 0.5 else 0.0


def check_kinds() -> dict[str, object]:
    """The kinds exercised by the suite, by row name. Only HybridRegion
    reads a region function r; StabilizedAipw uses its default r = 0.5."""
    return {
        "gnpw(npw)": Gnpw(GnpwSpec(theta=(0.0, 1.0, 0.0, -1.0))),
        "gnpw(robinson-dr)": Gnpw(GnpwSpec(theta=(1.0, 0.0, -2.0, 1.0))),
        "gnpw(one-sided)": Gnpw(GnpwSpec(theta=(1.0, 0.0, -1.0, 0.0))),
        "gnpw(half)": Gnpw(GnpwSpec(theta=(0.5, 0.5, -1.0, 0.0))),
        "one_sided_control": OneSidedControl(),
        "one_sided_treated": OneSidedTreated(),
        "weighted_aipw": WeightedAipw(),
        "stabilized_aipw": StabilizedAipw(),
        "hybrid_region": HybridRegion(),
        "robinson": RobinsonClassic(),
        "srp_no_propensity": SrpNoPropensity(1.0, 0.0),
    }


# property -> set of kinds expected to fail it
EXPECTED_FAILURES = {
    "moment_zero": set(),
    "orthogonality": {"srp_no_propensity"},
    "bdr": {"robinson", "srp_no_propensity"},
    "gdr": {
        "gnpw(npw)",
        "gnpw(robinson-dr)",
        "gnpw(one-sided)",
        "gnpw(half)",
        "weighted_aipw",
        "robinson",
        "srp_no_propensity",
    },
}


@dataclass(frozen=True)
class CheckRow:
    kind: str
    prop: str
    magnitude: float
    threshold: float
    passed: bool
    expected_pass: bool

    @property
    def ok(self) -> bool:
        return self.passed == self.expected_pass


@dataclass(frozen=True)
class CheckReport:
    rows: tuple[CheckRow, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def render(self) -> str:
        lines = [
            f"{'kind':22s} {'property':14s} {'magnitude':>12s} {'threshold':>10s} "
            f"{'status':>7s} {'expected':>9s} {'ok':>4s}"
        ]
        for r in self.rows:
            lines.append(
                f"{r.kind:22s} {r.prop:14s} {r.magnitude:12.3e} {r.threshold:10.0e} "
                f"{'PASS' if r.passed else 'FAIL':>7s} "
                f"{'PASS' if r.expected_pass else 'FAIL':>9s} "
                f"{'yes' if r.ok else 'NO':>4s}"
            )
        return "\n".join(lines)


def _wrong_functions(design: DiscreteDesign):
    def wrong_e(x):
        return min(0.9, design.e(x) * 0.6 + 0.25)

    def wrong_mu0(x):
        return design.mu0(x) + 0.7

    def wrong_mu1(x):
        return design.mu1(x) - 1.3

    return wrong_e, (wrong_mu0, wrong_mu1)


def _worst(magnitudes) -> float:
    """The largest magnitude, NaN if any is NaN: ``max`` would keep or
    drop a NaN depending on where it stands, and a NaN row must fail."""
    return float(np.max(magnitudes))


def _moment_zero_magnitude(kind, design, r) -> float:
    truth = design.true_nuisances(r=r)
    return _worst(
        [abs(conditional_mean(kind, x, design.tau(x), truth, design)) for x in design.points]
    )


def _orthogonality_magnitude(kind, design, r) -> float:
    truth = design.true_nuisances(r=r)
    directions = [
        Perturbation(h_e=0.1, h_mu0=0.05, h_mu1=-0.08, h_eta=0.05),
        Perturbation(h_e=-0.05, h_mu0=0.1, h_mu1=0.1, h_eta=-0.1),
    ]
    vals = []
    for x in design.points:
        for direction in directions:
            vals.append(abs(gateaux_derivative(kind, x, truth, direction, design, h=1e-4)))
    return _worst(vals)


def _bdr_magnitude(kind, design, r) -> float:
    wrong_e, wrong_mu = _wrong_functions(design)
    probe = dr_probe(kind, design, design.tau, wrong_e, wrong_mu, r=r)
    return _worst(np.abs([probe.true_e_wrong_mu, probe.wrong_e_true_mu]))


def _gdr_magnitude(kind, design, r) -> float:
    wrong_e, wrong_mu = _wrong_functions(design)
    gaps = []
    for shift in (-1.5, 0.8, 2.0):
        probe = dr_probe(
            kind,
            design,
            lambda x, s=shift: design.tau(x) + s,
            wrong_e,
            wrong_mu,
            r=r,
        )
        gaps.append(probe.true_e_wrong_mu - probe.reference)
        gaps.append(probe.wrong_e_true_mu - probe.reference)
    return _worst(np.abs(gaps))


def check_suite(extra_kinds: dict[str, object] | None = None) -> CheckReport:
    """Run all probes over the shipped designs and collect a report.

    The orthogonality probe runs only on the moderate-overlap designs:
    the central-difference error is O(h^2) with a constant that grows
    like 1/e^2 for kinds dividing by the propensity, so the fixed step
    cannot resolve the (exactly zero) derivative at e = 0.001.

    ``extra_kinds`` (name -> kind) are probed informationally: their
    rows always count as matching expectations, since a user-supplied
    kind carries no property contract.
    """
    designs = builtin_designs()
    moderate = (designs[0], designs[2])
    rows = []
    suite = dict(check_kinds())
    informational = set()
    cac_extras = {}
    for name, kind in (extra_kinds or {}).items():
        display = f"user:{name}"
        if isinstance(kind, MultivaluedCqr):
            raise ConfigError("quantile kinds need outcome atoms; not probeable here")
        if isinstance(kind, MultivaluedCac):
            cac_extras[display] = kind
            informational.add(display)
            continue
        suite[display] = kind
        informational.add(display)
    for name, kind in suite.items():
        regions = {d: region_for(d) if isinstance(kind, HybridRegion) else None for d in designs}
        measures = {
            "moment_zero": _worst([_moment_zero_magnitude(kind, d, regions[d]) for d in designs]),
            "orthogonality": _worst(
                [_orthogonality_magnitude(kind, d, regions[d]) for d in moderate]
            ),
            "bdr": _worst([_bdr_magnitude(kind, d, regions[d]) for d in designs]),
            "gdr": _worst([_gdr_magnitude(kind, d, regions[d]) for d in designs]),
        }
        thresholds = {
            "moment_zero": MOMENT_TOL,
            "orthogonality": ORTH_TOL,
            "bdr": DR_TOL,
            "gdr": DR_TOL,
        }
        for prop, magnitude in measures.items():
            passed = magnitude <= thresholds[prop]
            expected = passed if name in informational else name not in EXPECTED_FAILURES[prop]
            rows.append(
                CheckRow(
                    kind=name,
                    prop=prop,
                    magnitude=magnitude,
                    threshold=thresholds[prop],
                    passed=passed,
                    expected_pass=expected,
                )
            )
    # Contrast residuals: moment-zero only (other probes use different nuisances).
    cac_suite = {"multivalued_cac": MultivaluedCac(treatments=(0, 1), kappa=(-1.0, 1.0))}
    cac_suite.update(cac_extras)
    for name, cac in cac_suite.items():
        if any(w not in (0, 1) for w in cac.treatments):
            raise ConfigError("built-in designs are binary; contrast must use {0, 1}")
        magnitudes = []
        for design in designs:
            nuis = design.true_cac_nuisances()
            for x in design.points:
                theta = design.theta(x, cac.treatments, cac.kappa)
                magnitudes.append(abs(conditional_mean(cac, x, theta, nuis, design)))
        worst = _worst(magnitudes)
        rows.append(
            CheckRow(
                kind=name,
                prop="moment_zero",
                magnitude=worst,
                threshold=MOMENT_TOL,
                passed=worst <= MOMENT_TOL,
                expected_pass=worst <= MOMENT_TOL if name in informational else True,
            )
        )
    return CheckReport(rows=tuple(rows))
