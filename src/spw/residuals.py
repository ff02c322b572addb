"""Generalized residual family for CATE/CAC/CQR under limited overlap.

Each residual kind pairs a weight on the target parameter with a
non-inverse (or stabilized) weighting of the outcome so that the
conditional mean is zero at the truth without requiring propensity
scores bounded away from 0 and 1. The module also provides exact
moment probes on discrete designs: conditional means by analytic
expectation, Gateaux derivatives by central finite differences, and
a double-robustness report under controlled misspecification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import (
    ConfigError,
    MissingNuisance,
    NonLinearInOutcome,
    NuisanceOutOfRange,
    PerturbationLeavesDomain,
    StabilizerBoundViolated,
)

THETA_TOL = 1e-12


def _require_finite(what: str, *values) -> None:
    # NaN compares false, so it would slip through every range check below.
    # None stands for an optional parameter left unset.
    if not all(v is None or math.isfinite(v) for v in values):
        raise ConfigError(f"{what} must be finite")


# ---------------------------------------------------------------------------
# Nuisance containers
# ---------------------------------------------------------------------------

ScalarFn = Callable[[object], float]


@dataclass(frozen=True)
class NuisanceSet:
    """Nuisance functions for the CATE residual family.

    ``e`` maps a support point to a propensity in (0, 1); ``mu0`` and
    ``mu1`` are conditional response means; ``eta`` is the conditional
    outcome mean E[Y | X]; ``r`` is a stabilizer (in (0, 1)) or a
    binary region indicator, depending on the residual kind.
    """

    e: ScalarFn | None = None
    mu0: ScalarFn | None = None
    mu1: ScalarFn | None = None
    eta: ScalarFn | None = None
    r: ScalarFn | None = None

    def values(self, x, kind: str, *names: str) -> list[float]:
        """The named nuisances at x, in order. A kind's residual needs
        each of them, so a missing one raises ``MissingNuisance``; the
        propensity must lie in (0, 1)."""
        out = []
        for name in names:
            fn = getattr(self, name)
            if fn is None:
                raise MissingNuisance(name, kind)
            v = float(fn(x))
            if name == "e" and not (0.0 < v < 1.0):
                raise NuisanceOutOfRange("e", v, x)
            out.append(v)
        return out

    def replace(self, **kw) -> "NuisanceSet":
        fields = {"e": self.e, "mu0": self.mu0, "mu1": self.mu1, "eta": self.eta, "r": self.r}
        fields.update(kw)
        return NuisanceSet(**fields)


@dataclass(frozen=True)
class CacNuisances:
    """Nuisances for the multivalued contrast residual: phi(w, x) in (0, 1)
    plays the generalized-propensity role and gamma(w, x) the outcome
    regression role."""

    phi: Callable[[int, object], float]
    gamma: Callable[[int, object], float]


@dataclass(frozen=True)
class CqrNuisances:
    """Nuisances for the quantile residual: phi(w, x) in (0, 1) and
    gamma(u, w, x) in [0, 1] (a conditional CDF surrogate)."""

    phi: Callable[[int, object], float]
    gamma: Callable[[float, int, object], float]


# ---------------------------------------------------------------------------
# Residual kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GnpwSpec:
    """Power indices and target-weight coefficients for the GNPW family.

    Constraints: nu1, nu2 >= 0; theta1 + theta2 = 1 and
    theta3 + theta4 = -1 (within 1e-12). The target weight is
    theta1*W + theta2*e + theta3*W*e + theta4*e^2, optionally scaled
    by e^nu1 (1-e)^nu2.
    """

    nu1: float = 0.0
    nu2: float = 0.0
    theta: tuple[float, float, float, float] = (0.0, 1.0, 0.0, -1.0)

    def __post_init__(self):
        _require_finite("GNPW parameters", self.nu1, self.nu2, *self.theta)
        if self.nu1 < 0 or self.nu2 < 0:
            raise ConfigError("GNPW power indices must be nonnegative")
        if len(self.theta) != 4:
            raise ConfigError("GNPW theta needs four coefficients")
        t1, t2, t3, t4 = self.theta
        if abs(t1 + t2 - 1.0) > THETA_TOL or abs(t3 + t4 + 1.0) > THETA_TOL:
            raise ConfigError(
                "GNPW coefficients must satisfy theta1+theta2=1 and theta3+theta4=-1"
            )


@dataclass(frozen=True)
class Gnpw:
    """Doubly robust GNPW residual with nuisances (e, mu0, mu1)."""

    spec: GnpwSpec = GnpwSpec()

    name = "gnpw"

    def value(self, y, w, x, tau, nuis: NuisanceSet) -> float:
        e, m0, m1 = nuis.values(x, self.name, "e", "mu0", "mu1")
        t1, t2, t3, t4 = self.spec.theta
        weight = t1 * w + t2 * e + t3 * w * e + t4 * e * e
        aug = m0 + (t2 + t4 * e) * (m1 - m0)
        pre = e**self.spec.nu1 * (1.0 - e) ** self.spec.nu2
        return pre * (weight * tau - (w - e) * (y - aug))


@dataclass(frozen=True)
class OneSidedControl:
    """W tau - (W - e)(Y - mu0)/(1 - e); valid when e is bounded below 1."""

    name = "one_sided_control"

    def value(self, y, w, x, tau, nuis: NuisanceSet) -> float:
        e, m0 = nuis.values(x, self.name, "e", "mu0")
        return w * tau - (w - e) * (y - m0) / (1.0 - e)


@dataclass(frozen=True)
class OneSidedTreated:
    """(1 - W) tau - (W - e)(Y - mu1)/e; valid when e is bounded above 0."""

    name = "one_sided_treated"

    def value(self, y, w, x, tau, nuis: NuisanceSet) -> float:
        e, m1 = nuis.values(x, self.name, "e", "mu1")
        return (1.0 - w) * tau - (w - e) * (y - m1) / e


@dataclass(frozen=True)
class WeightedAipw:
    """e(1-e)[tau - (mu1 - mu0)] - (W - e)(Y - W mu1 - (1-W) mu0)."""

    name = "weighted_aipw"

    def value(self, y, w, x, tau, nuis: NuisanceSet) -> float:
        e, m0, m1 = nuis.values(x, self.name, "e", "mu0", "mu1")
        return (
            e * (1.0 - e) * tau
            - e * (1.0 - e) * (m1 - m0)
            - (w - e) * (y - w * m1 - (1.0 - w) * m0)
        )


@dataclass(frozen=True)
class StabilizedAipw:
    """AIPW rescaled by a known r(1-r); globally double robust.

    When no stabilizer function is supplied, r = 0.5. ``bound``, if
    given, enforces r(1-r)/(e(1-e)) <= bound at evaluation points.
    """

    bound: float | None = None

    name = "stabilized_aipw"

    def __post_init__(self):
        _require_finite("stabilizer bound", self.bound)

    def value(self, y, w, x, tau, nuis: NuisanceSet) -> float:
        e, m0, m1 = nuis.values(x, self.name, "e", "mu0", "mu1")
        r = 0.5 if nuis.r is None else float(nuis.r(x))
        if not (0.0 < r < 1.0):
            raise NuisanceOutOfRange("r", r, x)
        stab = r * (1.0 - r)
        if self.bound is not None and stab / (e * (1.0 - e)) > self.bound:
            raise StabilizerBoundViolated(stab / (e * (1.0 - e)), self.bound)
        aipw = (w - e) * (y - w * m1 - (1.0 - w) * m0) / (e * (1.0 - e))
        return stab * (tau - (m1 - m0) - aipw)


@dataclass(frozen=True)
class HybridRegion:
    """One-sided residual switched by a known binary region function r:
    r(x) = 1 marks regions handled as one-sided control (e possibly
    near 0), r(x) = 0 as one-sided treated (e possibly near 1)."""

    name = "hybrid_region"

    def value(self, y, w, x, tau, nuis: NuisanceSet) -> float:
        e, m0, m1, r = nuis.values(x, self.name, "e", "mu0", "mu1", "r")
        if r not in (0.0, 1.0):
            raise NuisanceOutOfRange("r", r, x)
        weight = w * r + (1.0 - w) * (1.0 - r)
        stilde = r / (1.0 - e) + (1.0 - r) / e
        return weight * tau - stilde * (w - e) * (y - r * m0 - (1.0 - r) * m1)


@dataclass(frozen=True)
class RobinsonClassic:
    """(W - e)^2 tau - (W - e)(Y - eta) with eta = E[Y | X].

    Neyman orthogonal but not doubly robust: a systematic error in e
    leaves a (e - etilde)^2 tau moment even at the true eta.
    """

    name = "robinson"

    def value(self, y, w, x, tau, nuis: NuisanceSet) -> float:
        e, eta = nuis.values(x, self.name, "e", "eta")
        return (w - e) ** 2 * tau - (w - e) * (y - eta)


@dataclass(frozen=True)
class SrpNoPropensity:
    """Residualization without propensity scores:
    [t1 W + t2 (W-1)] tau - (t1 + t2) Y + t1 mu0 + t2 mu1.

    Mean-zero at the truth but neither orthogonal nor robust to
    nuisance misspecification. Requires (t1, t2) >= 0, not both zero.
    """

    theta1: float
    theta2: float

    name = "srp_no_propensity"

    def __post_init__(self):
        _require_finite("SRP coefficients", self.theta1, self.theta2)
        if self.theta1 < 0 or self.theta2 < 0 or (self.theta1 == 0 and self.theta2 == 0):
            raise ConfigError("SRP coefficients must be nonnegative and not both zero")

    def value(self, y, w, x, tau, nuis: NuisanceSet) -> float:
        m0, m1 = nuis.values(x, self.name, "mu0", "mu1")
        t1, t2 = self.theta1, self.theta2
        return (t1 * w + t2 * (w - 1.0)) * tau - (t1 + t2) * y + t1 * m0 + t2 * m1


@dataclass(frozen=True)
class SrpCustom:
    """User-supplied residual triple (psi1, psi2, psi3), each (x, w) -> R:
    psi1 tau - psi2 Y - psi3. No validity checking is performed beyond
    what the moment probes measure on a design."""

    psi1: Callable[[object, float], float]
    psi2: Callable[[object, float], float]
    psi3: Callable[[object, float], float]

    name = "srp_custom"

    def value(self, y, w, x, tau, nuis: NuisanceSet) -> float:
        return self.psi1(x, w) * tau - self.psi2(x, w) * y - self.psi3(x, w)


@dataclass(frozen=True)
class MultivaluedCac:
    """Stabilized augmented residual for a contrast sum_w kappa_w mu_w
    over a finite treatment subset.

    The default stabilizer is the product of phi(w, x) over the
    contrast's treatments; a custom one may be supplied along with a
    bound M, enforced as stabilizer <= M * prod(phi)."""

    treatments: tuple[int, ...]
    kappa: tuple[float, ...]
    stabilizer: Callable[[object], float] | None = None
    bound: float | None = None

    name = "multivalued_cac"

    def __post_init__(self):
        if len(self.treatments) != len(self.kappa) or not self.treatments:
            raise ConfigError("contrast treatments and kappa must align and be nonempty")
        _require_finite("contrast kappa and bound", *self.kappa, self.bound)

    def value(self, y, w, x, theta, nuis: CacNuisances) -> float:
        phis = {}
        for wt in self.treatments:
            p = float(nuis.phi(wt, x))
            if not (0.0 < p < 1.0):
                raise NuisanceOutOfRange("phi", p, (wt, x))
            phis[wt] = p
        prod_phi = math.prod(phis.values())
        stab = prod_phi if self.stabilizer is None else float(self.stabilizer(x))
        if self.bound is not None and stab > self.bound * prod_phi * (1.0 + 1e-12):
            raise StabilizerBoundViolated(stab, self.bound * prod_phi)
        acc = 0.0
        for wt, kap in zip(self.treatments, self.kappa):
            g = float(nuis.gamma(wt, x))
            ind = 1.0 if w == wt else 0.0
            acc += kap * (g + ind / phis[wt] * (y - g))
        return stab * (acc - theta)


@dataclass(frozen=True)
class MultivaluedCqr:
    """Quantile-level residual for a single treatment arm:
    I{W = w}[I{Y <= q} - gamma(q; w, X)] + phi(w, X)[gamma(q; w, X) - v]."""

    v: float
    w: int

    name = "multivalued_cqr"

    def __post_init__(self):
        if not (0.0 < self.v < 1.0):
            raise ConfigError("quantile level must lie in (0, 1)")

    def value(self, y, w, x, q, nuis: CqrNuisances) -> float:
        phi = float(nuis.phi(self.w, x))
        if not (0.0 < phi < 1.0):
            raise NuisanceOutOfRange("phi", phi, (self.w, x))
        g = float(nuis.gamma(q, self.w, x))
        if not (0.0 <= g <= 1.0):
            raise NuisanceOutOfRange("gamma", g, (self.w, x))
        ind = 1.0 if w == self.w else 0.0
        below = 1.0 if y <= q else 0.0
        return ind * (below - g) + phi * (g - self.v)


MEAN_KINDS = (
    Gnpw,
    OneSidedControl,
    OneSidedTreated,
    WeightedAipw,
    StabilizedAipw,
    HybridRegion,
    RobinsonClassic,
    SrpNoPropensity,
    SrpCustom,
)

ResidualKind = object  # any of the kinds above, plus MultivaluedCac / MultivaluedCqr


_REQUIRED = object()


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _label(value) -> int:
    # int() would truncate 1.7, overflow on inf and read true as 1.
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer treatment label")
    return int(value)


def _labels(values) -> tuple[int, ...]:
    return tuple(_label(v) for v in values)


def _optional_float(value) -> float | None:
    return None if value is None else float(value)


# Wire tag -> (class, its (field, convert, default) entries). A field whose
# default is None is left out of the JSON form while it is None. Gnpw's
# fields are those of its GnpwSpec.
_BOUND = ("bound", _optional_float, None)
_WIRE = {
    cls.name: (cls, fields)
    for cls, fields in (
        (Gnpw, (("nu1", float, 0.0), ("nu2", float, 0.0), ("theta", _floats, GnpwSpec.theta))),
        (OneSidedControl, ()),
        (OneSidedTreated, ()),
        (WeightedAipw, ()),
        (StabilizedAipw, (_BOUND,)),
        (HybridRegion, ()),
        (RobinsonClassic, ()),
        (SrpNoPropensity, (("theta1", float, _REQUIRED), ("theta2", float, _REQUIRED))),
        (MultivaluedCac, (("treatments", _labels, _REQUIRED), ("kappa", _floats, _REQUIRED), _BOUND)),
        (MultivaluedCqr, (("v", float, _REQUIRED), ("w", _label, _REQUIRED))),
    )
}


def residual_from_json(obj: Mapping) -> ResidualKind:
    """Build a residual kind from its JSON wire form.

    The field names are part of the configuration contract, e.g.
    {"kind": "gnpw", "nu1": 0, "nu2": 0, "theta": [1, 0, -2, 1]}.
    Function-valued members (custom stabilizers, SRP triples) have no
    JSON form and must be constructed in code. A missing, malformed,
    non-finite or unknown field raises ``ConfigError`` naming the kind
    and the field.
    """
    tag = obj.get("kind") if isinstance(obj, Mapping) else None
    if not isinstance(tag, str):
        raise ConfigError("residual JSON must carry a 'kind' field")
    if tag not in _WIRE:
        raise ConfigError(f"unknown residual kind {tag!r}")
    cls, fields = _WIRE[tag]
    known = {name for name, _, _ in fields}
    for name in obj:
        if name != "kind" and name not in known:
            raise ConfigError(f"residual kind {tag!r} has no field {name!r}")
    kwargs = {}
    for name, convert, default in fields:
        if name not in obj:
            if default is _REQUIRED:
                raise ConfigError(f"residual kind {tag!r} needs the field {name!r}")
            kwargs[name] = default
            continue
        try:
            kwargs[name] = convert(obj[name])
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"residual kind {tag!r}: cannot read field {name!r}: {exc}"
            ) from None
    return Gnpw(GnpwSpec(**kwargs)) if cls is Gnpw else cls(**kwargs)


def residual_to_json(kind: ResidualKind) -> dict:
    """Inverse of residual_from_json for kinds without function members."""
    cls, fields = _WIRE.get(getattr(kind, "name", None), (None, ()))
    if cls is None or not isinstance(kind, cls):
        raise ConfigError(f"kind {type(kind).__name__} has no JSON form")
    if getattr(kind, "stabilizer", None) is not None:
        raise ConfigError("custom stabilizers have no JSON form")
    source = kind.spec if cls is Gnpw else kind
    out = {"kind": cls.name}
    for name, _, _ in fields:
        value = getattr(source, name)
        if value is not None:
            out[name] = list(value) if isinstance(value, tuple) else value
    return out


# ---------------------------------------------------------------------------
# Discrete designs and exact moment probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteDesign:
    """Analytic test fixture: a finite-support covariate with known
    per-point treatment probabilities and response means.

    ``lam[i][j]`` is P{W = treatments[j] | X = points[i]}; ``mu[i][j]``
    the matching response mean. ``outcome_dists``, when present, holds
    per (point, treatment) atom distributions for quantile probes.
    """

    points: tuple
    masses: tuple[float, ...]
    treatments: tuple[int, ...]
    lam: tuple[tuple[float, ...], ...]
    mu: tuple[tuple[float, ...], ...]
    outcome_dists: Mapping[tuple[int, object], tuple[tuple[float, ...], tuple[float, ...]]] | None = None

    def __post_init__(self):
        n, arms = len(self.points), len(self.treatments)
        if len(set(self.points)) != n or len(set(self.treatments)) != arms:
            raise ConfigError("design points and treatments must be distinct")
        if not len(self.masses) == len(self.lam) == len(self.mu) == n:
            raise ConfigError(f"masses, lam and mu need one row per point ({n})")
        if any(len(row) != arms for row in (*self.lam, *self.mu)):
            raise ConfigError(f"each lam and mu row needs one entry per treatment ({arms})")
        _require_finite("support masses", *self.masses)
        _require_finite("response means", *(m for row in self.mu for m in row))
        if any(m < 0.0 for m in self.masses) or abs(math.fsum(self.masses) - 1.0) > 1e-12:
            raise ConfigError("support masses must be nonnegative and sum to 1")
        for row in self.lam:
            if abs(math.fsum(row) - 1.0) > 1e-12 or any(not (0.0 < p < 1.0) for p in row):
                raise ConfigError("treatment probabilities must lie in (0,1) and sum to 1")

    @classmethod
    def binary(cls, points, masses, e, mu0, mu1, outcome_dists=None) -> "DiscreteDesign":
        lam = tuple((1.0 - ei, ei) for ei in e)
        mu = tuple((m0, m1) for m0, m1 in zip(mu0, mu1))
        return cls(tuple(points), tuple(masses), (0, 1), lam, mu, outcome_dists)

    def _idx(self, x) -> int:
        try:
            return self.points.index(x)
        except ValueError:
            raise ConfigError(f"design has no point {x!r}") from None

    def _cell(self, table, x, w: int) -> float:
        try:
            return table[self.points.index(x)][self.treatments.index(w)]
        except ValueError:
            self._idx(x)  # raises if the point is the unknown one
            raise ConfigError(f"design has no treatment {w!r}") from None

    def lam_at(self, x, w: int) -> float:
        return self._cell(self.lam, x, w)

    def mu_at(self, x, w: int) -> float:
        return self._cell(self.mu, x, w)

    def e(self, x) -> float:
        return self.lam_at(x, 1)

    def mu0(self, x) -> float:
        return self.mu_at(x, 0)

    def mu1(self, x) -> float:
        return self.mu_at(x, 1)

    def tau(self, x) -> float:
        return self.mu1(x) - self.mu0(x)

    def eta(self, x) -> float:
        i = self._idx(x)
        return math.fsum(l * m for l, m in zip(self.lam[i], self.mu[i]))

    def theta(self, x, treatments, kappa) -> float:
        return math.fsum(k * self.mu_at(x, w) for w, k in zip(treatments, kappa))

    def cdf(self, u: float, w: int, x) -> float:
        if self.outcome_dists is None:
            raise ConfigError("design carries no outcome distributions")
        values, probs = self.outcome_dists[(w, x)]
        return math.fsum(p for v, p in zip(values, probs) if v <= u)

    def quantile(self, v: float, w: int, x) -> float:
        values, probs = self.outcome_dists[(w, x)]
        order = np.argsort(values)
        acc = 0.0
        for j in order:
            acc += probs[j]
            if acc >= v - 1e-15:
                return values[j]
        return values[order[-1]]

    def true_nuisances(self, r: ScalarFn | None = None) -> NuisanceSet:
        return NuisanceSet(e=self.e, mu0=self.mu0, mu1=self.mu1, eta=self.eta, r=r)

    def true_cac_nuisances(self) -> CacNuisances:
        return CacNuisances(phi=lambda w, x: self.lam_at(x, w), gamma=lambda w, x: self.mu_at(x, w))

    def true_cqr_nuisances(self) -> CqrNuisances:
        return CqrNuisances(
            phi=lambda w, x: self.lam_at(x, w),
            gamma=lambda u, w, x: self.cdf(u, w, x),
        )


def conditional_mean(kind, x, tau_tilde: float, nuis, design: DiscreteDesign) -> float:
    """Exact E[residual | X = x] under the design's true law.

    All mean-based kinds are linear in the outcome, so the expectation
    over Y collapses to the per-arm response mean; the quantile kind
    uses the design's per-arm outcome CDF instead.
    """
    if isinstance(kind, MultivaluedCqr):
        phi = float(nuis.phi(kind.w, x))
        g = float(nuis.gamma(tau_tilde, kind.w, x))
        total = []
        for w in design.treatments:
            indicator_part = design.cdf(tau_tilde, kind.w, x) - g if w == kind.w else 0.0
            total.append(design.lam_at(x, w) * (indicator_part + phi * (g - kind.v)))
        return math.fsum(total)
    if isinstance(kind, MultivaluedCac) or isinstance(kind, MEAN_KINDS):
        terms = []
        for w in design.treatments:
            y = design.mu_at(x, w)
            terms.append(design.lam_at(x, w) * kind.value(y, w, x, tau_tilde, nuis))
        return math.fsum(terms)
    raise NonLinearInOutcome(type(kind).__name__)


def srp_conditions(kind: SrpCustom, x, design: DiscreteDesign) -> tuple[float, float]:
    """Evaluate a custom triple's defining conditions at one support point.

    Returns (E[psi1 | X = x], defect) where the defect is
    E[psi1 | X] tau(x) - E[psi2 mu(W, X) | X] - E[psi3 | X]. A valid
    triple has a nonzero first component and a zero second one.
    """
    lam = [design.lam_at(x, w) for w in design.treatments]
    e_psi1 = math.fsum(l * kind.psi1(x, w) for l, w in zip(lam, design.treatments))
    e_psi2_mu = math.fsum(
        l * kind.psi2(x, w) * design.mu_at(x, w) for l, w in zip(lam, design.treatments)
    )
    e_psi3 = math.fsum(l * kind.psi3(x, w) for l, w in zip(lam, design.treatments))
    return e_psi1, e_psi1 * design.tau(x) - e_psi2_mu - e_psi3


@dataclass(frozen=True)
class Perturbation:
    """Direction for a Gateaux derivative; components default to zero.

    Each component is a constant shift or a function over support
    points, added to the corresponding nuisance as h * direction.
    """

    h_e: float | ScalarFn = 0.0
    h_mu0: float | ScalarFn = 0.0
    h_mu1: float | ScalarFn = 0.0
    h_eta: float | ScalarFn = 0.0

    def _component(self, c, x) -> float:
        return float(c(x)) if callable(c) else float(c)

    def shifted(self, nuis: NuisanceSet, t: float) -> NuisanceSet:
        def shift(fn, comp):
            if fn is None:
                return None
            return lambda x, fn=fn, comp=comp: float(fn(x)) + t * self._component(comp, x)

        return nuis.replace(
            e=shift(nuis.e, self.h_e),
            mu0=shift(nuis.mu0, self.h_mu0),
            mu1=shift(nuis.mu1, self.h_mu1),
            eta=shift(nuis.eta, self.h_eta),
        )


def gateaux_derivative(
    kind,
    x,
    nuis: NuisanceSet,
    direction: Perturbation,
    design: DiscreteDesign,
    h: float = 1e-4,
) -> float:
    """Central finite-difference d/dt E[residual | X = x] at t = 0.

    For Neyman orthogonal kinds the linear term in t vanishes, so the
    estimate is O(h^2); non-orthogonal kinds produce the (nonzero)
    derivative up to O(h^2) error.
    """
    if not (0.0 < h <= 1e-2):
        raise ConfigError("finite-difference step must lie in (0, 1e-2]")
    if nuis.e is not None:
        base = float(nuis.e(x))
        for t in (h, -h):
            shifted = base + t * direction._component(direction.h_e, x)
            if not (0.0 < shifted < 1.0):
                raise PerturbationLeavesDomain(shifted)
    tau_true = design.tau(x)
    e_plus = conditional_mean(kind, x, tau_true, direction.shifted(nuis, h), design)
    e_minus = conditional_mean(kind, x, tau_true, direction.shifted(nuis, -h), design)
    return (e_plus - e_minus) / (2.0 * h)


@dataclass(frozen=True, eq=False)
class DrProbeReport:
    """Conditional means per support point under controlled
    misspecification of the nuisances, at a common hypothesized target.

    ``reference`` uses the true nuisances. Basic double robustness
    requires the two single-misspecification columns to vanish exactly
    when the hypothesized target is the truth; global double
    robustness additionally makes them equal the reference column at
    every hypothesized target. ``both_wrong`` is reported for
    diagnostics but takes part in neither property.
    """

    points: tuple
    reference: np.ndarray
    true_e_wrong_mu: np.ndarray
    wrong_e_true_mu: np.ndarray
    both_wrong: np.ndarray


def dr_probe(
    kind,
    design: DiscreteDesign,
    tau_tilde: float | ScalarFn,
    wrong_e: ScalarFn,
    wrong_mu: tuple[ScalarFn, ScalarFn],
    r: ScalarFn | None = None,
) -> DrProbeReport:
    """Evaluate the misspecification moments of a residual kind.

    ``wrong_mu`` supplies (mu0, mu1) substitutes; for the classic
    Robinson kind the corresponding wrong eta is assembled from them
    at the true propensity.
    """
    truth = design.true_nuisances(r=r)
    wrong_mu0, wrong_mu1 = wrong_mu

    def wrong_eta(x):
        e = design.e(x)
        return e * wrong_mu1(x) + (1.0 - e) * wrong_mu0(x)

    mu_subst = {"mu0": wrong_mu0, "mu1": wrong_mu1, "eta": wrong_eta}
    cols = {"reference": truth}
    cols["true_e_wrong_mu"] = truth.replace(**mu_subst)
    cols["wrong_e_true_mu"] = truth.replace(e=wrong_e)
    cols["both_wrong"] = truth.replace(e=wrong_e, **mu_subst)

    tt = tau_tilde if callable(tau_tilde) else (lambda x, v=tau_tilde: v)
    out = {}
    for name, nu in cols.items():
        out[name] = np.array(
            [conditional_mean(kind, x, tt(x), nu, design) for x in design.points]
        )
    return DrProbeReport(points=design.points, **out)
