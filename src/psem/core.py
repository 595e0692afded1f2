"""Principal-stratification effect-modification estimators.

Estimands: within the early-always-survivor (EAS) stratum, the per-stratum
risks risk_z(s1, s0) = P(Y(z)=1 | S*(1)=s1, S*(0)=s0, no early event under
either arm), the stratum prevalences p(s1, s0), and contrasts
CEP(s1, s0) = h(risk_1(s1,s0), risk_0(s1,s0)).

Four assumption scenarios are supported, each consuming its own set of
fixed log-odds-ratio sensitivity parameters:

* ``A``         equal early clinical risk, control-arm marker varies,
                marker monotonicity (``beta0``, ``beta1_reversed``);
* ``B``         equal early clinical risk, constant control-arm marker
                (``beta0``);
* ``C_protect`` early no-harm monotonicity (active arm never causes the
                early event), constant control-arm marker
                (``beta0``, ``beta2``, ``beta3``, ``beta4``);
* ``C_harm``    the reversed monotonicity direction (active arm never
                prevents the early event), constant control-arm marker
                (``beta0``, ``beta1_marginal``).

``beta1_reversed`` and ``beta1_marginal`` are distinct knobs that happen to
share a subscript in common notation: the first is the selection parameter
of the reversed-direction always-survivor solve in scenario A, the second
the marginal mixing parameter of scenario C_harm. They are never
interchangeable and are therefore separate configuration keys.

Every fit stacks its estimating functions (identified means, IPW means,
odds-ratio constraints, mixture constraints, derived quantities) into one
system and reports the joint empirical sandwich covariance, so delta-method
standard errors for any contrast come from a single consistent object.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Mapping

import numpy as np

from .errors import (ConfigError, DataError, EstimationError,
                     IncompatibleSensitivityError, OrderingError)
from .mathutil import expit, fisher_exact_two_sided, solve_logit_mixture
from .tables import S_NEG, S_POS, S_UNDEF, summarize
from .weights import WeightedRecords, fit_missingness


class Scenario(enum.Enum):
    A = "A"
    B = "B"
    C_PROTECT = "C_protect"
    C_HARM = "C_harm"

    @property
    def sensitivity_keys(self) -> tuple[str, ...]:
        return _SENSITIVITY_KEYS[self]


_SENSITIVITY_KEYS = {
    Scenario.A: ("beta0", "beta1_reversed"),
    Scenario.B: ("beta0",),
    Scenario.C_PROTECT: ("beta0", "beta2", "beta3", "beta4"),
    Scenario.C_HARM: ("beta0", "beta1_marginal"),
}


@dataclass(frozen=True)
class SensitivityPoint:
    """One point in sensitivity-parameter space; only scenario-legal keys."""

    scenario: Scenario
    values: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        legal = set(self.scenario.sensitivity_keys)
        illegal = set(self.values) - legal
        if illegal:
            raise ConfigError(
                f"sensitivity keys {sorted(illegal)} are not legal for "
                f"scenario {self.scenario.value}; legal keys: {sorted(legal)}")
        object.__setattr__(self, "values", dict(self.values))

    def get(self, key: str) -> float:
        return float(self.values.get(key, 0.0))

    def as_dict(self) -> dict[str, float]:
        return {k: self.get(k) for k in self.scenario.sensitivity_keys}


class Direction(enum.Enum):
    STANDARD_MONOTONE = "standard"   # P(S(1) <= S(0)) = 1
    REVERSED = "reversed"            # P(S(1) >= S(0)) = 1


# ---------------------------------------------------------------------------
# stacked-system plumbing

FD_REL_STEP = 1e-6


def _fd_step(scale: float) -> float:
    """Step of size about FD_REL_STEP * scale, rounded to a power of two so
    that x +/- h and the difference (x+h) - (x-h) stay exact for linear
    maps."""
    return 2.0 ** round(math.log2(FD_REL_STEP * max(1.0, scale)))


def _fd_jacobian(f: Callable[[np.ndarray], np.ndarray], theta: np.ndarray) -> np.ndarray:
    """Central-difference (m x p) Jacobian of f: R^p -> R^m, step
    h_j ~ FD_REL_STEP * max(1, |theta_j|)."""
    cols = []
    for j in range(theta.size):
        h = _fd_step(abs(theta[j]))
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        cols.append((f(tp) - f(tm)) / (tp[j] - tm[j]))
    return np.array(cols).reshape(theta.size, -1).T


def delta_method(g: Callable[[np.ndarray], float], theta_hat, cov) -> tuple[float, float]:
    """Value and variance of a smooth scalar map of theta_hat.

    The gradient is the one-row _fd_jacobian of g, with the same relative
    step as the stacked-system bread; variance = grad^T cov grad, floored
    at zero against round-off.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    cov = np.asarray(cov, dtype=float)
    value = float(g(theta_hat))
    if not math.isfinite(value):
        raise ValueError("g is not finite at theta_hat")
    grad = _fd_jacobian(lambda t: float(g(t)), theta_hat)[0]
    if not np.isfinite(grad).all():
        raise ValueError("g is not finite in a neighborhood of theta_hat")
    var = float(grad @ cov @ grad)
    return value, max(var, 0.0)


class _Stack:
    """Named estimating-function rows over the dataset cells.

    Rows are either per-cell functions (length-ncells arrays) or
    deterministic constraints (scalars, zero at the solution). Solutions
    are computed blockwise by the scenario builders; this class assembles
    the joint sandwich covariance and verifies the stacked residual. With
    cell counts c_i, n = sum_i c_i and per-cell rows psi_i(theta):

        A = d/dtheta (1/n) sum_i c_i psi_i,   B = (1/n) sum_i c_i psi_i psi_i^T,
        cov(theta_hat) = A^{-1} B A^{-T} / n.

    Constraint rows add nothing to B at the solution while A carries their
    Jacobian, which gives derived parameters delta-method-consistent
    variances inside one stacked system (Stefanski and Boos, 2002).
    """

    def __init__(self, cells):
        self.cells = cells
        self.names: list[str] = []
        self.fns: list[Callable] = []
        self.sol: dict[str, float] = {}

    def add(self, name: str, value: float, fn: Callable) -> None:
        if name in self.sol:
            raise ValueError(f"duplicate parameter {name}")
        self.names.append(name)
        self.fns.append(fn)
        self.sol[name] = float(value)

    def copy(self) -> "_Stack":
        new = _Stack(self.cells)
        new.names, new.fns, new.sol = list(self.names), list(self.fns), dict(self.sol)
        return new

    def theta(self) -> np.ndarray:
        return np.array([self.sol[n] for n in self.names])

    def contribs(self, theta: np.ndarray) -> np.ndarray:
        d = dict(zip(self.names, theta))
        ncells = len(self.cells.count)
        cols = np.empty((ncells, len(self.names)))
        for j, fn in enumerate(self.fns):
            cols[:, j] = fn(d)
        return cols

    def sandwich(self) -> tuple[np.ndarray, np.ndarray]:
        count = self.cells.count
        n = float(count.sum())
        theta = self.theta()
        u = self.contribs(theta)
        resid = float(np.max(np.abs(count @ u / n)))
        if resid > 1e-8:
            raise EstimationError(
                f"stacked residual {resid:.3e} exceeds tolerance; the "
                "blockwise solution is inconsistent", theta=theta, residual=resid)
        meat = (u * count[:, None]).T @ u / n
        bread = _fd_jacobian(lambda t: count @ self.contribs(t) / n, theta)
        try:
            bread_inv = np.linalg.inv(bread)
        except np.linalg.LinAlgError:
            raise EstimationError("singular bread matrix in the stacked fit",
                                  theta=theta) from None
        cov = bread_inv @ meat @ bread_inv.T / n
        return theta, 0.5 * (cov + cov.T)


def _mean(st: "_Stack", name: str, sel, resp, what: str) -> float:
    """Weighted mean ``name`` of resp over the cells, selection weights
    sel >= 0. Adds its row sel * (resp - theta) and returns the value."""
    count = st.cells.count
    denom = float(np.sum(count * sel))
    if denom <= 0.0:
        raise EstimationError(f"empty stratum: no observations for {what}")
    value = float(np.sum(count * sel * resp) / denom)
    st.add(name, value, lambda d: sel * (resp - d[name]))
    return value


def _p10(st: "_Stack", others: tuple[str, ...]) -> float:
    """Mixing share p(1,0) = 1 - sum of the shares ``others``, subtracted in
    the order given. Checks it is positive, adds its row, returns it."""
    def share(v):
        acc = 1.0
        for o in others:
            acc = acc - v[o]
        return acc

    value = share(st.sol)
    if value <= 0.0:
        raise EstimationError(
            f"estimated p(1,0) = {value:.6g} is not positive; the always-"
            "survivor effect-modification stratum is empty in these data")
    st.add("p10", value, lambda d: share(d) - d["p10"])
    return value


def _split(st: "_Stack", a: str, b: str, target: str, w: str, beta: float,
           w_b: str | None = None) -> tuple[float, float]:
    """Odds-ratio split of the mixture ``target`` = w a + (1 - w) b, with
    odds(a)/odds(b) = exp(beta) as a product-form row (polynomial, so
    finite-difference safe at boundary risks). ``w_b`` names b's weight
    where it is a parameter of its own. Adds both rows; returns (a, b)."""
    va, vb = solve_logit_mixture(st.sol[target], st.sol[w], beta)
    eb = math.exp(beta)
    st.add(a, va, lambda d: d[a] * (1.0 - d[b]) - eb * d[b] * (1.0 - d[a]))
    st.add(b, vb, (lambda d: d[target] - d[w] * d[a] - (1 - d[w]) * d[b])
           if w_b is None else (lambda d: d[target] - d[w] * d[a] - d[w_b] * d[b]))
    return va, vb


def _selection(st: "_Stack", alpha: str, out: str, lo: str, hi: str, q: str,
               beta: float) -> tuple[float, float]:
    """Logistic selection solve: ``alpha`` solves the margin identity
    lo = hi ((1-q) expit(alpha) + q expit(alpha+beta)) and
    ``out`` = expit(alpha+beta) q hi / lo. Adds both rows; returns them."""
    rho = st.sol[lo] / st.sol[hi]
    w1, w0 = solve_logit_mixture(rho, st.sol[q], beta)
    a, adjusted = math.log(w0 / (1.0 - w0)), w1 * st.sol[q] / rho
    st.add(alpha, a, lambda d: d[lo] - d[hi] * ((1 - d[q]) * expit(d[alpha])
                                                + d[q] * expit(d[alpha] + beta)))
    st.add(out, adjusted,
           lambda d: d[out] * d[lo] - expit(d[alpha] + beta) * d[q] * d[hi])
    return a, adjusted


@functools.cache
def _remainder_names(z: int, strata: tuple[str, ...]):
    return f"risk{z}", f"risk{z}_10", tuple((f"p{s}", f"risk{z}_{s}") for s in strata)


def _remainder(st: "_Stack", z: int, strata: tuple[str, ...], context: str) -> None:
    """Mixture-identity remainder risk_z(1,0) = (risk_z - sum_s p_s
    risk_z(s)) / p(1,0) over the other ``strata``, subtracted in the order
    given. Checks it lies in [0, 1] and adds its row."""
    total, out, terms = _remainder_names(z, strata)
    value = st.sol[total]
    for p, r in terms:
        value = value - st.sol[p] * st.sol[r]
    value = value / st.sol["p10"]
    _check_unit_interval(out, value, context)

    def row(d):
        acc = d[total]
        for p, r in terms:
            acc = acc - d[p] * d[r]
        return acc - d["p10"] * d[out]

    st.add(out, value, row)


def _features(cells):
    """Common per-cell selectors; marker weight m is 1/pi on measured
    survivor cells and 0 on unmeasured ones (IPW drop-and-reweight)."""
    z = cells.z.astype(float)
    yt = cells.yt.astype(float)
    surv = 1.0 - yt
    measured = (cells.s == S_NEG) | (cells.s == S_POS)
    m = np.where(measured, cells.w, 0.0) * surv
    return SimpleNamespace(
        z=z, surv=surv, y=cells.y.astype(float),
        neg=(cells.s == S_NEG).astype(float),
        pos=(cells.s == S_POS).astype(float),
        m=m,
    )


def _opening(weighted: WeightedRecords, build: Callable):
    """(stack copy, selectors) of the beta-free opening block ``build(weighted)``.

    The block is solved once per dataset and cached on ``weighted``, so every
    fit of that dataset, point-only or with covariance, continues from the
    same solved rows and a grid point pays only for its mixture solves. A
    block that raises is not cached: each fit raises it again.
    """
    blocks = weighted.fit_blocks
    if build not in blocks:
        blocks[build] = build(weighted)
    st, selectors = blocks[build]
    return st.copy(), selectors


def _check_unit_interval(name: str, value: float, context: str) -> None:
    if not -1e-12 <= value <= 1.0 + 1e-12:
        raise IncompatibleSensitivityError(
            f"derived {name} = {value:.6g} lies outside [0, 1]; the "
            f"sensitivity parameters are incompatible with the data ({context})")


def _finalize(st: "_Stack", with_cov: bool, report: list[str] | None = None):
    """Extract (names, theta, cov) from a solved stack, optionally skipping
    the sandwich (point-estimate-only path used inside grid sweeps)."""
    if with_cov:
        theta, cov = st.sandwich()
    else:
        theta, cov = st.theta(), None
    if report is None:
        return tuple(st.names), theta, cov
    idx = [st.names.index(nm) for nm in report]
    sub = cov[np.ix_(idx, idx)] if cov is not None else None
    return tuple(report), theta[idx], sub


# ---------------------------------------------------------------------------
# fitted-result containers


@dataclass
class RiskEstimates:
    """Fitted risks and mixing proportions with their joint covariance.

    ``names`` indexes both ``theta`` and ``cov``. Core names shared by all
    scenarios: risk1, risk0, p00, p10, risk1_00, risk1_10, risk0_00,
    risk0_10; scenario A adds p11, risk1_11, risk0_11; scenario C_protect
    adds its early-protected intermediates.
    """

    scenario: Scenario
    sensitivity: SensitivityPoint
    names: tuple[str, ...]
    theta: np.ndarray
    cov: np.ndarray | None
    n: float

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"{name!r} not reported by scenario "
                           f"{self.scenario.value}") from None

    def value(self, name: str) -> float:
        return float(self.theta[self.index(name)])

    def se(self, name: str) -> float:
        if self.cov is None:
            raise EstimationError("covariance was not computed for this fit")
        i = self.index(name)
        return math.sqrt(max(float(self.cov[i, i]), 0.0))

    def has(self, name: str) -> bool:
        return name in self.names

    def as_dict(self) -> dict[str, float]:
        return {n: float(v) for n, v in zip(self.names, self.theta)}

    def mixing_residual(self) -> float:
        """Largest violation of risk_z = sum_s p(s) risk_z(s) over z."""
        worst = 0.0
        p11 = self.value("p11") if self.has("p11") else 0.0
        for z in (0, 1):
            mix = (self.value("p00") * self.value(f"risk{z}_00")
                   + self.value("p10") * self.value(f"risk{z}_10"))
            if self.has("p11"):
                mix += p11 * self.value(f"risk{z}_11")
            worst = max(worst, abs(self.value(f"risk{z}") - mix))
        return worst


class Contrast(enum.Enum):
    ADDITIVE = "additive"   # h(x, y) = x - y
    VE = "ve"               # h(x, y) = 1 - x/y
    LOG_RR = "log_rr"       # h(x, y) = log(x/y)

    def apply(self, x: float, y: float) -> float:
        if self is Contrast.ADDITIVE:
            return x - y
        if y <= 0.0:
            raise EstimationError(
                f"{self.value} contrast undefined: control risk {y} is not "
                "positive (zero-event stratum)")
        if self is Contrast.VE:
            return 1.0 - x / y
        if x <= 0.0:
            raise EstimationError(
                f"log relative risk undefined: active risk {x} is not positive")
        return math.log(x / y)


@dataclass
class CepResult:
    contrast: Contrast
    values: dict[str, float]        # keys "00", "10" and, scenario A, "11"
    ses: dict[str, float]
    mu: float                       # CEP(1,0) - CEP(0,0)
    mu_se: float
    sensitivity: SensitivityPoint

    def get(self, target: str) -> tuple[float, float]:
        """(value, standard error) of "cep_00", "cep_10", "cep_11" or "mu"."""
        if target == "mu":
            return self.mu, self.mu_se
        s = target.removeprefix("cep_")
        return self.values[s], self.ses[s]


def cep(estimates: RiskEstimates, contrast: Contrast | str) -> CepResult:
    """Per-stratum contrasts of the fitted risks with delta-method errors.

    mu = CEP(1,0) - CEP(0,0) is computed jointly, so its standard error
    carries all covariances among the four risks involved.
    """
    if isinstance(contrast, str):
        contrast = Contrast(contrast.lower())
    if estimates.cov is None:
        raise EstimationError("contrast errors need a fit with covariance")
    strata = ["00", "10"] + (["11"] if estimates.has("risk1_11") else [])
    values, ses = {}, {}
    for s in strata:
        i1, i0 = estimates.index(f"risk1_{s}"), estimates.index(f"risk0_{s}")

        def g(t, i1=i1, i0=i0):
            return contrast.apply(float(t[i1]), float(t[i0]))

        val, var = delta_method(g, estimates.theta, estimates.cov)
        values[s], ses[s] = val, math.sqrt(max(var, 0.0))

    idx = [estimates.index(f"risk{z}_{s}") for s in ("10", "00") for z in (1, 0)]

    def g_mu(t):
        return (contrast.apply(float(t[idx[0]]), float(t[idx[1]]))
                - contrast.apply(float(t[idx[2]]), float(t[idx[3]])))

    mu, mu_var = delta_method(g_mu, estimates.theta, estimates.cov)
    return CepResult(contrast=contrast, values=values, ses=ses,
                     mu=mu, mu_se=math.sqrt(max(mu_var, 0.0)),
                     sensitivity=estimates.sensitivity)


# ---------------------------------------------------------------------------
# identified quantities


def estimate_identified(weighted: WeightedRecords,
                        scenario: Scenario) -> RiskEstimates:
    """Nonparametrically identified pieces under equal early clinical risk:
    per-arm survivor risks and the IPW mixing proportions."""
    if scenario not in (Scenario.A, Scenario.B):
        raise ConfigError("risk_z and the mixing proportions are directly "
                          "identified only in scenarios A and B")
    st, f = _opening(weighted, _identified)
    point = SensitivityPoint(scenario, {})
    if scenario is Scenario.A:
        _mean(st, "p11", (1 - f.z) * f.m, f.pos, "measured arm-0 survivor markers")
        _p10(st, ("p00", "p11"))
    else:
        _p10(st, ("p00",))
    return RiskEstimates(point.scenario, point, *_finalize(st, True), st.cells.n)


# ---------------------------------------------------------------------------
# the always-survivor estimator under a logistic selection-bias model


@dataclass
class SaceFit:
    """Two always-stratum outcome means and their 2x2 covariance."""
    p11_treated: float
    p11_control: float
    cov: np.ndarray
    alpha: float


def _cell_s_values(cells, s_definition):
    """Evaluate a user intermediate-state definition per cell.

    The definition receives a view with fields z, y_tau, marker (0/1 or
    None when unavailable) and y; returning None means the marker is needed
    but unavailable. Cells whose state is computable without the marker get
    weight 1; marker-dependent cells get the IPW weight (0 if unmeasured).
    """
    s_vals = np.zeros(len(cells.count))
    m_vals = np.zeros(len(cells.count))
    for i in range(len(cells.count)):
        marker = {S_NEG: 0, S_POS: 1}.get(int(cells.s[i]))
        view = SimpleNamespace(z=int(cells.z[i]), y_tau=int(cells.yt[i]),
                               marker=None, y=int(cells.y[i]))
        blind = s_definition(view)
        if blind is not None:
            s_vals[i], m_vals[i] = float(blind), 1.0
            continue
        if marker is None:
            if cells.s[i] == S_UNDEF:
                raise DataError(
                    "the intermediate-state definition must be computable "
                    "for early-event records (their marker never exists)")
            s_vals[i], m_vals[i] = 0.0, 0.0   # unmeasured: dropped, reweighted
            continue
        view.marker = marker
        val = s_definition(view)
        if val not in (0, 1):
            raise DataError(f"intermediate state must be 0 or 1, got {val!r}")
        s_vals[i], m_vals[i] = float(val), float(cells.w[i])
    return s_vals, m_vals


def selection_sace(weighted: WeightedRecords, s_definition, beta: float,
                   direction: Direction = Direction.STANDARD_MONOTONE,
                   ordering_label: str = "the survivor ordering") -> SaceFit:
    """Always-stratum outcome means under a logistic selection-bias model.

    With intermediate state S defined by ``s_definition`` and monotonicity
    P(S(1) <= S(0)) = 1 (``STANDARD_MONOTONE``), P(Y(1)=1 | S(1)=S(0)=1) is
    the observed mean among treated S=1 and P(Y(0)=1 | S(1)=S(0)=1) is
    recovered through the selection model
    P(S(1)=1 | S(0)=1, Y(0)=y) = expit(alpha + beta*y) with log odds ratio
    ``beta`` fixed by the user and alpha solved from the S margins
    (Jemiai et al., 2007 parameterization). ``REVERSED`` swaps the roles of
    the arms. beta = 0 is the no-selection-bias model.

    Requires the supporting ordering P(S(1)=1) < P(S(0)=1) (reversed:
    flipped); violations raise OrderingError naming ``ordering_label``.
    """
    cells = weighted.cells
    f = _features(cells)
    s_vals, m_vals = _cell_s_values(cells, s_definition)
    st = _Stack(cells)

    _mean(st, "pS1", f.z * m_vals, s_vals, "arm-1 intermediate states")
    _mean(st, "pS0", (1 - f.z) * m_vals, s_vals, "arm-0 intermediate states")
    _mean(st, "q1", f.z * m_vals * s_vals, f.y, "treated S=1 outcomes")
    _mean(st, "q0", (1 - f.z) * m_vals * s_vals, f.y, "control S=1 outcomes")

    standard = direction is Direction.STANDARD_MONOTONE
    lo, hi, q, out, direct, other = (("pS1", "pS0", "q0", "p11c", "q1", "p11t")
                                     if standard else
                                     ("pS0", "pS1", "q1", "p11t", "q0", "p11c"))
    if not st.sol[lo] < st.sol[hi]:
        raise OrderingError(
            f"{ordering_label} fails: the selection model needs "
            f"P(S=1) = {st.sol[lo]:.4g} in the shrinking arm below "
            f"{st.sol[hi]:.4g} in the other arm; estimates would not be "
            "asymptotically normal")
    if st.sol[lo] / st.sol[hi] <= 0.0:
        raise EstimationError("no intermediate-positive mass in the shrinking arm")
    alpha, _ = _selection(st, "alpha", out, lo, hi, q, beta)
    st.add(other, st.sol[direct], lambda d: d[direct] - d[other])
    _, _, cov = _finalize(st, True, ("p11t", "p11c"))
    return SaceFit(p11_treated=st.sol["p11t"], p11_control=st.sol["p11c"],
                   cov=cov, alpha=alpha)


# ---------------------------------------------------------------------------
# scenario fits


# Opening blocks: everything a scenario fit does before its first mixture
# solve. Each takes the dataset and returns, for _opening, the stack and the
# per-cell selectors later rows read; solved values are read from st.sol.


def _identified(weighted):
    cells = weighted.cells
    f = _features(cells)
    st = _Stack(cells)
    _mean(st, "risk1", f.z * f.surv, f.y, "arm-1 survivors")
    _mean(st, "risk0", (1 - f.z) * f.surv, f.y, "arm-0 survivors")
    _mean(st, "p00", f.z * f.m, f.neg, "measured arm-1 survivor markers")
    return st, f


def _b_opening(weighted):
    st, f = _opening(weighted, _identified)
    _mean(st, "risk1_00", f.z * f.m * f.neg, f.y,
          "active-arm marker-negative survivors")
    _p10(st, ("p00",))
    return st, f


def _a_opening(weighted):
    st, f = _opening(weighted, _identified)
    p11 = _mean(st, "p11", (1 - f.z) * f.m, f.pos, "measured arm-0 survivor markers")
    if p11 <= 0.0:
        raise EstimationError(
            "estimated p(1,1) is not positive: the control-arm marker never "
            "varies in these data, so use scenario B instead of A")
    _p10(st, ("p00", "p11"))

    # survivor & marker-negative state: S computable without the marker only
    # for early-event cells (state 0); measured survivor cells carry weight w
    sa = f.surv * f.neg
    ma = np.where(f.surv > 0, f.m, 1.0)
    pSa1 = _mean(st, "pSa1", f.z * ma, sa, "arm-1 negative-survivor states")
    pSa0 = _mean(st, "pSa0", (1 - f.z) * ma, sa, "arm-0 negative-survivor states")
    if not pSa1 < pSa0:
        raise OrderingError(
            "marker ordering (A5') fails in the negative direction: "
            f"P(survivor & negative) is {pSa1:.4g} (active) vs {pSa0:.4g} "
            "(control); the standard-direction solve is invalid")
    _mean(st, "qa0", (1 - f.z) * ma * sa, f.y, "control negative survivors")
    _mean(st, "risk1_00", f.z * ma * sa, f.y, "active negative survivors")
    return st, (f, ma)


def _early_rates(weighted, risk0_name: str):
    """Control survivor risk and the per-arm early-event rates (scenario C)."""
    cells = weighted.cells
    f = _features(cells)
    st = _Stack(cells)
    _mean(st, risk0_name, (1 - f.z) * f.surv, f.y, "arm-0 survivors")
    pyt1 = _mean(st, "pyt1", f.z, 1 - f.surv, "arm-1 records")
    pyt0 = _mean(st, "pyt0", 1 - f.z, 1 - f.surv, "arm-0 records")
    return st, f, pyt1, pyt0


def _c_protect_opening(weighted):
    st, f, pyt1, pyt0 = _early_rates(weighted, "risk0")
    if not pyt1 < pyt0:
        raise OrderingError(
            "early-event ordering (A4'') fails: the active-arm early rate "
            f"{pyt1:.4g} is not below the control rate {pyt0:.4g}; Wald "
            "inference under early no-harm monotonicity is invalid here")
    phi = (1.0 - pyt0) / (1.0 - pyt1)   # P(control survives early | active does)
    st.add("phi", phi, lambda d: d["phi"] * (1 - d["pyt1"]) - (1 - d["pyt0"]))

    _mean(st, "s1m", f.z * f.m, f.pos, "measured arm-1 survivor markers")
    _mean(st, "mrisk1_1", f.z * f.m * f.pos, f.y, "active positive survivors")
    _mean(st, "mrisk1_0", f.z * f.m * f.neg, f.y, "active negative survivors")
    return st, f


def _c_harm_opening(weighted):
    st, f, pyt1, pyt0 = _early_rates(weighted, "riskm0")
    phi_r = (1.0 - pyt1) / (1.0 - pyt0)   # P(active survives early | control does)
    st.add("phi_r", phi_r, lambda d: d["phi_r"] * (1 - d["pyt0"]) - (1 - d["pyt1"]))

    _mean(st, "risk1", f.z * f.surv, f.y, "arm-1 survivors")
    _mean(st, "p00", f.z * f.m, f.neg, "measured arm-1 survivor markers")
    _mean(st, "risk1_00", f.z * f.m * f.neg, f.y, "active negative survivors")
    _p10(st, ("p00",))
    return st, f


def fit_scenario_b(weighted: WeightedRecords, beta0: float = 0.0,
                   with_cov: bool = True) -> RiskEstimates:
    """Scenario B fit: equal early clinical risk plus a constant control-arm
    marker, selection bias indexed by ``beta0``.

    risk_1(0,0) and the mixing proportion are direct IPW means among active-
    arm survivors; risk_0(0,0) and risk_0(1,0) jointly solve the odds-ratio
    model odds(risk_0(0,0)) / odds(risk_0(1,0)) = exp(beta0) together with
    the mixture identity for the identified control survivor risk; and
    risk_1(1,0) is recovered from the mixture identity for the active arm,
    which makes the mixing identity hold exactly by construction.
    """
    point = SensitivityPoint(Scenario.B, {"beta0": beta0})
    st, _ = _opening(weighted, _b_opening)
    _split(st, "risk0_00", "risk0_10", "risk0", "p00", beta0, "p10")
    _remainder(st, 1, ("00",), "active-arm mixture identity; check the weights")
    return RiskEstimates(point.scenario, point, *_finalize(st, with_cov), st.cells.n)


def fit_scenario_a(weighted: WeightedRecords, beta0: float = 0.0,
                   beta1_reversed: float = 0.0,
                   with_cov: bool = True) -> RiskEstimates:
    """Scenario A fit: equal early clinical risk with a varying control-arm
    marker under marker monotonicity.

    Two selection-model solves run back to back: the standard direction on
    state (survivor and marker-negative) recovers the (0,0) stratum risks
    with ``beta0``; the reversed direction on state (survivor and marker-
    positive) recovers the (1,1) stratum risks with ``beta1_reversed``. The
    (1,0) risks then come from the three-component mixture identity.
    """
    point = SensitivityPoint(Scenario.A, {
        "beta0": beta0, "beta1_reversed": beta1_reversed})
    st, (f, ma) = _opening(weighted, _a_opening)
    _selection(st, "alpha_a", "risk0_00", "pSa1", "pSa0", "qa0", beta0)

    # survivor & marker-positive state, reversed monotonicity direction
    sb = f.surv * f.pos
    pSb1 = _mean(st, "pSb1", f.z * ma, sb, "arm-1 positive-survivor states")
    pSb0 = _mean(st, "pSb0", (1 - f.z) * ma, sb, "arm-0 positive-survivor states")
    if not pSb0 < pSb1:
        raise OrderingError(
            "marker ordering (A5') fails: P(survivor & positive) is "
            f"{pSb1:.4g} (active) vs {pSb0:.4g} (control); the reversed-"
            "direction solve is invalid")
    _mean(st, "qb1", f.z * ma * sb, f.y, "active positive survivors")
    _mean(st, "risk0_11", (1 - f.z) * ma * sb, f.y, "control positive survivors")
    _selection(st, "alpha_b", "risk1_11", "pSb0", "pSb1", "qb1", beta1_reversed)

    _remainder(st, 1, ("00", "11"), "three-component mixture, active arm")
    _remainder(st, 0, ("00", "11"), "three-component mixture, control arm")

    report = ["risk1", "risk0", "p00", "p11", "p10", "risk1_00", "risk1_10",
              "risk1_11", "risk0_00", "risk0_10", "risk0_11"]
    return RiskEstimates(point.scenario, point, *_finalize(st, with_cov, report),
                         st.cells.n)


def fit_scenario_c_protect(weighted: WeightedRecords, beta0: float = 0.0,
                           beta2: float = 0.0, beta3: float = 0.0,
                           beta4: float = 0.0,
                           with_cov: bool = True) -> RiskEstimates:
    """Scenario C fit under early no-harm monotonicity (active arm never
    causes the early event) and a constant control-arm marker.

    Active-arm survivors mix the always-survivor stratum with the early-
    protected (EP) stratum, so three extra odds-ratio models split them:
    ``beta4`` splits the marker prevalence (always-survivor vs EP),
    ``beta2``/``beta3`` split the marker-negative/-positive outcome risks.
    ``beta0`` plays the same role as in scenario B for the control risks.
    Requires the testable ordering A4'': the active arm must show the lower
    early-event rate.
    """
    point = SensitivityPoint(Scenario.C_PROTECT, {
        "beta0": beta0, "beta2": beta2, "beta3": beta3, "beta4": beta4})
    st, _ = _opening(weighted, _c_protect_opening)
    phi, s1m = st.sol["phi"], st.sol["s1m"]
    p10, _ = _split(st, "p10", "ep_pos_rate", "s1m", "phi", beta4)
    p00 = 1.0 - p10
    if p10 <= 0.0 or p00 <= 0.0:
        raise EstimationError(
            f"always-survivor marker split degenerate: p(1,0) = {p10:.6g}")
    st.add("p00", p00, lambda d: 1.0 - d["p10"] - d["p00"])
    _split(st, "risk0_00", "risk0_10", "risk0", "p00", beta0, "p10")

    if s1m <= 0.0 or s1m >= 1.0:
        raise EstimationError(
            "active-arm survivor markers are all one value; the early-"
            "protected split is undefined")
    w1s = p10 * phi / s1m
    w0s = p00 * phi / (1.0 - s1m)
    _check_unit_interval("always-survivor share among positives", w1s, "B.4 split")
    _check_unit_interval("always-survivor share among negatives", w0s, "B.4 split")
    st.add("w1s", w1s, lambda d: d["w1s"] * d["s1m"] - d["p10"] * d["phi"])
    st.add("w0s", w0s, lambda d: d["w0s"] * (1 - d["s1m"]) - d["p00"] * d["phi"])

    r110, _ = _split(st, "risk1_10", "risk1_1star", "mrisk1_1", "w1s", beta3)
    r100, _ = _split(st, "risk1_00", "risk1_0star", "mrisk1_0", "w0s", beta2)

    risk1 = p00 * r100 + p10 * r110
    st.add("risk1", risk1,
           lambda d: d["p00"] * d["risk1_00"] + d["p10"] * d["risk1_10"] - d["risk1"])

    report = ["risk1", "risk0", "p00", "p10", "risk1_00", "risk1_10",
              "risk0_00", "risk0_10", "risk1_0star", "risk1_1star",
              "ep_pos_rate", "phi"]
    return RiskEstimates(point.scenario, point, *_finalize(st, with_cov, report),
                         st.cells.n)


def fit_scenario_c_harm(weighted: WeightedRecords, beta0: float = 0.0,
                        beta1_marginal: float = 0.0,
                        with_cov: bool = True) -> RiskEstimates:
    """Scenario C fit with the monotonicity direction reversed (active arm
    never prevents the early event), constant control-arm marker.

    Active-arm survivors are then exactly the always-survivor stratum, so
    the active risks are direct; what needs a sensitivity model is the
    control survivor risk, which mixes always-survivors with the early-
    harmed stratum. ``beta1_marginal`` is the log odds ratio between those
    two control risks; at 0 this fit equals scenario B's exactly.
    """
    point = SensitivityPoint(Scenario.C_HARM, {
        "beta0": beta0, "beta1_marginal": beta1_marginal})
    st, _ = _opening(weighted, _c_harm_opening)
    _split(st, "risk0", "eh_risk", "riskm0", "phi_r", beta1_marginal)
    _split(st, "risk0_00", "risk0_10", "risk0", "p00", beta0, "p10")
    _remainder(st, 1, ("00",), "active-arm mixture identity")

    report = ["risk1", "risk0", "p00", "p10", "risk1_00", "risk1_10",
              "risk0_00", "risk0_10", "eh_risk", "phi_r"]
    return RiskEstimates(point.scenario, point, *_finalize(st, with_cov, report),
                         st.cells.n)


_FITTERS = {
    Scenario.A: fit_scenario_a,
    Scenario.B: fit_scenario_b,
    Scenario.C_PROTECT: fit_scenario_c_protect,
    Scenario.C_HARM: fit_scenario_c_harm,
}


def fit_scenario(weighted: WeightedRecords, point: SensitivityPoint,
                 with_cov: bool = True) -> RiskEstimates:
    """Dispatch to the scenario fitter named by the sensitivity point.
    Covariance fits are cached per point on ``weighted``; failures are not."""
    if not with_cov:
        return _FITTERS[point.scenario](weighted, **point.as_dict(), with_cov=False)
    key = (point.scenario, tuple(point.as_dict().items()))
    if key not in weighted.fit_blocks:
        weighted.fit_blocks[key] = _FITTERS[point.scenario](weighted, **point.as_dict())
    return weighted.fit_blocks[key]


# ---------------------------------------------------------------------------
# mean-shift alternative (Chiba and VanderWeele, 2011, adapted)


def mean_shift_cep(weighted: WeightedRecords, alpha0: float, alpha1: float,
                   scenario: Scenario = Scenario.B) -> CepResult:
    """Additive-contrast fit under mean-shift sensitivity parameters.

    alpha_k is the assumed difference between the counterfactual and the
    observed arm-specific mean within the marker-k always stratum, so
    CEP(k,k) is the naive stratum contrast minus alpha_k; the (1,0) stratum
    is recovered from the mixture identity. Only the additive contrast is
    supported; in scenario B the control marker never varies so alpha1 is
    unused.
    """
    if scenario not in (Scenario.A, Scenario.B):
        raise ConfigError("the mean-shift method applies to scenarios A and B")
    st, f = _opening(weighted, _identified)
    mu10 = _mean(st, "mu10", f.z * f.m * f.neg, f.y, "active negative survivors")
    mu00 = _mean(st, "mu00", (1 - f.z) * f.m * f.neg, f.y, "control negative survivors")
    mu11 = _mean(st, "mu11", f.z * f.m * f.pos, f.y, "active positive survivors")
    st.add("risk1_00", mu10, lambda d: d["mu10"] - d["risk1_00"])
    st.add("risk0_00", mu00 + alpha0, lambda d: d["mu00"] + alpha0 - d["risk0_00"])

    report = ["risk1", "risk0", "p00", "p10", "risk1_00", "risk1_10",
              "risk0_00", "risk0_10"]
    if scenario is Scenario.A:
        mu01 = _mean(st, "mu01", (1 - f.z) * f.m * f.pos, f.y,
                     "control positive survivors")
        _mean(st, "p11", (1 - f.z) * f.m, f.pos, "measured arm-0 survivor markers")
        st.add("risk1_11", mu11 - alpha1, lambda d: d["mu11"] - alpha1 - d["risk1_11"])
        st.add("risk0_11", mu01, lambda d: d["mu01"] - d["risk0_11"])
        strata = ("00", "11")
        report += ["p11", "risk1_11", "risk0_11"]
    else:
        strata = ("00",)
    _p10(st, tuple(f"p{s}" for s in strata))
    for z in (1, 0):
        _remainder(st, z, strata, "mean-shift mixture identity")

    point = SensitivityPoint(scenario, {})
    est = RiskEstimates(scenario, point, *_finalize(st, True, report), st.cells.n)
    return cep(est, Contrast.ADDITIVE)


# ---------------------------------------------------------------------------
# assumption diagnostics


@dataclass
class AssumptionReport:
    early_counts: dict[int, tuple[int, int]]     # arm -> (events, n)
    early_rates: dict[int, float]
    fisher_p: float
    a4_plausible: bool            # equal early clinical risk not rejected
    a4pp_ordering: bool           # active early rate strictly below control
    marker_pos_rates: dict[int, float | None]    # weighted, among survivors
    a5p_ordering: bool | None
    constant_control_marker: bool | None
    recommended: list[str]
    notes: list[str]


def check_assumptions(data, alpha: float = 0.05) -> AssumptionReport:
    """Testable-implication diagnostics and a scenario recommendation.

    Reports per-arm early-event rates with a two-sided Fisher exact test of
    equality (plausibility of equal early clinical risk), the early-rate
    ordering needed by scenario C_protect (A4''), and weighted marker-
    positive rates among survivors with the ordering (A5') needed by the
    always-survivor solves. Diagnostics are always computable; degenerate
    tables are reported as such. ``data`` is weighted data, or records or
    cells that get ``fit_missingness``'s default weights.
    """
    if not isinstance(data, WeightedRecords):
        data = fit_missingness(data)
    cells = data.cells
    f = _features(cells)
    counts = {z: (a.early_events, a.n) for z, a in summarize(cells).arms.items()}
    rates = {z: ev / n if n > 0 else float("nan") for z, (ev, n) in counts.items()}
    a, n1 = counts[1]
    c, n0 = counts[0]
    fisher_p = fisher_exact_two_sided(a, n1 - a, c, n0 - c)
    a4pp = rates[1] < rates[0]

    pos_rates: dict[int, float | None] = {}
    for z in (0, 1):
        sel = (f.z == z) * f.m
        denom = float(np.sum(cells.count * sel))
        pos_rates[z] = (float(np.sum(cells.count * sel * f.pos) / denom)
                        if denom > 0 else None)
    if pos_rates[0] is None or pos_rates[1] is None:
        a5p = None
        cb = None if pos_rates[0] is None else pos_rates[0] == 0.0
    else:
        a5p = pos_rates[0] < pos_rates[1]
        cb = pos_rates[0] == 0.0

    a4_ok = fisher_p >= alpha
    recommended, notes = [], []
    if a4_ok:
        if cb is False:
            recommended.append(Scenario.A.value)
            notes.append("control-arm markers vary: scenario A applies if "
                         "marker monotonicity is defensible")
        else:
            recommended.append(Scenario.B.value)
            notes.append(f"equal early risk not rejected (p = {fisher_p:.2g})")
    else:
        notes.append(f"equal early risk questionable (p = {fisher_p:.2g})")
    if a4pp:
        recommended.append(Scenario.C_PROTECT.value)
        notes.append("early-rate ordering supports no-harm monotonicity")
    elif rates[1] > rates[0]:
        recommended.append(Scenario.C_HARM.value)
        notes.append("early rates are reversed; only the reversed-"
                     "monotonicity variant of scenario C is available")
    if a5p is False:
        notes.append("marker ordering (A5') fails; always-survivor solves "
                     "will reject")
    return AssumptionReport(early_counts=counts, early_rates=rates,
                            fisher_p=fisher_p, a4_plausible=a4_ok,
                            a4pp_ordering=a4pp, marker_pos_rates=pos_rates,
                            a5p_ordering=a5p, constant_control_marker=cb,
                            recommended=recommended, notes=notes)
