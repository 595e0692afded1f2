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

Every fitted quantity (identified means, IPW means, odds-ratio and
selection solves, derived quantities) is a smooth function of the at most 32
cell counts, and a fit reports their joint delta-method covariance over the
counts (``_Stack``), so standard errors for any contrast come from a single
consistent object.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import (ConfigError, DataError, EstimationError, IncompatibleSensitivityError,
                     OrderingError)
from .mathutil import Checks, fisher_exact_two_sided, fresh, solve_logit_mixture
from .tables import S_NEG, S_POS, S_UNDEF, summarize
from .weights import WeightedRecords, fit_missingness


class Scenario(enum.Enum):
    A = "A"
    B = "B"
    C_PROTECT = "C_protect"
    C_HARM = "C_harm"

    @property
    def sensitivity_keys(self) -> tuple[str, ...]:
        return _SCENARIOS[self].keys

    @property
    def strata(self) -> tuple[str, ...]:
        """Marker strata with a CEP: "00", "10" and, in scenario A, "11"."""
        return _SCENARIOS[self].strata

    @property
    def targets(self) -> tuple[str, ...]:
        """CEP targets: "cep_<s>" for each stratum, then "mu"."""
        return (*(f"cep_{s}" for s in self.strata), "mu")


@dataclass(frozen=True)
class SensitivityPoint:
    """One point in sensitivity-parameter space; only scenario-legal keys."""

    scenario: Scenario
    values: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        legal = _LEGAL_KEYS[self.scenario]
        if not legal.issuperset(self.values):
            raise ConfigError(
                f"sensitivity keys {sorted(set(self.values) - legal)} are not legal "
                f"for scenario {self.scenario.value}; legal keys: {sorted(legal)}")
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

def _fd_jacobian(f: Callable[[np.ndarray], np.ndarray], theta: np.ndarray) -> np.ndarray:
    """Central-difference (m x p) Jacobian of f: R^p -> R^m. The step is
    about 1e-6 max(1, |theta_j|), rounded to a power of two so that
    theta_j +/- h and their difference stay exact."""
    cols = []
    for j in range(theta.size):
        h = 2.0 ** round(math.log2(1e-6 * max(1.0, abs(theta[j]))))
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        cols.append((f(tp) - f(tm)) / (tp[j] - tm[j]))
    return np.array(cols).reshape(theta.size, -1).T


def delta_method(g: Callable[[np.ndarray], float], theta_hat, cov) -> tuple[float, float]:
    """Value of a smooth scalar map g at theta_hat and its variance grad^T cov
    grad (floored at zero); g is any callable, so grad is by _fd_jacobian."""
    theta = np.asarray(theta_hat, dtype=float)
    value = float(g(theta))
    if not math.isfinite(value):
        raise ValueError("g is not finite at theta_hat")
    grad = _fd_jacobian(lambda t: float(g(t)), theta)[0]
    if not np.isfinite(grad).all():
        raise ValueError("g is not finite in a neighborhood of theta_hat")
    return value, max(float(grad @ np.asarray(cov, dtype=float) @ grad), 0.0)


def _col(c):
    """A value, shaped to scale a gradient with a trailing axis."""
    return c[..., None] if isinstance(c, np.ndarray) else c


class _Dual:
    """Forward-mode dual number (Griewank and Walther, 2008): a value (float or
    array) and its gradient, whose trailing axis broadcasts against the value's
    shape. In ``+ - * /``, numpy operands defer to it as constants."""

    __slots__ = ("v", "g")
    __array_ufunc__ = None

    def __init__(self, v, g):
        self.v, self.g = v, g

    def __add__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v + o.v, self.g + o.g)
        return _Dual(self.v + o, self.g)

    def __sub__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v - o.v, self.g - o.g)
        return _Dual(self.v - o, self.g)

    def __rsub__(self, o):
        return _Dual(o - self.v, -self.g)

    def __mul__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v * o.v, self.g * _col(o.v) + _col(self.v) * o.g)
        return _Dual(self.v * o, self.g * _col(o))

    def __truediv__(self, o):
        if isinstance(o, _Dual):
            v = self.v / o.v
            return _Dual(v, (self.g - _col(v) * o.g) / _col(o.v))
        return _Dual(self.v / o, self.g / _col(o))

    __radd__, __rmul__ = __add__, __mul__


def _logistic(x):
    """mathutil.expit elementwise, overflow-free."""
    return np.exp(-np.logaddexp(0.0, -x))


def _expit(x: _Dual) -> _Dual:
    """expit on duals: d expit = e (1 - e) dx."""
    e = _logistic(x.v)
    return _Dual(e, x.g * _col(e * (1.0 - e)))


class _Stack:
    """Named parameters, each a smooth function of the cell counts c.

    Counts are (B, ncells), one dataset's (ncells,) read as the batch of one.
    Solutions are computed blockwise by the scenario builders: (B, 1) before the
    first mixture solve, then (B, G) over the Gamma points, failing elementwise
    through ``checks``. Each parameter carries a rule, ``rule(stack, duals)``,
    that returns its ``_Dual`` over the cells (J = d theta / dc) from the duals
    of the parameters added before it; point passes evaluate none. Every
    parameter is homogeneous of degree 0 in c, so under multinomial sampling
    cov(theta_hat) = sum_k c_k J_k J_k^T, the influence-function variance of
    the stacked M-estimator (Stefanski and Boos, 2002; Bishop, Fienberg and
    Holland, 1975, ch. 14).
    """

    def __init__(self, cells):
        self.cells = replace(cells, count=cells.count.reshape(-1, cells.count.shape[-1]))
        self.names: list[str] = []
        self.rules: list[Callable] = []
        self.sol: dict[str, np.ndarray] = {}
        self.checks = Checks((len(self.cells.count), 1))

    def add(self, name: str, value, rule: Callable) -> None:
        if name in self.sol:
            raise ValueError(f"duplicate parameter {name}")
        self.names.append(name)
        self.rules.append(rule)
        self.sol[name] = value

    def copy(self, rows=None) -> "_Stack":
        """A copy to solve on; with ``rows``, of those replicates."""
        new = _Stack(self.cells if rows is None else replace(
            self.cells, count=self.cells.count[rows]))
        new.names, new.rules = list(self.names), list(self.rules)
        new.sol = {k: v if rows is None else v[rows] for k, v in self.sol.items()}
        new.checks.failed = self.checks.failed.copy() if rows is None else self.checks.failed[rows]
        return new

    def theta(self) -> np.ndarray:
        """Solved values, shape (p, *checks.failed.shape): (p, B, G)."""
        out = np.empty((len(self.names), *self.checks.failed.shape))
        for j, name in enumerate(self.names):
            out[j] = self.sol[name]
        return out

    def rows(self, *values) -> None:
        """Record implicit rows at the solution for ``variance``'s residual check."""
        for v in values:
            self.resid = np.maximum(self.resid, np.abs(v))

    def variance(self) -> tuple[np.ndarray, np.ndarray]:
        """(theta, cov) at one point per replicate: (p, B, 1) and (B, 1, p, p).
        An element fails where an implicit row exceeds 1e-8 at its solution, or
        where a value or a cell gradient is not finite (as where an implicit
        solve is singular)."""
        count = self.cells.count
        theta = self.theta()
        jac = np.empty((*theta.shape[1:], len(theta), count.shape[-1]))
        self.resid = np.zeros(theta.shape[1:])
        duals = {}
        for j, (name, rule) in enumerate(zip(self.names, self.rules)):
            duals[name] = rule(self, duals)
            jac[..., j, :] = duals[name].g
        self.checks(~(self.resid <= 1e-8), EstimationError, lambda r: f"stacked residual "
                    f"{r:.3e} exceeds tolerance; the blockwise solution is inconsistent",
                    self.resid)
        self.checks(~(np.isfinite(theta).all(0) & np.isfinite(jac).all((-2, -1))),
                    EstimationError, lambda: "a value of the stacked fit or its cell "
                    "gradient is not finite")
        cov = (jac * count[:, None, None, :]) @ np.swapaxes(jac, -1, -2)
        return theta, 0.5 * (cov + np.swapaxes(cov, -1, -2))


def _derived(st: "_Stack", name: str, f: Callable):
    """Parameter ``name`` = f(earlier parameters), read by name from a mapping;
    its rule is f on their duals. Adds it; returns its value."""
    value = f(st.sol)
    st.add(name, value, lambda _, d: f(d))
    return value


def _mean(st: "_Stack", name: str, sel, resp, what: str):
    """Weighted mean ``name`` of resp over the cells, (B, 1), selection
    weights sel >= 0; its cell gradient is sel (resp - mean) / denom. Adds
    it; returns it."""
    count = st.cells.count
    denom = np.sum(count * sel, axis=-1, keepdims=True)
    st.checks(denom <= 0.0, EstimationError, lambda: f"empty stratum: no observations for {what}")
    value = np.sum(count * sel * resp, axis=-1, keepdims=True) / denom
    st.add(name, value, lambda s, _: _Dual(s.sol[name], sel * (resp - _col(s.sol[name])) / _col(
        np.sum(s.cells.count * sel, axis=-1, keepdims=True))))
    return value


def _p10(st: "_Stack", others: tuple[str, ...]):
    """Mixing share p(1,0) = 1 - sum of the shares ``others``, subtracted in
    the order given. Adds it, checks it is positive, returns it."""
    def share(v):
        acc = 1.0
        for o in others:
            acc = acc - v[o]
        return acc

    value = _derived(st, "p10", share)
    st.checks(value <= 0.0, EstimationError, lambda v: f"estimated p(1,0) = {v:.6g} is "
              "not positive; the always-survivor effect-modification stratum is "
              "empty in these data", value)
    return value


def _split(st: "_Stack", a: str, b: str, target: str, w: str, beta: float,
           w_b: str | None = None) -> tuple[float, float]:
    """Odds-ratio split of the mixture ``target`` = w a + (1 - w) b, with
    odds(a)/odds(b) = exp(beta) as a product-form row (polynomial, so
    defined at boundary risks, where odds are not). ``w_b`` names b's weight
    where it is a parameter of its own. The cell gradients follow from both
    rows by the implicit-function theorem. Adds a and b; returns them."""
    va, vb = solve_logit_mixture(st.sol[target], st.sol[w], beta, st.checks)
    eb = np.exp(beta)

    def weight_b(v):
        return 1 - v[w] if w_b is None else v[w_b]

    def rule_a(s, d):   # both rows, solved for da: the odds row has no cell input
        x, y = s.sol[a], s.sol[b]
        mix = d[target] - d[w] * x - weight_b(d) * y
        s.rows(x * (1.0 - y) - eb * y * (1.0 - x), mix.v)
        da, db = (1.0 - y) + eb * y, x + eb * (1.0 - x)    # d odds / da, -d odds / db
        return _Dual(x, mix.g * _col(db / (da * weight_b(s.sol) + db * s.sol[w])))

    def rule_b(s, d):   # the odds row, given a
        x, y = s.sol[a], s.sol[b]
        return _Dual(y, d[a].g * _col(((1.0 - y) + eb * y) / (x + eb * (1.0 - x))))

    st.add(a, va, rule_a)
    st.add(b, vb, rule_b)
    return va, vb


def _selection(st: "_Stack", alpha: str, out: str, lo: str, hi: str, q: str,
               beta: float) -> tuple[float, float]:
    """Logistic selection solve: ``alpha`` solves the margin identity
    lo = hi ((1-q) expit(alpha) + q expit(alpha+beta)) and
    ``out`` = expit(alpha+beta) q hi / lo. The cell gradient of each follows
    from its own row by the implicit-function theorem. Adds both; returns them."""
    rho = st.sol[lo] / st.sol[hi]
    w1, w0 = solve_logit_mixture(rho, st.sol[q], beta, st.checks)
    a, adjusted = np.log(w0 / (1.0 - w0)), w1 * st.sol[q] / rho

    def rule_alpha(s, d):   # the margin row, in alpha alone
        e0, e1 = _logistic(s.sol[alpha]), _logistic(s.sol[alpha] + beta)
        margin = d[lo] - d[hi] * ((1 - d[q]) * e0 + d[q] * e1)
        s.rows(margin.v)
        slope = s.sol[hi] * ((1 - s.sol[q]) * e0 * (1.0 - e0) + s.sol[q] * e1 * (1.0 - e1))
        return _Dual(s.sol[alpha], margin.g / _col(slope))

    def rule_out(s, d):     # the outcome row, given alpha
        row = s.sol[out] * d[lo] - _expit(d[alpha] + beta) * d[q] * d[hi]
        s.rows(row.v)
        return _Dual(s.sol[out], -row.g / _col(s.sol[lo]))

    st.add(alpha, a, rule_alpha)
    st.add(out, adjusted, rule_out)
    return a, adjusted


def _sace_margins(st: "_Stack", f, state, weight, direction: Direction,
                  names: tuple[str, str, str, str], label: str) -> tuple[str, str]:
    """Beta-free means of one always-stratum selection solve on the binary
    per-cell ``state`` with weights ``weight``. ``names``: the state rate in
    arm 1 and arm 0, then the outcome mean of state-1 records in the other
    arm (q) and the shrinking arm (the direct always-stratum mean). Checks
    the ordering ``label``; returns _selection's (lo, hi) rate names."""
    arm = (1 - f.z, f.z)
    for name, z in zip(names, (1, 0)):
        _mean(st, name, arm[z] * weight, state, f"arm-{z} states for {label}")
    shrink = 1 if direction is Direction.STANDARD_MONOTONE else 0
    lo, hi = names[1 - shrink], names[shrink]
    st.checks(np.logical_not(st.sol[lo] < st.sol[hi]), OrderingError,
              lambda a, b: f"{label} fails: the selection model needs P(S=1) = {a:.4g} "
              f"in the shrinking arm below {b:.4g} in the other arm; estimates would "
              "not be asymptotically normal", st.sol[lo], st.sol[hi])
    for name, z in zip(names[2:], (1 - shrink, shrink)):
        _mean(st, name, arm[z] * weight * state, f.y,
              f"arm-{z} state-1 outcomes for {label}")
    return lo, hi


def _remainder(st: "_Stack", z: int, strata: tuple[str, ...], context: str) -> None:
    """Mixture-identity remainder risk_z(1,0) = (risk_z - sum_s p_s
    risk_z(s)) / p(1,0) over the other ``strata``, subtracted in the order
    given. Adds it and checks it lies in [0, 1]."""
    total, out = f"risk{z}", f"risk{z}_10"
    terms = [(f"p{s}", f"risk{z}_{s}") for s in strata]

    def remainder(v):
        acc = v[total]
        for p, r in terms:
            acc = acc - v[p] * v[r]
        return acc / v["p10"]

    _check_unit_interval(st, out, _derived(st, out, remainder), context)


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


def _opening(weighted: WeightedRecords, build: Callable, rows=None):
    """(stack copy, selectors) of the beta-free opening block ``build(weighted)``.

    The block is solved once per dataset and cached on ``weighted``, so every
    fit of that dataset, point-only or with covariance, continues from the
    same solved parameters and a grid point pays only for its mixture solves. A
    block that fails is cached with its failures, which every fit inherits.
    """
    st, selectors = _opened(weighted, build)
    return st.copy(rows), selectors


def _opened(weighted: WeightedRecords, build: Callable):
    """The cached (stack, selectors) that ``_opening`` copies: to read, not to
    solve on."""
    blocks = weighted.fit_blocks
    if build not in blocks:
        with np.errstate(all="ignore"):
            blocks[build] = build(weighted)
    return blocks[build]


def _check_unit_interval(st: "_Stack", name: str, value, context: str) -> None:
    st.checks(np.logical_not((-1e-12 <= value) & (value <= 1.0 + 1e-12)),
              IncompatibleSensitivityError,
              lambda v: f"derived {name} = {v:.6g} lies outside [0, 1]; the sensitivity "
              f"parameters are incompatible with the data ({context})", value)


def _finalize(st: "_Stack", with_cov: bool, report: list[str] | None = None):
    """Extract (names, theta, cov) from a solved stack, optionally skipping
    the variance (point-estimate-only path used inside grid sweeps)."""
    theta, cov = st.variance() if with_cov else (st.theta(), None)
    if report is None:
        return tuple(st.names), theta, cov
    idx = [st.names.index(nm) for nm in report]
    sub = cov[(..., *np.ix_(idx, idx))] if cov is not None else None
    return tuple(report), theta[idx], sub


def _one(st: "_Stack", with_cov: bool = True, report: list[str] | None = None):
    """``_finalize`` of a stack of one dataset at one point, read as (names,
    theta (p,), cov (p, p) or None). Its callers run under np.errstate(all=
    "ignore"): a failed element computes on, and its first failure raises here, as a copy."""
    names, theta, cov = _finalize(st, with_cov, report)
    if (failed := st.checks.failed.flat[0]) is not None:
        raise fresh(failed)
    return names, theta[:, 0, 0], None if cov is None else cov[0, 0]


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

    def as_dict(self) -> dict[str, float]:
        return {n: float(v) for n, v in zip(self.names, self.theta)}

    def mixing_residual(self) -> float:
        """Largest violation of risk_z = sum_s p(s) risk_z(s) over z."""
        return max(abs(self.value(f"risk{z}") - sum(
            self.value(f"p{s}") * self.value(f"risk{z}_{s}")
            for s in self.scenario.strata)) for z in (0, 1))


class Contrast(enum.Enum):
    ADDITIVE = "additive"   # h(x, y) = x - y
    VE = "ve"               # h(x, y) = 1 - x/y
    LOG_RR = "log_rr"       # h(x, y) = log(x/y)

    def apply(self, x, y, checks: Checks | None = None):
        """h(x, y) elementwise; a zero risk that leaves h undefined fails
        its element through ``checks`` (default: raise)."""
        if self is Contrast.ADDITIVE:
            return x - y
        checks = checks or Checks()
        checks(y <= 0.0, EstimationError, lambda v: f"{self.value} contrast undefined: "
               f"control risk {v} is not positive (zero-event stratum)", y)
        if self is Contrast.VE:
            return 1.0 - x / y
        checks(x <= 0.0, EstimationError,
               lambda v: f"log relative risk undefined: active risk {v} is not positive", x)
        return np.log(x / y)

    def gradient(self, x: float, y: float) -> tuple[float, float]:
        """(dh/dx, dh/dy) at risks (x, y) where h is defined."""
        if self is Contrast.ADDITIVE:
            return 1.0, -1.0
        return (-1.0 / y, x / y / y) if self is Contrast.VE else (1.0 / x, -1.0 / y)


@dataclass
class CepResult:
    contrast: Contrast
    values: dict[str, float]        # keys "00", "10" and, scenario A, "11"
    ses: dict[str, float]
    mu: float                       # CEP(1,0) - CEP(0,0)
    mu_se: float
    sensitivity: SensitivityPoint
    # (names, theta (p, k, 1), cov (k, 1, p, p), counts (k, ncells), j): the
    # fit_ceps fit these contrasts come from, fit j of k; () from cep
    stacked: tuple = field(default=(), compare=False, repr=False)

    @property
    def fit(self) -> RiskEstimates | None:
        """The fit with covariance these contrasts come from, built when read,
        with its replicate's own n; None for a result of ``cep``."""
        if not self.stacked:
            return None
        names, theta, cov, count, j = self.stacked
        return RiskEstimates(self.sensitivity.scenario, self.sensitivity, names, theta[:, j, 0],
                             cov[j, 0], float(count[j].sum()))

    def get(self, target: str) -> tuple[float, float]:
        """(value, standard error) of "cep_00", "cep_10", "cep_11" or "mu"."""
        if target == "mu":
            return self.mu, self.mu_se
        s = target.removeprefix("cep_")
        return self.values[s], self.ses[s]


def target_map(scenario: Scenario, names: tuple[str, ...], contrast: Contrast,
               checks: Checks | None = None) -> Callable:
    """h(theta) = every target of ``scenario.targets``: CEP(s) =
    contrast(risk_1(s), risk_0(s)) per stratum s, then mu = CEP(1,0) -
    CEP(0,0) (the strata open with "00", "10"). theta is indexed by
    ``names``, with shape (p, *lead): one value of each target per element of
    lead; ``checks`` as in Contrast.apply."""
    idx = [(names.index(f"risk1_{s}"), names.index(f"risk0_{s}")) for s in scenario.strata]
    checks = checks or Checks()

    def h(t):
        v = [contrast.apply(t[i1], t[i0], checks) for i1, i0 in idx]
        return np.array([*v, v[1] - v[0]])

    return h


def cep(estimates: RiskEstimates, contrast: Contrast | str) -> CepResult:
    """Per-stratum contrasts of the fitted risks with delta-method errors.

    Every target is a row of one ``target_map``, whose Jacobian is exact
    (``Contrast.gradient``), so the standard error of mu = CEP(1,0) -
    CEP(0,0) carries all covariances among the four risks involved.
    """
    if isinstance(contrast, str):
        contrast = Contrast(contrast.lower())
    if estimates.cov is None:
        raise EstimationError("contrast errors need a fit with covariance")
    return _ceps(estimates.scenario, estimates.names, estimates.theta[:, None],
                 estimates.cov[None], contrast, [estimates.sensitivity])[0]


def _ceps(scenario: Scenario, names: tuple[str, ...], theta, cov, contrast: Contrast,
          points: list, checks: Checks | None = None) -> list[CepResult]:
    """``cep`` at each of the ``points`` from theta (p, *lead) and cov (*lead,
    p, p), the fits there, one per replicate if batched; fails through checks."""
    values = target_map(scenario, names, contrast, checks)(theta)
    jac = np.zeros((*theta.shape[1:], len(values), len(names)))
    for k, s in enumerate(scenario.strata):
        i1, i0 = names.index(f"risk1_{s}"), names.index(f"risk0_{s}")
        jac[..., k, i1], jac[..., k, i0] = contrast.gradient(theta[i1], theta[i0])
    jac[..., -1, :] = jac[..., 1, :] - jac[..., 0, :]
    finite = np.isfinite(values).all(0) & np.isfinite(jac).all((-2, -1))
    (checks or Checks())(~finite, ValueError,
                         lambda: "the contrast or its gradient is not finite at theta_hat")
    # numpy's own loops, not BLAS: each fit's variances read its numbers alone
    var = np.einsum("...ti,...ti->...t", np.einsum("...ti,...ij->...tj", jac, cov), jac)
    ses = np.sqrt(np.maximum(var, 0.0)).reshape(-1, len(values)).tolist()
    strata = scenario.strata
    return [CepResult(contrast, dict(zip(strata, v)), dict(zip(strata, s)), v[-1], s[-1], point)
            for v, s, point in zip(values.reshape(len(values), -1).T.tolist(), ses, points)]


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
    Every state the definition returns, with the marker or without, must be
    0 or 1.
    """
    s_vals = np.zeros(len(cells.count))
    m_vals = np.zeros(len(cells.count))
    for i in range(len(cells.count)):
        s = int(cells.s[i])
        view = SimpleNamespace(z=int(cells.z[i]), y_tau=int(cells.yt[i]),
                               marker=None, y=int(cells.y[i]))
        val, weight = s_definition(view), 1.0
        if val is None:
            if s == S_UNDEF:
                raise DataError(
                    "the intermediate-state definition must be computable "
                    "for early-event records (their marker never exists)")
            if s not in (S_NEG, S_POS):
                continue    # unmeasured: state and weight 0, dropped and reweighted
            view.marker, weight = s, cells.w[i]     # S_NEG, S_POS are the markers 0, 1
            val = s_definition(view)
        if val not in (0, 1):
            raise DataError(f"intermediate state must be 0 or 1, got {val!r}")
        s_vals[i], m_vals[i] = val, weight
    return s_vals, m_vals


@np.errstate(all="ignore")
def selection_sace(weighted: WeightedRecords, s_definition, beta: float,
                   direction: Direction = Direction.STANDARD_MONOTONE) -> SaceFit:
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
    flipped); violations raise OrderingError naming "the survivor ordering".
    """
    cells = weighted.cells
    s_vals, m_vals = _cell_s_values(cells, s_definition)
    st = _Stack(cells)
    q, direct, out = (("q0", "p11t", "p11c") if direction is Direction.STANDARD_MONOTONE
                      else ("q1", "p11c", "p11t"))
    lo, hi = _sace_margins(st, _features(cells), s_vals, m_vals, direction,
                           ("pS1", "pS0", q, direct), "the survivor ordering")
    alpha, _ = _selection(st, "alpha", out, lo, hi, q, beta)
    _, (p11t, p11c), cov = _one(st, True, ("p11t", "p11c"))
    return SaceFit(p11_treated=float(p11t), p11_control=float(p11c), cov=cov,
                   alpha=float(alpha[0, 0]))


# ---------------------------------------------------------------------------
# scenario fits


# Opening blocks: everything a scenario fit does before its first mixture
# solve. Each takes the dataset and returns, for _opening, the stack and the
# per-cell selectors later parameters read; solved values are read from st.sol.
# A scenario's solve then adds its parameters at the Gamma points ``beta``
# (sensitivity key -> length-G array, or a scalar at one point).


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
    st.checks(p11 <= 0.0, EstimationError, lambda: "estimated p(1,1) is not positive: "
              "the control-arm marker never varies in these data, so use scenario B "
              "instead of A")
    _p10(st, ("p00", "p11"))

    # states survivor & marker-negative, survivor & marker-positive: early-
    # event cells have state 0 and weight 1, measured survivor cells weight w
    ma = np.where(f.surv > 0, f.m, 1.0)
    _sace_margins(st, f, f.surv * f.neg, ma, Direction.STANDARD_MONOTONE,
                  ("pSa1", "pSa0", "qa0", "risk1_00"),
                  "marker ordering (A5') in the negative direction")
    _sace_margins(st, f, f.surv * f.pos, ma, Direction.REVERSED,
                  ("pSb1", "pSb0", "qb1", "risk0_11"),
                  "marker ordering (A5') in the positive direction")
    return st, f


def _early_rates(weighted, risk0_name: str):
    """Control survivor risk and the per-arm early-event rates (scenario C)."""
    cells = weighted.cells
    f = _features(cells)
    st = _Stack(cells)
    _mean(st, risk0_name, (1 - f.z) * f.surv, f.y, "arm-0 survivors")
    _mean(st, "pyt1", f.z, 1 - f.surv, "arm-1 records")
    _mean(st, "pyt0", 1 - f.z, 1 - f.surv, "arm-0 records")
    return st, f


def _c_protect_opening(weighted):
    st, f = _early_rates(weighted, "risk0")
    st.checks(np.logical_not(st.sol["pyt1"] < st.sol["pyt0"]), OrderingError,
              lambda a, b: "early-event ordering (A4'') fails: the active-arm early rate "
              f"{a:.4g} is not below the control rate {b:.4g}; Wald inference under "
              "early no-harm monotonicity is invalid here", st.sol["pyt1"], st.sol["pyt0"])
    # P(control survives early | active does)
    _derived(st, "phi", lambda v: (1.0 - v["pyt0"]) / (1.0 - v["pyt1"]))

    _mean(st, "s1m", f.z * f.m, f.pos, "measured arm-1 survivor markers")
    _mean(st, "mrisk1_1", f.z * f.m * f.pos, f.y, "active positive survivors")
    _mean(st, "mrisk1_0", f.z * f.m * f.neg, f.y, "active negative survivors")
    return st, f


def _c_harm_opening(weighted):
    st, f = _early_rates(weighted, "riskm0")
    # P(active survives early | control does)
    _derived(st, "phi_r", lambda v: (1.0 - v["pyt1"]) / (1.0 - v["pyt0"]))

    _mean(st, "risk1", f.z * f.surv, f.y, "arm-1 survivors")
    _mean(st, "p00", f.z * f.m, f.neg, "measured arm-1 survivor markers")
    _mean(st, "risk1_00", f.z * f.m * f.neg, f.y, "active negative survivors")
    _p10(st, ("p00",))
    return st, f


def _b_solve(st, f, beta):
    """Scenario B: equal early clinical risk plus a constant control-arm
    marker, selection bias indexed by ``beta0``.

    risk_1(0,0) and the mixing proportion are direct IPW means among active-
    arm survivors; risk_0(0,0) and risk_0(1,0) jointly solve the odds-ratio
    model odds(risk_0(0,0)) / odds(risk_0(1,0)) = exp(beta0) together with
    the mixture identity for the identified control survivor risk; and
    risk_1(1,0) is recovered from the mixture identity for the active arm,
    which makes the mixing identity hold exactly by construction.
    """
    _split(st, "risk0_00", "risk0_10", "risk0", "p00", beta["beta0"], "p10")
    _remainder(st, 1, ("00",), "active-arm mixture identity; check the weights")


def _a_solve(st, f, beta):
    """Scenario A: equal early clinical risk with a varying control-arm
    marker under marker monotonicity.

    Two selection-model solves, each the ``selection_sace`` block on the
    means _a_opening added: the standard direction on state (survivor and
    marker-negative) recovers the (0,0) stratum risks with ``beta0``; the
    reversed direction on state (survivor and marker-positive) recovers the
    (1,1) stratum risks with ``beta1_reversed``. The (1,0) risks then come
    from the three-component mixture identity.
    """
    _selection(st, "alpha_a", "risk0_00", "pSa1", "pSa0", "qa0", beta["beta0"])
    _selection(st, "alpha_b", "risk1_11", "pSb0", "pSb1", "qb1", beta["beta1_reversed"])
    _remainder(st, 1, ("00", "11"), "three-component mixture, active arm")
    _remainder(st, 0, ("00", "11"), "three-component mixture, control arm")


def _c_protect_solve(st, f, beta):
    """Scenario C under early no-harm monotonicity (active arm never causes
    the early event) and a constant control-arm marker.

    Active-arm survivors mix the always-survivor stratum with the early-
    protected (EP) stratum, so three extra odds-ratio models split them:
    ``beta4`` splits the marker prevalence (always-survivor vs EP),
    ``beta2``/``beta3`` split the marker-negative/-positive outcome risks.
    ``beta0`` plays the same role as in scenario B for the control risks.
    Requires the testable ordering A4'': the active arm must show the lower
    early-event rate.
    """
    s1m = st.sol["s1m"]
    p10, _ = _split(st, "p10", "ep_pos_rate", "s1m", "phi", beta["beta4"])
    p00 = _derived(st, "p00", lambda v: 1.0 - v["p10"])
    st.checks((p10 <= 0.0) | (p00 <= 0.0), EstimationError,
              lambda v: f"always-survivor marker split degenerate: p(1,0) = {v:.6g}", p10)
    _split(st, "risk0_00", "risk0_10", "risk0", "p00", beta["beta0"], "p10")

    st.checks((s1m <= 0.0) | (s1m >= 1.0), EstimationError,
              lambda: "active-arm survivor markers are all one value; the early-"
              "protected split is undefined")
    w1s = _derived(st, "w1s", lambda v: v["p10"] * v["phi"] / v["s1m"])
    w0s = _derived(st, "w0s", lambda v: v["p00"] * v["phi"] / (1.0 - v["s1m"]))
    _check_unit_interval(st, "always-survivor share among positives", w1s, "B.4 split")
    _check_unit_interval(st, "always-survivor share among negatives", w0s, "B.4 split")

    _split(st, "risk1_10", "risk1_1star", "mrisk1_1", "w1s", beta["beta3"])
    _split(st, "risk1_00", "risk1_0star", "mrisk1_0", "w0s", beta["beta2"])
    _derived(st, "risk1", lambda v: v["p00"] * v["risk1_00"] + v["p10"] * v["risk1_10"])


def _c_harm_solve(st, f, beta):
    """Scenario C with the monotonicity direction reversed (active arm
    never prevents the early event), constant control-arm marker.

    Active-arm survivors are then exactly the always-survivor stratum, so
    the active risks are direct; what needs a sensitivity model is the
    control survivor risk, which mixes always-survivors with the early-
    harmed stratum. ``beta1_marginal`` is the log odds ratio between those
    two control risks; at 0 this fit equals scenario B's exactly.
    """
    _split(st, "risk0", "eh_risk", "riskm0", "phi_r", beta["beta1_marginal"])
    _split(st, "risk0_00", "risk0_10", "risk0", "p00", beta["beta0"], "p10")
    _remainder(st, 1, ("00",), "active-arm mixture identity")


class _Row(NamedTuple):
    keys: tuple[str, ...]        # legal sensitivity parameters
    strata: tuple[str, ...]      # marker strata (s1, s0) with a CEP
    opening: Callable            # beta-free opening block, see _opening
    solve: Callable              # solve(st, selectors, beta): parameters after it
    report: list[str] | None     # reported names; None reports every parameter


_SCENARIOS = {
    Scenario.A: _Row(
        ("beta0", "beta1_reversed"), ("00", "10", "11"), _a_opening, _a_solve,
        ["risk1", "risk0", "p00", "p11", "p10", "risk1_00", "risk1_10",
         "risk1_11", "risk0_00", "risk0_10", "risk0_11"]),
    Scenario.B: _Row(("beta0",), ("00", "10"), _b_opening, _b_solve, None),
    Scenario.C_PROTECT: _Row(
        ("beta0", "beta2", "beta3", "beta4"), ("00", "10"), _c_protect_opening,
        _c_protect_solve,
        ["risk1", "risk0", "p00", "p10", "risk1_00", "risk1_10", "risk0_00",
         "risk0_10", "risk1_0star", "risk1_1star", "ep_pos_rate", "phi"]),
    Scenario.C_HARM: _Row(
        ("beta0", "beta1_marginal"), ("00", "10"), _c_harm_opening, _c_harm_solve,
        ["risk1", "risk0", "p00", "p10", "risk1_00", "risk1_10", "risk0_00",
         "risk0_10", "eh_risk", "phi_r"]),
}
_LEGAL_KEYS = {scenario: frozenset(row.keys) for scenario, row in _SCENARIOS.items()}


def _solve(weighted: WeightedRecords, scenario: Scenario, beta: dict,
           rows=None) -> tuple[_Stack, list[str] | None]:
    """The cached opening block of ``scenario`` (of the replicates ``rows``),
    then its solve at the G Gamma points ``beta`` (key -> (..., G) array),
    failing elementwise through the stack's (B, G) checks. Returns the stack
    and the reported names."""
    row = _SCENARIOS[scenario]
    st, selectors = _opening(weighted, row.opening, rows)
    g = next(iter(beta.values())).shape[-1]     # a beta-free failure fails all b's points
    st.checks.failed = np.broadcast_to(st.checks.failed, (len(st.cells.count), g)).copy()
    with np.errstate(all="ignore"):
        row.solve(st, selectors, beta)
    return st, row.report


def _fit(weighted: WeightedRecords, points: list[SensitivityPoint], rows):
    """``_solve`` at each of the ``points``, the point k on replicate ``rows[k]``."""
    beta = {k: np.array([[p.get(k)] for p in points]) for k in points[0].scenario.sensitivity_keys}
    return _solve(weighted, points[0].scenario, beta, rows)


@np.errstate(all="ignore")
def fit_scenario(weighted: WeightedRecords, point: SensitivityPoint,
                 with_cov: bool = True) -> RiskEstimates:
    """Fit the scenario of one dataset at the sensitivity values of ``point``:
    the ``fit_ceps`` fit read as a batch of one. Its first failure raises."""
    st, report = _fit(weighted, [point], [0])
    return RiskEstimates(point.scenario, point, *_one(st, with_cov, report), weighted.n)


def fit_targets(weighted: WeightedRecords, scenario: Scenario, beta: dict,
                contrast: Contrast) -> tuple[np.ndarray, np.ndarray]:
    """Every target of ``scenario`` (rows as in ``target_map``) at the G Gamma
    points ``beta`` (key -> length-G array) in one pass, (T, B, G) with B = 1
    for one dataset, and each point's first failure, (B, G), None where the
    point did not fail; a failed point's values are meaningless. Where every
    replicate's opening block failed, each point holds its replicate's
    failure and NaN values, and no point is solved."""
    opened, _ = _opened(weighted, _SCENARIOS[scenario].opening)
    if not opened.checks.ok().any():    # every replicate's opening failed: nothing to solve
        failed = np.broadcast_to(opened.checks.failed, (len(opened.cells.count),
                                                        len(next(iter(beta.values()))))).copy()
        return np.full((len(scenario.targets), *failed.shape), np.nan), failed
    st, report = _solve(weighted, scenario, beta)
    names, theta, _ = _finalize(st, False, report)
    with np.errstate(all="ignore"):
        return target_map(scenario, names, contrast, st.checks)(theta), st.checks.failed


FIT_CHUNK = 128     # fits per covariance pass, whose cell Jacobian is (fits, p, cells)


def fit_ceps(weighted: WeightedRecords, points: list[SensitivityPoint],
             contrast: Contrast, rows) -> tuple[list[CepResult], np.ndarray]:
    """``cep(fit_scenario(...))`` at each of the ``points`` in stacked fits of at
    most ``FIT_CHUNK`` points (``_fit``; rows are 0 for one dataset) and each
    fit's first failure, (k,), None where the fit did not fail. Each result reads
    its fit on demand (``CepResult.fit``). No fit's numbers depend on the fits
    beside it, so neither do they depend on where the chunks are cut."""
    ceps, failed = [], []
    for s in range(0, len(points), FIT_CHUNK):
        chunk = points[s:s + FIT_CHUNK]
        st, report = _fit(weighted, chunk, rows[s:s + FIT_CHUNK])
        with np.errstate(all="ignore"):
            names, theta, cov = _finalize(st, True, report)
            ceps += _ceps(chunk[0].scenario, names, theta, cov, contrast, chunk, st.checks)
        for j, c in enumerate(ceps[s:]):
            c.stacked = (names, theta, cov, st.cells.count, j)
        failed.append(st.checks.failed[:, 0])
    return ceps, np.concatenate(failed)


# ---------------------------------------------------------------------------
# mean-shift alternative (Chiba and VanderWeele, 2011, adapted)


@np.errstate(all="ignore")
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
    _mean(st, "mu10", f.z * f.m * f.neg, f.y, "active negative survivors")
    _mean(st, "mu00", (1 - f.z) * f.m * f.neg, f.y, "control negative survivors")
    _mean(st, "mu11", f.z * f.m * f.pos, f.y, "active positive survivors")
    _derived(st, "risk1_00", lambda v: v["mu10"])
    _derived(st, "risk0_00", lambda v: v["mu00"] + alpha0)

    report = ["risk1", "risk0", "p00", "p10", "risk1_00", "risk1_10",
              "risk0_00", "risk0_10"]
    if scenario is Scenario.A:
        _mean(st, "mu01", (1 - f.z) * f.m * f.pos, f.y, "control positive survivors")
        _mean(st, "p11", (1 - f.z) * f.m, f.pos, "measured arm-0 survivor markers")
        _derived(st, "risk1_11", lambda v: v["mu11"] - alpha1)
        _derived(st, "risk0_11", lambda v: v["mu01"])
        report += ["p11", "risk1_11", "risk0_11"]
    others = tuple(s for s in scenario.strata if s != "10")
    _p10(st, tuple(f"p{s}" for s in others))
    for z in (1, 0):
        _remainder(st, z, others, "mean-shift mixture identity")

    est = RiskEstimates(scenario, SensitivityPoint(scenario), *_one(st, True, report), st.cells.n)
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
    a5p = None if None in pos_rates.values() else pos_rates[0] < pos_rates[1]
    cb = None if pos_rates[0] is None else pos_rates[0] == 0.0

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
