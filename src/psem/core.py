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
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import (ConfigError, DataError, EstimationError,
                     IncompatibleSensitivityError, OrderingError, PsemError)
from .mathutil import Checks, expit, fisher_exact_two_sided, solve_logit_mixture
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
    array) and its gradient, whose trailing axis of length p broadcasts against
    the value's shape. In ``+ - *``, numpy operands defer to it as constants."""

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

    __radd__, __rmul__ = __add__, __mul__


def _expit(x: _Dual) -> _Dual:
    """mathutil.expit on duals: d expit = e (1 - e) dx, overflow-free on arrays."""
    e = expit(x.v) if np.ndim(x.v) == 0 else np.exp(-np.logaddexp(0.0, -x.v))
    return _Dual(e, x.g * _col(e * (1.0 - e)))


class _Stack:
    """Named estimating-function rows over the dataset cells.

    Rows are either per-cell functions (length-ncells arrays) or
    deterministic constraints (scalars, zero at the solution). Solutions
    are computed blockwise by the scenario builders: scalars before the
    first mixture solve, then one value per Gamma point (a scalar at one
    point), failing elementwise through ``checks``; batched cells (counts
    (B, ncells)) give every value a leading (B, 1). This class assembles the
    sandwich at one point per replicate, rows and exact Jacobian in one pass,
    and checks the stacked residual. With counts c_i, n = sum_i c_i, rows psi_i:

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
        self.sol: dict[str, float | np.ndarray] = {}
        self.checks = Checks((*cells.count.shape[:-1], 1) if cells.count.ndim > 1 else None)

    def add(self, name: str, value, fn: Callable) -> None:
        if name in self.sol:
            raise ValueError(f"duplicate parameter {name}")
        self.names.append(name)
        self.fns.append(fn)
        self.sol[name] = value

    def copy(self, rows=None) -> "_Stack":
        """A copy to solve on; with ``rows``, of those replicates, one dataset
        a batch of one: counts (ncells,) read as (1, ncells), scalars as (1, 1)."""
        new, old = _Stack(self.cells if rows is None else replace(
            self.cells, count=np.atleast_2d(self.cells.count)[rows])), self.checks.failed
        new.names, new.fns = list(self.names), list(self.fns)
        new.sol = {k: v if rows is None else np.reshape(v, (-1, 1))[rows]
                   for k, v in self.sol.items()}
        new.checks.failed.update(old if rows is None else
                                 {k: old[b] for k, b in enumerate(rows) if b in old})
        return new

    def theta(self) -> np.ndarray:
        """Solved values, shape (p, *checks.shape): (p,) at one point."""
        out = np.empty((len(self.names), *(self.checks.shape or ())))
        for j, name in enumerate(self.names):
            out[j] = self.sol[name]
        return out

    def sandwich(self) -> tuple[np.ndarray, np.ndarray]:
        """(theta, cov): (p,) and (p, p), or (p, B, 1) and (B, 1, p, p) batched."""
        count = self.cells.count
        c = count[..., None, :]
        n = c.sum(axis=-1, keepdims=True)
        theta = self.theta()
        p = len(theta)
        d = dict(zip(self.names, map(_Dual, theta, np.eye(p))))
        u, grad = np.empty((*count.shape, p)), np.empty((*count.shape, p))
        bread = np.empty((*count.shape[:-1], p, p))
        for j, row in enumerate(fn(d) for fn in self.fns):   # no (p, *count.shape, p) stack
            u[..., j], grad[...] = row.v, row.g
            np.matmul(c, grad, out=bread[..., j:j + 1, :])
        resid = np.max(np.abs(c @ u / n), axis=-1)
        self.checks(~(resid <= 1e-8), EstimationError, lambda r: f"stacked residual "
                    f"{r:.3e} exceeds tolerance; the blockwise solution is inconsistent", resid)
        meat = np.swapaxes(np.multiply(u, count[..., None], out=grad), -1, -2) @ u / n
        bread = bread / n
        dead = ~np.isfinite(bread).all((-2, -1), keepdims=True)
        self.checks(dead[..., 0], EstimationError, lambda: "the stacked fit's bread is not finite")
        if self.checks.failed:      # failed replicates invert I: their NaN breads must not raise
            dead.flat[list(self.checks.failed)] = True
            bread = np.where(dead, np.eye(p), bread)
        try:
            bread_inv = np.linalg.inv(bread)
        except np.linalg.LinAlgError:      # one replicate at a time: the singular fail alone
            bread_inv = bread.reshape(-1, p, p).copy()
            for b, m in enumerate(bread_inv):
                try:
                    bread_inv[b] = np.linalg.inv(m)
                except np.linalg.LinAlgError:
                    bread_inv[b] = np.eye(p)
                    self.checks(np.arange(len(bread_inv))[:, None] == b, EstimationError,
                                lambda: "singular bread matrix in the stacked fit")
            bread_inv = bread_inv.reshape(bread.shape)
        cov = bread_inv @ meat @ np.swapaxes(bread_inv, -1, -2) / n
        return theta, (0.5 * (cov + np.swapaxes(cov, -1, -2))).reshape(*theta.shape[1:], p, p)


def _mean(st: "_Stack", name: str, sel, resp, what: str):
    """Weighted mean ``name`` of resp over the cells ((B, 1) if batched),
    selection weights sel >= 0. Adds its row sel * (resp - theta); returns it."""
    count = st.cells.count
    denom = np.sum(count * sel, axis=-1, keepdims=count.ndim > 1)
    st.checks(denom <= 0.0, EstimationError, lambda: f"empty stratum: no observations for {what}")
    value = np.sum(count * sel * resp, axis=-1, keepdims=count.ndim > 1) / denom
    st.add(name, value, lambda d: sel * (resp - d[name]))
    return value


def _p10(st: "_Stack", others: tuple[str, ...]):
    """Mixing share p(1,0) = 1 - sum of the shares ``others``, subtracted in
    the order given. Checks it is positive, adds its row, returns it."""
    def share(v):
        acc = 1.0
        for o in others:
            acc = acc - v[o]
        return acc

    value = share(st.sol)
    st.checks(value <= 0.0, EstimationError, lambda v: f"estimated p(1,0) = {v:.6g} is "
              "not positive; the always-survivor effect-modification stratum is "
              "empty in these data", value)
    st.add("p10", value, lambda d: share(d) - d["p10"])
    return value


def _split(st: "_Stack", a: str, b: str, target: str, w: str, beta: float,
           w_b: str | None = None) -> tuple[float, float]:
    """Odds-ratio split of the mixture ``target`` = w a + (1 - w) b, with
    odds(a)/odds(b) = exp(beta) as a product-form row (polynomial, so
    defined at boundary risks, where odds are not). ``w_b`` names b's weight
    where it is a parameter of its own. Adds both rows; returns (a, b)."""
    va, vb = solve_logit_mixture(st.sol[target], st.sol[w], beta, st.checks)
    st.add(a, va, lambda d: d[a] * (1.0 - d[b]) - np.exp(beta) * d[b] * (1.0 - d[a]))
    st.add(b, vb, (lambda d: d[target] - d[w] * d[a] - (1 - d[w]) * d[b])
           if w_b is None else (lambda d: d[target] - d[w] * d[a] - d[w_b] * d[b]))
    return va, vb


def _selection(st: "_Stack", alpha: str, out: str, lo: str, hi: str, q: str,
               beta: float) -> tuple[float, float]:
    """Logistic selection solve: ``alpha`` solves the margin identity
    lo = hi ((1-q) expit(alpha) + q expit(alpha+beta)) and
    ``out`` = expit(alpha+beta) q hi / lo. Adds both rows; returns them."""
    rho = st.sol[lo] / st.sol[hi]
    w1, w0 = solve_logit_mixture(rho, st.sol[q], beta, st.checks)
    a, adjusted = np.log(w0 / (1.0 - w0)), w1 * st.sol[q] / rho
    st.add(alpha, a, lambda d: d[lo] - d[hi] * ((1 - d[q]) * _expit(d[alpha])
                                                + d[q] * _expit(d[alpha] + beta)))
    st.add(out, adjusted,
           lambda d: d[out] * d[lo] - _expit(d[alpha] + beta) * d[q] * d[hi])
    return a, adjusted


def _sace_margins(st: "_Stack", f, state, weight, direction: Direction,
                  names: tuple[str, str, str, str], label: str) -> tuple[str, str]:
    """Beta-free rows of one always-stratum selection solve on the binary
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
    _check_unit_interval(st, out, value, context)

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


def _opening(weighted: WeightedRecords, build: Callable, rows=None):
    """(stack copy, selectors) of the beta-free opening block ``build(weighted)``.

    The block is solved once per dataset and cached on ``weighted``, so every
    fit of that dataset, point-only or with covariance, continues from the
    same solved rows and a grid point pays only for its mixture solves. A
    block that raises is not cached: each fit raises it again.
    """
    blocks = weighted.fit_blocks
    if build not in blocks:
        with np.errstate(all="ignore"):
            blocks[build] = build(weighted)
    st, selectors = blocks[build]
    return st.copy(rows), selectors


def _check_unit_interval(st: "_Stack", name: str, value, context: str) -> None:
    st.checks(np.logical_not((-1e-12 <= value) & (value <= 1.0 + 1e-12)),
              IncompatibleSensitivityError,
              lambda v: f"derived {name} = {v:.6g} lies outside [0, 1]; the sensitivity "
              f"parameters are incompatible with the data ({context})", value)


def _finalize(st: "_Stack", with_cov: bool, report: list[str] | None = None):
    """Extract (names, theta, cov) from a solved stack, optionally skipping
    the sandwich (point-estimate-only path used inside grid sweeps)."""
    theta, cov = st.sandwich() if with_cov else (st.theta(), None)
    if report is None:
        return tuple(st.names), theta, cov
    idx = [st.names.index(nm) for nm in report]
    sub = cov[(..., *np.ix_(idx, idx))] if cov is not None else None
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
    # the fit these contrasts come from, set by fit_ceps for one dataset
    fit: RiskEstimates | None = field(default=None, compare=False, repr=False)

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
    ``names``, with shape (p,) at one point or (p, G) over a grid;
    ``checks`` as in Contrast.apply."""
    idx = [(names.index(f"risk1_{s}"), names.index(f"risk0_{s}")) for s in scenario.strata]
    checks = checks or Checks()

    def h(t):
        t = t.tolist() if t.ndim == 1 else t    # Python floats: same values, faster
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
    return _ceps(estimates.scenario, estimates.names, estimates.theta, estimates.cov,
                 contrast, [estimates.sensitivity])[0]


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
# identified quantities


def estimate_identified(weighted: WeightedRecords,
                        scenario: Scenario) -> RiskEstimates:
    """Nonparametrically identified pieces under equal early clinical risk:
    per-arm survivor risks and the IPW mixing proportions."""
    if scenario not in (Scenario.A, Scenario.B):
        raise ConfigError("risk_z and the mixing proportions are directly "
                          "identified only in scenarios A and B")
    st, f = _opening(weighted, _identified)
    if scenario is Scenario.A:
        _mean(st, "p11", (1 - f.z) * f.m, f.pos, "measured arm-0 survivor markers")
    _p10(st, tuple(f"p{s}" for s in scenario.strata if s != "10"))
    return RiskEstimates(scenario, SensitivityPoint(scenario),
                         *_finalize(st, True), st.cells.n)


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
    s_vals, m_vals = _cell_s_values(cells, s_definition)
    st = _Stack(cells)
    q, direct, out = (("q0", "p11t", "p11c") if direction is Direction.STANDARD_MONOTONE
                      else ("q1", "p11c", "p11t"))
    lo, hi = _sace_margins(st, _features(cells), s_vals, m_vals, direction,
                           ("pS1", "pS0", q, direct), ordering_label)
    alpha, _ = _selection(st, "alpha", out, lo, hi, q, beta)
    _, _, cov = _finalize(st, True, ("p11t", "p11c"))
    return SaceFit(p11_treated=st.sol["p11t"], p11_control=st.sol["p11c"],
                   cov=cov, alpha=alpha)


# ---------------------------------------------------------------------------
# scenario fits


# Opening blocks: everything a scenario fit does before its first mixture
# solve. Each takes the dataset and returns, for _opening, the stack and the
# per-cell selectors later rows read; solved values are read from st.sol.
# A scenario's solve then adds its rows at the Gamma points ``beta``
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
    pyt1 = _mean(st, "pyt1", f.z, 1 - f.surv, "arm-1 records")
    pyt0 = _mean(st, "pyt0", 1 - f.z, 1 - f.surv, "arm-0 records")
    return st, f, pyt1, pyt0


def _c_protect_opening(weighted):
    st, f, pyt1, pyt0 = _early_rates(weighted, "risk0")
    st.checks(np.logical_not(pyt1 < pyt0), OrderingError,
              lambda a, b: "early-event ordering (A4'') fails: the active-arm early rate "
              f"{a:.4g} is not below the control rate {b:.4g}; Wald inference under "
              "early no-harm monotonicity is invalid here", pyt1, pyt0)
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
    rows _a_opening added: the standard direction on state (survivor and
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
    phi, s1m = st.sol["phi"], st.sol["s1m"]
    p10, _ = _split(st, "p10", "ep_pos_rate", "s1m", "phi", beta["beta4"])
    p00 = 1.0 - p10
    st.checks((p10 <= 0.0) | (p00 <= 0.0), EstimationError,
              lambda v: f"always-survivor marker split degenerate: p(1,0) = {v:.6g}", p10)
    st.add("p00", p00, lambda d: 1.0 - d["p10"] - d["p00"])
    _split(st, "risk0_00", "risk0_10", "risk0", "p00", beta["beta0"], "p10")

    st.checks((s1m <= 0.0) | (s1m >= 1.0), EstimationError,
              lambda: "active-arm survivor markers are all one value; the early-"
              "protected split is undefined")
    w1s = p10 * phi / s1m
    w0s = p00 * phi / (1.0 - s1m)
    _check_unit_interval(st, "always-survivor share among positives", w1s, "B.4 split")
    _check_unit_interval(st, "always-survivor share among negatives", w0s, "B.4 split")
    st.add("w1s", w1s, lambda d: d["w1s"] * d["s1m"] - d["p10"] * d["phi"])
    st.add("w0s", w0s, lambda d: d["w0s"] * (1 - d["s1m"]) - d["p00"] * d["phi"])

    r110, _ = _split(st, "risk1_10", "risk1_1star", "mrisk1_1", "w1s", beta["beta3"])
    r100, _ = _split(st, "risk1_00", "risk1_0star", "mrisk1_0", "w0s", beta["beta2"])

    risk1 = p00 * r100 + p10 * r110
    st.add("risk1", risk1,
           lambda d: d["p00"] * d["risk1_00"] + d["p10"] * d["risk1_10"] - d["risk1"])


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
    solve: Callable              # solve(st, selectors, beta): rows after it
    report: list[str] | None     # reported names; None reports every row


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
           checks: Checks, rows=None) -> tuple[_Stack, list[str] | None]:
    """The cached opening block of ``scenario`` (of the replicates ``rows``),
    then its solve at the Gamma points ``beta``, failing elementwise through
    ``checks``. Returns the stack and the reported names."""
    row = _SCENARIOS[scenario]
    st, selectors = _opening(weighted, row.opening, rows)
    g = checks.shape[-1] if checks.shape else 0     # a beta-free failure fails all b's points
    checks.failed.update({b * g + j: e for b, e in st.checks.failed.items() for j in range(g)})
    st.checks = checks
    with np.errstate(all="ignore"):
        row.solve(st, selectors, beta)
    return st, row.report


def _fit(weighted: WeightedRecords, points: list[SensitivityPoint], rows, with_cov: bool):
    """(names, theta (p, k, 1), cov (k, 1, p, p) or None, checks) of the stacked
    fit at each of the ``points``, the point k on replicate ``rows[k]``."""
    beta = {k: np.array([[p.get(k)] for p in points]) for k in points[0].scenario.sensitivity_keys}
    checks = Checks((len(points), 1))
    st, report = _solve(weighted, points[0].scenario, beta, checks, rows)
    with np.errstate(all="ignore"):
        return *_finalize(st, with_cov, report), checks


def fit_scenario(weighted: WeightedRecords, point: SensitivityPoint,
                 with_cov: bool = True) -> RiskEstimates:
    """Fit the scenario of one dataset at the sensitivity values of ``point``:
    the ``fit_ceps`` fit read as a batch of one. Its first failure raises."""
    names, theta, cov, checks = _fit(weighted, [point], [0], with_cov)
    if checks.failed:
        raise checks.failed[0]
    return RiskEstimates(point.scenario, point, names, theta[:, 0, 0],
                         None if cov is None else cov[0, 0], weighted.n)


def fit_targets(weighted: WeightedRecords, scenario: Scenario, beta: dict,
                contrast: Contrast) -> tuple[np.ndarray, dict[int, PsemError]]:
    """Every target of ``scenario`` (rows as in ``target_map``) at the G Gamma
    points ``beta`` (key -> length-G array) in one pass, (T, G) or (T, B, G)
    batched, and each failed point's first failure by flat index; its values are
    meaningless."""
    checks = Checks((*weighted.cells.count.shape[:-1], len(next(iter(beta.values())))))
    st, report = _solve(weighted, scenario, beta, checks)
    names, theta, _ = _finalize(st, False, report)
    with np.errstate(all="ignore"):
        return target_map(scenario, names, contrast, checks)(theta), checks.failed


def fit_ceps(weighted: WeightedRecords, points: list[SensitivityPoint],
             contrast: Contrast, rows) -> tuple[list[CepResult], dict[int, PsemError]]:
    """``cep(fit_scenario(...))`` at each of the ``points`` in one stacked fit
    (``_fit``; rows are 0 for one dataset) and each failed fit's first failure
    by its index in ``points``. For one dataset each result also holds its fit
    (``CepResult.fit``); batched data skip it, as holding every fit of a
    study block slows ``run_study`` by several percent. No fit's numbers
    depend on the fits beside it."""
    names, theta, cov, checks = _fit(weighted, points, rows, True)
    with np.errstate(all="ignore"):
        ceps = _ceps(points[0].scenario, names, theta, cov, contrast, points, checks)
    if weighted.cells.count.ndim == 1:
        for j, c in enumerate(ceps):
            c.fit = RiskEstimates(c.sensitivity.scenario, c.sensitivity, names, theta[:, j, 0],
                                  cov[j, 0], weighted.n)
    return ceps, checks.failed


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
        report += ["p11", "risk1_11", "risk0_11"]
    others = tuple(s for s in scenario.strata if s != "10")
    _p10(st, tuple(f"p{s}" for s in others))
    for z in (1, 0):
        _remainder(st, z, others, "mean-shift mixture identity")

    est = RiskEstimates(scenario, SensitivityPoint(scenario),
                        *_finalize(st, True, report), st.cells.n)
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
