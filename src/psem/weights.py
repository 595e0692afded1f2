"""Inverse-probability weights for two-phase sampling of the marker.

The marker is missing by design for survivors outside the measured subset;
assuming missingness at random given the fully observed data (z, y_tau, y),
estimators reweight measured survivors by 1/pi where pi = P(measured = 1).

Two weight models are supported:

* ``WeightModel.design_known(nu)`` - the case-cohort design: every case
  (y = 1) is measured with certainty (pi = 1) and controls belong to a
  Bernoulli(nu) subcohort (pi = nu). Nothing is estimated.
* ``WeightModel.estimated_logistic(terms)`` - a logistic model for
  P(measured = 1) on a subset of {intercept, z, y, z*y}, fit by
  Newton-Raphson maximum likelihood among survivors. Covariate terms are a
  possible extension point but are deliberately not offered by default, as
  the downstream estimators condition only on (z, y_tau, marker, y).

Fitted probabilities must stay above the floor ``eps``; violations raise
PositivityError. Weights are raw 1/pi (never normalized); a normalized
variant is exposed for diagnostics only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tables
from .errors import DataError, PositivityError, SeparationError
from .mathutil import expit
from .tables import CellTable, S_MISS

ALLOWED_TERMS = ("intercept", "z", "y", "z*y")


@dataclass(frozen=True)
class WeightModel:
    kind: str                      # "design" or "logistic"
    nu: float | None = None
    terms: tuple[str, ...] = ("intercept", "y")
    eps: float = 0.01

    @staticmethod
    def design_known(nu: float, eps: float = 0.01) -> "WeightModel":
        if not 0.0 < nu <= 1.0:
            raise DataError(f"subcohort fraction nu must be in (0,1], got {nu}")
        return WeightModel(kind="design", nu=nu, eps=eps)

    @staticmethod
    def estimated_logistic(terms=("intercept", "y"), eps: float = 0.01) -> "WeightModel":
        terms = tuple(terms)
        bad = [t for t in terms if t not in ALLOWED_TERMS]
        if bad:
            raise DataError(f"unsupported weight-model terms {bad}; "
                            f"allowed: {list(ALLOWED_TERMS)}")
        if "intercept" not in terms:
            raise DataError("the weight model must include an intercept")
        return WeightModel(kind="logistic", terms=terms, eps=eps)

    def __post_init__(self):
        if not 0.0 < self.eps < 0.5:
            raise DataError(f"weight floor eps must be in (0, 0.5), got {self.eps}")


@dataclass
class WeightedRecords:
    """Dataset plus fitted sampling probabilities, ready for estimation."""

    cells: CellTable
    model: WeightModel
    psi: np.ndarray | None = None      # logistic coefficients when estimated
    certainty_cases: bool = False
    # cached beta-free opening blocks (keyed by builder) and covariance fits
    fit_blocks: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    @property
    def n(self) -> float:
        return self.cells.n

    def normalized_weights(self) -> np.ndarray:
        """Diagnostic only: measured-survivor weights rescaled to mean 1."""
        w, counts = self._measured_weights()
        return w / (np.sum(w * counts) / np.sum(counts))

    def _measured_weights(self):
        mask = (self.cells.yt == 0) & (self.cells.s != S_MISS)
        return self.cells.w[mask], self.cells.count[mask]


def _logistic_design(terms, z, y):
    cols = []
    for t in terms:
        if t == "intercept":
            cols.append(np.ones_like(z, dtype=float))
        elif t == "z":
            cols.append(z.astype(float))
        elif t == "y":
            cols.append(y.astype(float))
        else:
            cols.append((z * y).astype(float))
    return np.column_stack(cols)


def _logistic_mle(x, measured, total, max_iter=50, tol=1e-12):
    """Newton-Raphson logistic MLE on aggregated rows.

    x: design matrix (rows = strata), measured/total: successes and trials.
    """
    psi = np.zeros(x.shape[1])
    for _ in range(max_iter):
        eta = x @ psi
        p = np.array([expit(v) for v in eta])
        score = x.T @ (measured - total * p)
        hess = (x * (total * p * (1 - p))[:, None]).T @ x
        try:
            step = np.linalg.solve(hess, score)
        except np.linalg.LinAlgError:
            raise SeparationError(
                "singular information matrix in the missingness fit; "
                "use design-known weights") from None
        psi = psi + step
        if np.max(np.abs(psi)) > 15.0:
            raise SeparationError(
                "missingness MLE diverged (separation); use design-known weights")
        if np.max(np.abs(step)) < tol:
            return psi
    raise SeparationError("missingness MLE did not converge; use design-known weights")


def fit_missingness(records, model: WeightModel | None = None) -> WeightedRecords:
    """Fit the two-phase sampling model and attach weights to the data.

    ``records`` may be a list of ObservedRecord or an already-aggregated
    CellTable. With ``model=None``, fully measured data get design-known
    weights with nu = 1 and anything else the default logistic model on
    {intercept, y}.
    """
    cells = records if isinstance(records, CellTable) else tables.from_records(records)

    surv = cells.yt == 0
    missing = surv & (cells.s == S_MISS)
    any_missing = bool(cells.count[missing].sum() > 0)
    if model is None:
        model = (WeightModel.design_known(1.0) if not any_missing
                 else WeightModel.estimated_logistic())

    pi = np.full(len(cells.count), np.nan)
    psi = None
    certainty = False
    if model.kind == "design":
        pi[surv] = np.where(cells.y[surv] == 1, 1.0, model.nu)
    else:
        if not any_missing:
            raise SeparationError(
                "every marker is measured; the logistic missingness model is "
                "not estimable (use design-known weights with nu = 1)")
        z_s, y_s = cells.z[surv], cells.y[surv]
        n_s = cells.count[surv]
        m_s = np.where(cells.s[surv] != S_MISS, cells.count[surv], 0.0)
        fit_rows = np.ones(len(n_s), dtype=bool)
        terms = model.terms
        # cases measured with certainty are kept at pi = 1, not modeled
        if "y" in terms or "z*y" in terms:
            case_rows = y_s == 1
            if case_rows.any() and np.all(m_s[case_rows] == n_s[case_rows]):
                certainty = True
                fit_rows = ~case_rows
                terms = tuple(t for t in terms if "y" not in t)
        if fit_rows.any() and not np.all(m_s[fit_rows] == 0):
            x = _logistic_design(terms, z_s[fit_rows], y_s[fit_rows])
            psi = _logistic_mle(x, m_s[fit_rows], n_s[fit_rows])
            eta = x @ psi
            fitted = np.array([expit(v) for v in eta])
        else:
            raise DataError("no measured markers among the modeled survivors")
        out = np.empty(len(n_s))
        out[fit_rows] = fitted
        if certainty:
            out[~fit_rows] = 1.0
        pi[surv] = out

    blind = missing & (cells.count > 0) & (pi >= 1.0)
    if blind.any():
        offenders = [f"(z={cells.z[i]}, y={cells.y[i]})" for i in np.nonzero(blind)[0]]
        raise DataError(
            "markers missing for survivors sampled with certainty (pi = 1) in "
            f"cells {offenders}; they would be dropped without reweighting")
    low = surv & (pi < model.eps)
    if low.any():
        offenders = [f"(z={cells.z[i]}, y={cells.y[i]}, pi={pi[i]:.4g})"
                     for i in np.nonzero(low)[0]]
        raise PositivityError(
            "positivity violation: fitted sampling probabilities below "
            f"eps={model.eps} for cells {offenders}")

    w = np.ones(len(cells.count))
    w[surv] = 1.0 / pi[surv]
    cells = CellTable(z=cells.z, yt=cells.yt, s=cells.s, y=cells.y,
                      count=cells.count, pi=pi, w=w)
    return WeightedRecords(cells=cells, model=model, psi=psi,
                           certainty_cases=certainty)


def effective_sample(weighted: WeightedRecords) -> float:
    """Kish effective sample size (sum w)^2 / (sum w^2) of the measured
    survivor weights; equals their count when all weights are equal."""
    w, counts = weighted._measured_weights()
    if counts.sum() <= 0:
        raise DataError("no measured markers; effective sample undefined")
    sw = float(np.sum(counts * w))
    sw2 = float(np.sum(counts * w * w))
    return sw * sw / sw2
